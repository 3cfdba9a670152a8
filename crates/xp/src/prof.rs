//! `xp prof`: drive the trace-driven NUMA profiler over the benchmarks.
//!
//! For each requested benchmark the command runs the `xp trace` reference
//! configuration (round-robin placement + UPMlib, a setup where pages
//! actually move), hands the collected event stream to [`prof::Profile`]
//! together with a [`prof::ProfileContext`] assembled from the benchmark's
//! static [`nas::KernelModel`], and writes three artifacts per benchmark
//! under the output directory:
//!
//! * `prof-<bench>.md` — the full profile (phase attribution, iteration
//!   table, convergence, heatmaps) as markdown;
//! * `prof-<bench>.jsonl` — the raw schema-versioned trace, re-loadable
//!   with `xp prof <bench> --from FILE`;
//! * `prof-<bench>.chrome.json` — the Chrome trace enriched with the
//!   profiler's Perfetto counter tracks.
//!
//! The returned [`Report`] is a pure function of the analysis (artifact
//! *stems* in the notes, never absolute paths), so reports and profiles
//! are byte-identical at every `--jobs` count and serve as golden
//! fixtures.

use crate::report::Report;
use crate::CellPlan;
use ::prof::{ArrayHeatmap, ArraySpan, Profile, ProfileContext};
use nas::{BenchName, RunResult, Scale};
use obs::export::{chrome_document, event_entry, to_jsonl};
use obs::{Event, Tracer};
use std::path::Path;

/// Assemble the profiler's static context for one benchmark: machine
/// shape from the paper machine, loop labels and array spans from the
/// kernel model (allocated exactly as a dynamic run would, so addresses
/// match the trace bit-for-bit — see [`crate::lint::model_for`]).
pub fn context_for(bench: BenchName, scale: Scale) -> ProfileContext {
    let model = crate::lint::model_for(bench, scale);
    let nodes = ccnuma::MachineConfig::origin2000_16p_scaled()
        .topology
        .nodes();
    let arrays = model
        .arrays()
        .iter()
        .map(|a| {
            let (base, len) = a.vrange();
            ArraySpan::new(a.name(), base, len)
        })
        .collect();
    ProfileContext::new(
        bench.label(),
        scale.label(),
        nodes,
        ccnuma::PAGE_SIZE,
        model.cold_loop_names(),
        model.iteration_loop_names(),
        arrays,
    )
}

/// Run one benchmark traced and analyse the stream: the profile plus the
/// raw run and tracer (tests reconcile the profile against both).
pub fn profile_one(bench: BenchName, scale: Scale) -> (RunResult, Box<Tracer>, Profile) {
    let (result, tracer) = crate::trace::run_traced(bench, scale);
    let ctx = context_for(bench, scale);
    let events: Vec<Event> = tracer.ring.iter().cloned().collect();
    let profile = Profile::analyze(&events, &ctx, tracer.dropped_events());
    (result, tracer, profile)
}

/// The profile's `xp` report: the phase-attribution table plus convergence
/// and heatmap summaries as notes. Pure function of the profile.
pub fn report_for(profile: &Profile) -> Report {
    let bench = profile.bench.to_ascii_lowercase();
    let mut report = Report::new(
        &format!("prof_{bench}_{}", profile.scale),
        &format!(
            "NUMA profile of NAS {} ({}): per-phase attribution under rr-upmlib",
            profile.bench, profile.scale
        ),
        &[
            "Phase",
            "Kind",
            "Execs",
            "Wall (ms)",
            "Remote %",
            "Stall (ms)",
            "Mapped",
            "Migr",
            "Vetoed",
            "Frozen",
            "Replay",
        ],
    );
    for row in &profile.phases {
        report.row(vec![
            row.label.clone(),
            row.kind.label().to_string(),
            row.executions.to_string(),
            format!("{:.3}", row.wall_ns * 1e-6),
            format!("{:.1}", row.remote_fraction() * 100.0),
            format!("{:.3}", row.stall_ns * 1e-6),
            row.pages_mapped.to_string(),
            row.migrations.to_string(),
            row.vetoes.to_string(),
            row.freezes.to_string(),
            row.replay_moves.to_string(),
        ]);
    }
    report.note(format!(
        "{} events analysed ({} dropped), {} iterations",
        profile.events,
        profile.dropped_events,
        profile.iterations.len()
    ));
    let c = &profile.convergence;
    let decay: Vec<String> = c
        .decay
        .iter()
        .map(|(inv, moved)| format!("{inv}:{moved}"))
        .collect();
    report.note(format!(
        "migrations: {} total; decay curve {}",
        c.total_migrations,
        decay.join(" ")
    ));
    match (c.deactivated_at, c.deactivation_iteration) {
        (Some(inv), Some(iter)) => report.note(format!(
            "engine deactivated at invocation {inv} (iteration {iter})"
        )),
        _ => report.note("engine never deactivated"),
    }
    report.note(format!(
        "ping-pong census: {} pages returned to a former home, {} frozen, {} distinct pages vetoed",
        c.ping_pong_pages,
        c.frozen_pages.len(),
        c.vetoes.len()
    ));
    for map in &profile.heatmaps {
        if map.pages == 0 {
            continue;
        }
        report.note(format!(
            "heatmap {}: {} pages in {} bins, {} counter reads, {} migrations in",
            map.name,
            map.pages,
            map.bins,
            ArrayHeatmap::total(&map.accesses),
            ArrayHeatmap::total(&map.migrations_in)
        ));
    }
    for warning in &profile.warnings {
        report.note(format!("warning: {warning}"));
    }
    report
}

/// Write `prof-<bench>.{md,jsonl,chrome.json}` under `dir`; returns the
/// report note saying so.
fn save_artifacts(dir: &Path, events: &[Event], profile: &Profile) -> String {
    let stem = format!("prof-{}", profile.bench.to_ascii_lowercase());
    let dropped = profile.dropped_events;
    let md = profile.to_markdown();
    let jsonl = to_jsonl(events.iter(), dropped);
    let entries = events.iter().map(event_entry);
    let doc = chrome_document(
        &stem,
        entries.chain(profile.counter_tracks.clone()),
        dropped,
    );
    let written = crate::artifacts::write(dir, &stem, Some(&md), &jsonl, &doc);
    crate::artifacts::note(&stem, written)
}

/// The `xp prof` command: profile every requested benchmark on the cell
/// pool and write the artifacts in plan order.
pub fn run(benches: &[BenchName], scale: Scale, out_dir: &Path) -> Vec<Report> {
    let mut plan: CellPlan<(RunResult, Box<Tracer>, Profile)> = CellPlan::new();
    for &bench in benches {
        plan.add(format!("prof:{}", bench.label().to_ascii_lowercase()), {
            move || profile_one(bench, scale)
        });
    }
    let mut reports = Vec::new();
    for output in plan.execute() {
        let id = output.id.clone();
        match output.value {
            Ok((result, tracer, profile)) => {
                let mut report = report_for(&profile);
                report.note(format!(
                    "verification: {}",
                    if result.verification.passed {
                        "PASSED"
                    } else {
                        "FAILED"
                    }
                ));
                let events: Vec<Event> = tracer.ring.iter().cloned().collect();
                report.note(save_artifacts(out_dir, &events, &profile));
                reports.push(report);
            }
            Err(panic) => {
                let mut report = Report::new(
                    &format!("prof_{}", id.replace(':', "_")),
                    "NUMA profile (failed cell)",
                    &["Cell", "Status"],
                );
                report.failed_row(&id, &panic.message);
                reports.push(report);
            }
        }
    }
    reports
}

/// The `xp prof <bench> --from FILE` offline path: re-analyse a saved
/// `trace.jsonl` (any schema-compatible trace) without running anything.
pub fn run_from(
    from: &Path,
    bench: BenchName,
    scale: Scale,
    out_dir: &Path,
) -> Result<Report, String> {
    let loaded = obs::import::load_path(from).map_err(|e| e.to_string())?;
    let ctx = context_for(bench, scale);
    let profile = Profile::analyze(&loaded.events, &ctx, loaded.dropped_events);
    let mut report = report_for(&profile);
    for warning in &loaded.warnings {
        report.note(format!("import warning: {warning}"));
    }
    report.note(format!("offline profile of {}", from.display()));
    report.note(save_artifacts(out_dir, &loaded.events, &profile));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_matches_the_model_and_machine() {
        let ctx = context_for(BenchName::Cg, Scale::Tiny);
        assert_eq!(ctx.bench, "CG");
        assert_eq!(ctx.scale, "tiny");
        assert_eq!(ctx.nodes, 8, "paper machine: 16 CPUs, 2 per node");
        assert_eq!(ctx.page_size, ccnuma::PAGE_SIZE);
        assert!(!ctx.cold_loops.is_empty());
        assert!(!ctx.iteration_loops.is_empty());
        assert!(ctx
            .arrays
            .iter()
            .any(|a| a.name == "cg.a" || a.name == "a" || a.name.contains('a')));
    }

    #[test]
    fn cg_profile_attributes_cleanly_and_reports() {
        let (result, _tracer, profile) = profile_one(BenchName::Cg, Scale::Tiny);
        assert!(result.verification.passed);
        assert!(
            profile.warnings.is_empty(),
            "phase map must align: {:?}",
            profile.warnings
        );
        // Every timed loop of the model shows up as an iteration-kind row
        // executed once per occurrence in the loop list per timed
        // iteration (CG's inner solve loops occur `cg_iters` times each).
        let iters = result.per_iter_secs.len() as u64;
        let ctx = context_for(BenchName::Cg, Scale::Tiny);
        for name in &ctx.iteration_loops {
            let occurrences = ctx.iteration_loops.iter().filter(|n| n == &name).count() as u64;
            let row = profile
                .phases
                .iter()
                .find(|r| &r.label == name)
                .unwrap_or_else(|| panic!("missing iteration row {name}"));
            assert_eq!(row.executions, iters * occurrences, "{name}");
        }
        let report = report_for(&profile);
        assert_eq!(report.id, "prof_cg_tiny");
        assert_eq!(report.rows.len(), profile.phases.len());
    }
}
