//! `xp selfprof`: host-side self-profiling of the simulator itself.
//!
//! Where `xp prof` analyses the *simulated* machine on simulated time,
//! `selfprof` answers the engineering question "where does the **host**
//! CPU time of a run actually go?". It opens a [`hostprof`] session
//! around one benchmark cell, runs it under [`reference_config`], and
//! reports the inclusive/exclusive host-time span tree (`cell:… →
//! omp.region → ccnuma.touch → …`) with per-component totals.
//!
//! Three artifacts per benchmark land in the output directory, mirroring
//! `xp prof`:
//!
//! * `selfprof-<bench>.md` — the report below (span tree, reconciliation
//!   and component notes) as markdown;
//! * `selfprof-<bench>.jsonl` — schema-versioned aggregates;
//! * `selfprof-<bench>.chrome.json` — a Perfetto trace on host time.
//!
//! The report's reconciliation note cross-checks the instrumentation:
//! the profiled root's inclusive time must match the pool-measured cell
//! wall time (they are the same interval measured by two independent
//! clocks), so a large delta means spans are being lost or double
//! counted.
//!
//! Host time is noisy, so unlike every other `xp` command this report is
//! **not** byte-identical across runs; it is diagnostics, not a golden
//! fixture. [`run`] returns the reports with one [`crate::summary::Tally`]
//! that every benchmark's plan credits, and its runs' simulated seconds.

use crate::report::Report;
use crate::summary::Tally;
use crate::{CellOutput, CellPlan};
use hostprof::HostReport;
use nas::{BenchName, RunConfig, RunResult, Scale};
use std::path::Path;

/// The configuration host-side measurements run under: the `xp trace`
/// reference configuration (round-robin placement + UPMlib) with tracing
/// off — the profile measures the simulator, it doesn't record events.
pub fn reference_config() -> RunConfig {
    RunConfig {
        trace: false,
        ..crate::trace::traced_config()
    }
}

/// Profile one benchmark cell under a hostprof session, its plan credited
/// to `tally`: the host-time report plus the cell output it profiled.
/// Sessions are process-wide, so calls serialize on [`hostprof`]'s session
/// lock.
pub fn profile_one(
    bench: BenchName,
    scale: Scale,
    tally: &mut Tally,
) -> (HostReport, CellOutput<RunResult>) {
    let session = hostprof::start();
    let mut plan: CellPlan<RunResult> = CellPlan::new();
    plan.add(cell_id(bench), move || {
        crate::run_one(bench, scale, &reference_config())
    });
    let mut outputs = plan.execute_by_kind(tally).1;
    let host = session.finish();
    (host, outputs.remove(0))
}

/// The plan id `selfprof` gives its single cell (the profiled root span
/// is `cell:` + this).
pub fn cell_id(bench: BenchName) -> String {
    format!("selfprof:{}", bench.label().to_ascii_lowercase())
}

/// The span-tree report for one profiled benchmark. `cell_wall_secs` is
/// the pool's independent measurement of the same cell, for the
/// reconciliation note.
pub fn report_for(
    host: &HostReport,
    bench: BenchName,
    scale: Scale,
    cell_wall_secs: f64,
) -> Report {
    let label = bench.label().to_ascii_lowercase();
    let mut report = Report::new(
        &format!("selfprof_{label}_{}", scale.label()),
        &format!(
            "Host self-profile of NAS {} ({}): where the simulator's host time goes",
            bench.label(),
            scale.label()
        ),
        &["Span", "Calls", "Incl (ms)", "Excl (ms)", "Incl %"],
    );
    let merged = host.merged();
    let total_ns = host.total_span_ns().max(1);
    fn walk(report: &mut Report, nodes: &[hostprof::SpanNode], depth: usize, total_ns: u64) {
        for node in nodes {
            report.row(vec![
                format!("{}{}", "· ".repeat(depth), node.name),
                node.calls.to_string(),
                format!("{:.3}", node.incl_ns as f64 * 1e-6),
                format!("{:.3}", node.excl_ns() as f64 * 1e-6),
                format!("{:.1}%", node.incl_ns as f64 * 100.0 / total_ns as f64),
            ]);
            walk(report, &node.children, depth + 1, total_ns);
        }
    }
    walk(&mut report, &merged, 0, total_ns);

    let root_name = format!("cell:{}", cell_id(bench));
    match host.root(&root_name) {
        Some(root) if cell_wall_secs > 0.0 => {
            let delta = (root.incl_secs() - cell_wall_secs).abs() / cell_wall_secs;
            report.note(format!(
                "reconciliation: root {root_name} inclusive {:.4}s vs pool cell wall {:.4}s \
                 (delta {:.2}%)",
                root.incl_secs(),
                cell_wall_secs,
                delta * 100.0
            ));
        }
        Some(_) => report.note("reconciliation skipped: cell wall time is zero".to_string()),
        None => report.note(format!("reconciliation failed: no {root_name} root span")),
    }
    let breakdown: Vec<String> = hostprof::component_breakdown(&merged)
        .into_iter()
        .map(|(component, secs)| {
            format!("{component} {:.1}%", secs * 1e9 * 100.0 / total_ns as f64)
        })
        .collect();
    report.note(format!(
        "exclusive time by component: {}",
        breakdown.join(", ")
    ));
    // Analysis is its own row (`nas.facts.derive`, `lint.facts.derive`)
    // only in the cell that paid for it; the counters say who did.
    let (proofs, schemes) = (nas::facts::stats(), crate::lint::static_scheme_stats());
    let derived = nas::facts::derivations();
    let memos = nas::facts::library_stats();
    report.note(format!(
        "analysis tables, process-wide: proof sets {} derived / {} shared ({} region instances \
         proved from {} constructs), static placements \
         {} derived / {} shared, memo libraries {} held ({} images, {} class-stream bytes)",
        proofs.derived,
        proofs.shared,
        derived.instances,
        derived.constructs,
        schemes.derived,
        schemes.shared,
        memos.libraries,
        memos.images,
        memos.class_bytes,
    ));
    report.note(format!(
        "session wall {:.3}s, {} thread(s), {} span event(s) dropped",
        host.wall_secs,
        host.threads.len(),
        host.dropped_events()
    ));
    report
}

/// The `xp selfprof` command: profile each requested benchmark in its own
/// session (sessions are process-wide, so benchmarks run sequentially),
/// credit its run's simulated seconds and write the artifacts. Returns the
/// reports and the tally of every benchmark's plan.
pub fn run(benches: &[BenchName], scale: Scale, out_dir: &Path) -> (Vec<Report>, Tally) {
    let (mut reports, mut tally) = (Vec::new(), Tally::default());
    for &bench in benches {
        let label = bench.label().to_ascii_lowercase();
        let (host, output) = profile_one(bench, scale, &mut tally);
        match output.value {
            Ok(result) => {
                tally.sim_secs += result.total_secs;
                let mut report = report_for(&host, bench, scale, output.wall_secs);
                report.note(format!(
                    "verification: {}",
                    if result.verification.passed {
                        "PASSED"
                    } else {
                        "FAILED"
                    }
                ));
                let stem = format!("selfprof-{label}");
                let written = crate::artifacts::write(
                    out_dir,
                    &stem,
                    Some(&report.to_markdown()),
                    &hostprof::export::to_jsonl(&host),
                    &hostprof::export::chrome_trace(&host, &stem),
                );
                report.note(crate::artifacts::note(&stem, written));
                reports.push(report);
            }
            Err(panic) => {
                let mut report = Report::new(
                    &format!("selfprof_{label}_{}", scale.label()),
                    "Host self-profile (failed cell)",
                    &["Cell", "Status"],
                );
                report.failed_row(&output.id, &panic.message);
                reports.push(report);
            }
        }
    }
    (reports, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE's acceptance criterion: the profiled root's inclusive
    /// host time and the pool's independent cell wall measurement are the
    /// same interval, so they must agree within 2%.
    #[test]
    fn root_span_reconciles_with_the_pool_cell_wall() {
        let (host, output) = profile_one(BenchName::Cg, Scale::Tiny, &mut Tally::default());
        let result = output.value.as_ref().expect("cg cell runs");
        assert!(result.verification.passed);
        let root = host
            .root(&format!("cell:{}", cell_id(BenchName::Cg)))
            .expect("profiled root span exists");
        assert_eq!(root.calls, 1);
        let delta = (root.incl_secs() - output.wall_secs).abs() / output.wall_secs;
        assert!(
            delta <= 0.02,
            "root {:.6}s vs cell wall {:.6}s: delta {:.2}% exceeds 2%",
            root.incl_secs(),
            output.wall_secs,
            delta * 100.0
        );
        // The simulator's hot paths actually show up under the root.
        let components: Vec<String> = hostprof::component_breakdown(&host.merged())
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        assert!(components.iter().any(|c| c == "ccnuma"), "{components:?}");
        assert!(components.iter().any(|c| c == "omp"), "{components:?}");
    }

    #[test]
    fn report_carries_reconciliation_and_breakdown_notes() {
        let (host, output) = profile_one(BenchName::Cg, Scale::Tiny, &mut Tally::default());
        let report = report_for(&host, BenchName::Cg, Scale::Tiny, output.wall_secs);
        assert_eq!(report.id, "selfprof_cg_tiny");
        assert!(!report.rows.is_empty());
        assert!(report
            .notes
            .iter()
            .any(|n| n.starts_with("reconciliation:")));
        assert!(report
            .notes
            .iter()
            .any(|n| n.starts_with("exclusive time by component:")));
        // Spot-check the tree rows render with the indent convention.
        assert!(report.rows.iter().any(|r| r[0].starts_with("cell:")));
        assert!(report.rows.iter().any(|r| r[0].starts_with("· ")));
    }

    #[test]
    fn the_command_credits_exactly_its_runs_simulated_seconds() {
        let dir = std::env::temp_dir().join(format!("ddnomp-selfprof-{}", std::process::id()));
        let benches = [BenchName::Cg, BenchName::Mg];
        let (reports, tally) = run(&benches, Scale::Tiny, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(reports.len(), 2);
        // One plan per benchmark, each in its own session.
        assert_eq!((tally.plans, tally.cells_computed), (2, 2));
        let runs = benches.map(|b| crate::run_one(b, Scale::Tiny, &reference_config()));
        let alone = runs.iter().fold(0.0, |sum, r| sum + r.total_secs);
        assert!(tally.sim_secs > 0.0);
        assert_eq!(tally.sim_secs.to_bits(), alone.to_bits());
    }
}
