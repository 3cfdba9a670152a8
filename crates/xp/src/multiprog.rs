//! The multiprogramming experiment (`xp multiprog`): job mixes under the
//! kernel scheduler, each policy x engine variant, reporting per-job
//! slowdown vs dedicated execution and remote-access fraction.
//!
//! This is the paper's closing argument made concrete: static first-touch
//! placement is tuned for whatever CPUs the threads first ran on, so a
//! time-sharing scheduler that migrates threads strands every page on the
//! wrong node — while a scheduler-aware UPMlib (re-armed after each rebind,
//! or replaying the tuned placement under the new binding) keeps pulling
//! pages back to the threads. Gang scheduling and space sharing bracket the
//! comparison from the locality-friendly side.
//!
//! The sweep's grid is the dedicated baselines and its jobs are the 45
//! (mix, policy, variant) schedules, planned after them on the same pool;
//! the report only renders their outputs.

use crate::cells::CellOutput;
use crate::grid::{self, Cell, Group, JobOutputs, Output, Sweep};
use crate::report::{pct, secs, Report};
use crate::run_one::default_engine_configs;
use nas::{BenchName, EngineMode, RunConfig, Scale};
use sched::{
    Gang, JobSpec, Policy, SchedConfig, SchedOutcome, Scheduler, SpaceSharing, TimeSharing,
    UpmResponse,
};
use std::collections::BTreeMap;
use vmm::PlacementScheme;

/// One job mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Mix label used in the table.
    pub name: &'static str,
    /// The jobs, in submission order; all arrive at time zero.
    pub benches: &'static [BenchName],
}

/// The experiment's job mixes: a homogeneous pair, a heterogeneous pair,
/// and a four-job mix.
pub fn mixes() -> Vec<Mix> {
    vec![
        Mix {
            name: "2xCG",
            benches: &[BenchName::Cg, BenchName::Cg],
        },
        Mix {
            name: "CG+MG",
            benches: &[BenchName::Cg, BenchName::Mg],
        },
        Mix {
            name: "2xCG+2xMG",
            benches: &[BenchName::Cg, BenchName::Mg, BenchName::Cg, BenchName::Mg],
        },
    ]
}

/// Scheduling policy selector (fresh policy instance per schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    Gang,
    SpaceSharing,
    TimeSharing,
}

impl PolicyKind {
    pub fn all() -> [PolicyKind; 3] {
        [
            PolicyKind::Gang,
            PolicyKind::SpaceSharing,
            PolicyKind::TimeSharing,
        ]
    }

    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Gang => "gang",
            PolicyKind::SpaceSharing => "space",
            PolicyKind::TimeSharing => "timeshare",
        }
    }

    /// Build the policy for one schedule at `scale`.
    pub fn make(&self, scale: Scale) -> Box<dyn Policy> {
        match self {
            PolicyKind::Gang => Box::new(Gang),
            PolicyKind::SpaceSharing => Box::new(SpaceSharing),
            PolicyKind::TimeSharing => Box::new(TimeSharing {
                stride: rotation_stride(scale),
                period: rotation_period(scale),
            }),
        }
    }
}

/// Time-sharing rotation period (quanta between rotations) by scale.
///
/// The binding should survive long enough that a migration engine can
/// pay for moving the hot pages after the threads out of one rotation
/// period's CPU grant. Tiny jobs run ~2 ms against a ~60 us/page
/// migration cost, so whole-hot-set moves cannot pay off there at any
/// period that still rotates within a job — the tiny table shows the
/// machinery thrashing, the larger scales show it recovering.
pub fn rotation_period(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 24,
        Scale::Small => 16,
        Scale::Medium => 24,
    }
}

/// Time-sharing rotation stride (CPUs the partition shifts per rotation)
/// by scale. Always a multiple of the Origin2000's 2 CPUs per node, so
/// node populations land on nodes. At medium the shift is two nodes: a
/// load balancer that has been running a while places threads wherever
/// CPUs are free, not next door — and a two-node shift leaves the stranded
/// pages of a migration-less job at distance 2 in the hypercube, which is
/// what static first-touch placement actually costs under time sharing.
pub fn rotation_stride(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 2,
        Scale::Small => 2,
        Scale::Medium => 4,
    }
}

/// One migration-machinery variant: the per-job engine plus the
/// scheduler-aware UPMlib response mode.
#[derive(Debug, Clone)]
pub struct EngineVariant {
    /// Column label.
    pub label: &'static str,
    /// Per-job engine mode.
    pub engine: EngineMode,
    /// UPMlib response to scheduler rebinds.
    pub response: UpmResponse,
    /// Install the lint-synthesized static placement instead of first
    /// touch. Static maps are node-anchored, not thread-anchored, so a
    /// rebinding scheduler strands them exactly like first touch — the
    /// multiprogramming stress test the offline tool cannot answer.
    pub static_placement: bool,
}

/// The experiment's engine variants: no migration, the IRIX kernel engine,
/// UPMlib with each scheduler-aware response mode, and the synthesized
/// static placement with no engine.
pub fn engine_variants() -> Vec<EngineVariant> {
    let (kcfg, upm_opts) = default_engine_configs();
    vec![
        EngineVariant {
            label: "IRIX",
            engine: EngineMode::None,
            response: UpmResponse::None,
            static_placement: false,
        },
        EngineVariant {
            label: "IRIXmig",
            engine: EngineMode::IrixMig(kcfg),
            response: UpmResponse::None,
            static_placement: false,
        },
        EngineVariant {
            label: "upmlib-relearn",
            engine: EngineMode::Upmlib(upm_opts),
            response: UpmResponse::ForgetRelearn,
            static_placement: false,
        },
        EngineVariant {
            label: "upmlib-follow",
            engine: EngineMode::Upmlib(upm_opts),
            response: UpmResponse::FollowThreads,
            static_placement: false,
        },
        EngineVariant {
            label: "static",
            engine: EngineMode::None,
            response: UpmResponse::None,
            static_placement: true,
        },
    ]
}

/// Quantum length by scale, sized so each job spans tens of quanta — and
/// therefore several time-sharing rotations (one per
/// [`sched::TimeSharing::period`] quanta) — with a few iterations between
/// rotations for a migration engine to react to.
pub fn quantum_ns(scale: Scale) -> f64 {
    match scale {
        Scale::Tiny => 0.05e6,
        Scale::Small => 0.5e6,
        Scale::Medium => 5.0e6,
    }
}

/// The per-job run configuration for one engine mode (first-touch
/// placement, the dedicated-baseline shape).
pub fn job_config(engine: &EngineMode) -> RunConfig {
    RunConfig {
        engine: engine.clone(),
        ..RunConfig::paper_default()
    }
}

/// The per-job run configuration for one engine variant: `job_config`,
/// with the synthesized static placement for `static_placement` variants
/// (a function of the job's benchmark and scale).
pub fn variant_config(variant: &EngineVariant, bench: BenchName, scale: Scale) -> RunConfig {
    let mut cfg = job_config(&variant.engine);
    if variant.static_placement {
        cfg.placement = crate::lint::static_scheme(bench, scale);
    }
    cfg
}

/// Run one mix under one policy and engine variant. It only computes: its
/// makespan is credited from its output, in listing order.
pub fn run_schedule(
    mix: &Mix,
    kind: PolicyKind,
    variant: &EngineVariant,
    scale: Scale,
) -> SchedOutcome {
    let mut s = Scheduler::new(
        kind.make(scale),
        SchedConfig {
            quantum_ns: quantum_ns(scale),
            ..SchedConfig::default()
        },
    );
    for &bench in mix.benches {
        s.submit(
            JobSpec::new(bench, scale, variant_config(variant, bench, scale))
                .with_response(variant.response),
        );
    }
    let outcome = s.run_to_completion();
    crate::dash::add_sim_done(outcome.makespan_secs);
    outcome
}

/// The experiment's sweep: its grid is one group, the dedicated baselines —
/// one ft-IRIX cell per [`mixed_benches`] benchmark — and its jobs are one
/// schedule per (mix, policy, engine variant).
pub const SWEEP: Sweep = Sweep {
    grid: |scale| {
        let ft = |b| Cell::paper(b, scale, PlacementScheme::FirstTouch, EngineMode::None);
        vec![mixed_benches().into_iter().map(ft).collect()]
    },
    jobs: |scale| {
        let mut jobs: grid::Jobs = Vec::new();
        for mix in mixes() {
            for kind in PolicyKind::all() {
                for variant in engine_variants() {
                    let id = format!("{}:{}-{}", mix.name, kind.label(), variant.label);
                    let schedule = move || Output::Sched(run_schedule(&mix, kind, &variant, scale));
                    jobs.push(grid::job(&id, schedule));
                }
            }
        }
        jobs
    },
    report: |scale, mut outputs, schedules| vec![report(scale, outputs.remove(0), schedules)],
};

/// The benchmarks the mixes run, in benchmark order.
fn mixed_benches() -> Vec<BenchName> {
    let mixed = |b: &BenchName| mixes().iter().any(|mix| mix.benches.contains(b));
    BenchName::all().into_iter().filter(mixed).collect()
}

/// The `xp multiprog` experiment.
pub fn run(scale: Scale) -> Report {
    SWEEP.run(scale).remove(0)
}

/// Render the experiment from its baselines' and its schedules' outputs.
/// A failed schedule is a failed row, and so is each job whose baseline
/// failed, naming that baseline.
fn report(scale: Scale, baselines: Group, schedules: JobOutputs) -> Report {
    let mut report = Report::new(
        "multiprog",
        "Multiprogrammed job mixes under the kernel scheduler: per-job slowdown vs dedicated execution",
        &[
            "Mix",
            "Policy",
            "Engine",
            "Job",
            "Turnaround (s)",
            "Slowdown",
            "Remote frac",
            "Thread migs",
        ],
    );
    // Dedicated baselines: one per benchmark — the first-touch run with no
    // engine on the whole machine. A single common reference makes the
    // engine variants directly comparable: slowdown answers "what does
    // multiprogramming cost this strategy?", not "how far is it from its
    // own (engine-tuned) dedicated run", which would penalize UPMlib for
    // being faster than first-touch when dedicated.
    let dedicated: BTreeMap<&str, &CellOutput<nas::RunResult>> = (mixed_benches().into_iter())
        .map(|b| b.label())
        .zip(&baselines)
        .collect();
    let mut outputs = schedules.iter();
    // (mix, policy, engine) -> mean slowdown, for the qualitative notes.
    let mut mean_slowdown: BTreeMap<(String, &'static str, &'static str), f64> = BTreeMap::new();
    for mix in mixes() {
        for kind in PolicyKind::all() {
            for variant in &engine_variants() {
                let cell = outputs.next().expect("one cell per (mix, policy, variant)");
                let outcome = match &cell.value {
                    Ok(Output::Sched(o)) => o,
                    Ok(_) => unreachable!("multiprog's jobs are schedules"),
                    Err(p) => {
                        report.failed_row(&cell.id, &p.message);
                        continue;
                    }
                };
                let mut slowdowns = Vec::new();
                for j in &outcome.jobs {
                    let baseline = dedicated[j.bench.label()];
                    let Some(base) = baseline.ok() else {
                        let job = format!("{}#{}", j.bench.label(), j.job);
                        let why = format!("{job}: baseline {} failed", baseline.id);
                        report.failed_row(&cell.id, &why);
                        continue;
                    };
                    let slowdown = j.turnaround_secs / base.total_secs;
                    slowdowns.push(slowdown);
                    report.row(vec![
                        mix.name.into(),
                        kind.label().into(),
                        variant.label.into(),
                        format!("{}#{}", j.bench.label(), j.job),
                        secs(j.turnaround_secs),
                        format!("{slowdown:.2}x"),
                        format!("{:.3}", j.result.remote_fraction),
                        j.thread_migrations.to_string(),
                    ]);
                    assert!(
                        j.result.verification.passed,
                        "{} job {} failed verification under {}/{}/{}: value {:e} vs reference {:e}",
                        j.bench.label(),
                        j.job,
                        mix.name,
                        kind.label(),
                        variant.label,
                        j.result.verification.value,
                        j.result.verification.reference,
                    );
                }
                if slowdowns.len() == outcome.jobs.len() {
                    mean_slowdown.insert(
                        (mix.name.to_string(), kind.label(), variant.label),
                        slowdowns.iter().sum::<f64>() / slowdowns.len() as f64,
                    );
                }
            }
        }
    }
    for mix in mixes() {
        let get = |engine: &'static str| {
            mean_slowdown
                .get(&(mix.name.to_string(), "timeshare", engine))
                .copied()
        };
        if let (Some(none), Some(stat)) = (get("IRIX"), get("static")) {
            report.note(format!(
                "{}: time-sharing mean slowdown {} (static placement) vs {} (first touch) — \
                 both are node-anchored, so the offline prescription cannot follow rebound threads",
                mix.name,
                pct(stat),
                pct(none),
            ));
        }
        if let (Some(none), Some(relearn), Some(follow)) =
            (get("IRIX"), get("upmlib-relearn"), get("upmlib-follow"))
        {
            report.note(format!(
                "{}: time-sharing mean slowdown {} (no migration) vs {} (upmlib re-arm) vs {} (upmlib follow) — {}",
                mix.name,
                pct(none),
                pct(relearn),
                pct(follow),
                if none > relearn {
                    "static first-touch degrades more; scheduler-aware migration recovers"
                } else {
                    "migration does not pay off here (jobs too short for the rotation period)"
                }
            ));
        }
    }
    report.note(format!(
        "quantum {:.2} ms on the simulated clock; seed {}; slowdown = turnaround / dedicated first-touch run of the benchmark (no engine, whole machine)",
        quantum_ns(scale) * 1e-6,
        crate::seed::get(),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeshare_schedule_runs_and_migrates() {
        // The four-job mix runs long enough at tiny scale to span a
        // rotation (the two-job mixes finish before the first one).
        let mix = Mix {
            name: "2xCG+2xMG",
            benches: &[BenchName::Cg, BenchName::Mg, BenchName::Cg, BenchName::Mg],
        };
        let variant = &engine_variants()[0];
        let out = run_schedule(&mix, PolicyKind::TimeSharing, variant, Scale::Tiny);
        assert_eq!(out.jobs.len(), 4);
        assert!(out.thread_migrations > 0);
        for j in &out.jobs {
            assert!(j.result.verification.passed);
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let mix = Mix {
            name: "CG+MG",
            benches: &[BenchName::Cg, BenchName::Mg],
        };
        let variants = engine_variants();
        let relearn = &variants[2];
        let run = || {
            let out = run_schedule(&mix, PolicyKind::TimeSharing, relearn, Scale::Tiny);
            (
                out.quanta,
                out.thread_migrations,
                out.makespan_secs.to_bits(),
                out.jobs
                    .iter()
                    .map(|j| j.turnaround_secs.to_bits())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    fn failed<V>(id: String) -> CellOutput<V> {
        CellOutput {
            id,
            value: Err(exec::JobPanic {
                index: 0,
                message: "boom".into(),
            }),
            wall_secs: 0.0,
        }
    }

    #[test]
    fn a_failed_baseline_fails_the_rows_of_its_jobs_by_name() {
        let baselines = vec![failed("cg:ft-IRIX".into()), failed("mg:ft-IRIX".into())];
        // The first schedule, 2xCG under gang with no engine, ran; every
        // other one failed on its own.
        let variants = engine_variants();
        let ran = run_schedule(&mixes()[0], PolicyKind::Gang, &variants[0], Scale::Tiny);
        let mut schedules = vec![CellOutput {
            id: "2xCG:gang-IRIX".into(),
            value: Ok(Output::Sched(ran)),
            wall_secs: 0.0,
        }];
        schedules.extend((1..45).map(|i| failed(format!("schedule-{i}"))));
        let r = report(Scale::Tiny, baselines, schedules);
        assert_eq!(
            r.rows.len(),
            2 + 44,
            "a failed row per job and per failed schedule"
        );
        for (job, row) in r.rows[..2].iter().enumerate() {
            assert_eq!(row[0], "2xCG:gang-IRIX");
            let why = format!("PANIC: CG#{job}: baseline cg:ft-IRIX failed");
            assert_eq!(row.last(), Some(&why));
        }
        assert!(r.rows[2..]
            .iter()
            .all(|row| row[0].starts_with("schedule-")));
    }
}
