//! Numerics once per problem: a timing-only run is its full twin in every
//! simulated byte.
//!
//! A timing-only run (`BenchRun::set_timing_only`) skips every turn whose
//! effects the fast path has already applied in bulk, so its arrays hold
//! stale values from then on. That is sound only if no address, flop
//! charge or control decision of a kernel depends on a simulated value
//! (the premise `nas::model` states). Here, for every kernel under every
//! placement of Figure 4's grid and the IRIX, IRIXmig and UPMlib engines —
//! at tiny, and at small in a release build — and for Figure 6's
//! phase-scaled BT under record–replay, a timing-only run must equal its
//! full twin in its result's cache encoding (verification aside), in its
//! fast-path counters and in its region count; so must a timing-only child
//! forked from a full parent and one forked from a timing-only parent. An
//! unpatched timing-only result never passes verification.
//!
//! Then the plan: every tiny grid the experiments plan, executed as one
//! plan at one and at two workers — where `CellPlan::execute` makes the
//! later cells of each problem borrowers of its first — must equal each
//! cell run alone, in full (`Cell::run`), in every cache byte.
//!
//! Every run is on a machine key of its own (`max_vpages` grown by a
//! process-unique amount), so its memo library starts empty and the twins'
//! fast-path counters compare exactly.

use nas::bt::{Bt, BtConfig};
use nas::{BenchName, BenchRun, EngineMode, RunConfig, RunResult, Scale};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use vmm::PlacementScheme;
use xp::grid::Cell;
use xp::CellPlan;

/// What a run leaves: its result, its fast-path counters and its region
/// count.
struct Outcome {
    result: RunResult,
    stats: Option<ccnuma::FastpathStats>,
    regions: u64,
}

/// How to build the benchmark of a run.
#[derive(Clone, Copy)]
enum Problem {
    AtScale(BenchName, Scale),
    BtPhases(usize),
}

impl Problem {
    /// A run of this problem under `placement` and `engine`, on a machine
    /// key no other run of this process has.
    fn run(self, placement: &PlacementScheme, engine: &EngineMode) -> BenchRun {
        static NEXT_KEY: AtomicUsize = AtomicUsize::new(1);
        let mut cfg = RunConfig {
            placement: placement.clone(),
            engine: engine.clone(),
            ..RunConfig::paper_default()
        };
        cfg.machine.max_vpages += NEXT_KEY.fetch_add(1, Ordering::Relaxed);
        match self {
            Problem::AtScale(bench, scale) => BenchRun::for_bench(bench, scale, &cfg),
            Problem::BtPhases(phase_scale) => {
                let bt = BtConfig {
                    phase_scale,
                    ..BtConfig::for_scale(Scale::Tiny)
                };
                BenchRun::new(|rt| Bt::with_config(rt, bt), &cfg)
            }
        }
    }
}

fn finish(mut run: BenchRun) -> Outcome {
    while !run.is_done() {
        run.step();
    }
    let stats = run.fastpath_stats();
    let regions = run.runtime().regions();
    Outcome {
        result: run.finish(),
        stats,
        regions,
    }
}

fn bytes(r: &RunResult) -> String {
    r.to_cache_json().to_string()
}

/// Hold the timing-only `borrowed` to its full twin `full`: equal counters
/// and regions, an unpatched verification that fails, and — patched with
/// the twin's — equal cache bytes.
fn check_twin(what: &str, full: &Outcome, borrowed: Outcome) {
    assert!(full.stats.is_some(), "{what}: no fast path installed");
    assert!(
        full.result.verification.passed,
        "{what}: the full twin fails"
    );
    assert_eq!(borrowed.stats, full.stats, "{what}: fast-path counters");
    assert_eq!(borrowed.regions, full.regions, "{what}: region count");
    let mut result = borrowed.result;
    assert!(
        !result.verification.passed && result.verification.value.is_nan(),
        "{what}: an unpatched timing-only result verifies: {:?}",
        result.verification
    );
    result.verification = full.result.verification.clone();
    assert_eq!(bytes(&result), bytes(&full.result), "{what}: result bytes");
}

/// A timing-only run of `problem` under `placement` and `engine` against
/// its full twin; for an engine that forks, also a timing-only child of
/// `engine` forked from a full and from a timing-only parent of `parent`.
fn check_cell(
    problem: Problem,
    placement: &PlacementScheme,
    engine: &EngineMode,
    parent: &EngineMode,
) {
    let what = format!("{} {}", placement.label(), engine.label());
    let full = finish(problem.run(placement, engine));
    let mut run = problem.run(placement, engine);
    run.set_timing_only();
    check_twin(&what, &full, finish(run));
    if matches!(engine, EngineMode::IrixMig(_)) {
        return; // the kernel engine's runs never fork
    }
    for timing_parent in [false, true] {
        let mut run = problem.run(placement, parent);
        if timing_parent {
            run.set_timing_only();
        }
        let mut child = run.fork(engine);
        child.set_timing_only();
        let from = if timing_parent { "timing-only" } else { "full" };
        let edge = format!("{what} forked from a {from} {}", parent.label());
        check_twin(&edge, &full, finish(child));
    }
}

/// Every placement of Figure 4's grid for `bench` at `scale` under IRIX,
/// IRIXmig and UPMlib; each forking engine forks from the other.
fn check_kernel(bench: BenchName, scale: Scale) {
    let (kcfg, upm) = xp::default_engine_configs();
    let (irix, upmlib) = (EngineMode::None, EngineMode::Upmlib(upm));
    let mut placements = PlacementScheme::all(7).to_vec();
    placements.push(xp::lint::static_scheme(bench, scale));
    for placement in &placements {
        let problem = Problem::AtScale(bench, scale);
        check_cell(problem, placement, &irix, &upmlib);
        check_cell(problem, placement, &EngineMode::IrixMig(kcfg), &irix);
        check_cell(problem, placement, &upmlib, &irix);
    }
}

/// Tiny always; small too in a release build (a debug build covers tiny
/// only).
fn scales() -> Vec<Scale> {
    if cfg!(debug_assertions) {
        vec![Scale::Tiny]
    } else {
        vec![Scale::Tiny, Scale::Small]
    }
}

#[test]
fn bt_timing_only_runs_equal_full_runs() {
    for scale in scales() {
        check_kernel(BenchName::Bt, scale);
    }
}

#[test]
fn sp_timing_only_runs_equal_full_runs() {
    for scale in scales() {
        check_kernel(BenchName::Sp, scale);
    }
}

#[test]
fn cg_timing_only_runs_equal_full_runs() {
    for scale in scales() {
        check_kernel(BenchName::Cg, scale);
    }
}

#[test]
fn mg_timing_only_runs_equal_full_runs() {
    for scale in scales() {
        check_kernel(BenchName::Mg, scale);
    }
}

#[test]
fn ft_timing_only_runs_equal_full_runs() {
    for scale in scales() {
        check_kernel(BenchName::Ft, scale);
    }
}

#[test]
fn phase_scaled_bt_timing_only_runs_equal_full_runs_under_record_replay() {
    let upm = xp::default_engine_configs().1;
    let (upmlib, recrep) = (EngineMode::Upmlib(upm), EngineMode::RecRep(upm));
    let ft = PlacementScheme::FirstTouch;
    check_cell(Problem::BtPhases(4), &ft, &recrep, &upmlib);
    check_cell(Problem::BtPhases(4), &ft, &upmlib, &recrep);
}

/// The tiny plans of the grid experiments, each as its experiment plans
/// it: Figures 1 and 4, Table 2 and the static-placement sweep over every
/// kernel, Figure 5 over BT and SP, Figure 6 over its phase scales.
fn experiment_plans() -> Vec<(&'static str, Vec<Cell>)> {
    let tiny = Scale::Tiny;
    let over = |cells: &dyn Fn(BenchName) -> Vec<Cell>, benches: &[BenchName]| {
        benches.iter().flat_map(|&bench| cells(bench)).collect()
    };
    let all = BenchName::all();
    vec![
        ("fig1", over(&|b| xp::fig1::cells(b, tiny, false), &all)),
        ("fig4", over(&|b| xp::fig4::cells(b, tiny), &all)),
        (
            "fig5",
            over(&|b| xp::fig5::cells(b, tiny), &xp::fig5::BENCHES),
        ),
        (
            "fig6",
            (xp::fig6::PHASE_SCALES.iter())
                .flat_map(|&n| xp::fig6::cells(tiny, n))
                .collect(),
        ),
        ("table2", over(&|b| xp::table2::cells(b, tiny), &all)),
        (
            "staticplace",
            over(&|b| xp::staticplace::cells(b, tiny), &all),
        ),
    ]
}

#[test]
fn every_tiny_experiment_plan_equals_its_cells_run_alone() {
    let plans = experiment_plans();
    // Each distinct cell run alone, in full, once.
    let mut alone: HashMap<String, String> = HashMap::new();
    for cell in plans.iter().flat_map(|(_, cells)| cells) {
        let key = cell.spec().canonical();
        alone
            .entry(key)
            .or_insert_with(|| bytes(&cell.clone().run()));
    }
    for workers in [1, 2] {
        xp::jobs::set(workers);
        for (name, cells) in &plans {
            let keys: Vec<String> = cells.iter().map(|c| c.spec().canonical()).collect();
            let mut plan = CellPlan::new();
            cells.iter().cloned().for_each(|cell| plan.add_cell(cell));
            for (out, key) in plan.execute().iter().zip(&keys) {
                let got = bytes(out.ok().expect("every cell ran"));
                assert_eq!(got, alone[key], "{name} on {workers} workers: {}", out.id);
            }
        }
    }
    xp::jobs::set(0);
}
