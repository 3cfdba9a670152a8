//! Fork differential suite: a run forked from its parent after the first
//! timed iteration (`BenchRun::fork`) is the run a fresh start of its
//! configuration makes.
//!
//! Under the paper's protocols the IRIX, UPMlib and record–replay runs of
//! one problem and placement are one simulation until the first timed
//! iteration ends, so a grid runs that prefix once and forks: IRIX forks
//! UPMlib and record–replay children after its first `iterate`, UPMlib
//! forks record–replay after its first `migrate_memory`. For every
//! benchmark and placement and each of those edges, the child must equal
//! its fresh twin in every result byte and every fast-path counter, and
//! the parent must equal a parent that never forked in every result byte
//! and in the regions its fast path saw (it may borrow what the child
//! published, and so record less). Record–replay needs
//! phase points to record at, which BT and SP have and CG, MG and FT do
//! not, so those three are checked on the IRIX→UPMlib edge.
//!
//! Every run is on a machine key of its own (`max_vpages` grown by a
//! process-unique amount), so its memo library starts empty: a fresh twin
//! and a forked child see the same library, the one their shared prefix
//! published, and any difference in what they replay shows up here.

use nas::bt::{Bt, BtConfig};
use nas::{BenchName, BenchRun, EngineMode, RunConfig, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use upmlib::UpmOptions;
use vmm::PlacementScheme;

/// What a run leaves: its result's cache encoding and fast-path counters.
type Outcome = (String, Option<ccnuma::FastpathStats>);

/// How to build the benchmark of a run.
#[derive(Clone, Copy)]
enum Problem {
    AtScale(BenchName),
    BtPhases(usize),
}

impl Problem {
    fn label(self) -> String {
        match self {
            Problem::AtScale(bench) => bench.label().to_string(),
            Problem::BtPhases(n) => format!("BT {n}x"),
        }
    }

    /// A run of this problem at tiny under `placement` and `engine`, on a
    /// machine key no other run of this process has.
    fn run(self, placement: &PlacementScheme, engine: EngineMode) -> BenchRun {
        static NEXT_KEY: AtomicUsize = AtomicUsize::new(1);
        let mut cfg = RunConfig {
            placement: placement.clone(),
            engine,
            ..RunConfig::paper_default()
        };
        cfg.machine.max_vpages += NEXT_KEY.fetch_add(1, Ordering::Relaxed);
        match self {
            Problem::AtScale(bench) => BenchRun::for_bench(bench, Scale::Tiny, &cfg),
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
    (run.finish().to_cache_json().to_string(), stats)
}

/// Fork `child` off a `parent` run after its first timed iteration, finish
/// the child and then the parent, and hold each to its fresh twin's
/// outcome in `twins`.
fn check_edge(
    problem: Problem,
    placement: &PlacementScheme,
    (parent, child): (&EngineMode, &EngineMode),
    twins: &[(EngineMode, Outcome)],
) {
    let fresh = |engine: &EngineMode| &twins.iter().find(|(e, _)| e == engine).expect("a twin").1;
    let what = format!(
        "{} {} {}→{}",
        problem.label(),
        placement.label(),
        parent.label(),
        child.label()
    );
    let mut run = problem.run(placement, parent.clone());
    if *parent == EngineMode::None {
        run.prepare_fork(UpmOptions::default());
    }
    run.step();
    let forked = finish(run.fork(child));
    assert!(forked.1.is_some(), "{what}: no fast path installed");
    assert_eq!(
        forked.0,
        fresh(child).0,
        "{what}: the child's result differs"
    );
    assert_eq!(
        forked.1,
        fresh(child).1,
        "{what}: the child's fast path differs"
    );
    let (bytes, stats) = finish(run);
    assert_eq!(
        bytes,
        fresh(parent).0,
        "{what}: forking changed the parent's result"
    );
    let regions = |s: Option<ccnuma::FastpathStats>| s.map(|s| s.replays + s.misses + s.rejects);
    assert_eq!(
        regions(stats),
        regions(fresh(parent).1),
        "{what}: forking changed the parent's regions"
    );
}

/// Every fork edge of `problem` under every placement of `placements`;
/// the record–replay edges when `phased`.
fn check_problem(problem: Problem, placements: &[PlacementScheme], phased: bool) {
    let opts = UpmOptions::default();
    let (irix, upmlib, recrep) = (
        EngineMode::None,
        EngineMode::Upmlib(opts),
        EngineMode::RecRep(opts),
    );
    let mut engines = vec![&irix, &upmlib];
    let mut edges = vec![(&irix, &upmlib)];
    if phased {
        engines.push(&recrep);
        edges.extend([(&irix, &recrep), (&upmlib, &recrep)]);
    }
    for placement in placements {
        let twins: Vec<(EngineMode, Outcome)> = (engines.iter())
            .map(|&engine| {
                (
                    engine.clone(),
                    finish(problem.run(placement, engine.clone())),
                )
            })
            .collect();
        for &edge in &edges {
            check_edge(problem, placement, edge, &twins);
        }
    }
}

/// The five placements of Figure 4's grid for `bench` at tiny.
fn placements(bench: BenchName) -> Vec<PlacementScheme> {
    let mut all = PlacementScheme::all(7).to_vec();
    all.push(xp::lint::static_scheme(bench, Scale::Tiny));
    all
}

#[test]
fn bt_forks_equal_fresh_runs() {
    check_problem(
        Problem::AtScale(BenchName::Bt),
        &placements(BenchName::Bt),
        true,
    );
}

#[test]
fn sp_forks_equal_fresh_runs() {
    check_problem(
        Problem::AtScale(BenchName::Sp),
        &placements(BenchName::Sp),
        true,
    );
}

#[test]
fn cg_forks_equal_fresh_runs() {
    check_problem(
        Problem::AtScale(BenchName::Cg),
        &placements(BenchName::Cg),
        false,
    );
}

#[test]
fn mg_forks_equal_fresh_runs() {
    check_problem(
        Problem::AtScale(BenchName::Mg),
        &placements(BenchName::Mg),
        false,
    );
}

#[test]
fn ft_forks_equal_fresh_runs() {
    check_problem(
        Problem::AtScale(BenchName::Ft),
        &placements(BenchName::Ft),
        false,
    );
}

#[test]
fn phase_scaled_bt_forks_equal_fresh_runs() {
    check_problem(Problem::BtPhases(4), &[PlacementScheme::FirstTouch], true);
}

#[test]
#[should_panic(expected = "forks after its first timed iteration")]
fn a_run_forks_only_after_its_first_iteration() {
    let mut run = Problem::AtScale(BenchName::Bt).run(
        &PlacementScheme::FirstTouch,
        EngineMode::Upmlib(UpmOptions::default()),
    );
    run.step();
    run.step();
    run.fork(&EngineMode::RecRep(UpmOptions::default()));
}
