//! Fork differential suite: a run forked at its parent's fork point
//! (`BenchRun::fork`) is the run a fresh start of its configuration makes.
//!
//! Under the paper's protocols no engine works before the first timed
//! iteration's kernel text ends, and every run that can fork resets its
//! hot ranges' counters at the timed start as UPMlib does, so there the
//! IRIX, UPMlib and record–replay runs of one problem and placement are in
//! one state and any of them forks any other. For every benchmark and
//! placement and the edges IRIX→UPMlib, UPMlib→IRIX and UPMlib→UPMlib of
//! other options — and for BT and SP, which have phase points to record
//! at, every ordered pair of IRIX, UPMlib and record–replay — the child
//! must equal its fresh twin in every result byte and every fast-path
//! counter, and the parent must equal a parent that never forked in every
//! result byte and in the regions its fast path saw (it may borrow what
//! the child published, and so record less).
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

/// Fork `child` off a `parent` run at its fork point, finish the child
/// and then the parent, and hold each to its fresh twin's outcome in
/// `twins`.
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
        label(parent),
        label(child)
    );
    let mut run = problem.run(placement, parent.clone());
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

/// An engine's label, marking UPMlib of other options than the default.
fn label(engine: &EngineMode) -> String {
    match engine {
        EngineMode::Upmlib(opts) if *opts != UpmOptions::default() => "upmlib'".to_string(),
        _ => engine.label().to_string(),
    }
}

/// The engines a fork joins: IRIX, UPMlib, UPMlib of other options, and
/// record–replay.
fn engines() -> [EngineMode; 4] {
    let opts = UpmOptions::default();
    let other = UpmOptions {
        critical_pages: 3,
        ..opts
    };
    [
        EngineMode::None,
        EngineMode::Upmlib(opts),
        EngineMode::Upmlib(other),
        EngineMode::RecRep(opts),
    ]
}

/// Every fork edge of `problem` under every placement of `placements`:
/// IRIX→UPMlib, UPMlib→IRIX and UPMlib→UPMlib of other options, and when
/// `phased` every other ordered pair of IRIX, UPMlib and record–replay.
fn check_problem(problem: Problem, placements: &[PlacementScheme], phased: bool) {
    let [irix, upmlib, other, recrep] = engines();
    let mut twins = vec![&irix, &upmlib, &other];
    let mut edges = vec![(&irix, &upmlib), (&upmlib, &irix), (&upmlib, &other)];
    if phased {
        twins.push(&recrep);
        edges.extend([
            (&irix, &recrep),
            (&upmlib, &recrep),
            (&recrep, &irix),
            (&recrep, &upmlib),
        ]);
    }
    for placement in placements {
        let twins: Vec<(EngineMode, Outcome)> = (twins.iter())
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
fn a_chain_forks_each_run_from_the_one_before() {
    // As a grid's fork chain runs them: each run forks the next at its
    // fork point and then finishes, so every later fork is of a run that
    // is itself a fork. Each run's bytes are its fresh twin's.
    let problem = Problem::AtScale(BenchName::Bt);
    let placement = PlacementScheme::RoundRobin;
    let [irix, upmlib, other, recrep] = engines();
    let chain = [&upmlib, &recrep, &irix, &other];
    let mut run = problem.run(&placement, chain[0].clone());
    for (k, &engine) in chain.iter().enumerate() {
        let next = chain.get(k + 1).map(|&child| run.fork(child));
        let fresh = finish(problem.run(&placement, engine.clone())).0;
        assert_eq!(finish(run).0, fresh, "BT rr chain: {}", label(engine));
        let Some(next) = next else { break };
        run = next;
    }
}

#[test]
#[should_panic(expected = "forks after its first timed iteration")]
fn a_run_forks_only_after_its_first_iteration() {
    // The fork point is inside the first step: a run past it is too late.
    let mut run = Problem::AtScale(BenchName::Bt).run(
        &PlacementScheme::FirstTouch,
        EngineMode::Upmlib(UpmOptions::default()),
    );
    run.step();
    run.fork(&EngineMode::RecRep(UpmOptions::default()));
}

#[test]
#[should_panic(expected = "do not fork")]
fn a_traced_run_does_not_fork() {
    let cfg = RunConfig {
        trace: true,
        ..RunConfig::paper_default()
    };
    BenchRun::for_bench(BenchName::Cg, Scale::Tiny, &cfg).fork(&EngineMode::None);
}
