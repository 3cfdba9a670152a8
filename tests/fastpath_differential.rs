//! Differential equivalence suite for the ccnuma phase fast path.
//!
//! The fast path (`ccnuma::fastpath`) replays whole parallel regions from
//! memoized effect sets instead of walking the cache/coherence/counter
//! machinery line by line. Its contract is *bit-identity*: a run with the
//! fast path on must produce exactly the same simulated times, statistics,
//! verification values, engine behaviour and reports as the exact path.
//! These tests enforce that contract end to end, on every benchmark and
//! every engine protocol.
//!
//! The fast path is on by default; tests here force it per run via
//! `BenchRun::set_fastpath` / `run_one_fastpath` / `Cell::run_with`.

use ccnuma::{Machine, MachineConfig};
use nas::{BenchName, BenchRun, EngineMode, NasBenchmark, RunConfig, Scale};
use omp::Runtime;
use upmlib::UpmOptions;
use vmm::{KernelMigrationConfig, PlacementScheme};
use xp::run_one_fastpath;

/// Byte-exact serialized form of everything a run measures (simulated
/// times, per-iteration times, verification, UPMlib stats, kernel
/// migrations, remote fraction, record–replay overhead).
fn run_bytes(bench: BenchName, cfg: &RunConfig, fastpath: bool) -> String {
    run_one_fastpath(bench, Scale::Tiny, cfg, fastpath)
        .to_cache_json()
        .to_string()
}

fn assert_differential(bench: BenchName, cfg: &RunConfig, what: &str) {
    let slow = run_bytes(bench, cfg, false);
    let fast = run_bytes(bench, cfg, true);
    assert_eq!(
        slow,
        fast,
        "{} {what}: fast path diverged from the exact path",
        bench.label()
    );
}

#[test]
fn all_benches_bit_identical_plain() {
    for bench in BenchName::all() {
        assert_differential(bench, &RunConfig::paper_default(), "plain");
    }
}

#[test]
fn all_benches_bit_identical_under_irix_migration() {
    // The kernel engine reads the same reference counters the fast path
    // updates in bulk; a single miscredited counter changes its migration
    // decisions and shows up here.
    for bench in BenchName::all() {
        let cfg = RunConfig {
            placement: PlacementScheme::RoundRobin,
            engine: EngineMode::IrixMig(KernelMigrationConfig::default()),
            ..RunConfig::paper_default()
        };
        assert_differential(bench, &cfg, "IRIXmig");
    }
}

#[test]
fn all_benches_bit_identical_under_upmlib() {
    // UPMlib's distribution passes consume counter snapshots between
    // iterations and migrate pages — which also invalidates fast-path
    // memos (frame fingerprints change), exercising re-recording.
    for bench in BenchName::all() {
        let cfg = RunConfig {
            placement: PlacementScheme::WorstCase { node: 0 },
            engine: EngineMode::Upmlib(UpmOptions::default()),
            ..RunConfig::paper_default()
        };
        assert_differential(bench, &cfg, "upmlib");
    }
}

#[test]
fn recrep_protocol_bit_identical() {
    // Record–replay migrates pages at phase boundaries *inside* an
    // iteration: the fast path must fall back / re-record around them.
    // (BT and SP are the phase-change benchmarks the protocol targets.)
    for bench in [BenchName::Bt, BenchName::Sp] {
        let cfg = RunConfig {
            placement: PlacementScheme::WorstCase { node: 0 },
            engine: EngineMode::RecRep(UpmOptions::default()),
            ..RunConfig::paper_default()
        };
        assert_differential(bench, &cfg, "recrep");
    }
}

#[test]
fn upm_stats_bit_identical() {
    let cfg = RunConfig {
        placement: PlacementScheme::WorstCase { node: 0 },
        engine: EngineMode::Upmlib(UpmOptions::default()),
        ..RunConfig::paper_default()
    };
    let slow = run_one_fastpath(BenchName::Cg, Scale::Tiny, &cfg, false);
    let fast = run_one_fastpath(BenchName::Cg, Scale::Tiny, &cfg, true);
    assert_eq!(slow.upm, fast.upm, "UpmStats diverged");
    assert_eq!(slow.total_secs.to_bits(), fast.total_secs.to_bits());
    for (a, b) in slow.per_iter_secs.iter().zip(&fast.per_iter_secs) {
        assert_eq!(a.to_bits(), b.to_bits(), "per-iteration time diverged");
    }
}

#[test]
fn fast_path_actually_engages() {
    // The equivalence tests above are vacuous if the fast path never
    // fires; pin that CG and MG replay most of their timed regions. A run
    // records only what no earlier run of its key published, so these run
    // on a machine six virtual pages larger than the paper's, a key no
    // other test runs. Its cold start's first-touch regions record with
    // their faults: those recordings aside, the run replays more than it
    // records, and so do the steps after the first (the cold start and the
    // first iteration), the steady state.
    let mut cfg = RunConfig::paper_default();
    cfg.machine.max_vpages += 6;
    for bench in [BenchName::Cg, BenchName::Mg] {
        let mut run = BenchRun::for_bench(bench, Scale::Tiny, &cfg);
        run.set_fastpath(true);
        run.step();
        let first = run.fastpath_stats().expect("installed");
        while !run.is_done() {
            run.step();
        }
        let stats = run
            .fastpath_stats()
            .expect("fast path installed for a modeled benchmark");
        assert!(
            stats.records > 0,
            "{}: no region was ever recorded: {stats:?}",
            bench.label()
        );
        assert!(
            stats.replays > stats.records - stats.fault_records,
            "{}: the run should replay more than it records beyond its first \
             touches: {stats:?}",
            bench.label()
        );
        assert!(
            stats.replays - first.replays > stats.records - first.records,
            "{}: steady-state iterations should replay far more than they \
             record: {stats:?} after the first step's {first:?}",
            bench.label()
        );
    }
}

/// A run by name — what a cell and a `sched` job are — stepped to its end,
/// with the team resized to `resize.1` before step `resize.0` as the
/// scheduler does it. Returns the result bytes, and the engine's counters
/// as they stood before the resize and at the end.
fn run_named(
    bench: BenchName,
    cfg: &RunConfig,
    fastpath: bool,
    resize: Option<(usize, &[usize])>,
) -> (String, [Option<ccnuma::FastpathStats>; 2]) {
    let mut run = BenchRun::for_bench(bench, Scale::Tiny, cfg);
    run.set_fastpath(fastpath);
    let mut before_resize = None;
    while !run.is_done() {
        if let Some((_, team)) = resize.filter(|r| r.0 == run.steps_done()) {
            before_resize = run.fastpath_stats();
            run.runtime_mut().resize_team(team);
        }
        run.step();
    }
    let stats = [before_resize, run.fastpath_stats()];
    (run.finish().to_cache_json().to_string(), stats)
}

#[test]
fn moved_pages_are_retimed_under_both_engines() {
    // The tests above would pass with every moved page's memos re-recorded;
    // pin that the engines' migrations re-time some instead, on the cells
    // whose engine finds a page to move at tiny scale (FT and MG under the
    // kernel engine move none). The kernels stream their data through the
    // scaled caches, so most CPUs hold no line of a page that moves.
    let upmlib = EngineMode::Upmlib(UpmOptions::default());
    let irixmig = EngineMode::IrixMig(KernelMigrationConfig::default());
    let cells = [
        (BenchName::Ft, PlacementScheme::Random { seed: 7 }, &upmlib),
        (BenchName::Mg, PlacementScheme::Random { seed: 7 }, &upmlib),
        (
            BenchName::Cg,
            PlacementScheme::WorstCase { node: 0 },
            &irixmig,
        ),
        (BenchName::Bt, PlacementScheme::RoundRobin, &irixmig),
    ];
    for (bench, placement, engine) in cells {
        let cfg = RunConfig {
            placement,
            engine: engine.clone(),
            ..RunConfig::paper_default()
        };
        let (_, [_, stats]) = run_named(bench, &cfg, true, None);
        let stats = stats.expect("installed");
        let what = format!("{} {}: {stats:?}", bench.label(), engine.label());
        assert!(stats.cpu_retimes > 0, "nothing retimed: {what}");
    }
}

#[test]
fn a_resized_job_replays_again_and_stays_bit_identical() {
    // `Runtime::resize_team` drops the engine with the old team's proofs;
    // the next step of the run installs the new team's.
    let cfg = RunConfig::paper_default();
    let team: Vec<usize> = (0..8).collect();
    for bench in [BenchName::Cg, BenchName::Mg] {
        let resize = Some((1, &team[..]));
        let (exact, _) = run_named(bench, &cfg, false, resize);
        let (fast, [before, after]) = run_named(bench, &cfg, true, resize);
        assert_eq!(exact, fast, "{}", bench.label());
        let (before, after) = (before.expect("installed"), after.expect("re-installed"));
        assert!(before.replays > 0, "{}: {before:?}", bench.label());
        // A new engine, counting from zero, for a team of eight.
        assert!(after.replays > 0, "{}: {after:?}", bench.label());
        assert_eq!(after.rejects, 0, "{}: {after:?}", bench.label());
    }
}

type Stats = ccnuma::FastpathStats;

/// One run of `cell` with the fast path on: its bytes and counters.
fn named_cell(cell: &xp::grid::Cell) -> (String, Stats) {
    let mut run = BenchRun::for_bench(cell.bench, cell.scale, &cell.cfg);
    while !run.is_done() {
        run.step();
    }
    let stats = run.fastpath_stats().expect("installed");
    (run.finish().to_cache_json().to_string(), stats)
}

/// The bytes of a run of `bench` at tiny.
fn private_run(bench: BenchName) -> String {
    let cfg = RunConfig::paper_default();
    let run = BenchRun::for_bench(bench, Scale::Tiny, &cfg);
    run.complete().to_cache_json().to_string()
}

#[test]
fn a_grid_shares_memos_and_stays_bit_identical_in_any_order() {
    // The fig1 grid, run as named cells three ways over one library per
    // way: in plan order, in reverse, and split between two threads. A
    // library is keyed by the machine's configuration too, so each way runs
    // on a machine one virtual page larger than the last — no other test
    // names these keys, and a page nobody maps moves no simulated byte.
    for bench in [BenchName::Cg, BenchName::Mg] {
        let private = private_run(bench);
        let grid = xp::fig1::cells(bench, Scale::Tiny, true);
        let exact: Vec<String> = (grid.iter().cloned())
            .map(|cell| cell.run_with(Some(false)).to_cache_json().to_string())
            .collect();
        let on_key = |extra: usize| {
            let mut cells = grid.clone();
            for cell in &mut cells {
                cell.cfg.machine.max_vpages += extra;
            }
            cells
        };
        let check = |way: &str, order: &[usize], got: &[(String, Stats)]| {
            for (&i, (bytes, _)) in order.iter().zip(got) {
                let (placement, engine) = (&grid[i].cfg.placement, &grid[i].cfg.engine);
                let what = format!(
                    "{} {way} {}-{}",
                    bench.label(),
                    placement.label(),
                    engine.label()
                );
                assert_eq!(*bytes, exact[i], "{what}: diverged from the exact path");
            }
        };
        let first_records_most = |way: &str, firsts: &[Stats], rest: &[Stats]| {
            let most = firsts.iter().map(|s| s.cpu_records).max().unwrap_or(0);
            for s in rest {
                let what = format!("{} {way}: {s:?} after {firsts:?}", bench.label());
                assert!(
                    s.cpu_records < most,
                    "{what}: recorded as much as the first"
                );
                assert!(s.cpu_borrowed > 0, "{what}: borrowed nothing");
            }
        };

        for (way, extra, reverse) in [("in plan order", 1, false), ("in reverse", 2, true)] {
            let cells = on_key(extra);
            let mut order: Vec<usize> = (0..cells.len()).collect();
            if reverse {
                order.reverse();
            }
            let got: Vec<_> = order.iter().map(|&i| named_cell(&cells[i])).collect();
            check(way, &order, &got);
            let stats: Vec<_> = got.iter().map(|(_, s)| *s).collect();
            assert_eq!(
                stats[0].cpu_borrowed, 0,
                "{way}: the first cell starts cold"
            );
            first_records_most(way, &stats[..1], &stats[1..]);
        }

        let cells = on_key(3);
        let halves: Vec<Vec<usize>> = (0..2)
            .map(|h| (h..cells.len()).step_by(2).collect())
            .collect();
        let got: Vec<Vec<_>> = std::thread::scope(|s| {
            let runs: Vec<_> = (halves.iter())
                .map(|half| s.spawn(|| half.iter().map(|&i| named_cell(&cells[i])).collect()))
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let firsts: Vec<_> = got.iter().map(|half: &Vec<_>| half[0].1).collect();
        for (half, got) in halves.iter().zip(&got) {
            check("on two threads", half, got);
            let rest: Vec<_> = got[1..].iter().map(|(_, s)| *s).collect();
            first_records_most("on two threads", &firsts, &rest);
        }

        // What the grids published moves no byte of a later run.
        assert_eq!(private_run(bench), private, "{}", bench.label());
    }
}

#[test]
fn a_phase_scaled_bt_shares_with_its_sibling() {
    // Figure 6's BT at four times the phases, first under UPMlib and then
    // under record–replay, each built by `BenchRun::new` as `xp::grid`
    // builds it. The two are one problem, so the second installs the
    // first's proof set and borrows what it published — on a machine five
    // virtual pages larger than the paper's, a key no other test runs.
    let bt = nas::bt::BtConfig {
        phase_scale: 4,
        ..nas::bt::BtConfig::for_scale(Scale::Tiny)
    };
    let run = |cell: &xp::grid::Cell, fastpath: bool| {
        let mut cfg = cell.cfg.clone();
        cfg.machine.max_vpages += 5;
        let mut run = BenchRun::new(|rt| nas::bt::Bt::with_config(rt, bt), &cfg);
        run.set_fastpath(fastpath);
        while !run.is_done() {
            run.step();
        }
        let stats = run.fastpath_stats();
        (run.finish().to_cache_json().to_string(), stats)
    };
    let cells = xp::fig6::cells(Scale::Tiny, 4);
    let (upmlib, recrep) = (&cells[0], &cells[1]);
    assert_eq!(recrep.cfg.engine.label(), "recrep");
    let (first, _) = run(upmlib, true);
    let (second, stats) = run(recrep, true);
    let stats = stats.expect("installed");
    assert!(stats.cpu_borrowed > 0, "borrowed nothing: {stats:?}");
    assert_eq!(second, run(recrep, false).0, "recrep diverged from exact");
    assert_eq!(first, run(upmlib, false).0, "upmlib diverged from exact");

    // The phase scale is part of the problem: the same arrays, laid out
    // alike, under another text get a proof set of their own.
    let kernel = |phase_scale| {
        let machine = Machine::new(MachineConfig::origin2000_16p_scaled());
        let cfg = nas::bt::BtConfig { phase_scale, ..bt };
        nas::bt::Bt::with_config(&mut Runtime::with_threads(machine, 16), cfg)
    };
    let (one, four) = (kernel(1), kernel(4));
    let (one_model, four_model) = (one.access_model(), four.access_model());
    let layout = |model: &nas::KernelModel| -> Vec<(String, (u64, u64))> {
        let arrays = model.arrays().iter();
        arrays.map(|a| (a.name().to_string(), a.vrange())).collect()
    };
    assert_eq!(layout(&one_model), layout(&four_model));
    let (one, four) = (
        nas::facts::proof_set(&one, 16, &one_model),
        nas::facts::proof_set(&four, 16, &four_model),
    );
    assert!(!std::sync::Arc::ptr_eq(&one, &four));
}

#[test]
fn a_key_keeps_its_memos_while_other_keys_run() {
    // A machine four virtual pages larger than the paper's is a key no
    // other test runs (the grid test above takes one to three larger). A
    // run of another kernel comes between two runs of CG, and nothing but
    // CG's proof set keeps CG's library: the second CG run still finds
    // what the first published.
    let mut cfg = RunConfig::paper_default();
    cfg.machine.max_vpages += 4;
    let (first, [_, cold]) = run_named(BenchName::Cg, &cfg, true, None);
    run_named(BenchName::Mg, &cfg, true, None);
    let (again, [_, warm]) = run_named(BenchName::Cg, &cfg, true, None);
    let (cold, warm) = (cold.expect("installed"), warm.expect("installed"));
    assert_eq!(again, first, "a borrowed memo moved a byte");
    assert!(warm.cpu_borrowed > 0, "borrowed nothing: {warm:?}");
    assert!(
        warm.cpu_records < cold.cpu_records,
        "recorded as much as the first run: {warm:?} after {cold:?}"
    );
}

#[test]
fn a_cold_start_replays_its_first_touches_on_another_placement() {
    // Two runs of one key, the second on another placement than the first:
    // the second's cold start borrows what the first recorded, faults its
    // first-touched pages in at region entry through its own policy, in
    // the order its exact twin takes them, and rejects no region; its
    // bytes and final page table are its exact twin's. Each placement is
    // the second run on a key of its own: a machine seven to eleven
    // virtual pages larger than the paper's, keys no other test runs.
    for bench in BenchName::all() {
        let placements = [
            PlacementScheme::FirstTouch,
            PlacementScheme::RoundRobin,
            PlacementScheme::Random { seed: 7 },
            PlacementScheme::WorstCase { node: 0 },
            xp::lint::static_scheme(bench, Scale::Tiny),
        ];
        let on = |k: usize, placement: &PlacementScheme| {
            let mut cfg = RunConfig {
                placement: placement.clone(),
                ..RunConfig::paper_default()
            };
            cfg.machine.max_vpages += 7 + k;
            cfg
        };
        // The bytes, the final page table, and the counters after the
        // first step (the cold start and one iteration).
        let run = |cfg: &RunConfig, fastpath: bool| {
            let mut run = BenchRun::for_bench(bench, Scale::Tiny, cfg);
            run.set_fastpath(fastpath);
            run.step();
            let cold = run.fastpath_stats();
            while !run.is_done() {
                run.step();
            }
            let pages: Vec<_> = run.runtime().machine().mapped_pages().collect();
            (run.finish().to_cache_json().to_string(), pages, cold)
        };
        for (k, second) in placements.iter().enumerate() {
            let first = &placements[(k + 1) % placements.len()];
            run(&on(k, first), true);
            let (bytes, pages, cold) = run(&on(k, second), true);
            let (exact, exact_pages, _) = run(&on(k, second), false);
            let what = format!(
                "{} {} after {}",
                bench.label(),
                second.label(),
                first.label()
            );
            assert_eq!(bytes, exact, "{what}: diverged from the exact path");
            assert_eq!(pages, exact_pages, "{what}: another page table");
            let cold = cold.expect("installed");
            assert_eq!(cold.rejects, 0, "{what}: {cold:?}");
            assert!(cold.fault_pages > 0, "{what}: nothing faulted in: {cold:?}");
        }
    }
}

#[test]
fn describing_is_invisible() {
    // The access model is the kernel's own text run on a probe that drops
    // stores and on a describer that skips host-side state changes. If
    // either let one through, describing mid-run would perturb the run the
    // proofs are derived for.
    fn enumerate(bench: &dyn NasBenchmark) {
        let model = bench.access_model();
        for phase in model.cold().iter().chain(model.iteration()) {
            for l in phase.loops() {
                for i in 0..l.n() {
                    l.for_each_access(i, &mut |_, _| {});
                }
            }
        }
    }
    for name in BenchName::all() {
        let run = |describe: bool| {
            let mut rt = Runtime::new(Machine::new(MachineConfig::origin2000_16p_scaled()));
            let mut bench = nas::instantiate(name, &mut rt, Scale::Tiny);
            let mut hook = nas::common::no_phase_hook();
            if describe {
                enumerate(&*bench);
            }
            bench.cold_start(&mut rt);
            bench.iterate(&mut rt, &mut hook);
            if describe {
                enumerate(&*bench);
            }
            bench.iterate(&mut rt, &mut hook);
            (
                bench.verify().value.to_bits(),
                rt.machine().clock().now_ns().to_bits(),
                *rt.machine().stats(),
            )
        };
        assert_eq!(
            run(false),
            run(true),
            "{}: describing the kernel disturbed its run",
            name.label()
        );
    }
}

#[test]
fn forced_off_never_installs() {
    let cfg = RunConfig::paper_default();
    let mut run = BenchRun::new(|rt| nas::cg::Cg::new(rt, Scale::Tiny), &cfg);
    run.set_fastpath(false);
    assert!(!run.fastpath_enabled());
    while !run.is_done() {
        run.step();
    }
    assert!(run.fastpath_stats().is_none());
}

#[test]
fn traced_runs_force_the_exact_path() {
    // The fast path replays a region without emitting per-access trace
    // events, so traced runs must silently stay exact.
    let cfg = RunConfig {
        trace: true,
        ..RunConfig::paper_default()
    };
    let mut run = BenchRun::new(|rt| nas::cg::Cg::new(rt, Scale::Tiny), &cfg);
    run.set_fastpath(true); // explicitly requested, still refused
    assert!(!run.fastpath_enabled());
    while !run.is_done() {
        run.step();
    }
    assert!(run.fastpath_stats().is_none());
}

/// The default and whole-grid identity: the fast path is on unless a run
/// says otherwise, and every cell of the figure-1 grid — the grid the
/// committed `fig1_tiny.json` golden is rendered from on the default path
/// (`golden_reports::fig1_tiny_matches_golden`) — measures the same bytes
/// on the exact path.
#[test]
fn env_var_semantics_and_golden_report_identity() {
    let cfg = RunConfig::paper_default();
    let run = BenchRun::new(|rt| nas::cg::Cg::new(rt, Scale::Tiny), &cfg);
    assert!(run.fastpath_enabled(), "fast path defaults on");

    for bench in BenchName::all() {
        for cell in xp::fig1::cells(bench, Scale::Tiny, false) {
            let exact = cell.clone().run_with(Some(false));
            let fast = cell.run_with(Some(true));
            assert_eq!(
                exact.to_cache_json().to_string(),
                fast.to_cache_json().to_string(),
                "{} {} diverged",
                bench.label(),
                exact.label()
            );
        }
    }
}

#[test]
fn lint_findings_identical_either_way() {
    // Lint consumes the same KernelModel the proofs are derived from but
    // never executes the machine; its findings must be untouched by the
    // fast path. (Static by construction — pinned so a future lint that
    // *does* run the machine keeps the invariant.)
    let deny = std::collections::BTreeSet::new();
    let allow = lint::Allowlist::empty();
    let a = xp::lint::run(&BenchName::all(), Scale::Tiny, &deny, &allow)
        .report
        .to_json()
        .to_string();
    let b = xp::lint::run(&BenchName::all(), Scale::Tiny, &deny, &allow)
        .report
        .to_json()
        .to_string();
    assert_eq!(a, b);
}
