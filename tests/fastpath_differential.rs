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
    // fires; pin that CG and MG replay most of their timed regions.
    for bench in [BenchName::Cg, BenchName::Mg] {
        let cfg = RunConfig::paper_default();
        let mut run = match bench {
            BenchName::Cg => BenchRun::new(|rt| nas::cg::Cg::new(rt, Scale::Tiny), &cfg),
            _ => BenchRun::new(|rt| nas::mg::Mg::new(rt, Scale::Tiny), &cfg),
        };
        run.set_fastpath(true);
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
            stats.replays > stats.records,
            "{}: steady-state iterations should replay far more than they \
             record: {stats:?}",
            bench.label()
        );
    }
}

#[test]
fn describing_is_invisible() {
    // The access model is the kernel's own text run on a probe that drops
    // stores and on a describer that skips host-side state changes. If
    // either let one through, describing mid-run would perturb the run the
    // proofs are derived for.
    fn enumerate(bench: &dyn NasBenchmark) {
        let model = bench.access_model().expect("all five kernels are modeled");
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
