//! Differential suite for the placement synthesizer: the static
//! prescription vs the dynamic engine, and the fast path under static
//! placement.
//!
//! The synthesizer's contract ([`lint::synthesize`]) is checked against
//! real runs, benchmark by benchmark:
//!
//! 1. **stable ⇔ converged** — wherever the analyzer predicts no `L007`
//!    phase-dominance flip, the synthesized home must equal the placement
//!    a real first-touch + UPMlib run converges to, page for page;
//! 2. **flips are accounted** — pages that do flip carry
//!    [`lint::Confidence::Flip`] and only those pages may appear in the
//!    residual-migration ledger (the traffic a hybrid static+UPMlib run
//!    still pays);
//! 3. **fast-path interplay** — the phase fast path stays bit-identical
//!    and keeps engaging when the initial placement is the synthesized
//!    map instead of first-touch, and the eligible-proof counts pinned in
//!    `fastpath_props.rs` hold unchanged (proof derivation is placement
//!    independent by construction; this pins it empirically).

use ccnuma::{vpages, NodeId};
use lint::Confidence;
use nas::{derive_proofs, BenchName, BenchRun, EngineMode, RunConfig, Scale};
use std::collections::BTreeMap;
use upmlib::UpmOptions;
use xp::run_one_fastpath;

/// Run a real first-touch + UPMlib benchmark to completion and return the
/// machine's final page table over the model's array ranges.
fn dynamic_converged(bench: BenchName) -> BTreeMap<u64, NodeId> {
    let cfg = RunConfig {
        engine: EngineMode::Upmlib(UpmOptions::default()),
        ..RunConfig::paper_default()
    };
    let mut run = BenchRun::for_bench(bench, Scale::Tiny, &cfg);
    while !run.is_done() {
        run.step();
    }
    assert!(
        !run.upm().expect("upmlib engine").is_active(),
        "{}: engine must converge within the run",
        bench.label()
    );
    let machine = run.runtime().machine();
    let model = xp::lint::model_for(bench, Scale::Tiny);
    let mut actual = BTreeMap::new();
    for layout in model.arrays() {
        let (base, bytes) = layout.vrange();
        for page in vpages(base, bytes) {
            if let Some(node) = machine.node_of_vpage(page) {
                actual.insert(page, node);
            }
        }
    }
    actual
}

fn check_static_matches_converged(bench: BenchName) {
    let map = xp::lint::placement_map(bench, Scale::Tiny);
    let actual = dynamic_converged(bench);
    let flips: Vec<u64> = map.flip_pages();
    let mut mismatches = Vec::new();
    for (&page, a) in map.pages() {
        if a.confidence != Confidence::Stable {
            continue;
        }
        match actual.get(&page) {
            Some(&node) if node == a.node => {}
            other => mismatches.push((page, a.node, other.copied())),
        }
    }
    assert!(
        mismatches.is_empty(),
        "{}: {} stable pages disagree with the dynamic ft+UPMlib converged \
         placement (first: {:x?})",
        bench.label(),
        mismatches.len(),
        mismatches.first()
    );
    // Residual traffic may only come from flip pages: stable pages are the
    // replay's fixpoint, so re-seeding the engine with the map must not
    // move them.
    for page in map.residual_by_page().keys() {
        assert!(
            flips.contains(page),
            "{}: residual migration on a stable page {page:#x}",
            bench.label()
        );
    }
    if flips.is_empty() {
        assert_eq!(
            map.residual_migrations(),
            0,
            "{}: no flips → no residual traffic",
            bench.label()
        );
    }
}

#[test]
fn cg_static_placement_matches_dynamic_convergence() {
    check_static_matches_converged(BenchName::Cg);
}

#[test]
fn mg_static_placement_matches_dynamic_convergence() {
    check_static_matches_converged(BenchName::Mg);
}

#[test]
fn remaining_benches_static_placement_matches_dynamic_convergence() {
    for bench in [BenchName::Bt, BenchName::Sp, BenchName::Ft] {
        check_static_matches_converged(bench);
    }
}

/// The fast path must not care where pages live: plain runs under the
/// synthesized static placement are bit-identical with the fast path on
/// and off, for every benchmark.
#[test]
fn fastpath_bit_identical_under_static_placement() {
    for bench in BenchName::all() {
        let cfg = RunConfig {
            placement: xp::lint::static_scheme(bench, Scale::Tiny),
            ..RunConfig::paper_default()
        };
        let slow = run_one_fastpath(bench, Scale::Tiny, &cfg, false)
            .to_cache_json()
            .to_string();
        let fast = run_one_fastpath(bench, Scale::Tiny, &cfg, true)
            .to_cache_json()
            .to_string();
        assert_eq!(
            slow,
            fast,
            "{}: fast path diverged under static placement",
            bench.label()
        );
    }
}

/// The hybrid (static + UPMlib) exercises migration-driven memo
/// invalidation on top of the prescription; CG has the largest map.
#[test]
fn fastpath_bit_identical_under_static_plus_upmlib() {
    for bench in [BenchName::Cg, BenchName::Mg] {
        let cfg = RunConfig {
            placement: xp::lint::static_scheme(bench, Scale::Tiny),
            engine: EngineMode::Upmlib(UpmOptions::default()),
            ..RunConfig::paper_default()
        };
        let slow = run_one_fastpath(bench, Scale::Tiny, &cfg, false)
            .to_cache_json()
            .to_string();
        let fast = run_one_fastpath(bench, Scale::Tiny, &cfg, true)
            .to_cache_json()
            .to_string();
        assert_eq!(
            slow,
            fast,
            "{}: fast path diverged under static+upmlib",
            bench.label()
        );
    }
}

/// Fast-path engagement and proof eligibility do not regress when runs
/// start from the synthesized placement: the pinned per-bench eligible
/// counts from `fastpath_props.rs` hold, and CG/MG still replay most
/// timed regions.
#[test]
fn fastpath_eligibility_survives_static_placement() {
    let expected: &[(BenchName, usize, usize)] = &[
        (BenchName::Cg, 25, 25),
        (BenchName::Mg, 7, 7),
        (BenchName::Bt, 4, 5),
        (BenchName::Sp, 4, 5),
        (BenchName::Ft, 5, 5),
    ];
    for &(bench, want_eligible, want_total) in expected {
        let model = xp::lint::model_for(bench, Scale::Tiny);
        let proofs: Vec<_> = derive_proofs(model.iteration(), 16).collect();
        let eligible = proofs.iter().filter(|(_, p)| p.is_some()).count();
        assert_eq!(
            (eligible, proofs.len()),
            (want_eligible, want_total),
            "{}: eligible proof count changed",
            bench.label()
        );
    }
    for bench in [BenchName::Cg, BenchName::Mg] {
        let mut cfg = RunConfig {
            placement: xp::lint::static_scheme(bench, Scale::Tiny),
            ..RunConfig::paper_default()
        };
        // A run records only what no earlier run of its key published: a
        // machine one virtual page larger is a key no other test here runs.
        // First-touch regions record with their faults: those aside, the
        // run replays more than it records, and so do the steps after the
        // first (the cold start and one iteration), the steady state.
        cfg.machine.max_vpages += 1;
        let mut run = BenchRun::for_bench(bench, Scale::Tiny, &cfg);
        run.set_fastpath(true);
        run.step();
        let first = run.fastpath_stats().expect("fast path installed");
        while !run.is_done() {
            run.step();
        }
        let stats = run.fastpath_stats().expect("fast path installed");
        assert!(
            stats.records > 0
                && stats.records - stats.fault_records < stats.replays
                && stats.replays - first.replays > stats.records - first.records,
            "{}: fast path stopped engaging under static placement: {stats:?} after {first:?}",
            bench.label()
        );
    }
}
