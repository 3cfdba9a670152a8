//! Differential suite: the static analyzer's predictions vs the dynamic
//! simulator.
//!
//! Three cross-checks, each closing a different gap between the access
//! models and the machine:
//!
//! 1. **frozen ⇔ flagged** — for every benchmark, the set of pages the
//!    symbolic UPMlib replay freezes must equal the set the real engine
//!    freezes during a full run (both are empty for the NAS kernels: with
//!    an iteration-invariant reference pattern the first migration lands
//!    each page on its global argmax node, after which no competitive ratio
//!    can exceed the threshold again — no reversal, nothing to freeze);
//! 2. **lockstep synthetic ping-pong** — a page hammered from alternating
//!    nodes drives the real engine and the replay through the same
//!    migrate/veto/freeze/deactivate sequence, proving the equivalence in
//!    (1) is not vacuous;
//! 3. **first-touch fidelity** — the model-replayed first-touch placement
//!    must match the machine's page table after a real cold start, page for
//!    page, which validates the models' addresses and thread ordering
//!    bit-for-bit;
//! 4. **analyzer ⇔ synthesizer** — both read one `lint::Footprint`, so an
//!    array has an `L007` finding exactly when its placement carries flip
//!    pages, and both see the same converged replay;
//!
//! plus the determinism cross-check: real runs must be bit-reproducible
//! across team sizes exactly when the analyzer reports no `L008`.

use ccnuma::{vpage_of, vpages, AccessKind, Machine, MachineConfig, NodeId, SimArray, PAGE_SIZE};
use lint::{Code, CountTable, LintConfig, UpmReplay};
use nas::{run_benchmark, BenchName, BenchRun, EngineMode, RunConfig, Scale};
use std::collections::{BTreeMap, BTreeSet};
use upmlib::{UpmEngine, UpmOptions};

fn tiny_cfg(engine: EngineMode) -> RunConfig {
    let mut cfg = RunConfig::paper_default();
    cfg.engine = engine;
    cfg
}

/// Drive a full dynamic run of `bench` and return the engine's frozen set.
fn dynamic_frozen(bench: BenchName) -> Vec<u64> {
    let cfg = tiny_cfg(EngineMode::Upmlib(UpmOptions::default()));
    let mut run = BenchRun::for_bench(bench, Scale::Tiny, &cfg);
    while !run.is_done() {
        run.step();
    }
    let upm = run.upm().expect("Upmlib mode has an engine");
    assert!(
        !upm.is_active(),
        "{}: engine must converge within the run",
        bench.label()
    );
    upm.frozen_pages()
}

fn check_frozen_differential(bench: BenchName) {
    let analysis = xp::lint::analyze_bench(bench, Scale::Tiny);
    let frozen = dynamic_frozen(bench);
    assert_eq!(
        analysis.predicted_frozen,
        frozen,
        "{}: statically flagged ping-pong pages must be exactly the \
         dynamically frozen ones",
        bench.label()
    );
    let flagged = analysis
        .findings
        .iter()
        .any(|f| f.code == Code::PredictedFrozen);
    assert_eq!(
        flagged,
        !frozen.is_empty(),
        "{}: L004 findings must track the frozen set",
        bench.label()
    );
}

#[test]
fn cg_frozen_pages_match_static_prediction() {
    check_frozen_differential(BenchName::Cg);
}

#[test]
fn mg_frozen_pages_match_static_prediction() {
    check_frozen_differential(BenchName::Mg);
}

#[test]
fn remaining_benches_frozen_pages_match_static_prediction() {
    for bench in [BenchName::Bt, BenchName::Sp, BenchName::Ft] {
        check_frozen_differential(bench);
    }
}

/// Hammer the page at `base` from `cpu` hard enough to dominate its
/// counters (writes + reads over every line, several sweeps).
fn hammer(machine: &mut Machine, cpu: usize, base: u64) {
    for _ in 0..6 {
        for line in 0..(PAGE_SIZE / 128) {
            machine.touch(cpu, base + line * 128, AccessKind::Write);
            machine.touch(cpu, base + line * 128, AccessKind::Read);
        }
    }
}

/// Run the real engine and the symbolic replay in lockstep: before each
/// `migrate_memory` the replay is fed the exact counter snapshot the engine
/// is about to read, and after it both must agree on moves, homes, frozen
/// set and activation.
fn lockstep(hammer_cpus: &[usize]) -> (Vec<u64>, u64) {
    let mut m = Machine::new(MachineConfig::tiny_test());
    let elems = (PAGE_SIZE / 8) as usize;
    let arr = SimArray::<f64>::new(&mut m, "pp", elems, 0.0);
    let (base, len) = arr.vrange();
    m.touch(0, base, AccessKind::Read); // first touch: cpu 0 → node 0
    let vp = vpage_of(base);
    let mut upm = UpmEngine::new(&m, UpmOptions::default());
    upm.memrefcnt(&arr);
    upm.reset_counters(&m);
    let homes: BTreeMap<u64, NodeId> = [(vp, m.node_of_vpage(vp).unwrap())].into();
    let mut replay = UpmReplay::new(homes, m.topology().nodes(), UpmOptions::default());
    for &cpu in hammer_cpus {
        hammer(&mut m, cpu, base);
        let table: CountTable = vmm::ProcCounters
            .read_range(&m, base, len)
            .into_iter()
            .map(|v| (v.vpage, v.counts))
            .collect();
        let predicted = replay.invoke(&table);
        let moved = upm.migrate_memory(&mut m);
        assert_eq!(predicted, moved, "replay and engine must move in lockstep");
        assert_eq!(
            replay.homes().get(&vp).copied(),
            m.node_of_vpage(vp),
            "replay and engine must agree on the page's home"
        );
        assert_eq!(replay.frozen_pages(), upm.frozen_pages());
        assert_eq!(replay.is_active(), upm.is_active());
        if !upm.is_active() {
            break;
        }
    }
    (upm.frozen_pages(), vp)
}

#[test]
fn synthetic_ping_pong_freezes_in_lockstep() {
    // cpu 6 lives on node 3, cpu 0 on node 0: alternating dominance forces
    // a 0→3 migration, then a vetoed 3→0 reversal that freezes the page.
    let (frozen, vp) = lockstep(&[6, 0, 6, 0]);
    assert_eq!(frozen, vec![vp], "alternating dominance must freeze");
}

#[test]
fn stable_dominance_freezes_nothing_in_lockstep() {
    let (frozen, _) = lockstep(&[6, 6, 6]);
    assert!(frozen.is_empty(), "one-way migration must not freeze");
}

fn check_first_touch_fidelity(bench: BenchName) {
    let model = xp::lint::model_for(bench, Scale::Tiny);
    let analysis = lint::analyze(&model, &LintConfig::paper_default());
    let cfg = tiny_cfg(EngineMode::None);
    let mut run = BenchRun::for_bench(bench, Scale::Tiny, &cfg);
    run.step(); // cold start + one timed iteration, no migration engine
    let machine = run.runtime().machine();
    let mut actual: BTreeMap<u64, NodeId> = BTreeMap::new();
    for layout in model.arrays() {
        let (base, bytes) = layout.vrange();
        for page in vpages(base, bytes) {
            if let Some(node) = machine.node_of_vpage(page) {
                actual.insert(page, node);
            }
        }
    }
    assert_eq!(
        analysis.first_touch,
        actual,
        "{}: model-replayed first-touch placement must match the machine's \
         page table (same pages, same homes)",
        bench.label()
    );
}

#[test]
fn first_touch_prediction_matches_machine_page_table() {
    for bench in BenchName::all() {
        check_first_touch_fidelity(bench);
    }
}

#[test]
fn flip_findings_and_flip_pages_name_the_same_arrays() {
    let cfg = LintConfig::paper_default();
    let mut flipping = 0;
    for bench in BenchName::all() {
        let model = xp::lint::model_for(bench, Scale::Tiny);
        let fp = lint::Footprint::build(&model, &cfg);
        let converged = fp.replay(&cfg);
        let analysis = lint::analyze(&model, &cfg);
        let map = lint::synthesize(&model, &cfg);
        let flagged: BTreeSet<&str> = analysis
            .findings
            .iter()
            .filter(|f| f.code == Code::DominantFlip)
            .map(|f| f.subject.as_str())
            .collect();
        let placed: BTreeSet<&str> = map
            .arrays()
            .iter()
            .filter(|a| a.flip_pages > 0)
            .map(|a| a.array.as_str())
            .collect();
        assert_eq!(flagged, placed, "{}", bench.label());
        assert_eq!(
            map.flip_pages().len() as u64,
            map.arrays().iter().map(|a| a.flip_pages).sum::<u64>(),
            "{}: every flip page lies in a modelled array",
            bench.label()
        );
        flipping += usize::from(!flagged.is_empty());
        assert_eq!(analysis.predicted_frozen, converged.frozen_pages());
        assert_eq!(
            map,
            lint::synthesize_footprint(&model, &cfg, &fp, &converged),
            "{}",
            bench.label()
        );
    }
    assert!(flipping >= 2, "BT and SP flip at the z-sweep");
}

#[test]
fn cg_is_bit_reproducible_across_team_sizes_and_lint_agrees() {
    // Dynamic side: the REDUCTION_BLOCKS machinery must make CG's zeta
    // estimate bit-identical for every team size up to REDUCTION_BLOCKS.
    let mut bits = Vec::new();
    for threads in [1usize, 4, 8, 16] {
        let mut cfg = tiny_cfg(EngineMode::None);
        cfg.threads = threads;
        let result = run_benchmark(|rt| nas::cg::Cg::new(rt, Scale::Tiny), &cfg);
        assert!(result.verification.passed);
        bits.push(result.verification.value.to_bits());
    }
    assert!(
        bits.windows(2).all(|w| w[0] == w[1]),
        "zeta must be bit-identical across team sizes, got {bits:?}"
    );
    // Static side: the analyzer agrees there is no divergence at 16 threads
    // (block count constant) ...
    let analysis = xp::lint::analyze_bench(BenchName::Cg, Scale::Tiny);
    assert!(
        analysis
            .findings
            .iter()
            .all(|f| f.code != Code::TeamSensitiveReduction),
        "no L008 expected at 16 threads"
    );
    // ... and predicts divergence as soon as team sizes exceed
    // REDUCTION_BLOCKS, where the partial-sum partition starts to vary.
    let model = xp::lint::model_for(BenchName::Cg, Scale::Tiny);
    let wide = LintConfig {
        threads: 32,
        ..LintConfig::paper_default()
    };
    let flagged = lint::analyze(&model, &wide);
    assert!(
        flagged
            .findings
            .iter()
            .any(|f| f.code == Code::TeamSensitiveReduction),
        "L008 expected for team sizes beyond REDUCTION_BLOCKS"
    );
}
