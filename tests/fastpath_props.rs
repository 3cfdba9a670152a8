//! Property tests for the phase fast path's proof contract (vendored
//! proptest shim).
//!
//! Two directions of the [`nas::derive_loop_proof`] eligibility analysis:
//!
//! * **Soundness** — for *arbitrary* generated loop shapes (including
//!   write-shared and dynamically scheduled ones), installing whatever proof
//!   the analysis derives never changes observable machine state: paired
//!   runtimes on `tiny_test`, fast path on vs off, finish bit-identical.
//! * **Completeness** — loop shapes that are thread-local by construction
//!   (each line written by at most one thread, shared data read-only) are
//!   never rejected, for arbitrary sizes, team sizes, and static schedules;
//!   and every known-local phase of the real NAS models derives a proof.

use ccnuma::fastpath::PhaseProof;
use ccnuma::{AccessKind, Machine, MachineConfig, SimArray, LINE_SHIFT, PAGE_SIZE};
use nas::{derive_loop_proof, derive_proofs, LoopKind, LoopModel, Scale};
use omp::{Runtime, Schedule};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// f64 elements per cache line.
const EPL: usize = (1usize << LINE_SHIFT) / 8;

/// Per-iteration access shapes, shared between the declarative
/// [`LoopModel`] and the executable loop body so the two cannot drift.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pattern {
    /// Iteration `i` reads and writes its own line: thread-local.
    Stripe,
    /// Everyone reads line 0, writes its own line *past* the shared one:
    /// shared input stays read-only.
    Bcast,
    /// Reads the (wrapping) successor line, writes its own: the read crosses
    /// chunk seams into another thread's written line.
    Neighbor,
    /// Element-dense: reads and writes element `i`, so `EPL` iterations
    /// share a line and chunk seams write-share it.
    Dense,
    /// Reads its own line, writes nothing.
    ReadOnly,
    /// Everyone writes line 0: cross-thread write sharing.
    AllWrite,
}

/// `(reads, writes)` of iteration `i`, as element indices.
fn accesses(p: Pattern, i: usize, n: usize) -> (Vec<usize>, Vec<usize>) {
    let line = |k: usize| k * EPL;
    match p {
        Pattern::Stripe => (vec![line(i)], vec![line(i)]),
        Pattern::Bcast => (vec![line(0)], vec![line(i + 1)]),
        Pattern::Neighbor => (vec![line((i + 1) % n)], vec![line(i)]),
        Pattern::Dense => (vec![i], vec![i]),
        Pattern::ReadOnly => (vec![line(i)], vec![]),
        Pattern::AllWrite => (vec![], vec![line(0)]),
    }
}

fn elems(p: Pattern, n: usize) -> usize {
    match p {
        Pattern::Dense => n,
        _ => (n + 1) * EPL,
    }
}

fn loop_model(p: Pattern, n: usize, schedule: Schedule, base: u64) -> LoopModel {
    LoopModel::parallel("loop", n, schedule, move |i, emit| {
        emit_pattern(p, i, n, base, emit)
    })
}

fn emit_pattern(p: Pattern, i: usize, n: usize, base: u64, emit: &mut dyn FnMut(u64, AccessKind)) {
    let (reads, writes) = accesses(p, i, n);
    for r in reads {
        emit(base + 8 * r as u64, AccessKind::Read);
    }
    for w in writes {
        emit(base + 8 * w as u64, AccessKind::Write);
    }
}

/// The pattern replicated over several arrays, as a parallel loop or — all
/// `n` rounds in its single iteration — a serial region.
fn multi_array_model(
    p: Pattern,
    n: usize,
    schedule: Schedule,
    bases: Vec<u64>,
    serial: bool,
) -> LoopModel {
    let round = move |i: usize, emit: &mut dyn FnMut(u64, AccessKind)| {
        for &base in &bases {
            emit_pattern(p, i, n, base, emit);
        }
    };
    if serial {
        LoopModel::serial("loop", move |_, emit| (0..n).for_each(|i| round(i, emit)))
    } else {
        LoopModel::parallel("loop", n, schedule, round)
    }
}

/// The proof contract restated with no table at all: list every access as
/// `(line, thread, kind)`, sort, and judge each line's run.
fn sort_and_merge_proof(label: &str, l: &LoopModel, threads: usize) -> Option<PhaseProof> {
    let team = if l.kind() == LoopKind::Serial {
        1
    } else {
        threads
    };
    if l.schedule().is_dynamic() || team > 64 {
        return None;
    }
    let mut log: Vec<(u64, usize, bool)> = Vec::new();
    l.walk(team, |tid, vaddr, kind| {
        log.push((vaddr >> LINE_SHIFT, tid, kind == AccessKind::Write));
    });
    log.sort_unstable();
    let mut lines = Vec::new();
    let mut line_writes = Vec::new();
    for run in log.chunk_by(|a, b| a.0 == b.0) {
        let line = run[0].0;
        let writers: BTreeSet<usize> = run.iter().filter(|a| a.2).map(|a| a.1).collect();
        let foreign = |w: usize| run.iter().any(|a| a.1 != w);
        match writers.len() {
            0 => {}
            1 if !foreign(*writers.first().unwrap()) => {
                let writes = run.iter().filter(|a| a.2).count();
                line_writes.push((line, writes as u32, run[0].1 as u32));
            }
            _ => return None,
        }
        lines.push(line);
    }
    Some(PhaseProof::new(label.to_string(), team, lines, line_writes))
}

/// Full observable state: clock bits, machine stats, per-CPU stats, counters
/// of every mapped frame, per-page directory version sums.
fn fingerprint(m: &Machine) -> (u64, String) {
    let mut counters = Vec::new();
    let mut versions = Vec::new();
    for (vp, f) in m.mapped_pages() {
        for node in 0..m.topology().nodes() {
            counters.push(m.counters().get(f, node));
        }
        versions.push(m.page_version_sum(vp));
    }
    let per_cpu: Vec<_> = (0..m.cpus()).map(|c| *m.cpu_stats(c)).collect();
    (
        m.clock().now_ns().to_bits(),
        format!("{:?} {per_cpu:?} {counters:?} {versions:?}", m.stats()),
    )
}

/// A page move between two regions of a run: before region `.0` the array's
/// page `.1` (wrapping) goes to node `.2` (wrapping) — and, if `.3`, back to
/// where it was before the region after that.
type Move = (usize, usize, usize, bool);

/// Run `reps` regions of the pattern on a fresh `config` runtime, with
/// whatever proof the analysis derives installed (or not) and the array's
/// pages moved between regions as `moves` say, and fingerprint the machine.
/// Also reports the proof's eligibility and the engine's counters.
#[allow(clippy::too_many_arguments)]
fn run_moving(
    config: &MachineConfig,
    p: Pattern,
    n: usize,
    threads: usize,
    schedule: Schedule,
    reps: usize,
    moves: &[Move],
    fast: bool,
) -> ((u64, String), bool, ccnuma::FastpathStats) {
    let mut m = Machine::new(config.clone());
    let arr = SimArray::<f64>::new(&mut m, "p.a", elems(p, n).max(1), 0.0);
    let (base, bytes) = arr.vrange();
    let pages = ccnuma::vpages(base, bytes);
    let nodes = m.topology().nodes();
    let mut rt = Runtime::with_threads(m, threads);
    let proof = derive_loop_proof("p/loop", &loop_model(p, n, schedule, base), threads);
    let eligible = proof.is_some();
    if fast {
        let table = ccnuma::ProofTable::fold([("p/loop".to_string(), proof)]);
        rt.install_fastpath(&table, None);
    }
    rt.phase("p");
    let mut homeward = Vec::new();
    for rep in 0..reps {
        for (vpage, home) in std::mem::take(&mut homeward) {
            rt.machine_mut().migrate_page(vpage, home).unwrap();
        }
        for &(_, page, node, back) in moves.iter().filter(|mv| mv.0 == rep) {
            let vpage = pages.start + page as u64 % (pages.end - pages.start);
            // Nothing moves before its first touch.
            let Some(home) = rt.machine().node_of_vpage(vpage) else {
                continue;
            };
            rt.machine_mut().migrate_page(vpage, node % nodes).unwrap();
            if back {
                homeward.push((vpage, home));
            }
        }
        rt.name_region("loop");
        rt.parallel_for(n, schedule, |par, i| {
            let (reads, writes) = accesses(p, i, n);
            for r in reads {
                par.get(&arr, r);
            }
            for w in writes {
                par.set(&arr, w, (i + rep) as f64);
            }
        });
    }
    let stats = rt.fastpath_stats().unwrap_or_default();
    (fingerprint(rt.machine()), eligible, stats)
}

/// [`run_moving`] on `tiny_test` with every page left where it fell.
fn run_case(
    p: Pattern,
    n: usize,
    threads: usize,
    schedule: Schedule,
    reps: usize,
    fast: bool,
) -> ((u64, String), bool) {
    let config = MachineConfig::tiny_test();
    let (print, eligible, _) = run_moving(&config, p, n, threads, schedule, reps, &[], fast);
    (print, eligible)
}

/// `tiny_test` with a remote:local ratio that makes every remote latency a
/// non-integer: an f64 sum of them depends on the order of its addends.
fn fractional_latencies() -> MachineConfig {
    MachineConfig {
        latency: ccnuma::LatencyModel::with_remote_ratio(2.3),
        ..MachineConfig::tiny_test()
    }
}

fn any_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        Just(Pattern::Stripe),
        Just(Pattern::Bcast),
        Just(Pattern::Neighbor),
        Just(Pattern::Dense),
        Just(Pattern::ReadOnly),
        Just(Pattern::AllWrite),
    ]
}

fn any_schedule() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static),
        (1usize..9).prop_map(Schedule::StaticChunk),
        (1usize..5).prop_map(Schedule::Dynamic),
    ]
}

fn static_schedules() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static),
        (1usize..9).prop_map(Schedule::StaticChunk),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: whatever `derive_loop_proof` decides, running with the
    /// fast path installed is bit-identical to running without it —
    /// replays, partial replays, rejections, and `None` proofs included.
    #[test]
    fn derived_proofs_replay_bit_identically(
        pattern in any_pattern(),
        n in 1usize..40,
        threads in 1usize..9, // tiny_test has 8 CPUs
        schedule in any_schedule(),
        reps in 2usize..5,
    ) {
        let (slow, _) = run_case(pattern, n, threads, schedule, reps, false);
        let (fast, _) = run_case(pattern, n, threads, schedule, reps, true);
        prop_assert_eq!(slow, fast);
    }

    /// Soundness under migration: pages that move between two regions of a
    /// run — some of them there and back — leave a run with the fast path
    /// bit-identical to one without, whether a moved page's memos are
    /// re-timed (none of its lines was resident), re-recorded (some were)
    /// or hit again (it came back); also where latencies are not integers.
    #[test]
    fn moved_pages_replay_bit_identically(
        pattern in any_pattern(),
        n in 1usize..400,
        threads in 1usize..9,
        schedule in static_schedules(),
        reps in 3usize..9,
        moves in proptest::collection::vec(
            (1usize..9, 0usize..4, 0usize..4, any::<bool>()),
            0..6,
        ),
        fractional in any::<bool>(),
    ) {
        let config = if fractional { fractional_latencies() } else { MachineConfig::tiny_test() };
        let run = |fast| run_moving(&config, pattern, n, threads, schedule, reps, &moves, fast);
        prop_assert_eq!(run(false).0, run(true).0);
    }

    /// Completeness: thread-local shapes — single writer per line, shared
    /// data read-only — are never rejected under any static schedule.
    #[test]
    fn known_local_patterns_always_derive_a_proof(
        pattern in prop_oneof![
            Just(Pattern::Stripe),
            Just(Pattern::Bcast),
            Just(Pattern::ReadOnly),
        ],
        n in 1usize..200,
        threads in 1usize..17,
        schedule in static_schedules(),
    ) {
        let proof = derive_loop_proof("p/loop", &loop_model(pattern, n, schedule, 0), threads);
        prop_assert!(proof.is_some(), "{pattern:?} n={n} threads={threads} rejected");
    }

    /// The derivation is the contract, whatever the address space looks
    /// like: arrays scattered over a 2^44-byte space (so the derivation's
    /// per-page bookkeeping meets pages in any order), teams up to the
    /// 64-thread mask width and past it, serial regions, dynamic schedules,
    /// and both ineligible sharing patterns (`AllWrite`: two writers;
    /// `Neighbor`/`Dense`: a writer plus a foreign reader) come out equal
    /// to the sort-and-merge restatement — proof for proof, `None` for
    /// `None`.
    #[test]
    fn derivation_equals_sort_and_merge_on_scattered_arrays(
        pattern in any_pattern(),
        n in 1usize..150,
        threads in 1usize..71,
        schedule in any_schedule(),
        pages in proptest::collection::vec(0u64..(1 << 30), 1..4),
        serial in any::<bool>(),
    ) {
        let bases: Vec<u64> = pages.iter().map(|p| p * PAGE_SIZE).collect();
        let l = multi_array_model(pattern, n, schedule, bases, serial);
        let got = derive_loop_proof("p/loop", &l, threads);
        let want = sort_and_merge_proof("p/loop", &l, threads);
        if let Some(p) = &got {
            prop_assert_eq!(p.threads, if serial { 1 } else { threads });
        }
        if !serial && (threads > 64 || schedule.is_dynamic()) {
            prop_assert!(got.is_none());
        }
        prop_assert_eq!(got, want);
    }

    /// Eligibility soundness, negative direction: a line written by two or
    /// more threads must be rejected (a replay could not reconstruct the
    /// cross-thread staleness).
    #[test]
    fn write_shared_patterns_are_rejected(
        n in 2usize..200,
        threads in 2usize..17,
        schedule in static_schedules(),
    ) {
        let lp = loop_model(Pattern::AllWrite, n, schedule, 0);
        // With one chunk per thread some teams leave line 0 single-writer;
        // only assert when two threads actually receive iterations.
        let busy = schedule
            .static_chunks(n, threads)
            .iter()
            .filter(|c| c.iter().any(|&(s, e)| e > s))
            .count();
        if busy >= 2 {
            prop_assert!(derive_loop_proof("p/loop", &lp, threads).is_none());
        }
    }
}

/// The property above is not vacuous: a loop that streams three pages
/// through a 64-line L2 holds none of its first page's lines between two
/// regions, so moving that page re-times the memo, and moving it back hits
/// the placement it was recorded under — bit-identically, on latencies whose
/// sum depends on the order of its addends.
#[test]
fn a_streaming_loop_is_retimed_when_its_page_moves() {
    let config = fractional_latencies();
    let moves = [(3, 0, 3, true), (6, 0, 2, false)];
    let run = |fast| {
        let stripe = Pattern::Stripe;
        run_moving(&config, stripe, 300, 1, Schedule::Static, 8, &moves, fast)
    };
    let (exact, _, _) = run(false);
    let (fast, eligible, stats) = run(true);
    assert!(eligible);
    assert_eq!(exact, fast);
    // Unmapped, recorded (one pass leaves the stream's steady state), a
    // hit; then there (retimed), back and once more (hits), elsewhere
    // (retimed), once more (a hit).
    let shape = (
        stats.rejects,
        stats.records,
        stats.cpu_retimes,
        stats.cpu_replays,
    );
    assert_eq!(shape, (1, 1, 2, 4), "{stats:?}");
}

/// The access model of `bench` at tiny scale, team of 16.
fn tiny_model(bench: nas::BenchName) -> (nas::KernelModel, usize) {
    let mut rt = Runtime::with_threads(Machine::new(MachineConfig::origin2000_16p_scaled()), 16);
    let model = nas::instantiate(bench, &mut rt, Scale::Tiny)
        .access_model()
        .expect("every bench ships an access model");
    (model, rt.threads())
}

/// A region finds its proof by its label, so a label must name one proof:
/// on the real kernels every instance of a label — the cold-start and the
/// timed copies of a loop, CG's trips through `cg/spmv` — derives the
/// same proof or none does. A label that broke this would lose its pool
/// (`FastpathEngine::install`) and quietly run exactly.
#[test]
fn every_nas_label_names_one_proof() {
    for bench in nas::BenchName::all() {
        let (model, threads) = tiny_model(bench);
        let mut table: BTreeMap<String, Option<std::sync::Arc<PhaseProof>>> = BTreeMap::new();
        let mut instances = 0;
        let phases = [model.cold(), model.iteration()];
        for (label, proof) in phases.iter().flat_map(|p| derive_proofs(p, threads)) {
            instances += 1;
            if let Some(first) = table.get(&label) {
                assert!(
                    *first == proof,
                    "{} {label}: instances disagree",
                    bench.label()
                );
            } else {
                table.insert(label, proof);
            }
        }
        println!(
            "{}: {instances} instances, {} labels",
            bench.label(),
            table.len()
        );
        assert!(table.len() < instances, "cold and timed text share labels");
    }
}

/// Completeness on the real kernels: every NAS benchmark's access model
/// derives proofs for its known-local phases. The exact counts are pinned:
/// a silent drop to zero would quietly disable the fast path for a bench.
#[test]
fn nas_iteration_models_derive_the_expected_proofs() {
    let expected: &[(nas::BenchName, usize, usize)] = &[
        // (bench, eligible iteration proofs, total iteration loops)
        (nas::BenchName::Cg, 25, 25),
        (nas::BenchName::Mg, 7, 7),
        (nas::BenchName::Bt, 4, 5),
        (nas::BenchName::Sp, 4, 5),
        (nas::BenchName::Ft, 5, 5),
    ];
    let mut got = Vec::new();
    for &(bench, _, _) in expected {
        let (model, threads) = tiny_model(bench);
        let proofs: Vec<_> = derive_proofs(model.iteration(), threads).collect();
        let eligible = proofs.iter().filter(|(_, p)| p.is_some()).count();
        println!("{}: {eligible}/{} eligible", bench.label(), proofs.len());
        got.push((eligible, proofs.len()));
    }
    let want: Vec<(usize, usize)> = expected.iter().map(|&(_, e, t)| (e, t)).collect();
    assert_eq!(got, want, "tiny iteration proof counts per bench");
}
