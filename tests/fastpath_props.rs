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
//!
//! And the proof's own format: it holds its lines and claims as runs and
//! gives back, line by line, exactly what it was built from. And first
//! touches: a region whose footprint is partly unmapped replays on another
//! placement policy by faulting its pages in as the exact run does, and an
//! image whose faults are not the unmapped pages does not replay.

use ccnuma::fastpath::PhaseProof;
use ccnuma::{
    AccessKind, Machine, MachineConfig, MemoLibrary, SimArray, LINE_SHIFT, PAGE_SHIFT, PAGE_SIZE,
};
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
        rt.install_fastpath(&table, &MemoLibrary::default());
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

/// `(gap, lines, claim)` of one stretch of a proof's lines, in order.
type Stretch = (u32, usize, u32);

/// The per-line inputs of [`PhaseProof::new`] for a team of two, stretch
/// by stretch. A gap of 0 continues the last stretch, 1 and 2 skip a line
/// or a few, 3 jumps ~2^40 bytes ahead (a dozen jumps stay inside a
/// 2^44-byte space). A claim of 0 leaves the stretch unwritten; 1 writes
/// each line once from thread 0, 2 twice from thread 0, 3 once from thread
/// 1 — so two adjacent written stretches differ only in count or only in
/// writer, or not at all.
fn proof_inputs(stretches: &[Stretch]) -> (Vec<u64>, Vec<(u64, u32, u32)>) {
    let (mut lines, mut writes) = (Vec::new(), Vec::new());
    let mut next = 0u64;
    for &(gap, len, claim) in stretches {
        next += [0, 1, 5, 1 << 33][gap as usize];
        for line in next..next + len as u64 {
            lines.push(line);
            if claim > 0 {
                let (count, writer) = [(1, 0), (2, 0), (1, 1)][claim as usize - 1];
                writes.push((line, count, writer));
            }
        }
        next += len as u64;
    }
    (lines, writes)
}

fn any_stretches() -> impl Strategy<Value = Vec<Stretch>> {
    proptest::collection::vec((0u32..4, 1usize..6, 0u32..4), 1..12)
}

fn proof_of(inputs: &(Vec<u64>, Vec<(u64, u32, u32)>)) -> PhaseProof {
    PhaseProof::new("p/loop".to_string(), 2, inputs.0.clone(), inputs.1.clone())
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

    /// The run format holds what it was given: `lines`, `line_writes` and
    /// `writes_of` give back exactly the per-line inputs — 0 for every line
    /// the proof does not claim — and `pages` every page of them, once; a
    /// proof equals another exactly when their inputs are equal.
    #[test]
    fn a_proof_gives_back_exactly_its_lines_and_claims(
        a in any_stretches(),
        b in any_stretches(),
        pick in 0usize..1000,
    ) {
        let inputs = proof_inputs(&a);
        let proof = proof_of(&inputs);
        let (lines, writes) = &inputs;
        prop_assert_eq!(&proof.lines().collect::<Vec<_>>(), lines);
        prop_assert_eq!(&proof.line_writes().collect::<Vec<_>>(), writes);
        let claims: BTreeMap<u64, u32> = writes.iter().map(|&(l, c, _)| (l, c)).collect();
        let near = lines.iter().flat_map(|&l| [l.wrapping_sub(1), l, l + 1]);
        for line in near.chain([u64::MAX, 1 << 37]) {
            let want = claims.get(&line).copied().unwrap_or(0);
            prop_assert_eq!(proof.writes_of(line), want, "line {}", line);
        }
        let mut pages: Vec<u64> = lines.iter().map(|l| l >> (PAGE_SHIFT - LINE_SHIFT)).collect();
        pages.dedup();
        prop_assert_eq!(proof.pages().collect::<Vec<_>>(), pages);

        prop_assert!(proof_of(&inputs) == proof, "equal inputs, unequal proofs");
        let other = proof_inputs(&b);
        prop_assert_eq!(proof_of(&other) == proof, other == inputs);
        // One line fewer, or one claim one write heavier: another proof.
        let mut fewer = inputs.clone();
        let gone = fewer.0.remove(pick % lines.len());
        fewer.1.retain(|w| w.0 != gone);
        prop_assert!(proof_of(&fewer) != proof, "line {} dropped", gone);
        if !writes.is_empty() {
            let mut heavier = inputs.clone();
            heavier.1[pick % writes.len()].1 += 1;
            prop_assert!(proof_of(&heavier) != proof, "a claim raised");
        }
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

/// A region that first-touches part of its footprint: iteration `i` writes
/// line `i` of `a` and reads line `i + shift` (wrapping) of `b`, so a page
/// of `b` one thread faults in is read by another after it. Before it, a
/// serial region touches the pages `prefault` names (by index over `a`'s
/// pages, then `b`'s); with `fill`, node `fill.0` is filled up to `fill.1`
/// free frames first, so faults placed on it spill to another node.
#[derive(Debug, Clone)]
struct Faulting {
    n: usize,
    threads: usize,
    schedule: Schedule,
    shift: usize,
    prefault: Vec<usize>,
    fill: Option<(usize, usize)>,
    reps: usize,
}

/// The five placement policies by index, the random and worst-case ones
/// from `seed`; the static map sends every other page of the arrays'
/// span somewhere by `seed` and leaves the rest to first touch.
fn policy(which: usize, seed: u64, span: std::ops::Range<u64>) -> vmm::PlacementScheme {
    use vmm::PlacementScheme::*;
    match which {
        0 => FirstTouch,
        1 => RoundRobin,
        2 => Random { seed },
        3 => WorstCase {
            node: seed as usize % 4,
        },
        _ => {
            let map = (span.step_by(2)).map(|vp| (vp, vp.wrapping_add(seed) as usize % 4));
            Static {
                map: std::sync::Arc::new(vmm::StaticMap::new(map.collect())),
            }
        }
    }
}

/// One run of `case` on a fresh `tiny_test` machine placing by `which`
/// (see [`policy`]), with the fast path on `table` and `library` if
/// `fast`: the fingerprint, the page table and `a`'s values; the engine's
/// counters; and the faults the timed regions took. The table is derived
/// by the first run that needs one; every later run of the case installs
/// the same proofs, as runs of one key do.
fn faulting_run(
    case: &Faulting,
    which: Policy,
    table: &mut Option<ccnuma::ProofTable>,
    library: &MemoLibrary,
    fast: bool,
) -> (((u64, String), String), ccnuma::FastpathStats, u64) {
    let mut m = Machine::new(MachineConfig::tiny_test());
    if let Some((node, free)) = case.fill {
        let frames = m.config().frames_per_node - free;
        let base = m.reserve_vspace(frames as u64 * PAGE_SIZE) >> PAGE_SHIFT;
        for vp in base..base + frames as u64 {
            m.map_page(vp, node).unwrap();
        }
    }
    let lines = case.n.max(1);
    let a = SimArray::<f64>::new(&mut m, "f.a", lines * EPL, 0.0);
    let b = SimArray::<f64>::new(&mut m, "f.b", lines * EPL, 1.0);
    let span = |arr: &SimArray<f64>| {
        let (base, bytes) = arr.vrange();
        ccnuma::vpages(base, bytes)
    };
    let (pa, pb) = (span(&a), span(&b));
    vmm::install_placement(&mut m, policy(which.0, which.1, pa.start..pb.end));
    let (n, shift) = (case.n, case.shift);
    let (base_a, base_b) = (a.vrange().0, b.vrange().0);
    let model = LoopModel::parallel("loop", n, case.schedule, move |i, emit| {
        emit(
            base_b + 8 * ((i + shift) % n * EPL) as u64,
            AccessKind::Read,
        );
        emit(base_a + 8 * (i * EPL) as u64, AccessKind::Write);
    });
    let mut rt = Runtime::with_threads(m, case.threads);
    if fast {
        let table = table.get_or_insert_with(|| {
            let proof = derive_loop_proof("f/loop", &model, case.threads);
            ccnuma::ProofTable::fold([("f/loop".to_string(), proof)])
        });
        rt.install_fastpath(table, library);
    }
    rt.phase("f");
    let pages: Vec<u64> = pa.clone().chain(pb.clone()).collect();
    let before_serial = rt.machine().stats().page_faults;
    rt.serial(|par| {
        for &k in &case.prefault {
            let vpage = pages[k % pages.len()];
            let arr = if pa.contains(&vpage) { &a } else { &b };
            par.get(arr, ((vpage << PAGE_SHIFT) - arr.vrange().0) as usize / 8);
        }
    });
    let serial_faults = rt.machine().stats().page_faults - before_serial;
    for rep in 0..case.reps {
        rt.name_region("loop");
        rt.parallel_for(n, case.schedule, |par, i| {
            let x = par.get(&b, (i + shift) % n * EPL);
            par.set(&a, i * EPL, x + (i + rep) as f64);
        });
    }
    let m = rt.machine();
    let table: Vec<_> = m.mapped_pages().collect();
    let values: Vec<u64> = (0..a.len()).map(|i| a.peek(i).to_bits()).collect();
    let stats = rt.fastpath_stats().unwrap_or_default();
    let region_faults = m.stats().page_faults - before_serial - serial_faults;
    let print = (fingerprint(m), format!("{table:?} {values:?}"));
    (print, stats, region_faults)
}

/// A run of [`Faulting`]'s region on a policy given by index and seed.
type Policy = (usize, u64);

/// [`Faulting`] with the region's fields and the prefaulted pages given,
/// one rep, nothing filled.
fn faulting(n: usize, threads: usize, shift: usize, prefault: Vec<usize>) -> Faulting {
    Faulting {
        n,
        threads,
        schedule: Schedule::Static,
        shift,
        prefault,
        fill: None,
        reps: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// First touches on the fast path: a region whose footprint is partly
    /// unmapped is recorded with its faults by the first run of a key and
    /// replayed by a second run on another placement policy, its pages
    /// faulted in at entry in the order the exact run takes them. Both runs
    /// finish bit-identical to their exact twins — results, page table,
    /// counters, statistics — on every policy, an exhausted node's spills
    /// included, and the second faults every page in at entry.
    #[test]
    fn faulting_regions_replay_their_first_touches_bit_identically(
        n in 1usize..1100,
        threads in 1usize..9,
        schedule in static_schedules(),
        shift in 0usize..1100,
        prefault in proptest::collection::vec(0usize..20, 0..4),
        fill in (0usize..6, 0usize..4),
        reps in 1usize..4,
        first in (0usize..5, any::<u64>()),
        second in (0usize..5, any::<u64>()),
    ) {
        let fill = (fill.0 < 4).then_some(fill);
        let case = Faulting { n, threads, schedule, shift: shift % n, prefault, fill, reps };
        let (library, mut table) = (MemoLibrary::default(), None);
        for (run, which) in [first, second].into_iter().enumerate() {
            let (exact, _, faults) = faulting_run(&case, which, &mut None, &library, false);
            let (fast, stats, _) = faulting_run(&case, which, &mut table, &library, true);
            prop_assert_eq!(exact, fast);
            let want = [0, faults][run];
            prop_assert_eq!((stats.rejects, stats.fault_pages), (0, want));
        }
    }
}

/// The negative side: an image replays only where its threads' fault lists
/// are the unmapped pages. Where the second run finds one page more mapped
/// (a serial region faulted it in) or one page more unmapped (the first run
/// had faulted it in) than the first, the region is recorded again, and
/// stays exact.
#[test]
fn a_fault_list_that_is_not_the_unmapped_pages_records_again() {
    // 600 lines of `a` and of `b`: five pages each, pages 0-4 and 5-9.
    for (first, second) in [(vec![], vec![6]), (vec![2], vec![])] {
        let (library, mut table) = (MemoLibrary::default(), None);
        let on: Policy = (1, 0);
        let mut stats = Vec::new();
        for prefault in [first.clone(), second] {
            let case = faulting(600, 4, 130, prefault);
            let (exact, _, _) = faulting_run(&case, on, &mut None, &library, false);
            let (fast, s, _) = faulting_run(&case, on, &mut table, &library, true);
            assert_eq!(exact, fast, "{first:?}");
            let faulted = (s.fault_records, s.cpu_misses_faults);
            stats.push((s.records, faulted, s.replays, s.fault_pages, s.rejects));
        }
        let recorded = (1, (1, 4), 0, 0, 0);
        assert_eq!(stats, [recorded, recorded], "{first:?}");
        // The same unmapped pages as the first run: its images replay.
        let case = faulting(600, 4, 130, first.clone());
        let (exact, _, faults) = faulting_run(&case, on, &mut None, &library, false);
        let (fast, s, _) = faulting_run(&case, on, &mut table, &library, true);
        assert_eq!(exact, fast, "{first:?}");
        assert_eq!((s.records, s.replays, s.fault_pages), (0, 1, faults));
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
    // Recorded with its faults (the first touch), recorded (one pass leaves
    // the stream's steady state), a hit; then there (retimed), back and
    // once more (hits), elsewhere (retimed), once more (a hit).
    let shape = (
        stats.rejects,
        stats.records,
        stats.cpu_retimes,
        stats.cpu_replays,
    );
    assert_eq!(shape, (0, 2, 2, 4), "{stats:?}");
}

/// The access model of `bench` at tiny scale, team of 16.
fn tiny_model(bench: nas::BenchName) -> (nas::KernelModel, usize) {
    let mut rt = Runtime::with_threads(Machine::new(MachineConfig::origin2000_16p_scaled()), 16);
    let model = nas::instantiate(bench, &mut rt, Scale::Tiny).access_model();
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
