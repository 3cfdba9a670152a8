//! Static access models of the benchmark kernels.
//!
//! A [`KernelModel`] describes — without running the machine simulation —
//! exactly which simulated virtual addresses every loop iteration of a
//! benchmark touches, how each loop's iterations are scheduled, and in what
//! program order the loops execute. It is the contract between the
//! benchmark implementations and the `lint` crate's static NUMA/race
//! analyzer: the analyzer replays the model's access streams symbolically
//! (first-touch placement, per-page reference counts, per-line writer sets)
//! instead of simulating caches, coherence and timing.
//!
//! The model is not written; it is *read off the kernel*. Each benchmark
//! states its cold start and its time step once, generic over an [`Exec`]
//! (the worksharing constructs) whose loop bodies are generic over a
//! [`Mem`] (the element accesses). Run on `omp::Runtime`/`omp::Par` that
//! text is the simulated benchmark; run on [`Describe`]/[`Probe`] the same
//! text records one [`LoopModel`] per construct, whose access stream is the
//! body itself with every load and store turned into an emitted
//! `(vaddr, kind)`. Text a kernel repeats — its time step, which the cold
//! start runs too, a repeated phase, an inner trip — is stated once as an
//! [`Exec::block`], so its constructs are described once and every later
//! instance is the same object. The model is exact because no body's
//! control flow depends on a simulated floating-point value — only on the
//! iteration index, on geometry, and on CG's column-index array, which a
//! probed load reads from the array's host data.

use crate::common::{BenchName, NasBenchmark, PhaseHook, PhasePoint};
use ccnuma::{AccessKind, ArrayLayout, SimArray};
use omp::{Par, Runtime, Schedule};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// How a modeled loop's iterations are assigned to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// A `parallel_for`: iterations split among threads by the schedule.
    Parallel,
    /// A `parallel_reduce`: iterations split by the team-size-invariant
    /// `REDUCTION_BLOCKS` partition (see `omp::reduction_chunks`).
    Reduction,
    /// A `serial` region: all iterations execute on thread 0.
    Serial,
}

/// Closure enumerating one iteration's element accesses: called with the
/// iteration index and an emitter receiving `(vaddr, kind)` per access.
pub type AccessFn = Box<dyn Fn(usize, &mut dyn FnMut(u64, AccessKind))>;

/// One worksharing construct of a benchmark: an iteration space, a
/// schedule, and the per-iteration element accesses.
pub struct LoopModel {
    name: String,
    n: usize,
    schedule: Schedule,
    kind: LoopKind,
    accesses: AccessFn,
}

impl LoopModel {
    /// Model of a `parallel_for` over `0..n`.
    pub fn parallel(
        name: &str,
        n: usize,
        schedule: Schedule,
        accesses: impl Fn(usize, &mut dyn FnMut(u64, AccessKind)) + 'static,
    ) -> Self {
        Self::new(name, n, schedule, LoopKind::Parallel, accesses)
    }

    /// Model of a `parallel_reduce` over `0..n`.
    pub fn reduction(
        name: &str,
        n: usize,
        schedule: Schedule,
        accesses: impl Fn(usize, &mut dyn FnMut(u64, AccessKind)) + 'static,
    ) -> Self {
        Self::new(name, n, schedule, LoopKind::Reduction, accesses)
    }

    /// Model of a `serial` region (one iteration, executed by thread 0).
    pub fn serial(
        name: &str,
        accesses: impl Fn(usize, &mut dyn FnMut(u64, AccessKind)) + 'static,
    ) -> Self {
        Self::new(name, 1, Schedule::Static, LoopKind::Serial, accesses)
    }

    fn new(
        name: &str,
        n: usize,
        schedule: Schedule,
        kind: LoopKind,
        accesses: impl Fn(usize, &mut dyn FnMut(u64, AccessKind)) + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            n,
            schedule,
            kind,
            accesses: Box::new(accesses),
        }
    }

    /// The loop's name (stable across runs; used in lint finding keys).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iteration-space size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The loop's schedule clause.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// How iterations map to threads.
    pub fn kind(&self) -> LoopKind {
        self.kind
    }

    /// Enumerate iteration `iter`'s element accesses.
    pub fn for_each_access(&self, iter: usize, emit: &mut dyn FnMut(u64, AccessKind)) {
        debug_assert!(iter < self.n);
        (self.accesses)(iter, emit);
    }

    /// The iteration ranges owned by each thread (indexed by tid), exactly
    /// mirroring the runtime's static assignment — `static_chunks` for
    /// `parallel_for`, the `REDUCTION_BLOCKS` block partition for
    /// `parallel_reduce`, everything on thread 0 for serial regions.
    pub fn ownership(&self, threads: usize) -> Vec<Vec<(usize, usize)>> {
        match self.kind {
            LoopKind::Parallel => self.schedule.static_chunks(self.n, threads),
            LoopKind::Reduction => omp::reduction_chunks(self.schedule, self.n, threads),
            LoopKind::Serial => {
                let mut owns = vec![Vec::new(); threads];
                owns[0].push((0, self.n));
                owns
            }
        }
    }

    /// Visit every access of the loop as a team of `team` threads performs
    /// it in the sequential simulator: threads in tid order, each thread's
    /// [`ownership`](Self::ownership) chunks in order, each iteration's
    /// accesses in program order. `visit` receives `(tid, vaddr, kind)`.
    pub fn walk(&self, team: usize, mut visit: impl FnMut(usize, u64, AccessKind)) {
        for (tid, chunks) in self.ownership(team).iter().enumerate() {
            for &(start, end) in chunks {
                for i in start..end {
                    self.for_each_access(i, &mut |vaddr, kind| visit(tid, vaddr, kind));
                }
            }
        }
    }
}

impl std::fmt::Debug for LoopModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopModel")
            .field("name", &self.name)
            .field("n", &self.n)
            .field("schedule", &self.schedule)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

/// A named program phase: a sequence of loops executed back to back. For
/// BT/SP the phases are the paper's Figure 2/3 phases (`compute_rhs`, the
/// three sweeps, `add`); other benchmarks phase at operator granularity.
///
/// A loop is held by `Rc`: every instance of a construct a [`Exec::block`]
/// repeats is the one object its first entry described, so whoever walks
/// the instances can tell by `Rc::ptr_eq` which of them it has walked.
#[derive(Debug)]
pub struct PhaseModel {
    name: String,
    loops: Vec<Rc<LoopModel>>,
}

impl PhaseModel {
    /// A phase from its loops, in program order.
    pub fn new(name: &str, loops: impl IntoIterator<Item = impl Into<Rc<LoopModel>>>) -> Self {
        Self {
            name: name.to_string(),
            loops: loops.into_iter().map(Into::into).collect(),
        }
    }

    /// Phase name (stable; used in lint finding keys).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phase's loops in program order, one per region instance.
    pub fn loops(&self) -> &[Rc<LoopModel>] {
        &self.loops
    }
}

/// The full static model of one benchmark instance: its shared arrays and
/// the phase sequences of the cold-start iteration and of one timed
/// iteration.
#[derive(Debug)]
pub struct KernelModel {
    bench: BenchName,
    arrays: Vec<ArrayLayout>,
    cold: Vec<PhaseModel>,
    iteration: Vec<PhaseModel>,
}

impl KernelModel {
    /// Assemble a model.
    pub fn new(
        bench: BenchName,
        arrays: Vec<ArrayLayout>,
        cold: Vec<PhaseModel>,
        iteration: Vec<PhaseModel>,
    ) -> Self {
        Self {
            bench,
            arrays,
            cold,
            iteration,
        }
    }

    /// Which benchmark this models.
    pub fn bench(&self) -> BenchName {
        self.bench
    }

    /// Layouts of the shared simulated arrays (the `register_hot` set).
    pub fn arrays(&self) -> &[ArrayLayout] {
        &self.arrays
    }

    /// Phases of the discarded cold-start iteration, in program order
    /// (first-touch placement happens here).
    pub fn cold(&self) -> &[PhaseModel] {
        &self.cold
    }

    /// Phases of one timed iteration, in program order.
    pub fn iteration(&self) -> &[PhaseModel] {
        &self.iteration
    }

    /// Flattened `phase/loop` labels of the cold-start phases, in program
    /// order. Every modeled loop — `parallel_for`, `parallel_reduce` or
    /// `serial` — executes as exactly one machine region, so these labels
    /// name the run's regions in order: the profiler's region-to-phase map.
    pub fn cold_loop_names(&self) -> Vec<String> {
        Self::flatten(&self.cold)
    }

    /// Flattened `phase/loop` labels of one timed iteration, in program
    /// order (see [`KernelModel::cold_loop_names`]).
    pub fn iteration_loop_names(&self) -> Vec<String> {
        Self::flatten(&self.iteration)
    }

    fn flatten(phases: &[PhaseModel]) -> Vec<String> {
        phases
            .iter()
            .flat_map(|p| {
                p.loops()
                    .iter()
                    .map(move |l| format!("{}/{}", p.name(), l.name()))
            })
            .collect()
    }

    /// The array containing `vaddr`, if any (attribution for findings).
    pub fn array_of(&self, vaddr: u64) -> Option<&ArrayLayout> {
        self.arrays.iter().find(|a| {
            let (base, len) = a.vrange();
            vaddr >= base && vaddr < base + len
        })
    }
}

/// Hasher for page numbers: one multiply. The keys are a model's own
/// addresses, never outside input, so there is nothing to defend against.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("page numbers hash through write_u64");
    }

    fn write_u64(&mut self, page: u64) {
        self.0 = page.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Page number → dense slot, numbered in first-touch order: what a fold
/// over a model's access stream indexes its per-page rows by, so an access
/// costs one hash probe and an indexed update. The proof derivation
/// (`nas::proof`) and the lint footprint (`lint::Footprint`) both fold
/// through it. It hashes rather than indexing a `Vec` by page number: the
/// kernels' pages are dense from the machine's first virtual range, but a
/// hand-built [`LoopModel`] may name any 64-bit page.
#[derive(Default)]
pub struct PageSlots {
    slot_of: HashMap<u64, usize, BuildHasherDefault<PageHasher>>,
}

impl PageSlots {
    /// `page`'s slot. A page not seen before gets the next free slot — the
    /// number of pages seen before the call — so a caller keeping one row
    /// per slot grows its rows exactly when the result equals their count.
    #[inline]
    pub fn slot(&mut self, page: u64) -> usize {
        let next = self.slot_of.len();
        *self.slot_of.entry(page).or_insert(next)
    }

    /// Every `(page, slot)`, in ascending page order.
    pub fn sorted(&self) -> Vec<(u64, usize)> {
        let mut by_page: Vec<(u64, usize)> = self.slot_of.iter().map(|(&p, &s)| (p, s)).collect();
        by_page.sort_unstable();
        by_page
    }
}

/// A simulated array shared between a kernel and its loop bodies. Bodies
/// outlive the call that states them when they are described (a
/// [`LoopModel`] owns its access closure), so they hold the arrays they
/// touch by `Rc`, not by borrow.
pub type Arr<T = f64> = Rc<SimArray<T>>;

/// What a loop body does to memory: the element accesses and flop charges
/// of one thread's share of a worksharing construct.
pub trait Mem {
    /// Load `array[i]`.
    fn get<T: Copy>(&mut self, array: &SimArray<T>, i: usize) -> T;
    /// Store `array[i] = value`.
    fn set<T: Copy>(&mut self, array: &SimArray<T>, i: usize, value: T);
    /// Read-modify-write of `array[i]` (one load, one store).
    fn update<T: Copy>(&mut self, array: &SimArray<T>, i: usize, f: impl FnOnce(T) -> T);
    /// Charge `flops` floating-point operations.
    fn flops(&mut self, flops: u64);
    /// Host arithmetic between a body's loads and its stores (a line solve,
    /// a pencil FFT). It decides no address, so a description skips it.
    fn host(&mut self, f: impl FnOnce());
}

impl Mem for Par<'_> {
    #[inline(always)]
    fn get<T: Copy>(&mut self, array: &SimArray<T>, i: usize) -> T {
        Par::get(self, array, i)
    }

    #[inline(always)]
    fn set<T: Copy>(&mut self, array: &SimArray<T>, i: usize, value: T) {
        Par::set(self, array, i, value)
    }

    #[inline(always)]
    fn update<T: Copy>(&mut self, array: &SimArray<T>, i: usize, f: impl FnOnce(T) -> T) {
        Par::update(self, array, i, f)
    }

    #[inline(always)]
    fn flops(&mut self, flops: u64) {
        Par::flops(self, flops)
    }

    #[inline(always)]
    fn host(&mut self, f: impl FnOnce()) {
        f()
    }
}

/// The describing [`Mem`]: every access becomes an emitted `(vaddr, kind)`.
/// A load returns the array's current host value (index arrays resolve),
/// stores are dropped, flops and host arithmetic are skipped — probing a
/// body changes nothing.
pub struct Probe<'e> {
    emit: &'e mut dyn FnMut(u64, AccessKind),
}

impl Mem for Probe<'_> {
    #[inline]
    fn get<T: Copy>(&mut self, array: &SimArray<T>, i: usize) -> T {
        (self.emit)(array.vaddr_of(i), AccessKind::Read);
        array.peek(i)
    }

    #[inline]
    fn set<T: Copy>(&mut self, array: &SimArray<T>, i: usize, _value: T) {
        (self.emit)(array.vaddr_of(i), AccessKind::Write);
    }

    #[inline]
    fn update<T: Copy>(&mut self, array: &SimArray<T>, i: usize, _f: impl FnOnce(T) -> T) {
        let vaddr = array.vaddr_of(i);
        (self.emit)(vaddr, AccessKind::Read);
        (self.emit)(vaddr, AccessKind::Write);
    }

    #[inline]
    fn flops(&mut self, _flops: u64) {}

    #[inline]
    fn host(&mut self, _f: impl FnOnce()) {}
}

/// What a kernel does between loop bodies: its program order. Every
/// `for_each`, `sum` and `serial` is exactly one machine region; `phase`
/// names the group the following constructs belong to. Construct and phase
/// names are stable identifiers (lint finding keys, `lint.allow` entries,
/// `prof` rows), and the runtime reads them too: a region finds its
/// fast-path proof under `"phase/construct"`, so constructs that share a
/// name and touch different lines all run exactly.
pub trait Exec {
    /// The [`Mem`] this executor hands to loop bodies.
    type Mem<'a>: Mem;

    /// Open the named phase.
    fn phase(&mut self, name: &str);

    /// `PARALLEL DO`: `body(m, i)` for every `i in 0..n`.
    fn for_each(
        &mut self,
        name: &str,
        n: usize,
        schedule: Schedule,
        body: impl for<'a> Fn(&mut Self::Mem<'a>, usize) + 'static,
    );

    /// `PARALLEL DO` with a `REDUCTION(+)` clause: the sum of `body(m, i)`
    /// over `0..n`. A description returns `0.0`.
    fn sum(
        &mut self,
        name: &str,
        n: usize,
        schedule: Schedule,
        body: impl for<'a> Fn(&mut Self::Mem<'a>, usize) -> f64 + 'static,
    ) -> f64;

    /// Sequential program text on the master thread. A description returns
    /// `R::default()`.
    fn serial<R: Default>(
        &mut self,
        name: &str,
        body: impl for<'a> Fn(&mut Self::Mem<'a>) -> R + 'static,
    ) -> R;

    /// Host-side state change between constructs (refills, resets). It
    /// touches no simulated page, so a description skips it.
    fn host(&mut self, f: impl FnOnce());

    /// A phase-transition point (BT/SP's z-sweep brackets): the run invokes
    /// `hook`, a description does not.
    fn point(&mut self, hook: &mut PhaseHook<'_>, at: PhasePoint);

    /// Text whose phases and constructs are the same on every entry (a time
    /// step, a repeated phase, one trip of an inner iteration): `body`,
    /// stated under `key`. The run runs `body`. A description describes
    /// `body` on the first entry under `key` and, on every later one,
    /// issues the same phase openings and the same [`LoopModel`] objects
    /// again without running it — so the constructs are described, and
    /// proved, once. Keys are scoped to one [`Describe::kernel`]: its cold
    /// start and its time step share them. What `body` does besides issuing
    /// phases and constructs (host steps, points, its result) a description
    /// skips anyway: it returns `R::default()`.
    ///
    /// The contract is the caller's: a key names one text, and no access
    /// of its constructs depends on anything that differs between entries
    /// but values (a trip's `alpha`, an iteration's time `t`).
    fn block<R: Default>(&mut self, key: &'static str, body: impl FnOnce(&mut Self) -> R) -> R;
}

impl Exec for Runtime {
    type Mem<'a> = Par<'a>;

    fn phase(&mut self, name: &str) {
        Runtime::phase(self, name)
    }

    fn for_each(
        &mut self,
        name: &str,
        n: usize,
        schedule: Schedule,
        body: impl for<'a> Fn(&mut Par<'a>, usize) + 'static,
    ) {
        self.name_region(name);
        self.parallel_for(n, schedule, body);
    }

    fn sum(
        &mut self,
        name: &str,
        n: usize,
        schedule: Schedule,
        body: impl for<'a> Fn(&mut Par<'a>, usize) -> f64 + 'static,
    ) -> f64 {
        self.name_region(name);
        let fold = |par: &mut Par<'_>, i: usize, acc: f64| acc + body(par, i);
        self.parallel_reduce(n, schedule, 0.0, fold, |a, b| a + b)
    }

    fn serial<R: Default>(
        &mut self,
        name: &str,
        body: impl for<'a> Fn(&mut Par<'a>) -> R + 'static,
    ) -> R {
        self.name_region(name);
        Runtime::serial(self, body)
    }

    fn host(&mut self, f: impl FnOnce()) {
        f()
    }

    fn point(&mut self, hook: &mut PhaseHook<'_>, at: PhasePoint) {
        hook(self, at)
    }

    // Always inlined: a block is nothing to the run, and a call boundary
    // here changes how the regions inside it are compiled (BT's replayed
    // step measured 15 % slower behind one).
    #[inline(always)]
    fn block<R: Default>(&mut self, _key: &'static str, body: impl FnOnce(&mut Self) -> R) -> R {
        body(self)
    }
}

/// What a text issues, in program order: a phase opening or a construct.
#[derive(Clone)]
enum Issued {
    Phase(String),
    Construct(Rc<LoopModel>),
}

/// The describing [`Exec`]: records each construct as a [`LoopModel`] in
/// the current phase instead of running it, and each [`Exec::block`] once.
#[derive(Default)]
pub struct Describe {
    issued: Vec<Issued>,
    /// What each block's first entry issued, by key.
    blocks: HashMap<&'static str, Vec<Issued>>,
}

impl Describe {
    /// The model of `bench`, whose cold start and time step are the texts
    /// `cold` and `step` (whatever `step` computes from the reductions'
    /// `0.0`s is discarded). The two texts share their blocks.
    pub fn kernel<R>(
        bench: &impl NasBenchmark,
        cold: impl FnOnce(&mut Describe),
        step: impl FnOnce(&mut Describe) -> R,
    ) -> KernelModel {
        let mut d = Describe::default();
        cold(&mut d);
        let cold = d.take_phases();
        step(&mut d);
        KernelModel::new(bench.name(), bench.hot_arrays(), cold, d.take_phases())
    }

    /// The phases issued since the last call, in program order.
    fn take_phases(&mut self) -> Vec<PhaseModel> {
        let mut phases: Vec<PhaseModel> = Vec::new();
        for issued in self.issued.drain(..) {
            match issued {
                Issued::Phase(name) => phases.push(PhaseModel {
                    name,
                    loops: Vec::new(),
                }),
                Issued::Construct(l) => {
                    let phase = phases.last_mut().expect("a construct outside any phase");
                    phase.loops.push(l);
                }
            }
        }
        phases
    }

    fn record(&mut self, l: LoopModel) {
        self.issued.push(Issued::Construct(Rc::new(l)));
    }
}

/// Whether a block's later entries re-issue its first entry's constructs.
#[cfg(not(test))]
fn sharing() -> bool {
    true
}

#[cfg(test)]
thread_local! {
    static REDESCRIBE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether a block's later entries re-issue its first entry's constructs:
/// not inside [`redescribed`].
#[cfg(test)]
fn sharing() -> bool {
    !REDESCRIBE.get()
}

/// `f` with every block entry of every description on this thread
/// described afresh, as if no text were a block: the oracle a shared
/// description is checked against.
#[cfg(test)]
pub(crate) fn redescribed<T>(f: impl FnOnce() -> T) -> T {
    REDESCRIBE.set(true);
    let out = f();
    REDESCRIBE.set(false);
    out
}

impl Exec for Describe {
    type Mem<'a> = Probe<'a>;

    fn phase(&mut self, name: &str) {
        self.issued.push(Issued::Phase(name.to_string()));
    }

    fn for_each(
        &mut self,
        name: &str,
        n: usize,
        schedule: Schedule,
        body: impl for<'a> Fn(&mut Probe<'a>, usize) + 'static,
    ) {
        self.record(LoopModel::parallel(name, n, schedule, move |i, emit| {
            body(&mut Probe { emit }, i)
        }));
    }

    fn sum(
        &mut self,
        name: &str,
        n: usize,
        schedule: Schedule,
        body: impl for<'a> Fn(&mut Probe<'a>, usize) -> f64 + 'static,
    ) -> f64 {
        self.record(LoopModel::reduction(name, n, schedule, move |i, emit| {
            body(&mut Probe { emit }, i);
        }));
        0.0
    }

    fn serial<R: Default>(
        &mut self,
        name: &str,
        body: impl for<'a> Fn(&mut Probe<'a>) -> R + 'static,
    ) -> R {
        self.record(LoopModel::serial(name, move |_, emit| {
            body(&mut Probe { emit });
        }));
        R::default()
    }

    fn host(&mut self, _f: impl FnOnce()) {}

    fn point(&mut self, _hook: &mut PhaseHook<'_>, _at: PhasePoint) {}

    fn block<R: Default>(&mut self, key: &'static str, body: impl FnOnce(&mut Self) -> R) -> R {
        match self.blocks.get(key) {
            Some(first) if sharing() => self.issued.extend_from_slice(first),
            _ => {
                let start = self.issued.len();
                body(self);
                (self.blocks.entry(key)).or_insert_with(|| self.issued[start..].to_vec());
            }
        }
        R::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch_loop(kind: LoopKind, n: usize) -> LoopModel {
        let f = |i: usize, emit: &mut dyn FnMut(u64, AccessKind)| {
            emit(i as u64 * 8, AccessKind::Write);
        };
        match kind {
            LoopKind::Parallel => LoopModel::parallel("l", n, Schedule::Static, f),
            LoopKind::Reduction => LoopModel::reduction("l", n, Schedule::Static, f),
            LoopKind::Serial => LoopModel::serial("l", f),
        }
    }

    #[test]
    fn ownership_partitions_iteration_space() {
        for kind in [LoopKind::Parallel, LoopKind::Reduction] {
            let l = touch_loop(kind, 100);
            let owns = l.ownership(16);
            assert_eq!(owns.len(), 16);
            let mut seen = [false; 100];
            for chunks in &owns {
                for &(s, e) in chunks {
                    for i in s..e {
                        assert!(!seen[i], "iteration {i} owned twice ({kind:?})");
                        seen[i] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "not all iterations owned");
        }
    }

    #[test]
    fn serial_ownership_is_thread_zero() {
        let l = touch_loop(LoopKind::Serial, 1);
        let owns = l.ownership(8);
        assert_eq!(owns[0], vec![(0, 1)]);
        assert!(owns[1..].iter().all(|c| c.is_empty()));
    }

    #[test]
    fn access_enumeration_reaches_emitter() {
        let l = touch_loop(LoopKind::Parallel, 4);
        let mut got = Vec::new();
        l.for_each_access(2, &mut |va, kind| got.push((va, kind)));
        assert_eq!(got, vec![(16, AccessKind::Write)]);
    }

    #[test]
    fn loop_names_flatten_in_program_order() {
        let phase = |name: &str| {
            PhaseModel::new(
                name,
                vec![
                    touch_loop(LoopKind::Parallel, 4),
                    touch_loop(LoopKind::Serial, 1),
                ],
            )
        };
        let km = KernelModel::new(
            BenchName::Cg,
            vec![],
            vec![phase("init")],
            vec![phase("cg"), phase("tail")],
        );
        assert_eq!(km.cold_loop_names(), vec!["init/l", "init/l"]);
        assert_eq!(
            km.iteration_loop_names(),
            vec!["cg/l", "cg/l", "tail/l", "tail/l"]
        );
    }

    #[test]
    fn one_text_runs_and_describes() {
        use ccnuma::{Machine, MachineConfig};
        // b[i] = 2 * a[idx[i]], then sum(b): an indexed gather, a host
        // step between load and store, a reduction.
        fn text<E: Exec>(ex: &mut E, idx: &Arr<u32>, a: &Arr, b: &Arr) -> f64 {
            ex.phase("scale");
            let (idx, a2, b2) = (idx.clone(), a.clone(), b.clone());
            ex.for_each("gather", 4, Schedule::Static, move |m, i| {
                let j = m.get(&idx, i) as usize;
                let mut v = m.get(&a2, j);
                m.host(|| v *= 2.0);
                m.set(&b2, i, v);
            });
            ex.host(|| a.poke(0, -1.0));
            let b = b.clone();
            ex.sum("total", 4, Schedule::Static, move |m, i| m.get(&b, i))
        }
        let mut rt = Runtime::new(Machine::new(MachineConfig::tiny_test()));
        let m = rt.machine_mut();
        let idx = Rc::new(SimArray::from_fn(m, "idx", 4, |i| 3 - i as u32));
        let a = Rc::new(SimArray::from_fn(m, "a", 4, |i| i as f64));
        let b = Rc::new(SimArray::new(m, "b", 4, 0.0));

        let mut d = Describe::default();
        assert_eq!(text(&mut d, &idx, &a, &b), 0.0);
        let phases = d.take_phases();
        assert_eq!(a.to_vec(), [0.0, 1.0, 2.0, 3.0], "host step skipped");
        assert_eq!(b.to_vec(), [0.0; 4], "stores dropped");
        assert_eq!(phases.len(), 1);
        let loops = phases[0].loops();
        let shape: Vec<_> = loops.iter().map(|l| (l.name(), l.kind(), l.n())).collect();
        assert_eq!(
            shape,
            [
                ("gather", LoopKind::Parallel, 4),
                ("total", LoopKind::Reduction, 4)
            ]
        );
        let mut got = Vec::new();
        loops[0].for_each_access(1, &mut |va, kind| got.push((va, kind)));
        // idx[1] = 2 resolves through the probe: the gather reads a[2].
        let want = [
            (idx.vaddr_of(1), AccessKind::Read),
            (a.vaddr_of(2), AccessKind::Read),
            (b.vaddr_of(1), AccessKind::Write),
        ];
        assert_eq!(got, want);

        assert_eq!(text(&mut rt, &idx, &a, &b), 12.0);
        assert_eq!(b.to_vec(), [6.0, 4.0, 2.0, 0.0]);
        assert_eq!(a.peek(0), -1.0);
    }

    /// What [`Describe::kernel`] needs of a benchmark, and nothing to run.
    struct Toy;

    impl NasBenchmark for Toy {
        fn name(&self) -> BenchName {
            BenchName::Cg
        }
        fn problem(&self) -> String {
            "toy".to_string()
        }
        fn iterations(&self) -> usize {
            0
        }
        fn cold_start(&mut self, _: &mut Runtime) {}
        fn iterate(&mut self, _: &mut Runtime, _: &mut PhaseHook<'_>) {}
        fn hot_arrays(&self) -> Vec<ArrayLayout> {
            Vec::new()
        }
        fn verify(&self) -> crate::common::Verification {
            crate::common::Verification::check(0.0, 0.0, 0.0)
        }
        fn access_model(&self) -> KernelModel {
            Describe::kernel(self, |_| {}, |_| {})
        }
        fn boxed_clone(&self) -> Box<dyn NasBenchmark> {
            Box::new(Toy)
        }
    }

    /// Three entries of block `k` — two phases, a loop of `n` iterations
    /// and a reduction — whose body counts its runs in `ran`.
    fn thrice<E: Exec>(ex: &mut E, n: usize, ran: &std::cell::Cell<usize>) -> Vec<u32> {
        let entry = |ex: &mut E| {
            ex.block("k", |ex| {
                ran.set(ran.get() + 1);
                ex.phase("p");
                ex.for_each("l", n, Schedule::Static, |_, _| {});
                ex.phase("q");
                ex.sum("s", n, Schedule::Static, |_, _| 1.0);
                7
            })
        };
        (0..3).map(|_| entry(ex)).collect()
    }

    fn all_loops(km: &KernelModel) -> Vec<Rc<LoopModel>> {
        let phases = km.cold().iter().chain(km.iteration());
        phases.flat_map(|p| p.loops().iter().cloned()).collect()
    }

    #[test]
    fn a_reentered_block_reissues_its_first_entry() {
        let ran = std::cell::Cell::new(0);
        let text = |d: &mut Describe| {
            assert_eq!(
                thrice(d, 4, &ran),
                [0; 3],
                "a description returns R::default()"
            );
        };
        let km = Describe::kernel(&Toy, text, text);
        assert_eq!(ran.get(), 1, "described once, cold start and step alike");
        let entry = ["p/l", "q/s"];
        assert_eq!(km.cold_loop_names(), entry.repeat(3), "phases re-issued");
        assert_eq!(km.iteration_loop_names(), entry.repeat(3));
        let loops = all_loops(&km);
        for (i, l) in loops.iter().enumerate() {
            assert!(
                Rc::ptr_eq(l, &loops[i % 2]),
                "instance {i} is its construct"
            );
        }
        assert!(!Rc::ptr_eq(&loops[0], &loops[1]));

        let mut rt = Runtime::new(ccnuma::Machine::new(ccnuma::MachineConfig::tiny_test()));
        assert_eq!(thrice(&mut rt, 4, &ran), [7; 3], "the run runs every entry");
        assert_eq!(ran.get(), 4);
    }

    #[test]
    fn block_keys_belong_to_one_kernel() {
        let ran = std::cell::Cell::new(0);
        let of = |n| Describe::kernel(&Toy, |d| drop(thrice(d, n, &ran)), |_| {});
        let (two, five) = (of(2), of(5));
        assert_eq!(ran.get(), 2, "each kernel describes its own block");
        assert!(all_loops(&two).iter().all(|l| l.n() == 2));
        assert!(all_loops(&five).iter().all(|l| l.n() == 5));
    }

    #[test]
    fn a_redescription_describes_every_entry() {
        let ran = std::cell::Cell::new(0);
        let text = |d: &mut Describe| drop(thrice(d, 4, &ran));
        let km = redescribed(|| Describe::kernel(&Toy, text, text));
        assert_eq!(ran.get(), 6);
        let loops = all_loops(&km);
        assert_eq!(loops.len(), 12);
        assert!(!Rc::ptr_eq(&loops[0], &loops[2]));
        let shared = Describe::kernel(&Toy, text, text);
        assert_eq!(shared.cold_loop_names(), km.cold_loop_names());
        assert_eq!(shared.iteration_loop_names(), km.iteration_loop_names());
    }

    #[test]
    fn array_attribution() {
        use ccnuma::{Machine, MachineConfig, SimArray};
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", 32, 0.0f64);
        let b = SimArray::new(&mut m, "b", 32, 0.0f64);
        let km = KernelModel::new(BenchName::Bt, vec![a.layout(), b.layout()], vec![], vec![]);
        assert_eq!(km.array_of(a.vaddr_of(3)).unwrap().name(), "a");
        assert_eq!(km.array_of(b.vaddr_of(0)).unwrap().name(), "b");
        assert!(km.array_of(b.vrange().0 + b.vrange().1).is_none());
    }
}
