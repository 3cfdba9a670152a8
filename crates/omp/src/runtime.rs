//! The fork/join runtime: parallel regions, worksharing, reductions.

use crate::schedule::Schedule;
use ccnuma::fastpath::{FastpathEngine, FastpathOutcome, FastpathStats, MemoLibrary, ProofTable};
use ccnuma::{AccessKind, CpuId, Machine, SimArray};
use vmm::KernelMigrationEngine;

/// Per-thread execution context handed to worksharing bodies.
///
/// `Par` is the simulated analogue of "the code running on one OpenMP
/// thread": it knows its thread id, its team size, and the CPU it is pinned
/// to, and it routes array accesses and flop accounting to the machine.
///
/// What the thread does with an access is decided once, when its turn
/// starts. A thread whose region effects the phase fast path has already
/// applied in bulk, time included, runs its body for the data side only,
/// and holds no machine its accesses could reach: it only counts them, for
/// the engine to hold to the walk it applied. On a timing-only runtime
/// ([`Runtime::set_timing_only`]) the data-only turn is not taken at all.
pub struct Par<'m> {
    /// What this thread's accesses reach. Private, so [`Par::turn`] is the
    /// only way to build one.
    lane: Lane<'m>,
    /// CPU executing this thread (identity binding unless the scheduler
    /// has rebound the team via `Runtime::rebind_threads`).
    pub cpu: CpuId,
    /// Thread id within the team.
    pub tid: usize,
    /// Team size.
    pub team: usize,
}

/// The lane of a turn: the machine, borrowed for the turn, or on the
/// data-only lane the region's count of this CPU's accesses.
enum Lane<'m> {
    Machine(&'m mut Machine),
    DataOnly(&'m mut u64),
}

impl<'m> Par<'m> {
    /// Thread `tid`'s turn in the region `team` is running: a replayed
    /// CPU's thread gets no machine — and on a timing-only runtime no turn
    /// (`None`): its body would compute values only.
    fn turn(team: &'m mut Team<'_>, tid: usize) -> Option<Self> {
        let cpu = team.cpus[tid];
        let replayed = team.lanes.replayed.iter().position(|&c| c == cpu);
        if replayed.is_some() && team.timing_only {
            return None;
        }
        let lane = match replayed {
            Some(i) => Lane::DataOnly(&mut team.lanes.walked[i]),
            None => Lane::Machine(&mut *team.machine),
        };
        Some(Self {
            lane,
            cpu,
            tid,
            team: team.cpus.len(),
        })
    }
}

/// A region as its construct sees it between the bracket's halves: the
/// machine, the team's binding, the fast path's lanes for the region, and
/// whether the runtime is timing-only. [`Par::turn`] hands out its turns.
struct Team<'r> {
    machine: &'r mut Machine,
    cpus: &'r [CpuId],
    lanes: &'r mut FastpathOutcome,
    timing_only: bool,
}

impl Par<'_> {
    /// One access of the turn, to `array[i]`: simulated on the machine,
    /// or counted on the data-only lane.
    #[inline(always)]
    fn touch<T: Copy>(&mut self, array: &SimArray<T>, i: usize, kind: AccessKind) {
        match &mut self.lane {
            Lane::Machine(machine) => {
                machine.touch(self.cpu, array.vaddr_of(i), kind);
            }
            Lane::DataOnly(walked) => **walked += 1,
        }
    }

    /// Simulated load of `array[i]`.
    #[inline(always)]
    pub fn get<T: Copy>(&mut self, array: &SimArray<T>, i: usize) -> T {
        self.touch(array, i, AccessKind::Read);
        array.peek(i)
    }

    /// Simulated store of `array[i] = value`.
    #[inline(always)]
    pub fn set<T: Copy>(&mut self, array: &SimArray<T>, i: usize, value: T) {
        self.touch(array, i, AccessKind::Write);
        array.poke(i, value)
    }

    /// Simulated read-modify-write of `array[i]` (one load + one store).
    #[inline(always)]
    pub fn update<T: Copy>(&mut self, array: &SimArray<T>, i: usize, f: impl FnOnce(T) -> T) {
        self.touch(array, i, AccessKind::Read);
        let v = f(array.peek(i));
        self.touch(array, i, AccessKind::Write);
        array.poke(i, v)
    }

    /// Whether this turn is on the data-only lane.
    #[cfg(test)]
    fn data_only(&self) -> bool {
        matches!(self.lane, Lane::DataOnly(_))
    }

    /// Charge `flops` floating-point operations of simulated compute time.
    #[inline(always)]
    pub fn flops(&mut self, flops: u64) {
        if let Lane::Machine(machine) = &mut self.lane {
            machine.compute(self.cpu, flops);
        }
    }
}

/// Number of fixed reduction blocks: [`Runtime::parallel_reduce`] splits
/// the iteration space into this many blocks and combines the block
/// partials in block order regardless of team size (teams larger than
/// this use one block per thread), so reduction results are bit-identical
/// across team sizes and mid-run resizes — like a deterministic-reduction
/// OpenMP runtime.
pub const REDUCTION_BLOCKS: usize = 16;

/// Number of reduction blocks used by a team of `threads` threads: the
/// fixed [`REDUCTION_BLOCKS`], or one block per thread for larger teams.
pub fn reduction_block_count(threads: usize) -> usize {
    REDUCTION_BLOCKS.max(threads)
}

/// The contiguous run of reduction blocks owned by each thread: entry `t`
/// is the half-open block range `[first, end)` that thread `t` executes in
/// [`Runtime::parallel_reduce`]. This is the single source of truth for
/// reduction ownership — the runtime executes it and the static analyzer
/// (the `lint` crate) replays it — so the two can never disagree about
/// which thread runs which iterations.
pub fn reduction_block_ownership(threads: usize) -> Vec<(usize, usize)> {
    assert!(threads > 0);
    let blocks = reduction_block_count(threads);
    (0..threads)
        .map(|t| (t * blocks / threads, (t + 1) * blocks / threads))
        .collect()
}

/// Per-thread `(start, end)` iteration chunks for a reduction over `n`
/// iterations: [`Schedule::static_chunks`] over the fixed block partition,
/// regrouped by owning thread via [`reduction_block_ownership`].
///
/// # Panics
/// Panics on dynamic/guided schedules (reductions are static-only, as in
/// the NAS codes).
pub fn reduction_chunks(schedule: Schedule, n: usize, threads: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(
        !schedule.is_dynamic(),
        "reductions are supported on static schedules (as in the NAS codes)"
    );
    let parts = schedule.static_chunks(n, reduction_block_count(threads));
    reduction_block_ownership(threads)
        .into_iter()
        .map(|(b0, b1)| parts[b0..b1].iter().flatten().copied().collect())
        .collect()
}

/// The OpenMP-like runtime: a machine plus a thread team plus the kernel
/// migration engine hook. A clone continues as this runtime would; its
/// fast-path engine shares this one's memos and library.
#[derive(Clone)]
pub struct Runtime {
    machine: Machine,
    kernel: KernelMigrationEngine,
    threads: usize,
    regions: u64,
    /// CPU executing each thread. Identity by default; the OS scheduler may
    /// remap it (multiprogramming disturbance, the scenario the paper
    /// defers to its companion work on multiprogrammed machines).
    cpu_of_thread: Vec<CpuId>,
    /// A rebinding staged by the scheduler while the program is running,
    /// applied at the next region-boundary yield point (see
    /// [`Runtime::request_rebind`]).
    pending_binding: Option<Vec<CpuId>>,
    /// Rebindings applied at yield points (deferred `request_rebind`s only;
    /// immediate `rebind_threads`/`resize_team` calls are not counted).
    rebinds_applied: u64,
    /// Phase fast path: memoized bulk replay of statically proven regions.
    /// `None` until proofs are installed; the engine owns them, by label.
    fastpath: Option<FastpathEngine>,
    /// The phase the program text is in (see [`Runtime::phase`]).
    phase: String,
    /// `"{phase}/{name}"` of the region about to open, empty when it has no
    /// name (see [`Runtime::name_region`]). Every region bracket clears it.
    label: String,
    /// Skip the turns whose effects the fast path applied in bulk (see
    /// [`Runtime::set_timing_only`]).
    timing_only: bool,
}

impl Runtime {
    /// A runtime using all CPUs of the machine, kernel migration off
    /// (the IRIX default).
    pub fn new(machine: Machine) -> Self {
        let threads = machine.cpus();
        Self::with_threads(machine, threads)
    }

    /// A runtime with an explicit team size (`OMP_NUM_THREADS`).
    pub fn with_threads(machine: Machine, threads: usize) -> Self {
        assert!(
            threads >= 1 && threads <= machine.cpus(),
            "team size {threads} out of range"
        );
        Self {
            machine,
            kernel: KernelMigrationEngine::disabled(),
            threads,
            regions: 0,
            cpu_of_thread: (0..threads).collect(),
            pending_binding: None,
            rebinds_applied: 0,
            fastpath: None,
            phase: String::new(),
            label: String::new(),
            timing_only: false,
        }
    }

    /// Install the proofs of a program text for the phase fast path (see
    /// [`FastpathEngine::install`]): the region named `label` (see
    /// [`Runtime::name_region`]) meets the table's proof for `label`. An
    /// existing engine is kept, and with it the memos of every label
    /// installed again with an equal proof. `library` is the memo library
    /// the engine shares with the other runs of the table's proof set. Its
    /// owner (the proof set) keeps it; the engine only borrows from it and
    /// publishes to it.
    pub fn install_fastpath(&mut self, table: &ProofTable, library: &MemoLibrary) {
        self.fastpath
            .get_or_insert_with(FastpathEngine::new)
            .install(table, library);
    }

    /// Make this runtime timing-only, and every clone of it: a thread whose
    /// turn the fast path has already applied in bulk (a hit or a retime)
    /// does not run its body at all. Simulated time, placement and
    /// statistics are those of a full runtime, since such a body reaches no
    /// machine and no address, flop charge or control decision of a body
    /// depends on a simulated value; what is lost is the values. Live and
    /// dynamic-loop turns run as ever; a skipped reduction block contributes
    /// nothing to the reduction, a skipped serial section returns
    /// `R::default()`.
    pub fn set_timing_only(&mut self) {
        self.timing_only = true;
    }

    /// Whether the runtime is timing-only ([`Runtime::set_timing_only`]).
    pub fn timing_only(&self) -> bool {
        self.timing_only
    }

    /// Fast-path engine counters, if installed.
    pub fn fastpath_stats(&self) -> Option<FastpathStats> {
        self.fastpath.as_ref().map(FastpathEngine::stats)
    }

    /// Open the named phase: regions named from now on belong to it.
    pub fn phase(&mut self, name: &str) {
        name.clone_into(&mut self.phase);
    }

    /// Name the next region `"{phase}/{name}"`, the label its proof (if any)
    /// was installed under. That region spends the name, whatever becomes of
    /// it; an unnamed region runs exactly. Nothing is formatted while no
    /// fast path is installed.
    pub fn name_region(&mut self, name: &str) {
        if self.fastpath.is_some() {
            self.label.clear();
            self.label.extend([&self.phase, "/", name]);
        }
    }

    /// Consult the fast path for the region just opened, on behalf of the
    /// team's first `proof_team` threads: 1 for a serial section, all of
    /// them for a static loop, none for a dynamic loop — dispatch there
    /// follows simulated time, so every thread simulates, and an empty team
    /// is one no proof speaks for.
    fn fastpath_begin(&mut self, proof_team: usize) -> FastpathOutcome {
        let lanes = match self.fastpath.as_mut() {
            Some(engine) if !self.label.is_empty() => {
                let binding = &self.cpu_of_thread[..proof_team];
                engine.begin_region_fastpath(&mut self.machine, &self.label, binding)
            }
            _ => Default::default(),
        };
        self.label.clear();
        lanes
    }

    /// Panic unless `binding` is a set of distinct, valid CPUs.
    fn validate_binding(&self, binding: &[CpuId]) {
        let mut seen = vec![false; self.machine.cpus()];
        for &cpu in binding {
            assert!(cpu < self.machine.cpus(), "cpu {cpu} out of range");
            assert!(!seen[cpu], "cpu {cpu} bound twice");
            seen[cpu] = true;
        }
    }

    /// Rebind the team's threads to CPUs — what the OS scheduler does to a
    /// multiprogrammed job. `perm[t]` is the CPU that thread `t` runs on
    /// from now on; it must be a permutation of distinct valid CPUs.
    /// Page placements tuned to the old binding become wrong, which is the
    /// disturbance the paper's footnote 3 sets aside ("unless the operating
    /// system intervenes and preempts or migrates threads").
    pub fn rebind_threads(&mut self, perm: &[CpuId]) {
        assert_eq!(perm.len(), self.threads, "one CPU per thread");
        self.validate_binding(perm);
        self.cpu_of_thread = perm.to_vec();
    }

    /// Shrink or grow the team to `binding.len()` threads bound to the given
    /// CPUs — the space-sharing scheduler's dynamic-partitioning move.
    /// Worksharing in subsequent constructs divides iterations among the new
    /// team; pages first-touched by the old team keep their homes (that
    /// mismatch is exactly the disturbance the multiprogramming experiments
    /// measure). Must be called between parallel constructs.
    pub fn resize_team(&mut self, binding: &[CpuId]) {
        assert!(
            !self.machine.in_region(),
            "resize_team inside a parallel region"
        );
        assert!(
            !binding.is_empty() && binding.len() <= self.machine.cpus(),
            "team size {} out of range",
            binding.len()
        );
        self.validate_binding(binding);
        self.threads = binding.len();
        self.cpu_of_thread = binding.to_vec();
        // A pending rebinding for the old team shape no longer applies.
        self.pending_binding = None;
        // Installed proofs were derived for the old team size; drop them.
        self.fastpath = None;
    }

    /// Stage a rebinding to be applied at the next region-boundary yield
    /// point (the start of the next parallel construct or serial section).
    /// This is the scheduler's preemption hook: a quantum can expire while
    /// an iteration is in flight, and the thread migration then takes effect
    /// at the next boundary rather than mid-region — the granularity at
    /// which IRIX actually stops a gang. Validated immediately; replaces any
    /// previously staged rebinding.
    pub fn request_rebind(&mut self, perm: &[CpuId]) {
        assert_eq!(perm.len(), self.threads, "one CPU per thread");
        self.validate_binding(perm);
        self.pending_binding = Some(perm.to_vec());
    }

    /// Apply a staged rebinding, if any. Called at every region-boundary
    /// yield point; also usable directly by a scheduler that has descheduled
    /// the job and wants the staged binding to land before the next quantum.
    pub fn apply_pending_rebind(&mut self) -> bool {
        match self.pending_binding.take() {
            Some(binding) => {
                self.cpu_of_thread = binding;
                self.rebinds_applied += 1;
                true
            }
            None => false,
        }
    }

    /// Rebindings applied at yield points so far.
    pub fn rebinds_applied(&self) -> u64 {
        self.rebinds_applied
    }

    /// Current CPU binding of a thread.
    pub fn cpu_of_thread(&self, tid: usize) -> CpuId {
        self.cpu_of_thread[tid]
    }

    /// The team's full CPU binding, indexed by thread id.
    pub fn binding(&self) -> &[CpuId] {
        &self.cpu_of_thread
    }

    /// Enable/replace the kernel migration engine (`DSM_MIGRATION=ON`).
    pub fn set_kernel_migration(&mut self, engine: KernelMigrationEngine) {
        self.kernel = engine;
    }

    /// The kernel migration engine.
    pub fn kernel_migration(&self) -> &KernelMigrationEngine {
        &self.kernel
    }

    /// Team size.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The machine (e.g. to read the clock or statistics).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access for code that runs *between* regions — page
    /// migration engines, array allocation, placement installation.
    pub fn machine_mut(&mut self) -> &mut Machine {
        assert!(
            !self.machine.in_region(),
            "machine_mut inside a parallel region"
        );
        &mut self.machine
    }

    /// Parallel constructs executed so far.
    pub fn regions(&self) -> u64 {
        self.regions
    }

    /// Current simulated time, seconds.
    pub fn now_secs(&self) -> f64 {
        self.machine.clock().now_secs()
    }

    /// `PARALLEL DO`: run `body(par, i)` for every `i in 0..n`, divided
    /// among the team by `schedule`.
    pub fn parallel_for(
        &mut self,
        n: usize,
        schedule: Schedule,
        mut body: impl FnMut(&mut Par, usize),
    ) {
        let proof_team = if schedule.is_dynamic() {
            0
        } else {
            self.threads
        };
        self.run_region(proof_team, |team| {
            if schedule.is_dynamic() {
                Self::run_dynamic(team, n, schedule, &mut body);
            } else {
                let parts = schedule.static_chunks(n, team.cpus.len());
                for (tid, chunks) in parts.iter().enumerate() {
                    let Some(mut par) = Par::turn(team, tid) else {
                        continue;
                    };
                    for &(start, end) in chunks {
                        for i in start..end {
                            body(&mut par, i);
                        }
                    }
                }
            }
        })
    }

    /// `PARALLEL DO` with a `REDUCTION` clause: threads fold their
    /// iterations into private block accumulators starting from
    /// `identity`; accumulators are combined with `combine` at the join.
    ///
    /// The reduction is *deterministic across team sizes*: iterations are
    /// partitioned into a fixed number of blocks
    /// ([`REDUCTION_BLOCKS`], or the team size if larger) and the block
    /// partials are combined in block order, so a team of 8 and a team of
    /// 16 produce bit-identical results — and a run whose team is resized
    /// mid-flight (the multiprogramming scheduler shrinks and grows
    /// teams) still matches its fixed-size reference. With a 16-thread
    /// team this degenerates to exactly one block per thread, i.e. the
    /// classic per-thread `REDUCTION` combine order.
    pub fn parallel_reduce<T: Clone>(
        &mut self,
        n: usize,
        schedule: Schedule,
        identity: T,
        mut body: impl FnMut(&mut Par, usize, T) -> T,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        let blocks = reduction_block_count(self.threads);
        let mut partials: Vec<Option<T>> = vec![None; blocks];
        self.run_region(self.threads, |team| {
            assert!(
                !schedule.is_dynamic(),
                "reductions are supported on static schedules (as in the NAS codes)"
            );
            let parts = schedule.static_chunks(n, blocks);
            let ownership = reduction_block_ownership(team.cpus.len());
            for (tid, &(b0, b1)) in ownership.iter().enumerate() {
                // Thread `tid` owns a contiguous run of blocks, so its
                // iteration range (and memory traffic) is identical to the
                // plain per-thread static schedule. A skipped turn leaves
                // its blocks' partials out.
                let Some(mut par) = Par::turn(team, tid) else {
                    continue;
                };
                for (b, chunks) in parts.iter().enumerate().take(b1).skip(b0) {
                    let mut acc = identity.clone();
                    for &(start, end) in chunks {
                        for i in start..end {
                            acc = body(&mut par, i, acc);
                        }
                    }
                    partials[b] = Some(acc);
                }
            }
        });
        partials.into_iter().flatten().fold(identity, combine)
    }

    /// Sequential program text between parallel constructs, executed by the
    /// master thread — on the CPU thread 0 is bound to — as a team of one.
    /// A skipped turn of a timing-only runtime returns `R::default()`.
    pub fn serial<R: Default>(&mut self, body: impl FnOnce(&mut Par) -> R) -> R {
        let _hp = hostprof::span_hot("omp.serial");
        self.region(1, |team| Par::turn(team, 0).map(|mut par| body(&mut par)))
            .0
            .unwrap_or_default()
    }

    /// A worksharing region: the bracket, then what only a parallel
    /// construct has — the region histograms of a traced run and the kernel
    /// migration engine's scan at the join.
    fn run_region(&mut self, proof_team: usize, work: impl FnOnce(&mut Team)) {
        let _hp = hostprof::span_hot("omp.region");
        let ((), traced) = self.region(proof_team, work);
        if let Some((local, remote, wall_ns)) = traced {
            let total = local + remote;
            let fraction = if total == 0 {
                0.0
            } else {
                remote as f64 / total as f64
            };
            let trace = self.machine.trace_mut();
            trace.observe("region_remote_permille", (fraction * 1000.0) as u64);
            trace.observe("region_wall_ns", wall_ns as u64);
            trace.set_gauge("last_region_remote_fraction", fraction);
        }
        self.kernel.scan(&mut self.machine);
    }

    /// The region bracket, stated once for every construct: the yield
    /// point, `begin_region`, the fast path's verdict on `proof_team` (see
    /// [`Runtime::fastpath_begin`]), `body` on the region's [`Team`] (the
    /// machine, the team's binding, the region's lanes; a full runtime counts
    /// its data-only turns' accesses in them), the lanes handed back (before
    /// `end_region`: a recording diffs the still-open region state),
    /// `end_region`.
    /// A traced run also gets the region's [`obs::EventKind::RegionProfile`]
    /// and, returned beside the body's value, its local and remote memory
    /// accesses and wall time.
    fn region<R>(
        &mut self,
        proof_team: usize,
        body: impl FnOnce(&mut Team) -> R,
    ) -> (R, Option<(u64, u64, f64)>) {
        self.apply_pending_rebind();
        // Snapshot only when tracing: the profile is a stats delta.
        let before = self
            .machine
            .trace_mut()
            .is_active()
            .then(|| self.machine.aggregate_cpu_stats());
        self.machine.begin_region();
        let mut lanes = self.fastpath_begin(proof_team);
        if !self.timing_only {
            lanes.walked.resize(lanes.replayed.len(), 0);
        }
        let r = body(&mut Team {
            machine: &mut self.machine,
            cpus: &self.cpu_of_thread,
            lanes: &mut lanes,
            timing_only: self.timing_only,
        });
        if let Some(engine) = self.fastpath.as_mut() {
            engine.finish_region(&mut self.machine, lanes);
        }
        let wall_ns = self.machine.end_region().wall_ns;
        self.regions += 1;
        let traced = before.map(|before| {
            let after = self.machine.aggregate_cpu_stats();
            // The machine's region counter has already advanced past it.
            let region = self.machine.stats().regions - 1;
            let local = after.mem_local - before.mem_local;
            let remote = after.mem_remote - before.mem_remote;
            let stall_ns = after.stall_ns - before.stall_ns;
            self.machine.trace_event(|| obs::EventKind::RegionProfile {
                region,
                wall_ns,
                local,
                remote,
                stall_ns,
            });
            (local, remote, wall_ns)
        });
        (r, traced)
    }

    /// Deterministic simulation of dynamic/guided dispatch: the next chunk
    /// always goes to the thread with the least accumulated virtual time.
    fn run_dynamic(
        team: &mut Team,
        n: usize,
        schedule: Schedule,
        body: &mut impl FnMut(&mut Par, usize),
    ) {
        let threads = team.cpus.len();
        let mut next = 0usize;
        while next < n {
            let len = schedule.next_chunk_len(n - next, threads);
            // argmin over virtual times; ties break toward lower thread id.
            let (machine, cpus) = (&team.machine, team.cpus);
            let tid = (0..threads)
                .min_by(|&a, &b| {
                    machine
                        .region_cpu_ns(cpus[a])
                        .partial_cmp(&machine.region_cpu_ns(cpus[b]))
                        .expect("virtual times are finite")
                        .then(a.cmp(&b))
                })
                .expect("team is non-empty");
            // No proof speaks for a dynamic loop, so every turn is live.
            let mut par = Par::turn(team, tid).expect("a dynamic loop replays nothing");
            for i in next..next + len {
                body(&mut par, i);
            }
            next += len;
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.threads)
            .field("regions", &self.regions)
            .field("kernel_migration", &self.kernel.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::{MachineConfig, PhaseProof};

    fn runtime() -> Runtime {
        Runtime::new(Machine::new(MachineConfig::tiny_test()))
    }

    #[test]
    fn parallel_for_visits_every_iteration_once() {
        let mut rt = runtime();
        let mut seen = vec![0u32; 100];
        rt.parallel_for(100, Schedule::Static, |_, i| seen[i] += 1);
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn static_blocks_pin_iterations_to_threads() {
        let mut rt = runtime(); // 8 CPUs
        let mut owner = vec![usize::MAX; 80];
        rt.parallel_for(80, Schedule::Static, |par, i| owner[i] = par.tid);
        // Blocked: first 10 iterations on thread 0, etc.
        assert!(owner[..10].iter().all(|&t| t == 0));
        assert!(owner[70..].iter().all(|&t| t == 7));
    }

    #[test]
    fn first_touch_distribution_through_parallel_for() {
        let mut rt = runtime();
        let n_per_page = ccnuma::PAGE_SIZE as usize / 8;
        let n = 8 * n_per_page; // 8 pages over 8 threads
        let a = SimArray::new(rt.machine_mut(), "a", n, 0.0f64);
        rt.parallel_for(n, Schedule::Static, |par, i| {
            par.set(&a, i, i as f64);
        });
        // Thread t (= CPU t on tiny 4x2: node t/2) first touched page t.
        let (base, _) = a.vrange();
        for p in 0..8u64 {
            let vp = ccnuma::vpage_of(base) + p;
            let expect_node = (p as usize) / 2;
            assert_eq!(
                rt.machine().node_of_vpage(vp),
                Some(expect_node),
                "page {p}"
            );
        }
    }

    #[test]
    fn parallel_for_advances_clock() {
        let mut rt = runtime();
        let t0 = rt.machine().clock().now_ns();
        rt.parallel_for(10, Schedule::Static, |par, _| par.flops(100));
        assert!(rt.machine().clock().now_ns() > t0);
        assert_eq!(rt.regions(), 1);
    }

    #[test]
    fn wall_time_is_max_not_sum() {
        let mut rt = runtime();
        // 8 threads each compute 1000 flops (2 us): the region should take
        // ~2 us between fork and barrier, not ~16 us.
        let t0 = rt.machine().clock().now_ns();
        rt.parallel_for(8, Schedule::Static, |par, _| par.flops(1000));
        let cfg = rt.machine().config();
        let wall_ns = rt.machine().clock().now_ns() - t0 - cfg.fork_ns - cfg.barrier_ns;
        assert!((2000.0..4000.0).contains(&wall_ns), "wall {wall_ns}");
    }

    #[test]
    fn dynamic_schedule_covers_and_balances() {
        let mut rt = runtime();
        let mut seen = vec![0u32; 64];
        let mut work_by_tid = vec![0u64; 8];
        rt.parallel_for(64, Schedule::Dynamic(1), |par, i| {
            seen[i] += 1;
            // Unbalanced work: iteration i costs (i+1) flops.
            par.flops((i as u64 + 1) * 100);
            work_by_tid[par.tid] += (i as u64 + 1) * 100;
        });
        assert!(seen.iter().all(|&c| c == 1));
        // Dynamic dispatch should involve every thread.
        assert!(work_by_tid.iter().all(|&w| w > 0), "{work_by_tid:?}");
        // And be much better balanced than worst-case (all on one thread).
        let max = *work_by_tid.iter().max().unwrap();
        let total: u64 = work_by_tid.iter().sum();
        assert!(max < total / 2, "max {max} total {total}");
    }

    #[test]
    fn guided_schedule_covers() {
        let mut rt = runtime();
        let mut seen = vec![0u32; 100];
        rt.parallel_for(100, Schedule::Guided(1), |_, i| seen[i] += 1);
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn reduction_sums_correctly() {
        let mut rt = runtime();
        let a = SimArray::from_fn(rt.machine_mut(), "a", 1000, |i| i as f64);
        let sum = rt.parallel_reduce(
            1000,
            Schedule::Static,
            0.0f64,
            |par, i, acc| acc + par.get(&a, i),
            |x, y| x + y,
        );
        assert_eq!(sum, (0..1000).sum::<usize>() as f64);
    }

    #[test]
    fn reduction_ownership_covers_blocks_once() {
        for threads in 1..=20 {
            let blocks = reduction_block_count(threads);
            let ranges = reduction_block_ownership(threads);
            assert_eq!(ranges.len(), threads);
            let mut next = 0;
            for &(b0, b1) in &ranges {
                assert_eq!(b0, next, "contiguous ownership");
                assert!(b1 >= b0);
                next = b1;
            }
            assert_eq!(next, blocks);
        }
    }

    #[test]
    fn reduction_chunks_match_executed_iterations() {
        let mut rt = runtime(); // 8 threads
        let n = 100;
        let mut owner = vec![usize::MAX; n];
        rt.parallel_reduce(
            n,
            Schedule::Static,
            (),
            |par, i, ()| owner[i] = par.tid,
            |(), ()| (),
        );
        let chunks = reduction_chunks(Schedule::Static, n, 8);
        for (tid, chunks) in chunks.iter().enumerate() {
            for &(start, end) in chunks {
                for (i, &t) in owner.iter().enumerate().take(end).skip(start) {
                    assert_eq!(t, tid, "iteration {i}");
                }
            }
        }
        assert!(owner.iter().all(|&t| t != usize::MAX));
    }

    #[test]
    fn serial_runs_on_master() {
        let mut rt = runtime();
        let tid = rt.serial(|par| par.tid);
        assert_eq!(tid, 0);
        assert_eq!(rt.regions(), 1);
    }

    /// f64 elements per cache line.
    const EPL: usize = ccnuma::LINE_SIZE as usize / 8;
    /// Iterations (= lines) of the striped loop below.
    const STRIPES: usize = 8;

    /// The installable instance `t/{name}` of one region of [`stripe`]s over
    /// lines `at..at + STRIPES` of `a` (iteration `i` owns line `at + i`),
    /// where thread `t` of a team of `owners.len()` runs the iteration
    /// chunks `owners[t]`.
    fn stripe_instance(
        a: &SimArray<f64>,
        name: &str,
        at: usize,
        owners: &[Vec<(usize, usize)>],
    ) -> (String, Option<PhaseProof>) {
        let first = (a.vaddr_of(0) >> ccnuma::LINE_SHIFT) + at as u64;
        let mut writes = Vec::new();
        for (tid, chunks) in owners.iter().enumerate() {
            for &(start, end) in chunks {
                writes.extend((start..end).map(|i| (first + i as u64, 2, tid as u32)));
            }
        }
        let label = format!("t/{name}");
        let lines = (first..first + STRIPES as u64).collect();
        let proof = PhaseProof::new(label.clone(), owners.len(), lines, writes);
        (label, Some(proof))
    }

    /// A runtime in phase `t` with one page-sized array and, if `owners` is
    /// given, a hand-written proof installed for the region `t/stripe`: one
    /// region of [`stripe`]s over the array's first lines, divided as
    /// [`stripe_instance`] says.
    fn striped_by(
        threads: usize,
        owners: Option<Vec<Vec<(usize, usize)>>>,
    ) -> (Runtime, SimArray<f64>) {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", 128 * EPL, 1.0f64);
        let mut rt = Runtime::with_threads(m, threads);
        if let Some(owners) = owners {
            let table = ProofTable::fold([stripe_instance(&a, "stripe", 0, &owners)]);
            rt.install_fastpath(&table, &MemoLibrary::default());
        }
        rt.phase("t");
        (rt, a)
    }

    /// [`striped_by`] the static schedule of [`stripe_rep`]'s loop.
    fn striped(threads: usize, fast: bool) -> (Runtime, SimArray<f64>) {
        striped_by(
            threads,
            fast.then(|| Schedule::Static.static_chunks(STRIPES, threads)),
        )
    }

    /// Iteration `i` of the striped loop: a load, a read-modify-write, a
    /// store and a compute charge, all on line `i`.
    fn stripe(par: &mut Par, a: &SimArray<f64>, i: usize, rep: usize) {
        let v = par.get(a, i * EPL);
        par.update(a, i * EPL, |x| x + v + rep as f64);
        par.set(a, i * EPL + 1, v);
        par.flops(3);
    }

    /// One region of the striped loop, named `t/stripe`. `spy` sees each
    /// thread's context before its first access of every iteration.
    fn stripe_rep(rt: &mut Runtime, a: &SimArray<f64>, rep: usize, mut spy: impl FnMut(&mut Par)) {
        rt.name_region("stripe");
        rt.parallel_for(STRIPES, Schedule::Static, |par, i| {
            spy(par);
            stripe(par, a, i, rep);
        });
    }

    /// Everything a region can change: host data, clock, machine and
    /// per-CPU statistics.
    fn observable(rt: &Runtime, a: &SimArray<f64>) -> (Vec<u64>, u64, String) {
        let m = rt.machine();
        let per_cpu: Vec<_> = (0..m.cpus()).map(|c| *m.cpu_stats(c)).collect();
        (
            a.to_vec().into_iter().map(f64::to_bits).collect(),
            m.clock().now_ns().to_bits(),
            format!("{:?} {per_cpu:?}", m.stats()),
        )
    }

    #[test]
    fn replayed_region_matches_its_exact_twin() {
        let (mut exact, ea) = striped(4, false);
        let (mut fast, fa) = striped(4, true);
        let mut data_only_turns = 0;
        for rep in 0..6 {
            stripe_rep(&mut exact, &ea, rep, |par| assert!(!par.data_only()));
            stripe_rep(&mut fast, &fa, rep, |par| {
                data_only_turns += usize::from(par.data_only())
            });
            assert_eq!(observable(&exact, &ea), observable(&fast, &fa), "rep {rep}");
        }
        let s = fast.fastpath_stats().expect("installed");
        assert!(s.replays >= 2, "{s:?}");
        assert_eq!(
            data_only_turns,
            s.replays as usize * STRIPES,
            "every iteration of a replayed region runs data-only: {s:?}"
        );
    }

    #[test]
    fn partial_replay_simulates_the_live_thread_only() {
        let (mut exact, ea) = striped(2, false);
        let (mut fast, fa) = striped(2, true);
        for rep in 0..4 {
            stripe_rep(&mut exact, &ea, rep, |_| {});
            stripe_rep(&mut fast, &fa, rep, |_| {});
        }
        let before = fast.fastpath_stats().expect("installed");
        assert!(before.replays >= 1, "steady state reached: {before:?}");
        // Drift CPU 0's cache with a non-proof line of the same page, between
        // regions: thread 0 misses its memo, thread 1 still hits.
        let junk = ea.vaddr_of(120 * EPL);
        assert_eq!(junk, fa.vaddr_of(120 * EPL));
        exact.machine_mut().touch(0, junk, ccnuma::AccessKind::Read);
        fast.machine_mut().touch(0, junk, ccnuma::AccessKind::Read);
        let mut lanes = [None; 2];
        stripe_rep(&mut exact, &ea, 4, |_| {});
        stripe_rep(&mut fast, &fa, 4, |par| {
            lanes[par.tid] = Some(par.data_only())
        });
        assert_eq!(lanes, [Some(false), Some(true)]);
        assert_eq!(observable(&exact, &ea), observable(&fast, &fa));
        let s = fast.fastpath_stats().expect("installed");
        assert_eq!(s.misses, before.misses + 1, "{s:?}");
        assert_eq!(s.cpu_replays, before.cpu_replays + 1, "{s:?}");
        assert_eq!(s.cpu_records, before.cpu_records + 1, "{s:?}");
        assert_eq!(s.rejects, before.rejects, "{s:?}");
    }

    /// Run `construct` (one region of [`stripe`]s, proven by `owners`) next
    /// to its exact twin: a replayed region must hand every turn the
    /// data-only lane — or, on a `timing_only` runtime, no turn at all —
    /// any other region the simulated one, and the two machines must stay
    /// indistinguishable (in host data too, unless `timing_only`).
    fn check_lanes_of(
        name: &str,
        timing_only: bool,
        owners: Vec<Vec<(usize, usize)>>,
        construct: impl Fn(&mut Runtime, &mut dyn FnMut(&mut Par, usize)),
    ) {
        let (mut exact, ea) = striped_by(4, None);
        let (mut fast, fa) = striped_by(4, Some(owners.clone()));
        if timing_only {
            fast.set_timing_only();
        }
        let same = |exact: &Runtime, fast: &Runtime, what: &str| {
            let (e, f) = (observable(exact, &ea), observable(fast, &fa));
            if timing_only {
                assert_eq!((e.1, e.2), (f.1, f.2), "{what}");
            } else {
                assert_eq!(e, f, "{what}");
            }
        };
        let replays = |rt: &Runtime| rt.fastpath_stats().expect("installed").replays;
        for rep in 0..5 {
            construct(&mut exact, &mut |par, i| {
                assert!(!par.data_only());
                stripe(par, &ea, i, rep)
            });
            let before = replays(&fast);
            let mut data_only = Vec::new();
            fast.name_region("stripe");
            construct(&mut fast, &mut |par, i| {
                data_only.push(par.data_only());
                stripe(par, &fa, i, rep)
            });
            let replayed = replays(&fast) > before;
            let turns = if replayed && timing_only { 0 } else { STRIPES };
            assert_eq!(data_only, vec![replayed; turns], "{name} rep {rep}");
            same(&exact, &fast, &format!("{name} rep {rep}"));
        }
        assert!(replays(&fast) >= 2, "{name} never reached its steady state");

        // Retimed CPUs. Before each region every CPU's copies of the array's
        // lines are pushed out of both caches by two lines per set of
        // another page; once that has settled the array's page moves, which
        // then invalidates nothing: every CPU of the next region is retimed
        // at entry, and its turn is a replayed one like a hit's — data-only,
        // or none on a timing-only runtime.
        let junk = |rt: &mut Runtime| SimArray::new(rt.machine_mut(), "junk", 128 * EPL, 0.0f64);
        let (ej, fj) = (junk(&mut exact), junk(&mut fast));
        let page = ccnuma::vpage_of(fa.vaddr_of(0));
        for rep in 5..10 {
            let moved = rep == 9;
            for (rt, junk) in [(&mut exact, &ej), (&mut fast, &fj)] {
                if moved {
                    rt.machine_mut().migrate_page(page, 3).unwrap();
                }
                for cpu in 0..4 {
                    for line in (0..STRIPES).chain(32..32 + STRIPES) {
                        let vaddr = junk.vaddr_of(line * EPL);
                        rt.machine_mut().touch(cpu, vaddr, AccessKind::Read);
                    }
                }
            }
            construct(&mut exact, &mut |par, i| stripe(par, &ea, i, rep));
            let before = fast.fastpath_stats().expect("installed");
            let mut data_only = Vec::new();
            fast.name_region("stripe");
            construct(&mut fast, &mut |par, i| {
                data_only.push(par.data_only());
                stripe(par, &fa, i, rep)
            });
            same(&exact, &fast, &format!("{name} rep {rep}"));
            if moved {
                let turns = if timing_only { 0 } else { STRIPES };
                assert_eq!(data_only, vec![true; turns], "{name}");
                // A thread with no iteration reaches no memory: its memo is
                // timed the same wherever the page is, a plain hit.
                let team = owners.len() as u64;
                let walked = owners
                    .iter()
                    .filter(|chunks| chunks.iter().any(|c| c.1 > c.0));
                let walked = walked.count() as u64;
                let want = FastpathStats {
                    replays: before.replays + 1,
                    cpu_retimes: before.cpu_retimes + walked,
                    cpu_replays: before.cpu_replays + team - walked,
                    ..before
                };
                assert_eq!(fast.fastpath_stats(), Some(want), "{name}");
                // The fix-up at entry moved the cache clocks as far as
                // execution does.
                for cpu in 0..4 {
                    let clocks = |rt: &Runtime| rt.machine().cache_ticks(cpu);
                    assert_eq!(clocks(&fast), clocks(&exact), "{name} cpu {cpu}");
                }
            }
        }
    }

    /// [`check_lanes_of`] every construct, then a dynamic loop, which hands
    /// out chunks by simulated time and so never gets a data-only turn: the
    /// proof under its name is refused, and every turn runs its body.
    fn check_every_construct(timing_only: bool) {
        check_lanes_of(
            "parallel_for",
            timing_only,
            Schedule::Static.static_chunks(STRIPES, 4),
            |rt, body| rt.parallel_for(STRIPES, Schedule::Static, body),
        );
        check_lanes_of(
            "parallel_reduce",
            timing_only,
            reduction_chunks(Schedule::Static, STRIPES, 4),
            |rt, body| {
                let fold = |par: &mut Par, i: usize, ()| body(par, i);
                rt.parallel_reduce(STRIPES, Schedule::Static, (), fold, |(), ()| ())
            },
        );
        check_lanes_of(
            "serial",
            timing_only,
            vec![vec![(0, STRIPES)]],
            |rt, body| rt.serial(|par| (0..STRIPES).for_each(|i| body(par, i))),
        );

        let (mut exact, ea) = striped(4, false);
        let (mut fast, fa) = striped(4, true);
        if timing_only {
            fast.set_timing_only();
        }
        for rep in 0..4 {
            exact.parallel_for(STRIPES, Schedule::Dynamic(1), |par, i| {
                stripe(par, &ea, i, rep)
            });
            fast.name_region("stripe");
            fast.parallel_for(STRIPES, Schedule::Dynamic(1), |par, i| {
                assert!(!par.data_only());
                stripe(par, &fa, i, rep)
            });
            assert_eq!(observable(&exact, &ea), observable(&fast, &fa), "rep {rep}");
        }
        let s = fast.fastpath_stats().expect("installed");
        assert_eq!(
            s,
            FastpathStats {
                rejects: 4,
                ..Default::default()
            }
        );
    }

    #[test]
    fn every_construct_reads_the_lane_at_the_start_of_the_turn() {
        check_every_construct(false);
    }

    #[test]
    fn a_timing_only_runtime_runs_the_live_turns_alone() {
        check_every_construct(true);
    }

    #[test]
    fn a_skipped_reduction_leaves_its_blocks_out_and_a_skipped_serial_defaults() {
        let reduced = reduction_chunks(Schedule::Static, STRIPES, 4);
        let (mut red, ra) = striped_by(4, Some(reduced));
        let (mut ser, sa) = striped_by(4, Some(vec![vec![(0, STRIPES)]]));
        red.set_timing_only();
        ser.set_timing_only();
        assert!(red.clone().timing_only(), "a clone inherits the mode");
        let (mut sums, mut serials) = (Vec::new(), Vec::new());
        for rep in 0..5 {
            // Each iteration run counts 1.
            red.name_region("stripe");
            let fold = |par: &mut Par, i: usize, acc: f64| {
                stripe(par, &ra, i, rep);
                acc + 1.0
            };
            sums.push(red.parallel_reduce(STRIPES, Schedule::Static, 0.0, fold, |x, y| x + y));
            ser.name_region("stripe");
            serials.push(ser.serial(|par| {
                (0..STRIPES).for_each(|i| stripe(par, &sa, i, rep));
                1usize
            }));
        }
        assert_eq!(sums.first(), Some(&(STRIPES as f64)), "{sums:?}");
        assert_eq!(serials.first(), Some(&1), "{serials:?}");
        assert_eq!(
            sums.last(),
            Some(&0.0),
            "the reduction was not skipped: {sums:?}"
        );
        assert_eq!(
            serials.last(),
            Some(&0),
            "the serial was not skipped: {serials:?}"
        );
    }

    /// Six iterations of a two-loop program text — `t/stripe`, then `t/tail`
    /// sixteen lines on — with or without a region of its own between them
    /// that the text never named (a phase hook running a loop). Returns what
    /// the run left behind and how often `t/tail` replayed.
    fn two_loops(fast: bool, hooked: bool) -> ((Vec<u64>, u64, String), u64) {
        let (mut rt, a) = striped_by(4, None);
        let owners = Schedule::Static.static_chunks(STRIPES, 4);
        if fast {
            let table = ProofTable::fold([
                stripe_instance(&a, "stripe", 0, &owners),
                stripe_instance(&a, "tail", 16, &owners),
            ]);
            rt.install_fastpath(&table, &MemoLibrary::default());
        }
        let replays = |rt: &Runtime| rt.fastpath_stats().map_or(0, |s| s.replays);
        let mut tail_replays = 0;
        for rep in 0..6 {
            stripe_rep(&mut rt, &a, rep, |_| {});
            if hooked {
                // It inherits nothing from the named region before it.
                let before = rt.fastpath_stats();
                rt.parallel_for(STRIPES, Schedule::Static, |par, _| par.flops(7));
                assert_eq!(rt.fastpath_stats(), before, "rep {rep}");
            }
            let before = replays(&rt);
            rt.name_region("tail");
            rt.parallel_for(STRIPES, Schedule::Static, |par, i| {
                stripe(par, &a, 16 + i, rep)
            });
            tail_replays += replays(&rt) - before;
        }
        (observable(&rt, &a), tail_replays)
    }

    #[test]
    fn an_unnamed_region_shifts_no_proof() {
        let (plain, plain_replays) = two_loops(true, false);
        let (hooked, hooked_replays) = two_loops(true, true);
        assert!(plain_replays >= 2, "steady state reached: {plain_replays}");
        assert_eq!(hooked_replays, plain_replays);
        assert_eq!(plain, two_loops(false, false).0);
        assert_eq!(hooked, two_loops(false, true).0);
    }

    #[test]
    fn a_named_region_after_resize_team_rejects_on_team_size() {
        let (mut exact, ea) = striped(4, false);
        let (mut fast, fa) = striped(4, true);
        for rep in 0..3 {
            stripe_rep(&mut exact, &ea, rep, |_| {});
            stripe_rep(&mut fast, &fa, rep, |_| {});
        }
        exact.resize_team(&[0, 1]);
        fast.resize_team(&[0, 1]);
        // The label says nothing about the team: proofs armed again as they
        // were derived, for four threads, are refused by size.
        let owners = Schedule::Static.static_chunks(STRIPES, 4);
        let table = ProofTable::fold([stripe_instance(&fa, "stripe", 0, &owners)]);
        fast.install_fastpath(&table, &MemoLibrary::default());
        let before = fast.fastpath_stats().expect("installed");
        for rep in 3..6 {
            stripe_rep(&mut exact, &ea, rep, |_| {});
            stripe_rep(&mut fast, &fa, rep, |par| assert!(!par.data_only()));
            assert_eq!(observable(&exact, &ea), observable(&fast, &fa), "rep {rep}");
        }
        let want = FastpathStats {
            rejects: before.rejects + 3,
            ..before
        };
        assert_eq!(fast.fastpath_stats(), Some(want));
    }

    #[test]
    fn serial_regions_neither_scan_nor_feed_the_region_histograms() {
        let mut rt = runtime();
        rt.set_kernel_migration(KernelMigrationEngine::enabled(vmm::KernelMigrationConfig {
            scan_period_ns: 0.0,
            ..Default::default()
        }));
        rt.machine_mut().set_trace(obs::TraceSink::enabled(64));
        rt.serial(|par| par.flops(1));
        rt.parallel_for(8, Schedule::Static, |par, _| par.flops(1));
        assert_eq!(rt.kernel_migration().stats().scans, 1);
        let tracer = rt.machine_mut().take_trace().expect("tracing is on");
        let walls = tracer.metrics.histogram("region_wall_ns");
        assert_eq!(walls.map(obs::Histogram::count), Some(1));
        let profiles = tracer
            .ring
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::RegionProfile { .. }));
        assert_eq!(profiles.count(), 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut rt = runtime();
            let a = SimArray::from_fn(rt.machine_mut(), "a", 4096, |i| i as f64);
            rt.parallel_for(4096, Schedule::Static, |par, i| {
                let v = par.get(&a, i);
                par.set(&a, i, v * 2.0);
                par.flops(1);
            });
            rt.machine().clock().now_ns()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rebinding_moves_first_touch_targets() {
        let mut rt = runtime(); // tiny 4x2 machine, 8 CPUs
                                // Swap the two halves of the team.
        rt.rebind_threads(&[4, 5, 6, 7, 0, 1, 2, 3]);
        assert_eq!(rt.cpu_of_thread(0), 4);
        let n_per_page = ccnuma::PAGE_SIZE as usize / 8;
        let a = SimArray::new(rt.machine_mut(), "a", 8 * n_per_page, 0.0f64);
        rt.parallel_for(8 * n_per_page, Schedule::Static, |par, i| {
            par.set(&a, i, 1.0);
        });
        // Thread 0 (pages 0..) now runs on CPU 4 = node 2: first touch
        // follows the binding, not the thread id.
        let (base, _) = a.vrange();
        assert_eq!(rt.machine().node_of_vpage(ccnuma::vpage_of(base)), Some(2));
    }

    #[test]
    fn resize_team_shrinks_and_grows() {
        let mut rt = runtime(); // 8 CPUs
        rt.resize_team(&[0, 1, 2, 3]);
        assert_eq!(rt.threads(), 4);
        let mut owner = vec![usize::MAX; 40];
        rt.parallel_for(40, Schedule::Static, |par, i| owner[i] = par.tid);
        assert!(owner.iter().all(|&t| t < 4));
        rt.resize_team(&[4, 5, 6, 7, 0, 1]);
        assert_eq!(rt.threads(), 6);
        assert_eq!(rt.cpu_of_thread(0), 4);
        assert_eq!(rt.binding(), &[4, 5, 6, 7, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn resize_team_rejects_duplicates() {
        let mut rt = runtime();
        rt.resize_team(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "team size 0 out of range")]
    fn resize_team_rejects_empty() {
        let mut rt = runtime();
        rt.resize_team(&[]);
    }

    #[test]
    fn requested_rebind_applies_at_next_region_boundary() {
        let mut rt = runtime();
        rt.request_rebind(&[4, 5, 6, 7, 0, 1, 2, 3]);
        // Staged, not yet applied.
        assert_eq!(rt.cpu_of_thread(0), 0);
        assert_eq!(rt.rebinds_applied(), 0);
        let mut cpu_of_t0 = usize::MAX;
        rt.parallel_for(8, Schedule::Static, |par, _| {
            if par.tid == 0 {
                cpu_of_t0 = par.cpu;
            }
        });
        // The region itself already ran on the new binding.
        assert_eq!(cpu_of_t0, 4);
        assert_eq!(rt.cpu_of_thread(0), 4);
        assert_eq!(rt.rebinds_applied(), 1);
    }

    #[test]
    fn resize_team_clears_stale_pending_rebind() {
        let mut rt = runtime();
        rt.request_rebind(&[4, 5, 6, 7, 0, 1, 2, 3]);
        rt.resize_team(&[2, 3]);
        // The stale 8-thread rebinding must not land on the 2-thread team.
        rt.parallel_for(4, Schedule::Static, |_, _| {});
        assert_eq!(rt.binding(), &[2, 3]);
        assert_eq!(rt.rebinds_applied(), 0);
    }

    #[test]
    #[should_panic(expected = "one CPU per thread")]
    fn request_rebind_checks_arity() {
        let mut rt = runtime();
        rt.request_rebind(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn duplicate_binding_panics() {
        let mut rt = runtime();
        rt.rebind_threads(&[0, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "one CPU per thread")]
    fn wrong_binding_arity_panics() {
        let mut rt = runtime();
        rt.rebind_threads(&[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "team size")]
    fn oversized_team_panics() {
        let m = Machine::new(MachineConfig::tiny_test());
        let _ = Runtime::with_threads(m, 9);
    }
}
