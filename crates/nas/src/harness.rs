//! The run harness: executes one benchmark instance under one experiment
//! configuration (placement scheme x migration engine), following the
//! paper's instrumentation protocols.
//!
//! * **Plain / IRIX-migration runs** (Figure 1): cold-start iteration for
//!   first-touch, then the timed time-stepping loop; the kernel engine (if
//!   enabled) scans at region boundaries.
//! * **UPMlib distribution runs** (Figure 4, paper Figure 2 protocol): the
//!   engine's `migrate_memory` is invoked after the first iteration and
//!   after every later iteration while it keeps finding pages to move, then
//!   self-deactivates.
//! * **Record–replay runs** (Figures 5–6, paper Figure 3 protocol):
//!   `migrate_memory` after iteration 1; `record` at the phase points of
//!   iteration 2 followed by `compare_counters`; `replay` at the phase
//!   points and `undo` at the end of every later iteration.
//!
//! Under these protocols no engine works before the first timed
//! iteration's kernel text ends, except that UPMlib resets its hot ranges'
//! counters at the timed start. Every run that can fork — untraced, without
//! the kernel engine — does that reset too, since nothing else it simulates
//! or reports reads per-frame counters. So at that one **fork point** the
//! IRIX, UPMlib and record–replay runs of one problem and placement are in
//! one state, and [`BenchRun::fork`] turns any of them into any other: the
//! child does its own engine work from there, and equals a fresh run of its
//! configuration in every result byte.
//!
//! A **timing-only** run ([`BenchRun::set_timing_only`]) relies on the
//! premise stated in [`crate::model`]: no address, flop charge or control
//! decision of a kernel depends on a simulated value. So a turn the fast
//! path has already applied in bulk, whose body would compute values only,
//! is skipped, and the run equals its full twin in every result byte but
//! its verification, which it borrows: a plan's later cells of one problem
//! take their owner's (`xp::cells`).

use crate::common::{BenchName, NasBenchmark, PhaseHook, PhasePoint, Scale, Verification};
use crate::facts::{self, ProofSet};
use crate::model::KernelModel;
use ccnuma::{Machine, MachineConfig, MemoLibrary};
use omp::Runtime;
use std::sync::Arc;
use upmlib::{UpmEngine, UpmOptions, UpmStats};
use vmm::{install_placement, KernelMigrationConfig, KernelMigrationEngine, PlacementScheme};

/// Which migration machinery a run uses.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineMode {
    /// No migration at all (the paper's `*-IRIX` bars).
    None,
    /// The IRIX kernel competitive engine (`*-IRIXmig` bars).
    IrixMig(KernelMigrationConfig),
    /// UPMlib's iterative distribution mechanism (`*-upmlib` bars).
    Upmlib(UpmOptions),
    /// UPMlib distribution + record–replay redistribution (`ft-recrep`).
    RecRep(UpmOptions),
}

impl EngineMode {
    /// Label used in experiment output, matching the paper's bar labels.
    pub fn label(&self) -> &'static str {
        match self {
            EngineMode::None => "IRIX",
            EngineMode::IrixMig(_) => "IRIXmig",
            EngineMode::Upmlib(_) => "upmlib",
            EngineMode::RecRep(_) => "recrep",
        }
    }
}

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Page placement scheme installed before any page faults.
    pub placement: PlacementScheme,
    /// Migration engine mode.
    pub engine: EngineMode,
    /// OpenMP team size.
    pub threads: usize,
    /// Machine to simulate.
    pub machine: MachineConfig,
    /// Attach an event-trace + metrics sink for this run (see the `obs`
    /// crate); the collected tracer lands in [`RunResult::trace`].
    pub trace: bool,
}

/// Event-ring bound for traced runs: enough for every migration-engine
/// event of the paper-scale runs; the ring drops oldest past this.
pub const TRACE_RING_CAPACITY: usize = 1 << 20;

impl RunConfig {
    /// The paper's default platform: 16 processors, first-touch, no
    /// migration.
    pub fn paper_default() -> Self {
        Self {
            placement: PlacementScheme::FirstTouch,
            engine: EngineMode::None,
            threads: 16,
            machine: MachineConfig::origin2000_16p_scaled(),
            trace: false,
        }
    }
}

/// Everything measured by one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark identity.
    pub bench: BenchName,
    /// Placement label (`ft`, `rr`, `rand`, `wc`).
    pub placement: String,
    /// Engine label (`IRIX`, `IRIXmig`, `upmlib`, `recrep`).
    pub engine: String,
    /// Simulated wall time of the timed iterations, seconds.
    pub total_secs: f64,
    /// Simulated wall time per timed iteration, seconds.
    pub per_iter_secs: Vec<f64>,
    /// Benchmark self-verification outcome.
    pub verification: Verification,
    /// UPMlib statistics, when a UPMlib mode ran.
    pub upm: Option<UpmStats>,
    /// Pages the kernel engine migrated.
    pub kernel_migrations: u64,
    /// Fraction of memory accesses that were remote, whole run.
    pub remote_fraction: f64,
    /// Simulated seconds spent on record–replay page movement (the striped
    /// overhead segment of the paper's Figure 5).
    pub recrep_overhead_secs: f64,
    /// Collected event trace + metrics, when [`RunConfig::trace`] was set.
    pub trace: Option<Box<obs::Tracer>>,
}

impl RunResult {
    /// `label` in the paper's chart style, e.g. `rr-IRIXmig`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.placement, self.engine)
    }

    /// Mean per-iteration time over the last 75% of iterations — the basis
    /// of Table 2's residual-slowdown column.
    pub fn last75_mean_secs(&self) -> f64 {
        let n = self.per_iter_secs.len();
        if n == 0 {
            return 0.0;
        }
        let start = n / 4;
        let tail = &self.per_iter_secs[start..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// One benchmark run in steppable form. The kernel scheduler preempts jobs
/// at iteration boundaries — and, through the extra phase hook accepted by
/// [`BenchRun::step_with`], at region boundaries inside an iteration — so
/// the timed loop of [`run_benchmark`] is exposed one iteration at a time.
///
/// The cold-start iteration is lazy: it executes on the first
/// [`BenchRun::step`], after the scheduler has installed the job's initial
/// CPU binding, so a space-shared job first-touches its pages inside its
/// partition rather than across the whole machine.
#[derive(Clone)]
pub struct BenchRun {
    rt: Runtime,
    bench: Box<dyn NasBenchmark>,
    upm: Option<UpmEngine>,
    recrep: bool,
    trace: bool,
    fastpath: bool,
    placement_label: String,
    engine_label: String,
    started: bool,
    /// Step 0's kernel text has run and its engine work has not: the run
    /// is at its fork point ([`BenchRun::fork`]).
    at_fork: bool,
    step: usize,
    iters: usize,
    per_iter_secs: Vec<f64>,
    t_start: f64,
    /// Simulated time at which the current (or last) timed iteration began.
    t_step: f64,
    prev_migrations: u64,
    prev_cpu: ccnuma::CpuStats,
}

impl BenchRun {
    /// Build a run: configure the machine, install the placement policy and
    /// the engines, and allocate the benchmark via `make`. No simulated
    /// work happens until the first [`BenchRun::step`]. The runs of a
    /// process whose kernels have one name, problem and array layout
    /// install one proof set for their team, derived by the first of them
    /// ([`facts::proof_set`]), and after a resize the set of the new team —
    /// and share fast-path memos with every other run of that set on an
    /// equal machine through the set's memo library
    /// ([`ProofSet::library`]).
    pub fn new<B: NasBenchmark + 'static>(
        make: impl FnOnce(&mut Runtime) -> B,
        cfg: &RunConfig,
    ) -> Self {
        Self::boxed(|rt| Box::new(make(rt)), cfg)
    }

    /// [`BenchRun::new`] for a benchmark chosen by name: the paper's five
    /// kernels at one of the three problem scales (see [`instantiate`]).
    pub fn for_bench(bench: BenchName, scale: Scale, cfg: &RunConfig) -> Self {
        Self::boxed(|rt| instantiate(bench, rt, scale), cfg)
    }

    fn boxed(make: impl FnOnce(&mut Runtime) -> Box<dyn NasBenchmark>, cfg: &RunConfig) -> Self {
        let mut machine = Machine::new(cfg.machine.clone());
        install_placement(&mut machine, cfg.placement.clone());
        if cfg.trace {
            machine.set_trace(obs::TraceSink::enabled(TRACE_RING_CAPACITY));
        }
        let mut rt = Runtime::with_threads(machine, cfg.threads);
        if let EngineMode::IrixMig(kcfg) = &cfg.engine {
            rt.set_kernel_migration(KernelMigrationEngine::enabled(*kcfg));
        }
        let bench = make(&mut rt);
        let upm = match &cfg.engine {
            EngineMode::Upmlib(opts) | EngineMode::RecRep(opts) => {
                Some(upm_engine(&*bench, rt.machine(), *opts))
            }
            _ => None,
        };
        let iters = bench.iterations();
        Self {
            rt,
            bench,
            upm,
            recrep: matches!(cfg.engine, EngineMode::RecRep(_)),
            trace: cfg.trace,
            // Traced runs stay on the exact path: the fast path replays a
            // region without emitting its per-access events.
            fastpath: !cfg.trace,
            placement_label: cfg.placement.label().to_string(),
            engine_label: cfg.engine.label().to_string(),
            started: false,
            at_fork: false,
            step: 0,
            iters,
            per_iter_secs: Vec::with_capacity(iters),
            t_start: 0.0,
            t_step: 0.0,
            prev_migrations: 0,
            prev_cpu: ccnuma::CpuStats::default(),
        }
    }

    /// Force the phase fast path on or off for this run (it defaults to
    /// on; a traced run stays exact either way). Must be called before the
    /// first step (the cold start installs the proofs).
    pub fn set_fastpath(&mut self, on: bool) {
        assert!(!self.started, "set_fastpath after the run started");
        self.fastpath = on && !self.trace;
    }

    /// Make this run timing-only: from now on a turn the fast path has
    /// already applied in bulk is skipped (`omp::Runtime::set_timing_only`),
    /// and [`BenchRun::finish`] reports [`Verification::borrowed`] instead
    /// of verifying. Call it on a fresh run or on a forked child; a child
    /// forked from a timing-only run is timing-only too.
    pub fn set_timing_only(&mut self) {
        self.rt.set_timing_only();
    }

    /// Whether the phase fast path is enabled for this run.
    pub fn fastpath_enabled(&self) -> bool {
        self.fastpath
    }

    /// Fast-path engine counters (replays/records/misses/rejects), when the
    /// fast path is installed.
    pub fn fastpath_stats(&self) -> Option<ccnuma::FastpathStats> {
        self.rt.fastpath_stats()
    }

    /// Cold-start iteration: executed, then discarded (paper §2.1).
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let model = self.fastpath.then(|| self.bench.access_model());
        let armed = model.map(|model| shared(&*self.bench, &self.rt, &model));
        // Arm the fast path for the cold start too: cold and timed phases
        // share loop labels, so cold recordings seed the iteration memos.
        if let Some((proofs, library)) = &armed {
            self.rt.install_fastpath(&proofs.cold, library);
        }
        self.bench.cold_start(&mut self.rt);
        if let Some((proofs, library)) = &armed {
            self.rt.install_fastpath(&proofs.iteration, library);
        }
        if self.upm.is_some() || self.forks() {
            // Reference monitoring starts with the timed run (upmlib reads
            // and resets the counters per observation window). A run that
            // can fork resets them too, so that every engine's run is in
            // one state at the fork point.
            let m = self.rt.machine();
            upm_engine(&*self.bench, m, UpmOptions::default()).reset_counters(m);
        }
        self.t_start = self.rt.machine().clock().now_secs();
        self.prev_migrations = self.rt.machine().stats().page_migrations;
        self.prev_cpu = self.rt.machine().aggregate_cpu_stats();
    }

    /// A runtime that lost its engine — `Runtime::resize_team` drops it,
    /// the proofs being the old team's — gets the timed iteration's proofs
    /// for the team it has now ([`facts::proof_set`] is keyed by team), and
    /// that team's memo library: a resize back finds the memos its team
    /// published.
    fn rearm_fastpath(&mut self) {
        if !self.fastpath || self.rt.fastpath_stats().is_some() {
            return;
        }
        let (proofs, library) = shared(&*self.bench, &self.rt, &self.bench.access_model());
        self.rt.install_fastpath(&proofs.iteration, &library);
    }

    /// Whether every timed iteration has run.
    pub fn is_done(&self) -> bool {
        self.step >= self.iters
    }

    /// Timed iterations completed so far.
    pub fn steps_done(&self) -> usize {
        self.step
    }

    /// The runtime (clock, statistics, current binding).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Mutable runtime access — the scheduler's rebind/resize entry point.
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    /// The UPMlib engine, when one is attached.
    pub fn upm(&self) -> Option<&UpmEngine> {
        self.upm.as_ref()
    }

    /// Scheduler-aware UPMlib response, forget-and-relearn flavour: re-arm
    /// the engine so the next observation windows re-learn the placement
    /// under the new thread binding. No-op without an engine.
    pub fn rearm_upm(&mut self) {
        if let Some(engine) = &mut self.upm {
            engine.reactivate(self.rt.machine());
        }
    }

    /// Scheduler-aware UPMlib response, record–replay flavour: replay the
    /// tuned placement under the new binding ("page migration follows
    /// thread migration"), falling back to forget-and-relearn when the
    /// thread moves induce no consistent node map. Returns pages moved.
    pub fn upm_follow_rebind(&mut self, old: &[usize], new: &[usize]) -> usize {
        match &mut self.upm {
            Some(engine) => engine.follow_rebind(self.rt.machine_mut(), old, new),
            None => 0,
        }
    }

    /// Run one timed iteration (running the cold start first if this is
    /// the first step; a run at its fork point finishes that step). Returns
    /// the iteration's simulated seconds.
    pub fn step(&mut self) -> f64 {
        let mut noop = |_: &mut Runtime, _: PhasePoint| {};
        self.step_with(&mut noop)
    }

    /// [`BenchRun::step`] with an extra phase hook, invoked at the
    /// benchmark's phase-transition points in addition to the engine
    /// protocol hooks — the scheduler's intra-iteration yield points (a
    /// quantum expiring mid-iteration stages its rebinding here via
    /// `Runtime::request_rebind`).
    pub fn step_with(&mut self, extra: &mut PhaseHook<'_>) -> f64 {
        if !std::mem::take(&mut self.at_fork) {
            self.iterate(extra);
        }
        self.after_iterate();
        self.close_step()
    }

    /// The current step's kernel text, with the engine's phase hooks and
    /// `extra` at its phase points.
    fn iterate(&mut self, extra: &mut PhaseHook<'_>) {
        self.ensure_started();
        self.rearm_fastpath();
        assert!(self.step < self.iters, "stepping a finished run");
        self.t_step = self.rt.machine().clock().now_secs();
        let Self { rt, bench, upm, .. } = self;
        match (upm.as_mut(), self.recrep, self.step) {
            // Figure 3 protocol, second iteration: record phases.
            (Some(engine), true, 1) => {
                let mut hook = |rt: &mut Runtime, pp: PhasePoint| {
                    engine.record(rt.machine());
                    extra(rt, pp);
                };
                bench.iterate(rt, &mut hook);
            }
            // Figure 3 protocol, later iterations: replay at the phases.
            (Some(engine), true, 2..) => {
                let mut hook = |rt: &mut Runtime, pp: PhasePoint| {
                    if matches!(pp, PhasePoint::Before(_)) {
                        engine.replay(rt.machine_mut());
                    }
                    extra(rt, pp);
                };
                bench.iterate(rt, &mut hook);
            }
            _ => bench.iterate(rt, extra),
        }
    }

    /// The engine's work after the current step's iteration.
    fn after_iterate(&mut self) {
        let Some(engine) = &mut self.upm else {
            return; // plain and IRIXmig runs
        };
        let m = self.rt.machine_mut();
        match (self.recrep, self.step) {
            // Figure 2 protocol: migrate after iteration 1 and while the
            // engine keeps finding work.
            (false, _) => {
                if engine.is_active() {
                    engine.migrate_memory(m);
                }
            }
            // Figure 3 protocol: distribution pass after iteration 1, the
            // recorded phases compared after iteration 2, and every later
            // iteration's replays undone.
            (true, 0) => {
                engine.migrate_memory(m);
            }
            (true, 1) => {
                engine.compare_counters();
            }
            (true, _) => {
                engine.undo(m);
            }
        }
    }

    /// Account the current step as done: its simulated seconds, and its
    /// iteration-boundary event when traced.
    fn close_step(&mut self) -> f64 {
        let step = self.step;
        let elapsed = self.rt.machine().clock().now_secs() - self.t_step;
        self.per_iter_secs.push(elapsed);
        if self.trace {
            let migrations = self.rt.machine().stats().page_migrations - self.prev_migrations;
            self.prev_migrations = self.rt.machine().stats().page_migrations;
            let cpu = self.rt.machine().aggregate_cpu_stats();
            let local = cpu.mem_local - self.prev_cpu.mem_local;
            let remote = cpu.mem_remote - self.prev_cpu.mem_remote;
            let stall_ns = cpu.stall_ns - self.prev_cpu.stall_ns;
            self.prev_cpu = cpu;
            let total = local + remote;
            let remote_fraction = if total == 0 {
                0.0
            } else {
                remote as f64 / total as f64
            };
            self.rt
                .machine_mut()
                .trace_event(|| obs::EventKind::IterationBoundary {
                    iter: step,
                    migrations,
                    remote_fraction,
                    stall_ns,
                });
        }
        self.step += 1;
        elapsed
    }

    /// Whether this run can fork: it is untraced (a traced run reports
    /// counter spills) and has no kernel engine (which reads the counters
    /// from the cold start on).
    fn forks(&self) -> bool {
        !self.trace && !self.rt.kernel_migration().is_enabled()
    }

    /// A run of `engine` that has done what this one did, forked at the
    /// fork point: the end of the first timed iteration's kernel text,
    /// before the engine's work after it. An unstarted run is brought
    /// there first. The child owns copies of the machine, runtime and
    /// benchmark, shares the fast-path memos, does its engine's work from
    /// there on (a UPMlib engine is built fresh, with `engine`'s options),
    /// and equals a fresh run of its configuration in every byte of its
    /// result. Only untraced runs without the kernel engine fork, and only
    /// into such runs.
    pub fn fork(&mut self, engine: &EngineMode) -> BenchRun {
        assert!(
            self.forks() && !matches!(engine, EngineMode::IrixMig(_)),
            "traced and kernel-engine runs do not fork"
        );
        if !self.at_fork {
            assert_eq!(
                self.step, 0,
                "a run forks after its first timed iteration's kernel text"
            );
            self.iterate(&mut |_: &mut Runtime, _: PhasePoint| {});
            self.at_fork = true;
        }
        let upm = match engine {
            EngineMode::Upmlib(opts) | EngineMode::RecRep(opts) => {
                Some(upm_engine(&*self.bench, self.rt.machine(), *opts))
            }
            _ => None,
        };
        BenchRun {
            upm,
            recrep: matches!(engine, EngineMode::RecRep(_)),
            engine_label: engine.label().to_string(),
            ..self.clone()
        }
    }

    /// Run every remaining iteration, then [`BenchRun::finish`].
    pub fn complete(mut self) -> RunResult {
        while !self.is_done() {
            self.step();
        }
        self.finish()
    }

    /// Finish the run: verification (borrowed by a timing-only run),
    /// statistics, trace detachment.
    pub fn finish(mut self) -> RunResult {
        self.ensure_started(); // a zero-iteration run still cold-starts
        let total_secs = self.rt.machine().clock().now_secs() - self.t_start;
        let agg = self.rt.machine().aggregate_cpu_stats();
        let upm_stats = self.upm.as_ref().map(|e| e.stats().clone());
        RunResult {
            bench: self.bench.name(),
            placement: self.placement_label,
            engine: self.engine_label,
            total_secs,
            per_iter_secs: self.per_iter_secs,
            verification: if self.rt.timing_only() {
                Verification::borrowed()
            } else {
                self.bench.verify()
            },
            upm: upm_stats.clone(),
            kernel_migrations: self.rt.kernel_migration().stats().migrations,
            remote_fraction: agg.remote_fraction(),
            recrep_overhead_secs: upm_stats.map(|s| s.recrep_ns * 1e-9).unwrap_or(0.0),
            trace: self.rt.machine_mut().take_trace(),
        }
    }
}

impl std::fmt::Debug for BenchRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenchRun")
            .field("bench", &self.bench.name())
            .field("step", &self.step)
            .field("iters", &self.iters)
            .finish_non_exhaustive()
    }
}

/// The UPMlib engine of a run of `bench` on `machine`, its hot arrays
/// registered.
fn upm_engine(bench: &dyn NasBenchmark, machine: &Machine, opts: UpmOptions) -> UpmEngine {
    let mut engine = UpmEngine::new(machine, opts);
    bench.register_hot(&mut engine);
    engine
}

/// Allocate `bench` at `scale` on `rt`'s machine — the one place that maps
/// a [`BenchName`] to its constructor.
pub fn instantiate(bench: BenchName, rt: &mut Runtime, scale: Scale) -> Box<dyn NasBenchmark> {
    match bench {
        BenchName::Bt => Box::new(crate::bt::Bt::new(rt, scale)),
        BenchName::Sp => Box::new(crate::sp::Sp::new(rt, scale)),
        BenchName::Cg => Box::new(crate::cg::Cg::new(rt, scale)),
        BenchName::Mg => Box::new(crate::mg::Mg::new(rt, scale)),
        BenchName::Ft => Box::new(crate::ft::Ft::new(rt, scale)),
    }
}

/// What a run of `bench` installs on `rt`'s team: the process's proof set
/// for it ([`facts::proof_set`]) and the set's memo library for `rt`'s
/// machine ([`ProofSet::library`]), which every such run shares.
fn shared(
    bench: &dyn NasBenchmark,
    rt: &Runtime,
    model: &KernelModel,
) -> (Arc<ProofSet>, MemoLibrary) {
    let proofs = facts::proof_set(bench, rt.threads(), model);
    let library = proofs.library(rt.machine().config());
    (proofs, library)
}

/// Run one benchmark under one configuration. `make` allocates the
/// benchmark's arrays on the freshly configured machine.
pub fn run_benchmark<B: NasBenchmark + 'static>(
    make: impl FnOnce(&mut Runtime) -> B,
    cfg: &RunConfig,
) -> RunResult {
    BenchRun::new(make, cfg).complete()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_labels() {
        assert_eq!(EngineMode::None.label(), "IRIX");
        assert_eq!(EngineMode::IrixMig(Default::default()).label(), "IRIXmig");
        assert_eq!(EngineMode::Upmlib(Default::default()).label(), "upmlib");
        assert_eq!(EngineMode::RecRep(Default::default()).label(), "recrep");
    }

    #[test]
    fn last75_mean() {
        let r = RunResult {
            bench: BenchName::Bt,
            placement: "ft".into(),
            engine: "IRIX".into(),
            total_secs: 0.0,
            per_iter_secs: vec![10.0, 1.0, 1.0, 3.0],
            verification: Verification::check(0.0, 0.0, 1e-6),
            upm: None,
            kernel_migrations: 0,
            remote_fraction: 0.0,
            recrep_overhead_secs: 0.0,
            trace: None,
        };
        // Last 75% of 4 iterations = last 3.
        assert!((r.last75_mean_secs() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.label(), "ft-IRIX");
    }
}
