//! The `CellPlan → execute → Report` pipeline every experiment runs on.
//!
//! An experiment is a grid of independent **cells** — `(benchmark,
//! placement, engine, scale, seed)` points, each of which builds its own
//! simulated machine. A [`CellPlan`] is the ordered list of those cells;
//! [`CellPlan::execute`] fans them out over an [`exec`] pool (`--jobs N`
//! workers, see [`crate::jobs`]) and hands back one
//! [`CellOutput`] per cell **in plan order**, so the report a caller
//! builds from the outputs is byte-identical whatever the worker count.
//!
//! The pipeline preserves the two process-global side channels that used
//! to be updated mid-run, by making them cell-local and re-playing them
//! at merge time in plan order:
//!
//! * **Simulated seconds** ([`crate::summary`]): `add_sim_secs` calls made
//!   while a cell runs are credited to that cell's context and added to
//!   the global accumulator at merge, so the final sum is a fixed-order
//!   float reduction — bit-identical across worker counts.
//! * **Trace dumps** ([`crate::trace`]): `--trace DIR` dumps are buffered
//!   per cell and written at merge, so trace file sequence numbers follow
//!   plan order, not scheduling order.
//!
//! Each cell additionally runs under `catch_unwind`: a panicking cell
//! surfaces as an `Err` output (a failed *row* in the report), never a
//! dead run, and never poisons sibling cells.
//!
//! Cells added via [`CellPlan::add_cell`] carry a [`svc::CellSpec`] and
//! participate in the result service on top of the local pipeline.
//! Before anything is dispatched to a worker pool, `execute` resolves
//! spec-carrying cells against the installed result cache
//! ([`crate::cache`]) and, in client mode, offers the remainder to the
//! resident server as one batch ([`crate::remote`]); only the cells
//! neither source can satisfy are computed here. Resolved cells replay
//! their side effects at their canonical merge position, so a fully
//! cached run produces byte-identical artifacts to a cold one. The
//! residual computation runs as one batch on a session's pool
//! ([`crate::session`]): the open sweep session's, or one scoped to the
//! plan.

use crate::cache::CellCodec;
use crate::session::ErasedResult;
use exec::{Job, JobPanic, ResidentJob};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-cell context, installed on the worker thread for the duration of
/// one cell: collects what the cell's runs credit to the process-globals.
#[derive(Default)]
struct CellCtx {
    sim_secs: f64,
    traces: Vec<crate::trace::PendingTrace>,
}

thread_local! {
    static CTX: RefCell<Option<CellCtx>> = const { RefCell::new(None) };
}

/// Credit simulated seconds to the active cell, if any. Returns `false`
/// when no cell is active (caller falls back to the process-global).
pub(crate) fn credit_sim_secs(secs: f64) -> bool {
    CTX.with(|ctx| match ctx.borrow_mut().as_mut() {
        Some(c) => {
            c.sim_secs += secs;
            true
        }
        None => false,
    })
}

/// Defer a trace dump to the active cell's buffer, if any. Returns the
/// trace back when no cell is active (caller writes it immediately).
pub(crate) fn defer_trace(trace: crate::trace::PendingTrace) -> Option<crate::trace::PendingTrace> {
    CTX.with(|ctx| match ctx.borrow_mut().as_mut() {
        Some(c) => {
            c.traces.push(trace);
            None
        }
        None => Some(trace),
    })
}

/// What one executed cell produced, before the merge replays its side
/// effects. The cell's wall time is **not** here: the pool measures it
/// around the whole job ([`exec::TimedResult`]), so it exists even when
/// the wrapper itself dies.
struct CellRun<T> {
    value: Result<T, String>,
    sim_secs: f64,
    traces: Vec<crate::trace::PendingTrace>,
}

/// One merged cell result, in plan order.
#[derive(Debug)]
pub struct CellOutput<T> {
    /// The cell's plan id (e.g. `cg:wc-upmlib`).
    pub id: String,
    /// The cell's value, or the panic that killed it.
    pub value: Result<T, JobPanic>,
    /// Host wall-clock seconds the cell took on its worker (0 for cells
    /// resolved from the cache or a server).
    pub wall_secs: f64,
}

impl<T> CellOutput<T> {
    /// The value, panicking with the cell's id on a failed cell — for
    /// callers (tests, helper APIs) that require a complete grid.
    pub fn expect_ok(self) -> T {
        match self.value {
            Ok(v) => v,
            Err(p) => panic!("cell {} failed: {}", self.id, p.message),
        }
    }

    /// The value as `Option`, dropping the panic.
    pub fn ok(&self) -> Option<&T> {
        self.value.as_ref().ok()
    }
}

/// One planned cell: id, the job that computes it, and — for cells the
/// result service can resolve — the spec naming it and the codec that
/// round-trips its value.
struct Cell<T> {
    id: String,
    spec: Option<svc::CellSpec>,
    codec: Option<CellCodec<T>>,
    job_state: CellState<T>,
}

/// Where one cell's value will come from, decided during resolution.
enum CellState<T> {
    /// Resolved without local computation (cache hit or server result).
    /// `store` marks server-computed values the local cache should keep.
    Resolved { value: T, store: bool },
    /// Still needs local computation.
    Pending(Job<'static, T>),
    /// The pending job has been moved to the worker pool.
    Dispatched,
}

/// An ordered list of independent experiment cells.
pub struct CellPlan<T> {
    cells: Vec<Cell<T>>,
}

impl<T: Send + 'static> Default for CellPlan<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + 'static> CellPlan<T> {
    /// An empty plan.
    pub fn new() -> Self {
        CellPlan { cells: Vec::new() }
    }

    /// Append a cell. `id` names the cell in failed rows and diagnostics;
    /// the position in the plan is the cell's canonical merge position.
    pub fn add(&mut self, id: impl Into<String>, job: impl FnOnce() -> T + Send + 'static) {
        self.cells.push(Cell {
            id: id.into(),
            spec: None,
            codec: None,
            job_state: CellState::Pending(Box::new(job)),
        });
    }

    /// Number of cells planned.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Execute with the process-wide machinery — cache and client
    /// resolution first, then the residual cells on a session's pool
    /// ([`crate::session`]) — and merge: outputs come back in plan order,
    /// each cell's deferred sim-seconds and trace dumps are replayed in
    /// plan order, and the plan's wall-clock statistics are credited to
    /// [`crate::summary`].
    pub fn execute(self) -> Vec<CellOutput<T>> {
        let cache = crate::cache::effective();
        let mut cells = self.cells;

        // Phase 1 — cache resolution. A lookup that decodes cleanly is a
        // hit; an undecodable payload is treated as a miss (the recompute
        // overwrites the entry at merge).
        if let Some(cache) = &cache {
            for cell in &mut cells {
                let (Some(spec), Some(codec)) = (&cell.spec, &cell.codec) else {
                    continue;
                };
                if let Some(value) = cache.lookup(spec).and_then(|p| (codec.decode)(&p).ok()) {
                    cell.state_resolve(value, false);
                }
            }
        }

        // Phase 2 — client dispatch: offer every still-pending
        // spec-carrying cell to the server as one batch. Failure is never
        // fatal at either granularity — a dead batch or a refused cell
        // just stays pending and computes locally. Traced runs never
        // dispatch: server results carry no tracer (same reason the cache
        // is bypassed).
        if let Some(client) = crate::remote::installed().filter(|_| crate::trace::dir().is_none()) {
            let indices: Vec<usize> = cells
                .iter()
                .enumerate()
                .filter(|(_, c)| matches!(c.job_state, CellState::Pending(_)) && c.spec.is_some())
                .map(|(i, _)| i)
                .collect();
            if !indices.is_empty() {
                let specs: Vec<svc::CellSpec> = indices
                    .iter()
                    .map(|&i| cells[i].spec.clone().expect("filtered on spec"))
                    .collect();
                let mut progress = crate::remote::Progress::new();
                match client.run_cells(&specs, |p| progress.update(p)) {
                    Ok(outcomes) => {
                        progress.finish(client.addr());
                        for (&i, outcome) in indices.iter().zip(outcomes) {
                            let codec = cells[i].codec.expect("spec cells carry a codec");
                            match outcome.result.and_then(|p| (codec.decode)(&p)) {
                                Ok(value) => {
                                    // Keep server-computed values in the
                                    // local cache too (when one is on).
                                    cells[i].state_resolve(value, cache.is_some());
                                }
                                Err(e) => {
                                    eprintln!("[svc] cell {}: {e}; computing locally", cells[i].id)
                                }
                            }
                        }
                    }
                    Err(e) => eprintln!("[svc] falling back to local execution: {e}"),
                }
            }
        }

        // Phase 3 — compute the residue as one batch on a session's pool.
        let mut pending = Vec::new();
        for cell in &mut cells {
            let state = std::mem::replace(&mut cell.job_state, CellState::Dispatched);
            match state {
                CellState::Pending(job) => pending.push((cell.id.clone(), job)),
                resolved => cell.job_state = resolved,
            }
        }
        let runs = if pending.is_empty() {
            Vec::new()
        } else {
            let session = crate::session::for_plan(pending.len());
            let jobs = pending
                .into_iter()
                .map(|(id, job)| wrap_cell(id, job, Arc::clone(session.sim_done_us())))
                .collect();
            let (runs, telemetry) = session.run(jobs);
            let cell_walls: Vec<f64> = runs.iter().map(|t| t.wall_secs).collect();
            crate::summary::record_plan(&telemetry, &cell_walls);
            runs
        };

        // Phase 4 — merge in plan order. Resolved cells replay their side
        // effects here, at the exact position a computed run would have;
        // freshly computed spec-carrying cells are stored back.
        let mut runs = runs.into_iter();
        cells
            .into_iter()
            .enumerate()
            .map(|(index, cell)| match cell.job_state {
                CellState::Resolved { value, store } => {
                    crate::summary::record_resolved_cell();
                    if let Some(codec) = &cell.codec {
                        (codec.replay)(&value);
                    }
                    if store {
                        store_back(&cache, &cell.spec, &cell.codec, &value);
                    }
                    CellOutput {
                        id: cell.id,
                        value: Ok(value),
                        wall_secs: 0.0,
                    }
                }
                CellState::Dispatched => {
                    let timed = runs.next().expect("one pool result per pending cell");
                    // The pool measured the wall time around the whole
                    // job, so a panicking cell — even a dead *wrapper* —
                    // still reports how long it ran before dying.
                    let wall_secs = timed.wall_secs;
                    // The wrapper catches the cell's panic itself, so a
                    // pool-level Err means the wrapper died — re-surface
                    // it as a message.
                    let run = match timed.result {
                        Ok(erased) => *erased
                            .downcast::<CellRun<T>>()
                            .expect("a plan's batch returns its own cell type"),
                        Err(p) => CellRun {
                            value: Err(p.message),
                            sim_secs: 0.0,
                            traces: Vec::new(),
                        },
                    };
                    crate::summary::add_sim_secs(run.sim_secs);
                    for trace in run.traces {
                        crate::trace::write_pending(trace);
                    }
                    if let Ok(value) = &run.value {
                        store_back(&cache, &cell.spec, &cell.codec, value);
                    }
                    CellOutput {
                        id: cell.id,
                        value: run.value.map_err(|message| JobPanic { index, message }),
                        wall_secs,
                    }
                }
                CellState::Pending(_) => unreachable!("pending cells were dispatched above"),
            })
            .collect()
    }
}

impl CellPlan<nas::RunResult> {
    /// Append a cell the result service can resolve, both halves derived
    /// from one [`crate::grid::Cell`] so they cannot disagree: its spec is
    /// the cache key (and the plan id, via [`svc::CellSpec::cell_id`]),
    /// its `run` the local computation of record when no cache or server
    /// satisfies it.
    pub fn add_cell(&mut self, cell: crate::grid::Cell) {
        let spec = cell.spec();
        self.cells.push(Cell {
            id: spec.cell_id(),
            spec: Some(spec),
            codec: Some(crate::cache::codec_for()),
            job_state: CellState::Pending(Box::new(move || cell.run())),
        });
    }
}

impl<T> Cell<T> {
    fn state_resolve(&mut self, value: T, store: bool) {
        self.job_state = CellState::Resolved { value, store };
    }
}

/// Wrap one cell's job with the per-cell machinery: host-profiling root,
/// cell context for deferred side effects, `catch_unwind`, and the type
/// erasure that lets plans of different cell types share one pool.
fn wrap_cell<T: Send + 'static>(
    id: String,
    job: Job<'static, T>,
    sim_done_us: Arc<AtomicU64>,
) -> ResidentJob<ErasedResult> {
    Box::new(move || {
        // Host-profiling root for this cell: every span the cell opens
        // (ccnuma/vmm/omp/upmlib) nests under `cell:<id>` on this
        // worker's stack, and the root's inclusive time reconciles with
        // the pool-measured cell wall time.
        let _hp = hostprof::span_named(|| format!("cell:{id}"));
        CTX.with(|ctx| *ctx.borrow_mut() = Some(CellCtx::default()));
        let value =
            catch_unwind(AssertUnwindSafe(job)).map_err(|p| exec::panic_message(p.as_ref()));
        let ctx = CTX
            .with(|ctx| ctx.borrow_mut().take())
            .expect("cell context installed above");
        sim_done_us.fetch_add((ctx.sim_secs * 1e6) as u64, Ordering::Relaxed);
        Box::new(CellRun {
            value,
            sim_secs: ctx.sim_secs,
            traces: ctx.traces,
        })
    })
}

/// Store a freshly computed spec-carrying value back to the cache. A
/// store failure degrades the cache, not the run.
fn store_back<T>(
    cache: &Option<svc::Cache>,
    spec: &Option<svc::CellSpec>,
    codec: &Option<CellCodec<T>>,
    value: &T,
) {
    let (Some(cache), Some(spec), Some(codec)) = (cache, spec, codec) else {
        return;
    };
    if let Err(e) = cache.store(spec, &(codec.encode)(value)) {
        eprintln!("[cache] store failed for {spec}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_follow_plan_order_for_any_worker_count() {
        for workers in [1usize, 2, 7] {
            let mut plan = CellPlan::new();
            for i in 0..13usize {
                plan.add(format!("cell-{i}"), move || i * i);
            }
            let out = crate::jobs::with_pinned(workers, || plan.execute());
            let values: Vec<usize> = out.into_iter().map(|c| c.expect_ok()).collect();
            assert_eq!(values, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sim_secs_are_replayed_in_plan_order() {
        // Whatever order cells finish in, the merged accumulator sees the
        // same fixed-order float sum.
        let total = |workers: usize| {
            crate::summary::take();
            let mut plan = CellPlan::new();
            for i in 0..20usize {
                plan.add(format!("c{i}"), move || {
                    crate::summary::add_sim_secs(0.1 + (i as f64) * 1e-13);
                });
            }
            crate::jobs::with_pinned(workers, || plan.execute());
            crate::summary::take().sim_secs.to_bits()
        };
        assert_eq!(total(1), total(5));
    }

    #[test]
    fn a_failed_cell_is_an_err_output_not_a_dead_plan() {
        let mut plan = CellPlan::new();
        plan.add("good-1", || 1usize);
        plan.add("bad", || panic!("boom"));
        plan.add("good-2", || 2usize);
        let out = crate::jobs::with_pinned(2, || plan.execute());
        assert_eq!(out[0].ok(), Some(&1));
        let err = out[1].value.as_ref().unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.message.contains("boom"));
        assert_eq!(out[2].ok(), Some(&2));
    }
}
