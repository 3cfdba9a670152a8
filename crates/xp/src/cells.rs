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
//! A cell's job only computes its value. Cells added via
//! [`CellPlan::add_cell`] carry a [`svc::CellSpec`], and their value may
//! come from any of four sources, asked in this order: the open session's
//! cell table ([`crate::session`]), the result cache ([`crate::cache`]),
//! the resident server in client mode ([`crate::remote`]), and — for the
//! residue — the session's pool. Whichever source produced it, a spec
//! cell has its effects in one place, the **merge**, in plan order:
//! [`crate::cache::CachePayload::on_merge`] credits its simulated seconds
//! and writes its `--trace DIR` dump, and the merge stores it back to the
//! cache and records it in the session. So the accumulated float sum and
//! the trace file sequence follow plan order, and a fully resolved run
//! produces byte-identical artifacts to a cold one.
//!
//! A panicking cell is caught once, by the pool ([`exec`]'s job runner):
//! it surfaces as an `Err` output (a failed *row* in the report), never a
//! dead run, and never poisons sibling cells.

use crate::cache::CellCodec;
use crate::session::{ErasedResult, Session};
use exec::{Job, JobPanic, ResidentJob};
use std::sync::Arc;

/// One merged cell result, in plan order.
#[derive(Debug)]
pub struct CellOutput<T> {
    /// The cell's plan id (e.g. `cg:wc-upmlib`).
    pub id: String,
    /// The cell's value, or the panic that killed it.
    pub value: Result<T, JobPanic>,
    /// Host wall-clock seconds the cell took on its worker (0 for cells
    /// resolved without running here).
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
    /// Resolved without running here, by the source named.
    Resolved(T, Source),
    /// Still needs local computation.
    Pending(Job<'static, T>),
    /// The pending job has been moved to the worker pool.
    Dispatched,
}

/// Which source produced a spec cell's value: what its merge still owes
/// the cache and the session.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    Session,
    Cache,
    Server,
    Computed,
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

    /// Execute with the process-wide machinery — the session's table, the
    /// cache and the server first, then the residual cells on a session's
    /// pool ([`crate::session`]) — and merge in plan order: outputs come
    /// back in plan order, each spec cell has its one merge step there,
    /// and the plan's wall-clock statistics are credited to
    /// [`crate::summary`].
    pub fn execute(self) -> Vec<CellOutput<T>> {
        let cache = crate::cache::effective();
        let table = crate::session::remembering();
        let mut cells = self.cells;

        // Phase 1 — the session's table, then the cache. A payload that
        // does not decode is a miss (the recompute overwrites a cache
        // entry at merge).
        for cell in &mut cells {
            let (Some(spec), Some(codec)) = (&cell.spec, &cell.codec) else {
                continue;
            };
            let decode = |payload: obs::json::Value| (codec.decode)(&payload).ok();
            let recalled = table.as_ref().and_then(|s| s.recall(spec)).and_then(decode);
            let resolved = recalled.map(|v| (v, Source::Session)).or_else(|| {
                let hit = cache.as_ref()?.lookup(spec).and_then(decode)?;
                Some((hit, Source::Cache))
            });
            if let Some((value, source)) = resolved {
                cell.job_state = CellState::Resolved(value, source);
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
                                    cells[i].job_state = CellState::Resolved(value, Source::Server)
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
        let mut jobs = Vec::new();
        for cell in &mut cells {
            match std::mem::replace(&mut cell.job_state, CellState::Dispatched) {
                CellState::Pending(job) => jobs.push(wrap_cell(cell.id.clone(), job)),
                resolved => cell.job_state = resolved,
            }
        }
        let runs = if jobs.is_empty() {
            Vec::new()
        } else {
            let (runs, telemetry) = crate::session::for_plan(jobs.len()).run(jobs);
            let cell_walls: Vec<f64> = runs.iter().map(|t| t.wall_secs).collect();
            crate::summary::record_plan(&telemetry, &cell_walls);
            runs
        };

        // Phase 4 — merge in plan order: every spec cell that has a value
        // has its one merge step here, whichever source produced it.
        let mut runs = runs.into_iter();
        cells
            .into_iter()
            .enumerate()
            .map(|(index, cell)| {
                let (value, source, wall_secs) = match cell.job_state {
                    CellState::Resolved(value, source) => {
                        crate::summary::record_resolved_cell();
                        (Ok(value), source, 0.0)
                    }
                    CellState::Dispatched => {
                        // The pool measured the wall time around the whole
                        // job, so a panicking cell still reports how long
                        // it ran; its panic names the batch position, the
                        // output the plan position.
                        let timed = runs.next().expect("one pool result per pending cell");
                        let value = timed
                            .result
                            .map(|erased| {
                                *erased
                                    .downcast::<T>()
                                    .expect("a plan's batch returns its own cell type")
                            })
                            .map_err(|p| JobPanic { index, ..p });
                        (value, Source::Computed, timed.wall_secs)
                    }
                    CellState::Pending(_) => unreachable!("pending cells were dispatched above"),
                };
                if let (Ok(value), Some(spec), Some(codec)) = (&value, &cell.spec, &cell.codec) {
                    merge(value, source, spec, codec, &cache, &table);
                }
                CellOutput {
                    id: cell.id,
                    value,
                    wall_secs,
                }
            })
            .collect()
    }
}

impl CellPlan<nas::RunResult> {
    /// Append a cell the result service can resolve, both halves derived
    /// from one [`crate::grid::Cell`] so they cannot disagree: its spec is
    /// the cache key (and the plan id, via [`svc::CellSpec::cell_id`]),
    /// its `run` the local computation of record when no other source
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

/// Wrap one cell's job for the shared pool: the host-profiling root
/// `cell:<id>` — every span the cell opens (ccnuma/vmm/omp/upmlib) nests
/// under it on this worker's stack, and its inclusive time reconciles with
/// the pool-measured cell wall time — and the type erasure that lets plans
/// of different cell types share one pool.
fn wrap_cell<T: Send + 'static>(id: String, job: Job<'static, T>) -> ResidentJob<ErasedResult> {
    Box::new(move || {
        let _hp = hostprof::span_named(|| format!("cell:{id}"));
        Box::new(job()) as ErasedResult
    })
}

/// The merge step of one spec cell, at its plan position: its effects
/// ([`crate::cache::CachePayload::on_merge`]), then what keeps it — the
/// cache when it was computed (here or by a server), the session's table
/// when it did not come from there. A store failure degrades the cache,
/// not the run.
fn merge<T>(
    value: &T,
    source: Source,
    spec: &svc::CellSpec,
    codec: &CellCodec<T>,
    cache: &Option<svc::Cache>,
    table: &Option<Arc<Session>>,
) {
    (codec.on_merge)(value);
    let store = cache
        .as_ref()
        .filter(|_| matches!(source, Source::Computed | Source::Server));
    let remember = table.as_ref().filter(|_| source != Source::Session);
    if store.is_none() && remember.is_none() {
        return;
    }
    let payload = (codec.encode)(value);
    if let Some(cache) = store {
        if let Err(e) = cache.store(spec, &payload) {
            eprintln!("[cache] store failed for {spec}: {e}");
        }
    }
    if let Some(session) = remember {
        session.remember(spec, payload);
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
        let _gate = crate::summary::gate::exact();
        // Whatever order cells finish in, the merged accumulator sees the
        // same fixed-order float sum: the outputs' own, in plan order.
        let total = |workers: usize| {
            crate::summary::take();
            let mut plan = CellPlan::new();
            for cell in crate::fig1::cells(nas::BenchName::Mg, nas::Scale::Tiny, false) {
                plan.add_cell(cell);
            }
            let out = crate::jobs::with_pinned(workers, || plan.execute());
            let credited = crate::summary::take().sim_secs.to_bits();
            let in_order = out.iter().map(|c| c.ok().unwrap().total_secs);
            assert_eq!(credited, in_order.fold(0.0, |sum, s| sum + s).to_bits());
            credited
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
