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
//! The residue runs as **fork chains**. Under the paper's protocols the
//! IRIX, UPMlib and record–replay runs of one problem and placement are in
//! one state at their fork point ([`nas::BenchRun::fork`]), so the pending
//! grid cells that differ only in those engines
//! ([`crate::grid::fork_chains`]) are one pool job: each cell's run is
//! forked from the one before it. A chain of one is a cell's own run, and
//! every cell is one when the plan is traced or has fewer than
//! [`CHAIN_SPREAD`] jobs per worker.
//! The job times each cell's share of its work, and the merge gives the
//! chain's first cell the rest of the job's wall, so the cells' walls sum
//! to the pool's.
//!
//! A panicking cell is caught once, by the pool ([`exec`]'s job runner):
//! it surfaces as an `Err` output (a failed *row* in the report), never a
//! dead run, and never poisons sibling cells — except the cells of its
//! own chain, which fail with it.

use crate::cache::CellCodec;
use crate::grid;
use crate::session::{ErasedResult, Session};
use exec::{Job, JobPanic, ResidentJob};
use std::sync::Arc;
use std::time::Instant;

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
    /// A grid cell that still needs local computation, in a fork chain.
    Run(Box<grid::Cell>),
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
        // A traced run must execute, and its result carries a tracer that
        // the cache encoding drops: a traced plan asks no table, cache or
        // server and forms no chain.
        let traced = crate::trace::dir().is_some();
        let (cache, table, client) = if traced {
            (None, None, None)
        } else {
            (
                crate::cache::installed(),
                crate::session::remembering(),
                crate::remote::installed(),
            )
        };
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
        // just stays pending and computes locally.
        if let Some(client) = client {
            let indices: Vec<usize> = cells
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_pending() && c.spec.is_some())
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

        // Phase 3 — compute the residue as one batch on a session's pool:
        // one job per fork chain of grid cells and per other cell, in the
        // plan order of their first cells.
        let grid_cells: Vec<(usize, &grid::Cell)> = (cells.iter().enumerate())
            .filter_map(|(i, c)| match &c.job_state {
                CellState::Run(cell) => Some((i, &**cell)),
                _ => None,
            })
            .collect();
        let mut members = grid::fork_chains(&grid_cells);
        let others: Vec<usize> = (0..cells.len())
            .filter(|&i| matches!(cells[i].job_state, CellState::Pending(_)))
            .collect();
        let workers = crate::jobs::get();
        if traced || workers > 1 && members.len() + others.len() < CHAIN_SPREAD * workers {
            members = grid_cells.iter().map(|&(i, _)| vec![i]).collect();
        }
        members.extend(others.into_iter().map(|i| vec![i]));
        members.sort_by_key(|m| m.iter().min().copied());
        let jobs: Vec<_> = (members.iter())
            .map(|m| {
                let mut take = |i: usize| {
                    let state = std::mem::replace(&mut cells[i].job_state, CellState::Dispatched);
                    (cells[i].id.clone(), state)
                };
                match take(m[0]) {
                    (id, CellState::Pending(job)) => wrap_cell(id, job),
                    first => {
                        chain_job(std::iter::once(first).chain(m[1..].iter().map(|&i| take(i))))
                    }
                }
            })
            .collect();
        let mut outcomes: Vec<Option<(Result<ErasedResult, JobPanic>, f64)>> =
            (0..cells.len()).map(|_| None).collect();
        if !jobs.is_empty() {
            let (runs, telemetry) = crate::session::for_plan(jobs.len()).run(jobs);
            for (timed, m) in runs.into_iter().zip(&members) {
                // The pool measured the wall time around the whole job, so a
                // panicking chain still reports how long it ran, split among
                // its cells; its panic names the batch position, each
                // output its plan position.
                match timed.result {
                    Ok(erased) => {
                        let done = *erased
                            .downcast::<Members>()
                            .expect("a job returns its members");
                        let rest: f64 = done[1..].iter().map(|(_, secs)| secs).sum();
                        for (k, ((value, secs), &i)) in done.into_iter().zip(m).enumerate() {
                            let wall = if k == 0 { timed.wall_secs - rest } else { secs };
                            outcomes[i] = Some((Ok(value), wall));
                        }
                    }
                    Err(p) => {
                        for &i in m {
                            let p = JobPanic {
                                index: i,
                                ..p.clone()
                            };
                            outcomes[i] = Some((Err(p), timed.wall_secs / m.len() as f64));
                        }
                    }
                }
            }
            let computed = outcomes.iter().flatten();
            let cell_walls: Vec<f64> = computed.clone().map(|(_, wall)| *wall).collect();
            let failed = computed.filter(|(value, _)| value.is_err()).count();
            crate::summary::record_plan(&telemetry, &cell_walls, failed);
        }

        // Phase 4 — merge in plan order: every spec cell that has a value
        // has its one merge step here, whichever source produced it.
        cells
            .into_iter()
            .zip(outcomes)
            .map(|(cell, outcome)| {
                let (value, source, wall_secs) = match (cell.job_state, outcome) {
                    (CellState::Resolved(value, source), _) => {
                        crate::summary::record_resolved_cell();
                        (Ok(value), source, 0.0)
                    }
                    (CellState::Dispatched, Some((value, wall))) => {
                        let value = value.map(|erased| {
                            *erased
                                .downcast::<T>()
                                .expect("a plan's batch returns its own cell type")
                        });
                        (value, Source::Computed, wall)
                    }
                    _ => unreachable!("pending cells were dispatched above"),
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
            job_state: CellState::Run(Box::new(cell)),
        });
    }
}

impl<T> Cell<T> {
    /// Whether the cell still needs local computation.
    fn is_pending(&self) -> bool {
        matches!(self.job_state, CellState::Pending(_) | CellState::Run(_))
    }
}

/// What one pool job returns: the value of each of its cells, in its
/// order, with the on-worker seconds spent on that cell.
type Members = Vec<(ErasedResult, f64)>;

/// Pool jobs per worker a plan needs for its cells to run in fork chains.
/// A chain runs its cells one after another on one worker, so a plan of
/// few jobs idles workers that would otherwise overlap them: Figure 6's
/// six medium cells as three chains took 25–30 % longer on two workers.
const CHAIN_SPREAD: usize = 4;

/// Run `work` for the cell `id`, timed, under the host-profiling root
/// `cell:<id>`: every span the cell opens (ccnuma/vmm/omp/upmlib) nests
/// under it on this worker's stack, and its inclusive time reconciles with
/// the cell's wall time.
fn on_cell<R>(id: &str, work: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let _hp = hostprof::span_named(|| format!("cell:{id}"));
    let r = work();
    (r, t.elapsed().as_secs_f64())
}

/// Wrap one cell's job for the shared pool, with the type erasure that
/// lets plans of different cell types share one pool.
fn wrap_cell<T: Send + 'static>(id: String, job: Job<'static, T>) -> ResidentJob<ErasedResult> {
    Box::new(move || {
        let (value, secs) = on_cell(&id, job);
        Box::new(vec![(Box::new(value) as ErasedResult, secs)] as Members) as ErasedResult
    })
}

/// The job of a fork chain ([`grid::fork_chains`]), given as its cells'
/// ids and states: the first cell's run is built, and each later cell's
/// run is forked from the one before it ([`nas::BenchRun::fork`] brings
/// an unstarted run to its fork point). A run finishes before its child
/// steps on, so the worker holds at most two.
fn chain_job<T>(chain: impl Iterator<Item = (String, CellState<T>)>) -> ResidentJob<ErasedResult> {
    let chain: Vec<(String, grid::Cell)> = chain
        .map(|(id, state)| match state {
            CellState::Run(cell) => (id, *cell),
            _ => unreachable!("a fork chain holds grid cells"),
        })
        .collect();
    Box::new(move || {
        let mut chain = chain.into_iter();
        let (mut id, mut root) = chain.next().expect("a chain has a cell");
        let (mut run, mut wall) = on_cell(&id, || root.build());
        let mut done = Members::new();
        for (child_id, child) in chain {
            // The prefix the child shares is its parent's work.
            let ((forked, result), secs) = on_cell(&id, || {
                let forked = run.fork(&child.cfg.engine);
                (forked, grid::complete(run))
            });
            done.push((Box::new(result), wall + secs));
            (id, run, wall) = (child_id, forked, 0.0);
        }
        let (result, rest) = on_cell(&id, || grid::complete(run));
        done.push((Box::new(result), wall + rest));
        Box::new(done) as ErasedResult
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
