//! The `CellPlan → execute → Report` pipeline every experiment runs on.
//!
//! A [`CellPlan`] is an ordered list of independent entries: grid **cells**
//! ([`CellPlan::add_cell`]) — `(benchmark, placement, engine, scale, seed)`
//! points, each of which builds its own simulated machine — and **jobs**
//! ([`CellPlan::add`]): multiprog's schedules, the synthetic kernels, Table
//! 1's probe, unkeyed and never forked or borrowed. [`CellPlan::execute`]
//! runs them on one [`exec`] pool (`--jobs N` workers, see [`crate::jobs`])
//! and hands back one [`CellOutput`] per entry **in plan order**, so the
//! report a caller builds from the outputs is byte-identical whatever the
//! worker count.
//!
//! A grid cell's value is a [`nas::RunResult`] until its output is handed
//! back. It may come from any of three sources, asked in this order: the
//! result cache ([`crate::cache`]), the resident server in client mode
//! ([`crate::remote`]), and — for the residue — the pool. Whichever source
//! produced it, a grid cell has its effects in one place, the **merge**, in
//! plan order: its `--trace DIR` dump, and a computed run's store to the
//! cache. So trace files follow plan order, and a fully resolved run
//! produces byte-identical artifacts to a cold one. The plan credits its
//! pool telemetry and cell walls to the [`crate::summary::Tally`] its
//! caller hands it; simulated seconds are credited from the outputs
//! ([`crate::summary::credit_sweep`]).
//!
//! The residue runs as **fork chains**. Under the paper's protocols the
//! IRIX, UPMlib and record–replay runs of one problem and placement are in
//! one state at their fork point ([`nas::BenchRun::fork`]), so the pending
//! grid cells that differ only in those engines
//! ([`crate::grid::fork_chains`]) are one pool job: each cell's run is
//! forked from the one before it. A chain of one is a cell's own run, and
//! every cell is one when the plan is traced or, on more than one worker,
//! has fewer than [`CHAIN_SPREAD`] jobs per worker.
//! The job times each cell's share of its work, and the merge gives the
//! chain's first cell the rest of the job's wall, so the cells' walls sum
//! to the pool's.
//!
//! The residue computes each problem's **numerics once**. Placement and
//! engine change a run's time, never its result, so of the untraced grid
//! cells the residue holds, the first of each numerics key
//! ([`crate::grid::Cell::numerics_key`]), in plan order, is the key's
//! **owner** and runs in full, and every later one is a **borrower**
//! ([`crate::grid::borrowers`]): its run, a chain root or a forked child,
//! is timing-only ([`nas::BenchRun::set_timing_only`]) and skips every turn
//! the fast path applied in bulk. After the pool returns, before any merge,
//! each borrower takes its owner's verification ([`settle_borrowers`]);
//! the borrowers of an owner that failed are recomputed in full, as a
//! second batch. A borrowed value whose owner did not finish is never
//! reported, and a borrower's merged result is byte-equal to its full
//! run's, so the cache stores what a full run stores.
//!
//! A panicking cell or job is caught once, by the pool ([`exec`]'s job
//! runner): it surfaces as an `Err` output (a failed *row* in the report),
//! never a dead run, and never poisons siblings — except the cells of its
//! own chain, which fail with it.

use crate::grid;
use crate::summary::Tally;
use exec::{Job, JobPanic, PoolMonitor, PoolTelemetry, ResidentJob, ResidentPool};
use nas::RunResult;
use std::time::Instant;

/// One merged cell result, in plan order.
#[derive(Debug, Clone)]
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
    /// The value as `Option`, dropping the panic.
    pub fn ok(&self) -> Option<&T> {
        self.value.as_ref().ok()
    }
}

/// One planned entry: id, what computes it, and — for a grid cell — the
/// spec naming it to the cache and a server.
struct Cell<T> {
    id: String,
    spec: Option<svc::CellSpec>,
    state: CellState<T>,
}

/// Where one entry's value will come from, decided during resolution.
enum CellState<T> {
    /// A grid cell resolved without running here: from the cache (`true`)
    /// or by a server.
    Resolved(bool),
    /// A job, still to run.
    Pending(Job<'static, T>),
    /// A grid cell still to run, in a fork chain.
    Run(Box<grid::Cell>),
    /// Moved to the worker pool.
    Dispatched,
}

/// An ordered list of independent experiment cells and jobs.
pub struct CellPlan<T> {
    cells: Vec<Cell<T>>,
    /// How a grid cell's run becomes the plan's value, fixed by
    /// [`CellPlan::add_cell`].
    from_run: fn(RunResult) -> T,
}

impl<T: Send + 'static> Default for CellPlan<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + 'static> CellPlan<T> {
    /// An empty plan.
    pub fn new() -> Self {
        CellPlan {
            cells: Vec::new(),
            from_run: |_| unreachable!("only add_cell plans grid cells"),
        }
    }

    /// Append a job. `id` names it in failed rows and diagnostics; the
    /// position in the plan is its canonical merge position.
    pub fn add(&mut self, id: impl Into<String>, job: impl FnOnce() -> T + Send + 'static) {
        self.cells.push(Cell {
            id: id.into(),
            spec: None,
            state: CellState::Pending(Box::new(job)),
        });
    }

    /// Append a grid cell named by `spec`, its [`grid::Cell::spec`].
    pub(crate) fn add_run(&mut self, cell: grid::Cell, spec: svc::CellSpec) {
        self.cells.push(Cell {
            id: spec.cell_id(),
            spec: Some(spec),
            state: CellState::Run(Box::new(cell)),
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

    /// Execute with the process-wide machinery — the cache and the server
    /// first, then the residue on a pool scoped to the plan — and merge in
    /// plan order: outputs come back in plan order, and each grid cell has
    /// its one merge step there.
    pub fn execute(self) -> Vec<CellOutput<T>> {
        let from_run = self.from_run;
        let grid: Vec<bool> = self.cells.iter().map(|c| c.spec.is_some()).collect();
        let (runs, jobs) = self.execute_by_kind(&mut Tally::default());
        let mut runs = (runs.into_iter()).map(|out| CellOutput {
            value: out.value.map(from_run),
            id: out.id,
            wall_secs: out.wall_secs,
        });
        let mut jobs = jobs.into_iter();
        let mut next = |grid| if grid { runs.next() } else { jobs.next() };
        (grid.into_iter())
            .map(|grid| next(grid).expect("one output per entry"))
            .collect()
    }

    /// [`CellPlan::execute`], with the outputs by kind, each in plan order
    /// — the grid cells' runs and the jobs' values — and the plan's pool
    /// telemetry and per-cell walls credited to `tally`.
    pub fn execute_by_kind(
        self,
        tally: &mut Tally,
    ) -> (Vec<CellOutput<RunResult>>, Vec<CellOutput<T>>) {
        // A traced run must execute, and its result carries a tracer that
        // the cache encoding drops: a traced plan asks no cache or server
        // and forms no chain.
        let traced = crate::trace::dir().is_some();
        let (cache, client) = if traced {
            (None, None)
        } else {
            (crate::cache::installed(), crate::remote::installed())
        };
        let mut cells = self.cells;
        // Each grid cell's run and each job's value, by plan position.
        let mut runs: Outcomes<RunResult> = (0..cells.len()).map(|_| None).collect();
        let mut values: Outcomes<T> = (0..cells.len()).map(|_| None).collect();

        // Phase 1 — the cache. A payload that does not decode is a miss
        // (the recompute overwrites the entry at merge).
        for (cell, run) in cells.iter_mut().zip(&mut runs) {
            let (Some(spec), Some(cache)) = (&cell.spec, &cache) else {
                continue;
            };
            if let Some(hit) =
                (cache.lookup(spec)).and_then(|p| RunResult::from_cache_json(&p).ok())
            {
                (cell.state, *run) = (CellState::Resolved(true), Some((Ok(hit), 0.0)));
            }
        }

        // Phase 2 — client dispatch: offer every still-pending grid cell to
        // the server as one batch. Failure is never fatal at either
        // granularity — a dead batch or a refused cell just stays pending
        // and computes locally.
        if let Some(client) = client {
            let indices: Vec<usize> = (cells.iter().enumerate())
                .filter(|(_, c)| matches!(c.state, CellState::Run(_)))
                .map(|(i, _)| i)
                .collect();
            if !indices.is_empty() {
                let specs: Vec<svc::CellSpec> = indices
                    .iter()
                    .map(|&i| cells[i].spec.clone().expect("grid cells carry a spec"))
                    .collect();
                let mut progress = crate::remote::Progress::new();
                match client.run_cells(&specs, |p| progress.update(p)) {
                    Ok(outcomes) => {
                        progress.finish(client.addr());
                        for (&i, outcome) in indices.iter().zip(outcomes) {
                            match (outcome.result).and_then(|p| RunResult::from_cache_json(&p)) {
                                Ok(run) => {
                                    cells[i].state = CellState::Resolved(false);
                                    runs[i] = Some((Ok(run), 0.0));
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

        // Phase 3 — compute the residue as one batch on the plan's pool:
        // one job per fork chain of grid cells and per planned job, in the
        // plan order of their first cells; each key's later grid cells
        // borrow their numerics from its first.
        let grid_cells: Vec<(usize, &grid::Cell)> = (cells.iter().enumerate())
            .filter_map(|(i, c)| match &c.state {
                CellState::Run(cell) => Some((i, &**cell)),
                _ => None,
            })
            .collect();
        let borrowers = if traced {
            Vec::new()
        } else {
            grid::borrowers(&grid_cells)
        };
        // Each borrower's cell, kept for a full recompute.
        let mut spares: std::collections::HashMap<usize, grid::Cell> = (borrowers.iter())
            .filter_map(|&(b, _)| match &cells[b].state {
                CellState::Run(cell) => Some((b, (**cell).clone())),
                _ => None,
            })
            .collect();
        let mut members = grid::fork_chains(&grid_cells);
        let others: Vec<usize> = (0..cells.len())
            .filter(|&i| matches!(cells[i].state, CellState::Pending(_)))
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
                    let state = std::mem::replace(&mut cells[i].state, CellState::Dispatched);
                    (cells[i].id.clone(), state, spares.contains_key(&i))
                };
                match take(m[0]) {
                    (id, CellState::Pending(job), _) => wrap_job(id, job),
                    first => {
                        chain_job(std::iter::once(first).chain(m[1..].iter().map(|&i| take(i))))
                    }
                }
            })
            .collect();
        let mut batches = Vec::new();
        if !jobs.is_empty() {
            let is_run = |i: usize| cells[i].spec.is_some();
            batches.push(run_batch(jobs, &members, &is_run, &mut runs, &mut values));
            let recompute = settle_borrowers(&mut runs, &borrowers, |owner, mine| {
                mine.verification = owner.verification.clone()
            });
            if !recompute.is_empty() {
                let members: Vec<Vec<usize>> = recompute.iter().map(|&i| vec![i]).collect();
                let jobs = (recompute.iter())
                    .map(|i| {
                        let cell = Box::new(spares.remove(i).expect("a borrower's cell is kept"));
                        let id = cells[*i].id.clone();
                        chain_job(std::iter::once((id, CellState::<T>::Run(cell), false)))
                    })
                    .collect();
                batches.push(run_batch(jobs, &members, &is_run, &mut runs, &mut values));
            }
        }
        // Phase 4 — merge in plan order: every grid cell that has a run
        // has its one merge step here, whichever source produced it.
        let (mut run_outputs, mut job_outputs) = (Vec::with_capacity(cells.len()), Vec::new());
        let (mut walls, mut failed, mut resolved) = (Vec::new(), 0, 0);
        for ((cell, run), value) in cells.into_iter().zip(runs).zip(values) {
            let (id, computed) = (cell.id, matches!(cell.state, CellState::Dispatched));
            let wall_secs = if let Some(spec) = cell.spec {
                let (value, wall_secs) = run.expect("a grid cell has a run or a panic");
                if let Ok(run) = &value {
                    let store = !matches!(cell.state, CellState::Resolved(true));
                    merge(run, store, &spec, &cache);
                }
                failed += usize::from(value.is_err());
                run_outputs.push(CellOutput {
                    id,
                    value,
                    wall_secs,
                });
                wall_secs
            } else {
                let (value, wall_secs) = value.expect("a job has a value or a panic");
                failed += usize::from(value.is_err());
                job_outputs.push(CellOutput {
                    id,
                    value,
                    wall_secs,
                });
                wall_secs
            };
            match computed {
                true => walls.push(wall_secs),
                false => resolved += 1,
            }
        }
        tally.credit_plan(&batches, &walls, failed, resolved);
        (run_outputs, job_outputs)
    }
}

impl CellPlan<RunResult> {
    /// Append a cell the result service can resolve, both halves derived
    /// from one [`crate::grid::Cell`] so they cannot disagree: its spec is
    /// the cache key (and the plan id, via [`svc::CellSpec::cell_id`]),
    /// its `run` the local computation of record when no other source
    /// satisfies it. Its run is the plan's value as it is.
    pub fn add_cell(&mut self, cell: crate::grid::Cell) {
        self.from_run = |run| run;
        let spec = cell.spec();
        self.add_run(cell, spec);
    }
}

/// What one pool job returns: the runs of a fork chain, in its order, each
/// with the on-worker seconds spent on it, or a planned job's value.
enum Done<T> {
    Runs(Vec<(RunResult, f64)>),
    Job(T),
}

/// What became of each entry of a plan, by plan position: its value or
/// panic and its wall, `None` until it has one.
type Outcomes<V> = Vec<Option<(Result<V, JobPanic>, f64)>>;

/// Run `jobs`, one per entry of `members` (the plan positions of its
/// cells), as one batch on a pool of its own, and put each cell's run or
/// panic and its wall into `runs`, each job's into `values` — a panic where
/// `is_run` says its entry belongs. A cell computed again keeps the wall of
/// its first attempt too.
///
/// The pool has [`crate::jobs::get`] seats, but no more than jobs, one of
/// them the calling thread's: the caller helps run its cells, and `--jobs
/// 1` spawns no worker thread. A batch of two or more jobs shows a
/// progress line ([`crate::dash`]).
fn run_batch<T: Send + 'static>(
    jobs: Vec<ResidentJob<Done<T>>>,
    members: &[Vec<usize>],
    is_run: &dyn Fn(usize) -> bool,
    runs: &mut Outcomes<RunResult>,
    values: &mut Outcomes<T>,
) -> PoolTelemetry {
    let pool = ResidentPool::with_caller(crate::jobs::get().min(jobs.len()));
    let _dash = (jobs.len() >= 2).then(|| {
        let monitor = PoolMonitor::new();
        monitor.attach(&pool);
        crate::dash::spawn(monitor)
    });
    let (done, telemetry) = pool.run(jobs);
    for (timed, m) in done.into_iter().zip(members) {
        // The pool measured the wall time around the whole job, so a
        // panicking chain still reports how long it ran, split among its
        // cells; its panic names the batch position, each output its plan
        // position.
        match timed.result {
            Ok(Done::Runs(done)) => {
                let rest: f64 = done[1..].iter().map(|(_, secs)| secs).sum();
                for (k, ((run, secs), &i)) in done.into_iter().zip(m).enumerate() {
                    let wall = if k == 0 { timed.wall_secs - rest } else { secs };
                    put(&mut runs[i], Ok(run), wall);
                }
            }
            Ok(Done::Job(value)) => put(&mut values[m[0]], Ok(value), timed.wall_secs),
            Err(p) => {
                for &i in m {
                    let p = JobPanic {
                        index: i,
                        ..p.clone()
                    };
                    let wall = timed.wall_secs / m.len() as f64;
                    match is_run(i) {
                        true => put(&mut runs[i], Err(p), wall),
                        false => put(&mut values[i], Err(p), wall),
                    }
                }
            }
        }
    }
    telemetry
}

/// Put `value` and `wall` into `slot`, adding the wall it held.
fn put<V>(slot: &mut Option<(Result<V, JobPanic>, f64)>, value: Result<V, JobPanic>, wall: f64) {
    let before = slot.take().map_or(0.0, |(_, wall)| wall);
    *slot = Some((value, before + wall));
}

/// Borrowers take their owner's value, or are recomputed: for each
/// `(borrower, owner)` pair, an owner earlier in the plan, `take` hands
/// the owner's value to the borrower's when both ran. Returns, in plan
/// order, the borrowers whose owner failed — whatever became of their
/// own runs, they must be computed again in full.
fn settle_borrowers<V, E>(
    outcomes: &mut [Option<(Result<V, E>, f64)>],
    borrowers: &[(usize, usize)],
    take: impl Fn(&V, &mut V),
) -> Vec<usize> {
    let mut recompute = Vec::new();
    for &(borrower, owner) in borrowers {
        assert!(owner < borrower, "an owner precedes its borrowers");
        let (earlier, later) = outcomes.split_at_mut(borrower);
        match (&earlier[owner], &mut later[0]) {
            (Some((Ok(owned), _)), Some((Ok(mine), _))) => take(owned, mine),
            (Some((Ok(_), _)), _) => {} // the borrower failed on its own
            _ => recompute.push(borrower),
        }
    }
    recompute
}

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

/// Wrap one planned job for the pool.
fn wrap_job<T: Send + 'static>(id: String, job: Job<'static, T>) -> ResidentJob<Done<T>> {
    Box::new(move || Done::Job(on_cell(&id, job).0))
}

/// The job of a fork chain ([`grid::fork_chains`]), given as its cells'
/// ids, states and whether each borrows its numerics: the first cell's run
/// is built, and each later cell's run is forked from the one before it
/// ([`nas::BenchRun::fork`] brings an unstarted run to its fork point). A
/// borrower's run, root or child, is made timing-only. A run finishes
/// before its child steps on, so the worker holds at most two.
fn chain_job<T: 'static>(
    chain: impl Iterator<Item = (String, CellState<T>, bool)>,
) -> ResidentJob<Done<T>> {
    let chain: Vec<(String, grid::Cell, bool)> = chain
        .map(|(id, state, borrows)| match state {
            CellState::Run(cell) => (id, *cell, borrows),
            _ => unreachable!("a fork chain holds grid cells"),
        })
        .collect();
    let mark = |mut run: nas::BenchRun, borrows: bool| {
        if borrows {
            run.set_timing_only();
        }
        run
    };
    Box::new(move || {
        let mut chain = chain.into_iter();
        let (mut id, mut root, borrows) = chain.next().expect("a chain has a cell");
        let (mut run, mut wall) = on_cell(&id, || mark(root.build(), borrows));
        let mut done = Vec::new();
        for (child_id, child, borrows) in chain {
            // The prefix the child shares is its parent's work.
            let ((forked, result), secs) = on_cell(&id, || {
                let forked = mark(run.fork(&child.cfg.engine), borrows);
                (forked, grid::complete(run))
            });
            done.push((result, wall + secs));
            (id, run, wall) = (child_id, forked, 0.0);
        }
        let (result, rest) = on_cell(&id, || grid::complete(run));
        done.push((result, wall + rest));
        Done::Runs(done)
    })
}

/// The merge step of one grid cell, at its plan position: its `--trace
/// DIR` dump (only a computed traced run carries a tracer), then — when
/// `store`, i.e. it was computed, here or by a server — its store to the
/// cache. A store failure degrades the cache, not the run.
fn merge(run: &RunResult, store: bool, spec: &svc::CellSpec, cache: &Option<svc::Cache>) {
    crate::trace::write(run);
    if let Some(cache) = cache.as_ref().filter(|_| store) {
        if let Err(e) = cache.store(spec, &run.to_cache_json()) {
            eprintln!("[cache] store failed for {spec}: {e}");
        }
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
            let values: Vec<usize> = out.into_iter().map(|c| c.value.unwrap()).collect();
            assert_eq!(values, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    /// Execute Figure 1's tiny grid of `bench` as one plan: its runs and
    /// its tally.
    fn fig1_plan(bench: nas::BenchName) -> (Vec<CellOutput<RunResult>>, Tally) {
        let mut plan = CellPlan::new();
        for cell in crate::fig1::cells(bench, nas::Scale::Tiny, false) {
            plan.add_cell(cell);
        }
        let mut tally = Tally::default();
        let (runs, _) = plan.execute_by_kind(&mut tally);
        (runs, tally)
    }

    /// Simulated seconds are the sweep's to credit, from the outputs; the
    /// plan credits exactly what ran on its pool: every cell, once, with
    /// the wall its output reports.
    fn assert_credits_its_walls(runs: &[CellOutput<RunResult>], tally: &Tally) {
        assert_eq!(tally.sim_secs, 0.0);
        assert_eq!((tally.cells_computed, tally.plans), (runs.len(), 1));
        assert!(runs.iter().all(|c| c.ok().is_some() && c.wall_secs > 0.0));
        let walls = runs.iter().fold(0.0, |sum, c| sum + c.wall_secs);
        assert_eq!(tally.cells_wall_secs.to_bits(), walls.to_bits());
    }

    #[test]
    fn a_plan_credits_its_walls_and_no_simulated_seconds() {
        let (runs, tally) = crate::jobs::with_pinned(2, || fig1_plan(nas::BenchName::Mg));
        assert_credits_its_walls(&runs, &tally);
    }

    #[test]
    fn two_plans_at_once_each_get_exactly_their_own_tally() {
        let (mg, cg) = crate::jobs::with_pinned(2, || {
            std::thread::scope(|s| {
                let mg = s.spawn(|| fig1_plan(nas::BenchName::Mg));
                let cg = fig1_plan(nas::BenchName::Cg);
                (mg.join().unwrap(), cg)
            })
        });
        for (runs, tally) in [mg, cg] {
            assert_credits_its_walls(&runs, &tally);
        }
    }

    #[test]
    fn grid_cells_and_jobs_share_one_plan_and_keep_its_order() {
        let cell = crate::grid::Cell::paper(
            nas::BenchName::Mg,
            nas::Scale::Tiny,
            vmm::PlacementScheme::FirstTouch,
            nas::EngineMode::None,
        );
        let alone = cell.clone().run();
        let mut plan = CellPlan::new();
        let (first, last) = (alone.clone(), alone.clone());
        plan.add("job-0", move || first);
        plan.add_cell(cell);
        plan.add("job-2", move || last);
        let out = crate::jobs::with_pinned(2, || plan.execute());
        let ids: Vec<&str> = out.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["job-0", "mg:ft-IRIX", "job-2"]);
        let bytes = |r: &nas::RunResult| r.to_cache_json().to_string();
        assert!(out.iter().all(|c| bytes(c.ok().unwrap()) == bytes(&alone)));
    }

    fn panic_at(index: usize) -> JobPanic {
        JobPanic {
            index,
            message: "boom".into(),
        }
    }

    #[test]
    fn borrowers_take_their_owners_value() {
        // A chain [0, 1] whose root 0 owns key A and whose child 1 borrows
        // from it; a chain [2] borrowing from 0 as its root; 3 owns key B
        // and 4 borrows from it but failed on its own.
        let mut outcomes = vec![
            Some((Ok((10, 'a')), 1.0)),
            Some((Ok((11, '?')), 1.0)),
            Some((Ok((12, '?')), 1.0)),
            Some((Ok((13, 'b')), 1.0)),
            Some((Err(panic_at(4)), 1.0)),
        ];
        let borrowers = [(1, 0), (2, 0), (4, 3)];
        let take = |owner: &(u32, char), mine: &mut (u32, char)| mine.1 = owner.1;
        assert!(settle_borrowers(&mut outcomes, &borrowers, take).is_empty());
        let values: Vec<_> = (outcomes.iter().flatten())
            .map(|(v, _)| v.as_ref().ok().copied())
            .collect();
        let want = [(10, 'a'), (11, 'a'), (12, 'a'), (13, 'b')].map(Some);
        assert_eq!(values, [&want[..], &[None]].concat());
    }

    #[test]
    fn the_borrowers_of_a_failed_owner_are_recomputed() {
        // Owner 0 failed, and with it its chain's child 1; borrower 2 ran
        // alone. Owner 3 did not run at all. Both of 0's borrowers and 3's
        // come back, in plan order, and nothing borrowed a value.
        let mut outcomes = vec![
            Some((Err(panic_at(0)), 1.0)),
            Some((Err(panic_at(1)), 1.0)),
            Some((Ok(12), 1.0)),
            None,
            Some((Ok(14), 1.0)),
        ];
        let borrowers = [(1, 0), (2, 0), (4, 3)];
        let take = |_: &u32, _: &mut u32| panic!("a failed owner lends nothing");
        let recompute = settle_borrowers(&mut outcomes, &borrowers, take);
        assert_eq!(recompute, [1, 2, 4]);
    }

    #[test]
    fn a_plan_recomputes_the_borrowers_of_a_failed_owner_in_full() {
        use vmm::PlacementScheme;
        // The owner of CG's numerics names a node the machine lacks, so its
        // run panics; its borrowers, an IRIX chain root and the UPMlib
        // child forked from it, must still report their full runs' bytes.
        let upm = crate::default_engine_configs().1;
        let cell = |placement, engine| {
            crate::grid::Cell::paper(nas::BenchName::Cg, nas::Scale::Tiny, placement, engine)
        };
        let cells = || {
            vec![
                cell(
                    PlacementScheme::WorstCase { node: 99 },
                    nas::EngineMode::None,
                ),
                cell(PlacementScheme::FirstTouch, nas::EngineMode::None),
                cell(PlacementScheme::FirstTouch, nas::EngineMode::Upmlib(upm)),
            ]
        };
        let bytes = |r: &nas::RunResult| r.to_cache_json().to_string();
        let alone: Vec<String> = cells()[1..]
            .iter()
            .map(|c| bytes(&c.clone().run()))
            .collect();
        for workers in [1, 2] {
            let mut plan = CellPlan::new();
            cells().into_iter().for_each(|c| plan.add_cell(c));
            let out = crate::jobs::with_pinned(workers, || plan.execute());
            assert!(out[0].value.is_err(), "the owner fails");
            let got: Vec<String> = out[1..].iter().map(|c| bytes(c.ok().unwrap())).collect();
            assert_eq!(got, alone, "{workers} workers");
        }
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
