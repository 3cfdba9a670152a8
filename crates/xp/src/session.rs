//! The session: the worker pool every plan runs on, and the cells a sweep
//! has already merged.
//!
//! A [`crate::cells::CellPlan`] always executes on a session's pool. The
//! `xp` binary opens one around multi-experiment runs, so the workers
//! live for the whole sweep — no spawn/join cycle and no idle gap at
//! every plan boundary — and one progress line spans it; with none open,
//! the plan gets a session scoped to itself. Either way the pool is an
//! [`exec::ResidentPool`] with [`crate::jobs::get`] seats, one of them
//! the calling thread's: the plan's caller helps run its cells, and
//! `--jobs 1` spawns no worker thread.
//!
//! The open session also remembers: its table holds the cache encoding of
//! every spec cell a plan merged, keyed by [`svc::CellSpec::canonical`],
//! and a later plan asks it before the cache and the server — so `xp all`
//! computes each distinct cell once, in memory. The encoding is the
//! cache's exact codec, so a recalled cell is indistinguishable from a
//! recompute. A plan-scoped session keeps no table, since no later plan
//! could ask it, and traced runs bypass the table as they bypass the
//! cache. Nothing waits in flight: `xp` runs its plans one after another
//! and no plan repeats a key, so at worst two concurrent plans (a test
//! harness) both compute a key, to equal bytes.
//!
//! The pool is type-erased (`Box<dyn Any + Send>` results) because
//! different plans carry different cell types; [`crate::cells`] downcasts
//! on the way out. Batches merge in plan order, so outputs and merge
//! effects are byte-identical whatever the session or worker count.

use crate::dash::Dash;
use exec::{PoolMonitor, PoolTelemetry, ResidentJob, ResidentPool, TimedResult};
use obs::json::Value;
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A type-erased cell result travelling through the shared pool.
pub(crate) type ErasedResult = Box<dyn Any + Send>;

/// One pool, its progress line, and — for the open session — its table
/// of merged cells.
pub struct Session {
    pool: ResidentPool<ErasedResult>,
    /// Cache encodings by canonical spec; `None` for a plan-scoped session.
    table: Option<Mutex<HashMap<String, Value>>>,
    _dash: Option<Dash>,
}

impl Session {
    /// A pool of `seats` workers, with a progress line when `progress` is
    /// set (and [`crate::dash`] is not silenced), and a table of merged
    /// cells when `remembers` is.
    fn open(seats: usize, progress: bool, remembers: bool) -> Arc<Session> {
        let pool = ResidentPool::with_caller(seats);
        let dash = if progress {
            let monitor = PoolMonitor::new();
            monitor.attach(&pool);
            crate::dash::spawn(monitor)
        } else {
            None
        };
        Arc::new(Session {
            pool,
            table: remembers.then(Mutex::default),
            _dash: dash,
        })
    }

    /// Run one plan's jobs as a batch on the pool, the calling thread
    /// helping; results come back in submission order.
    pub(crate) fn run(
        &self,
        jobs: Vec<ResidentJob<ErasedResult>>,
    ) -> (Vec<TimedResult<ErasedResult>>, PoolTelemetry) {
        self.pool.run(jobs)
    }

    /// The encoding of `spec`'s cell, if a plan merged it.
    pub(crate) fn recall(&self, spec: &svc::CellSpec) -> Option<Value> {
        let table = self.table.as_ref()?.lock().unwrap();
        table.get(&spec.canonical()).cloned()
    }

    /// Keep a merged cell's encoding for later plans.
    pub(crate) fn remember(&self, spec: &svc::CellSpec, payload: Value) {
        if let Some(table) = &self.table {
            table.lock().unwrap().insert(spec.canonical(), payload);
        }
    }
}

static ACTIVE: Mutex<Option<Arc<Session>>> = Mutex::new(None);

/// Open a session and install it as the process-wide executor for
/// subsequent plans, until [`end`].
pub fn begin() -> Arc<Session> {
    let session = Session::open(crate::jobs::get(), true, true);
    *ACTIVE.lock().unwrap() = Some(Arc::clone(&session));
    session
}

/// The session a plan of `cells` cells runs on: the open one, or one
/// scoped to the plan — no more seats than cells, and no progress line
/// for a lone cell.
pub(crate) fn for_plan(cells: usize) -> Arc<Session> {
    let active = ACTIVE.lock().unwrap().clone();
    active.unwrap_or_else(|| Session::open(crate::jobs::get().min(cells), cells >= 2, false))
}

/// The open session, for a plan to ask and extend its table — `None`
/// when no session is open or a trace directory forces real execution.
pub(crate) fn remembering() -> Option<Arc<Session>> {
    if crate::trace::dir().is_some() {
        return None;
    }
    ACTIVE.lock().unwrap().clone()
}

/// Close the active session: drop the shared pool (workers drain and
/// join, the progress line clears) and print the sweep summary line.
pub fn end() {
    let Some(session) = ACTIVE.lock().unwrap().take() else {
        return;
    };
    let status = session.pool.status();
    // The last Arc drops here: plans only hold the session while
    // executing.
    drop(session);
    eprintln!(
        "[session] shared pool: {} jobs over {} plan(s) on {} worker(s){}",
        status.jobs_done,
        status.batches,
        status.workers.len(),
        if status.jobs_failed > 0 {
            format!(", {} failed", status.jobs_failed)
        } else {
            String::new()
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_pools_are_shared_across_plans_and_end_is_idempotent() {
        // Sibling tests that execute plans meanwhile land on this session
        // too (the ACTIVE slot is process-global), so only lower bounds
        // are asserted on its counters.
        let session = begin();
        let jobs: Vec<ResidentJob<ErasedResult>> = (0..5usize)
            .map(|i| Box::new(move || Box::new(i) as ErasedResult) as ResidentJob<ErasedResult>)
            .collect();
        let (out, telemetry) = for_plan(5).run(jobs);
        let values: Vec<usize> = out
            .into_iter()
            .map(|t| *t.result.unwrap().downcast::<usize>().unwrap())
            .collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4]);
        assert_eq!(telemetry.jobs_total, 5);
        assert!(session.pool.status().batches >= 1);
        drop(session);
        end();
        assert!(ACTIVE.lock().unwrap().is_none());
        end(); // second end is a no-op
    }
}
