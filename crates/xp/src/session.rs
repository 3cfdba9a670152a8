//! The session: the worker pool every plan runs on.
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
//! The pool is type-erased (`Box<dyn Any + Send>` results) because
//! different plans carry different cell types; [`crate::cells`] downcasts
//! on the way out. Batches merge in plan order, so outputs and replayed
//! side effects are byte-identical whatever the session or worker count.

use crate::dash::Dash;
use exec::{PoolMonitor, PoolTelemetry, ResidentJob, ResidentPool, TimedResult};
use std::any::Any;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// A type-erased cell result travelling through the shared pool.
pub(crate) type ErasedResult = Box<dyn Any + Send>;

/// One pool, its progress line, and the simulated time its cells have
/// finished (what the progress line's sim-s/s is computed from).
pub struct Session {
    pool: ResidentPool<ErasedResult>,
    sim_done_us: Arc<AtomicU64>,
    _dash: Option<Dash>,
}

impl Session {
    /// A pool of `seats` workers, with a progress line when `progress` is
    /// set (and [`crate::dash`] is not silenced).
    fn open(seats: usize, progress: bool) -> Arc<Session> {
        let pool = ResidentPool::with_caller(seats);
        let sim_done_us = Arc::new(AtomicU64::new(0));
        let dash = if progress {
            let monitor = PoolMonitor::new();
            monitor.attach(&pool);
            crate::dash::spawn(monitor, Arc::clone(&sim_done_us))
        } else {
            None
        };
        Arc::new(Session {
            pool,
            sim_done_us,
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

    /// Where finished cells credit their simulated microseconds.
    pub(crate) fn sim_done_us(&self) -> &Arc<AtomicU64> {
        &self.sim_done_us
    }
}

static ACTIVE: Mutex<Option<Arc<Session>>> = Mutex::new(None);

/// Open a session and install it as the process-wide executor for
/// subsequent plans, until [`end`].
pub fn begin() -> Arc<Session> {
    let session = Session::open(crate::jobs::get(), true);
    *ACTIVE.lock().unwrap() = Some(Arc::clone(&session));
    session
}

/// The session a plan of `cells` cells runs on: the open one, or one
/// scoped to the plan — no more seats than cells, and no progress line
/// for a lone cell.
pub(crate) fn for_plan(cells: usize) -> Arc<Session> {
    let active = ACTIVE.lock().unwrap().clone();
    active.unwrap_or_else(|| Session::open(crate::jobs::get().min(cells), cells >= 2))
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
        "[session] shared pool: {} cells over {} plan(s) on {} worker(s){}",
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
