//! Pool telemetry: what every worker did during one run, and a handle for
//! watching a pool while it works.
//!
//! * **Post-run accounting** — [`PoolTelemetry`], returned by
//!   [`ResidentPool::run`] (and so by [`crate::Pool::run_timed`]):
//!   per-worker busy seconds and job counts, built in one place from the
//!   run's [`TimedResult`]s. Report footers are built from this.
//! * **Live observation** — [`PoolMonitor`], a cloneable, pool-type-erased
//!   handle; a progress thread polls [`PoolMonitor::status`] and sees the
//!   same [`ResidentStatus`] the pool's owner gets from
//!   [`ResidentPool::status`].

use crate::pool::TimedResult;
use crate::resident::{Live, ResidentPool, ResidentStatus};
use std::sync::{Arc, Mutex};

/// Per-worker accounting for one finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTelemetry {
    /// Jobs of the run this worker completed (panicking jobs included).
    pub jobs: u64,
    /// Seconds spent inside those jobs.
    pub busy_secs: f64,
}

/// Whole-pool accounting for one finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolTelemetry {
    /// Wall seconds from submission to the last result collected.
    pub wall_secs: f64,
    /// Jobs submitted.
    pub jobs_total: usize,
    /// Jobs that panicked.
    pub jobs_failed: usize,
    /// One entry per worker, index = worker id.
    pub workers: Vec<WorkerTelemetry>,
}

impl PoolTelemetry {
    /// Account one run's results to the `workers` seats that ran them.
    pub(crate) fn from_results<T>(
        workers: usize,
        wall_secs: f64,
        results: &[TimedResult<T>],
    ) -> Self {
        let mut per_worker = vec![
            WorkerTelemetry {
                jobs: 0,
                busy_secs: 0.0,
            };
            workers
        ];
        for t in results {
            per_worker[t.worker].jobs += 1;
            per_worker[t.worker].busy_secs += t.wall_secs;
        }
        PoolTelemetry {
            wall_secs,
            jobs_total: results.len(),
            jobs_failed: results.iter().filter(|t| t.result.is_err()).count(),
            workers: per_worker,
        }
    }

    /// Total seconds all workers spent inside the run's jobs: the sum of
    /// the results' `wall_secs` (each job's clock is read once).
    pub fn busy_secs(&self) -> f64 {
        self.workers.iter().map(|w| w.busy_secs).sum()
    }

    /// Busy seconds over worker-seconds available: 1.0 means every worker
    /// ran jobs the whole time the run took.
    pub fn busy_fraction(&self) -> f64 {
        let slots = self.wall_secs * self.workers.len() as f64;
        if slots > 0.0 {
            (self.busy_secs() / slots).min(1.0)
        } else {
            0.0
        }
    }

    /// Always `(0, 0)`: the single shared queue has nothing to steal.
    /// Kept only because the perf ledger's `exec.steals` row still calls
    /// it; delete it together with that row in the next `benchmark` PR.
    pub fn steals(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// A cloneable handle a progress thread polls while a pool it is attached
/// to works. Reads `None` while unattached — before
/// [`PoolMonitor::attach`], and after a [`crate::Pool::run_timed`] it was
/// passed to has closed its pool.
#[derive(Clone, Default)]
pub struct PoolMonitor {
    inner: Arc<Mutex<Option<Arc<Live>>>>,
}

impl PoolMonitor {
    /// A fresh, unattached monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Watch `pool` from now on (the counters stay readable after the
    /// pool itself is gone).
    pub fn attach<T: Send + 'static>(&self, pool: &ResidentPool<T>) {
        *self.inner.lock().unwrap_or_else(|e| e.into_inner()) = Some(pool.live());
    }

    /// The attached pool's status, or `None` when unattached.
    pub fn status(&self) -> Option<ResidentStatus> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|live| live.status())
    }

    pub(crate) fn detach(&self) {
        *self.inner.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

impl std::fmt::Debug for PoolMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolMonitor")
            .field("attached", &self.status().is_some())
            .finish()
    }
}
