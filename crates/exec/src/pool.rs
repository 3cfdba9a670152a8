//! The job and result types, and the one-shot façade over the queue.
//!
//! [`Pool`] is a worker-count policy: each [`Pool::run`] opens a
//! [`ResidentPool`] of that many seats — `workers - 1` threads plus the
//! calling thread — runs one batch on it with the caller helping, and
//! joins the threads before returning. With one worker nothing is
//! spawned and every job runs on the calling thread.

use crate::resident::ResidentPool;
use crate::telemetry::{PoolMonitor, PoolTelemetry};

/// A unit of work: runs once, on some worker thread, producing a `T`.
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// One job's outcome plus its host-side timing: the wall time is measured
/// around the job on its worker, so it is recorded **even when the job
/// panics** — a dead cell still gets a timing row.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedResult<T> {
    /// The job's value, or its panic.
    pub result: Result<T, JobPanic>,
    /// Wall seconds the job ran on its worker.
    pub wall_secs: f64,
    /// The worker that ran the job.
    pub worker: usize,
}

/// A job that panicked instead of producing a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The job's submission index.
    pub index: usize,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

/// The worker-count policy of one executor instance.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with `workers` workers, the calling thread included
    /// (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// The host's available parallelism (1 when it cannot be probed).
    pub fn available() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute every job and return the results **in submission order**,
    /// regardless of worker count or schedule. Slot `i` holds `Ok` with
    /// job `i`'s value, or `Err` with its panic payload.
    pub fn run<T: Send + 'static>(&self, jobs: Vec<Job<'static, T>>) -> Vec<Result<T, JobPanic>> {
        self.run_timed(jobs, None)
            .0
            .into_iter()
            .map(|t| t.result)
            .collect()
    }

    /// [`Pool::run`] plus accounting: each result carries its on-worker
    /// wall time (panics included) and the pool returns its
    /// [`PoolTelemetry`]. A [`PoolMonitor`] handle, when given, observes
    /// the run live until the pool closes.
    pub fn run_timed<T: Send + 'static>(
        &self,
        jobs: Vec<Job<'static, T>>,
        monitor: Option<&PoolMonitor>,
    ) -> (Vec<TimedResult<T>>, PoolTelemetry) {
        let pool = ResidentPool::with_caller(self.workers.min(jobs.len().max(1)));
        if let Some(m) = monitor {
            m.attach(&pool);
        }
        let out = pool.run(jobs);
        if let Some(m) = monitor {
            m.detach();
        }
        out
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(Pool::available())
    }
}

/// A caught panic's payload as text — what every `catch_unwind` in the
/// workspace reports.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    fn boxed_jobs(n: usize) -> Vec<Job<'static, usize>> {
        (0..n)
            .map(|i| Box::new(move || i * 3) as Job<'static, usize>)
            .collect()
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(Pool::new(4).run::<()>(Vec::new()).is_empty());
    }

    #[test]
    fn results_arrive_in_submission_order() {
        for workers in [1, 2, 3, 8, 64] {
            let out = Pool::new(workers).run(boxed_jobs(23));
            let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_count_clamps_to_one() {
        assert_eq!(Pool::new(0).workers(), 1);
        assert!(Pool::available() >= 1);
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = Pool::new(16).run(boxed_jobs(3));
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn one_worker_runs_every_job_on_the_calling_thread() {
        // With one worker there is no spawned thread at all.
        let caller = std::thread::current().id();
        let jobs: Vec<Job<'static, bool>> = (0..5)
            .map(|_| Box::new(move || std::thread::current().id() == caller) as _)
            .collect();
        assert_eq!(Pool::new(1).run(jobs), vec![Ok(true); 5]);
    }

    #[test]
    fn a_panicking_job_does_not_poison_siblings() {
        let ran = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job<'static, usize>> = (0..10usize)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 4 {
                        panic!("cell {i} exploded");
                    }
                    i
                }) as Job<'static, usize>
            })
            .collect();
        let out = Pool::new(3).run(jobs);
        assert_eq!(ran.load(Ordering::SeqCst), 10, "siblings must all run");
        for (i, slot) in out.iter().enumerate() {
            if i == 4 {
                let err = slot.as_ref().unwrap_err();
                assert_eq!(err.index, 4);
                assert!(err.message.contains("cell 4 exploded"), "{}", err.message);
            } else {
                assert_eq!(slot.as_ref().unwrap(), &i);
            }
        }
    }

    #[test]
    fn a_panicking_job_still_gets_a_wall_time() {
        let jobs: Vec<Job<'static, ()>> = vec![
            Box::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                panic!("late panic");
            }),
            Box::new(|| ()),
        ];
        let (out, telemetry) = Pool::new(1).run_timed(jobs, None);
        assert!(out[0].result.is_err());
        assert!(
            out[0].wall_secs >= 0.004,
            "panicking job must report the time it ran, got {}",
            out[0].wall_secs
        );
        assert!(out[1].result.is_ok());
        assert_eq!(telemetry.jobs_total, 2);
        assert_eq!(telemetry.jobs_failed, 1);
    }

    #[test]
    fn telemetry_accounts_every_job_to_a_worker() {
        let (out, telemetry) = Pool::new(3).run_timed(boxed_jobs(20), None);
        assert_eq!(telemetry.jobs_total, 20);
        assert_eq!(telemetry.jobs_failed, 0);
        assert_eq!(telemetry.workers.len(), 3);
        let counted: u64 = telemetry.workers.iter().map(|w| w.jobs).sum();
        assert_eq!(counted, 20);
        assert!(telemetry.wall_secs > 0.0);
        assert!(telemetry.busy_fraction() <= 1.0);
        assert_eq!(telemetry.steals(), (0, 0));
        for t in &out {
            assert!(t.worker < 3);
            assert!(t.wall_secs >= 0.0);
        }
    }

    #[test]
    fn busy_time_is_exactly_the_sum_of_the_results_walls() {
        // One clock read per job feeds both numbers. With one worker the
        // two sums also associate the same way, so they are equal, not close...
        let (out, telemetry) = Pool::new(1).run_timed(boxed_jobs(50), None);
        let walls: f64 = out.iter().map(|t| t.wall_secs).sum();
        assert_eq!(telemetry.busy_secs(), walls);
        // ...and with several, per worker.
        let (out, telemetry) = Pool::new(4).run_timed(boxed_jobs(50), None);
        for (w, worker) in telemetry.workers.iter().enumerate() {
            let mine = out.iter().filter(|t| t.worker == w);
            let walls: f64 = mine.map(|t| t.wall_secs).sum();
            assert_eq!(worker.busy_secs, walls, "worker {w}");
        }
    }

    #[test]
    fn empty_run_yields_empty_telemetry() {
        let (out, telemetry) = Pool::new(4).run_timed(Vec::<Job<'static, ()>>::new(), None);
        assert!(out.is_empty());
        assert_eq!(telemetry.jobs_total, 0);
        assert_eq!(telemetry.busy_secs(), 0.0);
    }

    #[test]
    fn monitor_attaches_during_the_run_and_detaches_after() {
        let monitor = crate::PoolMonitor::new();
        assert!(monitor.status().is_none(), "no run attached yet");
        let seen = Arc::new(Mutex::new(None));
        let jobs: Vec<Job<'static, ()>> = (0..4)
            .map(|_| {
                let monitor = monitor.clone();
                let seen = Arc::clone(&seen);
                Box::new(move || {
                    // Sampled from inside a job: the run is in flight.
                    if let Some(status) = monitor.status() {
                        *seen.lock().unwrap() = Some(status);
                    }
                }) as Job<'static, ()>
            })
            .collect();
        let (_, telemetry) = Pool::new(2).run_timed(jobs, Some(&monitor));
        let status = seen.lock().unwrap().take().expect("sampled mid-run");
        assert!(status.busy_workers() >= 1);
        assert!(status.jobs_done < 4, "the sampling job itself is not done");
        assert_eq!(status.workers.len(), telemetry.workers.len());
        assert!(monitor.status().is_none(), "monitor detaches at close");
    }
}
