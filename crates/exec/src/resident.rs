//! The one job queue and the one job runner (see the crate docs for the
//! contract and the two ways in).
//!
//! Every job — a sweep's cell, a server request's cell, a one-shot
//! [`Pool`](crate::Pool) batch — travels through one shared FIFO and is
//! executed by one function, `run_job`. Jobs from different batches
//! interleave in submission order, so concurrent submitters share the
//! workers fairly instead of serializing batch-by-batch; each batch's
//! results land in its own slots, which [`BatchHandle::wait`] claims one
//! at a time (a server streams cell 3 the moment it lands while cells
//! 4..n still run) and [`ResidentPool::run`] collects after helping.

use crate::pool::{panic_message, JobPanic, TimedResult};
use crate::telemetry::PoolTelemetry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A resident job: owned closure, run once on some worker.
pub type ResidentJob<T> = crate::pool::Job<'static, T>;

/// One result slot of a batch: filled exactly once, claimed exactly once.
enum Slot<T> {
    Empty,
    Filled(TimedResult<T>),
    Taken,
}

/// One submitted batch's result slots.
struct Batch<T> {
    slots: Mutex<Vec<Slot<T>>>,
    filled: Condvar,
}

/// A handle onto one submitted batch. Results are claimed slot-by-slot
/// ([`BatchHandle::wait`]) or all at once ([`BatchHandle::wait_all`]).
pub struct BatchHandle<T> {
    batch: Arc<Batch<T>>,
    len: usize,
}

impl<T> BatchHandle<T> {
    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Block until slot `index` is filled and take its result. Each slot
    /// yields its result exactly once.
    ///
    /// # Panics
    /// On an `index` outside the batch, and on a second wait on a slot
    /// that was already claimed (both name the slot).
    pub fn wait(&self, index: usize) -> TimedResult<T> {
        assert!(
            index < self.len,
            "slot {index} is out of range: the batch has {} job(s)",
            self.len
        );
        let slots = self.batch.slots.lock().unwrap();
        let unfilled = |slots: &mut Vec<Slot<T>>| matches!(slots[index], Slot::Empty);
        let mut slots = self.batch.filled.wait_while(slots, unfilled).unwrap();
        match std::mem::replace(&mut slots[index], Slot::Taken) {
            Slot::Filled(result) => result,
            _ => {
                // Unlock first: a panic under the guard would poison the
                // batch for the workers still filling it.
                drop(slots);
                panic!("slot {index} was already claimed");
            }
        }
    }

    /// Claim every slot, in submission order.
    pub fn wait_all(self) -> Vec<TimedResult<T>> {
        (0..self.len).map(|i| self.wait(i)).collect()
    }
}

/// One queued job: its batch, its slot there, the closure.
type Queued<T> = (Arc<Batch<T>>, usize, ResidentJob<T>);

/// Work queue shared by the workers and the helping caller.
struct Shared<T> {
    queue: Mutex<QueueState<T>>,
    ready: Condvar,
    live: Arc<Live>,
}

struct QueueState<T> {
    jobs: VecDeque<Queued<T>>,
    shutdown: bool,
}

/// A pool's live counters, written by `run_job` and the queue's two ends
/// and read at any moment by [`ResidentPool::status`] and an attached
/// [`PoolMonitor`](crate::PoolMonitor). All relaxed atomics: they are
/// statistics, not synchronization — the batch slots carry the data.
pub(crate) struct Live {
    t0: Instant,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    batches: AtomicU64,
    queue_len: AtomicUsize,
    workers: Vec<WorkerLive>,
}

#[derive(Default)]
struct WorkerLive {
    busy_ns: AtomicU64,
    jobs: AtomicU64,
    /// Nanoseconds-since-`t0` **plus one** while inside a job, 0 when
    /// idle (the +1 keeps 0 unambiguous).
    busy_since_ns: AtomicU64,
}

impl Live {
    pub(crate) fn status(&self) -> ResidentStatus {
        let now_ns = self.t0.elapsed().as_nanos() as u64;
        ResidentStatus {
            uptime_secs: now_ns as f64 * 1e-9,
            queue_len: self.queue_len.load(Relaxed),
            jobs_done: self.jobs_done.load(Relaxed),
            jobs_failed: self.jobs_failed.load(Relaxed),
            batches: self.batches.load(Relaxed),
            workers: self
                .workers
                .iter()
                .map(|w| {
                    let since = w.busy_since_ns.load(Relaxed);
                    let mut busy_ns = w.busy_ns.load(Relaxed);
                    if since > 0 {
                        busy_ns += now_ns.saturating_sub(since - 1);
                    }
                    ResidentWorkerStatus {
                        busy: since > 0,
                        busy_secs: busy_ns as f64 * 1e-9,
                        busy_fraction: if now_ns > 0 {
                            (busy_ns as f64 / now_ns as f64).min(1.0)
                        } else {
                            0.0
                        },
                        jobs: w.jobs.load(Relaxed),
                    }
                })
                .collect(),
        }
    }
}

/// A point-in-time view of one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentWorkerStatus {
    /// Whether the worker is inside a job right now.
    pub busy: bool,
    /// Seconds spent inside jobs so far (the in-flight job included).
    pub busy_secs: f64,
    /// Busy seconds over the pool's uptime.
    pub busy_fraction: f64,
    /// Jobs this worker completed.
    pub jobs: u64,
}

/// A point-in-time view of one pool — the one live view: the server
/// publishes it on every telemetry scrape and the sweep progress line is
/// rendered from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentStatus {
    /// Seconds since the pool was created.
    pub uptime_secs: f64,
    /// Jobs queued and not yet picked up by a worker.
    pub queue_len: usize,
    /// Jobs completed so far (panicked jobs included).
    pub jobs_done: u64,
    /// Jobs that panicked so far.
    pub jobs_failed: u64,
    /// Batches submitted so far.
    pub batches: u64,
    /// One entry per worker, index = worker id.
    pub workers: Vec<ResidentWorkerStatus>,
}

impl ResidentStatus {
    /// Workers currently inside a job.
    pub fn busy_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.busy).count()
    }
}

/// A pool of worker threads around the shared queue. Dropping the pool
/// shuts it down: queued jobs still drain, then the workers retire and
/// are joined.
pub struct ResidentPool<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl<T: Send + 'static> ResidentPool<T> {
    /// A pool with `workers` threads (clamped to at least 1), for
    /// submitters that only wait.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self::build(workers, workers)
    }

    /// A pool with `workers` seats (clamped to at least 1) of which the
    /// last is the caller's: `workers - 1` threads, and [`Self::run`]
    /// executes jobs on the calling thread too. With one seat nothing but
    /// `run` makes progress — a bare [`Self::submit`] would wait forever.
    pub fn with_caller(workers: usize) -> Self {
        let workers = workers.max(1);
        Self::build(workers, workers - 1)
    }

    fn build(workers: usize, threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            live: Arc::new(Live {
                t0: Instant::now(),
                jobs_done: AtomicU64::new(0),
                jobs_failed: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                queue_len: AtomicUsize::new(0),
                workers: (0..workers).map(|_| WorkerLive::default()).collect(),
            }),
        });
        let handles = (0..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xp-worker-{me}"))
                    .spawn(move || worker_loop(&shared, me, true))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        ResidentPool {
            shared,
            handles,
            workers,
        }
    }

    /// Configured worker count (the caller's seat included).
    pub fn workers(&self) -> usize {
        self.workers
    }

    pub(crate) fn live(&self) -> Arc<Live> {
        Arc::clone(&self.shared.live)
    }

    /// A live snapshot: queue depth, done/failed/batch counts and
    /// per-worker utilization right now. Safe to call from any thread at any
    /// cadence — it reads relaxed atomics and takes no lock.
    pub fn status(&self) -> ResidentStatus {
        self.shared.live.status()
    }

    /// Enqueue a batch. Jobs join the shared FIFO queue immediately (they
    /// interleave with other live batches) and results land in the
    /// returned handle's slots in this batch's submission order.
    pub fn submit(&self, jobs: Vec<ResidentJob<T>>) -> BatchHandle<T> {
        let len = jobs.len();
        let batch = Arc::new(Batch {
            slots: Mutex::new((0..len).map(|_| Slot::Empty).collect()),
            filled: Condvar::new(),
        });
        self.shared.live.batches.fetch_add(1, Relaxed);
        if len > 0 {
            let mut state = self.shared.queue.lock().unwrap();
            for (i, job) in jobs.into_iter().enumerate() {
                state.jobs.push_back((Arc::clone(&batch), i, job));
            }
            self.shared.live.queue_len.store(state.jobs.len(), Relaxed);
            drop(state);
            self.shared.ready.notify_all();
        }
        BatchHandle { batch, len }
    }

    /// Submit `jobs`, help run the queue on the calling thread until it is
    /// empty, and collect this batch **in submission order** with its
    /// [`PoolTelemetry`]. The caller works from its own seat (see
    /// [`Self::with_caller`], one `run` at a time); on a pool without one
    /// it only waits.
    pub fn run(&self, jobs: Vec<ResidentJob<T>>) -> (Vec<TimedResult<T>>, PoolTelemetry) {
        let t0 = Instant::now();
        let batch = self.submit(jobs);
        let seat = self.handles.len();
        if seat < self.workers {
            worker_loop(&self.shared, seat, false);
        }
        let results = batch.wait_all();
        let telemetry =
            PoolTelemetry::from_results(self.workers, t0.elapsed().as_secs_f64(), &results);
        (results, telemetry)
    }
}

impl<T: Send + 'static> Drop for ResidentPool<T> {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pop and run jobs as worker `me`. A resident worker sleeps on an empty
/// queue until shutdown; the helping caller returns at the first empty
/// queue (jobs still in flight finish on their own workers).
fn worker_loop<T: Send + 'static>(shared: &Shared<T>, me: usize, resident: bool) {
    let idle = |q: &mut QueueState<T>| resident && q.jobs.is_empty() && !q.shutdown;
    loop {
        let mut queue = shared.queue.lock().unwrap();
        queue = shared.ready.wait_while(queue, idle).unwrap();
        let Some(job) = queue.jobs.pop_front() else {
            return;
        };
        shared.live.queue_len.store(queue.jobs.len(), Relaxed);
        drop(queue);
        run_job(&shared.live, me, job);
    }
}

/// Run one job as worker `me`: the only `catch_unwind`, one wall-clock
/// read feeding both the result's `wall_secs` and the worker's busy time,
/// then the slot fill that wakes the batch's waiters.
fn run_job<T>(live: &Live, me: usize, (batch, index, job): Queued<T>) {
    let worker = &live.workers[me];
    worker
        .busy_since_ns
        .store(live.t0.elapsed().as_nanos() as u64 + 1, Relaxed);
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(job)).map_err(|payload| JobPanic {
        index,
        message: panic_message(payload.as_ref()),
    });
    let wall = t0.elapsed();
    worker.busy_ns.fetch_add(wall.as_nanos() as u64, Relaxed);
    worker.busy_since_ns.store(0, Relaxed);
    worker.jobs.fetch_add(1, Relaxed);
    live.jobs_done.fetch_add(1, Relaxed);
    if result.is_err() {
        live.jobs_failed.fetch_add(1, Relaxed);
    }
    batch.slots.lock().unwrap()[index] = Slot::Filled(TimedResult {
        result,
        wall_secs: wall.as_secs_f64(),
        worker: me,
    });
    batch.filled.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_complete_in_submission_order() {
        let pool: ResidentPool<usize> = ResidentPool::new(3);
        let jobs: Vec<ResidentJob<usize>> = (0..17usize)
            .map(|i| Box::new(move || i * 7) as ResidentJob<usize>)
            .collect();
        let out = pool.submit(jobs).wait_all();
        let values: Vec<usize> = out.into_iter().map(|t| t.result.unwrap()).collect();
        assert_eq!(values, (0..17).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool: ResidentPool<()> = ResidentPool::new(2);
        assert!(pool.submit(Vec::new()).wait_all().is_empty());
    }

    #[test]
    fn concurrent_batches_each_get_their_own_complete_results() {
        let pool = Arc::new(ResidentPool::<usize>::new(4));
        let mut joins = Vec::new();
        for b in 0..6usize {
            let pool = Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                let jobs: Vec<ResidentJob<usize>> = (0..9)
                    .map(|i| Box::new(move || b * 100 + i) as ResidentJob<usize>)
                    .collect();
                pool.submit(jobs)
                    .wait_all()
                    .into_iter()
                    .map(|t| t.result.unwrap())
                    .collect::<Vec<_>>()
            }));
        }
        for (b, join) in joins.into_iter().enumerate() {
            let values = join.join().unwrap();
            assert_eq!(values, (0..9).map(|i| b * 100 + i).collect::<Vec<_>>());
        }
        let status = pool.status();
        assert_eq!(status.jobs_done, 54);
        assert_eq!(status.batches, 6);
    }

    #[test]
    fn a_panicking_job_fills_its_slot_and_spares_siblings() {
        let pool: ResidentPool<usize> = ResidentPool::new(2);
        let jobs: Vec<ResidentJob<usize>> = (0..5usize)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("resident job {i} exploded");
                    }
                    i
                }) as ResidentJob<usize>
            })
            .collect();
        let out = pool.submit(jobs).wait_all();
        for (i, t) in out.iter().enumerate() {
            if i == 2 {
                let err = t.result.as_ref().unwrap_err();
                assert_eq!(err.index, 2);
                assert!(err.message.contains("exploded"));
            } else {
                assert_eq!(t.result.as_ref().unwrap(), &i);
            }
        }
        assert_eq!(pool.status().jobs_failed, 1);
    }

    #[test]
    fn per_slot_waits_stream_out_of_order() {
        let pool: ResidentPool<usize> = ResidentPool::new(1);
        let jobs: Vec<ResidentJob<usize>> = (0..3usize)
            .map(|i| Box::new(move || i) as ResidentJob<usize>)
            .collect();
        let handle = pool.submit(jobs);
        // Waiting on the last slot first must not deadlock.
        assert_eq!(handle.wait(2).result.unwrap(), 2);
        assert_eq!(handle.wait(0).result.unwrap(), 0);
        assert_eq!(handle.wait(1).result.unwrap(), 1);
    }

    fn three_done_jobs(pool: &ResidentPool<usize>) -> BatchHandle<usize> {
        let jobs: Vec<ResidentJob<usize>> = (0..3usize)
            .map(|i| Box::new(move || i) as ResidentJob<usize>)
            .collect();
        pool.submit(jobs)
    }

    #[test]
    #[should_panic(expected = "slot 1 was already claimed")]
    fn a_second_wait_on_a_claimed_slot_panics() {
        let pool = ResidentPool::new(1);
        let handle = three_done_jobs(&pool);
        assert_eq!(handle.wait(1).result.unwrap(), 1);
        handle.wait(1);
    }

    #[test]
    #[should_panic(expected = "slot 3 is out of range")]
    fn a_wait_outside_the_batch_panics() {
        let pool = ResidentPool::new(1);
        three_done_jobs(&pool).wait(3);
    }

    #[test]
    fn a_refused_reclaim_leaves_the_batch_usable() {
        let pool = ResidentPool::new(1);
        let handle = three_done_jobs(&pool);
        handle.wait(0);
        let reclaim = std::thread::scope(|s| s.spawn(|| handle.wait(0)).join());
        assert!(reclaim.is_err());
        assert_eq!(handle.wait(2).result.unwrap(), 2);
    }

    fn thread_id_jobs(n: usize) -> Vec<ResidentJob<std::thread::ThreadId>> {
        (0..n)
            .map(|_| Box::new(|| std::thread::current().id()) as _)
            .collect()
    }

    #[test]
    fn run_on_a_one_seat_pool_executes_on_the_caller_alone() {
        let pool = ResidentPool::with_caller(1);
        let (out, telemetry) = pool.run(thread_id_jobs(6));
        let me = std::thread::current().id();
        assert!(out.iter().all(|t| t.result == Ok(me) && t.worker == 0));
        assert_eq!(telemetry.workers.len(), 1);
        assert_eq!(telemetry.workers[0].jobs, 6);
        assert_eq!(pool.status().workers[0].jobs, 6);
    }

    #[test]
    fn waiting_never_runs_a_job_on_the_submitter() {
        let pool = ResidentPool::new(2);
        let me = std::thread::current().id();
        let out = pool.submit(thread_id_jobs(12)).wait_all();
        assert!(out.iter().all(|t| t.result != Ok(me)));
        // `run` on a pool without a caller's seat only waits, too.
        let (out, telemetry) = pool.run(thread_id_jobs(12));
        assert!(out.iter().all(|t| t.result != Ok(me)));
        assert_eq!(telemetry.workers.len(), 2);
    }

    #[test]
    fn status_sees_busy_workers_and_queue_depth_live() {
        let pool: ResidentPool<usize> = ResidentPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut jobs: Vec<ResidentJob<usize>> = Vec::new();
        for i in 0..3usize {
            let gate = Arc::clone(&gate);
            jobs.push(Box::new(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                i
            }));
        }
        let handle = pool.submit(jobs);
        // The single worker picks up job 0 and blocks on the gate; the
        // other two jobs stay queued.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let s = pool.status();
            if s.busy_workers() == 1 && s.queue_len == 2 {
                assert_eq!(s.workers.len(), 1);
                assert!(s.workers[0].busy);
                assert_eq!(s.workers[0].jobs, 0, "no job finished yet");
                break;
            }
            assert!(Instant::now() < deadline, "worker never picked up job 0");
            std::thread::yield_now();
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let out = handle.wait_all();
        assert_eq!(out.len(), 3);
        let s = pool.status();
        assert_eq!(s.queue_len, 0);
        assert_eq!(s.busy_workers(), 0);
        assert_eq!((s.jobs_done, s.jobs_failed), (3, 0));
        assert_eq!(s.workers[0].jobs, 3);
        assert!(s.workers[0].busy_secs >= 0.0);
        assert!(s.workers[0].busy_fraction <= 1.0);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let done = Arc::new(AtomicU64::new(0));
        let handle = {
            let pool: ResidentPool<()> = ResidentPool::new(1);
            let jobs: Vec<ResidentJob<()>> = (0..8)
                .map(|_| {
                    let done = Arc::clone(&done);
                    Box::new(move || {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        done.fetch_add(1, Relaxed);
                    }) as ResidentJob<()>
                })
                .collect();
            let handle = pool.submit(jobs);
            drop(pool); // shutdown: queued jobs still drain
            handle
        };
        let out = handle.wait_all();
        assert_eq!(out.len(), 8);
        assert_eq!(done.load(Relaxed), 8);
    }
}
