//! Host-parallel experiment executor.
//!
//! The experiment grids of the paper — benchmark x placement x engine x
//! scale x seed — are embarrassingly parallel on the host: every cell
//! builds its own simulated machine and never touches another cell's
//! state. This crate supplies the one missing piece, a dependency-free
//! thread pool — **one** shared FIFO job queue and **one** job runner —
//! whose contract is built around the repository's determinism guarantee:
//!
//! * **Deterministic merge order.** Results come back in submission
//!   order, whatever the worker count or schedule. Downstream report
//!   builders consume the merged vector, so a single-threaded and a
//!   `--jobs N` run produce byte-identical output.
//! * **Panic isolation.** Each job runs under `catch_unwind`; a panicking
//!   job yields a [`JobPanic`] (and its wall time) in its slot while
//!   sibling jobs keep running. A failed experiment cell becomes a failed
//!   row, not a dead run.
//! * **No detached threads.** Workers are joined when their
//!   [`ResidentPool`] drops — nothing outlives the pool, nothing leaks on
//!   the error path.
//!
//! The queue is deliberately plain — a `Mutex<VecDeque>` and a condvar,
//! no per-worker deques, no stealing. Experiment cells run for
//! milliseconds to minutes, so queue overhead is noise and a shared FIFO
//! already balances them; simplicity and auditability win.
//!
//! Two ways in, one mechanism behind both ([`resident`]):
//!
//! * [`ResidentPool::submit`] + [`BatchHandle::wait`] — many concurrent
//!   submitters, streaming per-slot waits that never execute a job. The
//!   resident experiment server (`xp serve`) owns one such pool across
//!   all client requests, so its worker count bounds its concurrency.
//! * [`ResidentPool::run`] — the **helping caller**: the submitting
//!   thread runs jobs from the queue itself until it is empty. Sweeps use
//!   it on a pool that keeps one seat for the caller
//!   ([`ResidentPool::with_caller`]), and [`Pool::run`] is the one-shot
//!   form: open such a pool, run one batch, join. `--jobs 1` therefore
//!   spawns no thread at all.

pub mod pool;
pub mod resident;
pub mod telemetry;

pub use pool::panic_message;
pub use pool::{Job, JobPanic, Pool, TimedResult};
pub use resident::{BatchHandle, ResidentJob, ResidentPool, ResidentStatus, ResidentWorkerStatus};
pub use telemetry::{PoolMonitor, PoolTelemetry, WorkerTelemetry};
