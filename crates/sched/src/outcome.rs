//! What a multiprogrammed schedule produced: per-job turnaround and
//! migration counts, plus the whole-schedule aggregates the `xp multiprog`
//! experiment tables are built from.

use nas::{BenchName, RunResult};

/// One job's fate under the schedule.
#[derive(Debug)]
pub struct JobOutcome {
    /// Job id, in submission order.
    pub job: usize,
    /// Which benchmark the job ran.
    pub bench: BenchName,
    /// Simulated arrival time, seconds.
    pub arrival_secs: f64,
    /// Arrival-to-completion time on the scheduler's global clock, seconds.
    /// Per-job slowdown is this divided by the job's dedicated-machine run
    /// time (measured separately by the experiment).
    pub turnaround_secs: f64,
    /// Simulated CPU seconds the job's timed iterations consumed.
    pub cpu_secs: f64,
    /// Quanta during which the job held CPUs.
    pub quanta_run: u64,
    /// Threads the scheduler moved between CPUs over the job's lifetime.
    pub thread_migrations: u64,
    /// Team shrink/grow events the scheduler applied.
    pub team_resizes: u64,
    /// The benchmark-side result: verification, per-iteration times,
    /// remote-access fraction, engine statistics.
    pub result: RunResult,
}

/// Everything a finished schedule reports.
#[derive(Debug)]
pub struct SchedOutcome {
    /// Policy label ([`crate::Policy::name`]).
    pub policy: String,
    /// Quanta elapsed until the last job finished.
    pub quanta: u64,
    /// Global simulated time at which the last job finished, seconds.
    pub makespan_secs: f64,
    /// Total threads moved between CPUs, all jobs.
    pub thread_migrations: u64,
    /// Total team shrink/grow events, all jobs.
    pub team_resizes: u64,
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// The scheduler's event trace (JobArrived / QuantumExpired /
    /// ThreadMigrated / TeamResized), when tracing was enabled.
    pub trace: Option<Box<obs::Tracer>>,
}

impl SchedOutcome {
    /// The outcome of job `id`.
    pub fn job(&self, id: usize) -> &JobOutcome {
        &self.jobs[id]
    }
}
