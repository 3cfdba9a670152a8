//! Jobs: one NAS benchmark instance per job, with its own OpenMP team and
//! its own address space.
//!
//! Jobs model separate processes: each owns a private simulated machine
//! image (pages, caches, reference counters), so two jobs never share
//! memory — they interact only by competing for CPU time, which is the
//! interaction the paper's multiprogramming experiments study. The
//! scheduler multiplexes the *physical* CPUs; a job's grant for a quantum
//! is the set of physical CPUs its threads are bound to.

use nas::{BenchName, BenchRun, RunConfig, Scale};

/// How UPMlib responds when the scheduler migrates a job's threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpmResponse {
    /// No response: the engine stays converged (typically self-deactivated)
    /// while the threads move out from under the tuned placement.
    #[default]
    None,
    /// Forget-and-relearn: re-arm the engine after each rebind so the next
    /// observation windows re-learn the placement under the new binding.
    ForgetRelearn,
    /// Record–replay of the old placement: immediately replay the tuned
    /// page homes under the new binding — "page migration follows thread
    /// migration". Falls back to forget-and-relearn when the thread moves
    /// induce no consistent node-to-node map (e.g. a team resize).
    FollowThreads,
}

impl UpmResponse {
    /// Label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            UpmResponse::None => "none",
            UpmResponse::ForgetRelearn => "relearn",
            UpmResponse::FollowThreads => "follow",
        }
    }
}

/// Everything needed to admit one job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Which NAS benchmark the job runs.
    pub bench: BenchName,
    /// Problem scale.
    pub scale: Scale,
    /// Per-job run configuration: placement scheme, migration engine,
    /// requested team size, machine image. `trace` should stay `false` —
    /// the scheduler keeps its own trace of scheduling events.
    pub config: RunConfig,
    /// Scheduler-aware UPMlib response mode.
    pub response: UpmResponse,
    /// Simulated arrival time; the job is runnable once the scheduler's
    /// global clock reaches it.
    pub arrival_ns: f64,
}

impl JobSpec {
    /// A job arriving at time zero with the default (no) UPMlib response.
    pub fn new(bench: BenchName, scale: Scale, config: RunConfig) -> Self {
        Self {
            bench,
            scale,
            config,
            response: UpmResponse::None,
            arrival_ns: 0.0,
        }
    }

    /// Set the UPMlib response mode.
    pub fn with_response(mut self, response: UpmResponse) -> Self {
        self.response = response;
        self
    }

    /// Set the arrival time.
    pub fn arriving_at_ns(mut self, arrival_ns: f64) -> Self {
        self.arrival_ns = arrival_ns;
        self
    }
}

/// One admitted job: the running benchmark plus the scheduler's
/// bookkeeping about it.
pub struct Job {
    /// Dense id, in submission order.
    pub id: usize,
    /// The admission record.
    pub spec: JobSpec,
    pub(crate) run: BenchRun,
    /// Current CPU binding (`binding[i]` = thread `i`'s physical CPU);
    /// mirrors the job runtime's binding.
    pub(crate) binding: Vec<usize>,
    /// Unspent CPU-time budget, in simulated ns. Granted a quantum each
    /// time the job is scheduled; iterations spend it. Overshoot (an
    /// iteration longer than the remaining budget) leaves it negative, so
    /// the job pays the debt out of its next grant — cooperative
    /// preemption at iteration granularity.
    pub(crate) budget_ns: f64,
    /// Global time at which the job's last iteration completed.
    pub(crate) finish_ns: Option<f64>,
    /// Threads moved between CPUs by the scheduler.
    pub(crate) thread_migrations: u64,
    /// Team shrink/grow events applied by the scheduler.
    pub(crate) team_resizes: u64,
    /// Simulated CPU seconds consumed by timed iterations, in ns.
    pub(crate) cpu_ns: f64,
    /// Quanta during which this job held CPUs.
    pub(crate) quanta_run: u64,
    /// The binding before the oldest rebind whose UPMlib response has not
    /// fired yet. The scheduler fires the response at most once per
    /// completed iteration; rebinds arriving faster than the job can step
    /// coalesce into one deferred response from this binding to the
    /// current one.
    pub(crate) response_old: Option<Vec<usize>>,
    /// `run.steps_done()` when the response last fired — responses are
    /// gated on the job having stepped since, which bounds total response
    /// cost by (iterations x hot-set move cost) and makes starvation
    /// impossible no matter how fast the scheduler rotates bindings.
    pub(crate) steps_at_last_response: usize,
}

impl Job {
    pub(crate) fn new(id: usize, spec: JobSpec) -> Self {
        let run = BenchRun::for_bench(spec.bench, spec.scale, &spec.config);
        let binding = run.runtime().binding().to_vec();
        Self {
            id,
            spec,
            run,
            binding,
            budget_ns: 0.0,
            finish_ns: None,
            thread_migrations: 0,
            team_resizes: 0,
            cpu_ns: 0.0,
            quanta_run: 0,
            response_old: None,
            steps_at_last_response: 0,
        }
    }

    /// Whether the job has run every timed iteration.
    pub fn is_done(&self) -> bool {
        self.run.is_done()
    }

    /// Current CPU binding.
    pub fn binding(&self) -> &[usize] {
        &self.binding
    }

    /// Threads moved between CPUs so far.
    pub fn thread_migrations(&self) -> u64 {
        self.thread_migrations
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("bench", &self.spec.bench)
            .field("binding", &self.binding)
            .field("done", &self.is_done())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::MachineConfig;
    use nas::{EngineMode, RunConfig};
    use vmm::PlacementScheme;

    fn tiny_spec() -> JobSpec {
        JobSpec::new(
            BenchName::Cg,
            Scale::Tiny,
            RunConfig {
                placement: PlacementScheme::FirstTouch,
                engine: EngineMode::None,
                threads: 4,
                machine: MachineConfig::tiny_test(),
                trace: false,
            },
        )
    }

    #[test]
    fn new_job_is_bound_identity_and_not_done() {
        let job = Job::new(0, tiny_spec());
        assert_eq!(job.binding(), &[0, 1, 2, 3]);
        assert!(!job.is_done());
        assert_eq!(job.thread_migrations(), 0);
    }

    #[test]
    fn spec_builders_set_fields() {
        let spec = tiny_spec()
            .with_response(UpmResponse::FollowThreads)
            .arriving_at_ns(5e6);
        assert_eq!(spec.response, UpmResponse::FollowThreads);
        assert_eq!(spec.arrival_ns, 5e6);
        assert_eq!(UpmResponse::None.label(), "none");
        assert_eq!(UpmResponse::ForgetRelearn.label(), "relearn");
        assert_eq!(UpmResponse::FollowThreads.label(), "follow");
    }
}
