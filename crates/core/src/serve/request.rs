//! Request, priority, job-id and error types for the serving layer.

use crate::algo::Algorithm;
use crate::config::PsoConfig;
use crate::gpu::UpdateStrategy;
use crate::resilience::ResilienceConfig;
use fastpso_functions::Objective;
use std::fmt;
use std::sync::Arc;

/// Relative importance of a job. Higher priorities are admitted first and
/// — when [`crate::serve::ServeConfig::priority_preemption`] is on — may
/// preempt running lower-priority jobs; under overload and deadline
/// pressure, the *lowest* priorities are shed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Shed first, admitted last.
    Low,
    /// The default.
    Normal,
    /// Admitted first; preempts `Low`/`Normal` when allowed.
    High,
}

/// Opaque handle for a submitted job, returned by
/// [`crate::serve::Service::submit`]. Ids are assigned in submission order
/// and never reused, so they double as a deterministic tiebreak everywhere
/// the scheduler orders jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One optimization job: an objective, a PSO configuration and the
/// scheduling metadata the service needs to place it.
///
/// Construction is builder-style; only the tenant, objective and config are
/// mandatory:
///
/// ```
/// use fastpso::serve::{OptimizeRequest, Priority};
/// use fastpso::PsoConfig;
/// use fastpso_functions::builtins::Sphere;
/// use std::sync::Arc;
///
/// let cfg = PsoConfig::builder(32, 4).max_iter(50).seed(1).build().unwrap();
/// let req = OptimizeRequest::new("acme", Arc::new(Sphere), cfg)
///     .priority(Priority::High)
///     .deadline_s(0.5);
/// assert_eq!(req.tenant, "acme");
/// ```
#[derive(Clone)]
pub struct OptimizeRequest {
    /// Tenant the job is accounted to.
    pub tenant: String,
    /// The objective to minimise. `Arc` because the scheduler holds jobs
    /// across ticks while callers may keep their own handle.
    pub objective: Arc<dyn Objective>,
    /// Swarm configuration (particles, dimensions, iterations, seed, …).
    pub cfg: PsoConfig,
    /// Scheduling priority. Defaults to [`Priority::Normal`].
    pub priority: Priority,
    /// Optional completion deadline, in modeled seconds after submission.
    /// A job that misses its deadline is shed at the next scheduler tick.
    pub deadline_s: Option<f64>,
    /// Swarm-update memory strategy. Defaults to
    /// [`UpdateStrategy::GlobalMem`].
    pub strategy: UpdateStrategy,
    /// Swarm algorithm the job runs under the plan executor. Defaults to
    /// [`Algorithm::Pso`].
    pub algorithm: Algorithm,
    /// Apply the kernel-fusion rewrite pass to the job's plan.
    pub fused: bool,
    /// Optional resilient-execution configuration (retry, checkpointing,
    /// degradation) for this job.
    pub resilience: Option<ResilienceConfig>,
}

impl OptimizeRequest {
    /// A request with default scheduling metadata: normal priority, no
    /// deadline, global-memory updates, no fusion, no resilience.
    pub fn new(tenant: impl Into<String>, objective: Arc<dyn Objective>, cfg: PsoConfig) -> Self {
        OptimizeRequest {
            tenant: tenant.into(),
            objective,
            cfg,
            priority: Priority::Normal,
            deadline_s: None,
            strategy: UpdateStrategy::GlobalMem,
            algorithm: Algorithm::Pso,
            fused: false,
            resilience: None,
        }
    }

    /// Set the scheduling priority.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Set a completion deadline in modeled seconds after submission.
    pub fn deadline_s(mut self, s: f64) -> Self {
        self.deadline_s = Some(s);
        self
    }

    /// Select the swarm-update memory strategy.
    pub fn strategy(mut self, s: UpdateStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Select the swarm algorithm the job's plan is built for.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Enable the kernel-fusion rewrite pass for this job.
    pub fn fused(mut self, on: bool) -> Self {
        self.fused = on;
        self
    }

    /// Enable resilient execution for this job.
    pub fn resilient(mut self, r: ResilienceConfig) -> Self {
        self.resilience = Some(r);
        self
    }
}

impl fmt::Debug for OptimizeRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptimizeRequest")
            .field("tenant", &self.tenant)
            .field("objective", &self.objective.name())
            .field("n_particles", &self.cfg.n_particles)
            .field("dim", &self.cfg.dim)
            .field("priority", &self.priority)
            .field("deadline_s", &self.deadline_s)
            .finish_non_exhaustive()
    }
}

/// Errors surfaced by the serving layer.
///
/// Variants split into **transient** conditions — the same call can
/// succeed if simply retried later ([`ServeError::QueueFull`] clears as
/// the queue drains) — and **permanent** ones, which no retry fixes. The
/// split mirrors `gpu_sim`'s `GpuError::is_transient` contract and is
/// queryable with [`ServeError::is_retryable`], so a caller of
/// [`Service::submit`](crate::serve::Service::submit) can decide between
/// backoff-and-resubmit and dropping the request on the floor. The enum is
/// `#[non_exhaustive]` for the same reason `GpuError` is: new failure
/// classes (like the restore errors added with the serve journal) must not
/// break downstream matches.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The admission queue is at capacity (and overload shedding is off or
    /// found no lower-priority victim). The request was **not** enqueued;
    /// nothing was dropped — resubmit after draining. **Transient.**
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The job id is not known to this service. **Permanent.**
    UnknownJob(JobId),
    /// The request cannot run on this service's devices (e.g. a ring
    /// topology on a job large enough to shard, or fewer particles than
    /// devices). **Permanent** — resubmitting the same request can never
    /// succeed.
    InvalidRequest(String),
    /// Predictive admission rejected the job up front: even after walking
    /// the strategy downgrade ladder to its cheapest rung, the job's
    /// predicted device-seconds exceed the capacity left before its
    /// deadline, or the wave its devices would run while it is there
    /// outlasts the deadline itself (then `predicted_s` may fit
    /// `budget_s`). Nothing was enqueued or journaled. **Permanent** for this
    /// request against the current backlog — unlike a deadline *shed*, the
    /// caller finds out at submit time, before any device time is spent.
    Infeasible {
        /// Predicted device-seconds of the cheapest strategy tried,
        /// including the configured admission headroom.
        predicted_s: f64,
        /// Device-seconds actually available before the deadline, after
        /// subtracting the reserved backlog of already-accepted jobs.
        budget_s: f64,
    },
    /// The job ended without a result (shed, cancelled or failed);
    /// the payload is its terminal status. **Permanent.**
    NoResult(JobStatus),
    /// A serve-journal snapshot failed its structural or checksum
    /// validation and cannot be restored from. **Permanent.**
    JournalCorrupt(String),
    /// Replaying a valid snapshot did not reproduce the journaled state —
    /// the caller's device group, configuration or request list differs
    /// from the original service's. **Permanent.**
    RestoreMismatch(String),
}

impl ServeError {
    /// Whether retrying the same call later can succeed: `true` only for
    /// backpressure ([`ServeError::QueueFull`]). Every other variant is a
    /// permanent property of the request, the job or the snapshot.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServeError::QueueFull { .. })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity}); retryable")
            }
            ServeError::Infeasible {
                predicted_s,
                budget_s,
            } => write!(
                f,
                "infeasible: predicted {predicted_s:.6} device-seconds, but only \
                 {budget_s:.6} remain before the deadline"
            ),
            ServeError::UnknownJob(id) => write!(f, "unknown {id}"),
            ServeError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServeError::NoResult(st) => write!(f, "job produced no result (status {st:?})"),
            ServeError::JournalCorrupt(msg) => write!(f, "serve journal corrupt: {msg}"),
            ServeError::RestoreMismatch(msg) => {
                write!(f, "snapshot replay diverged: {msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a device lease.
    Queued,
    /// Holding a lease and being stepped.
    Running,
    /// Preempted: state evacuated to host memory, waiting to resume.
    Suspended,
    /// Finished; the result is available via [`crate::serve::Service::result`].
    Completed,
    /// Dropped by the scheduler (deadline missed or overload shedding).
    Shed,
    /// Cancelled by the submitter.
    Cancelled,
    /// Aborted on an unrecovered execution error.
    Failed,
}

impl JobStatus {
    /// Whether the status is terminal (the job will never run again).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Shed | JobStatus::Cancelled | JobStatus::Failed
        )
    }
}
