//! The service itself: admission, placement, time-slicing, preemption,
//! deadline shedding, device-loss re-homing and per-tenant accounting.

use super::journal::{ServeEvent, ServeJournal};
use super::queue::{AdmissionQueue, QueueEntry};
use super::request::{JobId, JobStatus, OptimizeRequest, Priority, ServeError};
use crate::algo::algorithm_impl;
use crate::config::PsoConfig;
use crate::error::PsoError;
use crate::gpu::UpdateStrategy;
use crate::plan::{
    check_shardable, partition, run_resident, BestReduce, ExecState, ExecutionPlan, PlanRun,
    SuspendedJob,
};
use crate::predictor::{CostPredictor, JobShape, Schedule};
use crate::result::RunResult;
use gpu_sim::lease::{Lease, LeasePool};
use gpu_sim::{DeviceGroup, FleetHealth, HealthPolicy, Phase};
use perf_model::{JobOutcome, JobRecord, TenantSummary, Timeline};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Scheduler knobs. The defaults favour strict backpressure: a full queue
/// rejects rather than sheds, and only explicit deadlines drop work.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-queue bound; a full queue rejects new submissions with
    /// [`ServeError::QueueFull`]. Preempted jobs re-enter the queue above
    /// this bound — backpressure applies to arrivals, never to work the
    /// service already accepted.
    pub queue_capacity: usize,
    /// Co-resident jobs allowed per device (slot count for the lease pool).
    pub slots_per_device: usize,
    /// Jobs with at least this many particles are sharded across every
    /// device of the group instead of packed onto one.
    pub shard_threshold_particles: usize,
    /// Iterations a running job advances per scheduler tick (the
    /// time-slice quantum).
    pub slice_iters: usize,
    /// Allow a queued higher-priority job to preempt (suspend) a running
    /// strictly-lower-priority job when no lease is free.
    pub priority_preemption: bool,
    /// On a full queue, evict the lowest-priority queued job (recorded as
    /// shed) to admit a strictly higher-priority arrival. Off by default —
    /// the queue then *never* drops accepted work.
    pub shed_on_overload: bool,
    /// Capture a host-side re-homing checkpoint of every running job each
    /// time it completes this many slices (1 = every slice). A device lost
    /// mid-slice rolls the job back to its latest capture; `0` disables
    /// periodic captures, so loss restarts jobs from iteration zero
    /// (still bit-identical, just more recompute). Capture transfers are
    /// charged to [`Phase::Recovery`].
    pub checkpoint_slices: usize,
    /// Circuit-breaker thresholds for the fleet-health tracker that lease
    /// placement consults (see [`FleetHealth`]).
    pub health: HealthPolicy,
    /// Reject deadline jobs at submit time when the cost predictor says
    /// they cannot finish in the device-seconds left before their deadline,
    /// or their devices' wave cannot finish in the deadline itself
    /// ([`ServeError::Infeasible`]), after first
    /// trying to downgrade the request to a cheaper update strategy that
    /// still fits — walking the per-algorithm ladder
    /// ([`crate::SwarmAlgorithm::cheaper_strategy`]). Off by default: the
    /// blind scheduler accepts everything and sheds at the deadline
    /// instead.
    pub predictive_admission: bool,
    /// Multiplier applied to predictions when checking feasibility and
    /// reserving capacity (`1.0` = trust the calibrated predictor exactly;
    /// larger values admit more conservatively). Only read when
    /// [`ServeConfig::predictive_admission`] is on.
    pub admission_headroom: f64,
    /// Cross-job micro-batching policy: a placement rule. When set, each
    /// admission gathers small single-shard queued jobs, in admission
    /// order and within the policy's bounds, under **one** device lease.
    /// Every job steps its own plan on its own stream lane inside its
    /// device's one region per tick, batched or not, so any mix of
    /// algorithms, strategies, dimensions and topologies may share a
    /// lease: batching only decides which jobs share a device. Per-job
    /// results stay bit-identical to solo execution; checkpoint, preempt,
    /// re-home and journal semantics are unchanged at slice boundaries,
    /// and the cost predictor prices and calibrates a batch member like
    /// any other resident job. `None` (the default) disables batching.
    pub batching: Option<BatchPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            slots_per_device: 4,
            shard_threshold_particles: 8192,
            slice_iters: 8,
            priority_preemption: true,
            shed_on_overload: false,
            checkpoint_slices: 1,
            health: HealthPolicy::default(),
            predictive_admission: false,
            admission_headroom: 1.0,
            batching: None,
        }
    }
}

/// Bounds on one micro-batch ([`ServeConfig::batching`]). Both must be
/// positive ([`Service::new`] panics otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most jobs under one lease, the admitted head included.
    pub max_jobs: usize,
    /// Cap on the batch's summed state matrix, in elements (Σ over members
    /// of `n_particles × dim`). Also the per-job eligibility bound: a job
    /// bigger than this never batches.
    pub max_elems: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_jobs: 8,
            max_elems: 16384,
        }
    }
}

impl fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jobs={},elems={}", self.max_jobs, self.max_elems)
    }
}

/// Work a queued job represents: a fresh start, or a suspended execution
/// (preempted or re-homed) waiting to resume.
enum Work {
    Fresh,
    Suspended(SuspendedJob),
}

/// One job's ledger from [`Service::submit`] to its [`JobRecord`]. It moves
/// between the queue and the devices, and every device-second the job
/// spends is charged to it through one [`Meter`].
struct Job {
    id: JobId,
    req: OptimizeRequest,
    submitted_s: f64,
    deadline_abs: Option<f64>,
    queue_depth_at_submit: usize,
    /// First admission; kept across preemption and re-homing.
    started_s: Option<f64>,
    /// Device-seconds billed on each device of the service's group.
    device_s: Vec<f64>,
    recovery_s: f64,
    rehomes: u64,
    /// Device-seconds the predictor quoted at admission (0 when predictive
    /// admission is off). The reservation the job holds against the
    /// admission budget is `predicted_s·headroom − device_seconds`.
    predicted_s: f64,
    /// Region opens and checkpoint copies billed to the job, and the sum
    /// of its `1/n` share of each.
    shares: [f64; 2],
    /// Share of the buffers its last init or resume allocated that the
    /// pool served.
    pooled: f64,
    /// Seconds the job queued on its stream lanes, and what it was billed
    /// for them after its devices' overlap credits.
    lane_s: [f64; 2],
    /// Allocations inside its regions that the pool could not serve.
    region_misses: u64,
}

impl Job {
    /// Bill a `1/n` share of `spent` (`[total, recovery]` seconds, a
    /// [`Meter::since`] entry) on device `d`, a region open or checkpoint
    /// copy that `n` jobs shared.
    fn bill(&mut self, d: usize, spent: [f64; 2], n: usize) {
        let n = n as f64;
        self.device_s[d] += spent[0] / n;
        self.recovery_s += spent[1] / n;
        self.shares = [self.shares[0] + 1.0, self.shares[1] + 1.0 / n];
    }

    /// Jobs that shared the job's region opens and checkpoint copies: the
    /// harmonic mean over its bills, so that pricing the job with it
    /// charges the shares it paid (1 = alone, or never billed).
    fn billed_sharers(&self) -> f64 {
        let [bills, share] = self.shares;
        (bills / share.max(f64::MIN_POSITIVE)).max(1.0)
    }

    /// The share of its lane seconds the job was billed (1 = no overlap,
    /// or it never stepped).
    fn lane_share(&self) -> f64 {
        let [queued, billed] = self.lane_s;
        if queued > 0.0 {
            billed / queued
        } else {
            1.0
        }
    }

    /// Add `spent` ([`Meter::since`] entries), seconds the job queued on
    /// its stream lanes, to its lane seconds and to `queued`, its seconds on
    /// each device's lane this tick.
    fn on_lanes(&mut self, spent: &[[f64; 2]], queued: &mut [f64]) {
        for (q, [total, _]) in queued.iter_mut().zip(spent) {
            *q += total;
            self.lane_s[0] += total;
            self.lane_s[1] += total;
        }
    }

    /// Device-seconds billed so far, over every device.
    fn device_seconds(&self) -> f64 {
        self.device_s.iter().sum()
    }

    /// The job's terminal record. A job that never started reports `now`
    /// as its start.
    fn record(self, outcome: JobOutcome, iterations: usize, now: f64) -> JobRecord {
        let device_seconds = self.device_seconds();
        let sharers = self.billed_sharers();
        let lane_share = self.lane_share();
        JobRecord {
            tenant: self.req.tenant,
            job: self.id.0,
            submitted_s: self.submitted_s,
            started_s: self.started_s.unwrap_or(now),
            finished_s: now,
            outcome,
            iterations,
            device_seconds,
            queue_depth_at_submit: self.queue_depth_at_submit,
            rehomes: self.rehomes,
            recovery_secs: self.recovery_s,
            sharers,
            pooled: self.pooled,
            lane_share,
            region_misses: self.region_misses,
        }
    }
}

/// A reading of the shared group's timelines: `[total, recovery]` seconds
/// per device, and the driver allocations (pool misses) of the whole
/// group. Every device-second the scheduler attributes to a job is the
/// difference of two readings.
struct Meter {
    seconds: Vec<[f64; 2]>,
    misses: u64,
}

impl Meter {
    fn read(group: &DeviceGroup) -> Meter {
        let mut misses = 0;
        let mut reading = |tl: Timeline| {
            misses += tl.total_counters().device_allocs;
            [tl.total_seconds(), tl.seconds(Phase::Recovery)]
        };
        let seconds = group.iter().map(|dev| reading(dev.timeline())).collect();
        Meter { seconds, misses }
    }

    /// What the group charged since this reading.
    fn elapsed(&self, group: &DeviceGroup) -> Meter {
        let now = Meter::read(group);
        let seconds = (now.seconds.iter().zip(&self.seconds))
            .map(|(n, t)| [n[0] - t[0], n[1] - t[1]])
            .collect();
        let misses = now.misses - self.misses;
        Meter { seconds, misses }
    }

    /// The seconds charged on each device since this reading.
    fn since(&self, group: &DeviceGroup) -> Vec<[f64; 2]> {
        self.elapsed(group).seconds
    }

    /// Charge everything since this reading to `job`, and return it.
    fn charge(&self, group: &DeviceGroup, job: &mut Job) -> Meter {
        let spent = self.elapsed(group);
        for (d, [total, recovery]) in spent.seconds.iter().enumerate() {
            job.device_s[d] += total;
            job.recovery_s += recovery;
        }
        spent
    }
}

/// A job waiting in the admission queue.
struct Pending {
    job: Job,
    work: Work,
}

impl Pending {
    /// Iterations completed so far: those of the suspended snapshot.
    fn iterations(&self) -> usize {
        match &self.work {
            Work::Fresh => 0,
            Work::Suspended(s) => s.iterations_run(),
        }
    }

    /// The queue entry for this job, at its request's priority.
    fn entry(self) -> QueueEntry<Pending> {
        QueueEntry {
            id: self.job.id,
            priority: self.job.req.priority,
            payload: self,
        }
    }
}

/// A job holding a lease and being stepped.
struct Running {
    job: Job,
    plan: ExecutionPlan,
    view: DeviceGroup,
    /// The device lease; the view's device `k` is the group's
    /// `lease.devices()[k]`. Micro-batch members share one lease (`Rc`): it
    /// returns to the pool when the *last* member releases it.
    lease: Rc<Lease>,
    /// The job's device state: `None` from admission until its first
    /// region builds it on the job's lanes ([`Running::materialize`]).
    state: Option<ExecState>,
    /// Latest host-side checkpoint, captured at a slice boundary, or the
    /// suspended work the job was admitted with. Device loss rolls the job
    /// back to this; `None` (no boundary reached yet) restarts it fresh —
    /// both replay bit-identically.
    snapshot: Option<SuspendedJob>,
    slices_since_snapshot: usize,
}

impl Running {
    /// Elements the job holds on each device of an `n`-device group; none
    /// when it leases a `lost` device, since it will not step. A job with
    /// no state yet holds what its first region builds: each shard's rows
    /// of the plan's partition, on view device `shard % len` as
    /// [`PlanRun::resume`] homes them.
    fn homed(&self, n: usize, lost: &[bool]) -> Vec<u64> {
        let mut out = vec![0; n];
        if self.lease.devices().iter().any(|&d| lost[d]) {
            return out;
        }
        let devices = self.view.len();
        let view = match &self.state {
            Some(state) => state.elements_per_device(devices),
            None => {
                let (n, d) = (self.job.req.cfg.n_particles, self.job.req.cfg.dim);
                let mut view = vec![0; devices];
                for (s, (_, rows)) in partition(n, self.plan.n_shards).into_iter().enumerate() {
                    view[s % devices] += (rows * d) as u64;
                }
                view
            }
        };
        for (&d, e) in self.lease.devices().iter().zip(view) {
            out[d] += e;
        }
        out
    }

    /// Build the job's device state, on whatever lanes are bound: a resume
    /// from its snapshot when it holds one, else a fresh init.
    fn materialize(&self) -> Result<ExecState, PsoError> {
        let run = bind(&self.job.req, &self.plan, &self.view);
        match &self.snapshot {
            Some(s) => run.resume(s.clone()),
            None => run.init_state(),
        }
    }

    /// Iterations completed so far: the state's, or those of the work it
    /// was admitted with.
    fn iterations(&self) -> usize {
        match (&self.state, &self.snapshot) {
            (Some(state), _) => state.iterations_run(),
            (None, snap) => snap.as_ref().map_or(0, SuspendedJob::iterations_run),
        }
    }

    /// Bind each device the job leases to the job's lane there.
    fn bind_lanes(&self, group: &DeviceGroup, lanes: &[u32]) {
        for (&d, &lane) in self.lease.devices().iter().zip(lanes) {
            group
                .device(d)
                .expect("a leased device is in the group")
                .bind_stream(lane);
        }
    }
}

/// What one tick's region did with a running job: `None` when it did not
/// step, else the slice's outcome, carrying the job's result once it
/// completes.
type SliceOutcome = Option<Result<Option<RunResult>, PsoError>>;

/// A finished job: terminal status plus the result when it completed.
struct Finished {
    status: JobStatus,
    result: Option<RunResult>,
}

/// A multi-tenant optimization job service over a shared [`DeviceGroup`].
///
/// See the [module docs](crate::serve) for the full scheduling model and a
/// worked example.
pub struct Service {
    group: DeviceGroup,
    pool: LeasePool,
    cfg: ServeConfig,
    health: FleetHealth,
    journal: ServeJournal,
    queue: AdmissionQueue<Pending>,
    running: Vec<Running>,
    finished: BTreeMap<JobId, Finished>,
    records: Vec<JobRecord>,
    /// Device-seconds billed to finished jobs, per device.
    billed: Vec<f64>,
    next_id: u64,
    predictor: CostPredictor,
    goodput_s: f64,
    rejected_infeasible: u64,
    admission_downgrades: u64,
}

impl Service {
    /// A service over `group` with the given scheduler configuration.
    /// Panics if the group is empty or a knob is zero.
    pub fn new(group: DeviceGroup, cfg: ServeConfig) -> Self {
        assert!(!group.is_empty(), "a service needs at least one device");
        assert!(cfg.slice_iters > 0, "slice_iters must be positive");
        if let Some(b) = cfg.batching {
            assert!(
                b.max_jobs > 0 && b.max_elems > 0,
                "batch bounds must be positive, got {b}"
            );
        }
        assert!(
            cfg.admission_headroom.is_finite() && cfg.admission_headroom > 0.0,
            "admission_headroom must be positive and finite"
        );
        let health = FleetHealth::new(group.len(), cfg.health);
        let mut pool = LeasePool::new(&group, cfg.slots_per_device);
        pool.set_health(health.clone());
        let queue = AdmissionQueue::new(cfg.queue_capacity);
        let dev0 = group.device(0).expect("non-empty group");
        let predictor = CostPredictor::new(dev0.profile(), dev0.link());
        Service {
            billed: vec![0.0; group.len()],
            group,
            pool,
            cfg,
            health,
            journal: ServeJournal::new(),
            queue,
            running: Vec::new(),
            finished: BTreeMap::new(),
            records: Vec::new(),
            next_id: 0,
            predictor,
            goodput_s: 0.0,
            rejected_infeasible: 0,
            admission_downgrades: 0,
        }
    }

    /// The service's modeled wall clock: the group's concurrent elapsed
    /// time (max over per-device timelines). Shared by every job the
    /// service has run — the serving layer never resets timelines.
    pub fn now(&self) -> f64 {
        self.group.elapsed_seconds()
    }

    /// The shared device group (for metrics/profiler inspection).
    pub fn group(&self) -> &DeviceGroup {
        &self.group
    }

    /// The fleet-health tracker that lease placement consults. The handle
    /// is shared with the pool, so states read here are the ones admission
    /// saw.
    pub fn health(&self) -> &FleetHealth {
        &self.health
    }

    /// The append-only journal of every serve event so far (inputs and
    /// outcomes, in order). Serialize it with [`Service::snapshot`].
    pub fn journal(&self) -> &ServeJournal {
        &self.journal
    }

    /// Jobs waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently holding a device lease.
    pub fn n_running(&self) -> usize {
        self.running.len()
    }

    /// Ids of the jobs currently holding a lease, in ascending id order.
    pub fn running_ids(&self) -> Vec<JobId> {
        self.running.iter().map(|r| r.job.id).collect()
    }

    /// Device-lease slots currently held and the pool's high-water mark.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.pool.in_use(), self.pool.peak_in_use())
    }

    /// Serialize the serve journal as a crash-safe snapshot: a
    /// checksummed byte image that [`Service::restore`] can rebuild the
    /// service from. Taking a snapshot is read-only and can happen at any
    /// point between ticks.
    pub fn snapshot(&self) -> Vec<u8> {
        self.journal.to_bytes()
    }

    /// Rebuild a service from a [`Service::snapshot`] image by replaying
    /// its input events (submissions, cancellations, ticks) against a
    /// fresh service. Because the scheduler is deterministic, the replay
    /// regenerates every outcome event; the rebuilt journal is compared
    /// byte-for-byte against `snapshot` and any divergence is rejected
    /// with [`ServeError::RestoreMismatch`].
    ///
    /// The journal stores scheduling metadata but not objective closures,
    /// so the caller supplies `requests` — the accepted requests in
    /// original submission order (the client's durable request store) —
    /// and a fresh `group` configured identically to the original's
    /// (same devices, same fault plans, zeroed timelines).
    pub fn restore(
        group: DeviceGroup,
        cfg: ServeConfig,
        snapshot: &[u8],
        requests: Vec<OptimizeRequest>,
    ) -> Result<Service, ServeError> {
        let journal = ServeJournal::from_bytes(snapshot).map_err(ServeError::JournalCorrupt)?;
        let mut svc = Service::new(group, cfg);
        let mut reqs = requests.into_iter();
        for ev in journal.events().to_vec() {
            match ev {
                ServeEvent::Submit { job, .. } => {
                    let req = reqs.next().ok_or_else(|| {
                        ServeError::RestoreMismatch(format!(
                            "journal submits job#{job} but the request list is exhausted"
                        ))
                    })?;
                    let id = svc.submit(req).map_err(|e| {
                        ServeError::RestoreMismatch(format!(
                            "replaying the submission of job#{job} failed: {e}"
                        ))
                    })?;
                    if id.0 != job {
                        return Err(ServeError::RestoreMismatch(format!(
                            "replayed submission produced {id}, journal says job#{job}"
                        )));
                    }
                }
                ServeEvent::Cancel { job } => {
                    // Journaled cancels always address live jobs: cancelling
                    // an already-terminal job is a no-op that logs nothing.
                    svc.cancel(JobId(job)).map_err(|e| {
                        ServeError::RestoreMismatch(format!(
                            "replaying the cancellation of job#{job} failed: {e}"
                        ))
                    })?;
                }
                ServeEvent::Tick => {
                    svc.tick();
                }
                _ => {} // outcome events regenerate during replayed ticks
            }
        }
        if svc.snapshot() != snapshot {
            return Err(ServeError::RestoreMismatch(
                "replayed journal bytes differ from the snapshot — the device \
                 group, configuration or request list does not match the \
                 original service's"
                    .into(),
            ));
        }
        Ok(svc)
    }

    /// Validate and enqueue a request. Returns the job's id, or
    /// [`ServeError::QueueFull`] under backpressure (the request is not
    /// retained), or [`ServeError::InvalidRequest`] if the job could never
    /// run on this group, or — with [`ServeConfig::predictive_admission`]
    /// on — [`ServeError::Infeasible`] if the cost predictor says the job
    /// cannot finish before its deadline even after downgrading to the
    /// cheapest update strategy. An admitted deadline job may run with a
    /// cheaper strategy than requested (see [`Service::admission_plan`]);
    /// rejected submissions are never journaled and consume no job id.
    pub fn submit(&mut self, req: OptimizeRequest) -> Result<JobId, ServeError> {
        self.validate(&req)?;
        let (strategy, predicted_s) = match self.admission_plan(&req) {
            Ok(plan) => plan,
            Err(e) => {
                self.rejected_infeasible += 1;
                return Err(e);
            }
        };
        let mut req = req;
        if strategy != req.strategy {
            self.admission_downgrades += 1;
            req.strategy = strategy;
        }
        let id = JobId(self.next_id);
        let now = self.now();
        let submitted = ServeEvent::Submit {
            job: id.0,
            tenant: req.tenant.clone(),
            priority: req.priority,
            deadline_s: req.deadline_s,
        };
        let job = Job {
            id,
            submitted_s: now,
            deadline_abs: req.deadline_s.map(|d| now + d),
            queue_depth_at_submit: self.queue.len(),
            started_s: None,
            device_s: vec![0.0; self.group.len()],
            recovery_s: 0.0,
            rehomes: 0,
            predicted_s,
            shares: [0.0; 2],
            pooled: 0.0,
            lane_s: [0.0; 2],
            region_misses: 0,
            req,
        };
        let entry = Pending {
            job,
            work: Work::Fresh,
        }
        .entry();
        let evicted = self.queue.push(entry, self.cfg.shed_on_overload)?;
        self.next_id += 1;
        self.journal.append(submitted);
        if let Some(e) = evicted {
            self.finalize_pending(e.payload, JobOutcome::Shed, now);
        }
        Ok(id)
    }

    /// Cancel a job. Queued jobs leave the queue; running jobs drop their
    /// device buffers and release their lease immediately. Cancelling a
    /// job that already reached a terminal state is a no-op.
    pub fn cancel(&mut self, id: JobId) -> Result<(), ServeError> {
        let now = self.now();
        if let Some(entry) = self.queue.remove(id) {
            self.finalize_pending(entry.payload, JobOutcome::Cancelled, now);
            return Ok(());
        }
        if let Some(i) = self.running.iter().position(|r| r.job.id == id) {
            let run = self.running.remove(i);
            self.finalize_running_dropped(run, JobOutcome::Cancelled, now);
            return Ok(());
        }
        if self.finished.contains_key(&id) {
            return Ok(());
        }
        Err(ServeError::UnknownJob(id))
    }

    /// Where `id` currently is in its lifecycle.
    pub fn status(&self, id: JobId) -> Result<JobStatus, ServeError> {
        if let Some(f) = self.finished.get(&id) {
            return Ok(f.status);
        }
        if self.running.iter().any(|r| r.job.id == id) {
            return Ok(JobStatus::Running);
        }
        if let Some(e) = self.queue.get(id) {
            return Ok(match e.payload.work {
                Work::Fresh => JobStatus::Queued,
                Work::Suspended(_) => JobStatus::Suspended,
            });
        }
        Err(ServeError::UnknownJob(id))
    }

    /// The result of a completed job. Jobs that ended any other way (or
    /// have not finished yet) return [`ServeError::NoResult`] carrying
    /// their current status.
    pub fn result(&self, id: JobId) -> Result<&RunResult, ServeError> {
        match self.finished.get(&id) {
            Some(Finished {
                result: Some(r), ..
            }) => Ok(r),
            _ => Err(ServeError::NoResult(self.status(id)?)),
        }
    }

    /// One [`JobRecord`] per job that reached a terminal state, in
    /// finalization order.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Device-seconds billed to finished jobs on each device of the group.
    /// Every second a device spends is billed to a job on it, so once every
    /// job is terminal each entry equals that device's timeline total.
    pub fn billed_seconds(&self) -> &[f64] {
        &self.billed
    }

    /// Per-tenant latency/outcome rollup of every finished job.
    pub fn tenant_rollups(&self) -> Vec<TenantSummary> {
        TenantSummary::rollup(&self.records)
    }

    /// Concatenated profiler records of every device — the service-wide
    /// launch manifest. Deterministic for a replayed trace.
    pub fn merged_profiler(&self) -> perf_model::ProfilerLog {
        self.group.merged_profiler()
    }

    /// The admission decision [`Service::submit`] would make for `req`
    /// right now, without mutating anything: the update strategy the job
    /// would run with (possibly downgraded along
    /// [`crate::SwarmAlgorithm::cheaper_strategy`]) and its predicted device-seconds
    /// at that strategy, or [`ServeError::Infeasible`] if no rung fits. A
    /// rung fits when its predicted cost, with
    /// [`ServeConfig::admission_headroom`], fits the device-seconds left
    /// before the deadline, and its latency floor fits the deadline
    /// itself. The floor is the wave its device runs while it is there:
    /// the jobs already accepted on it and this one, each priced like
    /// it. It is not padded by the
    /// headroom, which covers the predictor's error in the capacity each
    /// job reserves: padding the floor as well turns away jobs that a
    /// lightly loaded device serves in time (DESIGN.md §11).
    ///
    /// With [`ServeConfig::predictive_admission`] off, or for a request
    /// without a deadline, this never rejects or downgrades — it returns
    /// the requested strategy and its prediction.
    pub fn admission_plan(
        &self,
        req: &OptimizeRequest,
    ) -> Result<(UpdateStrategy, f64), ServeError> {
        if !self.cfg.predictive_admission {
            return Ok((req.strategy, 0.0));
        }
        let (predicted, latency) = self.predict_request(req, req.strategy);
        let Some(deadline) = req.deadline_s else {
            // No deadline: always admissible, but the job still reserves
            // its predicted cost so deadline jobs behind it see the load.
            return Ok((req.strategy, predicted));
        };
        let h = self.cfg.admission_headroom;
        let budget = self.healthy_devices() as f64 * deadline;
        let available = (budget - self.reserved_backlog_s()).max(0.0);
        let mut strategy = req.strategy;
        let (mut predicted, mut latency) = (predicted, latency);
        loop {
            if predicted * h <= available && latency <= deadline {
                return Ok((strategy, predicted));
            }
            match algorithm_impl(req.algorithm).cheaper_strategy(strategy) {
                Some(next) => {
                    strategy = next;
                    (predicted, latency) = self.predict_request(req, strategy);
                }
                None => {
                    return Err(ServeError::Infeasible {
                        predicted_s: predicted * h,
                        budget_s: available,
                    })
                }
            }
        }
    }

    /// Total device-seconds of completed jobs that met their deadline (a
    /// job without a deadline always counts) — the overload benchmark's
    /// goodput metric. Shed, failed and cancelled work contributes nothing.
    pub fn goodput_s(&self) -> f64 {
        self.goodput_s
    }

    /// Submissions rejected up front with [`ServeError::Infeasible`].
    pub fn rejected_infeasible(&self) -> u64 {
        self.rejected_infeasible
    }

    /// Admitted deadline jobs that were downgraded to a cheaper update
    /// strategy to fit their deadline.
    pub fn admission_downgrades(&self) -> u64 {
        self.admission_downgrades
    }

    /// The cost predictor, calibrated so far from this service's completed
    /// jobs (one observation per completion).
    pub fn predictor(&self) -> &CostPredictor {
        &self.predictor
    }

    /// One scheduler round: refresh fleet health, shed expired jobs,
    /// re-home jobs stranded on lost devices, admit from the queue
    /// (preempting if allowed and necessary), then advance every running
    /// job by up to [`ServeConfig::slice_iters`] iterations. Returns the
    /// number of scheduling events (sheds + re-homings + admissions +
    /// preemptions + jobs stepped); `0` means the tick could make no
    /// progress.
    pub fn tick(&mut self) -> usize {
        self.health.observe(&self.group);
        self.journal.append(ServeEvent::Tick);
        let mut events = 0;
        events += self.shed_expired();
        events += self.rehome_lost();
        events += self.admit();
        events += self.step_running();
        events
    }

    /// Drive [`Service::tick`] until the queue and devices are idle.
    /// Returns the number of ticks run. Stops early only if a tick makes
    /// no progress, which cannot happen while any device survives.
    pub fn run_until_idle(&mut self) -> usize {
        let mut ticks = 0;
        while !self.queue.is_empty() || !self.running.is_empty() {
            let events = self.tick();
            ticks += 1;
            if events == 0 {
                break;
            }
        }
        ticks
    }

    // ---- internals ------------------------------------------------------

    fn validate(&self, req: &OptimizeRequest) -> Result<(), ServeError> {
        if req.tenant.is_empty() {
            return Err(ServeError::InvalidRequest("empty tenant name".into()));
        }
        // The config's fields are public and the objective is the client's:
        // check both, with the domain the run would actually use.
        let cfg = PsoConfig {
            domain: Some(req.cfg.resolve_domain(req.objective.domain())),
            ..req.cfg.clone()
        };
        cfg.validate()
            .map_err(|e| ServeError::InvalidRequest(e.to_string()))?;
        if self.will_shard(&req.cfg) {
            check_shardable(&req.cfg, self.pool.n_devices()).map_err(ServeError::InvalidRequest)?;
        }
        Ok(())
    }

    fn will_shard(&self, cfg: &PsoConfig) -> bool {
        self.pool.n_devices() > 1 && cfg.n_particles >= self.cfg.shard_threshold_particles
    }

    /// The predictor's view of `req` run with `strategy` on `schedule`:
    /// full iteration budget and sharded the way admission would shard it.
    fn shape_of(
        &self,
        req: &OptimizeRequest,
        strategy: UpdateStrategy,
        schedule: Schedule,
    ) -> JobShape {
        let shards = if self.will_shard(&req.cfg) {
            self.pool.n_devices()
        } else {
            1
        };
        JobShape::new(
            req.cfg.n_particles as u64,
            req.cfg.dim as u64,
            req.cfg.max_iter as u64,
            strategy,
        )
        .shards(shards as u64)
        .flops_per_dim(req.objective.flops_per_dim())
        .algorithm(req.algorithm)
        .topology(req.cfg.topology)
        .schedule(schedule)
    }

    /// The schedule a job is priced on: resident, sharing each region with
    /// `sharers` jobs, drawing the `pooled` share of its init buffers from
    /// the allocator pool, billed `lane_share` of its lane seconds, and
    /// paying the driver for `region_misses` allocations inside its
    /// regions. Every region is grid-stride over the elements homed on its
    /// device ([`run_resident`]), so neither swarm size, shard count nor
    /// batch membership matters.
    fn schedule_of(
        &self,
        sharers: f64,
        pooled: f64,
        lane_share: f64,
        region_misses: u64,
    ) -> Schedule {
        Schedule::Resident {
            slice: self.cfg.slice_iters as u64,
            checkpoint_slices: self.cfg.checkpoint_slices as u64,
            sharers,
            pooled,
            lane_share,
            region_misses,
        }
    }

    /// Jobs a job submitted now is expected to share each region with,
    /// itself included: [`Service::committed_sharers`], but no fewer than
    /// the last completed job was billed alongside (a job submitted into a
    /// just-drained service shares its devices with the jobs submitted
    /// after it, as that one did), at most a device's slots.
    fn expected_sharers(&self) -> u64 {
        let last = self
            .last_completed()
            .map_or(1, |r| r.sharers.round() as u64);
        let slots = self.cfg.slots_per_device.max(1) as u64;
        self.committed_sharers().max(last).min(slots)
    }

    /// Jobs the device a job submitted now lands on holds, itself
    /// included, counting only work already accepted: the running and
    /// queued jobs per healthy device, plus this one, at most a device's
    /// slots.
    fn committed_sharers(&self) -> u64 {
        let load = self.running.len() + self.queue.len();
        let per_device = load / self.healthy_devices().max(1) + 1;
        per_device.clamp(1, self.cfg.slots_per_device.max(1)) as u64
    }

    /// The share of its lane seconds a job expected to share its devices
    /// with `sharers` jobs is billed: `1/sharers`, as if they all ran fully
    /// side by side, but no less than the last completed job was billed
    /// (unequal lanes hide less: the device waits for the longest).
    fn expected_lane_share(&self, sharers: u64) -> f64 {
        let last = self.last_completed().map_or(0.0, |r| r.lane_share);
        (1.0 / sharers as f64).max(last)
    }

    /// The record of the job that completed last.
    fn last_completed(&self) -> Option<&JobRecord> {
        (self.records.iter().rev()).find(|r| r.outcome == JobOutcome::Completed)
    }

    /// The elements `e` adds to a micro-batch under `policy`, if it may
    /// join one: single-shard (suspended multi-shard work keeps its
    /// geometry) and no bigger than a whole batch.
    fn batch_elems(&self, e: &QueueEntry<Pending>, policy: BatchPolicy) -> Option<usize> {
        let cfg = &e.payload.job.req.cfg;
        let elems = cfg.n_particles * cfg.dim;
        let resharded = matches!(&e.payload.work, Work::Suspended(s) if s.n_shards() > 1);
        let single = !self.will_shard(cfg) && !resharded;
        (single && elems <= policy.max_elems).then_some(elems)
    }

    /// The predicted cost of `req` run with `strategy`, and its latency
    /// floor: the wall time of the wave its devices run while it is there.
    /// A device's timeline is what its jobs are billed, so with the
    /// [`Service::committed_sharers`] jobs it holds priced like this one,
    /// each device runs that many times the job's bill there (its price
    /// over its shards). One job alone is billed its whole lane time, its
    /// opens and its copies, so the floor of a lone job is its wall time
    /// alone. Admission cannot know which buffers the pool will hold when
    /// the job starts, so it prices the init from a warm pool, as a
    /// service's recycled buffers mostly serve it, nor how much of its lane
    /// time its devices' other lanes will hide
    /// ([`Service::expected_lane_share`]); calibration observes what each
    /// job was billed.
    fn predict_request(&self, req: &OptimizeRequest, strategy: UpdateStrategy) -> (f64, f64) {
        let price = |sharers: u64| {
            let lane_share = self.expected_lane_share(sharers);
            let schedule = self.schedule_of(sharers as f64, 1.0, lane_share, 0);
            let shape = self.shape_of(req, strategy, schedule);
            (self.predictor.predict_s(&shape), shape.shards as f64)
        };
        let (predicted, _) = price(self.expected_sharers());
        let held = self.committed_sharers();
        let (bill, shards) = price(held);
        (predicted, held as f64 * bill / shards)
    }

    /// Devices the budget can draw on: every device of the group that has
    /// not been permanently lost.
    fn healthy_devices(&self) -> usize {
        (0..self.group.len())
            .filter(|&d| !self.device_lost(d))
            .count()
    }

    /// Device-seconds already promised to accepted-but-unfinished jobs:
    /// each queued or running job reserves its remaining predicted cost
    /// (`predicted·headroom − consumed`, floored at zero).
    fn reserved_backlog_s(&self) -> f64 {
        let h = self.cfg.admission_headroom;
        let remaining = |j: &Job| (j.predicted_s * h - j.device_seconds()).max(0.0);
        let queued: f64 = self.queue.iter().map(|e| remaining(&e.payload.job)).sum();
        let running: f64 = self.running.iter().map(|r| remaining(&r.job)).sum();
        queued + running
    }

    /// Whether device `d` of the shared group has been permanently lost.
    fn device_lost(&self, d: usize) -> bool {
        self.group.device(d).ok().is_some_and(|dv| dv.is_lost())
    }

    /// Shed every queued or running job whose deadline has passed.
    fn shed_expired(&mut self) -> usize {
        let now = self.now();
        let mut events = 0;
        let expired = self
            .queue
            .drain_matching(|e| e.payload.job.deadline_abs.is_some_and(|d| d < now));
        for e in expired {
            self.finalize_pending(e.payload, JobOutcome::Shed, now);
            events += 1;
        }
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].job.deadline_abs.is_some_and(|d| d < now) {
                let run = self.running.remove(i);
                self.finalize_running_dropped(run, JobOutcome::Shed, now);
                events += 1;
            } else {
                i += 1;
            }
        }
        events
    }

    /// Re-home every running job whose lease spans a lost device: revoke
    /// the lease and re-queue the job from its latest checkpoint so the
    /// next admission places it on healthy devices only.
    fn rehome_lost(&mut self) -> usize {
        let mut events = 0;
        let mut i = 0;
        while i < self.running.len() {
            let stranded = self.running[i]
                .lease
                .devices()
                .iter()
                .any(|&d| self.device_lost(d));
            if stranded {
                let run = self.running.remove(i);
                self.rehome(run);
                events += 1;
            } else {
                i += 1;
            }
        }
        events
    }

    /// Revoke a stranded job's lease and re-queue it as suspended work
    /// (from its latest checkpoint — or fresh, if none was captured yet).
    fn rehome(&mut self, run: Running) {
        let from = run
            .lease
            .devices()
            .iter()
            .copied()
            .find(|&d| self.device_lost(d))
            .unwrap_or_else(|| run.lease.devices()[0]);
        let Running {
            job,
            lease,
            state,
            snapshot,
            ..
        } = run;
        drop(state); // buffers freed — the lost device's are gone anyway
        self.release_shared(lease);
        let work = snapshot.map_or(Work::Fresh, Work::Suspended);
        self.requeue_rehomed(job, work, from);
    }

    /// Put a job that lost device `from` back in the queue with `work`.
    /// Priority and deadline are preserved: a re-homed job re-enters
    /// admission at its original rank and is still shed if its deadline
    /// passes before it finishes.
    fn requeue_rehomed(&mut self, mut job: Job, work: Work, from: usize) {
        job.rehomes += 1;
        self.journal.append(ServeEvent::Rehome {
            job: job.id.0,
            from_device: from as u32,
        });
        self.queue.push_unbounded(Pending { job, work }.entry());
    }

    /// Admit queued jobs while leases are available, preempting running
    /// lower-priority jobs when allowed. Head-of-line order: priority,
    /// then submission.
    fn admit(&mut self) -> usize {
        let mut events = 0;
        while let Some((id, priority)) = self.queue.peek_next() {
            let Some(sharded) = self.head_sharded(id) else {
                break;
            };
            let lease = if sharded {
                self.pool.try_acquire_all()
            } else {
                self.pool.try_acquire()
            };
            let Some(lease) = lease else {
                if self.cfg.priority_preemption && self.preempt_for(priority) {
                    events += 1;
                    continue; // slots freed — retry the head
                }
                break;
            };
            let entry = self.queue.pop_next().expect("peeked entry");
            let others = self.gather_batch(&entry);
            events += 1 + others.len();
            // Each member takes its own handle to the shared lease and
            // admission drops its own after: whichever handle goes last
            // returns the lease.
            let lease = Rc::new(lease);
            for m in std::iter::once(entry).chain(others) {
                self.start(m, Rc::clone(&lease));
            }
            self.release_shared(lease);
        }
        events
    }

    /// Gather queued jobs that can join `head`'s micro-batch: eligible
    /// ones in admission order (priority, then id — an eligible job may
    /// overtake an ineligible one of equal priority, the usual batching
    /// trade), each taken while the batch, `head` included, stays within
    /// the policy's bounds. Returns the extra members; empty when batching
    /// is off or nothing fits.
    fn gather_batch(&mut self, head: &QueueEntry<Pending>) -> Vec<QueueEntry<Pending>> {
        let Some(policy) = self.cfg.batching else {
            return Vec::new();
        };
        let Some(mut elems) = self.batch_elems(head, policy) else {
            return Vec::new();
        };
        let mut order: Vec<(Priority, JobId)> =
            self.queue.iter().map(|e| (e.priority, e.id)).collect();
        order.sort_by_key(|&(p, id)| (std::cmp::Reverse(p), id));
        let mut picked = Vec::new();
        for (_, id) in order {
            if 1 + picked.len() == policy.max_jobs {
                break;
            }
            let e = self.queue.get(id).expect("listed entry");
            match self.batch_elems(e, policy) {
                Some(n) if elems + n <= policy.max_elems => {
                    elems += n;
                    picked.push(id);
                }
                _ => {}
            }
        }
        picked
            .into_iter()
            .map(|id| self.queue.remove(id).expect("picked entry"))
            .collect()
    }

    /// Whether the queue entry `id` needs a whole-group lease.
    fn head_sharded(&self, id: JobId) -> Option<bool> {
        let e = self.queue.get(id)?;
        Some(match &e.payload.work {
            Work::Fresh => self.will_shard(&e.payload.job.req.cfg),
            Work::Suspended(s) => s.n_shards() > 1,
        })
    }

    /// Suspend the newest, lowest-priority running job strictly below
    /// `incoming` to host memory and requeue it. Returns whether a victim
    /// was preempted.
    fn preempt_for(&mut self, incoming: Priority) -> bool {
        let victim = self
            .running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.job.req.priority < incoming)
            .min_by_key(|(_, r)| (r.job.req.priority, std::cmp::Reverse(r.job.id)))
            .map(|(i, _)| i);
        let Some(i) = victim else {
            return false;
        };
        let Running {
            mut job,
            lease,
            state,
            snapshot,
            ..
        } = self.running.remove(i);
        // A job preempted before its first region holds no device state:
        // it goes back with the work it was admitted with, unbilled.
        let work = match state {
            Some(state) => {
                let meter = Meter::read(&self.group);
                let work = Work::Suspended(state.snapshot());
                drop(state); // every device buffer released
                meter.charge(&self.group, &mut job);
                work
            }
            None => snapshot.map_or(Work::Fresh, Work::Suspended),
        };
        self.release_shared(lease);
        self.journal.append(ServeEvent::Preempt { job: job.id.0 });
        // Preempted work was already admitted once; it re-enters above the
        // queue bound rather than being dropped.
        self.queue.push_unbounded(Pending { job, work }.entry());
        true
    }

    /// Move a queue entry onto its lease. Admission only leases: the job's
    /// device state is built on its lanes inside its first region
    /// ([`Service::step_running`]).
    ///
    /// Fresh jobs get one shard per leased device. Suspended jobs keep
    /// their original shard geometry: a `k`-shard checkpoint resumes over
    /// however many devices the new lease spans (shards assigned
    /// round-robin), so losing a device never strands a sharded job — the
    /// reduction is over shards, not devices.
    fn start(&mut self, entry: QueueEntry<Pending>, lease: Rc<Lease>) {
        let Pending { mut job, work } = entry.payload;
        self.journal.append(ServeEvent::Admit {
            job: job.id.0,
            devices: lease.devices().iter().map(|&d| d as u32).collect(),
        });
        let (n_shards, snapshot) = match work {
            Work::Suspended(s) => (s.n_shards(), Some(s)),
            Work::Fresh => (lease.devices().len(), None),
        };
        let view = self.pool.group_view(&lease);
        let plan = build_plan(&job.req, n_shards);
        job.started_s = Some(job.started_s.unwrap_or_else(|| self.now()));
        self.running.push(Running {
            job,
            plan,
            view,
            lease,
            state: None,
            snapshot,
            slices_since_snapshot: 0,
        });
        self.running.sort_by_key(|r| r.job.id);
    }

    /// Advance every running job by one time slice inside one persistent
    /// region per device ([`run_resident`] over the group, each grid sized
    /// by the elements the jobs home there), a sharded job's best exchange
    /// included. Every job steps on its own stream lane on each device it
    /// leases, numbered by its position among the jobs leasing that device,
    /// so co-resident jobs run side by side; the lanes join before the
    /// tick's checkpoint. Before any job steps, every job without device
    /// state builds it on its lanes ([`Running::materialize`]: a fresh init
    /// or a resume), in job order, so the allocator pool serves the inits
    /// as it did at admission; a job that completes downloads its result on
    /// its lane too, and its buffers free after the region. Each device's
    /// open is billed in equal shares to the jobs on it, and its overlap
    /// credit to the jobs on its lanes in proportion to their lane seconds.
    /// A job whose init, resume or slice errors ends the slice on its
    /// leased devices only: later jobs leasing any of them are not stepped
    /// this tick, nor are jobs on a lost device, which gets no region (the
    /// next tick's sweep re-homes them). Returns the number of jobs that
    /// stepped or failed to build.
    fn step_running(&mut self) -> usize {
        let slice = self.cfg.slice_iters;
        let group = self.group.clone();
        let n = group.len();
        let mut blocked: Vec<bool> = (0..n).map(|d| self.device_lost(d)).collect();
        let homed: Vec<Vec<u64>> = (self.running.iter())
            .map(|r| r.homed(n, &blocked))
            .collect();
        let elements: Vec<u64> = (0..n).map(|d| homed.iter().map(|h| h[d]).sum()).collect();
        let all: Vec<usize> = (0..self.running.len()).collect();
        let mut next_lane = vec![0u32; n];
        let lanes: Vec<Vec<u32>> = (self.running.iter())
            .map(|r| {
                let lane = |&d: &usize| {
                    next_lane[d] += 1;
                    next_lane[d] - 1
                };
                r.lease.devices().iter().map(lane).collect()
            })
            .collect();
        let open = Meter::read(&group);
        let region = run_resident(&group, "batched_slice", &elements, || {
            self.bill_shares(&open, &all, &homed);
            // Seconds each job queued on its lane of each device.
            let mut queued = vec![vec![0.0; n]; all.len()];
            let mut out: Vec<SliceOutcome> = all.iter().map(|_| None).collect();
            let runs = self.running.iter_mut().zip(&lanes);
            for ((run, lanes), (queued, out)) in runs.zip(queued.iter_mut().zip(&mut out)) {
                let devices = run.lease.devices();
                if run.state.is_some() || devices.iter().any(|&d| blocked[d]) {
                    continue;
                }
                run.bind_lanes(&group, lanes);
                let meter = Meter::read(&group);
                let before = group.merged_counters();
                let state = run.materialize();
                let after = group.merged_counters();
                let hits = after.device_alloc_cache_hits - before.device_alloc_cache_hits;
                let allocs = after.device_allocs - before.device_allocs + hits;
                run.job.pooled = hits as f64 / allocs.max(1) as f64;
                let spent = meter.charge(&group, &mut run.job);
                run.job.on_lanes(&spent.seconds, queued);
                match state {
                    Ok(state) => run.state = Some(state),
                    Err(e) => {
                        devices.iter().for_each(|&d| blocked[d] = true);
                        *out = Some(Err(e));
                    }
                }
            }
            let runs = self.running.iter_mut().zip(&lanes);
            for ((run, lanes), (queued, out)) in runs.zip(queued.iter_mut().zip(&mut out)) {
                let devices = run.lease.devices();
                if out.is_some() || devices.iter().any(|&d| blocked[d]) {
                    continue;
                }
                run.bind_lanes(&group, lanes);
                let Some(state) = run.state.as_mut() else {
                    continue;
                };
                let meter = Meter::read(&group);
                let exec = bind(&run.job.req, &run.plan, &run.view);
                let res = exec.step_slice(state, slice);
                let res = res.map(|done| done.then(|| exec.finish_state(state)));
                let spent = meter.charge(&group, &mut run.job);
                run.job.region_misses += spent.misses;
                run.job.on_lanes(&spent.seconds, queued);
                if res.is_err() {
                    devices.iter().for_each(|&d| blocked[d] = true);
                }
                *out = Some(res);
            }
            let joined = Meter::read(&group);
            for dev in group.iter() {
                dev.join_streams();
            }
            self.bill_overlap(&joined, &queued);
            self.checkpoint_batch(&out, &homed);
            out
        });
        // Only a lost device fails to open, and lost devices get no region;
        // should one fail anyway, every job that would have stepped gets
        // the error, so it is re-homed or failed rather than left idle.
        let outcomes: Vec<SliceOutcome> = region.unwrap_or_else(|e| {
            self.bill_shares(&open, &all, &homed);
            let err = |h: &Vec<u64>| h.iter().any(|&elems| elems > 0).then(|| Err(e.clone()));
            homed.iter().map(err).collect()
        });
        let stepped = outcomes.iter().flatten().count();
        // Finalize in reverse index order so removals don't shift.
        for (i, res) in outcomes.into_iter().enumerate().rev() {
            match res {
                None | Some(Ok(None)) => {}
                Some(Ok(Some(result))) => {
                    let run = self.running.remove(i);
                    let now = self.now();
                    self.finalize_completed(run, result, now);
                }
                Some(Err(_)) => {
                    let run = self.running.remove(i);
                    let stranded = run.lease.devices().iter().any(|&d| self.device_lost(d));
                    if stranded {
                        // The slice died with the device, not the job:
                        // roll back to the checkpoint and re-home.
                        self.rehome(run);
                    } else {
                        let now = self.now();
                        self.finalize_running_dropped(run, JobOutcome::Failed, now);
                    }
                }
            }
        }
        stepped
    }

    /// Bill each device's overlap credit since `meter`, read before its
    /// lanes joined, to the running jobs in proportion to the seconds each
    /// queued on its lane there (`queued[j][d]`).
    fn bill_overlap(&mut self, meter: &Meter, queued: &[Vec<f64>]) {
        for (d, [credit, _]) in meter.since(&self.group).into_iter().enumerate() {
            let lanes: f64 = queued.iter().map(|q| q[d]).sum();
            if credit == 0.0 || lanes <= 0.0 {
                continue;
            }
            for (run, q) in self.running.iter_mut().zip(queued) {
                let billed = credit * q[d] / lanes;
                run.job.device_s[d] += billed;
                run.job.lane_s[1] += billed;
            }
        }
    }

    /// Bill each device's seconds since `meter` in equal shares to the
    /// running jobs among `jobs` that hold elements on it (`homed`).
    fn bill_shares(&mut self, meter: &Meter, jobs: &[usize], homed: &[Vec<u64>]) {
        for (d, spent) in meter.since(&self.group).into_iter().enumerate() {
            let on: Vec<usize> = jobs.iter().copied().filter(|&j| homed[j][d] > 0).collect();
            for &j in &on {
                self.running[j].job.bill(d, spent, on.len());
            }
        }
    }

    /// Checkpoint the tick's jobs at their slice boundary while the regions
    /// are still open: every job that stepped (`out`), has not finished
    /// and is due is captured in one packed copy per device, each device's
    /// copy billed in equal shares to the due jobs on it. A job on a lost
    /// device is not captured: the next sweep rolls it back to its last.
    fn checkpoint_batch(&mut self, out: &[SliceOutcome], homed: &[Vec<u64>]) {
        if self.cfg.checkpoint_slices == 0 {
            return;
        }
        let mut due = Vec::new();
        for (j, res) in out.iter().enumerate() {
            let devices = self.running[j].lease.devices();
            if !matches!(res, Some(Ok(None))) || devices.iter().any(|&d| self.device_lost(d)) {
                continue;
            }
            let run = &mut self.running[j];
            run.slices_since_snapshot += 1;
            if run.slices_since_snapshot >= self.cfg.checkpoint_slices {
                run.slices_since_snapshot = 0;
                due.push(j);
            }
        }
        if due.is_empty() {
            return;
        }
        let meter = Meter::read(&self.group);
        // A job that stepped holds its state.
        let states: Vec<&ExecState> = due.iter().flat_map(|&j| &self.running[j].state).collect();
        let snaps = ExecState::snapshot_many(&states);
        self.bill_shares(&meter, &due, homed);
        for (&j, snap) in due.iter().zip(snaps) {
            self.running[j].snapshot = Some(snap);
        }
    }

    /// Finalize a job that completed with `result`, downloaded on its lane
    /// inside its last region: its device buffers drop here, after the
    /// region, so the pool sees frees in finalization order.
    fn finalize_completed(&mut self, run: Running, result: RunResult, now: f64) {
        let Running {
            job,
            plan,
            lease,
            state,
            ..
        } = run;
        drop(state); // device buffers freed
        let iterations = result.iterations;
        // Close the calibration loop: every completion is one observation
        // of (shape → device-seconds) at the iterations actually run, on
        // the schedule it ran, sharing its regions and its devices' lanes
        // with the jobs it was billed alongside, and drawing on the pool
        // as it did, rather than as admission guessed.
        let device_s = job.device_seconds();
        if iterations > 0 && device_s > 0.0 {
            let schedule = self.schedule_of(
                job.billed_sharers(),
                job.pooled,
                job.lane_share(),
                job.region_misses,
            );
            let mut shape = self.shape_of(&job.req, job.req.strategy, schedule);
            shape.iterations = iterations as u64;
            shape.shards = plan.n_shards as u64;
            self.predictor.observe(&shape, device_s);
        }
        if job.deadline_abs.is_none_or(|d| now <= d) {
            self.goodput_s += device_s;
        }
        self.release_shared(lease);
        self.close(job, JobOutcome::Completed, iterations, now, Some(result));
    }

    /// Finalize a running job that ends without a result (shed, cancelled
    /// or failed): its device buffers drop here, freeing the lease's
    /// memory before the lease itself is returned.
    fn finalize_running_dropped(&mut self, run: Running, outcome: JobOutcome, now: f64) {
        let iterations = run.iterations();
        let Running {
            job, lease, state, ..
        } = run;
        self.close(job, outcome, iterations, now, None);
        drop(state); // device buffers freed
        self.release_shared(lease);
    }

    /// Finalize a job that ends while queued.
    fn finalize_pending(&mut self, pend: Pending, outcome: JobOutcome, now: f64) {
        let iterations = pend.iterations();
        self.close(pend.job, outcome, iterations, now, None);
    }

    /// Journal `job`'s terminal outcome and file its record and status.
    fn close(
        &mut self,
        job: Job,
        outcome: JobOutcome,
        iterations: usize,
        now: f64,
        result: Option<RunResult>,
    ) {
        let id = job.id;
        for (b, s) in self.billed.iter_mut().zip(&job.device_s) {
            *b += s;
        }
        self.journal.append(outcome_event(id, outcome));
        self.records.push(job.record(outcome, iterations, now));
        let status = status_of(outcome);
        self.finished.insert(id, Finished { status, result });
    }

    /// Return a (possibly shared) lease to the pool. Micro-batch members
    /// hold the same `Rc`; the pool sees the release only when the last
    /// member lets go.
    fn release_shared(&mut self, lease: Rc<Lease>) {
        if let Ok(l) = Rc::try_unwrap(lease) {
            self.pool.release(l);
        }
    }
}

/// Map a terminal outcome onto the status enum.
fn status_of(outcome: JobOutcome) -> JobStatus {
    match outcome {
        JobOutcome::Completed => JobStatus::Completed,
        JobOutcome::Shed => JobStatus::Shed,
        JobOutcome::Cancelled => JobStatus::Cancelled,
        JobOutcome::Failed => JobStatus::Failed,
    }
}

/// Map a terminal outcome onto its journal event.
fn outcome_event(id: JobId, outcome: JobOutcome) -> ServeEvent {
    match outcome {
        JobOutcome::Completed => ServeEvent::Complete { job: id.0 },
        JobOutcome::Shed => ServeEvent::Shed { job: id.0 },
        JobOutcome::Cancelled => ServeEvent::Cancel { job: id.0 },
        JobOutcome::Failed => ServeEvent::Fail { job: id.0 },
    }
}

/// The job's execution plan for `n_shards` shards.
fn build_plan(req: &OptimizeRequest, n_shards: usize) -> ExecutionPlan {
    let reduce = BestReduce::for_shards(n_shards);
    let mut plan = ExecutionPlan::build_for(req.algorithm, req.cfg.topology, n_shards, reduce);
    if req.fused {
        plan.fuse_swarm_update(req.strategy);
    }
    plan
}

/// Bind `req`'s `plan` to the leased devices in `view`.
fn bind<'a>(
    req: &'a OptimizeRequest,
    plan: &'a ExecutionPlan,
    view: &'a DeviceGroup,
) -> PlanRun<'a> {
    PlanRun {
        plan,
        cfg: &req.cfg,
        obj: req.objective.as_ref(),
        strategy: req.strategy,
        resilience: req.resilience.as_ref(),
        group: view,
    }
}
