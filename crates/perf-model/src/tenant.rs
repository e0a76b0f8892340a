//! Per-tenant serving metrics: job latency percentiles, queue depth and
//! shed counts, rolled up from per-job records.
//!
//! The serving layer (`fastpso::serve`) emits one [`JobRecord`] per
//! submitted job — submission, start and finish stamps in *modeled* seconds
//! plus the outcome — and this module reduces them into per-tenant
//! [`TenantSummary`] rows: completed/shed/cancelled/failed counts and
//! nearest-rank p50/p95 completion latency. Everything is pure arithmetic
//! over the records, so the rollup is exactly reproducible from a replayed
//! trace.
//!
//! ```
//! use perf_model::tenant::{JobOutcome, JobRecord, TenantSummary};
//!
//! let records = vec![
//!     JobRecord { tenant: "acme".into(), job: 0, submitted_s: 0.0, started_s: 0.0,
//!                 finished_s: 2.0, outcome: JobOutcome::Completed, iterations: 100,
//!                 device_seconds: 2.0, queue_depth_at_submit: 0,
//!                 rehomes: 0, recovery_secs: 0.0, sharers: 1.0, pooled: 0.0,
//!                 lane_share: 1.0, region_misses: 0 },
//!     JobRecord { tenant: "acme".into(), job: 1, submitted_s: 0.0, started_s: 2.0,
//!                 finished_s: 6.0, outcome: JobOutcome::Completed, iterations: 100,
//!                 device_seconds: 4.0, queue_depth_at_submit: 1,
//!                 rehomes: 1, recovery_secs: 0.5, sharers: 1.0, pooled: 0.0,
//!                 lane_share: 1.0, region_misses: 0 },
//! ];
//! let rollup = TenantSummary::rollup(&records);
//! assert_eq!(rollup.len(), 1);
//! assert_eq!(rollup[0].completed, 2);
//! assert_eq!(rollup[0].p50_latency_s, 2.0);
//! assert_eq!(rollup[0].p95_latency_s, 6.0);
//! assert_eq!(rollup[0].rehomes, 1);
//! assert_eq!(rollup[0].recovery_secs, 0.5);
//! ```

/// How a submitted job left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to a stopping condition and produced a result.
    Completed,
    /// Dropped by the scheduler (deadline missed under load, or overload
    /// shedding), lowest priority first.
    Shed,
    /// Cancelled by the submitter.
    Cancelled,
    /// Aborted on an unrecovered execution error.
    Failed,
}

/// One job's lifecycle, in modeled seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Tenant the job was submitted under.
    pub tenant: String,
    /// Scheduler-assigned job id.
    pub job: u64,
    /// Modeled time at submission.
    pub submitted_s: f64,
    /// Modeled time when the job first ran an iteration (equals
    /// `finished_s` for jobs shed before starting).
    pub started_s: f64,
    /// Modeled time at completion / shedding / cancellation.
    pub finished_s: f64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Iterations the job actually ran.
    pub iterations: usize,
    /// Modeled device-seconds the job consumed (recovery included).
    pub device_seconds: f64,
    /// Jobs already waiting when this one was admitted.
    pub queue_depth_at_submit: usize,
    /// Times the job was re-homed off a lost device onto a healthy one.
    pub rehomes: u64,
    /// Modeled seconds of recovery work (checkpoint captures, re-homing
    /// restores, fault retries) charged while this job was advancing. A
    /// subset of `device_seconds`.
    pub recovery_secs: f64,
    /// Jobs that shared the job's device-resident regions and checkpoint
    /// copies, as billed: the harmonic mean over its shared bills (1 = it
    /// ran alone, or never stepped).
    pub sharers: f64,
    /// Share of the device buffers the job's last init allocated that the
    /// allocator pool served instead of a fresh allocation.
    pub pooled: f64,
    /// Share of the seconds the job queued on its stream lanes that it was
    /// billed, after its devices credited the time co-resident lanes hid
    /// (1 = nothing hidden, or it never stepped).
    pub lane_share: f64,
    /// Allocations the job made inside its device-resident regions that
    /// the allocator pool could not serve (each a driver allocation).
    pub region_misses: u64,
}

impl JobRecord {
    /// Submission-to-finish latency in modeled seconds.
    pub fn latency_s(&self) -> f64 {
        self.finished_s - self.submitted_s
    }
}

/// Per-tenant reduction of a set of [`JobRecord`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// The tenant these numbers describe.
    pub tenant: String,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs shed by the scheduler.
    pub shed: usize,
    /// Jobs cancelled by the submitter.
    pub cancelled: usize,
    /// Jobs aborted on execution errors.
    pub failed: usize,
    /// Nearest-rank median submission→finish latency over *completed* jobs
    /// (0 when none completed).
    pub p50_latency_s: f64,
    /// Nearest-rank 95th-percentile latency over completed jobs.
    pub p95_latency_s: f64,
    /// Mean queue depth observed at this tenant's submissions.
    pub mean_queue_depth: f64,
    /// Total modeled device-seconds consumed by this tenant.
    pub device_seconds: f64,
    /// Total device-loss re-homings absorbed by this tenant's jobs.
    pub rehomes: u64,
    /// Total modeled recovery seconds charged to this tenant's jobs.
    pub recovery_secs: f64,
}

impl TenantSummary {
    /// Reduce `records` into one summary per tenant, sorted by tenant name
    /// so output order is deterministic.
    pub fn rollup(records: &[JobRecord]) -> Vec<TenantSummary> {
        let mut tenants: Vec<&str> = records.iter().map(|r| r.tenant.as_str()).collect();
        tenants.sort_unstable();
        tenants.dedup();
        tenants
            .into_iter()
            .map(|tenant| {
                let rows: Vec<&JobRecord> = records.iter().filter(|r| r.tenant == tenant).collect();
                let mut latencies: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.outcome == JobOutcome::Completed)
                    .map(|r| r.latency_s())
                    .collect();
                latencies.sort_unstable_by(|a, b| a.total_cmp(b));
                let count = |o: JobOutcome| rows.iter().filter(|r| r.outcome == o).count();
                TenantSummary {
                    tenant: tenant.to_string(),
                    completed: count(JobOutcome::Completed),
                    shed: count(JobOutcome::Shed),
                    cancelled: count(JobOutcome::Cancelled),
                    failed: count(JobOutcome::Failed),
                    p50_latency_s: nearest_rank(&latencies, 0.50),
                    p95_latency_s: nearest_rank(&latencies, 0.95),
                    mean_queue_depth: rows
                        .iter()
                        .map(|r| r.queue_depth_at_submit as f64)
                        .sum::<f64>()
                        / rows.len() as f64,
                    device_seconds: rows.iter().map(|r| r.device_seconds).sum(),
                    rehomes: rows.iter().map(|r| r.rehomes).sum(),
                    recovery_secs: rows.iter().map(|r| r.recovery_secs).sum(),
                }
            })
            .collect()
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest value
/// with at least `q` of the mass at or below it. Returns 0 for an empty
/// slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tenant: &str, job: u64, sub: f64, fin: f64, outcome: JobOutcome) -> JobRecord {
        JobRecord {
            tenant: tenant.to_string(),
            job,
            submitted_s: sub,
            started_s: sub,
            finished_s: fin,
            outcome,
            iterations: 10,
            device_seconds: fin - sub,
            queue_depth_at_submit: 0,
            rehomes: 0,
            recovery_secs: 0.0,
            sharers: 1.0,
            pooled: 0.0,
            lane_share: 1.0,
            region_misses: 0,
        }
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 0.50), 2.0);
        assert_eq!(nearest_rank(&v, 0.95), 4.0);
        assert_eq!(nearest_rank(&v, 0.25), 1.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn rollup_groups_and_sorts_by_tenant() {
        let records = vec![
            rec("b", 0, 0.0, 1.0, JobOutcome::Completed),
            rec("a", 1, 0.0, 2.0, JobOutcome::Completed),
            rec("b", 2, 0.0, 3.0, JobOutcome::Shed),
            rec("a", 3, 0.0, 4.0, JobOutcome::Cancelled),
        ];
        let sum = TenantSummary::rollup(&records);
        assert_eq!(sum.len(), 2);
        assert_eq!(sum[0].tenant, "a");
        assert_eq!(sum[0].completed, 1);
        assert_eq!(sum[0].cancelled, 1);
        assert_eq!(sum[1].tenant, "b");
        assert_eq!(sum[1].shed, 1);
        assert_eq!(sum[1].p50_latency_s, 1.0);
    }

    #[test]
    fn percentiles_ignore_non_completed_jobs() {
        let records = vec![
            rec("t", 0, 0.0, 1.0, JobOutcome::Completed),
            rec("t", 1, 0.0, 100.0, JobOutcome::Shed),
        ];
        let sum = TenantSummary::rollup(&records);
        assert_eq!(sum[0].p95_latency_s, 1.0);
    }
}
