//! Cross-job micro-batching: placing compatible small jobs under one
//! device lease.
//!
//! Serving many tiny swarms (tens of particles each) on a big device is
//! launch-bound: kernels finish in nanoseconds of modeled compute. Every
//! job on a device already steps inside that device's one persistent
//! region per tick, so the batching subsystem is a placement rule: the
//! scheduler gathers **compatible** small queued jobs under one lease, so
//! they share one device — its region, its packed checkpoint copy — over
//! the concatenation of the members' `n·d` state segments.
//!
//! Two jobs are compatible when they agree on the *compat key*: the
//! swarm algorithm crossed with the swarm-update strategy and the
//! dimension class (dimensions rounded up to a power of two), so fused
//! passes share one kernel shape.
//! Per-job results stay bit-identical to solo execution because every
//! member keeps its own state segment, its own counter-based PRNG stream
//! (addressed by the job's seed and element index, never by launch
//! grouping) and its own best-reduce segment; the batch changes *when*
//! passes are dispatched, never *what* they compute. See `DESIGN.md` §12
//! for the legal-fusion rules.
//!
//! [`BatchPolicy`] bounds a batch; [`BatchFormer`] is the pure admission
//! mechanism the scheduler drives while scanning the queue.

use crate::algo::Algorithm;
use crate::gpu::UpdateStrategy;
use crate::topology::Topology;
use std::fmt;
use std::str::FromStr;

/// Bounds on one micro-batch. Selected via
/// [`ServeConfig::batching`](super::ServeConfig::batching); `None` there
/// disables batching entirely (the default — existing serve traces replay
/// byte-for-byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most jobs fused into one batch.
    pub max_jobs: usize,
    /// Cap on the batch's concatenated state matrix, in elements
    /// (Σ over members of `n_particles × dim`). Also the per-job
    /// eligibility bound: a job bigger than this never batches.
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

impl FromStr for BatchPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || format!("expected \"jobs=N,elems=M\", got {s:?}");
        let (jobs, elems) = s.split_once(',').ok_or_else(bad)?;
        let jobs = jobs.strip_prefix("jobs=").ok_or_else(bad)?;
        let elems = elems.strip_prefix("elems=").ok_or_else(bad)?;
        let policy = BatchPolicy {
            max_jobs: jobs.parse().map_err(|_| bad())?,
            max_elems: elems.parse().map_err(|_| bad())?,
        };
        if policy.max_jobs == 0 || policy.max_elems == 0 {
            return Err(format!("batch bounds must be positive, got {policy}"));
        }
        Ok(policy)
    }
}

/// The fusion-compatibility key: jobs batch together only when they agree
/// on it, so every fused pass shares one kernel shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompatKey {
    /// The swarm algorithm: different algorithms dispatch entirely
    /// different per-iteration kernel schedules, so they never fuse.
    pub algorithm: Algorithm,
    /// The swarm-update memory strategy (different strategies run
    /// different kernels).
    pub strategy: UpdateStrategy,
    /// The job's dimension rounded up to a power of two — jobs in one
    /// dim-class tile the same way.
    pub dim_class: usize,
    /// The swarm topology, verbatim. Topologies change the per-iteration
    /// node schedule (ring gathers, island migrate/elite-select nodes with
    /// job-specific periods), so jobs only fuse with identically-shaped
    /// peers — an islands job never batches with a global one.
    pub topology: Topology,
}

impl CompatKey {
    /// The key for a job of `dim` dimensions run by `algorithm` with
    /// `strategy` under `topology`.
    pub fn new(
        algorithm: Algorithm,
        strategy: UpdateStrategy,
        dim: usize,
        topology: Topology,
    ) -> Self {
        CompatKey {
            algorithm,
            strategy,
            dim_class: dim.next_power_of_two(),
            topology,
        }
    }
}

/// Incremental batch formation against a [`BatchPolicy`]. The first
/// accepted job pins the batch's [`CompatKey`]; later offers are accepted
/// while they match the key and keep the batch inside the policy bounds.
#[derive(Debug)]
pub struct BatchFormer {
    policy: BatchPolicy,
    key: Option<CompatKey>,
    jobs: usize,
    elems: usize,
}

impl BatchFormer {
    /// An empty batch under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        BatchFormer {
            policy,
            key: None,
            jobs: 0,
            elems: 0,
        }
    }

    /// Offer a job of `elems = n_particles × dim` elements with `key`.
    /// Returns whether the batch accepted it (and grew).
    pub fn offer(&mut self, key: CompatKey, elems: usize) -> bool {
        if self.key.is_some_and(|k| k != key) {
            return false;
        }
        if self.jobs + 1 > self.policy.max_jobs || self.elems + elems > self.policy.max_elems {
            return false;
        }
        self.key = Some(key);
        self.jobs += 1;
        self.elems += elems;
        true
    }

    /// Jobs accepted so far.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Concatenated state-matrix size so far, in elements.
    pub fn elems(&self) -> usize {
        self.elems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn former_pins_key_and_honours_bounds() {
        let policy = BatchPolicy {
            max_jobs: 3,
            max_elems: 100,
        };
        let key = CompatKey::new(
            Algorithm::Pso,
            UpdateStrategy::GlobalMem,
            6,
            Topology::Global,
        );
        let other = CompatKey::new(
            Algorithm::Pso,
            UpdateStrategy::SharedMem,
            6,
            Topology::Global,
        );
        let cross_algo = CompatKey::new(
            Algorithm::Sso,
            UpdateStrategy::GlobalMem,
            6,
            Topology::Global,
        );
        let cross_topo = CompatKey::new(
            Algorithm::Pso,
            UpdateStrategy::GlobalMem,
            6,
            Topology::Islands {
                islands: 2,
                migration: crate::topology::Migration {
                    kind: crate::topology::MigrationKind::Ring,
                    every_k: 5,
                    elites: 1,
                },
            },
        );
        let mut f = BatchFormer::new(policy);
        assert!(f.offer(key, 40));
        assert!(!f.offer(other, 10), "strategy mismatch");
        assert!(!f.offer(cross_algo, 10), "algorithm mismatch");
        assert!(!f.offer(cross_topo, 10), "topology mismatch");
        assert!(f.offer(key, 40));
        assert!(!f.offer(key, 30), "elems bound");
        assert!(f.offer(key, 20));
        assert!(!f.offer(key, 1), "jobs bound");
        assert_eq!((f.jobs(), f.elems()), (3, 100));
    }

    #[test]
    fn dim_class_rounds_to_power_of_two() {
        let a = CompatKey::new(
            Algorithm::Pso,
            UpdateStrategy::GlobalMem,
            5,
            Topology::Global,
        );
        let b = CompatKey::new(
            Algorithm::Pso,
            UpdateStrategy::GlobalMem,
            8,
            Topology::Global,
        );
        let c = CompatKey::new(
            Algorithm::Pso,
            UpdateStrategy::GlobalMem,
            9,
            Topology::Global,
        );
        assert_eq!(a, b, "5 and 8 share the 8-wide class");
        assert_ne!(b, c, "9 rounds to 16");
    }

    #[test]
    fn policy_display_round_trips() {
        let p = BatchPolicy {
            max_jobs: 5,
            max_elems: 4096,
        };
        assert_eq!(p.to_string(), "jobs=5,elems=4096");
        assert_eq!(p.to_string().parse::<BatchPolicy>().unwrap(), p);
        assert_eq!(
            BatchPolicy::default().to_string().parse::<BatchPolicy>(),
            Ok(BatchPolicy::default())
        );
        assert!("jobs=0,elems=1".parse::<BatchPolicy>().is_err());
        assert!("jobs=1".parse::<BatchPolicy>().is_err());
        assert!("elems=1,jobs=1".parse::<BatchPolicy>().is_err());
    }
}
