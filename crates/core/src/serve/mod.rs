//! Multi-tenant optimization serving: many concurrent PSO jobs
//! time-sliced over one shared device group.
//!
//! Every other entry point in this crate runs exactly one job to
//! completion on a dedicated device. This module is the production shape
//! the ROADMAP aims at: a [`Service`] accepts [`OptimizeRequest`]s from
//! many tenants, admits them through a **bounded queue with backpressure**
//! ([`ServeError::QueueFull`] — a rejected request is never silently
//! dropped), lowers each to an [`crate::plan::ExecutionPlan`], and
//! interleaves the plans' node-walks across a [`gpu_sim::DeviceGroup`]:
//!
//! * **time-slicing** — each scheduler [`Service::tick`] advances every
//!   running job by [`ServeConfig::slice_iters`] iterations, so many jobs
//!   make progress concurrently on the modeled clock;
//! * **packing** — small jobs lease one slot on the least-loaded device
//!   (several co-resident jobs per device), large jobs (at least
//!   [`ServeConfig::shard_threshold_particles`] particles) shard across
//!   every device with an exchange reduction each iteration;
//! * **residency** — admission only leases; each tick opens one
//!   persistent region per device, and every running job leased there
//!   steps its slice inside it, on its own stream lane, side by side with
//!   the others. A job's swarm is built on that lane inside its first
//!   region (a fresh init, or a resume from its checkpoint), before any
//!   job steps, and its result is downloaded on it inside its last. That
//!   is one host launch per device and tick instead of one per kernel,
//!   with every due slice checkpoint packed inside the regions (one copy
//!   per device) once the lanes join. Each device's open and copy are
//!   billed in equal shares to its jobs, and the time its lanes hid to the
//!   jobs on them in proportion to their lane seconds. Each region is
//!   grid-stride, the paper's resource-aware thread creation: at
//!   most the device's resident threads, each covering `Σ n·d / threads`
//!   elements of the jobs homed there, so jobs too large to be co-resident
//!   still run resident. A sharded job's per-iteration best exchange runs
//!   inside its devices' regions, the way a cooperative multi-device
//!   launch synchronises its grids. A job's error ends the slice only on
//!   the devices it leases;
//! * **preemption** — a queued high-priority job may suspend a running
//!   lower-priority one: its shards are checkpointed to host memory, the
//!   device memory is freed, and it later resumes **bit-identically**
//!   (randomness is counter-based, so trajectories are position-addressed,
//!   not generator-state-addressed);
//! * **deadlines & shedding** — jobs that miss their deadline are shed at
//!   the next tick, lowest priority first under overload; per-job
//!   [`Service::cancel`] frees the device lease immediately;
//! * **predictive admission** — with
//!   [`ServeConfig::predictive_admission`] on, a calibrated
//!   [`crate::CostPredictor`] prices every deadline job at submit
//!   time; a job that cannot finish in the device-seconds left before its
//!   deadline, or whose device's wave — the jobs already accepted there
//!   and itself, priced like it — would outrun it, is first downgraded
//!   along the
//!   [`crate::SwarmAlgorithm::cheaper_strategy`] ladder and, if no rung fits,
//!   rejected up front with [`ServeError::Infeasible`] — the caller learns
//!   immediately instead of watching the job shed later, and accepted
//!   deadlines stay feasible because every accepted job reserves its
//!   predicted cost ([`Service::admission_plan`] exposes the dry-run
//!   decision; every completion feeds the predictor one calibration
//!   observation);
//! * **cross-job micro-batching** — a placement rule: with
//!   [`ServeConfig::batching`] set, admission gathers small single-shard
//!   jobs in admission order, within the [`BatchPolicy`] bounds, under
//!   **one** device lease, so they share one device and its region. Each
//!   member steps its own plan on its own stream lane, so any mix of
//!   algorithms, strategies, dimensions and topologies may share a lease.
//!   Per-job results are bit-identical to solo runs (each member keeps its
//!   own state segment, counter-based PRNG stream and best-reduce
//!   segment), and checkpoint/preempt/re-home/journal semantics are
//!   unchanged at slice boundaries;
//! * **tenant accounting** — every terminal job emits a
//!   [`perf_model::JobRecord`]; [`Service::tenant_rollups`] reduces them
//!   to per-tenant p50/p95 latency, shed counts and device-seconds.
//!
//! Scheduling is fully deterministic: job ids break every tie, placement
//! is least-loaded-by-index, and the modeled clock advances only when
//! kernels are charged — replaying the same submission trace against the
//! same seed reproduces bit-identical per-job results *and* an identical
//! service-wide launch manifest (`tests/serve.rs` pins both).
//!
//! # Fleet fault tolerance
//!
//! The service survives device loss without losing accepted work:
//!
//! * **health tracking** — every tick feeds fault observations into a
//!   [`gpu_sim::FleetHealth`] circuit breaker ([`Service::health`]); the
//!   lease pool skips `Quarantined` devices and de-prioritises `Degraded`
//!   ones, re-admitting a quarantined device only after its modeled-time
//!   cool-down. A lost device is quarantined forever.
//! * **re-homing** — running jobs checkpoint to host memory at slice
//!   boundaries (every [`ServeConfig::checkpoint_slices`] slices). When a
//!   leased device dies, the scheduler revokes the lease, re-queues the
//!   job from its latest checkpoint with priority and deadline preserved,
//!   and the next admission resumes it on healthy devices —
//!   bit-identically, because randomness is counter-addressed. Re-homing
//!   work is charged to the `Recovery` phase and surfaces per job as
//!   [`perf_model::JobRecord::rehomes`]/`recovery_secs`.
//! * **crash-safe journal** — every serve event (submissions, ticks,
//!   admissions, preemptions, re-homings, terminals) appends to a
//!   [`ServeJournal`]; [`Service::snapshot`] serializes it as a
//!   checksummed byte image and [`Service::restore`] rebuilds an
//!   equivalent service by replaying the journal's input events,
//!   verifying byte-for-byte that the replay reproduces the snapshot.
//!
//! # Example
//!
//! ```
//! use fastpso::serve::{OptimizeRequest, Priority, ServeConfig, Service};
//! use fastpso::PsoConfig;
//! use fastpso_functions::builtins::Sphere;
//! use gpu_sim::DeviceGroup;
//! use std::sync::Arc;
//!
//! let mut svc = Service::new(DeviceGroup::v100s(2), ServeConfig::default());
//! let ids: Vec<_> = (0..3)
//!     .map(|i| {
//!         let cfg = PsoConfig::builder(32, 4).max_iter(40).seed(i).build().unwrap();
//!         let req = OptimizeRequest::new("tenant-a", Arc::new(Sphere), cfg)
//!             .priority(Priority::Normal);
//!         svc.submit(req).unwrap()
//!     })
//!     .collect();
//! svc.run_until_idle();
//! for id in ids {
//!     assert!(svc.result(id).unwrap().best_value.is_finite());
//! }
//! let rollup = svc.tenant_rollups();
//! assert_eq!(rollup[0].completed, 3);
//! assert!(rollup[0].p95_latency_s >= rollup[0].p50_latency_s);
//! ```

mod journal;
mod queue;
mod request;
mod scheduler;

pub use journal::{ServeEvent, ServeJournal};
pub use request::{JobId, JobStatus, OptimizeRequest, Priority, ServeError};
pub use scheduler::{BatchPolicy, ServeConfig, Service};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PsoConfig;
    use fastpso_functions::builtins::{Rastrigin, Sphere};
    use fastpso_functions::Objective;
    use gpu_sim::DeviceGroup;
    use std::sync::Arc;

    fn small(seed: u64) -> PsoConfig {
        PsoConfig::builder(32, 4)
            .max_iter(30)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn single_job_matches_dedicated_backend_bitwise() {
        use crate::backend::PsoBackend;
        let cfg = small(7);
        let dedicated = crate::gpu::GpuBackend::new().run(&cfg, &Sphere).unwrap();
        let mut svc = Service::new(DeviceGroup::v100s(1), ServeConfig::default());
        let id = svc
            .submit(OptimizeRequest::new("t", Arc::new(Sphere), cfg))
            .unwrap();
        svc.run_until_idle();
        let served = svc.result(id).unwrap();
        assert_eq!(served.best_value, dedicated.best_value);
        assert_eq!(served.best_position, dedicated.best_position);
    }

    #[test]
    fn jobs_pack_across_devices() {
        let mut svc = Service::new(DeviceGroup::v100s(2), ServeConfig::default());
        for i in 0..4 {
            svc.submit(OptimizeRequest::new("t", Arc::new(Sphere), small(i)))
                .unwrap();
        }
        svc.tick();
        assert_eq!(svc.n_running(), 4, "all four jobs admitted at once");
        let (in_use, peak) = svc.occupancy();
        assert_eq!(in_use, 4);
        assert_eq!(peak, 4);
        svc.run_until_idle();
        assert_eq!(svc.occupancy().0, 0, "all leases returned");
        assert_eq!(svc.tenant_rollups()[0].completed, 4);
    }

    #[test]
    fn large_jobs_shard_over_the_group() {
        let mut svc = Service::new(
            DeviceGroup::v100s(2),
            ServeConfig {
                shard_threshold_particles: 64,
                ..ServeConfig::default()
            },
        );
        let cfg = PsoConfig::builder(64, 4)
            .max_iter(20)
            .seed(3)
            .build()
            .unwrap();
        let id = svc
            .submit(OptimizeRequest::new("t", Arc::new(Rastrigin), cfg))
            .unwrap();
        svc.tick();
        assert_eq!(
            svc.occupancy().0,
            2,
            "sharded job holds a slot on each device"
        );
        svc.run_until_idle();
        assert!(svc.result(id).unwrap().best_value.is_finite());
    }

    #[test]
    fn ring_topology_rejected_only_when_sharding() {
        let mut svc = Service::new(
            DeviceGroup::v100s(2),
            ServeConfig {
                shard_threshold_particles: 64,
                ..ServeConfig::default()
            },
        );
        let ring = |n: usize| {
            PsoConfig::builder(n, 4)
                .max_iter(10)
                .topology(crate::topology::Topology::Ring { k: 1 })
                .build()
                .unwrap()
        };
        // Small ring job packs onto one device: fine.
        assert!(svc
            .submit(OptimizeRequest::new("t", Arc::new(Sphere), ring(32)))
            .is_ok());
        // Large ring job would shard: rejected at submit.
        let err = svc
            .submit(OptimizeRequest::new("t", Arc::new(Sphere), ring(128)))
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)));
        svc.run_until_idle();
    }

    /// An objective whose search box is inverted.
    struct InvertedDomain;

    impl Objective for InvertedDomain {
        fn name(&self) -> &str {
            "InvertedDomain"
        }
        fn eval(&self, x: &[f32]) -> f32 {
            x.iter().sum()
        }
        fn domain(&self) -> (f32, f32) {
            (1.0, -1.0)
        }
        fn optimum(&self, _d: usize) -> Option<f64> {
            None
        }
        fn flops_per_dim(&self) -> u64 {
            1
        }
    }

    /// Requests that could never run — including configs whose public
    /// fields were edited after `build()` and objectives with a broken
    /// domain — are rejected at submit, before anything can panic a tick.
    #[test]
    fn unrunnable_requests_are_rejected() {
        use crate::topology::{Migration, MigrationKind, Topology};
        fn islands(islands: usize, every_k: usize, elites: usize) -> Topology {
            let migration = Migration {
                kind: MigrationKind::Ring,
                every_k,
                elites,
            };
            Topology::Islands { islands, migration }
        }
        const NO_SHARD: usize = usize::MAX;
        type Case = (&'static str, usize, fn(&mut PsoConfig));
        let cases: [Case; 12] = [
            ("too few particles to shard", 1, |c| c.n_particles = 2),
            ("inverted domain", NO_SHARD, |c| {
                c.domain = Some((1.0, -1.0))
            }),
            ("NaN domain", NO_SHARD, |c| c.domain = Some((f32::NAN, 1.0))),
            ("zero particles", NO_SHARD, |c| c.n_particles = 0),
            ("zero dim", NO_SHARD, |c| c.dim = 0),
            ("zero iterations", NO_SHARD, |c| c.max_iter = 0),
            ("zero islands", NO_SHARD, |c| c.topology = islands(0, 5, 1)),
            ("one island", NO_SHARD, |c| c.topology = islands(1, 5, 1)),
            ("17 islands of 16", NO_SHARD, |c| {
                c.topology = islands(17, 5, 1)
            }),
            ("every_k 0", NO_SHARD, |c| c.topology = islands(4, 0, 1)),
            ("oversized elites", NO_SHARD, |c| {
                c.topology = islands(4, 5, 4)
            }),
            ("NaN omega", NO_SHARD, |c| c.omega = f32::NAN),
        ];
        let submit = |label: &str, threshold, cfg, objective: Arc<dyn Objective>| {
            let mut svc = Service::new(
                DeviceGroup::v100s(4),
                ServeConfig {
                    shard_threshold_particles: threshold,
                    ..ServeConfig::default()
                },
            );
            let err = svc
                .submit(OptimizeRequest::new("t", objective, cfg))
                .unwrap_err();
            assert!(
                matches!(err, ServeError::InvalidRequest(_)),
                "{label}: {err}"
            );
            svc.run_until_idle();
        };
        let base = PsoConfig::builder(16, 4).max_iter(10).build().unwrap();
        for (label, threshold, edit) in cases {
            let mut cfg = base.clone();
            edit(&mut cfg);
            submit(label, threshold, cfg, Arc::new(Sphere));
        }
        let inverted = Arc::new(InvertedDomain);
        submit("inverted objective domain", NO_SHARD, base, inverted);
    }

    #[test]
    fn preemption_suspends_and_resumes_bit_identically() {
        use crate::backend::PsoBackend;
        let cfg = small(11);
        let baseline = crate::gpu::GpuBackend::new().run(&cfg, &Sphere).unwrap();
        // One slot total: the high-priority job must preempt the low one.
        let mut svc = Service::new(
            DeviceGroup::v100s(1),
            ServeConfig {
                slots_per_device: 1,
                slice_iters: 5,
                ..ServeConfig::default()
            },
        );
        let low = svc
            .submit(
                OptimizeRequest::new("t", Arc::new(Sphere), cfg.clone()).priority(Priority::Low),
            )
            .unwrap();
        svc.tick(); // low admitted and stepped
        assert_eq!(svc.status(low).unwrap(), JobStatus::Running);
        let high = svc
            .submit(
                OptimizeRequest::new("t", Arc::new(Rastrigin), small(12)).priority(Priority::High),
            )
            .unwrap();
        svc.tick();
        assert_eq!(svc.status(low).unwrap(), JobStatus::Suspended);
        assert_eq!(svc.status(high).unwrap(), JobStatus::Running);
        svc.run_until_idle();
        let served = svc.result(low).unwrap();
        assert_eq!(
            served.best_value, baseline.best_value,
            "preempt/resume must not perturb the trajectory"
        );
        assert_eq!(served.best_position, baseline.best_position);
    }

    #[test]
    fn batched_jobs_share_a_lease_and_match_solo_bitwise() {
        let run = |batching| {
            let mut svc = Service::new(
                DeviceGroup::v100s(1),
                ServeConfig {
                    batching,
                    ..ServeConfig::default()
                },
            );
            let ids: Vec<_> = (0..4)
                .map(|i| {
                    svc.submit(OptimizeRequest::new("t", Arc::new(Sphere), small(i)))
                        .unwrap()
                })
                .collect();
            svc.tick();
            let occupancy = svc.occupancy().0;
            svc.run_until_idle();
            let results: Vec<_> = ids
                .iter()
                .map(|&id| svc.result(id).unwrap().clone())
                .collect();
            let launches = svc.merged_profiler().total_counters().kernel_launches;
            (results, occupancy, launches)
        };
        let (solo, solo_occ, solo_launches) = run(None);
        let (batched, batch_occ, batch_launches) = run(Some(BatchPolicy::default()));
        assert_eq!(solo_occ, 4, "unbatched jobs each hold a slot");
        assert_eq!(batch_occ, 1, "the batch holds one lease");
        for (a, b) in solo.iter().zip(&batched) {
            assert_eq!(
                a.best_value, b.best_value,
                "batching must not perturb results"
            );
            assert_eq!(a.best_position, b.best_position);
        }
        // Alone or batched, every job builds its swarm inside its first
        // region and steps resident, and all four share the device's one
        // region per tick (30 iterations, 8 per slice: four ticks).
        assert_eq!(solo_launches, 4, "one region per tick");
        assert_eq!(batch_launches, 4, "one region per tick");
    }

    /// Jobs of different strategies share one lease, unless the policy's
    /// job bound, which counts the admitted head, leaves no room.
    #[test]
    fn mixed_strategies_share_one_lease() {
        use crate::gpu::UpdateStrategy;
        let alone = BatchPolicy {
            max_jobs: 1,
            ..BatchPolicy::default()
        };
        for (policy, leases) in [(BatchPolicy::default(), 1), (alone, 2)] {
            let mut svc = Service::new(
                DeviceGroup::v100s(1),
                ServeConfig {
                    batching: Some(policy),
                    ..ServeConfig::default()
                },
            );
            svc.submit(OptimizeRequest::new("t", Arc::new(Sphere), small(1)))
                .unwrap();
            svc.submit(
                OptimizeRequest::new("t", Arc::new(Sphere), small(2))
                    .strategy(UpdateStrategy::SharedMem),
            )
            .unwrap();
            svc.tick();
            assert_eq!(
                (svc.n_running(), svc.occupancy().0),
                (2, leases),
                "{policy}"
            );
            svc.run_until_idle();
            assert_eq!(svc.tenant_rollups()[0].completed, 2);
        }
    }

    #[test]
    #[should_panic(expected = "batch bounds must be positive, got jobs=0,elems=16384")]
    fn zero_batch_bounds_are_rejected() {
        Service::new(
            DeviceGroup::v100s(1),
            ServeConfig {
                batching: Some(BatchPolicy {
                    max_jobs: 0,
                    ..BatchPolicy::default()
                }),
                ..ServeConfig::default()
            },
        );
    }

    #[test]
    fn deadline_shedding_drops_lowest_priority_job() {
        let mut svc = Service::new(
            DeviceGroup::v100s(1),
            ServeConfig {
                slots_per_device: 1,
                priority_preemption: false,
                slice_iters: 4,
                ..ServeConfig::default()
            },
        );
        let runner = svc
            .submit(OptimizeRequest::new("t", Arc::new(Sphere), small(1)))
            .unwrap();
        // Queued behind it with an impossible deadline.
        let doomed = svc
            .submit(
                OptimizeRequest::new("t", Arc::new(Sphere), small(2))
                    .priority(Priority::Low)
                    .deadline_s(1e-12),
            )
            .unwrap();
        svc.run_until_idle();
        assert_eq!(svc.status(runner).unwrap(), JobStatus::Completed);
        assert_eq!(svc.status(doomed).unwrap(), JobStatus::Shed);
        let rollup = svc.tenant_rollups();
        assert_eq!(rollup[0].shed, 1);
        assert_eq!(rollup[0].completed, 1);
    }

    #[test]
    fn overload_shedding_evicts_lowest_priority_when_enabled() {
        let mut svc = Service::new(
            DeviceGroup::v100s(1),
            ServeConfig {
                queue_capacity: 2,
                shed_on_overload: true,
                ..ServeConfig::default()
            },
        );
        let a = svc
            .submit(OptimizeRequest::new("t", Arc::new(Sphere), small(1)).priority(Priority::Low))
            .unwrap();
        let _b = svc
            .submit(OptimizeRequest::new("t", Arc::new(Sphere), small(2)))
            .unwrap();
        // Queue full; a High arrival evicts the Low job.
        let c = svc
            .submit(OptimizeRequest::new("t", Arc::new(Sphere), small(3)).priority(Priority::High))
            .unwrap();
        assert_eq!(svc.status(a).unwrap(), JobStatus::Shed);
        assert_eq!(svc.status(c).unwrap(), JobStatus::Queued);
        // A second Low arrival finds no strictly-lower victim: backpressure.
        let err = svc
            .submit(OptimizeRequest::new("t", Arc::new(Sphere), small(4)).priority(Priority::Low))
            .unwrap_err();
        assert!(matches!(err, ServeError::QueueFull { .. }));
        svc.run_until_idle();
    }

    #[test]
    fn predictive_admission_rejects_infeasible_deadlines_up_front() {
        let mut svc = Service::new(
            DeviceGroup::v100s(1),
            ServeConfig {
                predictive_admission: true,
                ..ServeConfig::default()
            },
        );
        // A deadline far tighter than any strategy's predicted cost: the
        // downgrade ladder bottoms out and the submit itself fails.
        let err = svc
            .submit(OptimizeRequest::new("t", Arc::new(Sphere), small(1)).deadline_s(1e-12))
            .unwrap_err();
        match err {
            ServeError::Infeasible {
                predicted_s,
                budget_s,
            } => {
                assert!(predicted_s > budget_s);
                assert!(!err.is_retryable());
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
        assert_eq!(svc.rejected_infeasible(), 1);
        assert_eq!(
            svc.journal().events().len(),
            0,
            "rejected submissions are never journaled"
        );
        // A generous deadline admits without downgrading and completes.
        let id = svc
            .submit(OptimizeRequest::new("t", Arc::new(Sphere), small(2)).deadline_s(1e3))
            .unwrap();
        svc.run_until_idle();
        assert_eq!(svc.status(id).unwrap(), JobStatus::Completed);
        assert_eq!(svc.admission_downgrades(), 0);
        assert!(svc.goodput_s() > 0.0, "met deadline counts as goodput");
        assert_eq!(
            svc.predictor().observations("global+resident"),
            1,
            "completion fed the calibration loop on the schedule it ran"
        );
    }

    #[test]
    fn predictive_admission_downgrades_to_a_strategy_that_fits() {
        use crate::gpu::UpdateStrategy;
        let mut svc = Service::new(
            DeviceGroup::v100s(1),
            ServeConfig {
                predictive_admission: true,
                ..ServeConfig::default()
            },
        );
        // The job must be big enough that the latency-bound for-loop rung
        // actually prices above the element-wise ones (tiny jobs are all
        // launch overhead and no rung is cheaper).
        let big = PsoConfig::builder(4096, 64)
            .max_iter(20)
            .seed(3)
            .build()
            .unwrap();
        let mk = || OptimizeRequest::new("t", Arc::new(Sphere), big.clone());
        // Calibrate the for-loop rung with one deadline-free completion,
        // then pick a deadline just under its calibrated prediction: the
        // ladder must move, and the cheaper rung genuinely finishes in time.
        svc.submit(mk().strategy(UpdateStrategy::ForLoop)).unwrap();
        svc.run_until_idle();
        assert_eq!(svc.predictor().observations("forloop+resident"), 1);
        let (_, expensive) = svc
            .admission_plan(&mk().strategy(UpdateStrategy::ForLoop).deadline_s(1e3))
            .unwrap();
        let req = mk()
            .strategy(UpdateStrategy::ForLoop)
            .deadline_s(expensive * 0.95);
        let (chosen, predicted) = svc.admission_plan(&req).unwrap();
        assert_ne!(chosen, UpdateStrategy::ForLoop, "ladder must downgrade");
        assert!(predicted < expensive);
        let id = svc.submit(req).unwrap();
        assert_eq!(svc.admission_downgrades(), 1);
        svc.run_until_idle();
        assert_eq!(svc.status(id).unwrap(), JobStatus::Completed);
    }

    #[test]
    fn unknown_job_errors() {
        let mut svc = Service::new(DeviceGroup::v100s(1), ServeConfig::default());
        assert!(matches!(
            svc.status(JobId(99)),
            Err(ServeError::UnknownJob(_))
        ));
        assert!(matches!(
            svc.cancel(JobId(99)),
            Err(ServeError::UnknownJob(_))
        ));
        let id = svc
            .submit(OptimizeRequest::new("t", Arc::new(Sphere), small(0)))
            .unwrap();
        svc.run_until_idle();
        assert!(svc.result(id).is_ok());
        assert!(matches!(
            svc.result(JobId(99)),
            Err(ServeError::UnknownJob(_))
        ));
    }
}
