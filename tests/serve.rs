//! Integration tests for the multi-tenant serving layer (`fastpso::serve`):
//! replayed-trace determinism, strict admission backpressure, lease/memory
//! hygiene on cancellation, device-loss re-homing (an exhaustive
//! per-ordinal fault sweep), crash-safe journal snapshot/restore, and the
//! predictive admission controller — a proptest over random
//! submit/cancel/tick interleavings, a calibration regression against the
//! pinned per-strategy tolerance table
//! (`results/predictor_tolerance.golden.txt`, regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test serve`), and an overload goodput
//! regression pinning predictive vs blind reject/shed/complete counts.

use fastpso::resilience::ResilienceConfig;
use fastpso::serve::{
    BatchPolicy, JobId, JobStatus, OptimizeRequest, Priority, ServeConfig, ServeError, ServeEvent,
    Service,
};
use fastpso::{CounterAsserts, PsoConfig, RunResult, Schedule, UpdateStrategy};
use fastpso_functions::builtins::{Griewank, Rastrigin, Sphere};
use fastpso_functions::Objective;
use gpu_sim::{DeviceGroup, FaultPlan, HealthState};
use proptest::prelude::*;
use std::sync::Arc;

fn cfg(n: usize, d: usize, iters: usize, seed: u64) -> PsoConfig {
    PsoConfig::builder(n, d)
        .max_iter(iters)
        .seed(seed)
        .build()
        .unwrap()
}

/// Replay a fixed multi-tenant arrival trace: 8 jobs over 3 tenants with
/// mixed priorities and objectives, with scheduler ticks interleaved
/// between arrival bursts. Returns every job's result plus the
/// service-wide launch manifest.
fn replay_trace() -> (Vec<RunResult>, Vec<String>) {
    let mut svc = Service::new(
        DeviceGroup::v100s(2),
        ServeConfig {
            slots_per_device: 2,
            slice_iters: 6,
            ..ServeConfig::default()
        },
    );
    let objs: [Arc<dyn Objective>; 3] = [Arc::new(Sphere), Arc::new(Rastrigin), Arc::new(Griewank)];
    let mut ids: Vec<JobId> = Vec::new();
    for burst in 0..2 {
        for i in 0..4u64 {
            let job = burst * 4 + i;
            let req = OptimizeRequest::new(
                ["acme", "globex", "initech"][job as usize % 3],
                Arc::clone(&objs[job as usize % 3]),
                cfg(24 + 8 * (job as usize % 2), 4, 25, 100 + job),
            )
            .priority([Priority::Low, Priority::Normal, Priority::High][job as usize % 3]);
            ids.push(svc.submit(req).unwrap());
        }
        // Let the first burst make partial progress before the second lands.
        svc.tick();
        svc.tick();
    }
    svc.run_until_idle();
    let results = ids
        .iter()
        .map(|&id| svc.result(id).unwrap().clone())
        .collect();
    let manifest = svc
        .merged_profiler()
        .kernels
        .iter()
        .map(|k| {
            format!(
                "{} dev{} grid{:?} block{:?} threads{}",
                k.name, k.device, k.grid, k.block, k.threads
            )
        })
        .collect();
    (results, manifest)
}

#[test]
fn replayed_trace_is_bit_identical_with_identical_manifest() {
    let (results_a, manifest_a) = replay_trace();
    let (results_b, manifest_b) = replay_trace();
    assert_eq!(results_a.len(), 8);
    for (a, b) in results_a.iter().zip(&results_b) {
        CounterAsserts::assert_bit_identical_gbest(a, b);
        assert_eq!(a.iterations, b.iterations);
    }
    assert_eq!(
        manifest_a.len(),
        manifest_b.len(),
        "launch counts differ between replays"
    );
    assert_eq!(manifest_a, manifest_b, "launch manifest drifted");
    assert!(!manifest_a.is_empty());
}

#[test]
fn interleaving_does_not_perturb_single_job_trajectories() {
    use fastpso::{GpuBackend, PsoBackend};
    // Every job served under contention must match the same job run alone
    // on a dedicated device, bit for bit.
    let configs: Vec<PsoConfig> = (0..4).map(|i| cfg(32, 6, 30, 500 + i)).collect();
    let alone: Vec<RunResult> = configs
        .iter()
        .map(|c| GpuBackend::new().run(c, &Sphere).unwrap())
        .collect();
    let mut svc = Service::new(
        DeviceGroup::v100s(2),
        ServeConfig {
            slots_per_device: 2,
            slice_iters: 4,
            ..ServeConfig::default()
        },
    );
    let ids: Vec<JobId> = configs
        .iter()
        .map(|c| {
            svc.submit(OptimizeRequest::new("t", Arc::new(Sphere), c.clone()))
                .unwrap()
        })
        .collect();
    svc.run_until_idle();
    for (id, expect) in ids.iter().zip(&alone) {
        let got = svc.result(*id).unwrap();
        CounterAsserts::assert_bit_identical_gbest(got, expect);
    }
}

#[test]
fn backpressure_rejects_without_dropping() {
    let mut svc = Service::new(
        DeviceGroup::v100s(1),
        ServeConfig {
            queue_capacity: 3,
            slots_per_device: 1,
            ..ServeConfig::default()
        },
    );
    let mut admitted = Vec::new();
    let mut rejected = 0;
    for i in 0..6u64 {
        match svc.submit(OptimizeRequest::new(
            "t",
            Arc::new(Sphere),
            cfg(16, 4, 15, i),
        )) {
            Ok(id) => admitted.push(id),
            Err(ServeError::QueueFull { capacity }) => {
                assert_eq!(capacity, 3);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(
        admitted.len(),
        3,
        "bounded queue admits exactly its capacity"
    );
    assert_eq!(rejected, 3);
    svc.run_until_idle();
    // Every admitted job completes — backpressure must never shed.
    for id in &admitted {
        assert_eq!(svc.status(*id).unwrap(), JobStatus::Completed);
        assert!(svc.result(*id).is_ok());
    }
    let rollup = svc.tenant_rollups();
    assert_eq!(rollup[0].completed, 3);
    assert_eq!(rollup[0].shed, 0, "nothing dropped");
    // Draining frees the queue: new submissions are accepted again.
    assert!(svc
        .submit(OptimizeRequest::new(
            "t",
            Arc::new(Sphere),
            cfg(16, 4, 5, 9)
        ))
        .is_ok());
    svc.run_until_idle();
}

#[test]
fn cancellation_mid_run_frees_device_lease_and_memory() {
    let group = DeviceGroup::v100s(2);
    let baseline: Vec<usize> = group.iter().map(|d| d.bytes_in_use()).collect();
    assert!(baseline.iter().all(|&b| b == 0));
    let mut svc = Service::new(
        group,
        ServeConfig {
            slots_per_device: 1,
            slice_iters: 3,
            ..ServeConfig::default()
        },
    );
    let long = svc
        .submit(OptimizeRequest::new(
            "t",
            Arc::new(Rastrigin),
            cfg(64, 8, 10_000, 1),
        ))
        .unwrap();
    let short = svc
        .submit(OptimizeRequest::new(
            "t",
            Arc::new(Sphere),
            cfg(16, 4, 20, 2),
        ))
        .unwrap();
    svc.tick(); // both admitted, mid-run
    assert_eq!(svc.status(long).unwrap(), JobStatus::Running);
    assert!(svc.group().iter().any(|d| d.bytes_in_use() > 0));
    let (in_use, _) = svc.occupancy();
    assert_eq!(in_use, 2);

    svc.cancel(long).unwrap();
    assert_eq!(svc.status(long).unwrap(), JobStatus::Cancelled);
    assert_eq!(svc.occupancy().0, 1, "cancelled job's lease returned");
    svc.run_until_idle();
    assert_eq!(svc.status(short).unwrap(), JobStatus::Completed);
    // Zero leaked allocations: every byte the jobs allocated was freed.
    for d in svc.group().iter() {
        assert_eq!(d.bytes_in_use(), 0, "device {} leaked memory", d.index());
    }
    assert_eq!(svc.occupancy().0, 0);
    // The profiler saw every charge the timeline saw — cancellation did
    // not tear a device mid-record.
    for d in svc.group().iter() {
        CounterAsserts::capture(d).assert_profiler_matches_timeline();
    }
    // Cancelling a finished job is an idempotent no-op; unknown ids error.
    svc.cancel(long).unwrap();
    assert!(matches!(
        svc.cancel(JobId(999)),
        Err(ServeError::UnknownJob(_))
    ));
}

// ---- fleet fault tolerance ------------------------------------------------

/// Everything one chaos replay observes.
struct Chaos {
    results: Vec<RunResult>,
    manifest: Vec<String>,
    snapshot: Vec<u8>,
    events: Vec<ServeEvent>,
    /// Whether the planned device loss actually fired during the run.
    lost: bool,
    dev1_health: HealthState,
    total_rehomes: u64,
}

/// Replay a fixed 6-job trace (5 packed + 1 sharded, 3 tenants, mixed
/// priorities) over 2 devices, optionally losing device 1 permanently at
/// its `loss_ordinal`-th kernel launch.
fn chaos_trace(loss_ordinal: Option<u64>) -> Chaos {
    let group = DeviceGroup::v100s(2);
    if let Some(ord) = loss_ordinal {
        group.set_fault_plans(vec![
            FaultPlan::new(),
            FaultPlan::new().with_device_loss_at_launch(ord),
        ]);
    }
    let mut svc = Service::new(
        group,
        ServeConfig {
            slots_per_device: 2,
            slice_iters: 4,
            shard_threshold_particles: 64,
            ..ServeConfig::default()
        },
    );
    let objs: [Arc<dyn Objective>; 3] = [Arc::new(Sphere), Arc::new(Rastrigin), Arc::new(Griewank)];
    let mut ids: Vec<JobId> = Vec::new();
    for i in 0..5u64 {
        let req = OptimizeRequest::new(
            ["acme", "globex"][i as usize % 2],
            Arc::clone(&objs[i as usize % 3]),
            cfg(24 + 8 * (i as usize % 2), 4, 25, 900 + i),
        )
        .priority([Priority::Normal, Priority::High, Priority::Low][i as usize % 3]);
        ids.push(svc.submit(req).unwrap());
    }
    // One job large enough to shard over both devices.
    ids.push(
        svc.submit(OptimizeRequest::new(
            "initech",
            Arc::new(Sphere),
            cfg(64, 4, 25, 950),
        ))
        .unwrap(),
    );
    svc.run_until_idle();
    let results = ids
        .iter()
        .map(|&id| svc.result(id).unwrap().clone())
        .collect();
    let manifest = svc
        .merged_profiler()
        .kernels
        .iter()
        .map(|k| {
            format!(
                "{} dev{} grid{:?} block{:?} threads{}",
                k.name, k.device, k.grid, k.block, k.threads
            )
        })
        .collect();
    Chaos {
        results,
        manifest,
        snapshot: svc.snapshot(),
        events: svc.journal().events().to_vec(),
        lost: svc.group().device(1).unwrap().is_lost(),
        dev1_health: svc.health().state(1),
        total_rehomes: svc.records().iter().map(|r| r.rehomes).sum(),
    }
}

/// Exhaustive per-ordinal device-loss sweep: whatever launch the device
/// dies at, every affected job completes via re-homing with a result
/// bit-identical to the fault-free run, the lost device is quarantined and
/// never leased again, and each faulted scenario replays deterministically
/// (identical launch manifest and journal bytes).
#[test]
fn device_loss_sweep_rehomes_every_job_bit_identically() {
    let clean = chaos_trace(None);
    assert_eq!(clean.results.len(), 6);
    assert!(!clean.lost);
    assert_eq!(clean.total_rehomes, 0);
    for ord in [1, 7, 40, 90, 220] {
        let a = chaos_trace(Some(ord));
        let b = chaos_trace(Some(ord));
        assert_eq!(a.manifest, b.manifest, "ordinal {ord}: manifest drifted");
        assert_eq!(a.snapshot, b.snapshot, "ordinal {ord}: journal drifted");
        for (i, (fa, fc)) in a.results.iter().zip(&clean.results).enumerate() {
            CounterAsserts::assert_bit_identical_gbest(fa, fc);
            assert_eq!(
                fa.iterations, fc.iterations,
                "ordinal {ord}, job {i}: iteration count diverged under loss"
            );
        }
        if a.lost {
            assert!(
                a.total_rehomes >= 1,
                "ordinal {ord}: loss fired but nothing re-homed"
            );
            assert_eq!(
                a.dev1_health,
                HealthState::Quarantined,
                "ordinal {ord}: lost device must stay quarantined"
            );
            let first_rehome = a
                .events
                .iter()
                .position(|e| matches!(e, ServeEvent::Rehome { .. }))
                .expect("re-homing must be journaled");
            for e in &a.events[first_rehome..] {
                if let ServeEvent::Admit { job, devices } = e {
                    assert!(
                        !devices.contains(&1),
                        "ordinal {ord}: job#{job} leased the lost device"
                    );
                }
            }
        }
    }
}

/// The SSO/GFWA analogue of [`chaos_trace`]: a fixed 5-job trace mixing
/// both non-PSO engines (including one sharded GFWA job, whose per-shard
/// amplitude state must survive evacuation) over 2 devices, optionally
/// losing device 1 permanently at its `loss_ordinal`-th kernel launch.
fn algo_chaos_trace(loss_ordinal: Option<u64>) -> Chaos {
    use fastpso::Algorithm;
    let group = DeviceGroup::v100s(2);
    if let Some(ord) = loss_ordinal {
        group.set_fault_plans(vec![
            FaultPlan::new(),
            FaultPlan::new().with_device_loss_at_launch(ord),
        ]);
    }
    let mut svc = Service::new(
        group,
        ServeConfig {
            slots_per_device: 2,
            slice_iters: 4,
            shard_threshold_particles: 64,
            ..ServeConfig::default()
        },
    );
    let objs: [Arc<dyn Objective>; 2] = [Arc::new(Sphere), Arc::new(Rastrigin)];
    let mut ids: Vec<JobId> = Vec::new();
    for i in 0..4u64 {
        let algo = [Algorithm::Sso, Algorithm::Gfwa][i as usize % 2];
        let req = OptimizeRequest::new(
            ["acme", "globex"][i as usize % 2],
            Arc::clone(&objs[i as usize % 2]),
            cfg(24 + 8 * (i as usize % 2), 4, 25, 700 + i),
        )
        .algorithm(algo)
        .priority([Priority::Normal, Priority::High][i as usize % 2]);
        ids.push(svc.submit(req).unwrap());
    }
    // One GFWA job large enough to shard over both devices: re-homing it
    // must reconstruct the lost shard's amplitude buffer on the new home.
    ids.push(
        svc.submit(
            OptimizeRequest::new("initech", Arc::new(Sphere), cfg(64, 4, 25, 750))
                .algorithm(Algorithm::Gfwa),
        )
        .unwrap(),
    );
    svc.run_until_idle();
    let results = ids
        .iter()
        .map(|&id| svc.result(id).unwrap().clone())
        .collect();
    let manifest = svc
        .merged_profiler()
        .kernels
        .iter()
        .map(|k| {
            format!(
                "{} dev{} grid{:?} block{:?} threads{}",
                k.name, k.device, k.grid, k.block, k.threads
            )
        })
        .collect();
    Chaos {
        results,
        manifest,
        snapshot: svc.snapshot(),
        events: svc.journal().events().to_vec(),
        lost: svc.group().device(1).unwrap().is_lost(),
        dev1_health: svc.health().state(1),
        total_rehomes: svc.records().iter().map(|r| r.rehomes).sum(),
    }
}

/// Per-ordinal device-loss sweep over the SSO/GFWA trace: whatever launch
/// device 1 dies at, every job of both new engines completes via
/// re-homing with a result bit-identical to the fault-free run — i.e. the
/// checkpoints the scheduler resumes from carry the full algorithm state,
/// including GFWA's per-firework amplitudes — and every faulted scenario
/// replays deterministically.
#[test]
fn device_loss_sweep_rehomes_sso_and_gfwa_jobs_bit_identically() {
    let clean = algo_chaos_trace(None);
    assert_eq!(clean.results.len(), 5);
    assert!(!clean.lost);
    assert_eq!(clean.total_rehomes, 0);
    let mut losses = 0;
    for ord in [1, 9, 33, 80, 200] {
        let a = algo_chaos_trace(Some(ord));
        let b = algo_chaos_trace(Some(ord));
        assert_eq!(a.manifest, b.manifest, "ordinal {ord}: manifest drifted");
        assert_eq!(a.snapshot, b.snapshot, "ordinal {ord}: journal drifted");
        for (i, (fa, fc)) in a.results.iter().zip(&clean.results).enumerate() {
            CounterAsserts::assert_bit_identical_gbest(fa, fc);
            assert_eq!(
                fa.iterations, fc.iterations,
                "ordinal {ord}, job {i}: iteration count diverged under loss"
            );
        }
        if a.lost {
            losses += 1;
            assert!(
                a.total_rehomes >= 1,
                "ordinal {ord}: loss fired but nothing re-homed"
            );
            assert_eq!(
                a.dev1_health,
                HealthState::Quarantined,
                "ordinal {ord}: lost device must stay quarantined"
            );
            assert!(
                a.events
                    .iter()
                    .any(|e| matches!(e, ServeEvent::Rehome { .. })),
                "ordinal {ord}: re-homing must be journaled"
            );
        }
    }
    assert!(losses >= 3, "sweep must actually exercise device loss");
}

/// The island-model analogue of [`algo_chaos_trace`]: a fixed 5-job trace
/// of `Topology::Islands` jobs mixing all three migration kinds and two
/// periods over 2 devices, optionally losing device 1 permanently at its
/// `loss_ordinal`-th kernel launch. Island jobs keep their per-island
/// PRNG domains and migration schedule inside the ordinary plan
/// checkpoint, so evacuation and resume must be bit-identical — including
/// the `migrations` rollup, which replays from the checkpoint's iteration
/// rather than double-counting re-executed migration events.
fn island_chaos_trace(loss_ordinal: Option<u64>) -> Chaos {
    use fastpso::{Migration, MigrationKind, Topology};
    let group = DeviceGroup::v100s(2);
    if let Some(ord) = loss_ordinal {
        group.set_fault_plans(vec![
            FaultPlan::new(),
            FaultPlan::new().with_device_loss_at_launch(ord),
        ]);
    }
    let mut svc = Service::new(
        group,
        ServeConfig {
            slots_per_device: 2,
            slice_iters: 4,
            ..ServeConfig::default()
        },
    );
    let objs: [Arc<dyn Objective>; 2] = [Arc::new(Sphere), Arc::new(Rastrigin)];
    let kinds = [
        MigrationKind::Ring,
        MigrationKind::Star,
        MigrationKind::Random,
    ];
    let mut ids: Vec<JobId> = Vec::new();
    for i in 0..5u64 {
        let mut c = cfg(24 + 8 * (i as usize % 2), 4, 25, 800 + i);
        c.topology = Topology::Islands {
            islands: 2 + i as usize % 2,
            migration: Migration {
                kind: kinds[i as usize % 3],
                every_k: 3 + i as usize % 2,
                elites: 1 + i as usize % 2,
            },
        };
        let req = OptimizeRequest::new(
            ["acme", "globex", "initech"][i as usize % 3],
            Arc::clone(&objs[i as usize % 2]),
            c,
        )
        .priority([Priority::Normal, Priority::High][i as usize % 2]);
        ids.push(svc.submit(req).unwrap());
    }
    svc.run_until_idle();
    let results = ids
        .iter()
        .map(|&id| svc.result(id).unwrap().clone())
        .collect();
    let manifest = svc
        .merged_profiler()
        .kernels
        .iter()
        .map(|k| {
            format!(
                "{} dev{} grid{:?} block{:?} threads{}",
                k.name, k.device, k.grid, k.block, k.threads
            )
        })
        .collect();
    Chaos {
        results,
        manifest,
        snapshot: svc.snapshot(),
        events: svc.journal().events().to_vec(),
        lost: svc.group().device(1).unwrap().is_lost(),
        dev1_health: svc.health().state(1),
        total_rehomes: svc.records().iter().map(|r| r.rehomes).sum(),
    }
}

/// Per-ordinal device-loss sweep over the islands trace: whatever launch
/// device 1 dies at, every island job completes via re-homing with a
/// result — and a `migrations` rollup — bit-identical to the fault-free
/// run, and every faulted scenario replays deterministically. This is the
/// re-homing guarantee for island state: the checkpoint carries enough to
/// recompute every pending migration on the new device.
#[test]
fn device_loss_sweep_rehomes_island_jobs_bit_identically() {
    let clean = island_chaos_trace(None);
    assert_eq!(clean.results.len(), 5);
    assert!(!clean.lost);
    assert_eq!(clean.total_rehomes, 0);
    for r in &clean.results {
        assert!(r.migrations > 0, "every island job must actually migrate");
    }
    let mut losses = 0;
    for ord in [1, 9, 33, 80, 200] {
        let a = island_chaos_trace(Some(ord));
        let b = island_chaos_trace(Some(ord));
        assert_eq!(a.manifest, b.manifest, "ordinal {ord}: manifest drifted");
        assert_eq!(a.snapshot, b.snapshot, "ordinal {ord}: journal drifted");
        for (i, (fa, fc)) in a.results.iter().zip(&clean.results).enumerate() {
            CounterAsserts::assert_bit_identical_gbest(fa, fc);
            assert_eq!(
                fa.iterations, fc.iterations,
                "ordinal {ord}, job {i}: iteration count diverged under loss"
            );
            assert_eq!(
                fa.migrations, fc.migrations,
                "ordinal {ord}, job {i}: migration rollup diverged under loss"
            );
        }
        if a.lost {
            losses += 1;
            assert!(
                a.total_rehomes >= 1,
                "ordinal {ord}: loss fired but nothing re-homed"
            );
            assert_eq!(
                a.dev1_health,
                HealthState::Quarantined,
                "ordinal {ord}: lost device must stay quarantined"
            );
            assert!(
                a.events
                    .iter()
                    .any(|e| matches!(e, ServeEvent::Rehome { .. })),
                "ordinal {ord}: re-homing must be journaled"
            );
        }
    }
    assert!(losses >= 3, "sweep must actually exercise device loss");
}

/// Crash-safe journal: snapshotting a mid-flight service and replaying the
/// snapshot against a fresh group reproduces queue depth, the running set
/// and the job records — and re-serializes byte-for-byte. Corrupt bytes
/// and a wrong request list are rejected, not silently mis-restored.
#[test]
fn journal_snapshot_restore_is_byte_exact() {
    let serve_cfg = ServeConfig {
        slots_per_device: 1,
        slice_iters: 3,
        ..ServeConfig::default()
    };
    let requests: Vec<OptimizeRequest> = (0..6u64)
        .map(|i| {
            OptimizeRequest::new(
                ["acme", "globex", "initech"][i as usize % 3],
                Arc::new(Sphere) as Arc<dyn Objective>,
                cfg(16 + 8 * (i as usize % 2), 4, 40, 700 + i),
            )
            .priority([Priority::Low, Priority::Normal, Priority::High][i as usize % 3])
        })
        .collect();
    let mut svc = Service::new(DeviceGroup::v100s(2), serve_cfg.clone());
    let ids: Vec<JobId> = requests
        .iter()
        .map(|r| svc.submit(r.clone()).unwrap())
        .collect();
    svc.tick();
    svc.tick();
    svc.cancel(ids[3]).unwrap(); // cancel becomes a journaled input event
    svc.tick();
    // Snapshot mid-flight: jobs queued, running and finished all at once.
    assert!(svc.queue_depth() > 0 && svc.n_running() > 0);
    let snap = svc.snapshot();

    let restored = Service::restore(
        DeviceGroup::v100s(2),
        serve_cfg.clone(),
        &snap,
        requests.clone(),
    )
    .unwrap();
    assert_eq!(restored.queue_depth(), svc.queue_depth());
    assert_eq!(restored.running_ids(), svc.running_ids());
    assert_eq!(restored.records(), svc.records());
    assert_eq!(
        restored.now(),
        svc.now(),
        "modeled clock must replay exactly"
    );
    assert_eq!(
        restored.snapshot(),
        snap,
        "re-serialization must be byte-exact"
    );

    // A flipped byte is detected, not replayed.
    let mut torn = snap.clone();
    let mid = torn.len() / 2;
    torn[mid] ^= 0x40;
    assert!(matches!(
        Service::restore(
            DeviceGroup::v100s(2),
            serve_cfg.clone(),
            &torn,
            requests.clone()
        ),
        Err(ServeError::JournalCorrupt(_))
    ));
    // A wrong request list diverges and is rejected.
    assert!(matches!(
        Service::restore(DeviceGroup::v100s(2), serve_cfg.clone(), &snap, Vec::new()),
        Err(ServeError::RestoreMismatch(_))
    ));

    // Both services drive to idle along the same trajectory.
    let mut svc = svc;
    let mut restored = restored;
    svc.run_until_idle();
    restored.run_until_idle();
    for &id in &ids {
        if id == ids[3] {
            continue; // cancelled
        }
        let a = svc.result(id).unwrap();
        let b = restored.result(id).unwrap();
        CounterAsserts::assert_bit_identical_gbest(a, b);
    }
    assert_eq!(svc.snapshot(), restored.snapshot());
}

/// Regression for the lease-accounting race: a job cancelled while its
/// device is lost must release its lease exactly once, in both orderings
/// (cancel after the re-homing sweep ran, and cancel while the job still
/// holds a lease spanning the dead device).
#[test]
fn cancellation_during_device_loss_releases_each_lease_exactly_once() {
    // Ordering A: the loss is noticed first (the slice errors and the job
    // is re-homed to the queue), then the submitter cancels.
    let group = DeviceGroup::v100s(2);
    group.set_fault_plans(vec![
        FaultPlan::new(),
        FaultPlan::new().with_device_loss_at_launch(9),
    ]);
    let mut svc = Service::new(
        group,
        ServeConfig {
            slots_per_device: 1,
            slice_iters: 3,
            ..ServeConfig::default()
        },
    );
    let a = svc
        .submit(OptimizeRequest::new(
            "t",
            Arc::new(Sphere),
            cfg(24, 4, 500, 1),
        ))
        .unwrap();
    let b = svc
        .submit(OptimizeRequest::new(
            "t",
            Arc::new(Rastrigin),
            cfg(24, 4, 500, 2),
        ))
        .unwrap();
    let mut guard = 0;
    while !svc.group().device(1).unwrap().is_lost() {
        svc.tick();
        guard += 1;
        assert!(guard < 50, "loss never fired");
    }
    svc.tick(); // re-homing sweep requeues the stranded job
    assert_eq!(svc.occupancy().0, 1, "only the healthy device's lease held");
    svc.cancel(b).unwrap();
    svc.cancel(a).unwrap();
    assert_eq!(svc.occupancy().0, 0, "every lease released exactly once");
    assert_eq!(svc.status(a).unwrap(), JobStatus::Cancelled);
    assert_eq!(svc.status(b).unwrap(), JobStatus::Cancelled);
    svc.run_until_idle();
    assert_eq!(svc.group().device(0).unwrap().bytes_in_use(), 0);

    // Ordering B: cancel lands while the job still holds a lease spanning
    // the dead device (a resilient sharded job survives the loss inside
    // its slice, so the serve layer hasn't swept it yet).
    let group = DeviceGroup::v100s(2);
    group.set_fault_plans(vec![
        FaultPlan::new(),
        FaultPlan::new().with_device_loss_at_launch(30),
    ]);
    let mut svc = Service::new(
        group,
        ServeConfig {
            slots_per_device: 1,
            slice_iters: 4,
            shard_threshold_particles: 64,
            ..ServeConfig::default()
        },
    );
    let j = svc
        .submit(
            OptimizeRequest::new("t", Arc::new(Sphere), cfg(64, 4, 500, 3))
                .resilient(ResilienceConfig::default()),
        )
        .unwrap();
    let mut guard = 0;
    while !svc.group().device(1).unwrap().is_lost() {
        svc.tick();
        guard += 1;
        assert!(guard < 50, "loss never fired");
    }
    // The resilient job absorbed the loss mid-slice and is still running
    // on a lease that includes the dead device.
    assert_eq!(svc.status(j).unwrap(), JobStatus::Running);
    svc.cancel(j).unwrap();
    assert_eq!(
        svc.occupancy().0,
        0,
        "lease spanning the dead device released once"
    );
    assert_eq!(svc.status(j).unwrap(), JobStatus::Cancelled);
    svc.run_until_idle();
    assert_eq!(svc.group().device(0).unwrap().bytes_in_use(), 0);
}

// ---- predictive admission ------------------------------------------------

/// Path of the pinned per-strategy calibration tolerance table.
const TOLERANCE_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/results/predictor_tolerance.golden.txt"
);

/// The calibration regression's 32-job trace: heterogeneous shapes cycling
/// through every update strategy.
fn calib_job(i: u64) -> (PsoConfig, UpdateStrategy, Arc<dyn Objective>) {
    let cfg = cfg(
        32 + 32 * (i as usize % 3),
        4 * (1 + (i as usize % 4)),
        40 + 10 * (i as usize % 3),
        3000 + i,
    );
    let strategy = UpdateStrategy::ALL[i as usize % UpdateStrategy::ALL.len()];
    let obj: Arc<dyn Objective> = match i % 3 {
        0 => Arc::new(Sphere),
        1 => Arc::new(Rastrigin),
        _ => Arc::new(Griewank),
    };
    (cfg, strategy, obj)
}

/// After replaying a 32-job trace, the calibrated predictor agrees with
/// every observed job's device-seconds to within the per-strategy
/// tolerance pinned in `results/predictor_tolerance.golden.txt`, which
/// records each rung's measured worst error beside its pin and keeps the
/// pin within [`pin_ceiling`] of it ([`check_tolerance_golden`]), so any
/// model drift shows up as a reviewable diff.
#[test]
fn calibrated_predictor_matches_observed_costs_within_pinned_tolerances() {
    let mut svc = Service::new(
        DeviceGroup::v100s(2),
        ServeConfig {
            slots_per_device: 2,
            slice_iters: 10,
            ..ServeConfig::default()
        },
    );
    let mut jobs = Vec::new();
    for i in 0..32u64 {
        let (cfg, strategy, obj) = calib_job(i);
        let id = svc
            .submit(OptimizeRequest::new("calib", obj.clone(), cfg.clone()).strategy(strategy))
            .unwrap();
        jobs.push((id, cfg, strategy, obj, fastpso::Algorithm::Pso));
    }
    // Eight more jobs on the non-PSO engines: their observations calibrate
    // the algorithm-qualified rungs (`sso:global`, `gfwa:global`) without
    // touching any PSO coefficient.
    for i in 32..40u64 {
        let (cfg, _, obj) = calib_job(i);
        let algo = [fastpso::Algorithm::Sso, fastpso::Algorithm::Gfwa][i as usize % 2];
        let id = svc
            .submit(OptimizeRequest::new("calib", obj.clone(), cfg.clone()).algorithm(algo))
            .unwrap();
        jobs.push((id, cfg, UpdateStrategy::GlobalMem, obj, algo));
    }
    svc.run_until_idle();

    // Worst relative error per calibration rung, final calibrated
    // predictor vs each job's observed device-seconds, on the schedule it
    // ran: resident, sharing its regions with the jobs it was billed
    // alongside (`JobRecord::sharers`) and billed its share of its lane
    // seconds (`JobRecord::lane_share`).
    let mut max_err: std::collections::BTreeMap<String, f64> = Default::default();
    for (id, cfg, strategy, obj, algo) in &jobs {
        let rec = svc
            .records()
            .iter()
            .find(|r| r.job == id.0)
            .expect("every job has a record");
        assert_eq!(rec.outcome, perf_model::JobOutcome::Completed);
        let shape = fastpso::JobShape::new(
            cfg.n_particles as u64,
            cfg.dim as u64,
            rec.iterations as u64,
            *strategy,
        )
        .flops_per_dim(obj.flops_per_dim())
        .algorithm(*algo)
        .schedule(Schedule::Resident {
            slice: 10,
            checkpoint_slices: 1,
            sharers: rec.sharers,
            pooled: rec.pooled,
            lane_share: rec.lane_share,
            region_misses: rec.region_misses,
        });
        let err = svc.predictor().relative_error(&shape, rec.device_seconds);
        let slot = max_err.entry(shape.calibration_key()).or_insert(0.0);
        *slot = slot.max(err);
    }
    for strategy in UpdateStrategy::ALL {
        assert!(
            svc.predictor()
                .observations(&format!("{strategy}+resident"))
                > 0,
            "{strategy} never calibrated on its resident rung"
        );
    }
    for key in ["sso:global+resident", "gfwa:global+resident"] {
        assert!(
            svc.predictor().observations(key) > 0,
            "{key} never calibrated"
        );
    }

    check_tolerance_golden(TOLERANCE_GOLDEN, &max_err);
}

/// The largest pin [`check_tolerance_golden`] accepts over a measured
/// calibrated error: `max(1.25 × measured, 0.02)`, to the golden's four
/// decimals.
fn pin_ceiling(measured: f64) -> f64 {
    format!("{:.4}", (1.25 * measured).max(0.02))
        .parse()
        .expect("a float")
}

/// Check the measured worst calibrated error per rung against a tolerance
/// golden of `key,pin,measured` lines: every rung is pinned, the golden
/// records this run's measurement, the measurement is within its pin, and
/// the pin is within [`pin_ceiling`] of the measurement — so a pin that a
/// model improvement left loose fails until it is tightened.
/// `UPDATE_GOLDEN=1` rewrites the golden with the fresh measurements and
/// re-pins each rung to the smaller of its old pin and its ceiling, so
/// pins only ratchet down.
fn check_tolerance_golden(path: &str, max_err: &std::collections::BTreeMap<String, f64>) {
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    let mut pinned: std::collections::BTreeMap<String, (f64, String)> = Default::default();
    for line in golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut fields = line.split(',');
        let (Some(key), Some(pin), Some(measured)) = (fields.next(), fields.next(), fields.next())
        else {
            panic!("{path}: malformed line {line:?} (want key,pin,measured)");
        };
        let pin = pin.parse().expect("pin is a float");
        pinned.insert(key.to_string(), (pin, measured.to_string()));
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut out = String::from(
            "# key,pin,measured: worst calibrated relative error per rung; \
             a pin is at most max(1.25 * measured, 0.02)\n",
        );
        for (key, err) in max_err {
            let ceiling = pin_ceiling(*err);
            let pin = pinned
                .get(key)
                .map_or(ceiling, |&(old, _)| old.min(ceiling));
            out.push_str(&format!("{key},{pin:.4},{err:.4}\n"));
        }
        std::fs::write(path, out).expect("write tolerance golden");
        return;
    }
    assert_eq!(
        pinned.keys().collect::<Vec<_>>(),
        max_err.keys().collect::<Vec<_>>(),
        "{path}: the pinned rungs differ from the measured ones"
    );
    for (key, err) in max_err {
        let (pin, recorded) = &pinned[key];
        assert_eq!(
            recorded,
            &format!("{err:.4}"),
            "{key}: measured error moved (if the cost model changed intentionally: \
             UPDATE_GOLDEN=1 cargo test --test serve)"
        );
        assert!(
            err <= pin,
            "{key}: calibrated prediction error {err:.4} exceeds its pin {pin:.4}"
        );
        assert!(
            *pin <= pin_ceiling(*err),
            "{key}: pin {pin:.4} is looser than max(1.25 * {err:.4}, 0.02)"
        );
    }
}

/// Path of the pinned bit-exact analytic base over the shape grid.
const PREDICTOR_BASE_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/results/predictor_base.golden.txt"
);

/// The uncalibrated analytic base, pinned to the last bit: one line per
/// shape over algorithm × strategy × shards × execution mode (per-launch,
/// resident) × topology × size, each ending in the shape's calibration
/// key and `base_s` as hex bits (regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test serve predictor_base`). The
/// tolerance goldens above only bound calibrated error; this one catches
/// any change to the modeled schedule itself.
#[test]
fn predictor_base_is_bit_identical_to_the_pinned_grid() {
    use fastpso::{Algorithm, Migration, MigrationKind, Topology};
    let islands = |every_k| Topology::Islands {
        islands: 4,
        migration: Migration {
            kind: MigrationKind::Ring,
            every_k,
            elites: 1,
        },
    };
    let predictor = fastpso::CostPredictor::v100();
    let mut out = String::from(
        "# algorithm strategy shards mode topology n×d×iters calibration_key base_s_bits\n",
    );
    // One line per topology × size of one (algorithm, strategy, shards,
    // schedule).
    let row = |out: &mut String, algo, strategy, shards, mode: &str, schedule| {
        for topology in [Topology::Global, islands(5), islands(0)] {
            for (n, d, iters) in [(64u64, 8u64, 100u64), (1000, 50, 37)] {
                let shape = fastpso::JobShape::new(n, d, iters, strategy)
                    .algorithm(algo)
                    .shards(shards)
                    .flops_per_dim(7)
                    .topology(topology)
                    .schedule(schedule);
                out.push_str(&format!(
                    "{algo} {strategy} {shards} {mode} {topology} {n}x{d}x{iters} {} {:016x}\n",
                    shape.calibration_key(),
                    predictor.base_s(&shape).to_bits()
                ));
            }
        }
    };
    for algo in Algorithm::ALL {
        for strategy in UpdateStrategy::ALL {
            for shards in [1u64, 3] {
                row(
                    &mut out,
                    algo,
                    strategy,
                    shards,
                    "per-launch",
                    Schedule::Launches,
                );
            }
        }
    }
    // The resident rows come after the original grid, so its lines keep
    // their positions.
    for algo in Algorithm::ALL {
        for strategy in UpdateStrategy::ALL {
            for shards in [1u64, 3] {
                for (mode, slice, checkpoint_slices) in
                    [("resident:0:0", 0, 0), ("resident:7:1", 7, 1)]
                {
                    let schedule = Schedule::Resident {
                        slice,
                        checkpoint_slices,
                        sharers: 1.0,
                        pooled: 0.0,
                        lane_share: 1.0,
                        region_misses: 0,
                    };
                    row(&mut out, algo, strategy, shards, mode, schedule);
                }
            }
        }
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(PREDICTOR_BASE_GOLDEN, &out).expect("write predictor base golden");
        return;
    }
    let golden = std::fs::read_to_string(PREDICTOR_BASE_GOLDEN).expect(
        "predictor base golden missing; regenerate with UPDATE_GOLDEN=1 cargo test --test serve",
    );
    assert_eq!(golden.lines().count(), 541, "header + 540 shapes");
    for (want, got) in golden.lines().zip(out.lines()) {
        assert_eq!(
            got, want,
            "analytic base drifted from the pinned grid (if the cost model changed \
             intentionally: UPDATE_GOLDEN=1 cargo test --test serve predictor_base)"
        );
    }
    assert_eq!(golden, out);
}

/// The overload trace of `serve_bench --overload`, shrunk, with `n×d`
/// burst and warm-up jobs of 80 iterations on two V100s of four slots:
/// blind and then predictive admission, each reporting the burst's
/// `(rejected, shed, completed)` counts and its deadline-met goodput.
///
/// The deadline is `multiple` of one full wave of burst jobs (one per slot
/// of the group) as the service serves it, measured here, so the overload
/// ratio does not drift when the engine models every job, or every shared
/// region, faster or slower.
fn overload_outcomes(n: usize, d: usize, multiple: f64) -> [((u64, u64, u64), f64); 2] {
    let serve = |predictive: bool| {
        let cfg = ServeConfig {
            slots_per_device: 4,
            slice_iters: 10,
            predictive_admission: predictive,
            admission_headroom: 1.2,
            ..ServeConfig::default()
        };
        Service::new(DeviceGroup::v100s(2), cfg)
    };
    let burst = |i: u64| OptimizeRequest::new("burst", Arc::new(Sphere), cfg(n, d, 80, 4100 + i));
    let mut wave = serve(false);
    for i in 0..8 {
        wave.submit(burst(i)).unwrap();
    }
    wave.run_until_idle();
    let deadline_s = multiple * wave.now();
    let overload_run = |predictive: bool| {
        let mut svc = serve(predictive);
        // Calibration warmup, then a burst of identical tight deadlines.
        for i in 0..4u64 {
            svc.submit(OptimizeRequest::new(
                "warmup",
                Arc::new(Sphere),
                cfg(n, d, 80, 4000 + i),
            ))
            .unwrap();
        }
        svc.run_until_idle();
        let warm_goodput = svc.goodput_s();
        let mut ids = Vec::new();
        let mut rejected = 0u64;
        for i in 0..12u64 {
            match svc.submit(burst(i).deadline_s(deadline_s)) {
                Ok(id) => ids.push(id),
                Err(ServeError::Infeasible { .. }) => rejected += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        svc.run_until_idle();
        let count = |status: JobStatus| {
            (ids.iter())
                .filter(|&&id| svc.status(id).unwrap() == status)
                .count() as u64
        };
        let counts = (
            rejected,
            count(JobStatus::Shed),
            count(JobStatus::Completed),
        );
        (counts, svc.goodput_s() - warm_goodput)
    };
    [overload_run(false), overload_run(true)]
}

/// The overload scenario of `serve_bench --overload`, shrunk and pinned:
/// on the same deterministic trace, blind admission sheds mid-flight while
/// predictive admission converts every shed into an up-front rejection and
/// at least doubles deadline-met goodput.
///
/// The burst jobs are 1024×64, large enough that the lanes of a device's
/// wave serialize under the work-conserving floor: one job alone takes
/// 0.48 of a (cold) wave. The multiple, 0.77 of a wave, is the one
/// `serve_bench --overload` uses: no full wave finishes in time, and the
/// three jobs the budget admits do. Admission prices each job's latency as
/// its device's wave, so at no multiple from 0.5 to 1.1 does it admit a
/// job that then misses its deadline; the pinned counts hold from 0.65 to
/// 0.80 (four jobs are admitted from 0.85 to 1.0).
#[test]
fn predictive_admission_beats_blind_shedding_on_the_pinned_overload_trace() {
    let [(blind, blind_goodput), (pred, pred_goodput)] = overload_outcomes(1024, 64, 0.77);
    // Pinned counts: the trace is deterministic, so any admission or
    // scheduling change that shifts these is a reviewable regression.
    assert_eq!(blind, (0, 12, 0), "blind scheduler outcome drifted");
    assert_eq!(pred, (9, 0, 3), "predictive scheduler outcome drifted");
    assert!(blind.1 > 0, "the burst must overload the blind scheduler");
    assert_eq!(pred.1, 0, "predictive admission sheds nothing");
    assert!(pred.0 > 0, "the overflow surfaces as up-front rejections");
    assert!(
        pred_goodput > 0.0 && (blind_goodput == 0.0 || pred_goodput / blind_goodput >= 2.0),
        "expected >= 2x goodput: predictive {pred_goodput:.4}s vs blind {blind_goodput:.4}s"
    );
}

/// On the same trace with 64×8 jobs, lanes hide nearly all of a wave: a
/// lone job takes 0.98 of a whole wave, so no job fits 0.77 of one.
/// Predictive admission rejects them up front and sheds nothing.
#[test]
fn predictive_admission_sheds_nothing_when_lanes_hide_the_wave() {
    let [_, (pred, _)] = overload_outcomes(64, 8, 0.77);
    assert_eq!(pred.1, 0, "predictive admission sheds nothing");
}

/// A sharded job's latency is its per-device wall time, not the
/// device-seconds it is billed over every shard: predictive admission
/// accepts a sharded deadline job whose wall time fits its deadline even
/// though its device-seconds do not, and the job meets that deadline.
#[test]
fn predictive_admission_accepts_a_sharded_job_whose_wall_time_fits() {
    let serve = |predictive: bool| {
        let cfg = ServeConfig {
            slots_per_device: 4,
            slice_iters: 10,
            shard_threshold_particles: 96,
            predictive_admission: predictive,
            admission_headroom: 1.2,
            ..ServeConfig::default()
        };
        Service::new(DeviceGroup::v100s(2), cfg)
    };
    let sharded = || OptimizeRequest::new("sharded", Arc::new(Sphere), cfg(128, 8, 40, 4200));
    let mut reference = serve(false);
    reference.submit(sharded()).unwrap();
    reference.run_until_idle();
    let wall_s = reference.now();
    let device_s = reference.records()[0].device_seconds;
    let deadline_s = 1.25 * wall_s;
    assert!(
        deadline_s < device_s,
        "the job must bill more device-seconds ({device_s:.3e}) than its deadline ({deadline_s:.3e})"
    );

    let mut svc = serve(true);
    let id = svc
        .submit(sharded().deadline_s(deadline_s))
        .expect("a sharded job whose wall time fits its deadline is admitted");
    assert_eq!(
        svc.admission_downgrades(),
        0,
        "admitted without a downgrade"
    );
    svc.run_until_idle();
    assert_eq!(svc.status(id).unwrap(), JobStatus::Completed);
    let rec = &svc.records()[0];
    assert!(
        rec.finished_s - rec.submitted_s <= deadline_s,
        "the job meets its deadline"
    );
    assert!(svc.goodput_s() > 0.0);
}

// ---- one dispatch ------------------------------------------------------------

/// The mixed serving trace: a service on `group` (four slots per device,
/// 4-iteration slices, sharding from 96 particles, batches of up to four
/// 256-element jobs) and its jobs, each with its dedicated reference run.
/// The jobs are a solo PSO job per update strategy, an island job, SSO,
/// GFWA, an island GFWA job, a job sharded over two devices, an
/// over-resident single-device job and a batched block of four.
fn mixed_trace(group: DeviceGroup) -> (Service, Vec<(OptimizeRequest, RunResult)>) {
    use fastpso::{Algorithm, GpuBackend, Migration, MigrationKind, PsoBackend, Topology};
    let svc = Service::new(
        group,
        ServeConfig {
            slots_per_device: 4,
            slice_iters: 4,
            shard_threshold_particles: 96,
            batching: Some(BatchPolicy {
                max_jobs: 4,
                max_elems: 256,
            }),
            ..ServeConfig::default()
        },
    );
    let mut jobs: Vec<(OptimizeRequest, RunResult)> = Vec::new();
    let solo = |i: u64| cfg(48, 8, 14, 8000 + i);
    for (i, strategy) in UpdateStrategy::ALL.into_iter().enumerate() {
        let c = solo(i as u64);
        let want = GpuBackend::new().strategy(strategy).run(&c, &Rastrigin);
        let req = OptimizeRequest::new("solo", Arc::new(Rastrigin), c).strategy(strategy);
        jobs.push((req, want.unwrap()));
    }
    let island = PsoConfig {
        topology: Topology::Islands {
            islands: 4,
            migration: Migration {
                kind: MigrationKind::Ring,
                every_k: 3,
                elites: 1,
            },
        },
        ..solo(10)
    };
    let want = GpuBackend::new().run(&island, &Sphere).unwrap();
    jobs.push((
        OptimizeRequest::new("islands", Arc::new(Sphere), island.clone()),
        want,
    ));
    for (i, algo) in [Algorithm::Sso, Algorithm::Gfwa].into_iter().enumerate() {
        let c = solo(20 + i as u64);
        let want = GpuBackend::new().algorithm(algo).run(&c, &Sphere).unwrap();
        let req = OptimizeRequest::new("algo", Arc::new(Sphere), c).algorithm(algo);
        jobs.push((req, want));
    }
    let island_gfwa = PsoConfig {
        n_particles: 40,
        ..island
    };
    let want = GpuBackend::new()
        .algorithm(Algorithm::Gfwa)
        .run(&island_gfwa, &Sphere)
        .unwrap();
    jobs.push((
        OptimizeRequest::new("islands-gfwa", Arc::new(Sphere), island_gfwa)
            .algorithm(Algorithm::Gfwa),
        want,
    ));
    let sharded = cfg(128, 8, 14, 8030);
    let want = GpuBackend::with_group(DeviceGroup::v100s(2))
        .sync_every(1)
        .run(&sharded, &Griewank)
        .unwrap();
    jobs.push((
        OptimizeRequest::new("sharded", Arc::new(Griewank), sharded),
        want,
    ));
    // Below the shard threshold, above the V100's 163 840 resident
    // threads: its device's regions run grid-stride.
    let wide = cfg(80, 2100, 14, 8035);
    let want = GpuBackend::new().run(&wide, &Sphere).unwrap();
    jobs.push((OptimizeRequest::new("wide", Arc::new(Sphere), wide), want));
    for i in 0..4u64 {
        let c = cfg(8, 6, 14, 8040 + i);
        let want = GpuBackend::new().run(&c, &Sphere).unwrap();
        jobs.push((OptimizeRequest::new("batched", Arc::new(Sphere), c), want));
    }
    (svc, jobs)
}

/// Every job the service runs steps resident, whatever its schedule: one
/// trace covers a solo PSO job per update strategy, an island job, SSO,
/// GFWA, an island GFWA job, a batched block, a job sharded over both
/// devices and an over-resident single-device job. Every launch is a
/// region open: each job's init runs inside its first region, and each
/// tick opens one region per device that every job leased there steps in,
/// the sharded job's best exchange included, each job on its own stream
/// lane. Every tick in which two or
/// more jobs stepped on a device hides time on it, and every other tick
/// hides none; every result is bit-identical to the job's dedicated run,
/// and the job records account for every device-second.
#[test]
fn every_served_job_runs_init_plus_one_region_per_leased_device_per_slice() {
    let (mut svc, jobs) = mixed_trace(DeviceGroup::v100s(2));
    let ids: Vec<JobId> = jobs
        .iter()
        .map(|(req, _)| svc.submit(req.clone()).unwrap())
        .collect();
    // Tick by tick: the lanes each device's passes ran on this tick (the
    // checkpoint pack runs after the lanes join), and the time it hid.
    let (mut ticks, mut shared_ticks) = (0, 0);
    let mut seen = [0usize; 2];
    let mut hidden = [0.0f64; 2];
    while svc.n_running() + svc.queue_depth() > 0 {
        assert!(svc.tick() > 0 && ticks < 1000, "the trace stalled");
        ticks += 1;
        for (d, dev) in svc.group().iter().enumerate() {
            let log = dev.profiler();
            let lanes: std::collections::BTreeSet<u32> = (log.kernels[seen[d]..].iter())
                .filter(|k| k.launches == 0 && k.name != "checkpoint_pack")
                .map(|k| k.stream)
                .collect();
            seen[d] = log.kernels.len();
            let credit = dev.timeline().overlapped_seconds() - hidden[d];
            hidden[d] += credit;
            if lanes.len() >= 2 {
                shared_ticks += 1;
                assert!(
                    credit > 0.0,
                    "tick {ticks}, device {d}: {lanes:?} hid nothing"
                );
            } else {
                assert_eq!(credit, 0.0, "tick {ticks}, device {d}: one lane hid time");
            }
        }
    }
    assert!(shared_ticks > 0, "no tick stepped two jobs on a device");

    for (id, (req, want)) in ids.iter().zip(&jobs) {
        let got = svc.result(*id).unwrap();
        assert_eq!(got.history, want.history, "{}", req.tenant);
        CounterAsserts::assert_bit_identical_gbest(got, want);
    }

    let log = svc.merged_profiler();
    assert!(log.is_complete(), "profiler evicted records");
    let weights =
        |name: &str| name.starts_with("gen_l_weights") || name.starts_with("gen_g_weights");
    let (mut in_region, mut regions, mut inits) = (0, 0, 0);
    for k in &log.kernels {
        if k.launches == 0 {
            in_region += usize::from(weights(k.name));
            inits += usize::from(k.name.starts_with("init_"));
        } else {
            assert_eq!(k.name, "batched_slice", "launched outside a region");
            regions += 1;
        }
    }
    // Two weight launches per iteration and shard, all in regions: the
    // five strategies' jobs, the island job, the batch's four members, the
    // sharded job's two shards and the over-resident job.
    assert_eq!(
        in_region,
        2 * 14 * (UpdateStrategy::ALL.len() + 1 + 4 + 2 + 1)
    );
    // One region per device and tick, shared by every job leased there.
    assert!(regions <= 2 * ticks, "{regions} regions in {ticks} ticks");
    assert_eq!(regions, 16);
    // One in-region `init_swarm` per shard (sixteen), plus the two GFWA
    // jobs' amplitudes.
    assert_eq!(inits, 16 + 2);

    let devices: Vec<_> = (0..2)
        .map(|d| svc.group().device(d).unwrap().timeline())
        .collect();
    let records: f64 = svc.records().iter().map(|r| r.device_seconds).sum();
    let total: f64 = devices.iter().map(|t| t.total_seconds()).sum();
    assert!(
        (records - total).abs() <= 1e-12 * total,
        "records sum to {records:e}s, devices to {total:e}s"
    );
}

/// Persistent regions and in-region passes each device has recorded.
fn regions_and_passes(svc: &Service) -> Vec<(usize, usize)> {
    let count = |dev: &gpu_sim::Device| {
        let log = dev.profiler();
        assert!(log.is_complete(), "profiler evicted records");
        let regions = (log.kernels.iter())
            .filter(|k| k.name == "batched_slice")
            .count();
        let passes = log.kernels.iter().filter(|k| k.launches == 0).count();
        (regions, passes)
    };
    svc.group().iter().map(count).collect()
}

/// Each tick opens one persistent region per live device, and every job
/// leased there builds its swarm and steps its slice inside it. The mixed
/// trace runs with device 1 lost mid-run, at the in-region init pass of a
/// job admitted to it right after another, so the device dies inside the
/// first tick's region with that other job's swarm already built on it.
/// Each tick opens at most one region on a device: exactly one on every
/// device where a job ran a pass, none on device 1 after the tick it was
/// lost in, and the other device steps as usual. Every job completes
/// bit-identical to its dedicated run, and the device-seconds billed on
/// each device sum to that device's timeline.
#[test]
fn one_region_per_live_device_per_tick_bills_each_device_exactly() {
    // A fault-free run of the trace gives the launch ordinal of the second
    // swarm init on device 1, a pass inside its first region.
    let (mut probe, jobs) = mixed_trace(DeviceGroup::v100s(2));
    for (req, _) in &jobs {
        probe.submit(req.clone()).unwrap();
    }
    probe.run_until_idle();
    let log = probe.group().device(1).unwrap().profiler();
    let kernels = log.kernels.iter();
    let later = kernels.skip_while(|k| k.name != "batched_slice");
    let mut inits = later.filter(|k| k.name == "init_swarm");
    let loss = inits.nth(1).unwrap().ordinal;
    let group = DeviceGroup::v100s(2);
    group.set_fault_plans(vec![
        FaultPlan::new(),
        FaultPlan::new().with_device_loss_at_launch(loss),
    ]);
    let (mut svc, jobs) = mixed_trace(group);
    let ids: Vec<JobId> = jobs
        .iter()
        .map(|(req, _)| svc.submit(req.clone()).unwrap())
        .collect();
    let (mut ticks, mut lost_in) = (0, None);
    while svc.queue_depth() + svc.n_running() > 0 {
        let before = regions_and_passes(&svc);
        let was_lost = svc.group().device(1).unwrap().is_lost();
        assert!(svc.tick() > 0, "tick {ticks} made no progress");
        if !was_lost && svc.group().device(1).unwrap().is_lost() {
            lost_in = Some(ticks);
        }
        let after = regions_and_passes(&svc);
        for (d, (after, before)) in after.iter().zip(&before).enumerate() {
            let opened = after.0 - before.0;
            let stepped = after.1 > before.1;
            assert!(opened <= 1, "tick {ticks}: {opened} regions on device {d}");
            assert_eq!(opened == 1, stepped, "tick {ticks}, device {d}");
            assert!(
                !(d == 1 && was_lost && stepped),
                "tick {ticks}: device 1 stepped after its loss"
            );
        }
        ticks += 1;
    }
    assert_eq!(
        lost_in,
        Some(0),
        "the loss fires in the first tick's region"
    );
    assert!(
        svc.records().iter().any(|r| r.rehomes > 0),
        "nothing re-homed"
    );
    for (id, (req, want)) in ids.iter().zip(&jobs) {
        let got = svc.result(*id).unwrap();
        assert_eq!(got.history, want.history, "{}", req.tenant);
        CounterAsserts::assert_bit_identical_gbest(got, want);
    }
    for (d, &billed) in svc.billed_seconds().iter().enumerate() {
        let device = svc.group().device(d).unwrap().timeline().total_seconds();
        assert!(
            (billed - device).abs() <= 1e-12 * device,
            "device {d}: billed {billed:e}s, timeline {device:e}s"
        );
    }
}

/// A job's error ends the tick's slice only on the devices it leases. Two
/// jobs on two V100s, a transient launch fault in the first job's first
/// region on device 0: that job fails, while the job on device 1 steps and
/// is checkpointed in the same tick and completes bit-identical to its
/// dedicated run.
#[test]
fn a_fault_on_one_device_neither_stops_nor_uncheckpoints_another() {
    use fastpso::{GpuBackend, PsoBackend};
    let group = DeviceGroup::v100s(2);
    // Ordinal 1 is the region open, 2 the job's init pass inside it and 3
    // its first iteration's first pass.
    group.set_fault_plans(vec![
        FaultPlan::new().with_transient_launch(3),
        FaultPlan::new(),
    ]);
    let mut svc = Service::new(
        group,
        ServeConfig {
            slice_iters: 4,
            ..ServeConfig::default()
        },
    );
    let ids: Vec<JobId> = (0..2)
        .map(|i| {
            svc.submit(OptimizeRequest::new("t", Arc::new(Sphere), small_cfg(i)))
                .unwrap()
        })
        .collect();
    let packs = |svc: &Service, d: usize| {
        let log = svc.group().device(d).unwrap().profiler();
        let packs = log.kernels.iter().filter(|k| k.name == "checkpoint_pack");
        packs.count()
    };
    let before = (regions_and_passes(&svc), packs(&svc, 1));
    svc.tick();
    assert_eq!(svc.status(ids[0]).unwrap(), JobStatus::Failed);
    assert_eq!(svc.status(ids[1]).unwrap(), JobStatus::Running);
    let after = regions_and_passes(&svc);
    assert!(
        after[1].1 > before.0[1].1,
        "the job on device 1 did not step"
    );
    assert_eq!(packs(&svc, 1), before.1 + 1, "device 1 took no checkpoint");
    svc.run_until_idle();
    let want = GpuBackend::new().run(&small_cfg(1), &Sphere).unwrap();
    CounterAsserts::assert_bit_identical_gbest(svc.result(ids[1]).unwrap(), &want);
}

/// With no observations, the predictor prices a job on the schedule the
/// service runs it on, and the cold price misses the served device-seconds
/// only by what the base leaves to calibration.
///
/// - **Resident** (64×8×40 on one V100, default slice and checkpoint
///   cadence): the batched region price plus the charges a solo region
///   exposes (init passes, allocations, grid barriers, the slice
///   checkpoints and the result download). Pinned per PSO strategy on
///   Sphere, for SSO on Sphere and for GFWA on Griewank, every row within
///   8%. Without those charges the same jobs missed by −0.37 to −0.40
///   (PSO), −0.39 (SSO), −0.27 (GFWA) and −0.04 (ForLoop).
/// - **Sharded** (a 128×8×40 Griewank job over two V100s, resident in one
///   region per device and slice): the same charges per shard, plus the
///   best exchange, one D2H of each shard's `(d+1)·4`-byte local best per
///   iteration. Its miss (−0.092) is pinned under the ratchet rule of the
///   tolerance goldens; once the adoption uploads the base leaves to
///   calibration are taken out of the observation, the rest is within 8%
///   (+0.015).
#[test]
fn cold_start_prediction_prices_streamed_jobs_within_eight_percent() {
    use fastpso::{Algorithm, CostPredictor, JobShape};
    use gpu_sim::Phase;
    const PINNED: [(Algorithm, UpdateStrategy, f64); 7] = [
        (Algorithm::Pso, UpdateStrategy::GlobalMem, 0.0042),
        (Algorithm::Pso, UpdateStrategy::SharedMem, 0.0049),
        (Algorithm::Pso, UpdateStrategy::TensorCore, 0.0055),
        (Algorithm::Pso, UpdateStrategy::ForLoop, 0.0005),
        (Algorithm::Pso, UpdateStrategy::LowComplexity, -0.0255),
        (Algorithm::Sso, UpdateStrategy::GlobalMem, 0.0352),
        (Algorithm::Gfwa, UpdateStrategy::GlobalMem, 0.0210),
    ];
    const SHARDED_PINNED: f64 = -0.0922;
    let defaults = ServeConfig::default();
    let resident = Schedule::Resident {
        slice: defaults.slice_iters as u64,
        checkpoint_slices: defaults.checkpoint_slices as u64,
        sharers: 1.0,
        pooled: 0.0,
        lane_share: 1.0,
        region_misses: 0,
    };
    for (i, (algo, strategy, pinned)) in PINNED.into_iter().enumerate() {
        let obj: Arc<dyn Objective> = match algo {
            Algorithm::Gfwa => Arc::new(Griewank),
            _ => Arc::new(Sphere),
        };
        let mut svc = Service::new(DeviceGroup::v100s(1), ServeConfig::default());
        let c = cfg(64, 8, 40, 9000 + i as u64);
        let req = OptimizeRequest::new("cold", obj.clone(), c)
            .strategy(strategy)
            .algorithm(algo);
        svc.submit(req).unwrap();
        svc.run_until_idle();
        let observed = svc.records()[0].device_seconds;
        let shape = JobShape::new(64, 8, 40, strategy)
            .algorithm(algo)
            .flops_per_dim(obj.flops_per_dim())
            .schedule(resident);
        let err = (CostPredictor::v100().predict_s(&shape) - observed) / observed;
        assert!(
            (err - pinned).abs() < 1e-4,
            "{algo}/{strategy}: resident cold-start error {err:.4}, pinned {pinned:.4}"
        );
        assert!(
            err.abs() <= 0.08,
            "{algo}/{strategy}: resident cold-start error {err:.4} exceeds 8%"
        );
    }

    let mut svc = Service::new(
        DeviceGroup::v100s(2),
        ServeConfig {
            shard_threshold_particles: 96,
            ..ServeConfig::default()
        },
    );
    let obj = Griewank;
    let req = OptimizeRequest::new("cold", Arc::new(obj), cfg(128, 8, 40, 9100));
    svc.submit(req).unwrap();
    svc.run_until_idle();
    let observed = svc.records()[0].device_seconds;
    // The exchange the price charges is the exchange that ran: one
    // 36-byte D2H per shard and iteration.
    let exchange: Vec<u64> = (svc.merged_profiler().transfers.iter())
        .filter(|t| t.phase == Phase::GBest && t.dir == gpu_sim::TransferDirection::D2H)
        .map(|t| t.bytes)
        .collect();
    assert_eq!(exchange, vec![(8 + 1) * 4; 2 * 40]);
    let shape = JobShape::new(128, 8, 40, UpdateStrategy::GlobalMem)
        .shards(2)
        .flops_per_dim(obj.flops_per_dim())
        .schedule(resident);
    let predicted = CostPredictor::v100().predict_s(&shape);
    let err = (predicted - observed) / observed;
    assert!(
        (err - SHARDED_PINNED).abs() < 1e-4,
        "sharded resident cold-start error {err:.4}, pinned {SHARDED_PINNED:.4}"
    );
    assert!(
        err.abs() <= pin_ceiling(SHARDED_PINNED.abs()),
        "sharded resident cold-start error {err:.4} is looser than its pin allows"
    );
    // The rest of the miss is the adoption uploads: a shard that did not
    // win an exchange uploads the winning row whenever the swarm best
    // improves, which depends on the data and is left to calibration.
    let adoptions: f64 = (svc.merged_profiler().transfers.iter())
        .filter(|t| t.phase == Phase::GBest && t.dir == gpu_sim::TransferDirection::H2D)
        .map(|t| t.duration_s)
        .sum();
    let priced = observed - adoptions;
    let err = (predicted - priced) / priced;
    assert!(
        adoptions > 0.0 && err.abs() <= 0.08,
        "sharded resident cold-start error {err:.4} without its adoption uploads exceeds 8%"
    );
}

// ---- cross-job micro-batching ---------------------------------------------

/// Small always-batchable job configs (at most 168 elements each) with
/// distinct particle counts, so every job's kernel records are
/// identifiable in a merged manifest by thread count.
fn small_cfg(i: u64) -> PsoConfig {
    cfg(
        8 + 4 * (i as usize % 6),
        6,
        20 + 5 * (i as usize % 3),
        6000 + i,
    )
}

/// Replay a 6-job batched trace on 2 devices, optionally losing device 0
/// (the device the first batch leases) at its `loss_ordinal`-th launch.
fn batched_chaos(loss_ordinal: Option<u64>) -> (Vec<RunResult>, bool, u64, HealthState) {
    let group = DeviceGroup::v100s(2);
    if let Some(ord) = loss_ordinal {
        group.set_fault_plans(vec![
            FaultPlan::new().with_device_loss_at_launch(ord),
            FaultPlan::new(),
        ]);
    }
    let mut svc = Service::new(
        group,
        ServeConfig {
            slots_per_device: 2,
            slice_iters: 4,
            checkpoint_slices: 1,
            batching: Some(BatchPolicy::default()),
            ..ServeConfig::default()
        },
    );
    let ids: Vec<JobId> = (0..6)
        .map(|i| {
            svc.submit(OptimizeRequest::new("t", Arc::new(Sphere), small_cfg(i)))
                .unwrap()
        })
        .collect();
    svc.run_until_idle();
    let results = ids
        .iter()
        .map(|&id| svc.result(id).unwrap().clone())
        .collect();
    (
        results,
        svc.group().device(0).unwrap().is_lost(),
        svc.records().iter().map(|r| r.rehomes).sum(),
        svc.health().state(0),
    )
}

/// Losing the device that hosts a whole micro-batch mid-run strands every
/// member at once; the re-homing sweep must requeue them, re-batch them on
/// the surviving device and finish each one bit-identical to a dedicated
/// solo run — at every loss ordinal swept.
#[test]
fn device_loss_mid_batch_rehomes_every_member_bit_identically() {
    use fastpso::{GpuBackend, PsoBackend};
    let solo: Vec<RunResult> = (0..6)
        .map(|i| GpuBackend::new().run(&small_cfg(i), &Sphere).unwrap())
        .collect();
    let (clean, lost, rehomes, _) = batched_chaos(None);
    assert!(!lost);
    assert_eq!(rehomes, 0, "fault-free batched run must not re-home");
    for (a, b) in clean.iter().zip(&solo) {
        CounterAsserts::assert_bit_identical_gbest(a, b);
    }
    let mut fired = 0;
    for ord in [1u64, 4, 9, 20, 45, 120] {
        let (results, lost, rehomes, health) = batched_chaos(Some(ord));
        for (i, (a, b)) in results.iter().zip(&solo).enumerate() {
            assert_eq!(
                a.best_value.to_bits(),
                b.best_value.to_bits(),
                "ordinal {ord}: batch member {i} drifted under device loss"
            );
            CounterAsserts::assert_bit_identical_gbest(a, b);
        }
        if lost {
            fired += 1;
            assert!(
                rehomes >= 1,
                "ordinal {ord}: the stranded batch never re-homed"
            );
            assert_eq!(
                health,
                HealthState::Quarantined,
                "ordinal {ord}: lost device must stay quarantined"
            );
        }
    }
    assert!(fired >= 2, "the sweep never exercised a mid-batch loss");
}

/// A micro-batch is bounded by its policy alone, not by its device's
/// residency. Six 64×500 Sphere jobs (192 000 elements together) fit the
/// policy's 400 000-element bound but not the V100's 163 840 co-resident
/// threads: they step as one batch in one grid-stride region that holds
/// the device's resident threads, and every job completes bit-identical
/// to its solo run.
#[test]
fn a_batch_above_the_devices_resident_threads_runs_grid_stride() {
    use fastpso::{GpuBackend, PsoBackend};
    let configs: Vec<PsoConfig> = (0..6).map(|i| cfg(64, 500, 6, 9_100 + i)).collect();
    let mut svc = Service::new(
        DeviceGroup::v100s(1),
        ServeConfig {
            batching: Some(BatchPolicy {
                max_jobs: 8,
                max_elems: 400_000,
            }),
            ..ServeConfig::default()
        },
    );
    let ids: Vec<JobId> = configs
        .iter()
        .map(|c| {
            svc.submit(OptimizeRequest::new("t", Arc::new(Sphere), c.clone()))
                .unwrap()
        })
        .collect();
    svc.run_until_idle();
    let statuses: Vec<JobStatus> = ids.iter().map(|&id| svc.status(id).unwrap()).collect();
    assert_eq!(statuses, vec![JobStatus::Completed; 6]);
    for (id, c) in ids.iter().zip(&configs) {
        let solo = GpuBackend::new().run(c, &Sphere).unwrap();
        CounterAsserts::assert_bit_identical_gbest(svc.result(*id).unwrap(), &solo);
    }
    let dev = svc.group().device(0).unwrap();
    let regions: Vec<u64> = (dev.profiler().kernels.iter())
        .filter(|k| k.name == "batched_slice")
        .map(|k| k.threads)
        .collect();
    assert_eq!(regions, vec![dev.profile().max_resident_threads()]);
}

/// No dispatcher leaves a device-resident region open when a slice inside
/// it fails. A persistent single-GPU run without resilience fails on a
/// transient launch fault inside its region, returns the error with the
/// region closed, and the next run on the same backend is bit-identical
/// to a fault-free one. A batched service tick whose member faults leaves
/// the device with no open region, and the next ticks finish every other
/// member bit-identical to its solo run.
#[test]
fn a_failed_resident_slice_leaves_no_region_open() {
    use fastpso::{GpuBackend, PsoBackend};
    let c = cfg(32, 6, 12, 77);
    let clean = GpuBackend::new().run(&c, &Sphere).unwrap();
    // Ordinal 1 is the init launch, which precedes the region.
    for ord in [2u64, 9, 40] {
        let b = GpuBackend::new().persistent(true);
        b.device()
            .set_fault_plan(FaultPlan::new().with_transient_launch(ord));
        let err = b.run(&c, &Sphere).unwrap_err();
        assert!(err.is_transient(), "ordinal {ord}: {err}");
        assert!(
            !b.device().in_persistent(),
            "ordinal {ord}: region left open"
        );
        let again = b.run(&c, &Sphere).unwrap();
        CounterAsserts::assert_bit_identical_gbest(&again, &clean);
    }

    let group = DeviceGroup::v100s(1);
    let dev = group.device(0).unwrap().clone();
    // The region open, the three members' init passes inside it, then the
    // first member's first slice.
    dev.set_fault_plan(FaultPlan::new().with_transient_launch(10));
    let mut svc = Service::new(
        group,
        ServeConfig {
            slice_iters: 4,
            batching: Some(BatchPolicy::default()),
            ..ServeConfig::default()
        },
    );
    let ids: Vec<JobId> = (0..3)
        .map(|i| {
            svc.submit(OptimizeRequest::new("t", Arc::new(Sphere), small_cfg(i)))
                .unwrap()
        })
        .collect();
    let mut ticks = 0;
    while svc.tick() > 0 {
        assert!(!dev.in_persistent(), "tick {ticks} left a region open");
        ticks += 1;
    }
    assert_eq!(svc.status(ids[0]).unwrap(), JobStatus::Failed);
    for (i, &id) in ids.iter().enumerate().skip(1) {
        let solo = GpuBackend::new()
            .run(&small_cfg(i as u64), &Sphere)
            .unwrap();
        CounterAsserts::assert_bit_identical_gbest(svc.result(id).unwrap(), &solo);
    }
}

/// A micro-batch whose member fails mid-slice checkpoints only the members
/// that stepped. Three batched jobs on one V100 with a transient launch
/// fault in the first member's first slice: the members after it never
/// step that tick, so the tick captures nothing — no `checkpoint_pack`
/// pass and no device→host copy of state that did not change — and the
/// survivors finish bit-identical to their solo runs.
#[test]
fn a_batch_checkpoints_only_the_members_it_stepped() {
    use fastpso::{GpuBackend, PsoBackend};
    use gpu_sim::TransferDirection;
    let group = DeviceGroup::v100s(1);
    let dev = group.device(0).unwrap().clone();
    // The region open, the three members' init passes inside it, then the
    // first member's first slice.
    dev.set_fault_plan(FaultPlan::new().with_transient_launch(10));
    let mut svc = Service::new(
        group,
        ServeConfig {
            slice_iters: 4,
            batching: Some(BatchPolicy::default()),
            ..ServeConfig::default()
        },
    );
    let ids: Vec<JobId> = (0..3)
        .map(|i| {
            svc.submit(OptimizeRequest::new("t", Arc::new(Sphere), small_cfg(i)))
                .unwrap()
        })
        .collect();
    let captures = || {
        let log = dev.profiler();
        let packs = (log.kernels.iter())
            .filter(|k| k.name == "checkpoint_pack")
            .count();
        let d2h = (log.transfers.iter())
            .filter(|t| t.dir == TransferDirection::D2H)
            .count();
        (packs, d2h)
    };
    let mut faulted_ticks = 0;
    loop {
        let before = captures();
        let failed = svc.status(ids[0]).unwrap() == JobStatus::Failed;
        if svc.tick() == 0 {
            break;
        }
        if !failed && svc.status(ids[0]).unwrap() == JobStatus::Failed {
            faulted_ticks += 1;
            assert_eq!(captures(), before, "the faulted tick captured state");
        }
    }
    assert_eq!(faulted_ticks, 1, "the first member never failed");
    for (i, &id) in ids.iter().enumerate().skip(1) {
        let solo = GpuBackend::new()
            .run(&small_cfg(i as u64), &Sphere)
            .unwrap();
        CounterAsserts::assert_bit_identical_gbest(svc.result(id).unwrap(), &solo);
    }
}

/// Every job runs resident, a micro-batch of one, on one region per leased
/// device per slice, per engine: a 64×8 job that fits its V100, a 128×8
/// job sharded over two V100s (its best exchange runs inside the regions)
/// and a 4096×64 job on one V100, above the 163 840 threads a V100 keeps
/// co-resident, whose region is grid-stride. Each device's launches are
/// one region per slice, its shards' inits run as passes inside the first,
/// its one lane per device hides nothing (only its checkpoint copies, on
/// the copy lane, are hidden), the result is bit-identical to the job's
/// dedicated run, and the record accounts for every device-second.
#[test]
fn solo_jobs_that_fit_their_device_run_one_region_per_slice() {
    use fastpso::{Algorithm, GpuBackend, PsoBackend};
    for (algo, init_passes) in [
        (Algorithm::Pso, 1),
        (Algorithm::Sso, 1),
        (Algorithm::Gfwa, 2),
    ] {
        for (n, d, iters, devices) in [(64, 8, 30, 1), (128, 8, 40, 2), (4096, 64, 6, 1)] {
            let label = format!("{algo} {n}x{d}x{iters} on {devices}");
            let serve = ServeConfig {
                slice_iters: 4,
                shard_threshold_particles: 96,
                ..ServeConfig::default()
            };
            let mut svc = Service::new(DeviceGroup::v100s(devices), serve);
            let c = cfg(n, d, iters, 9200);
            let req = OptimizeRequest::new("solo", Arc::new(Griewank), c.clone()).algorithm(algo);
            let id = svc.submit(req).unwrap();
            svc.run_until_idle();
            let want = GpuBackend::new()
                .algorithm(algo)
                .run(&c, &Griewank)
                .unwrap();
            let got = svc.result(id).unwrap();
            assert_eq!(got.history, want.history, "{label}");
            CounterAsserts::assert_bit_identical_gbest(got, &want);
            let slices = iters.div_ceil(4) as u64;
            let mut device_s = 0.0;
            for dev in svc.group().iter() {
                let regions = (dev.profiler().kernels.iter())
                    .filter(|k| k.name == "batched_slice")
                    .count() as u64;
                assert_eq!(regions, slices, "{label}: one region per slice");
                assert_eq!(
                    dev.counters().kernel_launches,
                    slices,
                    "{label}: one launch per slice, the region"
                );
                let inits = (dev.profiler().kernels.iter())
                    .filter(|k| k.name.starts_with("init_"))
                    .map(|k| k.launches)
                    .collect::<Vec<_>>();
                assert_eq!(inits, vec![0; init_passes], "{label}: inits are passes");
                // A lone job's one lane hides nothing: the only hidden
                // seconds are its checkpoints' copies, on the copy lane.
                let tl = dev.timeline();
                let copies = (dev.profiler().transfers.iter())
                    .filter(|t| t.stream == gpu_sim::COPY_LANE)
                    .fold(0.0, |acc, t| acc + t.duration_s);
                assert_eq!(
                    tl.overlapped_seconds(),
                    copies,
                    "{label}: a lone job's one lane hides nothing"
                );
                device_s += tl.total_seconds();
            }
            let record = svc.records()[0].device_seconds;
            assert!(
                (record - device_s).abs() <= 1e-12 * record,
                "{label}: record {record:e}s, devices {device_s:e}s"
            );
        }
    }
}

/// A served job's init and result download ride its own stream lane:
/// four jobs (PSO twice, GFWA and SSO, each with its own dimension) share
/// one V100, each on the lane its position among them gives it. Every
/// `init_*` record is a pass inside the first region (no launch of its
/// own), on its job's lane, in job order; every result download is on its
/// job's lane too; the device's only launches are its region opens; and
/// every result is bit-identical to the job's dedicated run.
#[test]
fn a_served_jobs_init_and_result_download_ride_its_lane() {
    use fastpso::{Algorithm, GpuBackend, PsoBackend};
    use gpu_sim::{Phase, TransferDirection};
    let jobs = [
        (Algorithm::Pso, 4),
        (Algorithm::Pso, 6),
        (Algorithm::Gfwa, 8),
        (Algorithm::Sso, 10),
    ];
    let mut svc = Service::new(DeviceGroup::v100s(1), ServeConfig::default());
    let ids: Vec<JobId> = (jobs.iter().enumerate())
        .map(|(i, &(algo, d))| {
            let c = cfg(16, d, 24, 9300 + i as u64);
            let req = OptimizeRequest::new("lanes", Arc::new(Sphere), c).algorithm(algo);
            svc.submit(req).unwrap()
        })
        .collect();
    svc.run_until_idle();
    let dev = svc.group().device(0).unwrap();
    let log = dev.profiler();
    assert!(log.is_complete(), "profiler evicted records");
    let inits: Vec<(&str, u32, u64)> = (log.kernels.iter())
        .filter(|k| k.name.starts_with("init_"))
        .map(|k| (k.name, k.stream, k.launches))
        .collect();
    let mut want = Vec::new();
    for (lane, &(algo, _)) in jobs.iter().enumerate() {
        want.push(("init_swarm", lane as u32, 0));
        if algo == Algorithm::Gfwa {
            want.push(("init_gfwa_amplitudes", lane as u32, 0));
        }
    }
    assert_eq!(inits, want, "inits are in-region passes on their lanes");
    let results: Vec<(u64, u32)> = (log.transfers.iter())
        .filter(|t| t.phase == Phase::Other && t.dir == TransferDirection::D2H)
        .map(|t| (t.bytes, t.stream))
        .collect();
    for (lane, &(_, d)) in jobs.iter().enumerate() {
        let bytes = 4 * d as u64;
        assert_eq!(
            (results.iter())
                .filter(|&&r| r == (bytes, lane as u32))
                .count(),
            1,
            "job {lane}'s result download is on its lane: {results:?}"
        );
    }
    assert_eq!(results.len(), jobs.len());
    let regions = (log.kernels.iter())
        .filter(|k| k.name == "batched_slice")
        .count() as u64;
    assert_eq!(dev.counters().kernel_launches, regions);
    for (i, (&id, &(algo, d))) in ids.iter().zip(&jobs).enumerate() {
        let want = GpuBackend::new()
            .algorithm(algo)
            .run(&cfg(16, d, 24, 9300 + i as u64), &Sphere)
            .unwrap();
        CounterAsserts::assert_bit_identical_gbest(svc.result(id).unwrap(), &want);
    }
}

/// A job preempted before its first region goes back to the queue with
/// the work it was admitted with and no device time. On one V100 of one
/// slot, a High job leases it and gathers a small Low job into its batch;
/// the next High job is too big to batch, finds no lease and preempts the
/// Low member, which has not built its swarm yet. It is queued (fresh, not
/// suspended), and cancelling it records zero device-seconds and zero
/// iterations.
#[test]
fn a_job_preempted_before_its_first_region_is_requeued_unbilled() {
    let mut svc = Service::new(
        DeviceGroup::v100s(1),
        ServeConfig {
            slots_per_device: 1,
            batching: Some(BatchPolicy::default()),
            ..ServeConfig::default()
        },
    );
    let submit = |svc: &mut Service, n: usize, d: usize, p: Priority| {
        let req = OptimizeRequest::new("t", Arc::new(Sphere), cfg(n, d, 40, 9400)).priority(p);
        svc.submit(req).unwrap()
    };
    let low = submit(&mut svc, 16, 4, Priority::Low);
    let head = submit(&mut svc, 16, 4, Priority::High);
    // 32 768 elements: above the batch bound, so it needs its own lease.
    let big = submit(&mut svc, 512, 64, Priority::High);
    svc.tick();
    assert_eq!(svc.status(head).unwrap(), JobStatus::Running);
    assert_eq!(svc.status(big).unwrap(), JobStatus::Queued);
    assert_eq!(
        svc.status(low).unwrap(),
        JobStatus::Queued,
        "preempted before its first region, the job holds no snapshot"
    );
    svc.cancel(low).unwrap();
    let rec = (svc.records().iter())
        .find(|r| r.job == low.0)
        .expect("the cancelled job has a record");
    assert_eq!((rec.device_seconds, rec.iterations), (0.0, 0));
    svc.run_until_idle();
    assert_eq!(svc.status(big).unwrap(), JobStatus::Completed);
}

/// A preempted job resumes on its own lane: on one V100 of two slots, a
/// long job and a Low job run side by side until a High job preempts the
/// Low one; once the High job completes, the Low job is readmitted beside
/// the long job, on lane 1, and its checkpoint uploads (the only restore
/// uploads of the trace) queue there, inside the region. It completes
/// bit-identical to its dedicated run.
#[test]
fn a_resumed_job_restores_on_its_lane_and_stays_bit_identical() {
    use fastpso::{GpuBackend, PsoBackend};
    use gpu_sim::{Phase, TransferDirection};
    let mut svc = Service::new(
        DeviceGroup::v100s(1),
        ServeConfig {
            slots_per_device: 2,
            ..ServeConfig::default()
        },
    );
    let submit = |svc: &mut Service, iters: usize, seed: u64, p: Priority| {
        let req =
            OptimizeRequest::new("t", Arc::new(Rastrigin), cfg(32, 6, iters, seed)).priority(p);
        svc.submit(req).unwrap()
    };
    submit(&mut svc, 200, 9500, Priority::Normal);
    let low = submit(&mut svc, 40, 9501, Priority::Low);
    svc.tick();
    let high = submit(&mut svc, 16, 9502, Priority::High);
    svc.tick();
    assert_eq!(svc.status(low).unwrap(), JobStatus::Suspended);
    while svc.status(high).unwrap() != JobStatus::Completed {
        svc.tick();
    }
    svc.tick();
    assert_eq!(svc.status(low).unwrap(), JobStatus::Running);
    let log = svc.group().device(0).unwrap().profiler();
    let restores: Vec<u32> = (log.transfers.iter())
        .filter(|t| t.phase == Phase::Recovery && t.dir == TransferDirection::H2D)
        .map(|t| t.stream)
        .collect();
    assert!(!restores.is_empty(), "the job restored nothing");
    assert!(
        restores.iter().all(|&lane| lane == 1),
        "restores off the job's lane: {restores:?}"
    );
    svc.run_until_idle();
    let want = GpuBackend::new()
        .run(&cfg(32, 6, 40, 9501), &Rastrigin)
        .unwrap();
    let got = svc.result(low).unwrap();
    assert_eq!(got.history, want.history);
    CounterAsserts::assert_bit_identical_gbest(got, &want);
}

/// A resident job whose device dies during its admission returns its lease:
/// the loss at launch 1 hits device 0's first region open (the gate of its
/// first pass, the job's in-region init, stands in for the region's
/// launch), the job re-homes to device 1 and completes bit-identical to its
/// dedicated run, and the pool ends with every slot free.
#[test]
fn a_resident_job_that_loses_its_device_at_admission_returns_its_lease() {
    use fastpso::{GpuBackend, PsoBackend};
    let group = DeviceGroup::v100s(2);
    group.set_fault_plans(vec![
        FaultPlan::new().with_device_loss_at_launch(1),
        FaultPlan::new(),
    ]);
    let mut svc = Service::new(group, ServeConfig::default());
    let c = small_cfg(0);
    let id = svc
        .submit(OptimizeRequest::new("t", Arc::new(Sphere), c.clone()))
        .unwrap();
    svc.run_until_idle();
    assert!(svc.group().device(0).unwrap().is_lost());
    assert_eq!(svc.records()[0].rehomes, 1);
    let want = GpuBackend::new().run(&c, &Sphere).unwrap();
    CounterAsserts::assert_bit_identical_gbest(svc.result(id).unwrap(), &want);
    assert_eq!(svc.occupancy().0, 0, "a lease leaked");
}

/// A slice-boundary checkpoint's copy rides the device's copy lane, so a
/// device lost at the region open right after a checkpoint, while that
/// copy is still in flight, loses the copy too: the job re-homes from the
/// checkpoint before it, re-running the slice between them, completes
/// bit-identical to its dedicated fault-free run, and returns its lease.
#[test]
fn a_device_lost_while_its_checkpoint_copy_is_in_flight_rehomes_from_the_one_before() {
    use fastpso::{GpuBackend, PsoBackend};
    use gpu_sim::{Phase, COPY_LANE};
    // 512×64: a 0.4 MB checkpoint whose copy outlasts the region open that
    // starts the next tick.
    let c = cfg(512, 64, 20, 9901);
    let config = ServeConfig {
        slice_iters: 4,
        checkpoint_slices: 1,
        ..ServeConfig::default()
    };
    let req = || OptimizeRequest::new("t", Arc::new(Sphere), c.clone());
    // Eval passes over the group: one per iteration a device ran.
    let evals = |svc: &Service| {
        let count = |dev: &gpu_sim::Device| {
            let log = dev.profiler();
            assert!(log.is_complete(), "profiler evicted records");
            (log.kernels.iter())
                .filter(|k| k.phase == Phase::Eval)
                .count()
        };
        svc.group().iter().map(count).sum::<usize>()
    };
    // Fault-free: the launches device 0 gates in two ticks (two slices,
    // two checkpoints), and the eval passes of the whole run.
    let mut free = Service::new(DeviceGroup::v100s(2), config.clone());
    free.submit(req()).unwrap();
    free.tick();
    free.tick();
    let launches = free.group().device(0).unwrap().fault_stats().launches;
    free.run_until_idle();
    let per_iter = evals(&free) / 20;
    assert!(per_iter > 0);

    let group = DeviceGroup::v100s(2);
    group.set_fault_plans(vec![
        FaultPlan::new().with_device_loss_at_launch(launches + 1),
        FaultPlan::new(),
    ]);
    let mut svc = Service::new(group, config);
    let id = svc.submit(req()).unwrap();
    svc.tick();
    svc.tick();
    let dev0 = svc.group().device(0).unwrap().clone();
    let copies: Vec<(f64, f64)> = (dev0.profiler().transfers.iter())
        .filter(|t| t.stream == COPY_LANE)
        .map(|t| (t.start_s, t.start_s + t.duration_s))
        .collect();
    assert_eq!(copies.len(), 2, "one checkpoint copy per tick");
    let next_open = dev0.timeline().total_seconds() + dev0.profile().kernel_launch_overhead_s;
    assert!(copies[0].1 < next_open, "the first checkpoint has landed");
    assert!(
        copies[1].1 > next_open,
        "the second checkpoint's copy is still in flight when the next tick opens"
    );
    svc.tick();
    assert!(dev0.is_lost(), "the loss fired at the next tick's region");
    svc.run_until_idle();
    assert_eq!(svc.records().len(), 1);
    assert_eq!(svc.records()[0].rehomes, 1);
    // Two slices ran on device 0; the re-homed job resumed from the first
    // checkpoint (iteration 4), not the lost second one (iteration 8).
    assert_eq!(
        evals(&svc),
        evals(&free) + 4 * per_iter,
        "the job re-ran exactly the slice after its first checkpoint"
    );
    let want = GpuBackend::new().run(&c, &Sphere).unwrap();
    CounterAsserts::assert_bit_identical_gbest(svc.result(id).unwrap(), &want);
    assert_eq!(svc.occupancy().0, 0, "a lease leaked");
}

/// Every modeled device-second lands on exactly one job: the jobs' records
/// sum to the devices' timelines, the completed job's result download
/// included, batched or not. Two inputs: a fault-free trace, where every
/// slice checkpoint is also one packed copy (one `checkpoint_pack` pass
/// per recovery download on each device), and a whole-lifecycle trace
/// (preemption, sharding, cancellation, shedding, device loss and
/// re-homing), where the records' recovery seconds also sum to the
/// devices' `Phase::Recovery` time.
#[test]
fn job_records_account_for_every_device_second_with_packed_checkpoints() {
    use gpu_sim::{Phase, TransferDirection};
    for batching in [None, Some(BatchPolicy::default())] {
        let mut svc = Service::new(
            DeviceGroup::v100s(2),
            ServeConfig {
                slots_per_device: 3,
                slice_iters: 4,
                checkpoint_slices: 1,
                batching,
                ..ServeConfig::default()
            },
        );
        for i in 0..24 {
            svc.submit(OptimizeRequest::new("t", Arc::new(Sphere), small_cfg(i)))
                .unwrap();
        }
        svc.run_until_idle();
        assert_eq!(svc.records().len(), 24);
        let records: f64 = svc.records().iter().map(|r| r.device_seconds).sum();
        let devices: f64 = (0..2)
            .map(|d| svc.group().device(d).unwrap().timeline().total_seconds())
            .sum();
        assert!(
            (records - devices).abs() <= 1e-12 * devices,
            "batching {}: records sum to {records:e}s, devices to {devices:e}s",
            batching.is_some()
        );
        for d in 0..2 {
            let log = svc.group().device(d).unwrap().profiler();
            assert!(log.is_complete(), "profiler evicted records");
            let packs = log
                .kernels
                .iter()
                .filter(|k| k.name == "checkpoint_pack")
                .count();
            let downloads = log
                .transfers
                .iter()
                .filter(|t| t.phase == Phase::Recovery && t.dir == TransferDirection::D2H)
                .count();
            assert!(packs > 0, "device {d} took no checkpoints");
            assert_eq!(
                packs,
                downloads,
                "batching {}, device {d}: one pack pass per checkpoint download",
                batching.is_some()
            );
        }
    }
    // Low jobs too big to pair and High arrivals that pair.
    let pairs = BatchPolicy {
        max_jobs: 8,
        max_elems: 300,
    };
    for batching in [None, Some(pairs)] {
        for loss in [1, 40, 400] {
            lifecycle_accounting(batching, loss);
        }
    }
}

/// The second input of the accounting test: a lifecycle trace on 3
/// devices that hits every path a job's device time is metered on —
/// Low-priority jobs preempted by High-priority arrivals, one sharded job,
/// a cancelled running job, a cancelled queued job, a shed 1e-4 s
/// deadline, and device 1 lost at its `loss`-th launch.
fn lifecycle_accounting(batching: Option<BatchPolicy>, loss: u64) {
    use gpu_sim::Phase;
    use perf_model::JobOutcome;
    let group = DeviceGroup::v100s(3);
    group.set_fault_plans(vec![
        FaultPlan::new(),
        FaultPlan::new().with_device_loss_at_launch(loss),
        FaultPlan::new(),
    ]);
    let mut svc = Service::new(
        group,
        ServeConfig {
            slots_per_device: 2,
            slice_iters: 4,
            checkpoint_slices: 1,
            shard_threshold_particles: 96,
            batching,
            ..ServeConfig::default()
        },
    );
    let submit = |svc: &mut Service, i: u64, n: usize, d: usize, p: Priority| {
        let req =
            OptimizeRequest::new("t", Arc::new(Rastrigin), cfg(n, d, 40, 7000 + i)).priority(p);
        svc.submit(req).unwrap()
    };
    // Low jobs of 256 elements and more, so under a 300-element batch
    // bound they never pair: they take all six slots and the later
    // arrivals must preempt.
    for i in 0..6 {
        submit(
            &mut svc,
            i,
            16 + 4 * (i as usize % 3),
            16 << i,
            Priority::Low,
        );
    }
    svc.tick();
    svc.tick();
    let running = svc.running_ids()[0];
    svc.cancel(running).unwrap();
    submit(&mut svc, 6, 128, 6, Priority::Normal);
    for i in 7..10 {
        submit(&mut svc, i, 24, 6, Priority::High);
    }
    let queued = submit(&mut svc, 10, 16, 6, Priority::Low);
    assert_eq!(svc.status(queued).unwrap(), JobStatus::Queued);
    svc.cancel(queued).unwrap();
    let late = OptimizeRequest::new("t", Arc::new(Sphere), cfg(32, 6, 40, 7011)).deadline_s(1e-4);
    svc.submit(late).unwrap();
    svc.run_until_idle();

    let label = format!("batching {}, loss at launch {loss}", batching.is_some());
    let records = svc.records();
    assert_eq!(records.len(), 12, "{label}");
    let group = svc.group();
    let close = |jobs: f64, devices: f64, what: &str| {
        assert!(
            (jobs - devices).abs() <= 1e-12 * devices,
            "{label}: records' {what} sum to {jobs:e}s, devices' to {devices:e}s"
        );
    };
    close(
        records.iter().map(|r| r.device_seconds).sum(),
        (0..3)
            .map(|d| group.device(d).unwrap().timeline().total_seconds())
            .sum(),
        "device seconds",
    );
    close(
        records.iter().map(|r| r.recovery_secs).sum(),
        (0..3)
            .map(|d| group.device(d).unwrap().timeline().seconds(Phase::Recovery))
            .sum(),
        "recovery seconds",
    );
    let preempts = svc
        .journal()
        .events()
        .iter()
        .filter(|e| matches!(e, ServeEvent::Preempt { .. }))
        .count();
    let count = |o: JobOutcome| records.iter().filter(|r| r.outcome == o).count();
    assert!(preempts >= 1, "{label}: nothing was preempted");
    assert!(
        records.iter().map(|r| r.rehomes).sum::<u64>() >= 1,
        "{label}: nothing was re-homed"
    );
    assert!(count(JobOutcome::Shed) >= 1, "{label}: nothing was shed");
    assert_eq!(count(JobOutcome::Cancelled), 2, "{label}");
}

/// Path of the pinned micro-batch calibration tolerance table.
const BATCHED_TOLERANCE_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/results/predictor_tolerance_batched.golden.txt"
);

/// With batching on, batch members predict and observe under the
/// `<strategy>+resident` calibration rung, like every other job on their
/// device. After replaying a per-strategy block trace of small batched
/// jobs, the calibrated predictor agrees with every job's
/// observed device-seconds to within the tolerances pinned in
/// `results/predictor_tolerance_batched.golden.txt`, checked and
/// regenerated like the unbatched table ([`check_tolerance_golden`]).
#[test]
fn batched_calibration_matches_observed_costs_within_pinned_tolerances() {
    let mut svc = Service::new(
        DeviceGroup::v100s(2),
        ServeConfig {
            slots_per_device: 2,
            slice_iters: 10,
            batching: Some(BatchPolicy::default()),
            ..ServeConfig::default()
        },
    );
    let mut jobs = Vec::new();
    // One homogeneous block per strategy so every job actually batches —
    // blocks are separated by run_until_idle to keep composition pinned.
    for (b, &strategy) in UpdateStrategy::ALL.iter().enumerate() {
        for i in 0..6u64 {
            let cfg = cfg(
                16 + 8 * (i as usize % 3),
                5 + (i as usize % 3),
                40 + 10 * (i as usize % 3),
                5000 + 100 * b as u64 + i,
            );
            let id = svc
                .submit(
                    OptimizeRequest::new("calib", Arc::new(Sphere), cfg.clone()).strategy(strategy),
                )
                .unwrap();
            jobs.push((id, cfg, strategy));
        }
        svc.run_until_idle();
    }

    let mut max_err: std::collections::BTreeMap<String, f64> = Default::default();
    for (id, cfg, strategy) in &jobs {
        let rec = svc
            .records()
            .iter()
            .find(|r| r.job == id.0)
            .expect("every job has a record");
        assert_eq!(rec.outcome, perf_model::JobOutcome::Completed);
        let shape = fastpso::JobShape::new(
            cfg.n_particles as u64,
            cfg.dim as u64,
            rec.iterations as u64,
            *strategy,
        )
        .flops_per_dim(Sphere.flops_per_dim())
        .schedule(Schedule::Resident {
            slice: 10,
            checkpoint_slices: 1,
            sharers: rec.sharers,
            pooled: rec.pooled,
            lane_share: rec.lane_share,
            region_misses: rec.region_misses,
        });
        let err = svc.predictor().relative_error(&shape, rec.device_seconds);
        let slot = max_err.entry(shape.calibration_key()).or_insert(0.0);
        *slot = slot.max(err);
    }
    for strategy in UpdateStrategy::ALL {
        assert!(
            svc.predictor()
                .observations(&format!("{strategy}+resident"))
                > 0,
            "{strategy} never calibrated on its resident rung"
        );
    }

    check_tolerance_golden(BATCHED_TOLERANCE_GOLDEN, &max_err);
}

/// A batch-eligible job that gets its lease alone and a block that
/// batches calibrate on one rung: every job runs resident, priced with the
/// charges its regions expose, so all five observe under `+resident` and
/// its coefficient stays near 1.
#[test]
fn a_lone_batchable_job_calibrates_the_schedule_it_ran() {
    let mut svc = Service::new(
        DeviceGroup::v100s(1),
        ServeConfig {
            batching: Some(BatchPolicy::default()),
            ..ServeConfig::default()
        },
    );
    let job = |seed| OptimizeRequest::new("calib", Arc::new(Sphere), cfg(32, 6, 40, seed));
    svc.submit(job(7100)).unwrap();
    svc.run_until_idle();
    for seed in 7101..7105 {
        svc.submit(job(seed)).unwrap();
    }
    svc.run_until_idle();
    let p = svc.predictor();
    assert_eq!(p.observations("global"), 0, "every job ran resident");
    assert_eq!(p.observations("global+resident"), 5);
    let coefficient = p.coefficient("global+resident");
    assert!(
        coefficient > 0.95 && coefficient < 1.05,
        "jobs priced off their schedule: {coefficient}"
    );
}

/// Calibration observes each job on the sharing it was billed, the share
/// of its lane seconds it was billed and the pool hits its init drew, not
/// on admission's guesses. Four identical jobs submitted into an idle
/// single-V100 service are guessed to share their regions with one to
/// four jobs, yet all four step together, side by side on four lanes; a
/// fifth, run alone afterwards, finds every buffer it allocates parked in
/// the pool and hides nothing on its one lane. Each record reports the
/// sharing, lane share and pool share it was billed, and the calibrated
/// predictor prices every job on them within 3% of what it was billed,
/// but misses the four by far more when it ignores their lane share.
#[test]
fn a_job_calibrates_on_the_sharing_and_pool_it_was_billed() {
    let mut svc = Service::new(
        DeviceGroup::v100s(1),
        ServeConfig {
            slots_per_device: 4,
            ..ServeConfig::default()
        },
    );
    let job = |seed| OptimizeRequest::new("calib", Arc::new(Sphere), cfg(64, 8, 40, seed));
    for seed in 7200..7204 {
        svc.submit(job(seed)).unwrap();
    }
    svc.run_until_idle();
    svc.submit(job(7204)).unwrap();
    svc.run_until_idle();
    let billed: Vec<(f64, f64)> = svc
        .records()
        .iter()
        .map(|r| (r.sharers, r.pooled))
        .collect();
    assert_eq!(
        billed,
        [(4.0, 0.0), (4.0, 0.0), (4.0, 0.0), (4.0, 0.0), (1.0, 1.0)],
        "(sharers, pooled) per job"
    );
    // Four equal lanes hide about three quarters of each job's lane time;
    // the device waits for the longest, so each is billed a bit more than
    // a quarter. The lone job is billed its whole lane.
    let shares: Vec<f64> = svc.records().iter().map(|r| r.lane_share).collect();
    assert!(
        shares[..4].iter().all(|&s| s > 0.25 && s < 0.3),
        "lane shares {shares:?}"
    );
    assert_eq!(shares[4], 1.0, "a lone lane hides nothing");
    let defaults = ServeConfig::default();
    assert_eq!(svc.predictor().observations("global+resident"), 5);
    let shape = |r: &perf_model::JobRecord, lane_share| {
        fastpso::JobShape::new(64, 8, r.iterations as u64, UpdateStrategy::GlobalMem).schedule(
            Schedule::Resident {
                slice: defaults.slice_iters as u64,
                checkpoint_slices: defaults.checkpoint_slices as u64,
                sharers: r.sharers,
                pooled: r.pooled,
                lane_share,
                region_misses: r.region_misses,
            },
        )
    };
    for r in svc.records() {
        let err = (svc.predictor()).relative_error(&shape(r, r.lane_share), r.device_seconds);
        assert!(
            err < 0.03,
            "job {} priced off its schedule: {err:.4}",
            r.job
        );
    }
    for r in &svc.records()[..4] {
        let err = (svc.predictor()).relative_error(&shape(r, 1.0), r.device_seconds);
        assert!(
            err > 0.5,
            "job {} priced without its lane share: {err:.4}",
            r.job
        );
    }
}

/// A region that fails to open fails the jobs that would have stepped in
/// it rather than idling them: with a region already open on the only
/// device, the tick's region open errors, every running job fails, and
/// the service drains instead of stalling with jobs still running.
#[test]
fn a_region_that_fails_to_open_fails_the_jobs_it_would_have_stepped() {
    let group = DeviceGroup::v100s(1);
    let dev = group.device(0).unwrap().clone();
    let mut svc = Service::new(group, ServeConfig::default());
    let ids: Vec<JobId> = (0..2)
        .map(|i| {
            let req = OptimizeRequest::new("t", Arc::new(Sphere), cfg(32, 4, 20, 7300 + i));
            svc.submit(req).unwrap()
        })
        .collect();
    dev.begin_persistent("foreign", gpu_sim::Phase::SwarmUpdate, 1)
        .unwrap();
    svc.run_until_idle();
    dev.end_persistent();
    assert_eq!(svc.n_running(), 0, "jobs left running");
    for id in ids {
        assert_eq!(svc.status(id).unwrap(), JobStatus::Failed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random batch compositions: each member draws its own algorithm,
    /// update strategy, dimension and topology, and one lease still holds
    /// the whole mix. Every member finishes with gbest bytes identical to
    /// its dedicated solo run, and the batched launch manifest carries
    /// exactly the same per-job kernel work (names × thread counts) as the
    /// solo runs, minus only the `batched_slice` region records and the
    /// `checkpoint_pack` passes of the slice checkpoints (solo runs take
    /// none) — batching changes *where* jobs run, never *what* they
    /// compute.
    #[test]
    fn batched_jobs_match_solo_bitwise_for_random_compositions(
        // Each member's draw packs algorithm (3) × strategy (5) ×
        // dimension 5..9 (4) × topology (3).
        members in prop::collection::vec(0usize..180, 2..7),
        iters_base in 3usize..8,
        seed in 0u64..1_000,
    ) {
        use fastpso::{Algorithm, GpuBackend, PsoBackend, Topology};
        let n_jobs = members.len();
        // Distinct particle counts per job keep per-job kernel records
        // identifiable by thread count in the merged manifest.
        let jobs: Vec<(PsoConfig, Algorithm, UpdateStrategy)> = members
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let d = 5 + m / 15 % 4;
                let mut c =
                    cfg(8 + 4 * i, d, 5 * (iters_base + i % 3), 8_000 + seed * 10 + i as u64);
                c.topology = ["global", "ring_lbest:1", "islands:2:ring:3:1"][m / 60]
                    .parse::<Topology>()
                    .unwrap();
                (c, Algorithm::ALL[m % 3], UpdateStrategy::ALL[m / 3 % 5])
            })
            .collect();
        let mut expected = Vec::new();
        let mut solo_work: Vec<(String, u64)> = Vec::new();
        for (c, algo, strategy) in &jobs {
            let b = GpuBackend::new().algorithm(*algo).strategy(*strategy);
            expected.push(b.run(c, &Sphere).unwrap());
            solo_work.extend(b.profile().kernels.iter().map(|k| (k.name.to_string(), k.threads)));
        }
        let mut svc = Service::new(
            DeviceGroup::v100s(1),
            ServeConfig {
                slots_per_device: n_jobs,
                slice_iters: 6,
                checkpoint_slices: 1,
                batching: Some(BatchPolicy::default()),
                ..ServeConfig::default()
            },
        );
        let ids: Vec<JobId> = jobs
            .iter()
            .map(|(c, algo, strategy)| {
                let req = OptimizeRequest::new("t", Arc::new(Sphere), c.clone())
                    .algorithm(*algo)
                    .strategy(*strategy);
                svc.submit(req).unwrap()
            })
            .collect();
        svc.tick();
        prop_assert_eq!(
            (svc.n_running(), svc.occupancy().0),
            (n_jobs, 1),
            "one lease holds the whole mix"
        );
        svc.run_until_idle();
        for (id, want) in ids.iter().zip(&expected) {
            let got = svc.result(*id).unwrap();
            prop_assert_eq!(got.best_value.to_bits(), want.best_value.to_bits());
            let gb: Vec<u32> = got.best_position.iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u32> = want.best_position.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(gb, wb, "batched member position drifted from solo");
        }
        let mut batched_work: Vec<(String, u64)> = svc
            .merged_profiler()
            .kernels
            .iter()
            .filter(|k| k.name != "batched_slice" && k.name != "checkpoint_pack")
            .map(|k| (k.name.to_string(), k.threads))
            .collect();
        solo_work.sort();
        batched_work.sort();
        prop_assert_eq!(batched_work, solo_work, "per-job kernel work drifted under batching");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random submit/cancel/tick interleavings never violate the admission
    /// invariants: a job accepted under predictive admission was feasible
    /// at admit time (`admission_plan` agrees with `submit`), infeasible
    /// rejections are loud (an error, never a silent drop or a journal
    /// entry), and after draining, queue occupancy, leases and device
    /// bytes all return to zero with exactly one record per accepted job.
    #[test]
    fn admission_invariants_hold_under_random_interleavings(
        ops in prop::collection::vec(0u8..8, 1..28),
        args in prop::collection::vec(0u8..255, 28..29),
        predictive in any::<bool>(),
    ) {
        let mut svc = Service::new(
            DeviceGroup::v100s(2),
            ServeConfig {
                slots_per_device: 2,
                slice_iters: 5,
                queue_capacity: 8,
                predictive_admission: predictive,
                admission_headroom: 1.1,
                ..ServeConfig::default()
            },
        );
        let mut submitted: Vec<JobId> = Vec::new();
        for (step, &op) in ops.iter().enumerate() {
            let arg = args[step % args.len()];
            match op {
                0..=3 => {
                    let mut req = OptimizeRequest::new(
                        "t",
                        Arc::new(Sphere),
                        cfg(
                            16 + 8 * (arg as usize % 3),
                            4,
                            10 + 10 * (arg as usize % 3),
                            7000 + arg as u64,
                        ),
                    )
                    .strategy(UpdateStrategy::ALL[arg as usize % UpdateStrategy::ALL.len()]);
                    req = match arg % 4 {
                        0 => req,                     // no deadline
                        1 => req.deadline_s(1e3),     // generous
                        2 => req.deadline_s(1e-9),    // impossible
                        _ => req.deadline_s(0.02),    // tight
                    };
                    let plan = svc.admission_plan(&req);
                    let journal_before = svc.journal().events().len();
                    match svc.submit(req) {
                        Ok(id) => {
                            prop_assert!(
                                plan.is_ok(),
                                "accepted job was predicted infeasible at admit"
                            );
                            submitted.push(id);
                        }
                        Err(ServeError::Infeasible { predicted_s, budget_s }) => {
                            prop_assert!(predictive, "blind admission never rejects Infeasible");
                            prop_assert!(plan.is_err(), "dry-run disagrees with submit");
                            prop_assert!(predicted_s > budget_s);
                            prop_assert_eq!(
                                svc.journal().events().len(),
                                journal_before,
                                "rejected submissions must never be journaled"
                            );
                        }
                        Err(ServeError::QueueFull { .. }) => {
                            prop_assert_eq!(svc.journal().events().len(), journal_before);
                        }
                        Err(e) => prop_assert!(false, "unexpected submit error: {e}"),
                    }
                }
                4 | 5 => {
                    svc.tick();
                }
                _ => {
                    if !submitted.is_empty() {
                        // Cancelling any known id is always legal (a no-op
                        // once the job is terminal).
                        let id = submitted[arg as usize % submitted.len()];
                        svc.cancel(id).unwrap();
                    }
                }
            }
        }
        svc.run_until_idle();
        prop_assert_eq!(svc.queue_depth(), 0, "queue drained");
        prop_assert_eq!(svc.occupancy().0, 0, "all leases returned");
        for d in 0..2 {
            prop_assert_eq!(
                svc.group().device(d).unwrap().bytes_in_use(),
                0,
                "device buffers freed"
            );
        }
        for &id in &submitted {
            prop_assert!(svc.status(id).unwrap().is_terminal());
        }
        prop_assert_eq!(
            svc.records().len(),
            submitted.len(),
            "exactly one record per accepted job — rejects never reach the records"
        );
    }
}
