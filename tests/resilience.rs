//! Integration tests of the fault-injection harness (`gpu_sim::fault`) and
//! the engine's resilient execution layer (`fastpso::resilience`).
//!
//! The headline invariant, stated in DESIGN.md: a run with injected
//! transient faults — recovered by retry, checkpoint restore, or device-loss
//! rebalancing — produces a **bit-identical** `gbest` trajectory to the
//! fault-free run under the same seed. Recovery costs modeled time only,
//! charged to the dedicated `Phase::Recovery` breakdown category.

use fastpso_suite::fastpso::resilience::{ResilienceConfig, RetryPolicy, ShardCheckpoint};
use fastpso_suite::fastpso::{
    Algorithm, CounterAsserts, GpuBackend, Migration, MigrationKind, PsoBackend, PsoConfig,
    Topology, UpdateStrategy,
};
use fastpso_suite::functions::builtins::{Rastrigin, Sphere};
use fastpso_suite::functions::schema::CustomObjective;
use fastpso_suite::gpu_sim::{Device, DeviceGroup, FaultPlan, KernelDesc, Phase};
use fastpso_suite::perf_model::{GpuProfile, LinkProfile};
use proptest::prelude::*;

fn cfg(n: usize, d: usize, iters: usize) -> PsoConfig {
    PsoConfig::builder(n, d)
        .max_iter(iters)
        .seed(4242)
        .record_history(true)
        .build()
        .unwrap()
}

/// Transient launch faults scattered through a run are absorbed by in-place
/// retry; the trajectory is bit-identical to the fault-free run, and the
/// recovery overhead shows up as its own phase in the breakdown.
#[test]
fn transient_faults_recover_bit_identically() {
    let c = cfg(32, 6, 30);
    let clean = GpuBackend::new().run(&c, &Rastrigin).unwrap();

    let backend = GpuBackend::new().resilient(ResilienceConfig::default());
    backend
        .device()
        .set_fault_plan(FaultPlan::new().with_transient_launches([5, 17, 43, 88]));
    let faulted = backend.run(&c, &Rastrigin).unwrap();

    assert_eq!(
        faulted.history, clean.history,
        "gbest trajectory must not change"
    );
    assert_eq!(faulted.best_value, clean.best_value);
    assert_eq!(faulted.best_position, clean.best_position);

    let stats = backend.device().fault_stats();
    assert_eq!(stats.injected, 4, "all four planned faults fired");
    assert!(
        faulted.phase_seconds(Phase::Recovery) > 0.0,
        "retry backoff must be charged to the recovery category"
    );
    assert_eq!(clean.phase_seconds(Phase::Recovery), 0.0);
}

/// A fault-free resilient run (checkpoints on, nothing injected) matches
/// the plain run bit-for-bit: checkpointing costs time, never numerics.
#[test]
fn resilience_layer_is_numerically_transparent() {
    let c = cfg(24, 4, 25);
    let plain = GpuBackend::new().run(&c, &Sphere).unwrap();
    let resilient = GpuBackend::new()
        .resilient(ResilienceConfig::default())
        .run(&c, &Sphere)
        .unwrap();
    assert_eq!(plain.history, resilient.history);
    assert_eq!(plain.best_position, resilient.best_position);
    assert!(
        resilient.phase_seconds(Phase::Recovery) > plain.phase_seconds(Phase::Recovery),
        "periodic checkpoints are visible on the recovery ledger"
    );
}

/// Consecutive faults exhaust the in-place retry budget, forcing a restore
/// from the last checkpoint and a deterministic replay — still bit-identical.
#[test]
fn retry_exhaustion_restores_from_checkpoint() {
    let c = cfg(32, 6, 30);
    let clean = GpuBackend::new().run(&c, &Rastrigin).unwrap();

    let res = ResilienceConfig {
        retry: RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        },
        checkpoint_every: 4,
        ..ResilienceConfig::default()
    };
    let backend = GpuBackend::new().resilient(res);
    backend
        .device()
        .set_fault_plan(FaultPlan::new().with_transient_launches([50, 51, 52, 53, 54]));
    let faulted = backend.run(&c, &Rastrigin).unwrap();

    assert_eq!(
        faulted.history, clean.history,
        "replay must recompute bit-for-bit"
    );
    assert_eq!(faulted.best_value, clean.best_value);
    assert_eq!(faulted.best_position, clean.best_position);
    assert_eq!(backend.device().fault_stats().injected, 5);
}

/// The acceptance scenario: a 2-device particle-split group with three
/// transient kernel failures on one device and a permanent loss of the
/// other completes via retry + restore + rebalancing onto the survivor,
/// with a bit-identical gbest trajectory.
#[test]
fn device_loss_rebalances_onto_survivor_bit_identically() {
    let c = cfg(32, 6, 24);
    let split = || GpuBackend::with_group(DeviceGroup::v100s(2)).sync_every(2);
    let clean = split().run(&c, &Rastrigin).unwrap();

    let backend = split().resilient(ResilienceConfig {
        checkpoint_every: 4,
        ..ResilienceConfig::default()
    });
    backend.group().set_fault_plans(vec![
        FaultPlan::new().with_transient_launches([5, 12, 19]),
        FaultPlan::new().with_device_loss_at_launch(40),
    ]);
    let faulted = backend.run(&c, &Rastrigin).unwrap();

    assert_eq!(
        faulted.history, clean.history,
        "rebalanced trajectory must not change"
    );
    assert_eq!(faulted.best_value, clean.best_value);
    assert_eq!(faulted.best_position, clean.best_position);
    assert_eq!(backend.group().lost_devices(), vec![1]);
    assert_eq!(backend.group().survivors(), vec![0]);
    assert!(
        faulted.phase_seconds(Phase::Recovery) > 0.0,
        "restore and rebalancing traffic must be charged to recovery"
    );
}

/// Losing every device is not recoverable — the error surfaces instead of
/// hanging or silently degrading.
#[test]
fn losing_all_devices_is_fatal() {
    let c = cfg(16, 4, 20);
    let backend =
        GpuBackend::with_group(DeviceGroup::v100s(2)).resilient(ResilienceConfig::default());
    backend.group().set_fault_plans(vec![
        FaultPlan::new().with_device_loss_at_launch(10),
        FaultPlan::new().with_device_loss_at_launch(12),
    ]);
    let err = backend.run(&c, &Sphere).unwrap_err();
    assert!(
        err.lost_device().is_some(),
        "expected a device-loss error, got {err}"
    );
}

/// A shared-memory tile that exceeds the device's shared memory is a
/// permanent launch failure: the resilient backend walks the degradation
/// chain down to the global-memory kernels and completes with the same
/// numbers.
#[test]
fn strategy_degrades_on_permanent_launch_failure() {
    let c = cfg(32, 6, 20);
    let mut profile = GpuProfile::tesla_v100();
    profile.shared_mem_per_sm = 64; // far below one 16x16 tile

    let tiny = Device::with_index(profile.clone(), LinkProfile::pcie3_x16(), 0);
    let plain = GpuBackend::with_device(tiny)
        .strategy(UpdateStrategy::SharedMem)
        .run(&c, &Sphere);
    assert!(
        plain.is_err(),
        "without resilience the tiled launch must fail"
    );

    let tiny = Device::with_index(profile, LinkProfile::pcie3_x16(), 0);
    let degraded = GpuBackend::with_device(tiny)
        .strategy(UpdateStrategy::SharedMem)
        .resilient(ResilienceConfig::default())
        .run(&c, &Sphere)
        .unwrap();
    let reference = GpuBackend::new().run(&c, &Sphere).unwrap();
    assert_eq!(
        degraded.history, reference.history,
        "degraded rung is bit-identical"
    );
    assert_eq!(degraded.best_position, reference.best_position);
    assert!(degraded.phase_seconds(Phase::Recovery) > 0.0);
}

/// A NaN-producing objective cannot poison the swarm: quarantine re-checks
/// and pins, and the result matches the plain GPU run (NaN never wins a
/// pbest comparison either way).
#[test]
fn nan_quarantine_keeps_best_finite() {
    let obj = CustomObjective::new("nan-pocket", (-5.0, 5.0), 2, |x: &[f32]| {
        if x[0] > 2.0 {
            f32::NAN
        } else {
            x.iter().map(|v| v * v).sum()
        }
    });
    let c = cfg(32, 4, 40);
    let plain = GpuBackend::new().run(&c, &obj).unwrap();
    let resilient = GpuBackend::new()
        .resilient(ResilienceConfig::default())
        .run(&c, &obj)
        .unwrap();
    assert!(resilient.best_value.is_finite());
    assert_eq!(resilient.best_value, plain.best_value);
    assert_eq!(resilient.best_position, plain.best_position);
}

/// A 2-device group with injected faults still reports the modeled
/// concurrent-elapsed semantics (recovery appears in the scaled breakdown).
#[test]
fn recovery_appears_in_multi_gpu_breakdown() {
    let c = cfg(32, 6, 16);
    let backend =
        GpuBackend::with_group(DeviceGroup::v100s(2)).resilient(ResilienceConfig::default());
    backend.group().set_fault_plans(vec![
        FaultPlan::new().with_transient_launch(7),
        FaultPlan::new(),
    ]);
    let r = backend.run(&c, &Sphere).unwrap();
    let recovery = r.phase_seconds(Phase::Recovery);
    assert!(recovery > 0.0, "breakdown must carry a recovery category");
    assert!(
        recovery < r.elapsed_seconds(),
        "recovery is a slice, not the whole run"
    );
}

/// Exhaustive transparency sweep: a single transient fault at *every*
/// launch ordinal — whatever kernel it lands on — must leave the trajectory
/// bit-identical. This is what caught the swarm-update retry hazard (the
/// velocity half mutates in place, so the update must be retried
/// half-by-half, never as one op).
#[test]
fn every_fault_ordinal_is_bit_transparent() {
    let c = cfg(32, 6, 12);
    // Every engine under every topology, each through the plan rewrites
    // that change which ops run: fusion, persistent lowering and the tiled
    // strategies (identity rewrites for the engines they do not apply to).
    let islands = Topology::Islands {
        islands: 4,
        migration: Migration {
            kind: MigrationKind::Ring,
            every_k: 3,
            elites: 2,
        },
    };
    let rewrites = [
        ("unfused", false, false, UpdateStrategy::GlobalMem),
        ("fused", true, false, UpdateStrategy::GlobalMem),
        ("persistent", false, true, UpdateStrategy::GlobalMem),
        ("tensor", false, false, UpdateStrategy::TensorCore),
        ("smem", false, false, UpdateStrategy::SharedMem),
    ];
    for algo in Algorithm::ALL {
        for topology in [Topology::Global, Topology::Ring { k: 2 }, islands] {
            let c = PsoConfig {
                topology,
                ..c.clone()
            };
            for (name, fused, persistent, strategy) in rewrites {
                let backend = || {
                    GpuBackend::new()
                        .algorithm(algo)
                        .strategy(strategy)
                        .fused(fused)
                        .persistent(persistent)
                };
                let clean = backend().run(&c, &Rastrigin).unwrap();
                for ord in 1..=80u64 {
                    let b = backend().resilient(ResilienceConfig::default());
                    b.device()
                        .set_fault_plan(FaultPlan::new().with_transient_launch(ord));
                    let r = b.run(&c, &Rastrigin).unwrap();
                    let case = format!("{algo}/{topology:?}/{name} at launch ordinal {ord}");
                    assert_eq!(r.history, clean.history, "single-GPU {case}");
                    assert_eq!(
                        bits(&r.best_position),
                        bits(&clean.best_position),
                        "single-GPU {case}"
                    );
                }
            }
        }
    }

    let split = || GpuBackend::with_group(DeviceGroup::v100s(2)).sync_every(2);
    let clean = split().run(&c, &Rastrigin).unwrap();
    for dev in 0..2usize {
        for ord in 1..=40u64 {
            let b = split().resilient(ResilienceConfig::default());
            let mut plans = vec![FaultPlan::new(), FaultPlan::new()];
            plans[dev] = FaultPlan::new().with_transient_launch(ord);
            b.group().set_fault_plans(plans);
            let r = b.run(&c, &Rastrigin).unwrap();
            assert_eq!(
                r.history, clean.history,
                "multi-GPU diverged at device {dev}, launch ordinal {ord}"
            );
        }
    }
}

/// Without a `ResilienceConfig` nothing recovers: one transient launch
/// fault fails the run with the transient error itself, and no recovery
/// time is charged — for every engine.
#[test]
fn plain_runs_never_retry() {
    let c = cfg(32, 6, 12);
    for algo in Algorithm::ALL {
        for ord in [1u64, 5, 17, 40] {
            let b = GpuBackend::new().algorithm(algo);
            b.device()
                .set_fault_plan(FaultPlan::new().with_transient_launch(ord));
            let err = b.run(&c, &Rastrigin).unwrap_err();
            assert!(err.is_transient(), "{algo} at ordinal {ord}: {err}");
            assert_eq!(b.device().timeline().seconds(Phase::Recovery), 0.0);
            assert_eq!(b.device().fault_stats().injected, 1, "{algo} at {ord}");
        }
    }
}

/// An iteration that fails leaves nothing queued behind it. A transient
/// fault at any launch of iteration 0 of a PSO run fails a plain run, and
/// the next kernel charged on the device starts at the timeline front. A
/// resilient run retries the same faults in place: the trajectory is
/// bit-identical to the fault-free run and the profiler still reconstructs
/// the timeline's totals.
#[test]
fn a_faulted_streamed_iteration_closes_its_stream_window() {
    faulted_iteration_sweep(
        Algorithm::Pso,
        "init_swarm",
        &[
            "gen_l_weights",
            "gen_g_weights",
            "velocity_update",
            "position_update",
        ],
    );
}

/// The same sweep over one GFWA iteration: a fault at any launch of its
/// spark chain or selection leaves nothing queued behind it, and a
/// resilient run replays bit-identically.
#[test]
fn a_faulted_streamed_gfwa_iteration_closes_its_stream_window() {
    faulted_iteration_sweep(
        Algorithm::Gfwa,
        "init_gfwa_amplitudes",
        &[
            "gfwa_sparks",
            "gfwa_spark_eval",
            "gfwa_guiding",
            "gfwa_guide_eval",
            "gfwa_selection",
        ],
    );
}

/// Inject one transient launch fault at every launch ordinal of iteration
/// 0 of an `algo` run — from the launch after the run's last init
/// kernel `last_init` up to the next launch of iteration 0's first kernel,
/// which must include every kernel in `names` — and check the plain and
/// resilient outcomes described above.
fn faulted_iteration_sweep(algo: Algorithm, last_init: &str, names: &[&str]) {
    let c = cfg(64, 8, 6);
    let backend = || GpuBackend::new().algorithm(algo);
    let probe_backend = backend();
    let clean = probe_backend.run(&c, &Rastrigin).unwrap();
    let kernels = probe_backend.profile().kernels;
    let first = 1 + kernels
        .iter()
        .position(|k| k.name == last_init)
        .expect("the init kernel launches once per run");
    let len = 1 + kernels[first + 1..]
        .iter()
        .position(|k| k.name == kernels[first].name)
        .expect("more than one iteration");
    let iteration0 = &kernels[first..first + len];
    for name in names {
        assert!(
            iteration0.iter().any(|k| k.name == *name),
            "{algo}: {name} runs in iteration 0"
        );
    }
    let mut ordinals: Vec<u64> = iteration0.iter().map(|k| k.ordinal).collect();
    ordinals.dedup();

    for ord in ordinals {
        let plain = backend();
        let dev = plain.device();
        dev.set_fault_plan(FaultPlan::new().with_transient_launch(ord));
        let err = plain.run(&c, &Rastrigin).unwrap_err();
        assert!(err.is_transient(), "{algo} launch ordinal {ord}: {err}");
        let front = dev.timeline().total_seconds();
        dev.charge_kernel(&KernelDesc::simple("probe", Phase::Other, 1, 4, 4, 1024));
        let log = dev.profiler();
        let probe = log.kernels.last().expect("probe recorded");
        assert_eq!(
            probe.start_s, front,
            "{algo} launch ordinal {ord}: probe start"
        );

        let resilient = backend().resilient(ResilienceConfig::default());
        resilient
            .device()
            .set_fault_plan(FaultPlan::new().with_transient_launch(ord));
        let r = resilient.run(&c, &Rastrigin).unwrap();
        assert_eq!(resilient.device().fault_stats().injected, 1);
        assert_eq!(r.history, clean.history, "{algo} launch ordinal {ord}");
        assert_eq!(
            bits(&r.best_position),
            bits(&clean.best_position),
            "{algo} launch ordinal {ord}"
        );
        CounterAsserts::capture(resilient.device()).assert_profiler_matches_timeline();
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Checkpoint capture → restore round-trips arbitrary swarm states
    /// exactly, bit-for-bit — including NaN and infinity payloads.
    #[test]
    fn checkpoint_roundtrips_arbitrary_states(
        pos in proptest::collection::vec(any::<f32>(), 8..9),
        vel in proptest::collection::vec(any::<f32>(), 8..9),
        errors in proptest::collection::vec(any::<f32>(), 4..5),
        pbest_err in proptest::collection::vec(any::<f32>(), 4..5),
        pbest_pos in proptest::collection::vec(any::<f32>(), 8..9),
        gbest_pos in proptest::collection::vec(any::<f32>(), 2..3),
        gbest_err in any::<f32>(),
    ) {
        use fastpso_suite::fastpso::gpu::kernels::Shard;
        let dev = Device::v100();
        let mut shard = Shard::alloc(&dev, 0, 4, 2).unwrap();
        shard.pos.as_mut_slice().copy_from_slice(&pos);
        shard.vel.as_mut_slice().copy_from_slice(&vel);
        shard.errors.as_mut_slice().copy_from_slice(&errors);
        shard.pbest_err.as_mut_slice().copy_from_slice(&pbest_err);
        shard.pbest_pos.as_mut_slice().copy_from_slice(&pbest_pos);
        shard.gbest_pos.as_mut_slice().copy_from_slice(&gbest_pos);
        shard.gbest_err = gbest_err;

        let cp = ShardCheckpoint::capture(&shard);

        // Trash every buffer, then restore.
        shard.pos.as_mut_slice().fill(0.5);
        shard.vel.as_mut_slice().fill(0.5);
        shard.errors.as_mut_slice().fill(0.5);
        shard.pbest_err.as_mut_slice().fill(0.5);
        shard.pbest_pos.as_mut_slice().fill(0.5);
        shard.gbest_pos.as_mut_slice().fill(0.5);
        shard.gbest_err = 0.5;
        cp.restore_into(&dev, &mut shard, &RetryPolicy::default()).unwrap();

        prop_assert_eq!(bits(shard.pos.as_slice()), bits(&pos));
        prop_assert_eq!(bits(shard.vel.as_slice()), bits(&vel));
        prop_assert_eq!(bits(shard.errors.as_slice()), bits(&errors));
        prop_assert_eq!(bits(shard.pbest_err.as_slice()), bits(&pbest_err));
        prop_assert_eq!(bits(shard.pbest_pos.as_slice()), bits(&pbest_pos));
        prop_assert_eq!(bits(shard.gbest_pos.as_slice()), bits(&gbest_pos));
        prop_assert_eq!(shard.gbest_err.to_bits(), gbest_err.to_bits());
    }
}
