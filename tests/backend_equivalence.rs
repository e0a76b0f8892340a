//! Cross-backend equivalence: the workspace's strongest correctness
//! property. All deterministic backends draw randomness from the same
//! counter-addressed Philox streams and evaluate the same element-wise
//! formula in the same operation order, so their trajectories must be
//! **bit-identical** — sequential, OpenMP-priced, GPU global-memory, GPU
//! shared-memory and multi-GPU tile-matrix, the last for every algorithm,
//! launch by launch or persistent, fused or not. The tensor-core strategy
//! is the one documented exception (f16 operand rounding).

use fastpso_suite::fastpso::{
    Algorithm, GpuBackend, ParBackend, PsoBackend, PsoConfig, SeqBackend, UpdateStrategy,
};
use fastpso_suite::functions::builtins::{Ackley, Griewank, Rastrigin, Sphere};
use fastpso_suite::functions::Objective;
use fastpso_suite::gpu_sim::{DeviceGroup, Phase};

fn cfg(n: usize, d: usize, iters: usize, seed: u64) -> PsoConfig {
    PsoConfig::builder(n, d)
        .max_iter(iters)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn all_deterministic_backends_agree_bitwise() {
    let objectives: Vec<&dyn Objective> = vec![&Sphere, &Griewank, &Rastrigin, &Ackley];
    for (i, obj) in objectives.into_iter().enumerate() {
        let c = cfg(48, 10, 40, 100 + i as u64);
        let reference = SeqBackend.run(&c, obj).unwrap();

        let backends: Vec<(&str, Box<dyn PsoBackend>)> = vec![
            ("par", Box::new(ParBackend)),
            ("gpu-global", Box::new(GpuBackend::new())),
            (
                "gpu-smem",
                Box::new(GpuBackend::new().strategy(UpdateStrategy::SharedMem)),
            ),
            (
                "multi-tile-3",
                Box::new(GpuBackend::with_group(DeviceGroup::v100s(3))),
            ),
        ];
        for (name, b) in backends {
            let r = b.run(&c, obj).unwrap();
            assert_eq!(
                r.best_value,
                reference.best_value,
                "{name} diverged from seq on {}",
                obj.name()
            );
            assert_eq!(
                r.best_position,
                reference.best_position,
                "{name} position diverged on {}",
                obj.name()
            );
        }
    }
}

#[test]
fn histories_are_identical_not_just_endpoints() {
    let c = PsoConfig::builder(32, 6)
        .max_iter(60)
        .seed(7)
        .record_history(true)
        .build()
        .unwrap();
    let a = SeqBackend.run(&c, &Sphere).unwrap().history.unwrap();
    let b = GpuBackend::new().run(&c, &Sphere).unwrap().history.unwrap();
    assert_eq!(
        a, b,
        "whole gbest trajectory must match iteration by iteration"
    );
}

#[test]
fn tensor_core_strategy_differs_only_within_f16_tolerance() {
    let c = cfg(64, 8, 80, 3);
    let exact = GpuBackend::new().run(&c, &Sphere).unwrap();
    let tensor = GpuBackend::new()
        .strategy(UpdateStrategy::TensorCore)
        .run(&c, &Sphere)
        .unwrap();
    assert_ne!(
        exact.best_value, tensor.best_value,
        "f16 rounding must be observable"
    );
    // Both converge to the same basin: small absolute errors on Sphere.
    assert!(exact.best_value < 5.0);
    assert!(tensor.best_value < 10.0);
}

#[test]
fn seed_controls_the_whole_trajectory() {
    let a = SeqBackend.run(&cfg(32, 6, 30, 1), &Sphere).unwrap();
    let b = SeqBackend.run(&cfg(32, 6, 30, 1), &Sphere).unwrap();
    let c = SeqBackend.run(&cfg(32, 6, 30, 2), &Sphere).unwrap();
    assert_eq!(a.best_position, b.best_position);
    assert_ne!(a.best_position, c.best_position);
}

#[test]
fn particle_split_multi_gpu_converges_but_may_diverge_from_single() {
    let c = cfg(96, 8, 120, 5);
    let split = GpuBackend::with_group(DeviceGroup::v100s(4))
        .sync_every(10)
        .run(&c, &Sphere)
        .unwrap();
    assert!(split.best_value < 5.0, "split best = {}", split.best_value);
}

/// A device group takes every option a single device does: each algorithm
/// on 2 and 3 devices, launch by launch or inside one persistent region per
/// device, unfused or fused, lands bit-for-bit where the one-device run
/// does (the exchange runs every iteration, so sharding is invisible to
/// the trajectory).
#[test]
fn every_algorithm_shards_bit_identically_in_every_dispatch() {
    let c = cfg(96, 8, 20, 11);
    for algo in Algorithm::ALL {
        let single = GpuBackend::new()
            .algorithm(algo)
            .run(&c, &Griewank)
            .unwrap();
        for devices in [2usize, 3] {
            for persistent in [false, true] {
                for fused in [false, true] {
                    let cell = format!(
                        "{algo} on {devices} devices, persistent={persistent}, fused={fused}"
                    );
                    let b = GpuBackend::with_group(DeviceGroup::v100s(devices))
                        .algorithm(algo)
                        .persistent(persistent)
                        .fused(fused);
                    let r = b.run(&c, &Griewank).unwrap();
                    assert_eq!(r.best_value, single.best_value, "{cell}");
                    assert_eq!(r.best_position, single.best_position, "{cell}");
                    if persistent {
                        let log = b.profile();
                        let init = log.phase_counters(Phase::Init).kernel_launches;
                        assert!(init > 0, "{cell}");
                        assert_eq!(
                            log.total_counters().kernel_launches,
                            init + devices as u64,
                            "{cell}: init plus one region per device"
                        );
                    }
                }
            }
        }
    }
}
