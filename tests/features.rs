//! Integration tests for the library extensions beyond the paper's core:
//! ring topology, early termination, and their interaction with the
//! backend-equivalence guarantee.

use fastpso_suite::fastpso::{
    GpuBackend, Migration, MigrationKind, ParBackend, PsoBackend, PsoConfig, PsoError, SeqBackend,
    Topology, UpdateStrategy,
};
use fastpso_suite::functions::builtins::{Rastrigin, Sphere};
use fastpso_suite::gpu_sim::DeviceGroup;

fn islands(islands: usize, kind: MigrationKind, every_k: usize, elites: usize) -> Topology {
    Topology::Islands {
        islands,
        migration: Migration {
            kind,
            every_k,
            elites,
        },
    }
}

#[test]
fn ring_topology_is_bit_identical_across_backends() {
    let cfg = PsoConfig::builder(48, 8)
        .max_iter(60)
        .seed(17)
        .topology(Topology::Ring { k: 2 })
        .build()
        .unwrap();
    let seq = SeqBackend.run(&cfg, &Rastrigin).unwrap();
    let par = ParBackend.run(&cfg, &Rastrigin).unwrap();
    let gpu = GpuBackend::new().run(&cfg, &Rastrigin).unwrap();
    let smem = GpuBackend::new()
        .strategy(UpdateStrategy::SharedMem)
        .run(&cfg, &Rastrigin)
        .unwrap();
    assert_eq!(seq.best_value, par.best_value);
    assert_eq!(seq.best_value, gpu.best_value);
    assert_eq!(seq.best_value, smem.best_value);
    assert_eq!(seq.best_position, gpu.best_position);
}

#[test]
fn ring_topology_changes_the_trajectory_and_still_converges() {
    let star = PsoConfig::builder(96, 8)
        .max_iter(250)
        .seed(3)
        .build()
        .unwrap();
    let ring = PsoConfig::builder(96, 8)
        .max_iter(250)
        .seed(3)
        .topology(Topology::Ring { k: 1 })
        .build()
        .unwrap();
    let a = SeqBackend.run(&star, &Rastrigin).unwrap();
    let b = SeqBackend.run(&ring, &Rastrigin).unwrap();
    assert_ne!(a.best_position, b.best_position, "topology must matter");
    assert!(b.best_value < 40.0, "ring run diverged: {}", b.best_value);
}

#[test]
fn full_ring_window_equals_global_topology() {
    // k >= n/2 makes every neighborhood the whole swarm: identical to star.
    let n = 24;
    let star = PsoConfig::builder(n, 6)
        .max_iter(40)
        .seed(9)
        .build()
        .unwrap();
    let ring = PsoConfig::builder(n, 6)
        .max_iter(40)
        .seed(9)
        .topology(Topology::Ring { k: n / 2 })
        .build()
        .unwrap();
    let a = SeqBackend.run(&star, &Sphere).unwrap();
    let b = SeqBackend.run(&ring, &Sphere).unwrap();
    assert_eq!(a.best_value, b.best_value);
    assert_eq!(a.best_position, b.best_position);
}

#[test]
fn island_topology_is_bit_identical_across_backends() {
    let cfg = PsoConfig::builder(48, 8)
        .max_iter(60)
        .seed(17)
        .topology(islands(4, MigrationKind::Ring, 5, 2))
        .build()
        .unwrap();
    let seq = SeqBackend.run(&cfg, &Rastrigin).unwrap();
    let par = ParBackend.run(&cfg, &Rastrigin).unwrap();
    let gpu = GpuBackend::new().run(&cfg, &Rastrigin).unwrap();
    let smem = GpuBackend::new()
        .strategy(UpdateStrategy::SharedMem)
        .run(&cfg, &Rastrigin)
        .unwrap();
    assert_eq!(seq.best_value, par.best_value);
    assert_eq!(seq.best_value, gpu.best_value);
    assert_eq!(seq.best_value, smem.best_value);
    assert_eq!(seq.best_position, gpu.best_position);
    // Ring migration over 4 islands moves 4 edges × 2 elites = 8 rows per
    // event; 60 iterations at every_k = 5 fire 12 events. The rollup is
    // part of the determinism contract, so every backend reports it.
    assert_eq!(seq.migrations, 96);
    assert_eq!(par.migrations, 96);
    assert_eq!(gpu.migrations, 96);
}

#[test]
fn every_migration_kind_changes_the_trajectory_and_still_converges() {
    let base = PsoConfig::builder(96, 8).max_iter(250).seed(3);
    let single = base.clone().build().unwrap();
    let a = SeqBackend.run(&single, &Rastrigin).unwrap();
    assert_eq!(a.migrations, 0, "single swarm never migrates");
    for kind in [
        MigrationKind::Ring,
        MigrationKind::Star,
        MigrationKind::Random,
    ] {
        let cfg = base
            .clone()
            .topology(islands(4, kind, 10, 2))
            .build()
            .unwrap();
        let r = SeqBackend.run(&cfg, &Rastrigin).unwrap();
        assert_ne!(a.best_position, r.best_position, "{kind:?} must matter");
        assert!(r.migrations > 0, "{kind:?} must migrate");
        assert!(r.best_value < 40.0, "{kind:?} diverged: {}", r.best_value);
    }
}

#[test]
fn island_runs_are_deterministic_in_seed() {
    let cfg = PsoConfig::builder(32, 6)
        .max_iter(40)
        .seed(11)
        .topology(islands(2, MigrationKind::Random, 4, 3))
        .build()
        .unwrap();
    let a = GpuBackend::new().run(&cfg, &Sphere).unwrap();
    let b = GpuBackend::new().run(&cfg, &Sphere).unwrap();
    assert_eq!(a.best_value, b.best_value);
    assert_eq!(a.best_position, b.best_position);
    assert_eq!(a.migrations, b.migrations);
}

#[test]
fn multi_gpu_rejects_ring_topology() {
    let cfg = PsoConfig::builder(32, 4)
        .max_iter(5)
        .topology(Topology::Ring { k: 1 })
        .build()
        .unwrap();
    let err = GpuBackend::with_group(DeviceGroup::v100s(2))
        .run(&cfg, &Sphere)
        .unwrap_err();
    assert!(matches!(err, PsoError::InvalidConfig(_)));
}

#[test]
fn multi_gpu_rejects_island_topology() {
    let cfg = PsoConfig::builder(32, 4)
        .max_iter(5)
        .topology(islands(4, MigrationKind::Star, 5, 1))
        .build()
        .unwrap();
    let err = GpuBackend::with_group(DeviceGroup::v100s(2))
        .run(&cfg, &Sphere)
        .unwrap_err();
    assert!(matches!(err, PsoError::InvalidConfig(_)));
}

#[test]
fn target_value_stops_early_on_every_backend() {
    let cfg = PsoConfig::builder(128, 6)
        .max_iter(5000)
        .seed(4)
        .target_value(1.0)
        .build()
        .unwrap();
    for backend in [
        Box::new(SeqBackend) as Box<dyn PsoBackend>,
        Box::new(ParBackend),
        Box::new(GpuBackend::new()),
    ] {
        let r = backend.run(&cfg, &Sphere).unwrap();
        assert!(r.best_value <= 1.0, "{}: {}", backend.name(), r.best_value);
        assert!(
            r.iterations < 5000,
            "{}: should stop early, ran {}",
            backend.name(),
            r.iterations
        );
        assert_eq!(r.evaluations, 128 * r.iterations as u64);
    }
}

#[test]
fn early_stop_matches_truncated_run_exactly() {
    // Stopping at the target must equal a run truncated at that iteration.
    // Constant inertia: the decay schedule depends on max_iter, so the
    // truncated run would otherwise follow a different ω(t).
    let full = PsoConfig::builder(64, 6)
        .max_iter(400)
        .seed(12)
        .omega(0.7)
        .constant_inertia()
        .target_value(0.5)
        .record_history(true)
        .build()
        .unwrap();
    let stopped = SeqBackend.run(&full, &Sphere).unwrap();
    let mut truncated_cfg = full.clone();
    truncated_cfg.target_value = None;
    truncated_cfg.max_iter = stopped.iterations;
    let truncated = SeqBackend.run(&truncated_cfg, &Sphere).unwrap();
    assert_eq!(stopped.best_value, truncated.best_value);
    assert_eq!(stopped.history, truncated.history);
}

#[test]
fn patience_stops_stagnant_runs() {
    // A 1-particle swarm with zero coefficients never improves after the
    // first evaluation: patience must cut it off.
    let cfg = PsoConfig::builder(1, 4)
        .max_iter(1000)
        .omega(0.0)
        .omega_end(0.0)
        .c1(0.0)
        .c2(0.0)
        .patience(7)
        .seed(2)
        .build()
        .unwrap();
    let r = SeqBackend.run(&cfg, &Sphere).unwrap();
    assert!(r.iterations <= 10, "ran {} iterations", r.iterations);
    let g = GpuBackend::new().run(&cfg, &Sphere).unwrap();
    assert_eq!(
        g.iterations, r.iterations,
        "backends agree on the stop point"
    );
}

#[test]
fn zero_patience_is_rejected() {
    let err = PsoConfig::builder(4, 2).patience(0).build().unwrap_err();
    assert!(matches!(err, PsoError::InvalidConfig(_)));
}
