//! Multi-GPU FastPSO (paper §3.5): run the same optimization on 1, 2 and 4
//! simulated V100s under both decompositions, and verify the tile-matrix
//! decomposition reproduces the single-GPU trajectory bit-for-bit, launch
//! by launch and inside one persistent region per device.
//!
//! A group is just a [`GpuBackend`] built on a `DeviceGroup`: one shard
//! per device, with the swarm best exchanged every `sync_every` iterations
//! (1, the default, is tile matrix; more is particle splitting).
//!
//! Run with: `cargo run --release --example multi_gpu`

use fastpso_suite::fastpso::{GpuBackend, PsoBackend, PsoConfig};
use fastpso_suite::functions::builtins::Rastrigin;
use fastpso_suite::gpu_sim::DeviceGroup;

fn on(n_dev: usize) -> GpuBackend {
    GpuBackend::with_group(DeviceGroup::v100s(n_dev))
}

fn main() {
    let cfg = PsoConfig::builder(4096, 128)
        .max_iter(150)
        .seed(99)
        .build()
        .expect("valid config");

    let single = GpuBackend::new().run(&cfg, &Rastrigin).expect("single GPU");
    println!(
        "single V100          : best {:.4}, modeled {:.4} s",
        single.best_value,
        single.elapsed_seconds()
    );

    println!("\ntile-matrix decomposition (bit-identical to single GPU):");
    for n_dev in [2usize, 4] {
        let r = on(n_dev).run(&cfg, &Rastrigin).expect("multi GPU");
        println!(
            "  {n_dev} x V100: best {:.4}, modeled {:.4} s ({:.2}x vs single)",
            r.best_value,
            r.elapsed_seconds(),
            single.elapsed_seconds() / r.elapsed_seconds()
        );
        assert_eq!(
            r.best_value, single.best_value,
            "tile-matrix sharding must not change the trajectory"
        );
    }

    // Every backend option reaches a group: here one persistent region per
    // device carries the whole run after init.
    let resident = on(4).persistent(true);
    let r = resident.run(&cfg, &Rastrigin).expect("multi GPU");
    let launches = resident.profile().total_counters().kernel_launches;
    println!(
        "  4 x V100, persistent: best {:.4}, modeled {:.4} s, {launches} launches",
        r.best_value,
        r.elapsed_seconds()
    );
    assert_eq!(r.best_value, single.best_value);
    assert_eq!(r.best_position, single.best_position);

    println!("\nparticle-split decomposition (independent sub-swarms, periodic exchange):");
    for sync_every in [5usize, 25] {
        let r = on(4)
            .sync_every(sync_every)
            .run(&cfg, &Rastrigin)
            .expect("multi GPU");
        println!(
            "  4 x V100, sync every {sync_every:>2}: best {:.4}, modeled {:.4} s",
            r.best_value,
            r.elapsed_seconds()
        );
    }

    println!("\nNote: at this problem size a single V100 is far from saturated, so");
    println!("multi-GPU gains are modest — exactly why the paper leaves multi-GPU");
    println!("as a scaling path for larger swarms rather than a headline number.");
}
