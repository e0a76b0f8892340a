//! Multi-GPU FastPSO (paper §3.5, "Supporting multiple GPUs").
//!
//! Two strategies, as sketched in the paper:
//!
//! * **Particle splitting** — the swarm is split into per-device sub-swarms,
//!   each maintaining its *own* local-global best; bests are exchanged
//!   (asynchronously in the paper; here every `sync_every` iterations).
//!   Trajectories differ from the single-GPU run because attraction is
//!   local between exchanges.
//! * **Tile matrix** — the element-wise update is sharded across devices,
//!   but a single global best is reduced every iteration, so the
//!   trajectory is **bit-identical** to the single-GPU run (the tests rely
//!   on this).
//!
//! Modeled wall-clock for a group is the per-device maximum — devices run
//! concurrently — plus the charged exchange traffic.
//!
//! Both strategies lower onto the same [`ExecutionPlan`] the single-GPU
//! backend uses, with a [`BestReduce::Exchange`] reduction node standing in
//! for the local adopt; the plan executor (see [`crate::plan`]) owns the
//! run loop and resilience.

use crate::backend::PsoBackend;
use crate::config::PsoConfig;
use crate::error::PsoError;
use crate::plan::{check_shardable, BestReduce, ExecutionPlan, PlanRun};
use crate::resilience::ResilienceConfig;
use crate::result::RunResult;
use fastpso_functions::Objective;
use gpu_sim::{AllocMode, DeviceGroup};

use super::kernels::UpdateStrategy;

/// Multi-GPU work decomposition (paper §3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiGpuStrategy {
    /// Independent sub-swarms with periodic best exchange.
    ParticleSplit {
        /// Exchange the global best every this many iterations.
        sync_every: usize,
    },
    /// Sharded element-wise update with a global reduction per iteration.
    TileMatrix,
}

/// FastPSO across a device group.
pub struct MultiGpuBackend {
    group: DeviceGroup,
    strategy: MultiGpuStrategy,
    update: UpdateStrategy,
    resilience: Option<ResilienceConfig>,
    alloc_mode: Option<AllocMode>,
    fuse: bool,
}

impl MultiGpuBackend {
    /// FastPSO on `n_devices` V100s with the given decomposition.
    pub fn new(n_devices: usize, strategy: MultiGpuStrategy) -> Self {
        Self::with_group(DeviceGroup::v100s(n_devices.max(1)), strategy)
    }

    /// FastPSO on an explicit device group.
    pub fn with_group(group: DeviceGroup, strategy: MultiGpuStrategy) -> Self {
        MultiGpuBackend {
            group,
            strategy,
            update: UpdateStrategy::GlobalMem,
            resilience: None,
            alloc_mode: None,
            fuse: false,
        }
    }

    /// Select the per-device swarm-update memory strategy.
    pub fn update_strategy(mut self, s: UpdateStrategy) -> Self {
        self.update = s;
        self
    }

    /// Enable the resilient execution layer: per-device bounded retry,
    /// synchronized group checkpoints with restore-and-replay, NaN/Inf
    /// quarantine, strategy degradation, and — unique to the multi-GPU
    /// path — re-homing a lost device's sub-swarm onto a survivor.
    pub fn resilient(mut self, r: ResilienceConfig) -> Self {
        self.resilience = Some(r);
        self
    }

    /// Select the allocation mode for every device in the group (Table 4's
    /// ablation). Applied at the start of every run.
    pub fn alloc_mode(mut self, mode: AllocMode) -> Self {
        self.alloc_mode = Some(mode);
        self
    }

    /// Enable the kernel-fusion rewrite pass on every shard's update pair
    /// (identity for the tiled strategies; see [`ExecutionPlan::fuse_swarm_update`]).
    pub fn fused(mut self, on: bool) -> Self {
        self.fuse = on;
        self
    }

    /// The backing device group.
    pub fn group(&self) -> &DeviceGroup {
        &self.group
    }

    fn validate_run(&self, cfg: &PsoConfig) -> Result<(), PsoError> {
        if self.group.is_empty() {
            return Err(PsoError::InvalidConfig("empty device group".into()));
        }
        check_shardable(cfg, self.group.len()).map_err(PsoError::InvalidConfig)
    }

    /// The per-iteration kernel graph this backend executes for `cfg`: one
    /// shard per device with an exchange reduction (every iteration for
    /// tile-matrix, every `sync_every` for particle-split), plus the
    /// configured rewrite passes.
    pub fn plan(&self, cfg: &PsoConfig) -> ExecutionPlan {
        let sync_every = match self.strategy {
            MultiGpuStrategy::TileMatrix => 1,
            MultiGpuStrategy::ParticleSplit { sync_every } => sync_every,
        };
        let mut plan =
            ExecutionPlan::build(cfg, self.group.len(), BestReduce::Exchange { sync_every });
        if self.fuse {
            plan.fuse_swarm_update(self.update);
        }
        plan
    }
}

impl PsoBackend for MultiGpuBackend {
    fn name(&self) -> &'static str {
        match self.strategy {
            MultiGpuStrategy::ParticleSplit { .. } => "fastpso-multi-split",
            MultiGpuStrategy::TileMatrix => "fastpso-multi-tile",
        }
    }

    fn run(&self, cfg: &PsoConfig, obj: &dyn Objective) -> Result<RunResult, PsoError> {
        self.validate_run(cfg)?;
        if let Some(mode) = self.alloc_mode {
            for dev in self.group.iter() {
                dev.set_alloc_mode(mode);
            }
        }
        let plan = self.plan(cfg);
        PlanRun {
            plan: &plan,
            cfg,
            obj,
            strategy: self.update,
            resilience: self.resilience.as_ref(),
            group: &self.group,
        }
        .execute(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuBackend;
    use fastpso_functions::builtins::{Rastrigin, Sphere};

    fn cfg(n: usize, d: usize, iters: usize) -> PsoConfig {
        PsoConfig::builder(n, d)
            .max_iter(iters)
            .seed(33)
            .build()
            .unwrap()
    }

    #[test]
    fn tile_matrix_matches_single_gpu_bitwise() {
        let c = cfg(48, 6, 50);
        let single = GpuBackend::new().run(&c, &Sphere).unwrap();
        for devices in [2, 3, 5] {
            let multi = MultiGpuBackend::new(devices, MultiGpuStrategy::TileMatrix)
                .run(&c, &Sphere)
                .unwrap();
            assert_eq!(single.best_value, multi.best_value, "devices={devices}");
            assert_eq!(single.best_position, multi.best_position);
        }
    }

    #[test]
    fn particle_split_still_converges() {
        let c = cfg(64, 6, 120);
        let r = MultiGpuBackend::new(4, MultiGpuStrategy::ParticleSplit { sync_every: 10 })
            .run(&c, &Sphere)
            .unwrap();
        assert!(r.best_value < 1.0, "best = {}", r.best_value);
    }

    #[test]
    fn particle_split_differs_from_tile_matrix() {
        let c = cfg(64, 6, 60);
        let a = MultiGpuBackend::new(4, MultiGpuStrategy::ParticleSplit { sync_every: 25 })
            .run(&c, &Rastrigin)
            .unwrap();
        let b = MultiGpuBackend::new(4, MultiGpuStrategy::TileMatrix)
            .run(&c, &Rastrigin)
            .unwrap();
        assert_ne!(a.best_position, b.best_position);
    }

    #[test]
    fn more_devices_reduce_modeled_time_on_large_swarms() {
        let c = cfg(4096, 64, 10);
        let t1 = MultiGpuBackend::new(1, MultiGpuStrategy::TileMatrix)
            .run(&c, &Sphere)
            .unwrap()
            .elapsed_seconds();
        let t4 = MultiGpuBackend::new(4, MultiGpuStrategy::TileMatrix)
            .run(&c, &Sphere)
            .unwrap()
            .elapsed_seconds();
        assert!(t4 < t1, "t4={t4} not faster than t1={t1}");
    }

    #[test]
    fn rejects_more_devices_than_particles() {
        let c = cfg(2, 4, 5);
        let err = MultiGpuBackend::new(4, MultiGpuStrategy::TileMatrix)
            .run(&c, &Sphere)
            .unwrap_err();
        assert!(matches!(err, PsoError::InvalidConfig(_)));
    }

    #[test]
    fn fused_multi_matches_split_multi_bitwise() {
        let c = cfg(48, 6, 40);
        let plain = MultiGpuBackend::new(3, MultiGpuStrategy::TileMatrix)
            .run(&c, &Sphere)
            .unwrap();
        let fused = MultiGpuBackend::new(3, MultiGpuStrategy::TileMatrix)
            .fused(true)
            .run(&c, &Sphere)
            .unwrap();
        assert_eq!(plain.best_value, fused.best_value);
        assert_eq!(plain.best_position, fused.best_position);
    }
}
