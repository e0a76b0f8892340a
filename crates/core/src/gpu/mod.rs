//! The GPU backend — the paper's FastPSO proper, on one device or a group.
//!
//! [`GpuBackend`] runs on a [`DeviceGroup`] with one shard per device; a
//! single-GPU run is a group of one. A group covers the two multi-GPU
//! decompositions the paper sketches (§3.5, "Supporting multiple GPUs"),
//! told apart only by [`GpuBackend::sync_every`]:
//!
//! * **Tile matrix** (`sync_every(1)`, the default) — the element-wise
//!   update is sharded across devices, but a single swarm best is reduced
//!   every iteration, so the trajectory is **bit-identical** to the
//!   single-GPU run (the tests rely on this).
//! * **Particle splitting** (`sync_every(k)`, `k > 1`) — each device's
//!   sub-swarm keeps its *own* local-global best, and the bests are
//!   exchanged every `k` iterations (asynchronously in the paper).
//!   Trajectories differ from the single-GPU run because attraction is
//!   local between exchanges. `sync_every(0)` never exchanges.
//!
//! Both lower onto the same [`ExecutionPlan`] as a one-device run, with a
//! [`BestReduce::Exchange`] node standing in for the local adopt. Modeled
//! wall-clock for a group is the per-device maximum — devices run
//! concurrently — plus the charged exchange traffic.

pub mod kernels;

use crate::algo::Algorithm;
use crate::backend::PsoBackend;
use crate::config::PsoConfig;
use crate::error::PsoError;
use crate::plan::{check_shardable, BestReduce, ExecutionPlan, PlanRun};
use crate::resilience::ResilienceConfig;
use crate::result::RunResult;
use fastpso_functions::Objective;
use gpu_sim::{AllocMode, Device, DeviceGroup};

pub use kernels::UpdateStrategy;

/// FastPSO on one (simulated) GPU or a group of them.
///
/// Construction is builder-style:
///
/// ```
/// use fastpso::{GpuBackend, UpdateStrategy};
/// use gpu_sim::DeviceGroup;
///
/// let backend = GpuBackend::new().strategy(UpdateStrategy::SharedMem);
/// assert_eq!(backend.update_strategy(), UpdateStrategy::SharedMem);
///
/// // Particle splitting over four V100s, exchanging bests every 10 iterations.
/// let split = GpuBackend::with_group(DeviceGroup::v100s(4)).sync_every(10);
/// assert_eq!(split.group().len(), 4);
/// ```
///
/// Every run builds an [`ExecutionPlan`] — the declarative per-iteration
/// kernel graph — and hands it to the plan executor; resilience and kernel
/// fusion are plan-level concerns (see the [`crate::plan`] module).
pub struct GpuBackend {
    group: DeviceGroup,
    strategy: UpdateStrategy,
    algorithm: Algorithm,
    resilience: Option<ResilienceConfig>,
    alloc_mode: Option<AllocMode>,
    fuse: bool,
    persistent: bool,
    sync_every: usize,
}

impl Default for GpuBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl GpuBackend {
    /// FastPSO on a Tesla V100 with the default (global-memory) update.
    pub fn new() -> Self {
        Self::with_device(Device::v100())
    }

    /// FastPSO on an explicit device (a group of one).
    pub fn with_device(device: Device) -> Self {
        Self::with_group(DeviceGroup::from_devices(vec![device]))
    }

    /// FastPSO on a device group, one shard per device (paper §3.5). The
    /// swarm best is exchanged every iteration unless
    /// [`GpuBackend::sync_every`] says otherwise.
    pub fn with_group(group: DeviceGroup) -> Self {
        GpuBackend {
            group,
            strategy: UpdateStrategy::GlobalMem,
            algorithm: Algorithm::Pso,
            resilience: None,
            alloc_mode: None,
            fuse: false,
            persistent: false,
            sync_every: 1,
        }
    }

    /// Select the swarm-update memory strategy (Figure 6's axis).
    pub fn strategy(mut self, s: UpdateStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Select the swarm-intelligence algorithm the plan runs (PSO by
    /// default; see [`crate::Algorithm`] for the discrete-SSO and GFWA
    /// fireworks engines, which execute through the same plan executor).
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// The configured algorithm.
    pub fn algo(&self) -> Algorithm {
        self.algorithm
    }

    /// Enable the resilient execution layer: bounded retry, periodic
    /// checkpointing with restore-and-replay, NaN/Inf quarantine, the
    /// strategy degradation chain and, on a group, re-homing a lost
    /// device's shard onto a survivor (see the `resilience` module).
    pub fn resilient(mut self, r: ResilienceConfig) -> Self {
        self.resilience = Some(r);
        self
    }

    /// Select the allocation mode (Table 4's ablation). Applied to every
    /// device of the group at the start of every run.
    pub fn alloc_mode(mut self, mode: AllocMode) -> Self {
        self.alloc_mode = Some(mode);
        self
    }

    /// Enable the kernel-fusion rewrite pass: each iteration's velocity and
    /// position launches collapse into one `swarm_update_fused` launch,
    /// saving a kernel-launch overhead. Bitwise-identical trajectories; the
    /// pass is the identity for the tiled strategies.
    pub fn fused(mut self, on: bool) -> Self {
        self.fuse = on;
        self
    }

    /// Enable persistent-kernel execution: after init, the whole run is
    /// dispatched as one slice inside one device-resident region per
    /// device, so it costs one host launch per device and each
    /// synchronisation is a grid-wide barrier instead of a host round-trip.
    /// The plan is the same either way; residency only changes how it is
    /// dispatched. Trajectories are bitwise-identical; only launch
    /// accounting and modeled time change. A swarm larger than the device
    /// keeps co-resident runs grid-stride: the region holds
    /// `max_resident_threads` threads, each covering several elements of
    /// every pass.
    pub fn persistent(mut self, on: bool) -> Self {
        self.persistent = on;
        self
    }

    /// Exchange the swarm best between a group's shards every `k`
    /// iterations: 1 (the default) is the tile-matrix decomposition,
    /// `k > 1` particle splitting, and 0 never exchanges. A group of one
    /// adopts its best locally every iteration and ignores this.
    pub fn sync_every(mut self, k: usize) -> Self {
        self.sync_every = k;
        self
    }

    /// The first device of the group (for timeline/metrics inspection; the
    /// only one of a single-GPU backend).
    ///
    /// # Panics
    ///
    /// If the group is empty.
    pub fn device(&self) -> &Device {
        self.group
            .device(0)
            .expect("GpuBackend on an empty device group")
    }

    /// The backing device group.
    pub fn group(&self) -> &DeviceGroup {
        &self.group
    }

    /// Profiler snapshot of the most recent run: one record per kernel
    /// launch, allocation and transfer on every device of the group, each
    /// keeping its device index ([`GpuBackend::run`] resets the timelines
    /// and profilers together at entry, so the snapshot covers exactly the
    /// last run). Export with [`gpu_sim::gpu_summary`] or
    /// [`gpu_sim::chrome_trace_json`].
    pub fn profile(&self) -> gpu_sim::ProfilerLog {
        self.group.merged_profiler()
    }

    /// The configured update strategy.
    pub fn update_strategy(&self) -> UpdateStrategy {
        self.strategy
    }

    /// The per-iteration kernel graph this backend executes for `cfg` —
    /// built the same way [`GpuBackend::run`] builds it: one shard per
    /// device, a local adopt on one device and an exchange every
    /// [`GpuBackend::sync_every`] iterations on more, with the configured
    /// rewrite passes applied.
    pub fn plan(&self, cfg: &PsoConfig) -> ExecutionPlan {
        let shards = self.group.len();
        let reduce = if shards > 1 {
            BestReduce::Exchange {
                sync_every: self.sync_every,
            }
        } else {
            BestReduce::Local
        };
        let mut plan = ExecutionPlan::build_for(self.algorithm, cfg.topology, shards, reduce);
        if self.fuse {
            plan.fuse_swarm_update(self.strategy);
        }
        plan
    }
}

impl PsoBackend for GpuBackend {
    fn name(&self) -> &'static str {
        match self.algorithm {
            Algorithm::Sso => return "fastpso-sso",
            Algorithm::Gfwa => return "fastpso-gfwa",
            Algorithm::Pso => {}
        }
        match self.strategy {
            UpdateStrategy::GlobalMem => "fastpso",
            UpdateStrategy::SharedMem => "fastpso-smem",
            UpdateStrategy::TensorCore => "fastpso-tensor",
            UpdateStrategy::ForLoop => "fastpso-forloop",
            UpdateStrategy::LowComplexity => "fastpso-lowcomp",
        }
    }

    fn run(&self, cfg: &PsoConfig, obj: &dyn Objective) -> Result<RunResult, PsoError> {
        let shards = self.group.len();
        if shards == 0 {
            return Err(PsoError::InvalidConfig("empty device group".into()));
        }
        if shards > 1 {
            check_shardable(cfg, shards).map_err(PsoError::InvalidConfig)?;
        }
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
            strategy: self.strategy,
            resilience: self.resilience.as_ref(),
            group: &self.group,
        }
        .execute(self.persistent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqBackend;
    use fastpso_functions::builtins::{Griewank, Rastrigin, Sphere};

    fn cfg(n: usize, d: usize, iters: usize) -> PsoConfig {
        PsoConfig::builder(n, d)
            .max_iter(iters)
            .seed(21)
            .build()
            .unwrap()
    }

    fn on(devices: usize) -> GpuBackend {
        GpuBackend::with_group(DeviceGroup::v100s(devices))
    }

    #[test]
    fn converges_on_sphere() {
        let r = GpuBackend::new().run(&cfg(64, 8, 200), &Sphere).unwrap();
        assert!(r.best_value < 5.0, "best = {}", r.best_value);
    }

    #[test]
    fn gpu_trajectory_is_bit_identical_to_sequential() {
        for obj in [&Sphere as &dyn Objective, &Griewank] {
            let c = cfg(48, 6, 60);
            let a = SeqBackend.run(&c, obj).unwrap();
            let b = GpuBackend::new().run(&c, obj).unwrap();
            assert_eq!(a.best_value, b.best_value, "{}", obj.name());
            assert_eq!(a.best_position, b.best_position);
        }
    }

    #[test]
    fn shared_mem_strategy_matches_global_mem_bitwise() {
        let c = cfg(32, 8, 40);
        let a = GpuBackend::new().run(&c, &Sphere).unwrap();
        let b = GpuBackend::new()
            .strategy(UpdateStrategy::SharedMem)
            .run(&c, &Sphere)
            .unwrap();
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.best_position, b.best_position);
    }

    #[test]
    fn tensor_strategy_still_converges() {
        let r = GpuBackend::new()
            .strategy(UpdateStrategy::TensorCore)
            .run(&cfg(64, 8, 200), &Sphere)
            .unwrap();
        assert!(r.best_value < 10.0, "best = {}", r.best_value);
    }

    #[test]
    fn modeled_time_is_far_below_cpu_backends() {
        let c = cfg(2048, 128, 10);
        let gpu = GpuBackend::new()
            .run(&c, &Sphere)
            .unwrap()
            .elapsed_seconds();
        let seq = SeqBackend.run(&c, &Sphere).unwrap().elapsed_seconds();
        assert!(
            seq / gpu > 5.0,
            "expected order-of-magnitude GPU advantage, got {}",
            seq / gpu
        );
    }

    #[test]
    fn history_is_monotone() {
        let c = PsoConfig::builder(32, 4)
            .max_iter(80)
            .record_history(true)
            .build()
            .unwrap();
        let r = GpuBackend::new().run(&c, &Sphere).unwrap();
        assert_eq!(r.history_is_monotone(), Some(true));
    }

    #[test]
    fn alloc_mode_caching_beats_realloc_in_modeled_time() {
        let c = cfg(64, 16, 25);
        let run = |mode| {
            let backend = GpuBackend::new().alloc_mode(mode);
            // Warm the pool once so caching has something to reuse, then
            // measure a second run (mirrors the paper's steady state).
            backend.run(&c, &Sphere).unwrap();
            backend.run(&c, &Sphere).unwrap().elapsed_seconds()
        };
        let caching = run(AllocMode::Caching);
        let realloc = run(AllocMode::Realloc);
        assert!(caching < realloc, "caching {caching} vs realloc {realloc}");
    }

    #[test]
    fn fused_run_matches_split_run_bitwise() {
        for strategy in [UpdateStrategy::GlobalMem, UpdateStrategy::ForLoop] {
            let c = cfg(48, 6, 40);
            let split = GpuBackend::new()
                .strategy(strategy)
                .run(&c, &Sphere)
                .unwrap();
            let fused = GpuBackend::new()
                .strategy(strategy)
                .fused(true)
                .run(&c, &Sphere)
                .unwrap();
            assert_eq!(split.best_value, fused.best_value, "{strategy}");
            assert_eq!(split.best_position, fused.best_position);
        }
    }

    #[test]
    fn persistent_run_is_bit_identical_with_one_launch_per_run() {
        let c = cfg(48, 6, 40);
        let split_backend = GpuBackend::new();
        let split = split_backend.run(&c, &Sphere).unwrap();
        let split_counters = split_backend.profile().total_counters();

        let persist_backend = GpuBackend::new().persistent(true);
        let persist = persist_backend.run(&c, &Sphere).unwrap();
        let pc = persist_backend.profile().total_counters();

        assert_eq!(split.best_value, persist.best_value);
        assert_eq!(split.best_position, persist.best_position);

        // A solo run is one slice: exactly one host-side launch beyond the
        // one Init-phase prologue launch (`init_swarm` — it precedes the
        // iteration loop in both modes), and every counter other than
        // launch count byte-exact vs per-launch mode.
        let init = persist_backend
            .profile()
            .phase_counters(gpu_sim::Phase::Init)
            .kernel_launches;
        assert_eq!(init, 1);
        assert_eq!(pc.kernel_launches - init, 1);
        let mut expect = split_counters;
        expect.kernel_launches = pc.kernel_launches;
        assert_eq!(pc, expect);

        assert!(
            persist.elapsed_seconds() < split.elapsed_seconds(),
            "persistent {} vs per-launch {}",
            persist.elapsed_seconds(),
            split.elapsed_seconds()
        );
    }

    #[test]
    fn persistent_runs_grid_stride_above_the_resident_threads() {
        // 2048 × 128 elements exceed the V100's 163 840 resident threads:
        // the region holds that many threads, each striding over the rest,
        // so the run is still its init plus one region, bit-identical, with
        // every counter but the launch count byte-equal.
        let c = cfg(2048, 128, 5);
        let split_backend = GpuBackend::new();
        let split = split_backend.run(&c, &Sphere).unwrap();
        let persist_backend = GpuBackend::new().persistent(true);
        let persist = persist_backend.run(&c, &Sphere).unwrap();
        assert_eq!(split.best_value, persist.best_value);
        assert_eq!(split.best_position, persist.best_position);
        let log = persist_backend.profile();
        let pc = log.total_counters();
        assert_eq!(pc.kernel_launches, 2);
        let region = log
            .kernels
            .iter()
            .find(|k| k.launches == 1 && k.name == "persistent_run");
        let max = persist_backend.device().profile().max_resident_threads();
        assert_eq!(region.map(|k| k.threads), Some(max));
        let mut expect = split_backend.profile().total_counters();
        expect.kernel_launches = pc.kernel_launches;
        assert_eq!(pc, expect);

        // Fusion composes with residency: init plus one region.
        let small = cfg(48, 6, 5);
        let fused = GpuBackend::new().fused(true);
        let reference = fused.run(&small, &Sphere).unwrap();
        let fused = fused.persistent(true);
        let r = fused.run(&small, &Sphere).unwrap();
        assert_eq!(r.best_position, reference.best_position);
        assert_eq!(fused.profile().total_counters().kernel_launches, 2);
    }

    #[test]
    fn sso_backend_runs_deterministically_and_in_domain() {
        let c = cfg(64, 8, 120);
        let backend = GpuBackend::new().algorithm(Algorithm::Sso);
        assert_eq!(backend.name(), "fastpso-sso");
        let a = backend.run(&c, &Sphere).unwrap();
        let b = GpuBackend::new()
            .algorithm(Algorithm::Sso)
            .run(&c, &Sphere)
            .unwrap();
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.best_position, b.best_position);
        let (lo, hi) = Sphere.domain();
        assert!(a.best_position.iter().all(|p| (lo..=hi).contains(p)));
        assert!(a.best_value.is_finite());
    }

    #[test]
    fn gfwa_backend_runs_deterministically_and_converges_somewhat() {
        let c = cfg(32, 8, 60);
        let backend = GpuBackend::new().algorithm(Algorithm::Gfwa);
        assert_eq!(backend.name(), "fastpso-gfwa");
        let a = backend.run(&c, &Sphere).unwrap();
        let b = GpuBackend::new()
            .algorithm(Algorithm::Gfwa)
            .run(&c, &Sphere)
            .unwrap();
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.best_position, b.best_position);
        // Elitist selection: 60 iterations of 8-spark explosions should
        // land well inside the sphere bowl.
        assert!(a.best_value < 5.0, "best = {}", a.best_value);
    }

    #[test]
    fn non_pso_algorithms_survive_transient_faults_bit_identically() {
        for algo in [Algorithm::Sso, Algorithm::Gfwa] {
            let c = cfg(32, 6, 40);
            let clean = GpuBackend::new().algorithm(algo).run(&c, &Sphere).unwrap();
            let backend = GpuBackend::new()
                .algorithm(algo)
                .resilient(ResilienceConfig::default());
            backend
                .device()
                .set_fault_plan(gpu_sim::FaultPlan::new().with_transient_launches([5, 17, 23]));
            let faulted = backend.run(&c, &Sphere).unwrap();
            assert_eq!(clean.best_value, faulted.best_value, "{algo}");
            assert_eq!(clean.best_position, faulted.best_position);
            assert!(faulted.phase_seconds(gpu_sim::Phase::Recovery) > 0.0);
        }
    }

    #[test]
    fn tile_matrix_matches_single_gpu_bitwise() {
        let c = cfg(48, 6, 50);
        let single = GpuBackend::new().run(&c, &Sphere).unwrap();
        for devices in [2, 3, 5] {
            let multi = on(devices).run(&c, &Sphere).unwrap();
            assert_eq!(single.best_value, multi.best_value, "devices={devices}");
            assert_eq!(single.best_position, multi.best_position);
        }
    }

    #[test]
    fn particle_split_still_converges() {
        let c = cfg(64, 6, 120);
        let r = on(4).sync_every(10).run(&c, &Sphere).unwrap();
        assert!(r.best_value < 1.0, "best = {}", r.best_value);
    }

    #[test]
    fn particle_split_differs_from_tile_matrix() {
        let c = cfg(64, 6, 60);
        let a = on(4).sync_every(25).run(&c, &Rastrigin).unwrap();
        let b = on(4).run(&c, &Rastrigin).unwrap();
        assert_ne!(a.best_position, b.best_position);
    }

    #[test]
    fn four_devices_beat_one_only_on_large_swarms() {
        // Sharding pays one best exchange per iteration and a launch
        // schedule per device: at 4096×64 one V100's local adopt still
        // wins, and by 16384×64 the split element-wise work dominates.
        let ratio = |n: usize| {
            let c = cfg(n, 64, 10);
            let t1 = GpuBackend::new()
                .run(&c, &Sphere)
                .unwrap()
                .elapsed_seconds();
            let t4 = on(4).run(&c, &Sphere).unwrap().elapsed_seconds();
            t1 / t4
        };
        let small = ratio(4096);
        assert!(
            small < 1.0,
            "one device should win at 4096x64: t1/t4 = {small}"
        );
        let large = ratio(16384);
        assert!(
            large > 1.1,
            "four devices should win at 16384x64: t1/t4 = {large}"
        );
    }

    #[test]
    fn rejects_more_devices_than_particles_and_an_empty_group() {
        let c = cfg(2, 4, 5);
        for backend in [on(4), on(0)] {
            let err = backend.run(&c, &Sphere).unwrap_err();
            assert!(matches!(err, PsoError::InvalidConfig(_)), "{err}");
        }
    }
}
