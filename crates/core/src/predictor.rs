//! Submit-time job cost prediction with observed-record calibration.
//!
//! The serving layer admits jobs *before* running them, so deadline-aware
//! admission needs an estimate of each job's device-seconds from nothing
//! but its configuration: swarm size `n·d`, iteration count, shard count,
//! objective cost, update strategy, algorithm and topology.
//! [`CostPredictor`] produces that estimate in two layers:
//!
//! 1. **Analytic base** ([`CostPredictor::base_s`]) — one iteration's
//!    kernel schedule, read off the plan the service would run: the
//!    eval → pbest → argmin prefix every algorithm shares, then each
//!    shard's update-tail nodes, priced from the launch descriptors their
//!    stages' kernels launch ([`crate::ExecutionPlan::tail_launches`]),
//!    through the same roofline model ([`perf_model::gpu_kernel_time`])
//!    the simulator charges with. The tail's price therefore equals what
//!    the tail executes on every rung: the for-loop rung is latency-bound,
//!    the tiled and tensor-core rungs pay their staged traffic, the
//!    low-complexity rung draws `d`-fold fewer numbers. The base is
//!    priced on the shape's [`Schedule`]: launch by launch, or resident in
//!    one region per slice and device shared with its other jobs — the
//!    latter with the init, allocation, barrier, best-exchange, checkpoint
//!    and download charges that exposes, the init and the download as
//!    work on the job's stream lanes inside its first and last regions.
//!    The base is pure arithmetic over the [`GpuProfile`] and
//!    [`LinkProfile`], so it is exactly reproducible.
//! 2. **Calibration** ([`CostPredictor::observe`]) — the base deliberately
//!    omits data-dependent costs (the pbest and gbest adoption copies)
//!    and, outside the resident schedule, allocator history and the
//!    scheduler-dependent ones (checkpoint captures, the result
//!    download), so observed
//!    [`JobRecord`](perf_model::JobRecord)s close the loop: each completed
//!    job contributes the ratio `observed / base` and the predictor applies
//!    the per-key mean ratio as a multiplicative coefficient. With zero
//!    observations the coefficient is 1.0 and the prediction is the raw
//!    base.
//!
//! Calibration keys are strings built from the `Display` forms of
//! [`UpdateStrategy`] and [`Algorithm`] ([`JobShape::calibration_key`]).
//!
//! ```
//! use fastpso::{CostPredictor, JobShape, UpdateStrategy};
//!
//! let mut p = CostPredictor::v100();
//! let shape = JobShape::new(1000, 50, 300, UpdateStrategy::GlobalMem);
//! let base = p.predict_s(&shape);
//! assert!(base > 0.0);
//! // One observation calibrates the shape's coefficient exactly.
//! p.observe(&shape, base * 1.5);
//! assert!((p.predict_s(&shape) - base * 1.5).abs() < 1e-12);
//! ```

use crate::algo::{algorithm_impl, Algorithm, TailShape};
use crate::gpu::kernels::{init_swarm_desc, Shard};
use crate::gpu::UpdateStrategy;
use crate::plan::{best_exchange_bytes, partition, BestReduce, ExecutionPlan, PlanOp};
use crate::topology::Topology;
use gpu_sim::{KernelDesc, Phase, CACHE_HIT_COST_FRACTION, GRID_SYNC_OVERHEAD_S};
use perf_model::{gpu_kernel_time, transfer_time, GpuKernelWork, GpuProfile, LinkProfile};
use std::collections::BTreeMap;

/// The dispatch a [`JobShape`] is priced on: how the serving layer steps
/// the job's iterations. Each variant is one schedule, so a shape cannot
/// name two at once.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Schedule {
    /// Launch by launch, as a dedicated [`crate::GpuBackend`] run.
    #[default]
    Launches,
    /// A job inside one persistent region per slice and leased device,
    /// shared with that device's other jobs, as the serving layer steps
    /// every job, batch members and sharded ones included: every launch
    /// overhead collapsed into one region launch per slice and shard, plus
    /// the charges a region no longer hides behind launch overhead (see
    /// [`CostPredictor::base_s`]). Calibrates under `+resident`, or
    /// `+resident+sharded` when sharded.
    Resident {
        /// Iterations per region (the serving layer's `slice_iters`; 0 =
        /// the whole run in one).
        slice: u64,
        /// Slice boundaries per checkpoint capture (the serving layer's
        /// `checkpoint_slices`; 0 = none).
        checkpoint_slices: u64,
        /// Jobs expected to share each region and checkpoint copy, which
        /// split its open and its PCIe latency (1 = a lone job; a job
        /// billed alongside a varying number reports their harmonic mean).
        sharers: f64,
        /// Share of the init buffers the device's allocator pool serves at
        /// the pool-hit price (0 = a cold pool: every one a fresh
        /// allocation).
        pooled: f64,
        /// Share of its in-region seconds the job is billed, the rest
        /// hidden by co-resident jobs' stream lanes (1 = a lone job).
        lane_share: f64,
        /// Allocations inside its regions the device's pool cannot serve,
        /// each at the driver's price rather than a pool hit (0 = a warm
        /// pool).
        region_misses: u64,
    },
}

/// The admission-relevant shape of one optimization job: everything the
/// predictor reads at submit time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobShape {
    /// Swarm size `n`.
    pub particles: u64,
    /// Dimensionality `d`.
    pub dim: u64,
    /// Iterations the job will run (its `max_iter` budget at submit time,
    /// or the iterations actually run when calibrating from a record).
    pub iterations: u64,
    /// Devices the job's shards span (1 = packed onto one device).
    pub shards: u64,
    /// Objective FP cost per dimension per evaluation.
    pub flops_per_dim: u64,
    /// The update strategy the job runs with.
    pub strategy: UpdateStrategy,
    /// The dispatch the job runs on.
    pub schedule: Schedule,
    /// Which engine's update tail the base prices.
    pub algo: Algorithm,
    /// The swarm topology. Only islands change the price: each island
    /// shape adds one attractor-gather launch per iteration plus a periodic
    /// migration launch, and calibrates under an `+islands`-suffixed key.
    pub topology: Topology,
}

impl JobShape {
    /// A single-shard, global-topology default-algorithm shape with a
    /// sphere-like (1 flop/dim) objective.
    pub fn new(particles: u64, dim: u64, iterations: u64, strategy: UpdateStrategy) -> JobShape {
        JobShape {
            particles,
            dim,
            iterations,
            shards: 1,
            flops_per_dim: 1,
            strategy,
            schedule: Schedule::Launches,
            algo: Algorithm::default(),
            topology: Topology::default(),
        }
    }

    /// Set the algorithm.
    pub fn algorithm(mut self, algo: Algorithm) -> JobShape {
        self.algo = algo;
        self
    }

    /// Set the topology.
    pub fn topology(mut self, topology: Topology) -> JobShape {
        self.topology = topology;
        self
    }

    /// Set the shard count.
    pub fn shards(mut self, k: u64) -> JobShape {
        self.shards = k.max(1);
        self
    }

    /// Set the objective's per-dimension FP cost.
    pub fn flops_per_dim(mut self, f: u64) -> JobShape {
        self.flops_per_dim = f;
        self
    }

    /// Set the schedule the job is dispatched on.
    pub fn schedule(mut self, schedule: Schedule) -> JobShape {
        self.schedule = schedule;
        self
    }

    /// The calibration key: resident shapes calibrate apart from per-launch
    /// ones, since they absorb scheduler-dependent costs (allocator
    /// history), and sharded resident shapes apart from solo ones,
    /// since they also absorb their data-dependent adoption uploads; island
    /// schedules interleave gather/migrate launches with the shared prefix,
    /// so they calibrate apart too; every algorithm but the default
    /// calibrates under an `{algo}:`-prefixed key so its observed ratios
    /// never contaminate the PSO coefficients (whose keys predate
    /// algorithms and stay unprefixed).
    pub fn calibration_key(&self) -> String {
        let mut key = self.strategy.to_string();
        match self.schedule {
            Schedule::Resident { .. } if self.shards > 1 => key.push_str("+resident+sharded"),
            Schedule::Resident { .. } => key.push_str("+resident"),
            Schedule::Launches => {}
        }
        if self.islands() > 1 {
            key.push_str("+islands");
        }
        if self.algo == Algorithm::default() {
            key
        } else {
            format!("{}:{key}", self.algo)
        }
    }

    /// Islands the swarm is partitioned into (1 for every non-island
    /// topology).
    fn islands(&self) -> u64 {
        match self.topology {
            Topology::Islands { islands, .. } => islands as u64,
            _ => 1,
        }
    }

    /// Migration launches the shape performs over its full iteration
    /// budget: one every `every_k` iterations, none when the swarm is a
    /// single island or never migrates.
    fn migration_launches(&self) -> u64 {
        match self.topology {
            Topology::Islands { islands, migration } if islands > 1 && migration.every_k > 0 => {
                self.iterations / migration.every_k as u64
            }
            _ => 0,
        }
    }
}

/// One evaluation launch over `points` candidate rows of `d` dimensions:
/// one thread per row, reading the row and writing its error.
fn eval_work(points: u64, d: u64, flops_per_dim: u64) -> GpuKernelWork {
    GpuKernelWork::elementwise(
        points,
        d * flops_per_dim * points,
        d * 4 * points,
        4 * points,
    )
}

/// The eval → pbest compare → argmin launches every algorithm shares over
/// one `rows × d` shard (pbest adoption traffic is absorbed by
/// calibration).
fn shared_prefix(rows: u64, d: u64, flops_per_dim: u64) -> Vec<GpuKernelWork> {
    vec![
        eval_work(rows, d, flops_per_dim),
        GpuKernelWork::elementwise(rows, rows, 12 * rows, 4 * rows),
        GpuKernelWork::elementwise(rows, rows, 4 * rows, 4),
    ]
}

/// Regions a run of `iters` iterations dispatches at `slice` iterations
/// per region (0 = one region for the whole run).
fn slices(iters: u64, slice: u64) -> u64 {
    if slice == 0 {
        1
    } else {
        iters.div_ceil(slice).max(1)
    }
}

/// Per-key calibration state: the running sum of observed/base ratios.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Calibration {
    sum_ratio: f64,
    count: u64,
}

impl Calibration {
    fn coefficient(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            self.sum_ratio / self.count as f64
        }
    }
}

/// Predicts a job's device-seconds from its [`JobShape`], refining itself
/// from observed records. See the [module docs](self) for the model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostPredictor {
    gpu: GpuProfile,
    link: LinkProfile,
    calib: BTreeMap<String, Calibration>,
}

impl CostPredictor {
    /// A predictor over an explicit device profile and host interconnect.
    pub fn new(gpu: GpuProfile, link: LinkProfile) -> CostPredictor {
        CostPredictor {
            gpu,
            link,
            calib: BTreeMap::new(),
        }
    }

    /// A predictor for the paper's Tesla V100 behind PCIe 3.0 x16 — the
    /// device `gpu_sim` models, so this is the right profile for
    /// [`crate::serve`].
    pub fn v100() -> CostPredictor {
        CostPredictor::new(GpuProfile::tesla_v100(), LinkProfile::pcie3_x16())
    }

    /// The analytic per-job base estimate in device-seconds: the modeled
    /// time of one iteration's kernel schedule times the iteration count,
    /// summed over shards. Deterministic arithmetic; no calibration applied.
    ///
    /// The schedule is the plan the service would run for the shape
    /// ([`ExecutionPlan::build_for`]); each shard's tail is priced from the
    /// launch descriptors its stages' kernels launch
    /// ([`ExecutionPlan::tail_launches`]). The prefix, the island gather and
    /// migration, and the region launch-overhead saving are priced by
    /// this predictor's own arithmetic.
    ///
    /// A [`Schedule::Resident`] shape collapses the per-kernel launch
    /// overheads baked into every priced launch into one region launch per
    /// slice and shard, and adds, per shard, what a solo region no longer
    /// hides behind launch overhead, each charge priced from the
    /// descriptor, function or constant that charges it:
    /// - the init launches (`init_swarm`, and the algorithm's
    ///   [`crate::SwarmAlgorithm::init_extra_launch`]) as in-region passes,
    ///   their launch overhead collapsed into the first region;
    /// - the shard's [`Shard::BUFFERS`] allocations (plus the extra state's)
    ///   at the fresh-allocation price, the `pooled` share of them at the
    ///   pool-hit price, and each iteration's
    ///   [`crate::SwarmAlgorithm::iteration_allocs`] at the pool-hit price
    ///   ([`CACHE_HIT_COST_FRACTION`]);
    /// - one grid barrier ([`GRID_SYNC_OVERHEAD_S`]) per device-sync node
    ///   and iteration;
    /// - on a sharded shape, one D2H of the shard's local best per
    ///   iteration, `(d + 1)` floats, the byte count the executor's best
    ///   exchange charges (the adoption uploads are data-dependent and left
    ///   to calibration);
    /// - one checkpoint per due slice boundary: an in-region
    ///   [`KernelDesc::checkpoint_pack`] pass plus one D2H of
    ///   [`Shard::checkpoint_elems`] floats;
    /// - the result download;
    /// - less the shares of its region opens and capture latencies that
    ///   the region's other `sharers` pay;
    /// - the driver's price, less the pool hit, of each of its
    ///   `region_misses`.
    ///
    /// The seconds a resident job spends on its stream lanes — its init
    /// passes and allocations in its first region, its in-region passes,
    /// each iteration's allocations, barriers and best exchange, and the
    /// result download in its last region — are billed at the schedule's
    /// `lane_share`; the region opens and the checkpoints, which run after
    /// the lanes join, are not.
    pub fn base_s(&self, shape: &JobShape) -> f64 {
        let gpu = &self.gpu;
        let d = shape.dim.max(1);
        let islands = shape.islands();
        let n_shards = shape.shards.max(1) as usize;
        let reduce = BestReduce::for_shards(n_shards);
        let plan = ExecutionPlan::build_for(shape.algo, shape.topology, n_shards, reduce);
        let time = |w: &GpuKernelWork| gpu_kernel_time(gpu, w);
        let mut per_iter = 0.0;
        // Shards holding rows, and their launches of one iteration.
        let (mut active_shards, mut launches) = (0u64, 0u64);
        // What a solo region adds per shard (resident shapes only).
        let mut residency = 0.0;
        // Row-partition like the plan: leading shards take the extra.
        let parts = partition(shape.particles as usize, n_shards);
        for (s, rows) in parts.into_iter().map(|(_, r)| r as u64).enumerate() {
            if rows == 0 {
                continue;
            }
            let (flops_per_dim, strategy) = (shape.flops_per_dim, shape.strategy);
            let tail_shape = TailShape {
                gpu,
                rows,
                d,
                flops_per_dim,
                strategy,
            };
            let tail = plan.tail_launches(s, &tail_shape);
            let prefix = shared_prefix(rows, d, flops_per_dim);
            let prefix_s: f64 = prefix.iter().map(time).sum();
            per_iter += tail
                .iter()
                .fold(prefix_s, |acc, desc| acc + time(&desc.work()));
            active_shards += 1;
            launches += (prefix.len() + tail.len()) as u64;
            if let Schedule::Resident { .. } = shape.schedule {
                let syncs = (plan.nodes.iter())
                    .filter(|n| n.shard == s && n.op == PlanOp::DeviceSync)
                    .count() as u64;
                residency += self.residency_s(shape, &tail_shape, syncs);
            }
        }
        let mut total = per_iter * shape.iterations as f64;
        let mut island_launches = 0u64;
        if islands > 1 {
            // Islands are single-shard (the serving layer rejects sharded
            // local topologies): one attractor-gather launch per iteration
            // — each particle scans its contiguous island block — plus a
            // migration launch every `every_k` iterations that scans the
            // swarm and copies one elite row per island edge (larger elite
            // counts are absorbed by the `+islands` calibration key).
            let rows = shape.particles.max(1);
            let window = rows.div_ceil(islands);
            let migs = shape.migration_launches();
            let gather = gpu_kernel_time(
                gpu,
                &GpuKernelWork::elementwise(rows, window * rows, window * 4 * rows, 8 * rows),
            );
            let migrate = gpu_kernel_time(
                gpu,
                &GpuKernelWork::elementwise(
                    rows,
                    rows,
                    rows * 4 + islands * d * 20,
                    islands * d * 20,
                ),
            );
            total += gather * shape.iterations as f64 + migrate * migs as f64;
            island_launches = shape.iterations + migs;
        }
        if let Schedule::Resident {
            slice,
            lane_share,
            region_misses,
            ..
        } = shape.schedule
        {
            // Device-resident execution: the per-kernel launch overheads
            // baked into every priced launch collapse into one region
            // launch per slice per shard.
            let overhead = gpu.kernel_launch_overhead_s;
            // The passes step on the job's stream lanes, billed at its lane
            // share; the region opens are not on a lane.
            let saved = overhead * (launches * shape.iterations + island_launches) as f64;
            let region = overhead * (slices(shape.iterations, slice) * active_shards) as f64;
            let passes = (total - saved) * lane_share;
            total = (passes + region).max(0.0);
            total += residency;
            // Each miss pays the driver instead of the pool hit every
            // in-region allocation is priced at, on the job's lanes.
            let miss = gpu.device_alloc_cost_s * (1.0 - CACHE_HIT_COST_FRACTION);
            total += region_misses as f64 * miss * lane_share;
        }
        total
    }

    /// The charges one shard of a [`Schedule::Resident`] shape pays beyond
    /// its passes and region opens: its init passes and allocations, the
    /// weight buffers each iteration requests, `syncs` grid barriers per
    /// iteration, a sharded shape's best exchange, the slice-boundary
    /// checkpoints and the result download (see [`CostPredictor::base_s`]).
    fn residency_s(&self, shape: &JobShape, tail: &TailShape<'_>, syncs: u64) -> f64 {
        let Schedule::Resident {
            slice,
            checkpoint_slices,
            sharers,
            pooled,
            lane_share,
            ..
        } = shape.schedule
        else {
            return 0.0;
        };
        let gpu = &self.gpu;
        let (rows, d, iters) = (tail.rows, tail.d, shape.iterations);
        let alg = algorithm_impl(shape.algo);
        let time = |desc: &KernelDesc| gpu_kernel_time(gpu, &desc.work());
        // An in-region pass: no launch overhead of its own.
        let pass = |desc: &KernelDesc| (time(desc) - gpu.kernel_launch_overhead_s).max(0.0);
        let extra = alg.init_extra_launch(tail);
        let init = pass(&init_swarm_desc(gpu, rows * d)) + extra.as_ref().map_or(0.0, pass);
        let buffers = (Shard::BUFFERS + u64::from(extra.is_some())) as f64;
        let buffers = buffers * (1.0 - pooled) + buffers * pooled * CACHE_HIT_COST_FRACTION;
        // The init's and each iteration's allocations, the barriers and the
        // best exchanges queue on the job's lanes, billed at its lane share.
        let allocs = gpu.device_alloc_cost_s
            * (buffers + (iters * alg.iteration_allocs(tail)) as f64 * CACHE_HIT_COST_FRACTION)
            * lane_share;
        let barriers = (iters * syncs) as f64 * GRID_SYNC_OVERHEAD_S * lane_share;
        let exchange = if shape.shards > 1 {
            iters as f64 * transfer_time(&self.link, best_exchange_bytes(d)) * lane_share
        } else {
            0.0
        };
        let captures = match checkpoint_slices {
            0 => 0,
            c => (slices(iters, slice) - 1) / c,
        };
        let elems = Shard::checkpoint_elems(rows, d, extra.is_some());
        let pack = pass(&KernelDesc::checkpoint_pack(Phase::Recovery, elems));
        let f32_bytes = std::mem::size_of::<f32>() as u64;
        // The share of each open and capture latency other jobs pay.
        let shared = 1.0 - 1.0 / sharers.max(1.0);
        let capture =
            pack + transfer_time(&self.link, elems * f32_bytes) - self.link.latency_s * shared;
        let download = transfer_time(&self.link, d * f32_bytes);
        let opens = slices(iters, slice) as f64 * gpu.kernel_launch_overhead_s * shared;
        let lanes = (init + download) * lane_share + allocs + barriers + exchange;
        lanes + captures as f64 * capture - opens
    }

    /// The calibrated multiplier currently applied to predictions under
    /// calibration key `key` (1.0 with no observations).
    pub fn coefficient(&self, key: &str) -> f64 {
        self.calib
            .get(key)
            .map(Calibration::coefficient)
            .unwrap_or(1.0)
    }

    /// Observations accumulated under calibration key `key`.
    pub fn observations(&self, key: &str) -> u64 {
        self.calib.get(key).map(|c| c.count).unwrap_or(0)
    }

    /// The calibrated estimate: analytic base times the shape's
    /// calibration-key mean observed/base ratio.
    pub fn predict_s(&self, shape: &JobShape) -> f64 {
        self.base_s(shape) * self.coefficient(&shape.calibration_key())
    }

    /// Feed one observed completion back into the calibration: `observed_s`
    /// device-seconds for a job of `shape`. Non-finite or non-positive
    /// observations (a job that ran zero iterations) are ignored.
    pub fn observe(&mut self, shape: &JobShape, observed_s: f64) {
        let base = self.base_s(shape);
        if !(observed_s.is_finite() && observed_s > 0.0 && base > 0.0) {
            return;
        }
        let c = self.calib.entry(shape.calibration_key()).or_default();
        c.sum_ratio += observed_s / base;
        c.count += 1;
    }

    /// Relative prediction error against an observation:
    /// `|predicted - observed| / observed`.
    pub fn relative_error(&self, shape: &JobShape, observed_s: f64) -> f64 {
        (self.predict_s(shape) - observed_s).abs() / observed_s.abs().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Migration, MigrationKind};

    /// What `shape` pays on its resident schedule beyond its passes and
    /// region opens: [`CostPredictor::residency_s`] summed over its shards.
    fn residency(p: &CostPredictor, shape: &JobShape) -> f64 {
        let n = shape.shards as usize;
        let plan =
            ExecutionPlan::build_for(shape.algo, shape.topology, n, BestReduce::for_shards(n));
        let shard = |(s, (_, rows)): (usize, (usize, usize))| {
            let syncs = (plan.nodes.iter())
                .filter(|node| node.shard == s && node.op == PlanOp::DeviceSync)
                .count() as u64;
            let tail = TailShape {
                gpu: &p.gpu,
                rows: rows as u64,
                d: shape.dim,
                flops_per_dim: shape.flops_per_dim,
                strategy: shape.strategy,
            };
            p.residency_s(shape, &tail, syncs)
        };
        partition(shape.particles as usize, n)
            .into_iter()
            .enumerate()
            .map(shard)
            .sum()
    }

    /// The launch overheads a one-region run of `shape` saves against its
    /// per-launch price, its residency charges aside.
    fn region_savings(p: &CostPredictor, shape: &JobShape) -> f64 {
        let whole = shape.clone().schedule(resident(0, 0));
        p.base_s(shape) - p.base_s(&whole) + residency(p, &whole)
    }

    fn islands(islands: usize, every_k: usize) -> Topology {
        Topology::Islands {
            islands,
            migration: Migration {
                kind: MigrationKind::Ring,
                every_k,
                elites: 1,
            },
        }
    }

    #[test]
    fn base_scales_with_work() {
        let p = CostPredictor::v100();
        let small = p.base_s(&JobShape::new(1000, 50, 100, UpdateStrategy::GlobalMem));
        let more_iters = p.base_s(&JobShape::new(1000, 50, 200, UpdateStrategy::GlobalMem));
        let bigger = p.base_s(&JobShape::new(4000, 50, 100, UpdateStrategy::GlobalMem));
        assert!((more_iters / small - 2.0).abs() < 1e-9, "linear in iters");
        assert!(bigger > small, "more particles cost more");
    }

    #[test]
    fn strategy_ordering_matches_the_modeled_kernels() {
        let p = CostPredictor::v100();
        let s = |strategy| p.base_s(&JobShape::new(5000, 100, 100, strategy));
        assert!(
            s(UpdateStrategy::ForLoop) > s(UpdateStrategy::GlobalMem),
            "latency-bound for-loop must price slowest"
        );
        assert!(
            s(UpdateStrategy::LowComplexity) < s(UpdateStrategy::GlobalMem),
            "reduced-work rung must price cheapest: {} vs {}",
            s(UpdateStrategy::LowComplexity),
            s(UpdateStrategy::GlobalMem)
        );
        // Tiling saves the broadcast's DRAM reads but stages every operand
        // through shared memory; at this size the kernels model the
        // staging as costing more than it saves.
        assert!(
            s(UpdateStrategy::SharedMem) > s(UpdateStrategy::GlobalMem),
            "shared-memory staging outweighs the broadcast traffic it saves"
        );
    }

    #[test]
    fn sharding_splits_rows() {
        let p = CostPredictor::v100();
        let one = p.base_s(&JobShape::new(10000, 50, 100, UpdateStrategy::GlobalMem));
        let four = p.base_s(&JobShape::new(10000, 50, 100, UpdateStrategy::GlobalMem).shards(4));
        // Four shards pay 4x the launch overhead but each covers a quarter
        // of the rows; the total stays within a small factor of the
        // single-shard schedule.
        assert!(four > one * 0.5 && four < one * 4.0);
    }

    #[test]
    fn calibration_is_the_mean_ratio_per_strategy() {
        let mut p = CostPredictor::v100();
        let a = JobShape::new(1000, 50, 100, UpdateStrategy::GlobalMem);
        let b = JobShape::new(2000, 20, 300, UpdateStrategy::GlobalMem);
        let base_a = p.base_s(&a);
        let base_b = p.base_s(&b);
        p.observe(&a, base_a * 2.0);
        p.observe(&b, base_b * 4.0);
        assert_eq!(p.observations("global"), 2);
        assert!((p.coefficient("global") - 3.0).abs() < 1e-12);
        // Other strategies stay uncalibrated.
        assert_eq!(p.coefficient("lowcomp"), 1.0);
        assert_eq!(p.observations("lowcomp"), 0);
    }

    #[test]
    fn degenerate_observations_are_ignored() {
        let mut p = CostPredictor::v100();
        let shape = JobShape::new(100, 10, 10, UpdateStrategy::GlobalMem);
        p.observe(&shape, 0.0);
        p.observe(&shape, f64::NAN);
        p.observe(&shape, -1.0);
        assert_eq!(p.observations("global"), 0);
        assert_eq!(p.coefficient("global"), 1.0);
    }

    #[test]
    fn resident_shapes_price_one_launch_per_slice() {
        let p = CostPredictor::v100();
        let solo = JobShape::new(64, 8, 80, UpdateStrategy::GlobalMem);
        let sliced = solo.clone().schedule(resident(8, 0)); // ceil(80/8) = 10 slices
        let whole = solo.clone().schedule(resident(0, 0)); // one region for the run
        let base = p.base_s(&solo);
        let t_sliced = p.base_s(&sliced);
        let t_whole = p.base_s(&whole);
        assert!(t_whole < t_sliced && t_sliced < base);
        // Residency charges aside, savings are launch-overhead arithmetic:
        // solo pays 7·iters launches, sliced pays ceil(iters/slice), whole
        // pays 1. The implied per-launch overhead must agree between the
        // two.
        let per_launch_a = (base - t_sliced + residency(&p, &sliced)) / (7.0 * 80.0 - 10.0);
        let per_launch_b = region_savings(&p, &solo) / (7.0 * 80.0 - 1.0);
        assert!((per_launch_a - per_launch_b).abs() < 1e-15);
        assert!(per_launch_a > 0.0);
    }

    #[test]
    fn resident_calibration_is_keyed_separately() {
        let mut p = CostPredictor::v100();
        let shape = JobShape::new(64, 8, 80, UpdateStrategy::GlobalMem).schedule(resident(8, 1));
        let base = p.base_s(&shape);
        p.observe(&shape, base * 2.0);
        assert_eq!(p.observations("global+resident"), 1);
        assert_eq!(p.observations("global"), 0);
        assert_eq!(p.coefficient("global"), 1.0);
        assert!((p.predict_s(&shape) - base * 2.0).abs() < 1e-12);
        // The per-launch rung is untouched by resident observations.
        let solo = JobShape::new(64, 8, 80, UpdateStrategy::GlobalMem);
        assert!((p.predict_s(&solo) - p.base_s(&solo)).abs() < 1e-15);
    }

    fn resident(slice: u64, checkpoint_slices: u64) -> Schedule {
        lanes(slice, checkpoint_slices, 1.0)
    }

    /// A lone resident job billed `lane_share` of its lane seconds.
    fn lanes(slice: u64, checkpoint_slices: u64, lane_share: f64) -> Schedule {
        Schedule::Resident {
            slice,
            checkpoint_slices,
            sharers: 1.0,
            pooled: 0.0,
            lane_share,
            region_misses: 0,
        }
    }

    #[test]
    fn the_lane_share_bills_only_in_region_seconds() {
        let p = CostPredictor::v100();
        for shards in [1, 3] {
            let shape = JobShape::new(96, 8, 80, UpdateStrategy::GlobalMem).shards(shards);
            let at = |lane_share| p.base_s(&shape.clone().schedule(lanes(8, 1, lane_share)));
            // Affine in the share: what stays outside the lanes (region
            // opens and captures) is billed in full at any share.
            let (none, half, full) = (at(0.0), at(0.5), at(1.0));
            assert!(none > 0.0 && none < half && half < full);
            assert!(((full - half) - (half - none)).abs() < 1e-15 * full);
            assert_eq!(full, p.base_s(&shape.clone().schedule(resident(8, 1))));
        }
    }

    #[test]
    fn resident_shapes_add_the_charges_a_solo_region_exposes() {
        let p = CostPredictor::v100();
        for algo in Algorithm::ALL {
            let shape = JobShape::new(64, 8, 80, UpdateStrategy::GlobalMem).algorithm(algo);
            let uncaptured = p.base_s(&shape.clone().schedule(resident(8, 0)));
            let every = p.base_s(&shape.clone().schedule(resident(8, 1)));
            let every_other = p.base_s(&shape.clone().schedule(resident(8, 2)));
            let charges = residency(&p, &shape.clone().schedule(resident(8, 0)));
            assert!(charges > 0.0, "{algo}: the init and syncs are free");
            // Ten slices: nine boundaries with a job still running.
            let capture = (every - uncaptured) / 9.0;
            assert!(capture > p.link.latency_s, "{algo}: {capture}");
            assert!(((every_other - uncaptured) / 4.0 - capture).abs() < 1e-15);
            assert_eq!(
                shape.schedule(resident(8, 1)).calibration_key(),
                match algo {
                    Algorithm::Pso => "global+resident".to_string(),
                    other => format!("{other}:global+resident"),
                }
            );
        }
    }

    /// Running resident is the cheaper schedule for every shape the
    /// service steps, so serving every job resident picks what a price
    /// comparison would: 40 iterations, 8 per slice, a capture at every
    /// boundary and, when sharded, a best exchange every iteration, against
    /// the per-launch price, which carries neither. 2560×64 is exactly a
    /// V100's 163 840 resident threads; 4096×64 is above it and runs
    /// grid-stride.
    #[test]
    fn resident_prices_below_launches_for_every_shape() {
        let p = CostPredictor::v100();
        for algo in Algorithm::ALL {
            for strategy in UpdateStrategy::ALL {
                for (n, d) in [(64, 8), (2560, 64), (4096, 64)] {
                    for shards in [1, 2, 3] {
                        let shape = JobShape::new(n, d, 40, strategy)
                            .algorithm(algo)
                            .shards(shards);
                        let res = p.base_s(&shape.clone().schedule(resident(8, 1)));
                        let launches = p.base_s(&shape);
                        assert!(
                            res < launches,
                            "{algo}/{strategy} {n}x{d}/{shards}: resident {res:e} vs \
                             launches {launches:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_resident_shapes_add_one_best_exchange_per_shard_and_iteration() {
        let p = CostPredictor::v100();
        // What residency adds to `shape` over its passes and opens.
        let added = |shape: JobShape| residency(&p, &shape.schedule(resident(8, 0)));
        let solo = JobShape::new(64, 8, 40, UpdateStrategy::GlobalMem);
        let sharded = JobShape::new(128, 8, 40, UpdateStrategy::GlobalMem).shards(2);
        // Each of the two 64-row shards adds what the 64-row solo job adds,
        // plus one exchange of its local best per iteration.
        let exchange = transfer_time(&p.link, best_exchange_bytes(8));
        let per_shard = added(sharded) / 2.0;
        assert!((per_shard - added(solo) - 40.0 * exchange).abs() < 1e-15);
        assert_eq!(best_exchange_bytes(8), 36);
    }

    #[test]
    fn relative_error_is_zero_after_single_shape_calibration() {
        let mut p = CostPredictor::v100();
        let shape = JobShape::new(500, 30, 200, UpdateStrategy::SharedMem);
        p.observe(&shape, 0.123);
        assert!(p.relative_error(&shape, 0.123) < 1e-12);
    }

    #[test]
    fn algorithms_price_their_own_kernel_schedules() {
        let p = CostPredictor::v100();
        let pso = JobShape::new(5000, 100, 100, UpdateStrategy::GlobalMem);
        let sso = pso.clone().algorithm(Algorithm::Sso);
        let gfwa = pso.clone().algorithm(Algorithm::Gfwa);
        // SSO replaces two weight launches + the velocity/position pair
        // with one index-sampling launch: strictly cheaper per iteration.
        assert!(p.base_s(&sso) < p.base_s(&pso));
        // GFWA evaluates 8 sparks per firework on top of the shared
        // prefix: strictly pricier than both.
        assert!(p.base_s(&gfwa) > p.base_s(&pso));
    }

    #[test]
    fn resident_savings_use_per_algorithm_launch_counts() {
        let p = CostPredictor::v100();
        for (algo, launches) in [
            (Algorithm::Pso, 7.0),
            (Algorithm::Sso, 4.0),
            (Algorithm::Gfwa, 8.0),
        ] {
            let solo = JobShape::new(64, 8, 80, UpdateStrategy::GlobalMem).algorithm(algo);
            let per_launch = region_savings(&p, &solo) / (launches * 80.0 - 1.0);
            assert!(per_launch > 0.0, "{algo}: residency must save launches");
            // All three must imply the same per-launch overhead once
            // divided by their own launch count.
            let pso_solo = JobShape::new(64, 8, 80, UpdateStrategy::GlobalMem);
            let pso_per_launch = region_savings(&p, &pso_solo) / (7.0 * 80.0 - 1.0);
            assert!(
                (per_launch - pso_per_launch).abs() < 1e-15,
                "{algo}: per-launch overhead must match the device constant"
            );
        }
    }

    #[test]
    fn calibration_keys_are_algorithm_qualified_except_pso() {
        let pso = JobShape::new(64, 8, 80, UpdateStrategy::GlobalMem);
        assert_eq!(pso.calibration_key(), "global");
        assert_eq!(
            pso.clone().schedule(resident(4, 1)).calibration_key(),
            "global+resident"
        );
        let sso = pso.clone().algorithm(Algorithm::Sso);
        assert_eq!(sso.calibration_key(), "sso:global");
        assert_eq!(
            pso.clone()
                .algorithm(Algorithm::Gfwa)
                .schedule(resident(4, 1))
                .calibration_key(),
            "gfwa:global+resident"
        );
    }

    #[test]
    fn island_shapes_price_their_extra_launches_and_key_separately() {
        let p = CostPredictor::v100();
        let solo = JobShape::new(256, 32, 200, UpdateStrategy::GlobalMem);
        let isl = solo.clone().topology(islands(8, 10));
        let no_mig = solo.clone().topology(islands(8, 0));
        // The gather runs every iteration, migration every 10th: islands
        // must price strictly above the single swarm, and migration above
        // gather-only.
        assert!(p.base_s(&no_mig) > p.base_s(&solo));
        assert!(p.base_s(&isl) > p.base_s(&no_mig));
        // A degenerate single-island shape is byte-identical to the plain
        // schedule — existing predictions and keys are untouched.
        let one = solo.clone().topology(islands(1, 10));
        assert_eq!(p.base_s(&one), p.base_s(&solo));
        assert_eq!(one.calibration_key(), "global");
        assert_eq!(isl.calibration_key(), "global+islands");
        assert_eq!(
            isl.clone().schedule(resident(4, 1)).calibration_key(),
            "global+resident+islands"
        );
        assert_eq!(
            isl.clone().algorithm(Algorithm::Sso).calibration_key(),
            "sso:global+islands"
        );
    }

    #[test]
    fn island_observations_leave_single_swarm_coefficients_untouched() {
        let mut p = CostPredictor::v100();
        let isl = JobShape::new(256, 32, 200, UpdateStrategy::GlobalMem).topology(islands(4, 5));
        let base = p.base_s(&isl);
        p.observe(&isl, base * 2.0);
        assert_eq!(p.observations("global+islands"), 1);
        assert!((p.coefficient("global+islands") - 2.0).abs() < 1e-12);
        assert_eq!(p.observations("global"), 0);
        let solo = JobShape::new(256, 32, 200, UpdateStrategy::GlobalMem);
        assert!((p.predict_s(&solo) - p.base_s(&solo)).abs() < 1e-15);
    }

    #[test]
    fn resident_island_shapes_collapse_their_extra_launches_too() {
        let p = CostPredictor::v100();
        let isl = JobShape::new(64, 8, 80, UpdateStrategy::GlobalMem).topology(islands(4, 10));
        // 7 PSO launches + 1 gather per iteration + 8 migrations, minus
        // the single region launch.
        let per_launch = region_savings(&p, &isl) / ((7.0 + 1.0) * 80.0 + 8.0 - 1.0);
        let pso = JobShape::new(64, 8, 80, UpdateStrategy::GlobalMem);
        let pso_per_launch = region_savings(&p, &pso) / (7.0 * 80.0 - 1.0);
        assert!(
            (per_launch - pso_per_launch).abs() < 1e-15,
            "island launches must collapse at the same device constant"
        );
    }

    #[test]
    fn non_pso_observations_leave_pso_coefficients_untouched() {
        let mut p = CostPredictor::v100();
        let sso = JobShape::new(1000, 50, 100, UpdateStrategy::GlobalMem).algorithm(Algorithm::Sso);
        let base = p.base_s(&sso);
        p.observe(&sso, base * 3.0);
        assert_eq!(p.observations("sso:global"), 1);
        assert!((p.coefficient("sso:global") - 3.0).abs() < 1e-12);
        assert_eq!(p.observations("global"), 0);
        assert_eq!(p.coefficient("global"), 1.0);
        let pso = JobShape::new(1000, 50, 100, UpdateStrategy::GlobalMem);
        assert!((p.predict_s(&pso) - p.base_s(&pso)).abs() < 1e-15);
    }
}
