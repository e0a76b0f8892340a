//! The GPU kernels of FastPSO, expressed against the simulator.
//!
//! Every kernel operates on a [`Shard`] — a contiguous block of particle
//! rows resident on one device. The single-GPU backend uses one shard
//! covering the whole swarm; the multi-GPU strategies split rows across
//! shards. Random weights are addressed by *global* element index, so a
//! sharded run draws exactly the numbers a single-device run draws.

use crate::config::{AttractorSemantics, PsoConfig};
use crate::cost::RNG_FLOPS_PER_DRAW;
use crate::error::PsoError;
use crate::math::{position_update_elem, velocity_update_elem};
use crate::swarm::domains;
use crate::topology::{self, ring_neighborhood_best, Migration};
use fastpso_functions::Objective;
use fastpso_prng::Philox;
use gpu_sim::reduce::MinResult;
use gpu_sim::tiled::TILE_SIZE;
use gpu_sim::{Device, DeviceBuffer, KernelCost, KernelDesc, LaunchConfig, MemoryPattern, Phase};
use perf_model::GpuProfile;
use std::fmt;
use std::str::FromStr;

/// Flop estimate of one velocity-update element (Equation 1 + clamp).
pub const VELOCITY_FLOPS_PER_ELEM: u64 = 10;
/// Flop estimate of one position-update element (Equation 2).
pub const POSITION_FLOPS_PER_ELEM: u64 = 2;
/// Flop estimate of one low-complexity velocity-update element: the scalar
/// per-particle weights fold the `c1·l` / `c2·g` products into per-row
/// constants, saving two multiplies per element versus Equation 1.
pub const LOWC_VELOCITY_FLOPS_PER_ELEM: u64 = 8;

/// How the swarm-update kernels touch memory (Figure 6's technique axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UpdateStrategy {
    /// Plain element-wise kernels on global memory.
    #[default]
    GlobalMem,
    /// Stage operand tiles through shared memory (paper §3.5).
    SharedMem,
    /// Warp-level tensor-core fragments with f16 operands (paper §3.5).
    /// Numerics differ from the other strategies by documented f16 rounding.
    TensorCore,
    /// Naive one-thread-per-particle for-loop (the paper's strawman
    /// baseline). Bitwise identical to [`UpdateStrategy::GlobalMem`] but
    /// modeled with `rows` threads striding over `d` columns — the slowest
    /// rung, kept as the last resort of the resilience layer's graceful
    /// degradation chain (see `resilience` module).
    ForLoop,
    /// Reduced-work update after Sohail et al.'s low-complexity PSO: one
    /// random cognitive/social weight per *particle* instead of one per
    /// element, so the per-iteration RNG work drops from `2·n·d` draws to
    /// `2·n` and the velocity kernel reads two scalars per row instead of
    /// two matrices. The trajectory **differs** from the full-complexity
    /// strategies by construction (documented, like
    /// [`UpdateStrategy::TensorCore`]'s f16 rounding) — this rung exists
    /// for time-critical serving, where the admission controller downgrades
    /// deadline-pressed jobs onto it rather than shedding them.
    LowComplexity,
}

impl UpdateStrategy {
    /// All strategies, in the paper's Figure 6 order (the reduced-work
    /// serving rung last).
    pub const ALL: [UpdateStrategy; 5] = [
        UpdateStrategy::GlobalMem,
        UpdateStrategy::SharedMem,
        UpdateStrategy::TensorCore,
        UpdateStrategy::ForLoop,
        UpdateStrategy::LowComplexity,
    ];
}

/// Canonical short names, matching the `fastpso-<suffix>` backend naming
/// (the default strategy prints as `global`).
impl fmt::Display for UpdateStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UpdateStrategy::GlobalMem => "global",
            UpdateStrategy::SharedMem => "smem",
            UpdateStrategy::TensorCore => "tensor",
            UpdateStrategy::ForLoop => "forloop",
            UpdateStrategy::LowComplexity => "lowcomp",
        })
    }
}

/// Parses the canonical short names plus common aliases, case-insensitively.
///
/// Accepted spellings per variant (canonical name first — the one
/// [`Display`](fmt::Display) prints, so `Display` → `FromStr` always
/// round-trips):
///
/// | Variant | Accepted (case-insensitive) |
/// |---|---|
/// | [`UpdateStrategy::GlobalMem`] | `global`, `globalmem`, `global-mem` |
/// | [`UpdateStrategy::SharedMem`] | `smem`, `shared`, `sharedmem`, `shared-mem` |
/// | [`UpdateStrategy::TensorCore`] | `tensor`, `tensorcore`, `tensor-core`, `wmma` |
/// | [`UpdateStrategy::ForLoop`] | `forloop`, `for-loop`, `naive` |
/// | [`UpdateStrategy::LowComplexity`] | `lowcomp`, `lowcomplexity`, `low-complexity` |
///
/// ```
/// use fastpso::UpdateStrategy;
/// assert_eq!("WMMA".parse::<UpdateStrategy>().unwrap(), UpdateStrategy::TensorCore);
/// assert_eq!(
///     UpdateStrategy::SharedMem.to_string().parse::<UpdateStrategy>().unwrap(),
///     UpdateStrategy::SharedMem,
/// );
/// assert!("cuda".parse::<UpdateStrategy>().is_err());
/// ```
impl FromStr for UpdateStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "global" | "globalmem" | "global-mem" => Ok(UpdateStrategy::GlobalMem),
            "smem" | "shared" | "sharedmem" | "shared-mem" => Ok(UpdateStrategy::SharedMem),
            "tensor" | "tensorcore" | "tensor-core" | "wmma" => Ok(UpdateStrategy::TensorCore),
            "forloop" | "for-loop" | "naive" => Ok(UpdateStrategy::ForLoop),
            "lowcomp" | "lowcomplexity" | "low-complexity" => Ok(UpdateStrategy::LowComplexity),
            other => Err(format!(
                "unknown update strategy '{other}' (expected one of: global, smem, tensor, \
                 forloop, lowcomp)"
            )),
        }
    }
}

/// A contiguous block of particle rows resident on one device.
pub struct Shard {
    /// First (global) particle row this shard owns.
    pub row0: usize,
    /// Number of rows.
    pub rows: usize,
    /// Dimensionality.
    pub d: usize,
    /// Positions (`rows × d`).
    pub pos: DeviceBuffer<f32>,
    /// Velocities (`rows × d`).
    pub vel: DeviceBuffer<f32>,
    /// Cognitive weight matrix `L` (`rows × d`).
    pub l: DeviceBuffer<f32>,
    /// Social weight matrix `G` (`rows × d`).
    pub g: DeviceBuffer<f32>,
    /// Current errors (`rows`).
    pub errors: DeviceBuffer<f32>,
    /// Per-particle best errors (`rows`).
    pub pbest_err: DeviceBuffer<f32>,
    /// Per-particle best positions (`rows × d`).
    pub pbest_pos: DeviceBuffer<f32>,
    /// Swarm-best position this shard tracks (`d`).
    pub gbest_pos: DeviceBuffer<f32>,
    /// Swarm-best error this shard tracks (device-resident scalar).
    pub gbest_err: f32,
    /// Algorithm-specific per-row state (`rows`), allocated lazily by the
    /// algorithms that declare it ([`crate::SwarmAlgorithm::init_extra`]).
    /// GFWA stores its per-firework explosion amplitudes here; PSO and SSO
    /// leave it `None`, so their allocation traffic is unchanged.
    pub extra: Option<DeviceBuffer<f32>>,
}

impl Shard {
    /// Device buffers [`Shard::alloc`] allocates.
    pub const BUFFERS: u64 = 8;

    /// Elements of the state a checkpoint of a `rows × d` shard packs
    /// ([`crate::ShardCheckpoint::capture_many`]): positions, velocities,
    /// errors, best errors, best positions and the swarm best, plus one
    /// per row when the shard carries `extra` state. The weight matrices
    /// are regenerated, never captured.
    pub fn checkpoint_elems(rows: u64, d: u64, extra: bool) -> u64 {
        3 * rows * d + 2 * rows + d + if extra { rows } else { 0 }
    }

    /// The buffers a checkpoint packs, in capture order; their lengths
    /// sum to [`Shard::checkpoint_elems`].
    pub fn checkpoint_buffers(&self) -> impl Iterator<Item = &DeviceBuffer<f32>> {
        [
            &self.pos,
            &self.vel,
            &self.errors,
            &self.pbest_err,
            &self.pbest_pos,
            &self.gbest_pos,
        ]
        .into_iter()
        .chain(self.extra.as_ref())
    }

    /// Allocate a shard on `dev` for rows `[row0, row0 + rows)`.
    pub fn alloc(dev: &Device, row0: usize, rows: usize, d: usize) -> Result<Shard, PsoError> {
        Ok(Shard {
            row0,
            rows,
            d,
            pos: dev.alloc(rows * d)?,
            vel: dev.alloc(rows * d)?,
            l: dev.alloc(rows * d)?,
            g: dev.alloc(rows * d)?,
            errors: dev.alloc(rows)?,
            pbest_err: dev.alloc(rows)?,
            pbest_pos: dev.alloc(rows * d)?,
            gbest_pos: dev.alloc(d)?,
            gbest_err: f32::INFINITY,
            extra: None,
        })
    }

    /// Number of matrix elements in this shard.
    pub fn elems(&self) -> usize {
        self.rows * self.d
    }
}

/// One evaluation launch over `points` candidate rows of `d` dimensions:
/// one thread per row, reading the row and writing its error.
fn eval_desc(
    gpu: &GpuProfile,
    name: &'static str,
    phase: Phase,
    points: u64,
    d: u64,
    flops_per_dim: u64,
) -> KernelDesc {
    let cost = KernelCost::elementwise(d * flops_per_dim, d * 4, 4);
    KernelDesc::resource_aware(name, phase, cost, points, gpu)
}

/// The `init_swarm` launch over a shard of `elems` elements
/// ([`init_shard`]).
pub(crate) fn init_swarm_desc(gpu: &GpuProfile, elems: u64) -> KernelDesc {
    let cost = KernelCost::elementwise(2 * RNG_FLOPS_PER_DRAW, 0, 8);
    KernelDesc::resource_aware("init_swarm", Phase::Init, cost, elems, gpu)
}

/// Step (i): initialize positions, velocities and best-state on the device
/// with parallel counter-based RNG (paper §3.1), in one element-wise launch
/// ("init_swarm") over the `rows × d` index space: element `i` draws its
/// position and velocity from their own Philox domains at its global
/// index, and each row's best error starts at infinity. Charged two draws
/// and two 4-byte writes per element plus the 4-byte best error per row.
/// The fault gate fires before anything is written, so the op retries as
/// a whole.
pub fn init_shard(
    dev: &Device,
    shard: &mut Shard,
    cfg: &PsoConfig,
    domain: (f32, f32),
) -> Result<(), PsoError> {
    let rng = Philox::new(cfg.seed);
    let (lo, hi) = domain;
    let vscale = cfg.init_velocity_scale * (hi - lo);
    let (row0, d) = (shard.row0, shard.d);
    let desc = init_swarm_desc(&dev.profile(), shard.elems() as u64);
    dev.launch_rows(
        &desc,
        KernelCost::elementwise(0, 0, 4),
        shard.pos.as_mut_slice(),
        shard.vel.as_mut_slice(),
        shard.pbest_err.as_mut_slice(),
        |r, pos, vel, best| {
            let g0 = ((row0 + r) * d) as u64;
            for (c, (p, v)) in pos.iter_mut().zip(vel.iter_mut()).enumerate() {
                let g = g0 + c as u64;
                *p = rng.uniform_range_at(g, domains::INIT_POS, lo, hi);
                *v = rng.uniform_range_at(g, domains::INIT_VEL, -vscale, vscale);
            }
            *best = f32::INFINITY;
        },
    )?;
    shard.gbest_err = f32::INFINITY;
    Ok(())
}

/// The two weight-generation launches of one iteration over a `rows × d`
/// shard, `L` then `G`: one draw per element, or one per particle row
/// under [`UpdateStrategy::LowComplexity`] (Sohail et al.: `d`-fold fewer
/// draws, the dominant saving of that rung).
pub(crate) fn gen_weights_descs(
    gpu: &GpuProfile,
    rows: u64,
    d: u64,
    strategy: UpdateStrategy,
) -> [KernelDesc; 2] {
    let cost = KernelCost::elementwise(RNG_FLOPS_PER_DRAW, 0, 4);
    let (names, draws) = if strategy == UpdateStrategy::LowComplexity {
        (["gen_l_weights_lowcomp", "gen_g_weights_lowcomp"], rows)
    } else {
        (["gen_l_weights", "gen_g_weights"], rows * d)
    };
    names.map(|name| KernelDesc::resource_aware(name, Phase::Init, cost, draws, gpu))
}

/// Generate this iteration's `L` and `G` weight matrices on the device
/// (`gen_weights_descs`). Charged to the Init phase, matching the paper's
/// breakdown (§3.1 treats per-iteration weight generation as part of swarm
/// initialization). Draws are addressed by *global* element index — by
/// global row index under [`UpdateStrategy::LowComplexity`] — so sharded
/// runs draw exactly what a single-device run draws.
pub fn gen_weights(
    dev: &Device,
    shard: &mut Shard,
    cfg: &PsoConfig,
    t: usize,
    strategy: UpdateStrategy,
) -> Result<(), PsoError> {
    let rng = Philox::new(cfg.seed);
    let [l_desc, g_desc] =
        gen_weights_descs(&dev.profile(), shard.rows as u64, shard.d as u64, strategy);
    // Each row draws `d` numbers, or one under the low-complexity rung.
    let first = shard.row0 * (l_desc.elems as usize / shard.rows.max(1));
    // The weight matrices are requested fresh every iteration — the exact
    // scenario of the paper's Table 4. Under the caching allocator these
    // requests are pool hits; in `Realloc` mode each pays a driver
    // round-trip. (The previous iteration's buffers return to the pool
    // when the assignments below drop them.)
    // One buffer per weight launch: [`SwarmAlgorithm::iteration_allocs`]
    // counts them off the descriptors.
    let mut l = dev.alloc::<f32>(l_desc.elems as usize)?;
    let mut g = dev.alloc::<f32>(g_desc.elems as usize)?;
    for (desc, out, dom) in [
        (&l_desc, &mut l, domains::l_matrix(t)),
        (&g_desc, &mut g, domains::g_matrix(t)),
    ] {
        dev.launch_map(desc, out.as_mut_slice(), |i| {
            rng.uniform_at((first + i) as u64, dom)
        })?;
    }
    shard.l = l;
    shard.g = g;
    Ok(())
}

/// Step (ii): evaluate every particle (one thread per particle, as in
/// §3.2; the thread count is still resource-aware).
pub fn eval_shard(dev: &Device, shard: &mut Shard, obj: &dyn Objective) -> Result<(), PsoError> {
    let d = shard.d;
    let (rows, fpd) = (shard.rows as u64, obj.flops_per_dim());
    let desc = eval_desc(
        &dev.profile(),
        "evaluate_swarm",
        Phase::Eval,
        rows,
        d as u64,
        fpd,
    );
    let pos = shard.pos.as_slice();
    dev.launch_map(&desc, shard.errors.as_mut_slice(), |i| {
        obj.eval(&pos[i * d..(i + 1) * d])
    })?;
    Ok(())
}

/// Step (iii.a): per-particle best update. Returns how many particles
/// improved.
///
/// Element-wise, the paper's §3.1 layout: one thread per (particle, dim)
/// element, so the row copies of improved particles run at full occupancy
/// inside this launch. The compare is charged per row (one flop, the
/// current and best error read, the best error written); each improved
/// row adds its copy traffic, counted by the body's atomic and charged on
/// the same launch once the body has run.
pub fn pbest_update(dev: &Device, shard: &mut Shard) -> Result<u64, PsoError> {
    let d = shard.d;
    let elems = shard.elems() as u64;
    let desc = KernelDesc {
        threads: elems,
        config: Some(LaunchConfig::resource_aware(&dev.profile(), elems)),
        ..KernelDesc::resource_aware(
            "pbest_update",
            Phase::PBest,
            KernelCost::elementwise(1, 8, 4),
            shard.rows as u64,
            &dev.profile(),
        )
    };
    let errors = shard.errors.as_slice();
    let pos = shard.pos.as_slice();
    let improved = dev.launch_chunks2_counted(
        &desc,
        ROW_COPY,
        shard.pbest_err.as_mut_slice(),
        1,
        shard.pbest_pos.as_mut_slice(),
        d,
        |i, pb, pb_row| {
            let better = errors[i] < pb[0];
            if better {
                pb[0] = errors[i];
                pb_row.copy_from_slice(&pos[i * d..(i + 1) * d]);
            }
            better
        },
    )?;
    Ok(improved)
}

/// Per-element cost of copying a row into a best-position buffer: one
/// read, one write.
const ROW_COPY: KernelCost = KernelCost::elementwise(0, 4, 4);

/// Step (iii.b): find the shard's best particle (parallel reduction).
/// Returned index is *global*. Used by multi-shard plans, whose adoption
/// waits for the exchange.
pub fn local_argmin(dev: &Device, shard: &Shard) -> Result<MinResult, PsoError> {
    let mut r = dev.reduce_min_index(Phase::GBest, shard.pbest_err.as_slice())?;
    r.index += shard.row0;
    Ok(r)
}

/// Step (iii.b) on a single-shard plan: one argmin launch whose last block
/// also adopts the winner — copies its `pbest` row into `gbest_pos` — when
/// it improves on the shard's swarm best. The copy is charged on the same
/// launch. The fault gate fires before the adoption, so a faulted attempt
/// leaves `gbest` untouched. Returned index is *global*.
pub fn argmin_adopt(dev: &Device, shard: &mut Shard) -> Result<MinResult, PsoError> {
    let (d, row0) = (shard.d, shard.row0);
    let Shard {
        pbest_err,
        pbest_pos,
        gbest_pos,
        gbest_err,
        ..
    } = shard;
    let mut r =
        dev.reduce_min_index_then(Phase::GBest, pbest_err.as_slice(), ROW_COPY, |best| {
            if best.value < *gbest_err {
                let row = &pbest_pos.as_slice()[best.index * d..(best.index + 1) * d];
                gbest_pos.as_mut_slice().copy_from_slice(row);
                *gbest_err = best.value;
                d as u64
            } else {
                0
            }
        })?;
    r.index += row0;
    Ok(r)
}

/// Adopt a new swarm best from this shard's own `pbest_pos` (no
/// host↔device traffic; a device-to-device row copy). Multi-shard plans
/// only: a single shard adopts inside its argmin ([`argmin_adopt`]).
pub fn adopt_gbest_local(
    dev: &Device,
    shard: &mut Shard,
    global_index: usize,
    err: f32,
) -> Result<(), PsoError> {
    let local = global_index - shard.row0;
    let d = shard.d;
    let desc = KernelDesc::resource_aware(
        "gbest_copy",
        Phase::GBest,
        ROW_COPY,
        d as u64,
        &dev.profile(),
    );
    let src = shard.pbest_pos.as_slice()[local * d..(local + 1) * d].to_vec();
    dev.launch_map(&desc, shard.gbest_pos.as_mut_slice(), |i| src[i])?;
    shard.gbest_err = err;
    Ok(())
}

/// Adopt a new swarm best from host memory (multi-GPU broadcast path; the
/// transfer is charged to the GBest phase).
pub fn adopt_gbest_from_host(
    dev: &Device,
    shard: &mut Shard,
    pos_row: &[f32],
    err: f32,
) -> Result<(), PsoError> {
    let _ = dev; // transfer is charged through the buffer's device handle
    shard.gbest_pos.upload_in(Phase::GBest, pos_row)?;
    shard.gbest_err = err;
    Ok(())
}

/// Ring-topology support kernel: compute each particle's neighborhood-best
/// index over its `±k` ring window (one thread per particle, 2k+1 reads).
pub fn ring_lbest(dev: &Device, shard: &Shard, k: usize) -> Result<Vec<usize>, PsoError> {
    let n = shard.rows;
    // The effective window is clamped to the ring circumference.
    let window = (2 * k.min(n / 2) + 1) as u64;
    let desc = KernelDesc::resource_aware(
        "ring_lbest",
        Phase::GBest,
        KernelCost::elementwise(window, window * 4, 8),
        n as u64,
        &dev.profile(),
    );
    let mut out = vec![0usize; n];
    dev.charge_kernel(&desc);
    ring_neighborhood_best(shard.pbest_err.as_slice(), k, &mut out);
    Ok(out)
}

/// Island-topology support kernel: compute each particle's island-best
/// attractor index (one thread per particle scanning its contiguous
/// island block, like [`ring_lbest`]'s windowed scan). Ties resolve to the
/// lowest index, the global reduction's tie rule, so island runs stay
/// bit-identical across backends.
pub fn island_attractors(
    dev: &Device,
    shard: &Shard,
    islands: usize,
) -> Result<Vec<usize>, PsoError> {
    let n = shard.rows;
    let m = islands.clamp(1, n.max(1));
    // Each thread scans at most its island's rows (the largest island
    // bounds the window).
    let window = n.div_ceil(m) as u64;
    let desc = KernelDesc::resource_aware(
        "island_attractors",
        Phase::GBest,
        KernelCost::elementwise(window, window * 4, 8),
        n as u64,
        &dev.profile(),
    );
    dev.charge_kernel(&desc);
    let mut out = vec![0usize; n];
    topology::island_attractors(shard.pbest_err.as_slice(), m, &mut out);
    Ok(out)
}

/// Island-migration kernel: plan this iteration's elite exchange from the
/// pre-migration `pbest` state (see [`topology::plan_migration`]) and
/// commit it — each copied elite carries its full per-particle state
/// (position, velocity, `pbest` row and error, current error, and the
/// algorithm's `extra` row state, e.g. GFWA amplitudes), so every engine
/// migrates without per-engine code. All sources are snapshotted before
/// any write, making the whole op a pure function of the pre-migration
/// state — replays and post-restore resumes reproduce it bit-exactly.
///
/// Returns the number of migrated rows (the run's `migrations` rollup).
pub fn migrate_elites(
    dev: &Device,
    shard: &mut Shard,
    islands: usize,
    migration: Migration,
    t: usize,
    seed: u64,
) -> Result<u64, PsoError> {
    let d = shard.d;
    let pairs = topology::plan_migration(shard.pbest_err.as_slice(), islands, migration, t, seed);
    if pairs.is_empty() {
        return Ok(0);
    }
    // One thread per copied matrix element; each reads its source element
    // across the three row matrices and writes the destination.
    let desc = KernelDesc::resource_aware(
        "migrate_elites",
        Phase::GBest,
        KernelCost::elementwise(1, 12, 12),
        (pairs.len() * d) as u64,
        &dev.profile(),
    );
    dev.charge_kernel(&desc);

    struct EliteRow {
        pos: Vec<f32>,
        vel: Vec<f32>,
        pbest_pos: Vec<f32>,
        pbest_err: f32,
        err: f32,
        extra: Option<f32>,
    }
    let snapshot: Vec<(usize, EliteRow)> = pairs
        .iter()
        .map(|&(src, dst)| {
            (
                dst,
                EliteRow {
                    pos: shard.pos.as_slice()[src * d..(src + 1) * d].to_vec(),
                    vel: shard.vel.as_slice()[src * d..(src + 1) * d].to_vec(),
                    pbest_pos: shard.pbest_pos.as_slice()[src * d..(src + 1) * d].to_vec(),
                    pbest_err: shard.pbest_err.as_slice()[src],
                    err: shard.errors.as_slice()[src],
                    extra: shard.extra.as_ref().map(|a| a.as_slice()[src]),
                },
            )
        })
        .collect();
    for (dst, row) in snapshot {
        shard.pos.as_mut_slice()[dst * d..(dst + 1) * d].copy_from_slice(&row.pos);
        shard.vel.as_mut_slice()[dst * d..(dst + 1) * d].copy_from_slice(&row.vel);
        shard.pbest_pos.as_mut_slice()[dst * d..(dst + 1) * d].copy_from_slice(&row.pbest_pos);
        shard.pbest_err.as_mut_slice()[dst] = row.pbest_err;
        shard.errors.as_mut_slice()[dst] = row.err;
        if let (Some(buf), Some(v)) = (shard.extra.as_mut(), row.extra) {
            buf.as_mut_slice()[dst] = v;
        }
    }
    Ok(pairs.len() as u64)
}

/// ForLoop models the naive kernel: one thread per particle row looping
/// over its d columns (strided access), instead of one thread per
/// element. The arithmetic is the GlobalMem path verbatim, so results
/// stay bitwise identical — only the modeled cost differs.
fn naive_desc(name: &'static str, cost: KernelCost, rows: u64, d: u64) -> KernelDesc {
    KernelDesc {
        name,
        phase: Phase::SwarmUpdate,
        cost,
        elems: rows * d,
        threads: rows,
        config: Some(LaunchConfig::one_per_element(rows, 32)),
        pattern: MemoryPattern::Strided(d as u32),
    }
}

/// Per-element cost of the untiled velocity update. It reads V (in place),
/// P, L, G and the pbest attractor, plus the broadcast social attractor
/// (gbest / lbest row), which the untiled paths fetch from global memory
/// once per element. The shared-memory and tensor-core variants stage that
/// broadcast in on-chip storage, which is exactly the DRAM traffic the
/// paper's tiling technique saves (Table 3's ordering).
const VELOCITY_COST: KernelCost = KernelCost::elementwise(VELOCITY_FLOPS_PER_ELEM, 24, 4);
/// Per-element cost of the untiled position update: reads P (in place) and
/// V; writes P.
const POSITION_COST: KernelCost = KernelCost::elementwise(POSITION_FLOPS_PER_ELEM, 8, 4);
/// Per-element cost of the low-complexity velocity update: the per-row
/// scalar weights contribute two cached scalar reads per row instead of two
/// matrix elements per element, so the useful DRAM traffic drops from 24 to
/// 16 B/elem and two multiplies fold away (Sohail et al.).
const LOWC_VELOCITY_COST: KernelCost = KernelCost::elementwise(LOWC_VELOCITY_FLOPS_PER_ELEM, 16, 4);
/// The element arrays the staged (tiled and tensor-core) velocity kernels
/// read beside V: P, L, G and the pbest rows. The broadcast social
/// attractor stays on-chip.
const VELOCITY_INPUTS: usize = 4;

/// The velocity launch over a `rows × d` shard under strategy `s`: the one
/// descriptor [`velocity_update`] launches and the cost model prices.
pub(crate) fn velocity_desc(gpu: &GpuProfile, rows: u64, d: u64, s: UpdateStrategy) -> KernelDesc {
    let (elems, phase) = (rows * d, Phase::SwarmUpdate);
    let (flops, inputs) = (VELOCITY_FLOPS_PER_ELEM, VELOCITY_INPUTS);
    match s {
        UpdateStrategy::GlobalMem => {
            KernelDesc::resource_aware("velocity_update", phase, VELOCITY_COST, elems, gpu)
        }
        UpdateStrategy::ForLoop => naive_desc("velocity_update_forloop", VELOCITY_COST, rows, d),
        UpdateStrategy::SharedMem => {
            KernelDesc::tiled("velocity_update_smem", phase, flops, inputs, elems, gpu)
        }
        UpdateStrategy::TensorCore => {
            KernelDesc::tensor_elementwise("velocity_update_wmma", phase, flops, inputs, elems, gpu)
        }
        UpdateStrategy::LowComplexity => {
            let cost = LOWC_VELOCITY_COST;
            KernelDesc::resource_aware("velocity_update_lowcomp", phase, cost, elems, gpu)
        }
    }
}

/// The position launch over a `rows × d` shard under strategy `s`; see
/// `velocity_desc`. The low-complexity scheme only touches the velocity
/// half, so its position update is the global-memory launch.
pub(crate) fn position_desc(gpu: &GpuProfile, rows: u64, d: u64, s: UpdateStrategy) -> KernelDesc {
    let (elems, phase, flops) = (rows * d, Phase::SwarmUpdate, POSITION_FLOPS_PER_ELEM);
    match s {
        UpdateStrategy::GlobalMem | UpdateStrategy::LowComplexity => {
            KernelDesc::resource_aware("position_update", phase, POSITION_COST, elems, gpu)
        }
        UpdateStrategy::ForLoop => naive_desc("position_update_forloop", POSITION_COST, rows, d),
        UpdateStrategy::SharedMem => {
            KernelDesc::tiled("position_update_smem", phase, flops, 1, elems, gpu)
        }
        UpdateStrategy::TensorCore => {
            KernelDesc::tensor_elementwise("position_update_wmma", phase, flops, 1, elems, gpu)
        }
    }
}

/// The fused velocity + position launch over a `rows × d` shard: the exact
/// sum of the split pair's costs, strided one-thread-per-row under
/// [`UpdateStrategy::ForLoop`]. Only the untiled strategies fuse.
pub(crate) fn fused_desc(gpu: &GpuProfile, rows: u64, d: u64, s: UpdateStrategy) -> KernelDesc {
    let cost = KernelCost::elementwise(
        VELOCITY_FLOPS_PER_ELEM + POSITION_FLOPS_PER_ELEM,
        24 + 8,
        4 + 4,
    );
    if s == UpdateStrategy::ForLoop {
        naive_desc("swarm_update_fused_forloop", cost, rows, d)
    } else {
        let phase = Phase::SwarmUpdate;
        KernelDesc::resource_aware("swarm_update_fused", phase, cost, rows * d, gpu)
    }
}

/// What Equation 1 pulls a shard's elements toward, read once per launch:
/// the cognitive (pbest) and social (gbest, or the ring/island attractor
/// row) attractors, per [`AttractorSemantics`].
struct Attractors<'a> {
    d: usize,
    semantics: AttractorSemantics,
    lbest: Option<&'a [usize]>,
    pbest_pos: &'a [f32],
    pbest_err: &'a [f32],
    gbest_pos: &'a [f32],
    gbest_err: f32,
}

impl Attractors<'_> {
    /// The (cognitive, social) pair of element `i`, given the particle's
    /// own pbest element as the kernel read it.
    fn at(&self, i: usize, own_pbest: f32) -> (f32, f32) {
        let (row, col) = (i / self.d, i % self.d);
        match self.semantics {
            AttractorSemantics::PositionVectors => {
                let social = match self.lbest {
                    Some(lb) => self.pbest_pos[lb[row] * self.d + col],
                    None => self.gbest_pos[col],
                };
                (own_pbest, social)
            }
            AttractorSemantics::ScalarBroadcast => (self.pbest_err[row], self.gbest_err),
        }
    }
}

/// Launch the in-place update `desc` over `out`, staging operands the way
/// `strategy` names (tiles, tensor fragments or none): `f(i, ins, old)`
/// computes element `i` from `inputs` at `i` and `out`'s old value.
fn launch_staged<const N: usize>(
    dev: &Device,
    desc: &KernelDesc,
    strategy: UpdateStrategy,
    inputs: [&[f32]; N],
    out: &mut [f32],
    f: impl Fn(usize, [f32; N], f32) -> f32 + Sync,
) -> Result<(), PsoError> {
    let (name, phase) = (desc.name, desc.phase);
    match strategy {
        UpdateStrategy::SharedMem => {
            let tile = TILE_SIZE * TILE_SIZE;
            dev.launch_tiled(
                name,
                phase,
                desc.cost.flops,
                tile,
                &inputs,
                out,
                |i, at, ctx| {
                    f(
                        i,
                        std::array::from_fn(|k| ctx.inputs[k][at]),
                        ctx.out_old[at],
                    )
                },
            )
        }
        UpdateStrategy::TensorCore => {
            let flops = desc.cost.tensor_flops;
            dev.launch_tensor_elementwise(name, phase, flops, &inputs, out, |i, ins, old| {
                f(i, std::array::from_fn(|k| ins[k]), old)
            })
        }
        _ => dev.launch_update(desc, out, |i, old| {
            f(i, std::array::from_fn(|k| inputs[k][i]), old)
        }),
    }?;
    Ok(())
}

/// Velocity half of step (iv): Equation 1 plus the optional velocity bound,
/// in place on `V`, launched as `velocity_desc`. Exactly **one** kernel
/// launch per call, and the fault gate fires before any element is written
/// — so the resilience layer can retry this half in isolation without
/// double-applying the update.
pub fn velocity_update(
    dev: &Device,
    shard: &mut Shard,
    cfg: &PsoConfig,
    t: usize,
    bound: Option<f32>,
    strategy: UpdateStrategy,
    lbest: Option<&[usize]>,
) -> Result<(), PsoError> {
    let d = shard.d;
    let (omega, c1, c2) = (cfg.omega_at(t), cfg.c1, cfg.c2);
    let desc = velocity_desc(&dev.profile(), shard.rows as u64, d as u64, strategy);
    let attractors = Attractors {
        d,
        semantics: cfg.semantics,
        lbest,
        pbest_pos: shard.pbest_pos.as_slice(),
        pbest_err: shard.pbest_err.as_slice(),
        gbest_pos: shard.gbest_pos.as_slice(),
        gbest_err: shard.gbest_err,
    };
    let (pos, l, g) = (shard.pos.as_slice(), shard.l.as_slice(), shard.g.as_slice());
    let pbest_pos = attractors.pbest_pos;
    let vel = shard.vel.as_mut_slice();
    if strategy == UpdateStrategy::LowComplexity {
        // One weight per particle row: `L` and `G` hold `rows` scalars.
        dev.launch_update(&desc, vel, |i, v| {
            let (pb, gb) = attractors.at(i, pbest_pos[i]);
            velocity_update_elem(v, pos[i], l[i / d], g[i / d], pb, gb, omega, c1, c2, bound)
        })?;
        return Ok(());
    }
    let inputs: [&[f32]; VELOCITY_INPUTS] = [pos, l, g, pbest_pos];
    launch_staged(
        dev,
        &desc,
        strategy,
        inputs,
        vel,
        |i, [p, li, gi, own], v| {
            let (pb, gb) = attractors.at(i, own);
            velocity_update_elem(v, p, li, gi, pb, gb, omega, c1, c2, bound)
        },
    )
}

/// Position half of step (iv): Equation 2 in place on `P`, launched as
/// `position_desc`. Like [`velocity_update`], exactly one launch per call
/// and fault-gated before mutation, so it is individually retryable.
pub fn position_update(
    dev: &Device,
    shard: &mut Shard,
    strategy: UpdateStrategy,
) -> Result<(), PsoError> {
    let desc = position_desc(&dev.profile(), shard.rows as u64, shard.d as u64, strategy);
    let (vel, pos) = (shard.vel.as_slice(), shard.pos.as_mut_slice());
    launch_staged(dev, &desc, strategy, [vel], pos, |_, [v], p| {
        position_update_elem(p, v)
    })
}

/// Step (iv) as **one** fused launch (`fused_desc`): each logical thread
/// applies Equation 1 and Equation 2 to its element back-to-back, so the
/// intermediate velocity never makes a round trip through global memory
/// and one kernel-launch overhead is saved (cuPSO's fusion optimisation,
/// applied here by the [`crate::plan`] rewrite pass).
///
/// Only the untiled strategies fuse ([`UpdateStrategy::GlobalMem`] and
/// [`UpdateStrategy::ForLoop`]); the tiled variants keep their staging
/// pipelines and are left unfused by the rewrite pass. The fused cost is the
/// exact sum of the two split kernels' costs, so every profiler counter
/// except the launch count is preserved — the DRAM saving is priced
/// separately by the fusion ablation. Bitwise identical to
/// [`velocity_update`] then [`position_update`]: the element math is the
/// same two helpers in the same order. Unlike that pair, the single fault
/// gate fires before any element is written, so the fused launch retries
/// as one op.
pub fn fused_swarm_update(
    dev: &Device,
    shard: &mut Shard,
    cfg: &PsoConfig,
    t: usize,
    bound: Option<f32>,
    strategy: UpdateStrategy,
    lbest: Option<&[usize]>,
) -> Result<(), PsoError> {
    debug_assert!(
        matches!(
            strategy,
            UpdateStrategy::GlobalMem | UpdateStrategy::ForLoop
        ),
        "only the untiled strategies fuse"
    );
    let d = shard.d;
    let (omega, c1, c2) = (cfg.omega_at(t), cfg.c1, cfg.c2);
    let desc = fused_desc(&dev.profile(), shard.rows as u64, d as u64, strategy);
    let attractors = Attractors {
        d,
        semantics: cfg.semantics,
        lbest,
        pbest_pos: shard.pbest_pos.as_slice(),
        pbest_err: shard.pbest_err.as_slice(),
        gbest_pos: shard.gbest_pos.as_slice(),
        gbest_err: shard.gbest_err,
    };
    let (l, g, pbest_pos) = (shard.l.as_slice(), shard.g.as_slice(), attractors.pbest_pos);
    dev.launch_chunks2(
        &desc,
        shard.vel.as_mut_slice(),
        1,
        shard.pos.as_mut_slice(),
        1,
        |i, v, p| {
            let (pb, gb) = attractors.at(i, pbest_pos[i]);
            let nv = velocity_update_elem(v[0], p[0], l[i], g[i], pb, gb, omega, c1, c2, bound);
            v[0] = nv;
            p[0] = position_update_elem(p[0], nv);
        },
    )?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Discrete SSO (Yeh et al., arXiv:2110.01470)
// ---------------------------------------------------------------------------

/// SSO adoption threshold `Cg`: an element whose draw falls below it copies
/// the swarm-best value for its column.
pub const SSO_CG: f32 = 0.40;
/// SSO adoption threshold `Cp` (`Cg < Cp`): a draw in `[Cg, Cp)` copies the
/// particle's own pbest value.
pub const SSO_CP: f32 = 0.70;
/// SSO keep threshold `Cw` (`Cp < Cw`): a draw in `[Cp, Cw)` keeps the
/// current value; a draw above resamples uniformly from the domain.
pub const SSO_CW: f32 = 0.90;

/// The SSO update launch over a `rows × d` shard: one draw per element,
/// reading P (in place), the pbest element and the broadcast gbest value —
/// 12 useful bytes per element beside the draw.
pub(crate) fn sso_desc(gpu: &GpuProfile, rows: u64, d: u64) -> KernelDesc {
    let cost = KernelCost::elementwise(RNG_FLOPS_PER_DRAW + 4, 12, 4);
    KernelDesc::resource_aware("sso_update", Phase::SwarmUpdate, cost, rows * d, gpu)
}

/// The simplified-swarm-optimization update (Yeh et al.'s parallel SSO):
/// one draw per element selects among four sources — the swarm best, the
/// particle best, the current value, or a fresh uniform sample from the
/// domain (the draw's tail `(u − Cw)/(1 − Cw)` is remapped so a single
/// Philox draw covers both the choice and the resample). No velocity
/// arithmetic; `V` is untouched.
///
/// Exactly **one** fault-gated launch, and every output depends only on the
/// pre-launch state and the counter-based stream, so the resilience layer
/// can retry the whole op without double-applying it. Elements are
/// addressed *globally* (like every kernel here), so sharded runs draw
/// exactly what a single-device run draws.
///
/// Under a local topology (`lbest` is `Some`), the swarm-best source reads
/// the attractor particle's `pbest` row instead of the broadcast `gbest`
/// — the same substitution the PSO velocity kernels make, which is how
/// islands reach SSO without SSO-specific lowering.
pub fn sso_update(
    dev: &Device,
    shard: &mut Shard,
    cfg: &PsoConfig,
    t: usize,
    domain: (f32, f32),
    lbest: Option<&[usize]>,
) -> Result<(), PsoError> {
    let (lo, hi) = domain;
    let d = shard.d;
    let row0 = shard.row0;
    let rng = Philox::new(cfg.seed);
    let dom = domains::sso_update(t);
    let desc = sso_desc(&dev.profile(), shard.rows as u64, d as u64);
    let Shard {
        pos,
        pbest_pos,
        gbest_pos,
        ..
    } = shard;
    let pbest_pos = pbest_pos.as_slice();
    let gbest_pos = gbest_pos.as_slice();
    dev.launch_update(&desc, pos.as_mut_slice(), |i, p| {
        let col = i % d;
        let u = rng.uniform_at((row0 * d + i) as u64, dom);
        if u < SSO_CG {
            match lbest {
                Some(lb) => pbest_pos[lb[i / d] * d + col],
                None => gbest_pos[col],
            }
        } else if u < SSO_CP {
            pbest_pos[i]
        } else if u < SSO_CW {
            p
        } else {
            lo + (u - SSO_CW) / (1.0 - SSO_CW) * (hi - lo)
        }
    })?;
    Ok(())
}

// ---------------------------------------------------------------------------
// GFWA fireworks (Meng & Tan, arXiv:2501.03944)
// ---------------------------------------------------------------------------

/// Explosion sparks generated per firework each iteration.
pub const GFWA_SPARKS_PER_FIREWORK: usize = 8;
/// Initial explosion amplitude, as a fraction of the domain span.
pub const GFWA_INIT_AMP: f32 = 0.5;
/// Amplitude growth factor applied to a firework that improved.
pub const GFWA_AMP_GROW: f32 = 1.2;
/// Amplitude shrink factor applied to a stagnating firework.
pub const GFWA_AMP_SHRINK: f32 = 0.9;
/// Smallest amplitude, as a fraction of the domain span (keeps a collapsed
/// firework able to move).
pub const GFWA_AMP_MIN_FRAC: f32 = 1e-4;

/// The `init_gfwa_amplitudes` launch over a shard of `rows` fireworks
/// ([`init_gfwa_amplitudes`]).
pub(crate) fn init_gfwa_desc(gpu: &GpuProfile, rows: u64) -> KernelDesc {
    let cost = KernelCost::elementwise(1, 0, 4);
    KernelDesc::resource_aware("init_gfwa_amplitudes", Phase::Init, cost, rows, gpu)
}

/// Allocate and initialise a GFWA shard's per-firework explosion
/// amplitudes to [`GFWA_INIT_AMP`] of the domain span. Re-allocates on
/// retry, so the op is idempotent.
pub fn init_gfwa_amplitudes(
    dev: &Device,
    shard: &mut Shard,
    domain: (f32, f32),
) -> Result<(), PsoError> {
    let span = domain.1 - domain.0;
    let mut amp = dev.alloc::<f32>(shard.rows)?;
    let desc = init_gfwa_desc(&dev.profile(), shard.rows as u64);
    dev.launch_map(&desc, amp.as_mut_slice(), |_| GFWA_INIT_AMP * span)?;
    shard.extra = Some(amp);
    Ok(())
}

/// Sparks per firework the guiding spark averages at each end of the
/// ranking: σ = `max(1, S/4)` for `S` sparks per firework.
const GFWA_GUIDE_SIGMA: usize = 1 + (GFWA_SPARKS_PER_FIREWORK / 4).saturating_sub(1);

/// One iteration's explosion-spark population: transient state that lives
/// only between the explosion, guiding-spark and selection stages of one
/// shard (never checkpointed — a restored job regenerates it from the
/// counter-based stream).
pub struct Explosion {
    /// Spark positions, `(rows · S) × d` row-major, `S` =
    /// [`GFWA_SPARKS_PER_FIREWORK`].
    pub pos: Vec<f32>,
    /// Spark errors, `rows · S`.
    pub err: Vec<f32>,
}

/// One guiding spark per firework (Meng & Tan's multi-guiding-spark
/// construction collapsed to the shard's firework rows).
pub struct GuidingSpark {
    /// Guiding-spark positions, `rows × d` row-major.
    pub pos: Vec<f32>,
    /// Guiding-spark errors, `rows`.
    pub err: Vec<f32>,
}

/// The explosion's two launches over a shard of `rows` fireworks in `d`
/// dimensions: spark generation (one draw per spark element, reading the
/// firework row and its amplitude) and spark evaluation at the objective's
/// `flops` per dimension.
pub(crate) fn explosion_descs(gpu: &GpuProfile, rows: u64, d: u64, flops: u64) -> [KernelDesc; 2] {
    let (sparks, phase) = (rows * GFWA_SPARKS_PER_FIREWORK as u64, Phase::SwarmUpdate);
    let gen_cost = KernelCost::elementwise(RNG_FLOPS_PER_DRAW + 3, 8, 4);
    [
        KernelDesc::resource_aware("gfwa_sparks", phase, gen_cost, sparks * d, gpu),
        eval_desc(gpu, "gfwa_spark_eval", phase, sparks, d, flops),
    ]
}

/// GFWA explosion: every firework (particle row) emits
/// [`GFWA_SPARKS_PER_FIREWORK`] sparks uniformly within its per-firework
/// amplitude, clamped to the domain, then all sparks are evaluated. Two
/// launches (`explosion_descs`), both pure reads of shard state — the op
/// mutates nothing, so it is retryable as a whole.
pub fn explosion(
    dev: &Device,
    shard: &Shard,
    cfg: &PsoConfig,
    t: usize,
    domain: (f32, f32),
    obj: &dyn Objective,
) -> Result<Explosion, PsoError> {
    let (lo, hi) = domain;
    let d = shard.d;
    let per_fw = GFWA_SPARKS_PER_FIREWORK;
    let n_sparks = shard.rows * per_fw;
    let rng = Philox::new(cfg.seed);
    let dom = domains::gfwa_sparks(t);
    let row0 = shard.row0;
    let amp = shard
        .extra
        .as_ref()
        .expect("GFWA shards carry explosion amplitudes")
        .as_slice();
    let pos = shard.pos.as_slice();
    let (rows, fpd) = (shard.rows as u64, obj.flops_per_dim());
    let [gen, eval] = explosion_descs(&dev.profile(), rows, d as u64, fpd);

    let mut spark_pos = vec![0.0f32; n_sparks * d];
    dev.launch_map(&gen, &mut spark_pos, |i| {
        let fw = i / (per_fw * d);
        let col = i % d;
        // Sparks of global firework `r` own the global elements
        // `[r·S·d, (r+1)·S·d)`, so sharded runs draw exactly the numbers a
        // single-device run draws.
        let g = (row0 * per_fw * d + i) as u64;
        let u = rng.uniform_at(g, dom);
        (pos[fw * d + col] + amp[fw] * (2.0 * u - 1.0)).clamp(lo, hi)
    })?;

    let mut err = vec![0.0f32; n_sparks];
    dev.launch_map(&eval, &mut err, |i| {
        obj.eval(&spark_pos[i * d..(i + 1) * d])
    })?;
    Ok(Explosion {
        pos: spark_pos,
        err,
    })
}

/// The guiding spark's two launches over a shard of `rows` fireworks in
/// `d` dimensions: construction (per element, the top-σ and bottom-σ spark
/// values read, the firework element read, the guiding element written)
/// and evaluation at the objective's `flops` per dimension.
pub(crate) fn guiding_descs(gpu: &GpuProfile, rows: u64, d: u64, flops: u64) -> [KernelDesc; 2] {
    let (sigma, phase) = (GFWA_GUIDE_SIGMA as u64, Phase::SwarmUpdate);
    let cost = KernelCost::elementwise(2 * sigma + 2, 2 * sigma * 4 + 4, 4);
    [
        KernelDesc::resource_aware("gfwa_guiding", phase, cost, rows * d, gpu),
        eval_desc(gpu, "gfwa_guide_eval", phase, rows, d, flops),
    ]
}

/// GFWA guiding spark: per firework, the guiding vector Δ is the mean of
/// its top-σ sparks minus the mean of its bottom-σ sparks (σ =
/// `max(1, S/4)`, ranked by spark error with index tie-breaks for
/// determinism); the guiding spark is the firework displaced by Δ, clamped
/// to the domain, then evaluated (`guiding_descs`). Pure reads of shard
/// and explosion state — retryable as a whole.
pub fn guiding_spark(
    dev: &Device,
    shard: &Shard,
    domain: (f32, f32),
    obj: &dyn Objective,
    ex: &Explosion,
) -> Result<GuidingSpark, PsoError> {
    let (lo, hi) = domain;
    let d = shard.d;
    let per_fw = GFWA_SPARKS_PER_FIREWORK;
    let sigma = GFWA_GUIDE_SIGMA;
    let pos = shard.pos.as_slice();
    let (rows, fpd) = (shard.rows as u64, obj.flops_per_dim());
    let [build, eval] = guiding_descs(&dev.profile(), rows, d as u64, fpd);

    // Per-firework spark ranking, computed once (host mirror of the
    // device-side sort the real kernel would do per block).
    let mut order: Vec<usize> = Vec::with_capacity(shard.rows * per_fw);
    for fw in 0..shard.rows {
        let mut idx: Vec<usize> = (0..per_fw).collect();
        idx.sort_by(|&a, &b| {
            ex.err[fw * per_fw + a]
                .total_cmp(&ex.err[fw * per_fw + b])
                .then(a.cmp(&b))
        });
        order.extend_from_slice(&idx);
    }

    let mut gpos = vec![0.0f32; shard.rows * d];
    dev.launch_map(&build, &mut gpos, |i| {
        let (fw, col) = (i / d, i % d);
        let ord = &order[fw * per_fw..(fw + 1) * per_fw];
        let mut top = 0.0f32;
        let mut bot = 0.0f32;
        for k in 0..sigma {
            top += ex.pos[(fw * per_fw + ord[k]) * d + col];
            bot += ex.pos[(fw * per_fw + ord[per_fw - 1 - k]) * d + col];
        }
        let delta = (top - bot) / sigma as f32;
        (pos[fw * d + col] + delta).clamp(lo, hi)
    })?;

    let mut gerr = vec![0.0f32; shard.rows];
    dev.launch_map(&eval, &mut gerr, |i| obj.eval(&gpos[i * d..(i + 1) * d]))?;
    Ok(GuidingSpark {
        pos: gpos,
        err: gerr,
    })
}

/// The selection launch over a shard of `rows` fireworks in `d`
/// dimensions, one thread per firework: it reads the `S + 1` candidate
/// errors and writes the winning error and row (`S + 2` flops), and the
/// amplitude adaptation reads the pick and the amplitude and writes the
/// amplitude (2 flops, 8 B read, 4 B written).
pub(crate) fn selection_desc(gpu: &GpuProfile, rows: u64, d: u64) -> KernelDesc {
    let per_fw = GFWA_SPARKS_PER_FIREWORK as u64;
    let cost = KernelCost::elementwise(per_fw + 2 + 2, (per_fw + 1) * 4 + 8, (d + 1) * 4 + 4);
    KernelDesc::resource_aware("gfwa_selection", Phase::SwarmUpdate, cost, rows, gpu)
}

/// GFWA selection + amplitude adaptation: each firework adopts the best of
/// {itself, its best spark, its guiding spark}, then grows its amplitude by
/// [`GFWA_AMP_GROW`] if it improved and shrinks it by [`GFWA_AMP_SHRINK`]
/// otherwise (clamped to `[GFWA_AMP_MIN_FRAC · span, span]`).
///
/// The winners are picked host-side from the *pre-mutation* state, then
/// committed — winning error, winning row and new amplitude — in **one**
/// fault-gated launch (`selection_desc`) whose gate fires before any
/// element is written, so the whole op retries safely.
pub fn gfwa_selection(
    dev: &Device,
    shard: &mut Shard,
    ex: &Explosion,
    gu: &GuidingSpark,
    domain: (f32, f32),
) -> Result<(), PsoError> {
    let d = shard.d;
    let per_fw = GFWA_SPARKS_PER_FIREWORK;
    let rows = shard.rows;
    let span = domain.1 - domain.0;
    let desc = selection_desc(&dev.profile(), rows as u64, d as u64);
    #[derive(Clone, Copy)]
    enum Pick {
        Keep,
        Spark(usize),
        Guide,
    }

    let Shard {
        pos, errors, extra, ..
    } = shard;

    let mut picks = vec![Pick::Keep; rows];
    let mut new_err = vec![0.0f32; rows];
    {
        let errors = errors.as_slice();
        for fw in 0..rows {
            let mut best = errors[fw];
            let mut pick = Pick::Keep;
            for j in 0..per_fw {
                let v = ex.err[fw * per_fw + j];
                if v < best {
                    best = v;
                    pick = Pick::Spark(j);
                }
            }
            if gu.err[fw] < best {
                best = gu.err[fw];
                pick = Pick::Guide;
            }
            picks[fw] = pick;
            new_err[fw] = best;
        }
    }

    let amp = extra
        .as_mut()
        .expect("GFWA shards carry explosion amplitudes");
    let (amp_lo, amp_hi) = (GFWA_AMP_MIN_FRAC * span, span);
    dev.launch_rows(
        &desc,
        KernelCost::default(),
        errors.as_mut_slice(),
        pos.as_mut_slice(),
        amp.as_mut_slice(),
        |fw, e, p, a| {
            let factor = match picks[fw] {
                Pick::Keep => GFWA_AMP_SHRINK,
                Pick::Spark(j) => {
                    let s = (fw * per_fw + j) * d;
                    p.copy_from_slice(&ex.pos[s..s + d]);
                    GFWA_AMP_GROW
                }
                Pick::Guide => {
                    p.copy_from_slice(&gu.pos[fw * d..(fw + 1) * d]);
                    GFWA_AMP_GROW
                }
            };
            e[0] = new_err[fw];
            *a = (*a * factor).clamp(amp_lo, amp_hi);
        },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpso_functions::builtins::Sphere;

    fn cfg() -> PsoConfig {
        PsoConfig::builder(16, 8)
            .max_iter(4)
            .seed(11)
            .build()
            .unwrap()
    }

    fn setup(dev: &Device, cfg: &PsoConfig) -> Shard {
        let mut shard = Shard::alloc(dev, 0, cfg.n_particles, cfg.dim).unwrap();
        init_shard(dev, &mut shard, cfg, Sphere.domain()).unwrap();
        shard
    }

    /// Velocity then position: the unfused swarm update.
    fn swarm_update(
        dev: &Device,
        shard: &mut Shard,
        cfg: &PsoConfig,
        t: usize,
        bound: Option<f32>,
        strategy: UpdateStrategy,
        lbest: Option<&[usize]>,
    ) -> Result<(), PsoError> {
        velocity_update(dev, shard, cfg, t, bound, strategy, lbest)?;
        position_update(dev, shard, strategy)
    }

    #[test]
    fn init_matches_host_swarm() {
        let dev = Device::v100();
        let cfg = cfg();
        let shard = setup(&dev, &cfg);
        let host = crate::swarm::Swarm::init(&cfg, Sphere.domain());
        assert_eq!(shard.pos.as_slice(), host.pos.as_slice());
        assert_eq!(shard.vel.as_slice(), host.vel.as_slice());
        assert!(shard
            .pbest_err
            .as_slice()
            .iter()
            .all(|&x| x == f32::INFINITY));
    }

    #[test]
    fn sharded_init_matches_global_rows() {
        let dev = Device::v100();
        let cfg = cfg();
        // A shard starting at row 5 must hold rows 5.. of the global swarm.
        let mut shard = Shard::alloc(&dev, 5, 4, cfg.dim).unwrap();
        init_shard(&dev, &mut shard, &cfg, Sphere.domain()).unwrap();
        let host = crate::swarm::Swarm::init(&cfg, Sphere.domain());
        assert_eq!(shard.pos.as_slice(), &host.pos[5 * cfg.dim..9 * cfg.dim],);
    }

    #[test]
    fn eval_writes_objective_values() {
        let dev = Device::v100();
        let cfg = cfg();
        let mut shard = setup(&dev, &cfg);
        eval_shard(&dev, &mut shard, &Sphere).unwrap();
        let expect = Sphere.eval(&shard.pos.as_slice()[0..cfg.dim]);
        assert_eq!(shard.errors.as_slice()[0], expect);
    }

    #[test]
    fn pbest_update_counts_improvements() {
        let dev = Device::v100();
        let cfg = cfg();
        let mut shard = setup(&dev, &cfg);
        eval_shard(&dev, &mut shard, &Sphere).unwrap();
        // First update: everything improves from infinity.
        let improved = pbest_update(&dev, &mut shard).unwrap();
        assert_eq!(improved, cfg.n_particles as u64);
        // Second update with unchanged errors: nothing improves.
        let improved = pbest_update(&dev, &mut shard).unwrap();
        assert_eq!(improved, 0);
        assert_eq!(shard.pbest_pos.as_slice(), shard.pos.as_slice());
    }

    #[test]
    fn pbest_update_charges_its_row_copies_on_one_element_wise_launch() {
        let dev = Device::v100();
        let cfg = cfg();
        let (n, d) = (cfg.n_particles as u64, cfg.dim as u64);
        let mut shard = setup(&dev, &cfg);
        eval_shard(&dev, &mut shard, &Sphere).unwrap();
        // Make exactly three particles improve on the second update.
        pbest_update(&dev, &mut shard).unwrap();
        for i in [0, 5, 9] {
            shard.errors.as_mut_slice()[i] -= 1.0;
        }
        dev.reset_profiler();
        let improved = pbest_update(&dev, &mut shard).unwrap();
        assert_eq!(improved, 3);
        let log = dev.profiler();
        assert_eq!(log.kernels.len(), 1, "the row copies ride on the launch");
        let k = &log.kernels[0];
        assert_eq!(k.name, "pbest_update");
        assert_eq!(k.threads, n * d, "one thread per (particle, dim)");
        assert_eq!(k.flops, n);
        assert_eq!(k.dram_read_bytes + k.dram_write_bytes, 12 * n + 8 * d * 3);
    }

    #[test]
    fn argmin_adopt_matches_argmin_then_adopt_in_one_launch() {
        let dev = Device::v100();
        let cfg = cfg();
        let d = cfg.dim;
        let mut fused = setup(&dev, &cfg);
        eval_shard(&dev, &mut fused, &Sphere).unwrap();
        pbest_update(&dev, &mut fused).unwrap();
        let mut split = setup(&dev, &cfg);
        eval_shard(&dev, &mut split, &Sphere).unwrap();
        pbest_update(&dev, &mut split).unwrap();

        dev.reset_profiler();
        let r = argmin_adopt(&dev, &mut fused).unwrap();
        let log = dev.profiler();
        assert_eq!(log.kernels.len(), 1, "the adoption rides on the argmin");
        let adopting = &log.kernels[0];
        assert_eq!(
            adopting.dram_read_bytes + adopting.dram_write_bytes,
            8 * cfg.n_particles as u64 + 8 * d as u64
        );
        let expect = local_argmin(&dev, &split).unwrap();
        adopt_gbest_local(&dev, &mut split, expect.index, expect.value).unwrap();
        assert_eq!(r, expect);
        assert_eq!(fused.gbest_err.to_bits(), split.gbest_err.to_bits());
        assert_eq!(fused.gbest_pos.as_slice(), split.gbest_pos.as_slice());

        // No improvement: nothing is copied and the launch carries no copy.
        dev.reset_profiler();
        argmin_adopt(&dev, &mut fused).unwrap();
        let k = &dev.profiler().kernels[0];
        assert_eq!(
            k.dram_read_bytes + k.dram_write_bytes,
            8 * cfg.n_particles as u64
        );
    }

    #[test]
    fn faulted_argmin_adopt_leaves_gbest_untouched() {
        let dev = Device::v100();
        let cfg = cfg();
        let mut shard = setup(&dev, &cfg);
        eval_shard(&dev, &mut shard, &Sphere).unwrap();
        pbest_update(&dev, &mut shard).unwrap();
        // Fault positions count from the plan's attach: the argmin is launch 1.
        dev.set_fault_plan(gpu_sim::FaultPlan::new().with_transient_launch(1));
        let before = shard.gbest_pos.as_slice().to_vec();
        assert!(argmin_adopt(&dev, &mut shard).is_err());
        assert_eq!(shard.gbest_err, f32::INFINITY);
        assert_eq!(shard.gbest_pos.as_slice(), &before[..]);
        // The retry adopts.
        argmin_adopt(&dev, &mut shard).unwrap();
        assert!(shard.gbest_err.is_finite());
    }

    #[test]
    fn argmin_and_adopt_track_the_best_particle() {
        let dev = Device::v100();
        let cfg = cfg();
        let mut shard = setup(&dev, &cfg);
        eval_shard(&dev, &mut shard, &Sphere).unwrap();
        pbest_update(&dev, &mut shard).unwrap();
        let r = local_argmin(&dev, &shard).unwrap();
        let expect = shard
            .errors
            .as_slice()
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        assert_eq!(r.value, expect);
        adopt_gbest_local(&dev, &mut shard, r.index, r.value).unwrap();
        assert_eq!(shard.gbest_err, expect);
        let d = cfg.dim;
        assert_eq!(
            shard.gbest_pos.as_slice(),
            &shard.pbest_pos.as_slice()[r.index * d..(r.index + 1) * d]
        );
    }

    #[test]
    fn global_and_shared_strategies_agree_bitwise() {
        let cfg = cfg();
        let run = |strategy| {
            let dev = Device::v100();
            let mut shard = setup(&dev, &cfg);
            eval_shard(&dev, &mut shard, &Sphere).unwrap();
            pbest_update(&dev, &mut shard).unwrap();
            let r = local_argmin(&dev, &shard).unwrap();
            adopt_gbest_local(&dev, &mut shard, r.index, r.value).unwrap();
            gen_weights(&dev, &mut shard, &cfg, 0, strategy).unwrap();
            swarm_update(&dev, &mut shard, &cfg, 0, Some(2.0), strategy, None).unwrap();
            (shard.vel.as_slice().to_vec(), shard.pos.as_slice().to_vec())
        };
        let (v1, p1) = run(UpdateStrategy::GlobalMem);
        let (v2, p2) = run(UpdateStrategy::SharedMem);
        assert_eq!(v1, v2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn forloop_strategy_matches_global_mem_bitwise_but_slower() {
        let cfg = cfg();
        let run = |strategy| {
            let dev = Device::v100();
            let mut shard = setup(&dev, &cfg);
            eval_shard(&dev, &mut shard, &Sphere).unwrap();
            pbest_update(&dev, &mut shard).unwrap();
            let r = local_argmin(&dev, &shard).unwrap();
            adopt_gbest_local(&dev, &mut shard, r.index, r.value).unwrap();
            gen_weights(&dev, &mut shard, &cfg, 0, strategy).unwrap();
            let before = dev.timeline().total_seconds();
            swarm_update(&dev, &mut shard, &cfg, 0, Some(2.0), strategy, None).unwrap();
            let update_time = dev.timeline().total_seconds() - before;
            (
                shard.vel.as_slice().to_vec(),
                shard.pos.as_slice().to_vec(),
                update_time,
            )
        };
        let (v1, p1, t_global) = run(UpdateStrategy::GlobalMem);
        let (v2, p2, t_naive) = run(UpdateStrategy::ForLoop);
        assert_eq!(v1, v2, "the degradation rung must not change numerics");
        assert_eq!(p1, p2);
        assert!(
            t_naive > t_global,
            "naive for-loop ({t_naive}s) should model slower than global-mem ({t_global}s)"
        );
    }

    #[test]
    fn tensor_strategy_is_close_but_f16_rounded() {
        let cfg = cfg();
        let run = |strategy| {
            let dev = Device::v100();
            let mut shard = setup(&dev, &cfg);
            eval_shard(&dev, &mut shard, &Sphere).unwrap();
            pbest_update(&dev, &mut shard).unwrap();
            let r = local_argmin(&dev, &shard).unwrap();
            adopt_gbest_local(&dev, &mut shard, r.index, r.value).unwrap();
            gen_weights(&dev, &mut shard, &cfg, 0, strategy).unwrap();
            swarm_update(&dev, &mut shard, &cfg, 0, Some(2.0), strategy, None).unwrap();
            shard.vel.as_slice().to_vec()
        };
        let exact = run(UpdateStrategy::GlobalMem);
        let tensor = run(UpdateStrategy::TensorCore);
        assert_ne!(exact, tensor, "f16 rounding must be visible");
        for (a, b) in exact.iter().zip(&tensor) {
            assert!((a - b).abs() < 0.05 + 0.01 * a.abs(), "{a} vs {b}");
        }
    }

    #[test]
    fn velocity_bound_is_enforced_on_device() {
        let cfg = PsoConfig::builder(8, 4)
            .max_iter(2)
            .velocity_bound(0.01)
            .seed(1)
            .build()
            .unwrap();
        let dev = Device::v100();
        let mut shard = setup(&dev, &cfg);
        eval_shard(&dev, &mut shard, &Sphere).unwrap();
        pbest_update(&dev, &mut shard).unwrap();
        let r = local_argmin(&dev, &shard).unwrap();
        adopt_gbest_local(&dev, &mut shard, r.index, r.value).unwrap();
        gen_weights(&dev, &mut shard, &cfg, 0, UpdateStrategy::GlobalMem).unwrap();
        swarm_update(
            &dev,
            &mut shard,
            &cfg,
            0,
            Some(0.01),
            UpdateStrategy::GlobalMem,
            None,
        )
        .unwrap();
        assert!(shard.vel.as_slice().iter().all(|v| v.abs() <= 0.01));
    }

    #[test]
    fn lowcomp_strategy_draws_per_row_and_models_cheaper() {
        let cfg = cfg();
        let run = |strategy| {
            let dev = Device::v100();
            let mut shard = setup(&dev, &cfg);
            eval_shard(&dev, &mut shard, &Sphere).unwrap();
            pbest_update(&dev, &mut shard).unwrap();
            let r = local_argmin(&dev, &shard).unwrap();
            adopt_gbest_local(&dev, &mut shard, r.index, r.value).unwrap();
            gen_weights(&dev, &mut shard, &cfg, 2, strategy).unwrap();
            let weights = shard.l.as_slice().to_vec();
            let before = dev.timeline().total_seconds();
            swarm_update(&dev, &mut shard, &cfg, 2, Some(2.0), strategy, None).unwrap();
            let update_time = dev.timeline().total_seconds() - before;
            (weights, shard.vel.as_slice().to_vec(), update_time)
        };
        let (w_full, v_full, t_full) = run(UpdateStrategy::GlobalMem);
        let (w_low, v_low, t_low) = run(UpdateStrategy::LowComplexity);
        // One draw per particle instead of per element, from the same
        // Philox stream addressed by row.
        assert_eq!(w_low.len(), cfg.n_particles);
        assert_eq!(w_full.len(), cfg.n_particles * cfg.dim);
        let rng = Philox::new(cfg.seed);
        for (row, &w) in w_low.iter().enumerate() {
            assert_eq!(w, rng.uniform_at(row as u64, domains::l_matrix(2)));
        }
        // Numerics deliberately differ (documented, like TensorCore's f16),
        // and the reduced-work update models cheaper.
        assert_ne!(v_full, v_low, "scalar weights must change the trajectory");
        assert!(
            t_low < t_full,
            "low-complexity update ({t_low}s) should model cheaper than global-mem ({t_full}s)"
        );
    }

    #[test]
    fn lowcomp_strategy_still_converges() {
        use crate::backend::PsoBackend;
        let cfg = PsoConfig::builder(64, 8)
            .max_iter(200)
            .seed(21)
            .build()
            .unwrap();
        let r = crate::gpu::GpuBackend::new()
            .strategy(UpdateStrategy::LowComplexity)
            .run(&cfg, &Sphere)
            .unwrap();
        assert!(r.best_value < 10.0, "best = {}", r.best_value);
    }

    #[test]
    fn sso_update_selects_sources_by_threshold_and_is_deterministic() {
        let dev = Device::v100();
        let cfg = cfg();
        let domain = Sphere.domain();
        let run = || {
            let mut shard = setup(&dev, &cfg);
            eval_shard(&dev, &mut shard, &Sphere).unwrap();
            pbest_update(&dev, &mut shard).unwrap();
            let r = local_argmin(&dev, &shard).unwrap();
            adopt_gbest_local(&dev, &mut shard, r.index, r.value).unwrap();
            let before = shard.pos.as_slice().to_vec();
            let pbest = shard.pbest_pos.as_slice().to_vec();
            let gbest = shard.gbest_pos.as_slice().to_vec();
            sso_update(&dev, &mut shard, &cfg, 0, domain, None).unwrap();
            (before, pbest, gbest, shard.pos.as_slice().to_vec())
        };
        let (before, pbest, gbest, after) = run();
        // Bit-identical across repeated runs (counter-based stream).
        assert_eq!(after, run().3);
        // Velocity is untouched by SSO and every element matches the
        // threshold scheme recomputed by hand.
        let rng = Philox::new(cfg.seed);
        let (lo, hi) = domain;
        let d = cfg.dim;
        for (i, &p) in after.iter().enumerate() {
            let u = rng.uniform_at(i as u64, domains::sso_update(0));
            let expect = if u < SSO_CG {
                gbest[i % d]
            } else if u < SSO_CP {
                pbest[i]
            } else if u < SSO_CW {
                before[i]
            } else {
                lo + (u - SSO_CW) / (1.0 - SSO_CW) * (hi - lo)
            };
            assert_eq!(p, expect, "element {i}");
            assert!((lo..=hi).contains(&p));
        }
    }

    #[test]
    fn sso_sharded_update_matches_single_device_rows() {
        let cfg = cfg();
        let domain = Sphere.domain();
        let full = {
            let dev = Device::v100();
            let mut shard = setup(&dev, &cfg);
            eval_shard(&dev, &mut shard, &Sphere).unwrap();
            pbest_update(&dev, &mut shard).unwrap();
            let r = local_argmin(&dev, &shard).unwrap();
            adopt_gbest_local(&dev, &mut shard, r.index, r.value).unwrap();
            sso_update(&dev, &mut shard, &cfg, 1, domain, None).unwrap();
            shard.pos.as_slice().to_vec()
        };
        // A shard holding rows 5..9 with the same adopted gbest must draw
        // the same stream elements as the full swarm's rows 5..9.
        let dev = Device::v100();
        let mut shard = Shard::alloc(&dev, 5, 4, cfg.dim).unwrap();
        init_shard(&dev, &mut shard, &cfg, domain).unwrap();
        eval_shard(&dev, &mut shard, &Sphere).unwrap();
        pbest_update(&dev, &mut shard).unwrap();
        // Adopt the full run's gbest so the broadcast column matches.
        let host_gbest = {
            let dev2 = Device::v100();
            let mut s2 = setup(&dev2, &cfg);
            eval_shard(&dev2, &mut s2, &Sphere).unwrap();
            pbest_update(&dev2, &mut s2).unwrap();
            let r = local_argmin(&dev2, &s2).unwrap();
            adopt_gbest_local(&dev2, &mut s2, r.index, r.value).unwrap();
            (s2.gbest_pos.as_slice().to_vec(), s2.gbest_err)
        };
        adopt_gbest_from_host(&dev, &mut shard, &host_gbest.0, host_gbest.1).unwrap();
        sso_update(&dev, &mut shard, &cfg, 1, domain, None).unwrap();
        assert_eq!(
            shard.pos.as_slice(),
            &full[5 * cfg.dim..9 * cfg.dim],
            "sharded SSO must draw global stream elements"
        );
    }

    fn gfwa_setup(dev: &Device, cfg: &PsoConfig) -> Shard {
        let mut shard = setup(dev, cfg);
        init_gfwa_amplitudes(dev, &mut shard, Sphere.domain()).unwrap();
        eval_shard(dev, &mut shard, &Sphere).unwrap();
        pbest_update(dev, &mut shard).unwrap();
        let r = local_argmin(dev, &shard).unwrap();
        adopt_gbest_local(dev, &mut shard, r.index, r.value).unwrap();
        shard
    }

    #[test]
    fn gfwa_explosion_sparks_stay_in_domain_and_within_amplitude() {
        let dev = Device::v100();
        let cfg = cfg();
        let shard = gfwa_setup(&dev, &cfg);
        let domain = Sphere.domain();
        let ex = explosion(&dev, &shard, &cfg, 0, domain, &Sphere).unwrap();
        assert_eq!(
            ex.pos.len(),
            cfg.n_particles * GFWA_SPARKS_PER_FIREWORK * cfg.dim
        );
        assert_eq!(ex.err.len(), cfg.n_particles * GFWA_SPARKS_PER_FIREWORK);
        let (lo, hi) = domain;
        let d = cfg.dim;
        let pos = shard.pos.as_slice();
        let amp = shard.extra.as_ref().unwrap().as_slice();
        for (i, &sp) in ex.pos.iter().enumerate() {
            assert!((lo..=hi).contains(&sp));
            let fw = i / (GFWA_SPARKS_PER_FIREWORK * d);
            let col = i % d;
            let center = pos[fw * d + col];
            assert!(
                (sp - center).abs() <= amp[fw] + 1e-5 || sp == lo || sp == hi,
                "spark strays beyond its amplitude"
            );
        }
        // Spark errors are the objective at the spark positions.
        assert_eq!(ex.err[0], Sphere.eval(&ex.pos[0..d]));
    }

    #[test]
    fn gfwa_selection_never_worsens_and_adapts_amplitudes() {
        let dev = Device::v100();
        let cfg = cfg();
        let mut shard = gfwa_setup(&dev, &cfg);
        let domain = Sphere.domain();
        let before_err = shard.errors.as_slice().to_vec();
        let before_amp = shard.extra.as_ref().unwrap().as_slice().to_vec();
        let ex = explosion(&dev, &shard, &cfg, 0, domain, &Sphere).unwrap();
        let gu = guiding_spark(&dev, &shard, domain, &Sphere, &ex).unwrap();
        gfwa_selection(&dev, &mut shard, &ex, &gu, domain).unwrap();
        let after_err = shard.errors.as_slice().to_vec();
        let after_amp = shard.extra.as_ref().unwrap().as_slice().to_vec();
        let mut improved_any = false;
        for fw in 0..cfg.n_particles {
            assert!(
                after_err[fw] <= before_err[fw],
                "selection must be elitist per firework"
            );
            let improved = after_err[fw] < before_err[fw];
            improved_any |= improved;
            let expect = if improved {
                before_amp[fw] * GFWA_AMP_GROW
            } else {
                before_amp[fw] * GFWA_AMP_SHRINK
            };
            let span = domain.1 - domain.0;
            assert_eq!(after_amp[fw], expect.clamp(GFWA_AMP_MIN_FRAC * span, span));
        }
        assert!(improved_any, "8 sparks per firework should improve someone");
        // The committed errors match the objective at the committed rows.
        let d = cfg.dim;
        for (fw, err) in after_err.iter().enumerate().take(cfg.n_particles) {
            assert_eq!(
                *err,
                Sphere.eval(&shard.pos.as_slice()[fw * d..(fw + 1) * d])
            );
        }
    }

    #[test]
    fn faulted_gfwa_selection_leaves_the_shard_untouched() {
        let dev = Device::v100();
        let cfg = cfg();
        let mut shard = gfwa_setup(&dev, &cfg);
        let domain = Sphere.domain();
        let ex = explosion(&dev, &shard, &cfg, 0, domain, &Sphere).unwrap();
        let gu = guiding_spark(&dev, &shard, domain, &Sphere, &ex).unwrap();
        let state = |s: &Shard| {
            (
                s.errors.as_slice().to_vec(),
                s.pos.as_slice().to_vec(),
                s.extra.as_ref().unwrap().as_slice().to_vec(),
            )
        };
        let before = state(&shard);
        // Fault positions count from the plan's attach: selection is launch 1.
        dev.set_fault_plan(gpu_sim::FaultPlan::new().with_transient_launch(1));
        assert!(gfwa_selection(&dev, &mut shard, &ex, &gu, domain).is_err());
        assert!(
            state(&shard) == before,
            "errors, rows and amplitudes untouched"
        );
        // The retry commits exactly what a clean selection commits.
        gfwa_selection(&dev, &mut shard, &ex, &gu, domain).unwrap();
        let clean_dev = Device::v100();
        let mut clean = gfwa_setup(&clean_dev, &cfg);
        gfwa_selection(&clean_dev, &mut clean, &ex, &gu, domain).unwrap();
        assert!(state(&shard) == state(&clean));
    }

    #[test]
    fn gfwa_guiding_spark_is_deterministic_and_in_domain() {
        let dev = Device::v100();
        let cfg = cfg();
        let shard = gfwa_setup(&dev, &cfg);
        let domain = Sphere.domain();
        let ex = explosion(&dev, &shard, &cfg, 2, domain, &Sphere).unwrap();
        let g1 = guiding_spark(&dev, &shard, domain, &Sphere, &ex).unwrap();
        let g2 = guiding_spark(&dev, &shard, domain, &Sphere, &ex).unwrap();
        assert_eq!(g1.pos, g2.pos);
        assert_eq!(g1.err, g2.err);
        assert_eq!(g1.pos.len(), cfg.n_particles * cfg.dim);
        let (lo, hi) = domain;
        assert!(g1.pos.iter().all(|p| (lo..=hi).contains(p)));
    }

    #[test]
    fn weights_match_philox_streams() {
        let dev = Device::v100();
        let cfg = cfg();
        let mut shard = setup(&dev, &cfg);
        gen_weights(&dev, &mut shard, &cfg, 3, UpdateStrategy::GlobalMem).unwrap();
        let rng = Philox::new(cfg.seed);
        assert_eq!(
            shard.l.as_slice()[7],
            rng.uniform_at(7, domains::l_matrix(3))
        );
        assert_eq!(
            shard.g.as_slice()[0],
            rng.uniform_at(0, domains::g_matrix(3))
        );
    }
}
