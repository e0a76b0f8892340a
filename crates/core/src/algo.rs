//! Algorithm-pluggable swarm ops: the abstraction that turns the plan IR
//! from "a PSO" into a swarm-intelligence platform.
//!
//! Every algorithm the repo serves shares one iteration skeleton — evaluate
//! the population, update per-particle bests, reduce the swarm best — and
//! differs only in its *update tail*: the kernels that move the population.
//! [`SwarmAlgorithm`] captures exactly that seam. An implementation emits
//! its per-shard update ops into the [`crate::plan::ExecutionPlan`] node
//! list, declares which rewrite passes are legal for it (fusion legality,
//! the admission downgrade ladder), names its persistent-kernel region,
//! allocates any extra per-particle state its shards carry, and *executes*
//! its own update-tail ops ([`SwarmAlgorithm::execute`]). The single
//! `PlanRun` executor runs the shared prefix and hands every other op to the
//! algorithm, under the same resilience guard; checkpoint/suspend/resume,
//! the serving layer and the cost predictor all operate on the generic op
//! set and never branch on "is this PSO".
//!
//! Three algorithms are registered:
//!
//! * [`Algorithm::Pso`] — FastPSO's velocity/position pair (the paper's
//!   step (iv)); the first implementation, emitting the exact legacy node
//!   sequence so every pre-existing PSO golden stays byte-identical.
//! * [`Algorithm::Sso`] — discrete Simplified Swarm Optimization after
//!   Yeh et al. (arXiv:2110.01470): a single per-element index-sampling
//!   kernel replaces the velocity arithmetic entirely.
//! * [`Algorithm::Gfwa`] — guided fireworks after Meng & Tan
//!   (arXiv:2501.03944): explosion sparks, a multi-guiding spark built from
//!   the spark ranking, and a selection/amplitude-adaptation step, mapped
//!   onto the existing reduce/argmin machinery.
//!
//! See `docs/ARCHITECTURE.md` ("plugging in an algorithm") for the full
//! contract a new implementation must satisfy.

use crate::config::PsoConfig;
use crate::cost::RNG_FLOPS_PER_DRAW;
use crate::error::PsoError;
use crate::gpu::kernels::{
    explosion, forloop_position_desc, forloop_velocity_desc, fused_swarm_update, gen_weights,
    gfwa_selection, guiding_spark, init_gfwa_amplitudes, position_update, sso_update,
    velocity_update, Explosion, GuidingSpark, Shard, GFWA_SPARKS_PER_FIREWORK,
    LOWC_VELOCITY_FLOPS_PER_ELEM, POSITION_FLOPS_PER_ELEM, VELOCITY_FLOPS_PER_ELEM,
};
use crate::gpu::UpdateStrategy;
use crate::plan::{push, PlanNode, PlanOp};
use crate::predictor::eval_work;
use crate::resilience::{retry_degradable, retry_op, ResilienceConfig};
use fastpso_functions::Objective;
use gpu_sim::{Device, Phase};
use perf_model::GpuKernelWork;
use std::fmt;
use std::str::FromStr;

/// Which swarm-intelligence algorithm a plan runs. This is the serializable
/// key every layer shares: the plan builder, the backend registry
/// (`fastpso-sso`, `fastpso-gfwa`), the serve scheduler's admission ladder,
/// the micro-batching compat key and the cost predictor's calibration key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Particle Swarm Optimization — the paper's FastPSO (the default).
    #[default]
    Pso,
    /// Discrete Simplified Swarm Optimization (Yeh et al.,
    /// arXiv:2110.01470): per-element index sampling against thresholds
    /// `Cg < Cp < Cw`, no velocity state.
    Sso,
    /// Guided Fireworks (GFWA-style, Meng & Tan, arXiv:2501.03944):
    /// explosion sparks within a per-firework amplitude plus a guiding
    /// spark from the top/bottom spark ranking.
    Gfwa,
}

impl Algorithm {
    /// All registered algorithms, PSO first.
    pub const ALL: [Algorithm; 3] = [Algorithm::Pso, Algorithm::Sso, Algorithm::Gfwa];
}

/// Canonical lowercase keys, `FromStr`-round-trippable.
impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Algorithm::Pso => "pso",
            Algorithm::Sso => "sso",
            Algorithm::Gfwa => "gfwa",
        })
    }
}

/// Parses the canonical keys case-insensitively; anything else — including
/// plausible-looking future algorithm names — is rejected, so a typo in a
/// CLI flag or a serve request surfaces immediately instead of silently
/// running PSO.
///
/// ```
/// use fastpso::Algorithm;
/// assert_eq!("SSO".parse::<Algorithm>().unwrap(), Algorithm::Sso);
/// assert_eq!(Algorithm::Gfwa.to_string().parse::<Algorithm>().unwrap(), Algorithm::Gfwa);
/// assert!("cmaes".parse::<Algorithm>().is_err());
/// ```
impl FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "pso" => Ok(Algorithm::Pso),
            "sso" => Ok(Algorithm::Sso),
            "gfwa" => Ok(Algorithm::Gfwa),
            other => Err(format!(
                "unknown algorithm '{other}' (expected one of: pso, sso, gfwa)"
            )),
        }
    }
}

/// The pluggable per-algorithm surface of the plan layer. Implementations
/// are stateless unit structs reached through [`algorithm_impl`]; all
/// mutable state lives in the shards and in the executor-owned
/// [`TailScratch`].
pub trait SwarmAlgorithm: Sync {
    /// The serializable key of this implementation.
    fn key(&self) -> Algorithm;

    /// Emit one shard's per-iteration update tail (everything between the
    /// shared eval→pbest→argmin→reduce prefix and the end of the
    /// iteration, *including* the trailing [`PlanOp::DeviceSync`]) into
    /// `nodes`, each op declaring the dependencies it really has: the
    /// stream pass ([`crate::ExecutionPlan::assign_streams`]) moves every
    /// op that needs nothing from the prefix onto a second lane.
    /// `barrier` is the node an op reading the iteration's fitness, bests
    /// or attractors depends on — the reduce/adopt node, or the ring or
    /// island gather when one was inserted. `rows_writer` is the prefix
    /// node that rewrites particle rows this iteration (island migration),
    /// if any: an op that reads only the rows depends on it alone.
    fn emit_update(
        &self,
        nodes: &mut Vec<PlanNode>,
        shard: usize,
        barrier: usize,
        rows_writer: Option<usize>,
    );

    /// Whether the kernel-fusion rewrite pass is legal for this algorithm
    /// under `strategy`. Fusion collapses a `Velocity`/`Position` pair, so
    /// only algorithms that emit that pair (and only the untiled
    /// strategies) ever fuse.
    fn fusible(&self, strategy: UpdateStrategy) -> bool;

    /// The next cheaper rung below `s` in this algorithm's admission
    /// downgrade ladder, or `None` when there is nothing cheaper to
    /// downgrade to (see `DESIGN.md`'s per-algorithm ladder table). The
    /// default has no rungs: the algorithm's update has one implementation
    /// and the memory strategy does not change its cost.
    fn cheaper_strategy(&self, _s: UpdateStrategy) -> Option<UpdateStrategy> {
        None
    }

    /// The next more conservative rung below `s` in this algorithm's fault
    /// ladder — where a permanent launch failure in the update degrades to
    /// — or `None` when the run must fail instead. The default has no
    /// rungs.
    fn fallback_strategy(&self, _s: UpdateStrategy) -> Option<UpdateStrategy> {
        None
    }

    /// Name of the persistent-kernel region [`crate::plan`]'s executor
    /// opens when a plan of this algorithm is lowered persistent.
    fn persistent_region(&self) -> &'static str;

    /// Allocate and initialise the optional extra per-particle state of a
    /// freshly initialised shard (`Shard::extra` — GFWA's explosion
    /// amplitudes). Must be idempotent: the executor retries it in place.
    /// The default allocates nothing and keeps the buffer `None`, so the
    /// allocation and checkpoint traffic of algorithms without extra state
    /// is unchanged.
    fn init_extra(
        &self,
        _dev: &Device,
        _shard: &mut Shard,
        _domain: (f32, f32),
    ) -> Result<(), PsoError> {
        Ok(())
    }

    /// Execute one update-tail op this algorithm emitted, under the
    /// executor's resilience guard (`cx`'s retry policy and strategy
    /// ladder). An op the algorithm does not emit, or a stage run before
    /// the stage it consumes, is rejected with [`PsoError::InvalidConfig`]
    /// before anything is launched.
    fn execute(&self, op: PlanOp, cx: UpdateCtx<'_>) -> Result<(), PsoError>;

    /// The kernels one iteration of this algorithm's update tail launches
    /// over one `rows × d` shard under `strategy`, in launch order, as
    /// admission prices them: [`crate::CostPredictor`] adds their modeled
    /// times after the shared eval → pbest → argmin prefix and takes the
    /// tail's launch count from the list length.
    fn predicted_tail(
        &self,
        rows: u64,
        d: u64,
        flops_per_dim: u64,
        strategy: UpdateStrategy,
    ) -> Vec<GpuKernelWork>;

    /// How many leading kernels of [`SwarmAlgorithm::predicted_tail`] a
    /// streamed plan runs on the side lane: those of the tail ops that
    /// [`SwarmAlgorithm::emit_update`] declares independent of the shared
    /// prefix. `migrates` is true when a prefix node rewrites particle rows
    /// (island migration), which pins the ops that read them to lane 0.
    /// [`crate::CostPredictor`] prices a streamed shape from this split;
    /// the default is none.
    fn side_lane_kernels(&self, _migrates: bool) -> usize {
        0
    }
}

/// Everything one update-tail op reads and writes besides the op itself:
/// the shard it acts on, its [`TailScratch`], the iteration's inputs and
/// the executor's resilience guard. Built by the plan executor for every
/// call to [`SwarmAlgorithm::execute`].
pub struct UpdateCtx<'a> {
    pub(crate) dev: &'a Device,
    pub(crate) shard: &'a mut Shard,
    pub(crate) scratch: &'a mut TailScratch,
    pub(crate) cfg: &'a PsoConfig,
    pub(crate) obj: &'a dyn Objective,
    /// Iteration index (the RNG counter's time coordinate).
    pub(crate) t: usize,
    /// Current velocity bound of the run's bound schedule.
    pub(crate) bound: Option<f32>,
    /// The run's update strategy; the degradation ladder lowers it.
    pub(crate) strategy: &'a mut UpdateStrategy,
    /// Per-particle attractor rows under a local topology.
    pub(crate) lbest: Option<&'a [usize]>,
    pub(crate) guard: &'a ResilienceConfig,
}

/// One shard's transient per-iteration tail state: what GFWA's stages
/// hand each other (the explosion sparks and the guiding sparks). It lives
/// only between the `Explosion`, `GuidingSpark` and `Selection` ops of one
/// iteration and is never checkpointed — a replayed iteration regenerates
/// it from the counter-based stream. Opaque outside this module.
#[derive(Default)]
pub struct TailScratch {
    sparks: Option<Explosion>,
    guides: Option<GuidingSpark>,
}

/// The typed error for an op `algo` cannot run: either it never emits
/// `op`, or (`missing` set) the stage `op` consumes has not run yet.
fn cannot_execute(algo: Algorithm, op: PlanOp, missing: Option<PlanOp>) -> PsoError {
    PsoError::InvalidConfig(match missing {
        Some(stage) => format!("{algo} cannot execute plan op {op}: {stage} has not run"),
        None => format!("{algo} cannot execute plan op {op}: it does not emit it"),
    })
}

/// FastPSO proper: the paper's velocity/position update pair.
pub struct Pso;

impl SwarmAlgorithm for Pso {
    fn key(&self) -> Algorithm {
        Algorithm::Pso
    }

    fn emit_update(
        &self,
        nodes: &mut Vec<PlanNode>,
        shard: usize,
        barrier: usize,
        _rows_writer: Option<usize>,
    ) {
        // GenWeights has no in-iteration deps: its RNG is counter-based
        // on (seed, t, element), independent of every other step.
        let g = push(nodes, PlanOp::GenWeights, shard, Phase::Init, vec![]);
        let v = push(
            nodes,
            PlanOp::Velocity,
            shard,
            Phase::SwarmUpdate,
            vec![barrier, g],
        );
        let p = push(nodes, PlanOp::Position, shard, Phase::SwarmUpdate, vec![v]);
        push(
            nodes,
            PlanOp::DeviceSync,
            shard,
            Phase::SwarmUpdate,
            vec![p],
        );
    }

    fn fusible(&self, strategy: UpdateStrategy) -> bool {
        matches!(
            strategy,
            UpdateStrategy::GlobalMem | UpdateStrategy::ForLoop
        )
    }

    /// The next *cheaper* (fewer modeled device-seconds) strategy rung
    /// below `s`, or `None` when `s` is already the cheapest.
    ///
    /// This is the admission controller's downgrade ladder — the knob
    /// `fastpso::serve` turns when a job's requested strategy cannot meet
    /// its deadline. It is deliberately distinct from the fault ladder
    /// ([`SwarmAlgorithm::fallback_strategy`]), which walks toward the
    /// most *conservative* rung after faults:
    ///
    /// * `ForLoop → GlobalMem → SharedMem → LowComplexity` — each step
    ///   strictly reduces modeled cost (fewer latency-bound threads, then
    ///   staged broadcast traffic, then `d`-fold fewer RNG draws).
    /// * [`UpdateStrategy::TensorCore`] is never *entered* by a downgrade:
    ///   its f16 rounding is an opt-in numeric contract. A job that
    ///   requested it steps straight to the reduced-work rung.
    /// * [`UpdateStrategy::LowComplexity`] is the last rung: it changes the
    ///   trajectory (documented reduced-work numerics), which is exactly
    ///   the trade a deadline-pressed job accepts instead of being shed.
    fn cheaper_strategy(&self, s: UpdateStrategy) -> Option<UpdateStrategy> {
        match s {
            UpdateStrategy::ForLoop => Some(UpdateStrategy::GlobalMem),
            UpdateStrategy::GlobalMem => Some(UpdateStrategy::SharedMem),
            UpdateStrategy::SharedMem | UpdateStrategy::TensorCore => {
                Some(UpdateStrategy::LowComplexity)
            }
            UpdateStrategy::LowComplexity => None,
        }
    }

    /// `TensorCore → SharedMem → GlobalMem → ForLoop`: each step gives up
    /// a hardware feature a failing launch may depend on.
    fn fallback_strategy(&self, s: UpdateStrategy) -> Option<UpdateStrategy> {
        match s {
            UpdateStrategy::TensorCore => Some(UpdateStrategy::SharedMem),
            UpdateStrategy::SharedMem => Some(UpdateStrategy::GlobalMem),
            UpdateStrategy::GlobalMem => Some(UpdateStrategy::ForLoop),
            UpdateStrategy::ForLoop => None,
            // The reduced-work rung never degrades: switching numerics
            // mid-run would silently change a trajectory the caller opted
            // into. Faults that exhaust its retries fail the run instead.
            UpdateStrategy::LowComplexity => None,
        }
    }

    fn persistent_region(&self) -> &'static str {
        "persistent_pso"
    }

    fn execute(&self, op: PlanOp, cx: UpdateCtx<'_>) -> Result<(), PsoError> {
        match op {
            PlanOp::GenWeights => {
                // The weight *shape* follows the current strategy: the
                // low-complexity rung draws one scalar per row. The
                // degradation chain never crosses into or out of that
                // rung (see `fallback_strategy`), so the shape can never
                // disagree with the consuming update.
                let stg = *cx.strategy;
                retry_op(cx.dev, &cx.guard.retry, || {
                    gen_weights(cx.dev, cx.shard, cx.cfg, cx.t, stg)
                })
            }
            // Each half of the swarm update is a single fault-gated launch,
            // so it retries (and strategy-degrades) independently —
            // retrying the pair as one op would double-apply the in-place
            // velocity update.
            PlanOp::Velocity => retry_degradable(self, cx.dev, cx.guard, cx.strategy, |stg| {
                velocity_update(cx.dev, cx.shard, cx.cfg, cx.t, cx.bound, stg, cx.lbest)
            }),
            PlanOp::Position => retry_degradable(self, cx.dev, cx.guard, cx.strategy, |stg| {
                position_update(cx.dev, cx.shard, stg)
            }),
            // Unlike the split pair, the fused launch's single fault gate
            // fires before any element is written, so the whole step
            // retries safely as one op.
            PlanOp::FusedSwarmUpdate => {
                retry_degradable(self, cx.dev, cx.guard, cx.strategy, |stg| {
                    fused_swarm_update(cx.dev, cx.shard, cx.cfg, cx.t, cx.bound, stg, cx.lbest)
                })
            }
            op => Err(cannot_execute(self.key(), op, None)),
        }
    }

    /// Two weight generations, velocity and position — the split pair:
    /// fusion is a plan rewrite admission does not price.
    fn predicted_tail(
        &self,
        rows: u64,
        d: u64,
        _flops_per_dim: u64,
        strategy: UpdateStrategy,
    ) -> Vec<GpuKernelWork> {
        let elems = rows * d;
        // `rows·d` draws per weight matrix, except the low-complexity rung,
        // which draws per row.
        let draws = if strategy == UpdateStrategy::LowComplexity {
            rows
        } else {
            elems
        };
        let weights = GpuKernelWork::elementwise(draws, RNG_FLOPS_PER_DRAW * draws, 0, 4 * draws);
        let vel_flops = VELOCITY_FLOPS_PER_ELEM * elems;
        let velocity = match strategy {
            UpdateStrategy::GlobalMem => {
                GpuKernelWork::elementwise(elems, vel_flops, 24 * elems, 4 * elems)
            }
            UpdateStrategy::ForLoop => forloop_velocity_desc(rows, d).work(),
            UpdateStrategy::SharedMem => GpuKernelWork {
                shared_bytes: 8 * elems,
                ..GpuKernelWork::elementwise(elems, vel_flops, 16 * elems, 4 * elems)
            },
            UpdateStrategy::TensorCore => GpuKernelWork {
                tensor_flops: vel_flops,
                ..GpuKernelWork::elementwise(elems, 0, 12 * elems, 4 * elems)
            },
            UpdateStrategy::LowComplexity => GpuKernelWork::elementwise(
                elems,
                LOWC_VELOCITY_FLOPS_PER_ELEM * elems,
                16 * elems,
                4 * elems,
            ),
        };
        let position = if strategy == UpdateStrategy::ForLoop {
            forloop_position_desc(rows, d).work()
        } else {
            GpuKernelWork::elementwise(elems, POSITION_FLOPS_PER_ELEM * elems, 8 * elems, 4 * elems)
        };
        vec![weights, weights, velocity, position]
    }

    /// The two weight generations.
    fn side_lane_kernels(&self, _migrates: bool) -> usize {
        2
    }
}

/// Discrete Simplified Swarm Optimization: one index-sampling kernel.
pub struct Sso;

impl SwarmAlgorithm for Sso {
    fn key(&self) -> Algorithm {
        Algorithm::Sso
    }

    fn emit_update(
        &self,
        nodes: &mut Vec<PlanNode>,
        shard: usize,
        barrier: usize,
        _rows_writer: Option<usize>,
    ) {
        let u = push(
            nodes,
            PlanOp::SsoUpdate,
            shard,
            Phase::SwarmUpdate,
            vec![barrier],
        );
        push(
            nodes,
            PlanOp::DeviceSync,
            shard,
            Phase::SwarmUpdate,
            vec![u],
        );
    }

    fn fusible(&self, _strategy: UpdateStrategy) -> bool {
        // There is no Velocity/Position pair to collapse: the update is
        // already a single launch.
        false
    }

    fn persistent_region(&self) -> &'static str {
        "persistent_sso"
    }

    fn execute(&self, op: PlanOp, cx: UpdateCtx<'_>) -> Result<(), PsoError> {
        if op != PlanOp::SsoUpdate {
            return Err(cannot_execute(self.key(), op, None));
        }
        let domain = cx.cfg.resolve_domain(cx.obj.domain());
        // A single fault-gated launch that resamples every element from the
        // counter-based stream: idempotent, so plain bounded retry suffices
        // (no strategy ladder — the kernel has one implementation).
        retry_op(cx.dev, &cx.guard.retry, || {
            sso_update(cx.dev, cx.shard, cx.cfg, cx.t, domain, cx.lbest)
        })
    }

    /// One index-sampling launch: one draw per element, no velocity
    /// arithmetic, no weight matrices.
    fn predicted_tail(
        &self,
        rows: u64,
        d: u64,
        _flops_per_dim: u64,
        _strategy: UpdateStrategy,
    ) -> Vec<GpuKernelWork> {
        let elems = rows * d;
        vec![GpuKernelWork::elementwise(
            elems,
            (RNG_FLOPS_PER_DRAW + 4) * elems,
            12 * elems,
            4 * elems,
        )]
    }
}

/// GFWA-style guided fireworks: explosion → guiding spark → selection.
pub struct Gfwa;

impl SwarmAlgorithm for Gfwa {
    fn key(&self) -> Algorithm {
        Algorithm::Gfwa
    }

    /// The explosion reads only the firework rows and their amplitudes,
    /// and the guiding spark only those rows and the explosion's sparks,
    /// so both depend on nothing in the prefix but a migration rewriting
    /// the rows. Selection compares against the iteration's fitness, so
    /// it follows the barrier.
    fn emit_update(
        &self,
        nodes: &mut Vec<PlanNode>,
        shard: usize,
        barrier: usize,
        rows_writer: Option<usize>,
    ) {
        let e = push(
            nodes,
            PlanOp::Explosion,
            shard,
            Phase::SwarmUpdate,
            rows_writer.into_iter().collect(),
        );
        let g = push(
            nodes,
            PlanOp::GuidingSpark,
            shard,
            Phase::SwarmUpdate,
            vec![e],
        );
        let s = push(
            nodes,
            PlanOp::Selection,
            shard,
            Phase::SwarmUpdate,
            vec![barrier, g],
        );
        push(
            nodes,
            PlanOp::DeviceSync,
            shard,
            Phase::SwarmUpdate,
            vec![s],
        );
    }

    fn fusible(&self, _strategy: UpdateStrategy) -> bool {
        // The three stages exchange spark populations host-side; collapsing
        // them would change the modeled traffic, so fusion is illegal.
        false
    }

    fn persistent_region(&self) -> &'static str {
        "persistent_gfwa"
    }

    /// The per-firework explosion amplitudes, allocated (and later
    /// checkpointed) only for GFWA shards.
    fn init_extra(
        &self,
        dev: &Device,
        shard: &mut Shard,
        domain: (f32, f32),
    ) -> Result<(), PsoError> {
        init_gfwa_amplitudes(dev, shard, domain)
    }

    /// The three stages hand their spark populations to each other through
    /// the shard's [`TailScratch`]. Explosion and guiding spark are pure
    /// reads of shard state and selection commits in one fault-gated
    /// launch, so each stage retries in place as a whole.
    fn execute(&self, op: PlanOp, cx: UpdateCtx<'_>) -> Result<(), PsoError> {
        let (dev, policy, scratch) = (cx.dev, &cx.guard.retry, cx.scratch);
        let domain = cx.cfg.resolve_domain(cx.obj.domain());
        match op {
            PlanOp::Explosion => {
                scratch.sparks = Some(retry_op(dev, policy, || {
                    explosion(dev, cx.shard, cx.cfg, cx.t, domain, cx.obj)
                })?);
            }
            PlanOp::GuidingSpark => {
                let Some(ex) = &scratch.sparks else {
                    return Err(cannot_execute(self.key(), op, Some(PlanOp::Explosion)));
                };
                scratch.guides = Some(retry_op(dev, policy, || {
                    guiding_spark(dev, cx.shard, domain, cx.obj, ex)
                })?);
            }
            PlanOp::Selection => {
                // Guiding sparks exist only after an explosion, so a
                // missing pair always means the guiding stage has not run.
                let (Some(ex), Some(gu)) = (scratch.sparks.take(), scratch.guides.take()) else {
                    return Err(cannot_execute(self.key(), op, Some(PlanOp::GuidingSpark)));
                };
                retry_op(dev, policy, || {
                    gfwa_selection(dev, cx.shard, &ex, &gu, domain)
                })?;
            }
            op => return Err(cannot_execute(self.key(), op, None)),
        }
        Ok(())
    }

    /// Spark generation + evaluation over `rows · S` sparks, guiding-spark
    /// construction (top/bottom-σ means) + evaluation, then selection:
    /// winner commit and amplitude adaptation in one launch.
    fn predicted_tail(
        &self,
        rows: u64,
        d: u64,
        flops_per_dim: u64,
        _strategy: UpdateStrategy,
    ) -> Vec<GpuKernelWork> {
        let elems = rows * d;
        let per_fw = GFWA_SPARKS_PER_FIREWORK as u64;
        let sparks = rows * per_fw;
        let sigma = (per_fw / 4).max(1);
        vec![
            GpuKernelWork::elementwise(
                sparks * d,
                (RNG_FLOPS_PER_DRAW + 3) * sparks * d,
                8 * sparks * d,
                4 * sparks * d,
            ),
            eval_work(sparks, d, flops_per_dim),
            GpuKernelWork::elementwise(
                elems,
                (2 * sigma + 2) * elems,
                (2 * sigma * 4 + 4) * elems,
                4 * elems,
            ),
            eval_work(rows, d, flops_per_dim),
            GpuKernelWork::elementwise(
                rows,
                (per_fw + 4) * rows,
                ((per_fw + 1) * 4 + 8) * rows,
                (d + 2) * 4 * rows,
            ),
        ]
    }

    /// Spark generation and evaluation, guiding construction and
    /// evaluation — unless a migration pins the explosion behind it.
    fn side_lane_kernels(&self, migrates: bool) -> usize {
        if migrates {
            0
        } else {
            4
        }
    }
}

/// Look up the registered implementation of `a`. The registry is the only
/// place a new algorithm must be added for the plan builder, the executor,
/// the backends and the serving layer to pick it up.
pub fn algorithm_impl(a: Algorithm) -> &'static dyn SwarmAlgorithm {
    match a {
        Algorithm::Pso => &Pso,
        Algorithm::Sso => &Sso,
        Algorithm::Gfwa => &Gfwa,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_display_round_trips_and_rejects_unknown_keys() {
        for a in Algorithm::ALL {
            let s = a.to_string();
            assert_eq!(s.parse::<Algorithm>().unwrap(), a, "{s}");
            assert_eq!(s.to_uppercase().parse::<Algorithm>().unwrap(), a);
        }
        for bad in ["cmaes", "pso2", "fireworks", "", "sso "] {
            // (trailing-space case trims, so exclude it from rejection)
            if bad.trim() == "sso" {
                assert!(bad.parse::<Algorithm>().is_ok());
            } else {
                assert!(bad.parse::<Algorithm>().is_err(), "{bad:?}");
            }
        }
    }

    #[test]
    fn registry_keys_match_and_only_pso_fuses() {
        for a in Algorithm::ALL {
            let imp = algorithm_impl(a);
            assert_eq!(imp.key(), a);
            for s in UpdateStrategy::ALL {
                let fusible = imp.fusible(s);
                if a == Algorithm::Pso {
                    assert_eq!(
                        fusible,
                        matches!(s, UpdateStrategy::GlobalMem | UpdateStrategy::ForLoop)
                    );
                } else {
                    assert!(!fusible, "{a} must not fuse under {s}");
                }
            }
        }
    }

    #[test]
    fn per_algorithm_ladders_match_design_table() {
        // PSO walks the full cheaper-strategy ladder…
        assert_eq!(
            Pso.cheaper_strategy(UpdateStrategy::GlobalMem),
            Some(UpdateStrategy::SharedMem)
        );
        assert_eq!(Pso.cheaper_strategy(UpdateStrategy::LowComplexity), None);
        // …while the single-kernel algorithms have no rungs at all.
        for a in [Algorithm::Sso, Algorithm::Gfwa] {
            let imp = algorithm_impl(a);
            for s in UpdateStrategy::ALL {
                assert_eq!(imp.cheaper_strategy(s), None, "{a}/{s}");
                assert_eq!(imp.fallback_strategy(s), None, "{a}/{s}");
            }
        }
    }

    #[test]
    fn fallback_chain_ends_at_forloop() {
        let mut s = UpdateStrategy::TensorCore;
        let mut seen = vec![s];
        while let Some(next) = Pso.fallback_strategy(s) {
            s = next;
            seen.push(s);
        }
        assert_eq!(
            seen,
            vec![
                UpdateStrategy::TensorCore,
                UpdateStrategy::SharedMem,
                UpdateStrategy::GlobalMem,
                UpdateStrategy::ForLoop,
            ]
        );
    }

    /// Run `op` through `algo` on a fresh shard and fresh scratch; returns
    /// the result and the number of launches it issued.
    fn execute_fresh(algo: Algorithm, op: PlanOp) -> (Result<(), PsoError>, u64) {
        let dev = Device::v100();
        let mut shard = Shard::alloc(&dev, 0, 8, 4).unwrap();
        let cfg = PsoConfig::builder(8, 4).build().unwrap();
        let mut strategy = UpdateStrategy::GlobalMem;
        let before = dev.fault_stats().launches;
        let res = algorithm_impl(algo).execute(
            op,
            UpdateCtx {
                dev: &dev,
                shard: &mut shard,
                scratch: &mut TailScratch::default(),
                cfg: &cfg,
                obj: &fastpso_functions::builtins::Sphere,
                t: 0,
                bound: None,
                strategy: &mut strategy,
                lbest: None,
                guard: &ResilienceConfig::OFF,
            },
        );
        (res, dev.fault_stats().launches - before)
    }

    #[test]
    fn out_of_order_or_foreign_ops_are_typed_errors_that_launch_nothing() {
        for (algo, op, needle) in [
            (Algorithm::Gfwa, PlanOp::Selection, "selection"),
            (Algorithm::Gfwa, PlanOp::GuidingSpark, "guiding_spark"),
            (Algorithm::Sso, PlanOp::Velocity, "velocity"),
            (Algorithm::Pso, PlanOp::Explosion, "explosion"),
            (
                Algorithm::Gfwa,
                PlanOp::PersistentKernel,
                "persistent_kernel",
            ),
        ] {
            let (res, launches) = execute_fresh(algo, op);
            match res {
                Err(PsoError::InvalidConfig(msg)) => {
                    assert!(msg.contains(needle), "{algo}/{op}: {msg}");
                    assert!(msg.contains(&algo.to_string()), "{algo}/{op}: {msg}");
                }
                other => panic!("{algo}/{op}: expected InvalidConfig, got {other:?}"),
            }
            assert_eq!(launches, 0, "{algo}/{op} must launch nothing");
        }
        // The same ops in their algorithm's order do launch.
        let (res, launches) = execute_fresh(Algorithm::Sso, PlanOp::SsoUpdate);
        assert!(res.is_ok());
        assert_eq!(launches, 1);
    }

    #[test]
    fn persistent_regions_are_distinct_per_algorithm() {
        let names: std::collections::HashSet<_> = Algorithm::ALL
            .iter()
            .map(|&a| algorithm_impl(a).persistent_region())
            .collect();
        assert_eq!(names.len(), Algorithm::ALL.len());
        assert_eq!(
            algorithm_impl(Algorithm::Pso).persistent_region(),
            "persistent_pso"
        );
    }
}
