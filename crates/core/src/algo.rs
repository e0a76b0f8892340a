//! Algorithm-pluggable swarm ops: the abstraction that turns the plan IR
//! from "a PSO" into a swarm-intelligence platform.
//!
//! Every algorithm the repo serves shares one iteration skeleton — evaluate
//! the population, update per-particle bests, reduce the swarm best — and
//! differs only in its *update tail*: the kernels that move the population.
//! [`SwarmAlgorithm`] captures exactly that seam. An implementation
//! declares its tail's stages ([`SwarmAlgorithm::stages`]: name, deps,
//! fusion role), builds each stage's launch descriptors from the functions
//! its kernels launch ([`SwarmAlgorithm::launches`]), executes the stages
//! ([`SwarmAlgorithm::execute`]), and names its strategy ladders and any
//! extra per-particle state. The plan builder,
//! the `PlanRun` executor, the serving layer and the cost predictor all
//! work from those declarations and never branch on "is this PSO".
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
use crate::error::PsoError;
use crate::gpu::kernels::{
    explosion, explosion_descs, fused_desc, fused_swarm_update, gen_weights, gen_weights_descs,
    gfwa_selection, guiding_descs, guiding_spark, init_gfwa_amplitudes, init_gfwa_desc,
    position_desc, position_update, selection_desc, sso_desc, sso_update, velocity_desc,
    velocity_update, Explosion, GuidingSpark, Shard,
};
use crate::gpu::UpdateStrategy;
use crate::resilience::{retry_degradable, retry_op, ResilienceConfig};
use fastpso_functions::Objective;
use gpu_sim::{Device, KernelDesc, Phase};
use perf_model::GpuProfile;
use std::fmt;
use std::str::FromStr;

/// Which swarm-intelligence algorithm a plan runs. This is the serializable
/// key every layer shares: the plan builder, the backend registry
/// (`fastpso-sso`, `fastpso-gfwa`), the serve scheduler's admission ladder
/// and the cost predictor's calibration key.
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

/// One stage of an algorithm's update tail: the op of every tail node
/// ([`crate::PlanOp::Stage`]). It names the algorithm and the stage's entry in
/// that algorithm's [`SwarmAlgorithm::stages`] table, and displays as the
/// stage's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    algo: Algorithm,
    /// The stage's index in its algorithm's table.
    pub(crate) index: usize,
}

impl Stage {
    /// Entry `index` of `algo`'s stage table. Every `Stage` is built here,
    /// from an index the table has.
    pub(crate) fn new(algo: Algorithm, index: usize) -> Stage {
        debug_assert!(index < algorithm_impl(algo).stages().len());
        Stage { algo, index }
    }

    /// The algorithm whose tail this stage belongs to.
    pub fn algorithm(self) -> Algorithm {
        self.algo
    }

    /// The stage's entry in its algorithm's table.
    pub fn spec(self) -> &'static StageSpec {
        &algorithm_impl(self.algo).stages()[self.index]
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// How one update-tail stage is wired into the iteration graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpec {
    /// The stage's name, as its op displays in plans and error messages.
    pub name: &'static str,
    /// Timeline phase the stage's node is charged to.
    pub phase: Phase,
    /// The node of the shared prefix the stage depends on.
    pub prefix: PrefixDep,
    /// Earlier stages of the same tail whose output the stage consumes
    /// (indices into the table).
    pub after: &'static [usize],
    /// For a stage only the fusion rewrite produces, the `[first, second]`
    /// pair it replaces (`second` consumes `first`); the plan builder never
    /// emits it.
    pub fuses: Option<[usize; 2]>,
}

/// The node of an iteration's shared prefix an update-tail stage depends
/// on: the dependency edge [`crate::ExecutionPlan::build_for`] gives the
/// stage's node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixDep {
    /// None: only counter-based draws and its `after` stages.
    Independent,
    /// The prefix node rewriting particle rows this iteration (island
    /// migration), if the plan has one: the stage reads rows only.
    Rows,
    /// The barrier (the reduce, or the ring or island gather): the stage
    /// reads the iteration's fitness, bests or attractors.
    Barrier,
}

/// What one shard's update-tail launches depend on.
#[derive(Debug, Clone, Copy)]
pub struct TailShape<'a> {
    /// Device profile (resource-aware launch geometry).
    pub gpu: &'a GpuProfile,
    /// Particle rows in the shard.
    pub rows: u64,
    /// Dimensionality.
    pub d: u64,
    /// Objective FP cost per dimension per evaluation.
    pub flops_per_dim: u64,
    /// Update strategy.
    pub strategy: UpdateStrategy,
}

/// The pluggable per-algorithm surface of the plan layer. Implementations
/// are stateless unit structs reached through [`algorithm_impl`]; all
/// mutable state lives in the shards and in the executor-owned
/// [`TailScratch`].
pub trait SwarmAlgorithm: Sync {
    /// The serializable key of this implementation.
    fn key(&self) -> Algorithm;

    /// Every stage of the update tail — everything between the shared
    /// eval → pbest → argmin → reduce prefix and the iteration's closing
    /// device sync — in launch order, each declaring the dependencies it
    /// really has. The plan builder emits one node per unfused stage and
    /// shard from this table.
    fn stages(&self) -> &'static [StageSpec];

    /// Whether the kernel-fusion rewrite may collapse the stage pair a
    /// fused stage of [`SwarmAlgorithm::stages`] replaces
    /// ([`StageSpec::fuses`]) under `strategy`. The default never fuses.
    fn fusible(&self, _strategy: UpdateStrategy) -> bool {
        false
    }

    /// The launches one node of `stage` issues over a shard of `shape`, in
    /// launch order. Each descriptor is built by the function its kernel
    /// launches, so the executor runs and [`crate::CostPredictor`] prices
    /// the same launches. A stage the algorithm does not emit issues none.
    fn launches(&self, stage: Stage, shape: &TailShape<'_>) -> Vec<KernelDesc>;

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

    /// The launch [`SwarmAlgorithm::init_extra`] issues over a shard of
    /// `shape` after allocating its one per-row buffer, or `None` when the
    /// algorithm carries no extra state (the default).
    fn init_extra_launch(&self, _shape: &TailShape<'_>) -> Option<KernelDesc> {
        None
    }

    /// Device buffers one shard's update tail requests afresh every
    /// iteration (PSO's weight matrices). The caching allocator serves
    /// them from its pool. The default requests none.
    fn iteration_allocs(&self, _shape: &TailShape<'_>) -> u64 {
        0
    }

    /// Execute one of this algorithm's update-tail stages under the
    /// executor's resilience guard (`cx`'s retry policy and strategy
    /// ladder). A stage run before the stage it consumes, or one the
    /// algorithm does not emit, is rejected with [`PsoError::InvalidPlan`]
    /// before anything is launched.
    fn execute(&self, stage: Stage, cx: UpdateCtx<'_>) -> Result<(), PsoError>;
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
/// only between the explosion, guiding-spark and selection stages of one
/// iteration and is never checkpointed — a replayed iteration regenerates
/// it from the counter-based stream. Opaque outside this module.
#[derive(Default)]
pub struct TailScratch {
    sparks: Option<Explosion>,
    guides: Option<GuidingSpark>,
}

/// The typed error for an op `algo`'s tail does not emit: another engine's
/// stage, or a node its stage table has no entry for.
pub(crate) fn not_emitted(algo: Algorithm, op: impl fmt::Display) -> PsoError {
    let msg = format!("{algo} cannot execute plan op {op}: it does not emit it");
    PsoError::InvalidPlan(msg)
}

/// The typed error for a stage run before the stage it consumes.
fn not_yet_run(stage: Stage, missing: usize) -> PsoError {
    let missing = Stage::new(stage.algo, missing);
    PsoError::InvalidPlan(format!(
        "{} cannot execute plan op {stage}: {missing} has not run",
        stage.algo
    ))
}

/// A stage every algorithm's table spells the same way: charged to the
/// swarm-update phase, not produced by fusion.
const fn stage(name: &'static str, prefix: PrefixDep, after: &'static [usize]) -> StageSpec {
    StageSpec {
        name,
        phase: Phase::SwarmUpdate,
        prefix,
        after,
        fuses: None,
    }
}

/// FastPSO proper: the paper's velocity/position update pair.
pub struct Pso;

impl Pso {
    const GEN_WEIGHTS: usize = 0;
    const VELOCITY: usize = 1;
    const POSITION: usize = 2;
    const FUSED: usize = 3;
    /// Weight generation has no in-iteration deps (its RNG is
    /// counter-based on (seed, t, element)) and is charged to Init, the
    /// paper's breakdown; the velocity update reads the bests; the fusion
    /// rewrite collapses velocity + position into one launch.
    const STAGES: [StageSpec; 4] = [
        StageSpec {
            phase: Phase::Init,
            ..stage("gen_weights", PrefixDep::Independent, &[])
        },
        stage("velocity", PrefixDep::Barrier, &[Pso::GEN_WEIGHTS]),
        stage("position", PrefixDep::Independent, &[Pso::VELOCITY]),
        StageSpec {
            fuses: Some([Pso::VELOCITY, Pso::POSITION]),
            ..stage(
                "fused_swarm_update",
                PrefixDep::Barrier,
                &[Pso::GEN_WEIGHTS],
            )
        },
    ];
}

impl SwarmAlgorithm for Pso {
    fn key(&self) -> Algorithm {
        Algorithm::Pso
    }

    fn stages(&self) -> &'static [StageSpec] {
        &Self::STAGES
    }

    /// Only the untiled strategies fuse: the tiled ones keep their
    /// staging pipelines.
    fn fusible(&self, strategy: UpdateStrategy) -> bool {
        matches!(
            strategy,
            UpdateStrategy::GlobalMem | UpdateStrategy::ForLoop
        )
    }

    fn launches(&self, stage: Stage, shape: &TailShape<'_>) -> Vec<KernelDesc> {
        let TailShape {
            gpu,
            rows,
            d,
            strategy,
            ..
        } = *shape;
        match stage.index {
            Self::GEN_WEIGHTS => gen_weights_descs(gpu, rows, d, strategy).to_vec(),
            Self::VELOCITY => vec![velocity_desc(gpu, rows, d, strategy)],
            Self::POSITION => vec![position_desc(gpu, rows, d, strategy)],
            Self::FUSED => vec![fused_desc(gpu, rows, d, strategy)],
            _ => Vec::new(),
        }
    }

    /// `gen_weights` writes each weight launch into a fresh buffer.
    fn iteration_allocs(&self, shape: &TailShape<'_>) -> u64 {
        let TailShape {
            gpu,
            rows,
            d,
            strategy,
            ..
        } = *shape;
        gen_weights_descs(gpu, rows, d, strategy).len() as u64
    }

    /// The next strategy rung below `s` on the admission downgrade ladder,
    /// or `None` when `s` is the last rung.
    ///
    /// This is the admission controller's downgrade ladder — the knob
    /// `fastpso::serve` turns when a job's requested strategy cannot meet
    /// its deadline. It is deliberately distinct from the fault ladder
    /// ([`SwarmAlgorithm::fallback_strategy`]), which walks toward the
    /// most *conservative* rung after faults:
    ///
    /// * `ForLoop → GlobalMem → SharedMem → LowComplexity` — each step
    ///   removes a cost source (latency-bound threads, then broadcast
    ///   DRAM reads, then `d`-fold RNG draws), but a step is not always
    ///   cheaper: at 5000×100 SharedMem's staging prices and executes above
    ///   GlobalMem (the predictor's `strategy_ordering_matches_the_modeled_kernels`
    ///   test pins that). Admission prices every rung it reaches, so its
    ///   fit check simply moves past a rung that is not cheaper.
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

    fn execute(&self, stage: Stage, cx: UpdateCtx<'_>) -> Result<(), PsoError> {
        match stage.index {
            Self::GEN_WEIGHTS => {
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
            Self::VELOCITY => retry_degradable(self, cx.dev, cx.guard, cx.strategy, |stg| {
                velocity_update(cx.dev, cx.shard, cx.cfg, cx.t, cx.bound, stg, cx.lbest)
            }),
            Self::POSITION => retry_degradable(self, cx.dev, cx.guard, cx.strategy, |stg| {
                position_update(cx.dev, cx.shard, stg)
            }),
            // Unlike the split pair, the fused launch's single fault gate
            // fires before any element is written, so the whole step
            // retries safely as one op.
            Self::FUSED => retry_degradable(self, cx.dev, cx.guard, cx.strategy, |stg| {
                fused_swarm_update(cx.dev, cx.shard, cx.cfg, cx.t, cx.bound, stg, cx.lbest)
            }),
            _ => Err(not_emitted(Algorithm::Pso, stage)),
        }
    }
}

/// Discrete Simplified Swarm Optimization: one index-sampling kernel.
pub struct Sso;

impl Sso {
    const UPDATE: usize = 0;
    /// One per-element index-sampling launch that reads the bests; there
    /// is no velocity/position pair to fuse.
    const STAGES: [StageSpec; 1] = [stage("sso_update", PrefixDep::Barrier, &[])];
}

impl SwarmAlgorithm for Sso {
    fn key(&self) -> Algorithm {
        Algorithm::Sso
    }

    fn stages(&self) -> &'static [StageSpec] {
        &Self::STAGES
    }

    fn launches(&self, stage: Stage, shape: &TailShape<'_>) -> Vec<KernelDesc> {
        match stage.index {
            Self::UPDATE => vec![sso_desc(shape.gpu, shape.rows, shape.d)],
            _ => Vec::new(),
        }
    }

    fn execute(&self, stage: Stage, cx: UpdateCtx<'_>) -> Result<(), PsoError> {
        if stage.index != Self::UPDATE {
            return Err(not_emitted(Algorithm::Sso, stage));
        }
        let domain = cx.cfg.resolve_domain(cx.obj.domain());
        // A single fault-gated launch that resamples every element from the
        // counter-based stream: idempotent, so plain bounded retry suffices
        // (no strategy ladder — the kernel has one implementation).
        retry_op(cx.dev, &cx.guard.retry, || {
            sso_update(cx.dev, cx.shard, cx.cfg, cx.t, domain, cx.lbest)
        })
    }
}

/// GFWA-style guided fireworks: explosion → guiding spark → selection.
pub struct Gfwa;

impl Gfwa {
    const EXPLOSION: usize = 0;
    const GUIDING_SPARK: usize = 1;
    const SELECTION: usize = 2;
    /// The explosion reads only the firework rows and their amplitudes,
    /// and the guiding spark only those rows and the explosion's sparks,
    /// so both depend on nothing in the prefix but a migration rewriting
    /// the rows. Selection compares against the iteration's fitness, so
    /// it follows the barrier. The stages exchange spark populations
    /// host-side; collapsing them would change the modeled traffic, so
    /// none fuse.
    const STAGES: [StageSpec; 3] = [
        stage("explosion", PrefixDep::Rows, &[]),
        stage("guiding_spark", PrefixDep::Independent, &[Gfwa::EXPLOSION]),
        stage("selection", PrefixDep::Barrier, &[Gfwa::GUIDING_SPARK]),
    ];
}

impl SwarmAlgorithm for Gfwa {
    fn key(&self) -> Algorithm {
        Algorithm::Gfwa
    }

    fn stages(&self) -> &'static [StageSpec] {
        &Self::STAGES
    }

    fn launches(&self, stage: Stage, shape: &TailShape<'_>) -> Vec<KernelDesc> {
        let TailShape {
            gpu,
            rows,
            d,
            flops_per_dim,
            ..
        } = *shape;
        match stage.index {
            Self::EXPLOSION => explosion_descs(gpu, rows, d, flops_per_dim).to_vec(),
            Self::GUIDING_SPARK => guiding_descs(gpu, rows, d, flops_per_dim).to_vec(),
            Self::SELECTION => vec![selection_desc(gpu, rows, d)],
            _ => Vec::new(),
        }
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

    fn init_extra_launch(&self, shape: &TailShape<'_>) -> Option<KernelDesc> {
        Some(init_gfwa_desc(shape.gpu, shape.rows))
    }

    /// The three stages hand their spark populations to each other through
    /// the shard's [`TailScratch`]. Explosion and guiding spark are pure
    /// reads of shard state and selection commits in one fault-gated
    /// launch, so each stage retries in place as a whole.
    fn execute(&self, stage: Stage, cx: UpdateCtx<'_>) -> Result<(), PsoError> {
        let (dev, policy, scratch) = (cx.dev, &cx.guard.retry, cx.scratch);
        let domain = cx.cfg.resolve_domain(cx.obj.domain());
        match stage.index {
            Self::EXPLOSION => {
                scratch.sparks = Some(retry_op(dev, policy, || {
                    explosion(dev, cx.shard, cx.cfg, cx.t, domain, cx.obj)
                })?);
            }
            Self::GUIDING_SPARK => {
                let Some(ex) = &scratch.sparks else {
                    return Err(not_yet_run(stage, Self::EXPLOSION));
                };
                scratch.guides = Some(retry_op(dev, policy, || {
                    guiding_spark(dev, cx.shard, domain, cx.obj, ex)
                })?);
            }
            Self::SELECTION => {
                // Guiding sparks exist only after an explosion, so a
                // missing pair always means the guiding stage has not run.
                let (Some(ex), Some(gu)) = (scratch.sparks.take(), scratch.guides.take()) else {
                    return Err(not_yet_run(stage, Self::GUIDING_SPARK));
                };
                retry_op(dev, policy, || {
                    gfwa_selection(dev, cx.shard, &ex, &gu, domain)
                })?;
            }
            _ => return Err(not_emitted(Algorithm::Gfwa, stage)),
        }
        Ok(())
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

    impl Stage {
        /// The stage of `algo` called `name`, if it has one.
        pub(crate) fn named(algo: Algorithm, name: &str) -> Option<Stage> {
            let stages = algorithm_impl(algo).stages();
            let index = stages.iter().position(|s| s.name == name)?;
            Some(Stage { algo, index })
        }
    }

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

    /// Run `stage` through its algorithm on a fresh shard and fresh
    /// scratch; returns the result and the number of launches it issued.
    fn execute_fresh(stage: Stage) -> (Result<(), PsoError>, u64) {
        let dev = Device::v100();
        let mut shard = Shard::alloc(&dev, 0, 8, 4).unwrap();
        let cfg = PsoConfig::builder(8, 4).build().unwrap();
        let mut strategy = UpdateStrategy::GlobalMem;
        let before = dev.fault_stats().launches;
        let res = algorithm_impl(stage.algorithm()).execute(
            stage,
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
    fn out_of_order_stages_are_typed_errors_that_launch_nothing() {
        for (name, missing) in [
            ("selection", "guiding_spark"),
            ("guiding_spark", "explosion"),
        ] {
            let (res, launches) = execute_fresh(Stage::named(Algorithm::Gfwa, name).unwrap());
            match res {
                Err(PsoError::InvalidPlan(msg)) => {
                    assert!(msg.contains(name), "{name}: {msg}");
                    assert!(msg.contains(missing), "{name}: {msg}");
                    assert!(msg.contains("gfwa"), "{name}: {msg}");
                }
                other => panic!("{name}: expected InvalidPlan, got {other:?}"),
            }
            assert_eq!(launches, 0, "{name} must launch nothing");
        }
        // A stage whose inputs exist does launch.
        let (res, launches) = execute_fresh(Stage::named(Algorithm::Sso, "sso_update").unwrap());
        assert!(res.is_ok());
        assert_eq!(launches, 1);
    }

    #[test]
    fn every_stage_is_found_by_its_name_and_fusion_targets_are_never_emitted() {
        let gpu = GpuProfile::tesla_v100();
        // Declaration order: Independent < Rows < Barrier.
        let rank = |p: PrefixDep| p as u8;
        for a in Algorithm::ALL {
            let stages = algorithm_impl(a).stages();
            for spec in stages {
                let stage = Stage::named(a, spec.name).unwrap();
                assert_eq!(stage.spec(), spec);
                assert_eq!(stage.to_string(), spec.name);
                assert!(spec.after.iter().all(|&i| stages[i].fuses.is_none()));
                for strategy in UpdateStrategy::ALL {
                    let shape = TailShape {
                        gpu: &gpu,
                        rows: 64,
                        d: 8,
                        flops_per_dim: 2,
                        strategy,
                    };
                    let launches = algorithm_impl(a).launches(stage, &shape);
                    assert!(!launches.is_empty(), "{a}/{stage} under {strategy}");
                }
                if let Some([first, second]) = spec.fuses {
                    let (f, s) = (&stages[first], &stages[second]);
                    assert!(f.fuses.is_none() && s.fuses.is_none());
                    assert_eq!(s.after, &[first][..]);
                    // The rewrite keeps `first`'s node, edges and phase for
                    // the fused one, so the fused entry must declare
                    // exactly those, and they must cover `second`'s.
                    assert_eq!(
                        (spec.prefix, spec.after, spec.phase),
                        (f.prefix, f.after, f.phase)
                    );
                    assert!(rank(s.prefix) <= rank(f.prefix), "{a}/{}", spec.name);
                    assert_eq!(s.phase, f.phase);
                }
            }
        }
    }
}
