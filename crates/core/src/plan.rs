//! Execution plans: a declarative per-iteration kernel graph and the single
//! executor that replaced the four hand-rolled GPU run loops.
//!
//! One FastPSO iteration is always the same dataflow — evaluate, update
//! per-particle bests, reduce the swarm best, regenerate weights, apply the
//! swarm update (paper §3.1's four steps) — but the seed grew four separate
//! loop bodies encoding it: plain and resilient, single- and multi-GPU.
//! This module factors the dataflow out as data. [`ExecutionPlan::build`]
//! turns a [`PsoConfig`] plus a shard count into a list of [`PlanNode`]s
//! (kernel invocations with phase, shard and dependency edges), the fusion
//! pass rewrites the graph ([`ExecutionPlan::fuse_swarm_update`]), and the
//! crate-private `PlanRun` executor walks the node list once per iteration. It runs the shared
//! prefix (eval, pbest, argmin, reduce/adopt, topology gathers) itself and
//! hands every update-tail op to the plan's algorithm
//! ([`crate::algo::SwarmAlgorithm::execute`]). Every op goes through one
//! resilience guard: the run's `ResilienceConfig` (bounded retry, strategy
//! degradation, quarantine), or a zero-retry policy when none is
//! configured, under which each op is just its bare call. Checkpoint/replay
//! and shard re-homing wrap whole iterations. Execution is *resumable*: the
//! executor's per-iteration state lives in an owned `ExecState` that can be
//! stepped a slice at a time, snapshotted to host memory and resumed later
//! — the mechanism [`crate::serve`] uses to time-slice and preempt jobs
//! without perturbing their trajectories.
//!
//! Every run targets a [`DeviceGroup`] (a single-GPU run is a group of
//! one), and every execution state advances through one loop,
//! `PlanRun::step_slice`. Residency is a dispatch decision, not a plan
//! rewrite: the plan describes one iteration's schedule, and a slice runs
//! either launch by launch or inside device-resident regions opened by the
//! crate-private `run_resident`, the one place persistent regions open and
//! close: one per device of the group, each grid-stride over the elements
//! homed there. Its two callers are a persistent GPU run
//! ([`crate::GpuBackend::persistent`], the whole run as one slice) and the
//! serving layer, once per tick over its group, every running job stepping
//! one slice inside.
//!
//! Rows are split across shards in one place: the crate-private
//! `partition(n, k)` gives shard `i` a contiguous block, with the
//! remainder spread over the leading shards. `PlanRun::init_state` applies
//! it over the plan's `n_shards`, so a GPU run on one device or a group
//! (paper §3.5) and the serving layer share one split, and a
//! suspended job's checkpoints keep the geometry it produced.
//!
//! Two invariants keep the refactor honest, and the `plan` integration test
//! plus `tests/perf_invariants.rs` pin both:
//!
//! * **Node order is execution order.** Nodes are constructed in exactly the
//!   sequence the legacy loops issued their kernels, and the executor never
//!   reorders. Dependency edges exist for the fusion pass, not for a
//!   scheduler — so `gbest`
//!   trajectories are bit-identical to the seed's. Launch schedules are
//!   not: best tracking takes one launch per decision (`pbest_update`
//!   carries its row copies; the argmin is single-pass and, on one shard,
//!   adopts the winner), so the seed's separate copy and reduction-pass
//!   launches are gone while every flop and byte is still charged.
//! * **Fusion is opt-in.** A freshly built plan executes the default
//!   schedule; fusion only changes anything when a backend or request
//!   explicitly enables it.
//!
//! # Example
//!
//! Build a plan, inspect its node list, and check that the fusion pass
//! collapses the algorithm's fusible stage pair into one node:
//!
//! ```
//! use fastpso::{BestReduce, ExecutionPlan, PlanOp, PsoConfig, UpdateStrategy};
//!
//! let cfg = PsoConfig::builder(64, 8).max_iter(100).build().unwrap();
//! let mut plan = ExecutionPlan::build(&cfg, 1, BestReduce::Local);
//! let launches_before = plan.nodes.len();
//! assert_eq!(plan.nodes[0].op, PlanOp::Eval);
//!
//! assert!(plan.fuse_swarm_update(UpdateStrategy::GlobalMem));
//! assert!(plan.is_fused());
//! assert_eq!(plan.nodes.len(), launches_before - 1);
//! ```

use crate::algo::{
    algorithm_impl, not_emitted, Algorithm, PrefixDep, Stage, TailScratch, TailShape, UpdateCtx,
};
use crate::config::{BoundSchedule, PsoConfig};
use crate::error::PsoError;
use crate::gpu::kernels::{
    adopt_gbest_from_host, adopt_gbest_local, argmin_adopt, eval_shard, init_shard,
    island_attractors, local_argmin, migrate_elites, pbest_update, ring_lbest, Shard,
    UpdateStrategy,
};
use crate::resilience::{
    quarantine_nonfinite, retry_op, ResilienceConfig, RetryPolicy, ShardCheckpoint,
};
use crate::result::RunResult;
use crate::topology::{Migration, Topology};
use fastpso_functions::Objective;
use gpu_sim::reduce::MinResult;
use gpu_sim::{CopyTicket, Device, DeviceGroup, KernelDesc, Phase, Timeline};

/// One kernel-level operation of a FastPSO iteration (paper §3.1's steps,
/// at launch granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Step (ii): evaluate the objective over a shard's rows.
    Eval,
    /// Step (iii), per-particle half: update pbest errors and copy the
    /// rows that improved, in one element-wise launch.
    PBest,
    /// Step (iii), reduction half: a single-pass argmin over a shard's
    /// pbest errors. Under [`BestReduce::Local`] the same launch adopts the
    /// winner into `gbest` when it improves.
    Argmin,
    /// Step (iii), adoption half: combine per-shard argmins into the swarm
    /// best and adopt it on every shard that improves — an exchange +
    /// broadcast for a device group. Under [`BestReduce::Local`] the argmin
    /// already adopted, so this node only records whether the best
    /// improved and launches nothing.
    ReduceAdopt,
    /// Ring-topology neighbourhood bests (single-shard plans only; sharded
    /// runs reject ring configs).
    RingLbest {
        /// Neighbourhood half-width.
        k: usize,
    },
    /// End-of-iteration device synchronisation (a grid-wide barrier inside
    /// a persistent region).
    DeviceSync,
    /// One stage of the plan's algorithm's update tail: its name, deps,
    /// fusion role and launches come from the algorithm
    /// ([`crate::SwarmAlgorithm`]), which also executes it.
    Stage(Stage),
    /// Island migration ([`crate::topology::Topology::Islands`]): copy each
    /// donor island's elite rows over its receiver's worst rows, per the
    /// configured [`crate::topology::MigrationKind`]. Algorithm-agnostic —
    /// the node moves whole particle rows (position, velocity, bests and
    /// any extra state), so PSO, SSO and GFWA all migrate through this one
    /// op. Fires only on iterations where the configured migration period
    /// divides `t + 1`; on other iterations the executor skips it without
    /// charging a launch.
    Migrate {
        /// Number of islands the swarm is partitioned into.
        islands: usize,
        /// Pattern, period and elite count of the exchange.
        migration: Migration,
    },
    /// Island attractor gather: compute each island's best `pbest` row and
    /// broadcast its index to every resident particle, filling the same
    /// per-particle attractor channel [`PlanOp::RingLbest`] feeds — which
    /// is how every engine's update tail consumes islands without
    /// island-specific lowering.
    EliteSelect {
        /// Number of islands the swarm is partitioned into.
        islands: usize,
    },
}

impl std::fmt::Display for PlanOp {
    /// Canonical identifier of the op, as error messages name it
    /// (`ring_lbest` carries its half-width as `ring_lbest:k`; a stage
    /// prints its algorithm's name for it).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanOp::Eval => write!(f, "eval"),
            PlanOp::PBest => write!(f, "pbest"),
            PlanOp::Argmin => write!(f, "argmin"),
            PlanOp::ReduceAdopt => write!(f, "reduce_adopt"),
            PlanOp::RingLbest { k } => write!(f, "ring_lbest:{k}"),
            PlanOp::DeviceSync => write!(f, "device_sync"),
            PlanOp::Stage(stage) => write!(f, "{stage}"),
            PlanOp::Migrate { migration, .. } => {
                write!(f, "migrate:{}:{}", migration.kind, migration.elites)
            }
            PlanOp::EliteSelect { islands } => write!(f, "elite_select:{islands}"),
        }
    }
}

/// One node of the per-iteration kernel graph: an operation, the shard it
/// acts on, and its edges.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// What to launch.
    pub op: PlanOp,
    /// Which shard (device-resident row block) the op acts on. For
    /// [`PlanOp::ReduceAdopt`] — which touches every shard — this is 0.
    pub shard: usize,
    /// Timeline phase the op's launches are charged to (informational; the
    /// kernels themselves carry their phase).
    pub phase: Phase,
    /// Indices of nodes this one consumes data from. Used by the fusion
    /// pass; the executor runs nodes in list order regardless.
    pub deps: Vec<usize>,
}

/// How step (iii) combines per-shard bests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BestReduce {
    /// Single shard: the argmin launch adopts its winner directly.
    Local,
    /// Device group: exchange local bests and broadcast the winner every
    /// `sync_every` iterations (1 = every iteration, the tile-matrix
    /// decomposition; 0 = never sync, track the global best host-side only).
    Exchange {
        /// Iterations between best exchanges.
        sync_every: usize,
    },
}

impl BestReduce {
    /// Local on one shard, an exchange every iteration (the tile-matrix
    /// decomposition) on several.
    pub fn for_shards(n_shards: usize) -> BestReduce {
        if n_shards > 1 {
            BestReduce::Exchange { sync_every: 1 }
        } else {
            BestReduce::Local
        }
    }
}

/// The per-iteration kernel graph, built once per run from the config.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Nodes in execution order.
    pub nodes: Vec<PlanNode>,
    /// The swarm algorithm whose update tail the plan carries
    /// ([`ExecutionPlan::build`] always builds PSO; use
    /// [`ExecutionPlan::build_for`] for the others).
    pub algorithm: Algorithm,
    /// Number of shards the plan spans.
    pub n_shards: usize,
    /// Best-reduction mode.
    pub reduce: BestReduce,
    /// Length of the shared prefix: nodes `[0, prefix_len)` are every
    /// shard's eval → pbest → argmin, the reduce and the optional ring or
    /// island gathers; the rest are the algorithm's update tails.
    prefix_len: usize,
}

/// Bytes each shard publishes per best exchange: its local best value and
/// position row, `d + 1` floats. The executor's [`DeviceGroup::exchange`]
/// charges it and the cost predictor prices it.
pub(crate) fn best_exchange_bytes(d: u64) -> u64 {
    (d + 1) * std::mem::size_of::<f32>() as u64
}

/// Append a node and return its index.
pub(crate) fn push(
    nodes: &mut Vec<PlanNode>,
    op: PlanOp,
    shard: usize,
    phase: Phase,
    deps: Vec<usize>,
) -> usize {
    nodes.push(PlanNode {
        op,
        shard,
        phase,
        deps,
    });
    nodes.len() - 1
}

impl ExecutionPlan {
    /// Build the PSO iteration graph for `n_shards` shards. Node
    /// construction order is the legacy loops' execution order: per-shard
    /// eval→pbest→argmin, one reduce/adopt, the optional ring gather, then
    /// each shard's update tail and sync. Equivalent to
    /// [`ExecutionPlan::build_for`] with [`Algorithm::Pso`].
    pub fn build(cfg: &PsoConfig, n_shards: usize, reduce: BestReduce) -> ExecutionPlan {
        Self::build_for(Algorithm::Pso, cfg.topology, n_shards, reduce)
    }

    /// Build the iteration graph of `algorithm` for `n_shards` shards
    /// under `topology`, the one part of a config the graph depends on.
    /// Every algorithm shares the same prefix — per-shard
    /// eval→pbest→argmin, one reduce/adopt, the optional ring or island
    /// gathers — and contributes its own per-shard update tail, one node
    /// per stage of [`crate::SwarmAlgorithm::stages`]. (Sharded runs
    /// reject local topologies before running, and the executor refuses a
    /// gather in a plan of more than one shard, so only cost models read
    /// the gathers of a sharded plan.)
    pub fn build_for(
        algorithm: Algorithm,
        topology: Topology,
        n_shards: usize,
        reduce: BestReduce,
    ) -> ExecutionPlan {
        assert!(n_shards > 0, "a plan needs at least one shard");
        let stages = algorithm_impl(algorithm).stages();
        let mut nodes = Vec::with_capacity(4 + (4 + stages.len()) * n_shards);
        let mut argmins = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let e = push(&mut nodes, PlanOp::Eval, s, Phase::Eval, vec![]);
            let p = push(&mut nodes, PlanOp::PBest, s, Phase::PBest, vec![e]);
            argmins.push(push(&mut nodes, PlanOp::Argmin, s, Phase::GBest, vec![p]));
        }
        let reduce_idx = push(&mut nodes, PlanOp::ReduceAdopt, 0, Phase::GBest, argmins);
        let mut barrier = reduce_idx;
        let mut rows_writer = None;
        let mut gather = |op, dep| push(&mut nodes, op, 0, Phase::GBest, vec![dep]);
        match topology {
            Topology::Ring { k } => barrier = gather(PlanOp::RingLbest { k }, reduce_idx),
            Topology::Islands { islands, migration } => {
                // Migration first (it rewrites pbest rows), then the
                // attractor gather over the post-migration state. The
                // gather is the new barrier, so every engine's update tail
                // reads island attractors instead of the gbest — islands
                // reach PSO, SSO and GFWA through these two generic nodes
                // alone.
                let mig = gather(PlanOp::Migrate { islands, migration }, reduce_idx);
                rows_writer = Some(mig);
                barrier = gather(PlanOp::EliteSelect { islands }, mig);
            }
            Topology::Global => {}
        }
        let prefix_len = nodes.len();
        for s in 0..n_shards {
            // Node index of each emitted stage, for its successors' edges.
            let mut at = vec![usize::MAX; stages.len()];
            let mut last = None;
            for (i, spec) in stages.iter().enumerate() {
                if spec.fuses.is_some() {
                    continue;
                }
                let mut deps: Vec<usize> = match spec.prefix {
                    PrefixDep::Independent => vec![],
                    PrefixDep::Rows => rows_writer.into_iter().collect(),
                    PrefixDep::Barrier => vec![barrier],
                };
                deps.extend(spec.after.iter().map(|&a| at[a]));
                let op = PlanOp::Stage(Stage::new(algorithm, i));
                at[i] = push(&mut nodes, op, s, spec.phase, deps);
                last = Some(at[i]);
            }
            push(
                &mut nodes,
                PlanOp::DeviceSync,
                s,
                Phase::SwarmUpdate,
                last.into_iter().collect(),
            );
        }
        ExecutionPlan {
            nodes,
            algorithm,
            n_shards,
            reduce,
            prefix_len,
        }
    }

    /// Rewrite pass: collapse the stage pair a fused stage of the plan's
    /// algorithm replaces ([`crate::StageSpec::fuses`]) into that stage, one
    /// launch per shard, re-pointing edges of removed nodes at the fused
    /// node. Returns `false` and leaves the plan alone where the algorithm
    /// declares no fusion for `strategy`
    /// ([`crate::SwarmAlgorithm::fusible`]; for example a strategy whose
    /// staging pipeline fusing would change).
    pub fn fuse_swarm_update(&mut self, strategy: UpdateStrategy) -> bool {
        let alg = algorithm_impl(self.algorithm);
        let mut fused = alg.stages().iter().enumerate();
        let Some((into, [first, second])) = fused.find_map(|(i, s)| Some((i, s.fuses?))) else {
            return false;
        };
        if !alg.fusible(strategy) {
            return false;
        }
        let is = |op: PlanOp, index: usize| matches!(op, PlanOp::Stage(s) if s.index == index);
        let n = self.nodes.len();
        // Each `second` node collapses into the `first` node it reads.
        let mut redirect: Vec<usize> = (0..n).collect();
        let mut removed = vec![false; n];
        for i in 0..n {
            if !is(self.nodes[i].op, second) {
                continue;
            }
            let deps = &self.nodes[i].deps;
            if let Some(&v) = deps.iter().find(|&&d| is(self.nodes[d].op, first)) {
                removed[i] = true;
                redirect[i] = v;
            }
        }
        for node in &mut self.nodes {
            if is(node.op, first) {
                node.op = PlanOp::Stage(Stage::new(self.algorithm, into));
            }
        }
        let mut new_idx = vec![usize::MAX; n];
        let mut kept = Vec::with_capacity(n);
        for i in 0..n {
            if !removed[i] {
                new_idx[i] = kept.len();
                kept.push(self.nodes[i].clone());
            }
        }
        for node in &mut kept {
            for dep in node.deps.iter_mut() {
                *dep = new_idx[redirect[*dep]];
            }
            node.deps.sort_unstable();
            node.deps.dedup();
        }
        self.nodes = kept;
        true
    }

    /// The nodes the executor walks once per iteration, in order. Every
    /// dispatch mode walks the same list: whether a slice runs launch by
    /// launch or inside a device-resident region is decided where it is
    /// dispatched, not in the plan.
    pub fn iteration_nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Whether the fusion pass rewrote this plan (any fused node present).
    pub fn is_fused(&self) -> bool {
        self.nodes
            .iter()
            .any(|n| matches!(n.op, PlanOp::Stage(s) if s.spec().fuses.is_some()))
    }

    /// The launches one iteration of `shard`'s update tail issues over a
    /// shard of `shape`, in order: the descriptors the stages' kernels
    /// launch ([`crate::SwarmAlgorithm::launches`]), so pricing them prices
    /// what runs.
    pub fn tail_launches(&self, shard: usize, shape: &TailShape<'_>) -> Vec<KernelDesc> {
        let mut out = Vec::new();
        for node in &self.nodes[self.prefix_len..] {
            if let (PlanOp::Stage(stage), true) = (node.op, node.shard == shard) {
                out.extend(algorithm_impl(stage.algorithm()).launches(stage, shape));
            }
        }
        out
    }
}

/// Split `n` rows into `k` `(row0, rows)` shards, spreading the remainder
/// over the leading shards. The one row split: [`PlanRun::init_state`]
/// lays out a plan's `n_shards` shards with it, a suspended job's
/// checkpoints keep the geometry it produced, and the island topology's
/// islands are its blocks.
pub(crate) fn partition(n: usize, k: usize) -> Vec<(usize, usize)> {
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut row0 = 0;
    for i in 0..k {
        let rows = base + usize::from(i < extra);
        out.push((row0, rows));
        row0 += rows;
    }
    out
}

/// Whether `cfg` can be sharded over `n_devices` devices: global topology
/// only, and at least one particle per device. Each front end wraps the
/// message in its own error type.
pub(crate) fn check_shardable(cfg: &PsoConfig, n_devices: usize) -> Result<(), String> {
    if cfg.topology != Topology::Global {
        return Err(
            "sharded runs support the global topology only (ring windows \
                    and island blocks would span device boundaries)"
                .into(),
        );
    }
    if cfg.n_particles < n_devices {
        return Err(format!(
            "{} particles cannot be split over {n_devices} devices",
            cfg.n_particles
        ));
    }
    Ok(())
}

/// A bound plan execution: the plan plus everything one run needs.
/// [`crate::GpuBackend`] builds one in `run` and calls [`PlanRun::execute`];
/// the serving layer builds one per job and steps it a slice at a time.
pub(crate) struct PlanRun<'a> {
    pub plan: &'a ExecutionPlan,
    pub cfg: &'a PsoConfig,
    pub obj: &'a dyn Objective,
    pub strategy: UpdateStrategy,
    pub resilience: Option<&'a ResilienceConfig>,
    /// The devices shards home on: a group of one for a single-GPU run or
    /// a solo serve lease, the leased or owned devices of a sharded one.
    pub group: &'a DeviceGroup,
}

/// Mutable optimizer state threaded through iterations.
pub(crate) struct OptState {
    shards: Vec<Shard>,
    /// Device index each shard currently homes on (re-homing mutates this).
    homes: Vec<usize>,
    sched: BoundSchedule,
    /// Current update strategy (the degradation chain mutates this).
    strategy: UpdateStrategy,
    /// Host-side copy of the swarm best (Exchange reduce only).
    global_best_err: f32,
    global_best_pos: Vec<f32>,
    quarantined: u64,
    /// Elite rows copied between islands so far. Checkpointed alongside the
    /// trajectory (unlike `quarantined`, which counts events including
    /// replays), so a restore-and-replay reports the same count as a clean
    /// run.
    migrations: u64,
}

impl<'a> PlanRun<'a> {
    /// The one resilience guard every dispatched op runs under: the
    /// configured policy, or [`ResilienceConfig::OFF`] (zero retries, no
    /// quarantine, no strategy fallback), under which each op is its bare
    /// call. Checkpoint capture and restore key on `resilience` itself.
    fn guard(&self) -> &'a ResilienceConfig {
        self.resilience.unwrap_or(&ResilienceConfig::OFF)
    }

    fn device(&self, home: usize) -> Result<&'a Device, PsoError> {
        Ok(self.group.device(home)?)
    }

    /// Walk the plan's nodes once, in order, every op under the run's
    /// [`PlanRun::guard`]: plain ops get bounded in-place retry, and the
    /// algorithm's update tail ([`crate::algo::SwarmAlgorithm::execute`])
    /// additionally walks the strategy degradation chain. Returns whether
    /// the swarm best improved this iteration.
    fn run_iteration(&self, st: &mut OptState, t: usize) -> Result<bool, PsoError> {
        let plan = self.plan;
        let cfg = self.cfg;
        let d = cfg.dim;
        let res = self.guard();
        let alg = algorithm_impl(plan.algorithm);
        let OptState {
            shards,
            homes,
            sched,
            strategy,
            global_best_err,
            global_best_pos,
            quarantined,
            migrations,
        } = st;
        let gbest_before = match plan.reduce {
            BestReduce::Local => shards[0].gbest_err,
            BestReduce::Exchange { .. } => *global_best_err,
        };
        let mut locals: Vec<Option<MinResult>> = vec![None; plan.n_shards];
        let mut lbest: Option<Vec<usize>> = None;
        let mut scratch: Vec<TailScratch> = std::iter::repeat_with(TailScratch::default)
            .take(plan.n_shards)
            .collect();
        let mut improved = false;

        for node in plan.iteration_nodes() {
            let s = node.shard;
            match node.op {
                PlanOp::Eval => {
                    let dev = self.device(homes[s])?;
                    let shard = &mut shards[s];
                    retry_op(dev, &res.retry, || eval_shard(dev, shard, self.obj))?;
                    if res.quarantine_nonfinite {
                        *quarantined += quarantine_nonfinite(dev, shard, self.obj)?;
                    }
                }
                PlanOp::PBest => {
                    let dev = self.device(homes[s])?;
                    let shard = &mut shards[s];
                    retry_op(dev, &res.retry, || pbest_update(dev, shard))?;
                }
                PlanOp::Argmin => {
                    let dev = self.device(homes[s])?;
                    let shard = &mut shards[s];
                    match plan.reduce {
                        // One shard holds the whole swarm: its argmin's
                        // last block adopts the winner in the same launch.
                        BestReduce::Local => {
                            retry_op(dev, &res.retry, || argmin_adopt(dev, shard))?;
                        }
                        BestReduce::Exchange { .. } => {
                            locals[s] =
                                Some(retry_op(dev, &res.retry, || local_argmin(dev, shard))?);
                        }
                    }
                }
                PlanOp::ReduceAdopt => {
                    match plan.reduce {
                        // The argmin already adopted; nothing is launched.
                        BestReduce::Local => improved = shards[0].gbest_err < gbest_before,
                        BestReduce::Exchange { sync_every } => {
                            let Some(locals) = locals.iter().copied().collect::<Option<Vec<_>>>()
                            else {
                                return Err(PsoError::InvalidPlan(
                                    "reduce_adopt runs before every shard's argmin".into(),
                                ));
                            };
                            let sync_now = sync_every != 0 && (t + 1).is_multiple_of(sync_every);
                            if sync_now {
                                // Every device publishes its local best
                                // (value + position row); the winner is
                                // broadcast and adopted where it improves.
                                self.group
                                    .exchange(Phase::GBest, best_exchange_bytes(d as u64));
                                let (mut win_dev, mut win) = (0usize, locals[0]);
                                for (i, &r) in locals.iter().enumerate().skip(1) {
                                    if r.value < win.value
                                        || (r.value == win.value && r.index < win.index)
                                    {
                                        win_dev = i;
                                        win = r;
                                    }
                                }
                                if win.value < *global_best_err {
                                    *global_best_err = win.value;
                                    let shard = &shards[win_dev];
                                    let local = win.index - shard.row0;
                                    global_best_pos.copy_from_slice(
                                        &shard.pbest_pos.as_slice()[local * d..(local + 1) * d],
                                    );
                                }
                                let err = *global_best_err;
                                for (i, shard) in shards.iter_mut().enumerate() {
                                    if err < shard.gbest_err {
                                        let dev = self.device(homes[i])?;
                                        if i == win_dev && win.value == err {
                                            retry_op(dev, &res.retry, || {
                                                adopt_gbest_local(dev, shard, win.index, win.value)
                                            })?;
                                        } else {
                                            retry_op(dev, &res.retry, || {
                                                adopt_gbest_from_host(
                                                    dev,
                                                    shard,
                                                    global_best_pos,
                                                    err,
                                                )
                                            })?;
                                        }
                                    }
                                }
                            } else {
                                // Between syncs: adopt only the local best,
                                // track the global best host-side.
                                for (i, (shard, r)) in
                                    shards.iter_mut().zip(locals.iter()).enumerate()
                                {
                                    if r.value < shard.gbest_err {
                                        let dev = self.device(homes[i])?;
                                        retry_op(dev, &res.retry, || {
                                            adopt_gbest_local(dev, shard, r.index, r.value)
                                        })?;
                                    }
                                }
                                for (shard, r) in shards.iter().zip(locals.iter()) {
                                    if r.value < *global_best_err {
                                        *global_best_err = r.value;
                                        let local = r.index - shard.row0;
                                        global_best_pos.copy_from_slice(
                                            &shard.pbest_pos.as_slice()[local * d..(local + 1) * d],
                                        );
                                    }
                                }
                            }
                            improved = *global_best_err < gbest_before;
                        }
                    }
                    sched.note_iteration(improved);
                }
                // A gather runs on shard 0 and hands its attractor rows to
                // every shard's update, which holds only on one shard.
                PlanOp::RingLbest { .. } | PlanOp::Migrate { .. } | PlanOp::EliteSelect { .. }
                    if plan.n_shards > 1 =>
                {
                    let msg = format!("plan op {} needs a one-shard plan", node.op);
                    return Err(PsoError::InvalidPlan(msg));
                }
                PlanOp::RingLbest { k } => {
                    let dev = self.device(homes[s])?;
                    let shard = &shards[s];
                    lbest = Some(retry_op(dev, &res.retry, || ring_lbest(dev, shard, k))?);
                }
                PlanOp::Migrate { islands, migration } => {
                    // Periodic: off-period iterations skip the node without
                    // charging a launch, so the plan shape stays static
                    // while the schedule stays configurable.
                    if (t + 1).is_multiple_of(migration.every_k) {
                        let dev = self.device(homes[s])?;
                        let shard = &mut shards[s];
                        let seed = cfg.seed;
                        // A pure function of the pre-migration state and
                        // (t, seed), so checkpoint replay recomputes the
                        // same elite moves bit-for-bit.
                        *migrations += retry_op(dev, &res.retry, || {
                            migrate_elites(dev, shard, islands, migration, t, seed)
                        })?;
                    }
                }
                PlanOp::EliteSelect { islands } => {
                    let dev = self.device(homes[s])?;
                    let shard = &shards[s];
                    lbest = Some(retry_op(dev, &res.retry, || {
                        island_attractors(dev, shard, islands)
                    })?);
                }
                PlanOp::DeviceSync => {
                    let dev = self.device(homes[s])?;
                    dev.synchronize(Phase::SwarmUpdate);
                }
                PlanOp::Stage(stage) if stage.algorithm() == plan.algorithm => {
                    let dev = self.device(homes[s])?;
                    alg.execute(
                        stage,
                        UpdateCtx {
                            dev,
                            shard: &mut shards[s],
                            scratch: &mut scratch[s],
                            cfg,
                            obj: self.obj,
                            t,
                            bound: sched.current(),
                            strategy,
                            lbest: lbest.as_deref(),
                            guard: res,
                        },
                    )?;
                }
                // Another engine's stage: nothing the plan's algorithm
                // emits.
                op @ PlanOp::Stage(_) => {
                    return Err(not_emitted(plan.algorithm, op));
                }
            }
        }
        Ok(improved)
    }

    fn current_best(&self, st: &OptState) -> f32 {
        match self.plan.reduce {
            BestReduce::Local => st.shards[0].gbest_err,
            BestReduce::Exchange { .. } => st.global_best_err,
        }
    }

    /// Allocate and initialise the shards, producing the owned, resumable
    /// execution state. Does **not** reset device timelines — callers that
    /// want a fresh accounting span (the backends) reset before calling;
    /// the serving layer deliberately shares one span across many jobs.
    pub(crate) fn init_state(&self) -> Result<ExecState, PsoError> {
        let cfg = self.cfg;
        let domain = cfg.resolve_domain(self.obj.domain());
        let d = cfg.dim;
        let mut st = OptState {
            shards: Vec::with_capacity(self.plan.n_shards),
            homes: (0..self.plan.n_shards).collect(),
            sched: BoundSchedule::new(cfg, domain),
            strategy: self.strategy,
            global_best_err: f32::INFINITY,
            global_best_pos: vec![0.0f32; d],
            quarantined: 0,
            migrations: 0,
        };
        let policy = &self.guard().retry;
        let alg = algorithm_impl(self.plan.algorithm);
        for (i, (row0, rows)) in partition(cfg.n_particles, self.plan.n_shards)
            .into_iter()
            .enumerate()
        {
            let dev = self.device(st.homes[i])?;
            let mut shard = retry_op(dev, policy, || Shard::alloc(dev, row0, rows, d))?;
            retry_op(dev, policy, || init_shard(dev, &mut shard, cfg, domain))?;
            retry_op(dev, policy, || alg.init_extra(dev, &mut shard, domain))?;
            st.shards.push(shard);
        }
        let mut ex = ExecState {
            st,
            history: if cfg.record_history {
                Some(Vec::with_capacity(cfg.max_iter))
            } else {
                None
            },
            stagnant: 0,
            iterations_run: 0,
            restores: 0,
            t: 0,
            cp: None,
            done: false,
        };
        if self.resilience.is_some() {
            ex.cp = Some(ex.snapshot());
        }
        Ok(ex)
    }

    /// Advance the execution by one iteration (or one recovery episode).
    /// Returns `true` once the run has reached a stopping condition —
    /// `max_iter` exhausted, the target value hit, or patience expired.
    /// With resilience configured, a recoverably failed iteration restores
    /// the last checkpoint and returns `Ok(false)`, so callers simply keep
    /// stepping.
    pub(crate) fn step_state(&self, ex: &mut ExecState) -> Result<bool, PsoError> {
        let cfg = self.cfg;
        if ex.done || ex.t >= cfg.max_iter {
            ex.done = true;
            return Ok(true);
        }
        match self.run_iteration(&mut ex.st, ex.t) {
            Ok(improved) => {
                ex.iterations_run = ex.t + 1;
                if let Some(h) = ex.history.as_mut() {
                    h.push(self.current_best(&ex.st));
                }
                if improved {
                    ex.stagnant = 0;
                } else {
                    ex.stagnant += 1;
                }
                if let Some(target) = cfg.target_value {
                    if (self.current_best(&ex.st) as f64) <= target {
                        ex.done = true;
                        return Ok(true);
                    }
                }
                if let Some(p) = cfg.patience {
                    if ex.stagnant >= p {
                        ex.done = true;
                        return Ok(true);
                    }
                }
                ex.t += 1;
                if let Some(res) = self.resilience {
                    if res.checkpoint_every != 0
                        && ex.t.is_multiple_of(res.checkpoint_every)
                        && ex.t < cfg.max_iter
                    {
                        ex.cp = Some(ex.snapshot());
                    }
                }
                if ex.t >= cfg.max_iter {
                    ex.done = true;
                }
                Ok(ex.done)
            }
            Err(e) => {
                let Some(res) = self.resilience else {
                    return Err(e);
                };
                // A lost device is survivable while the group has another.
                let lost = e.lost_device().is_some();
                let recoverable = (e.is_transient() || lost && !self.group.survivors().is_empty())
                    && ex.restores < res.max_restores;
                if !recoverable {
                    return Err(e);
                }
                ex.restores += 1;
                if lost {
                    let st = &mut ex.st;
                    rehome_lost_shards(self.group, &mut st.homes, &mut st.shards, &res.retry)?;
                }
                // In-place retries exhausted: roll the optimizer back to
                // the last checkpoint and replay. Replayed iterations
                // recompute bit-for-bit (counter-based RNG), so only
                // modeled time is lost.
                let Some(cp) = ex.cp.as_ref() else {
                    return Err(PsoError::InvalidPlan(
                        "a resilient run stepped a state that holds no checkpoint".into(),
                    ));
                };
                for (s, snap) in cp.shards.iter().enumerate() {
                    let dev = self.device(ex.st.homes[s])?;
                    snap.restore_into(dev, &mut ex.st.shards[s], &res.retry)?;
                }
                ex.st.sched = cp.sched;
                ex.st.global_best_err = cp.global_best_err;
                ex.st.global_best_pos.copy_from_slice(&cp.global_best_pos);
                ex.st.migrations = cp.migrations;
                ex.stagnant = cp.stagnant;
                ex.t = cp.t;
                ex.iterations_run = ex.t;
                if let Some(h) = ex.history.as_mut() {
                    h.truncate(ex.t);
                }
                Ok(false)
            }
        }
    }

    /// Step up to `iters` iterations as one dispatch slice: the one
    /// stepping loop every execution advances through, launch by launch or
    /// inside a [`run_resident`] region its caller opened. Returns `true` once
    /// the run has reached a stopping condition.
    pub(crate) fn step_slice(&self, ex: &mut ExecState, iters: usize) -> Result<bool, PsoError> {
        for _ in 0..iters {
            if self.step_state(ex)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Assemble the [`RunResult`] from a finished (or abandoned) execution
    /// state, downloading the winning position — the run's only mandatory
    /// device→host transfer. The state keeps its device buffers: the serving
    /// layer downloads on the job's lane inside its last region and frees
    /// them after the region closes.
    pub(crate) fn finish_state(&self, ex: &ExecState) -> RunResult {
        let cfg = self.cfg;
        match self.plan.reduce {
            BestReduce::Local => {
                // Bring the result back to the host (the only mandatory
                // transfer).
                let shard = &ex.st.shards[0];
                let best_position = shard.gbest_pos.download_in(Phase::Other);
                RunResult {
                    best_value: shard.gbest_err as f64,
                    best_position,
                    iterations: ex.iterations_run,
                    evaluations: (cfg.n_particles * ex.iterations_run) as u64,
                    timeline: shard.gbest_pos.device().timeline(),
                    history: ex.history.clone(),
                    migrations: ex.st.migrations,
                }
            }
            BestReduce::Exchange { .. } => RunResult {
                best_value: ex.st.global_best_err as f64,
                best_position: ex.st.global_best_pos.clone(),
                iterations: ex.iterations_run,
                evaluations: (cfg.n_particles * ex.iterations_run) as u64,
                timeline: scaled_group_timeline(self.group),
                history: ex.history.clone(),
                migrations: ex.st.migrations,
            },
        }
    }

    /// Rehydrate a [`SuspendedJob`] onto this run's group: reallocate one
    /// shard per checkpoint (host→device uploads charged to
    /// [`Phase::Recovery`]) and restore the optimizer state exactly. The
    /// group may differ from the one the job was suspended on — the
    /// checkpoints pin shard geometry, not device identity — and may even
    /// span *fewer* devices than there are shards (a fleet that lost a
    /// device re-homes a group job onto the survivors): shards are then
    /// assigned round-robin, several per device. The trajectory is
    /// unaffected either way — the reduction is over shards, not devices.
    pub(crate) fn resume(&self, s: SuspendedJob) -> Result<ExecState, PsoError> {
        let policy = self.resilience.map(|r| r.retry).unwrap_or_default();
        let n_dev = self.group.len().max(1);
        let homes: Vec<usize> = (0..s.shards.len()).map(|i| i % n_dev).collect();
        let mut shards = Vec::with_capacity(s.shards.len());
        for (i, snap) in s.shards.iter().enumerate() {
            let dev = self.device(homes[i])?;
            let mut shard = retry_op(dev, &policy, || {
                Shard::alloc(dev, snap.row0, snap.rows, snap.d)
            })?;
            snap.restore_into(dev, &mut shard, &policy)?;
            shards.push(shard);
        }
        let st = OptState {
            shards,
            homes,
            sched: s.sched,
            strategy: s.strategy,
            global_best_err: s.global_best_err,
            global_best_pos: s.global_best_pos.clone(),
            quarantined: s.quarantined,
            migrations: s.migrations,
        };
        let mut ex = ExecState {
            st,
            history: s.history.clone(),
            stagnant: s.stagnant,
            iterations_run: s.iterations_run,
            restores: s.restores,
            t: s.t,
            cp: None,
            done: s.done,
        };
        // Re-anchor the replay checkpoint at the suspension point so a
        // later fault can never roll the job back past its resume.
        if self.resilience.is_some() {
            ex.cp = Some(s);
        }
        Ok(ex)
    }

    /// Run the plan to completion: allocate + initialise shards, iterate,
    /// and assemble the [`RunResult`]. With resilience configured, restores
    /// from the latest checkpoint and replays on unrecovered transient
    /// failures, re-homing shards off permanently lost devices first.
    ///
    /// This is [`PlanRun::init_state`] + one [`PlanRun::step_slice`] that
    /// runs to the end; the serving layer (`fastpso::serve`) drives the same
    /// three-phase API a slice at a time to interleave many jobs. When
    /// `resident`, that one slice runs inside [`run_resident`] regions, so
    /// the run costs one host launch per device after its init.
    pub fn execute(self, resident: bool) -> Result<RunResult, PsoError> {
        self.group.reset_timelines();
        let mut ex = self.init_state()?;
        if resident {
            let elements = ex.elements_per_device(self.group.len());
            run_resident(self.group, "persistent_run", &elements, || {
                self.step_slice(&mut ex, usize::MAX)
            })??;
        } else {
            self.step_slice(&mut ex, usize::MAX)?;
        }
        Ok(self.finish_state(&ex))
    }
}

/// Run `slice` inside device-resident regions: the one place persistent
/// regions open and close. One region opens on every device of `group`
/// that holds elements (`elements[i]` for device `i`, see
/// [`ExecState::elements_per_device`]), the way a cooperative
/// multi-device launch spans its devices. Each grid is resource-aware, as the paper's thread
/// creation is: at most the device's `max_resident_threads` threads, each
/// striding over `elements / threads` elements of the widest
/// one-thread-per-element pass. Opening a region is one host launch;
/// inside it every kernel is a device-resident pass with no launch
/// overhead of its own, and each synchronisation is a grid-wide barrier.
/// A device that fails to open closes the regions already opened and its
/// error is returned; every region also closes on every path `slice`
/// returns by, errors included, so a failed slice never leaves one open.
/// Two dispatchers call this: a persistent GPU run ([`PlanRun::execute`]),
/// with one state for the whole run, and the
/// serving layer, once per tick over its whole group, with every running
/// job's slice inside on its own stream lane of each device it leases (a
/// job's init or resume in its first region, its result download in its
/// last);
/// `slice` joins those lanes before it returns, so a region's wall time
/// is its longest lane (see `gpu_sim::stream`).
pub(crate) fn run_resident<T>(
    group: &DeviceGroup,
    name: &'static str,
    elements: &[u64],
    slice: impl FnOnce() -> T,
) -> Result<T, PsoError> {
    let close = |opened: &[&Device]| {
        for dev in opened {
            dev.end_persistent();
        }
    };
    let mut opened: Vec<&Device> = Vec::with_capacity(elements.len());
    for (i, &elems) in elements.iter().enumerate().filter(|(_, &e)| e > 0) {
        let open = group.device(i).and_then(|dev| {
            let threads = elems.min(dev.profile().max_resident_threads());
            dev.begin_persistent(name, Phase::SwarmUpdate, threads)?;
            Ok(dev)
        });
        match open {
            Ok(dev) => opened.push(dev),
            Err(e) => {
                close(&opened);
                return Err(e.into());
            }
        }
    }
    let out = slice();
    close(&opened);
    Ok(out)
}

/// The owned, resumable state of one plan execution: shards, bound
/// schedule, iteration cursor, replay checkpoint and history. It holds no
/// borrows, so a scheduler can park it in a job table between time slices
/// and rebuild the (cheap, all-reference) [`PlanRun`] around it on every
/// slice.
pub(crate) struct ExecState {
    st: OptState,
    history: Option<Vec<f32>>,
    stagnant: usize,
    iterations_run: usize,
    restores: u32,
    t: usize,
    /// Replay checkpoint: the state at the start of iteration `cp.t`
    /// (resilient runs only).
    cp: Option<SuspendedJob>,
    done: bool,
}

impl ExecState {
    /// Iterations completed so far.
    pub(crate) fn iterations_run(&self) -> usize {
        self.iterations_run
    }

    /// Elements (`rows × d`) the state holds on each device of an
    /// `n_devices` group: the per-device sizes [`run_resident`] grids its
    /// regions for.
    pub(crate) fn elements_per_device(&self, n_devices: usize) -> Vec<u64> {
        let mut out = vec![0u64; n_devices];
        for (shard, &home) in self.st.shards.iter().zip(&self.st.homes) {
            out[home] += (shard.rows * shard.d) as u64;
        }
        out
    }

    /// Capture a [`SuspendedJob`] snapshot of this execution without
    /// consuming it: one packed device→host copy per shard, charged to
    /// [`Phase::Recovery`], while the device buffers stay resident and the
    /// job keeps running. It serves as the executor's replay checkpoint,
    /// the serving layer's slice-boundary re-homing snapshot and, with the
    /// state dropped afterwards, preemption. A [`PlanRun::resume`] of it —
    /// possibly on different devices — recomputes bit-for-bit from where
    /// it left off, because every random draw is addressed by
    /// `(seed, iteration, element)` rather than by sequential generator
    /// state.
    pub(crate) fn snapshot(&self) -> SuspendedJob {
        self.suspended_with(
            self.st
                .shards
                .iter()
                .map(ShardCheckpoint::capture)
                .collect(),
        )
    }

    /// Snapshot several live executions in one packed device→host copy per
    /// device their shards live on, on that device's copy lane
    /// ([`ShardCheckpoint::capture_many`]), one [`InFlightSnapshot`] each,
    /// in order. The serving layer captures a tick's due jobs this way at a
    /// slice boundary. Each snapshot equals [`ExecState::snapshot`] of the
    /// same state once its copies land.
    pub(crate) fn snapshot_many(states: &[&ExecState]) -> Vec<InFlightSnapshot> {
        let shards: Vec<&Shard> = states.iter().flat_map(|ex| &ex.st.shards).collect();
        let mut cps = ShardCheckpoint::capture_many(&shards).into_iter();
        states
            .iter()
            .map(|ex| {
                let (shards, copies) = cps.by_ref().take(ex.st.shards.len()).unzip();
                InFlightSnapshot {
                    snapshot: ex.suspended_with(shards),
                    copies,
                }
            })
            .collect()
    }

    /// A [`SuspendedJob`] of this state over already-captured `shards`.
    fn suspended_with(&self, shards: Vec<ShardCheckpoint>) -> SuspendedJob {
        SuspendedJob {
            shards,
            sched: self.st.sched,
            strategy: self.st.strategy,
            global_best_err: self.st.global_best_err,
            global_best_pos: self.st.global_best_pos.clone(),
            quarantined: self.st.quarantined,
            migrations: self.st.migrations,
            history: self.history.clone(),
            stagnant: self.stagnant,
            iterations_run: self.iterations_run,
            restores: self.restores,
            t: self.t,
            done: self.done,
        }
    }
}

/// A slice-boundary [`SuspendedJob`] on its way to the host: the snapshot
/// its shards' copy-lane transfers carry, and their tickets
/// ([`ExecState::snapshot_many`]).
pub(crate) struct InFlightSnapshot {
    pub(crate) snapshot: SuspendedJob,
    copies: Vec<CopyTicket>,
}

impl InFlightSnapshot {
    /// Whether every copy carrying the snapshot has landed on the host.
    pub(crate) fn landed(&self) -> bool {
        self.copies.iter().all(CopyTicket::has_landed)
    }
}

/// A preempted (or snapshotted) job evacuated to host memory: per-shard
/// checkpoints plus every host-side scalar the executor threads between
/// iterations. Produced by [`ExecState::snapshot`], consumed by
/// [`PlanRun::resume`] and by the executor's restore-and-replay. `Clone` so
/// the serving layer can both keep a re-homing snapshot and resume from it.
#[derive(Clone)]
pub(crate) struct SuspendedJob {
    shards: Vec<ShardCheckpoint>,
    sched: BoundSchedule,
    strategy: UpdateStrategy,
    global_best_err: f32,
    global_best_pos: Vec<f32>,
    quarantined: u64,
    migrations: u64,
    history: Option<Vec<f32>>,
    stagnant: usize,
    iterations_run: usize,
    restores: u32,
    t: usize,
    done: bool,
}

impl SuspendedJob {
    /// Number of shard checkpoints. Resuming accepts any non-empty device
    /// target: shards map onto devices round-robin.
    pub(crate) fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Iterations completed at the time of the snapshot.
    pub(crate) fn iterations_run(&self) -> usize {
        self.iterations_run
    }
}

/// Report with the group's concurrent-elapsed semantics: a timeline whose
/// per-phase values are scaled so the total equals the max-over-devices
/// wall clock. Overlap credit is scaled alongside the phases, so the scaled
/// total still equals the wall clock when a device hid time.
fn scaled_group_timeline(group: &DeviceGroup) -> Timeline {
    let merged = group.merged_timeline();
    let wall = group.elapsed_seconds();
    let mut tl = Timeline::new();
    let total = merged.total_seconds();
    if total > 0.0 {
        let scale = wall / total;
        for (phase, secs) in merged.breakdown() {
            tl.charge(phase, secs * scale, merged.phase_counters(phase));
        }
        tl.credit_overlap(merged.overlapped_seconds() * scale);
    }
    tl
}

/// Re-home every shard whose device has been permanently lost onto the
/// least-loaded survivor (ties broken by device index, so the choice is
/// deterministic), reallocating its device buffers there. The caller
/// restores state from the last checkpoint afterwards.
fn rehome_lost_shards(
    group: &DeviceGroup,
    homes: &mut [usize],
    shards: &mut [Shard],
    policy: &RetryPolicy,
) -> Result<(), PsoError> {
    let survivors = group.survivors();
    let mut load = vec![0usize; group.len()];
    for (&h, _) in homes.iter().zip(shards.iter()) {
        if !group.device(h)?.is_lost() {
            load[h] += 1;
        }
    }
    for s in 0..homes.len() {
        if group.device(homes[s])?.is_lost() {
            let Some(&new_home) = survivors.iter().min_by_key(|&&i| (load[i], i)) else {
                return Err(PsoError::InvalidPlan(
                    "no surviving device to re-home a shard onto".into(),
                ));
            };
            load[new_home] += 1;
            let dev = group.device(new_home)?;
            let (row0, rows, d) = (shards[s].row0, shards[s].rows, shards[s].d);
            shards[s] = retry_op(dev, policy, || Shard::alloc(dev, row0, rows, d))?;
            homes[s] = new_home;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MigrationKind;
    use fastpso_functions::builtins::Sphere;

    fn cfg() -> PsoConfig {
        PsoConfig::builder(32, 8).max_iter(5).build().unwrap()
    }

    /// The op of `algo`'s stage called `name`.
    fn stage(algo: Algorithm, name: &str) -> PlanOp {
        PlanOp::Stage(Stage::named(algo, name).unwrap())
    }

    fn pso(name: &str) -> PlanOp {
        stage(Algorithm::Pso, name)
    }

    fn gfwa(name: &str) -> PlanOp {
        stage(Algorithm::Gfwa, name)
    }

    const RING_MIGRATION: Migration = Migration {
        kind: MigrationKind::Ring,
        every_k: 5,
        elites: 2,
    };

    fn ops(plan: &ExecutionPlan) -> Vec<(PlanOp, usize)> {
        plan.nodes.iter().map(|n| (n.op, n.shard)).collect()
    }

    /// Initialise `plan` on `group` and step one iteration, without
    /// resilience.
    fn step_once(plan: &ExecutionPlan, group: &DeviceGroup) -> Result<bool, PsoError> {
        let c = cfg();
        let run = PlanRun {
            plan,
            cfg: &c,
            obj: &Sphere,
            strategy: UpdateStrategy::GlobalMem,
            resilience: None,
            group,
        };
        let mut ex = run.init_state()?;
        run.step_state(&mut ex)
    }

    /// The message of an expected [`PsoError::InvalidPlan`].
    fn invalid_plan<T: std::fmt::Debug>(res: Result<T, PsoError>) -> String {
        match res {
            Err(PsoError::InvalidPlan(msg)) => msg,
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    #[test]
    fn a_reduce_before_its_argmins_is_an_invalid_plan() {
        // Exchanging (sync_every 1) and adopting locally between exchanges
        // (sync_every 2, iteration 0) both need every shard's argmin.
        for sync_every in [1, 2] {
            for missing in [vec![0, 1], vec![1]] {
                let mut plan = ExecutionPlan::build(&cfg(), 2, BestReduce::Exchange { sync_every });
                plan.nodes
                    .retain(|n| !(n.op == PlanOp::Argmin && missing.contains(&n.shard)));
                let group = DeviceGroup::v100s(2);
                let msg = invalid_plan(step_once(&plan, &group));
                assert!(msg.contains("argmin"), "{msg}");
            }
        }
    }

    #[test]
    fn an_op_the_algorithm_does_not_emit_is_an_invalid_plan_that_launches_nothing() {
        let foreign = gfwa("explosion");
        let mut plan = ExecutionPlan::build(&cfg(), 1, BestReduce::Local);
        let at = plan
            .nodes
            .iter()
            .position(|n| n.op == pso("velocity"))
            .unwrap();
        plan.nodes[at].op = foreign;
        let group = DeviceGroup::v100s(1);
        let msg = invalid_plan(step_once(&plan, &group));
        assert_eq!(
            msg,
            format!("pso cannot execute plan op {foreign}: it does not emit it")
        );
        let last = group
            .device(0)
            .unwrap()
            .profiler()
            .kernels
            .last()
            .unwrap()
            .name;
        assert_eq!(last, "gen_g_weights", "{foreign} must launch nothing");
    }

    #[test]
    fn a_gather_in_a_sharded_plan_is_an_invalid_plan() {
        let islands = Topology::Islands {
            islands: 4,
            migration: RING_MIGRATION,
        };
        for (topology, op) in [
            (Topology::Ring { k: 2 }, "ring_lbest:2"),
            (islands, "migrate:ring:2"),
        ] {
            let reduce = BestReduce::Exchange { sync_every: 1 };
            let plan = ExecutionPlan::build_for(Algorithm::Pso, topology, 2, reduce);
            let group = DeviceGroup::v100s(2);
            let msg = invalid_plan(step_once(&plan, &group));
            assert_eq!(msg, format!("plan op {op} needs a one-shard plan"));
        }
    }

    #[test]
    fn a_resilient_step_of_a_state_without_a_checkpoint_is_an_invalid_plan() {
        let c = cfg();
        let plan = ExecutionPlan::build(&c, 1, BestReduce::Local);
        let group = DeviceGroup::v100s(1);
        let dev = group.device(0).unwrap();
        let run = |resilience| PlanRun {
            plan: &plan,
            cfg: &c,
            obj: &Sphere,
            strategy: UpdateStrategy::GlobalMem,
            resilience,
            group: &group,
        };
        // Initialised without resilience, so no replay checkpoint exists.
        let mut ex = run(None).init_state().unwrap();
        let res = ResilienceConfig {
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            ..ResilienceConfig::default()
        };
        dev.set_fault_plan(gpu_sim::FaultPlan::new().with_transient_launch(1));
        let msg = invalid_plan(run(Some(&res)).step_state(&mut ex));
        assert!(msg.contains("checkpoint"), "{msg}");
    }

    #[test]
    fn re_homing_with_no_survivor_is_an_invalid_plan() {
        let group = DeviceGroup::v100s(1);
        let dev = group.device(0).unwrap();
        let mut shards = vec![Shard::alloc(dev, 0, 4, 2).unwrap()];
        dev.set_fault_plan(gpu_sim::FaultPlan::new().with_device_loss_at_launch(1));
        assert!(dev.begin_launch().is_err() && dev.is_lost());
        let msg = invalid_plan(rehome_lost_shards(
            &group,
            &mut [0],
            &mut shards,
            &RetryPolicy::default(),
        ));
        assert!(msg.contains("surviving"), "{msg}");
    }

    #[test]
    fn uneven_partition_covers_all_rows() {
        let parts = partition(10, 3);
        assert_eq!(parts, vec![(0, 4), (4, 3), (7, 3)]);
        let total: usize = parts.iter().map(|(_, r)| r).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn single_shard_plan_matches_legacy_order() {
        let plan = ExecutionPlan::build(&cfg(), 1, BestReduce::Local);
        assert_eq!(
            ops(&plan),
            vec![
                (PlanOp::Eval, 0),
                (PlanOp::PBest, 0),
                (PlanOp::Argmin, 0),
                (PlanOp::ReduceAdopt, 0),
                (pso("gen_weights"), 0),
                (pso("velocity"), 0),
                (pso("position"), 0),
                (PlanOp::DeviceSync, 0),
            ]
        );
    }

    #[test]
    fn ring_topology_inserts_lbest_gather_after_reduce() {
        let c = PsoConfig::builder(32, 8)
            .topology(Topology::Ring { k: 2 })
            .build()
            .unwrap();
        let plan = ExecutionPlan::build(&c, 1, BestReduce::Local);
        assert_eq!(plan.nodes[4].op, PlanOp::RingLbest { k: 2 });
        // The velocity update depends on the gather, not the raw reduce.
        let vel = plan
            .nodes
            .iter()
            .position(|n| n.op == pso("velocity"))
            .unwrap();
        assert!(plan.nodes[vel].deps.contains(&4));
    }

    #[test]
    fn multi_shard_plan_interleaves_per_shard_phases() {
        let plan = ExecutionPlan::build(&cfg(), 2, BestReduce::Exchange { sync_every: 1 });
        assert_eq!(
            ops(&plan),
            vec![
                (PlanOp::Eval, 0),
                (PlanOp::PBest, 0),
                (PlanOp::Argmin, 0),
                (PlanOp::Eval, 1),
                (PlanOp::PBest, 1),
                (PlanOp::Argmin, 1),
                (PlanOp::ReduceAdopt, 0),
                (pso("gen_weights"), 0),
                (pso("velocity"), 0),
                (pso("position"), 0),
                (PlanOp::DeviceSync, 0),
                (pso("gen_weights"), 1),
                (pso("velocity"), 1),
                (pso("position"), 1),
                (PlanOp::DeviceSync, 1),
            ]
        );
        // The reduce depends on every shard's argmin.
        assert_eq!(plan.nodes[6].deps, vec![2, 5]);
    }

    #[test]
    fn fusion_rewrites_the_update_pair_and_remaps_edges() {
        let mut plan = ExecutionPlan::build(&cfg(), 2, BestReduce::Exchange { sync_every: 1 });
        let before = plan.nodes.len();
        assert!(plan.fuse_swarm_update(UpdateStrategy::GlobalMem));
        assert!(plan.is_fused());
        // One Position node removed per shard.
        assert_eq!(plan.nodes.len(), before - 2);
        assert!(plan.nodes.iter().all(|n| n.op != pso("position")));
        assert!(plan.nodes.iter().all(|n| n.op != pso("velocity")));
        // DeviceSync now depends on the fused node in its shard.
        for node in plan.nodes.iter().filter(|n| n.op == PlanOp::DeviceSync) {
            let dep = node.deps[0];
            assert_eq!(plan.nodes[dep].op, pso("fused_swarm_update"));
            assert_eq!(plan.nodes[dep].shard, node.shard);
        }
    }

    #[test]
    fn fusion_is_identity_for_tiled_strategies() {
        for strategy in [UpdateStrategy::SharedMem, UpdateStrategy::TensorCore] {
            let mut plan = ExecutionPlan::build(&cfg(), 1, BestReduce::Local);
            let before = ops(&plan);
            assert!(!plan.fuse_swarm_update(strategy));
            assert_eq!(ops(&plan), before);
            assert!(!plan.is_fused());
        }
    }

    #[test]
    fn plan_op_display_names_are_distinct() {
        let mut ops = vec![
            PlanOp::Eval,
            PlanOp::PBest,
            PlanOp::Argmin,
            PlanOp::ReduceAdopt,
            PlanOp::RingLbest { k: 3 },
            PlanOp::DeviceSync,
            PlanOp::Migrate {
                islands: 4,
                migration: RING_MIGRATION,
            },
            PlanOp::EliteSelect { islands: 4 },
        ];
        for algo in Algorithm::ALL {
            for spec in algorithm_impl(algo).stages() {
                ops.push(stage(algo, spec.name));
            }
        }
        let names: std::collections::HashSet<String> = ops.iter().map(PlanOp::to_string).collect();
        assert_eq!(names.len(), ops.len(), "{names:?}");
    }

    #[test]
    fn island_topology_lowers_migrate_and_elite_select_for_every_engine() {
        let c = PsoConfig::builder(32, 8)
            .topology(Topology::Islands {
                islands: 4,
                migration: RING_MIGRATION,
            })
            .build()
            .unwrap();
        for algo in [Algorithm::Pso, Algorithm::Sso, Algorithm::Gfwa] {
            let plan = ExecutionPlan::build_for(algo, c.topology, 1, BestReduce::Local);
            // The island pair slots between the reduce and the engine tail,
            // for every engine, without per-engine lowering code.
            assert_eq!(
                plan.nodes[4].op,
                PlanOp::Migrate {
                    islands: 4,
                    migration: RING_MIGRATION
                },
                "{algo}"
            );
            assert_eq!(plan.nodes[4].op.to_string(), "migrate:ring:2");
            assert_eq!(plan.nodes[5].op, PlanOp::EliteSelect { islands: 4 });
            assert_eq!(plan.nodes[4].deps, vec![3], "migrate waits on the reduce");
            assert_eq!(plan.nodes[5].deps, vec![4], "select waits on migrate");
            // The engine tail consumes the elite-select barrier (for PSO the
            // barrier feeds the velocity stage, not the independent weight
            // generation).
            assert!(
                plan.nodes[6..].iter().any(|n| n.deps.contains(&5)),
                "{algo}: update tail must wait on the island barrier"
            );
        }
    }

    #[test]
    fn sso_plan_replaces_the_update_tail_with_one_kernel() {
        let plan = ExecutionPlan::build_for(Algorithm::Sso, cfg().topology, 1, BestReduce::Local);
        assert_eq!(plan.algorithm, Algorithm::Sso);
        assert_eq!(
            ops(&plan),
            vec![
                (PlanOp::Eval, 0),
                (PlanOp::PBest, 0),
                (PlanOp::Argmin, 0),
                (PlanOp::ReduceAdopt, 0),
                (stage(Algorithm::Sso, "sso_update"), 0),
                (PlanOp::DeviceSync, 0),
            ]
        );
        // The update depends on the reduce barrier.
        assert!(plan.nodes[4].deps.contains(&3));
        // Fusion is illegal for SSO under every strategy.
        let mut p = plan.clone();
        for s in UpdateStrategy::ALL {
            assert!(!p.fuse_swarm_update(s));
        }
        assert_eq!(ops(&p), ops(&plan));
    }

    #[test]
    fn gfwa_plan_carries_the_three_stage_tail() {
        let mut plan =
            ExecutionPlan::build_for(Algorithm::Gfwa, cfg().topology, 1, BestReduce::Local);
        assert_eq!(
            ops(&plan),
            vec![
                (PlanOp::Eval, 0),
                (PlanOp::PBest, 0),
                (PlanOp::Argmin, 0),
                (PlanOp::ReduceAdopt, 0),
                (gfwa("explosion"), 0),
                (gfwa("guiding_spark"), 0),
                (gfwa("selection"), 0),
                (PlanOp::DeviceSync, 0),
            ]
        );
        assert!(!plan.fuse_swarm_update(UpdateStrategy::GlobalMem));
        assert_eq!(plan.algorithm, Algorithm::Gfwa);
    }

    #[test]
    fn build_is_build_for_pso() {
        let a = ExecutionPlan::build(&cfg(), 2, BestReduce::Exchange { sync_every: 1 });
        let b = ExecutionPlan::build_for(
            Algorithm::Pso,
            cfg().topology,
            2,
            BestReduce::Exchange { sync_every: 1 },
        );
        assert_eq!(a.algorithm, Algorithm::Pso);
        assert_eq!(ops(&a), ops(&b));
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.deps, y.deps);
            assert_eq!(x.phase, y.phase);
        }
    }

    #[test]
    fn resident_regions_open_on_every_device_holding_elements_and_clamp_to_residency() {
        let group = DeviceGroup::v100s(3);
        let max = group.device(0).unwrap().profile().max_resident_threads();
        let regions = |group: &DeviceGroup| -> Vec<Vec<u64>> {
            (group.iter())
                .map(|d| (d.profiler().kernels.iter()).map(|k| k.threads).collect())
                .collect()
        };
        let open = run_resident(&group, "r", &[64, 0, 2 * max], || {
            group.iter().map(Device::in_persistent).collect::<Vec<_>>()
        });
        assert_eq!(open.unwrap(), vec![true, false, true]);
        assert!(group.iter().all(|d| !d.in_persistent()));
        assert_eq!(regions(&group), vec![vec![64], vec![], vec![max]]);

        // A device that cannot open closes the regions already opened and
        // never runs the slice.
        let group = DeviceGroup::v100s(2);
        let lost = group.device(1).unwrap();
        lost.set_fault_plan(gpu_sim::FaultPlan::new().with_device_loss_at_launch(1));
        assert!(lost.begin_launch().is_err() && lost.is_lost());
        let res: Result<(), _> = run_resident(&group, "r", &[8, 8], || panic!("slice ran"));
        assert!(matches!(res, Err(e) if e.lost_device() == Some(1)));
        assert!(group.iter().all(|d| !d.in_persistent()));
    }
}
