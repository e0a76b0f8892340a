//! Shared CPU implementation behind `fastpso-seq` and `fastpso-omp`.
//!
//! Both backends run the same sequential loops over the same Philox
//! streams, so their trajectories are bit-identical. They differ only in
//! the modeled price: the parallel variant stands for the paper's OpenMP
//! port and charges its time at the testbed's core count.

use crate::config::{AttractorSemantics, BoundSchedule, PsoConfig};
use crate::cost::CpuCharger;
use crate::error::PsoError;
use crate::math::{position_update_elem, velocity_update_elem};
use crate::result::RunResult;
use crate::swarm::{domains, Swarm};
use crate::topology::{island_attractors, plan_migration, ring_neighborhood_best, Topology};
use fastpso_functions::Objective;
use fastpso_prng::Philox;
use perf_model::{Phase, Timeline};

/// Cost estimate (in flop-equivalents) of one element of the fused
/// velocity+position update — Equation 1's arithmetic plus the clamp
/// branches, address arithmetic and the two data-dependent loads that a
/// scalar CPU loop pays. Calibrated so the sequential model lands on the
/// paper's Figure-5 breakdown (~85% of time in the swarm update, ~5 ns per
/// element-iteration on the testbed core).
const UPDATE_FLOPS_PER_ELEM: u64 = 25;

/// Cost of drawing one uniform on the CPU. The paper's CPU ports use a
/// fast inline sequential generator (not counter-based Philox, which the
/// GPU kernels use because any element must be addressable); ~2
/// flop-equivalents per draw matches Figure 5's small `init` bar.
const CPU_RNG_FLOPS_PER_DRAW: u64 = 2;

/// Update one particle's velocity and position rows in place.
#[allow(clippy::too_many_arguments)]
fn update_row(
    row: usize,
    vrow: &mut [f32],
    prow: &mut [f32],
    pb_row: &[f32],
    pbest_err_i: f32,
    social_row: &[f32],
    gbest_err: f32,
    cfg: &PsoConfig,
    bound: Option<f32>,
    rng: &Philox,
    t: usize,
) {
    let d = vrow.len();
    let omega_t = cfg.omega_at(t);
    let (ld, gd) = (domains::l_matrix(t), domains::g_matrix(t));
    for col in 0..d {
        let idx = (row * d + col) as u64;
        let l = rng.uniform_at(idx, ld);
        let g = rng.uniform_at(idx, gd);
        let (pb_attr, gb_attr) = match cfg.semantics {
            AttractorSemantics::PositionVectors => (pb_row[col], social_row[col]),
            AttractorSemantics::ScalarBroadcast => (pbest_err_i, gbest_err),
        };
        let v2 = velocity_update_elem(
            vrow[col], prow[col], l, g, pb_attr, gb_attr, omega_t, cfg.c1, cfg.c2, bound,
        );
        vrow[col] = v2;
        prow[col] = position_update_elem(prow[col], v2);
    }
}

/// Run PSO on the CPU. `parallel` prices the run as the OpenMP port, at the
/// testbed's core count.
pub(crate) fn run_cpu(
    cfg: &PsoConfig,
    obj: &dyn Objective,
    parallel: bool,
) -> Result<RunResult, PsoError> {
    let charger = if parallel {
        CpuCharger::parallel()
    } else {
        CpuCharger::serial()
    };
    let mut tl = Timeline::new();
    let (n, d) = (cfg.n_particles, cfg.dim);
    let nd = (n * d) as u64;
    let domain = cfg.resolve_domain(obj.domain());
    let mut sched = BoundSchedule::new(cfg, domain);
    let rng = Philox::new(cfg.seed);

    // Step (i): swarm initialization.
    let mut swarm = Swarm::init(cfg, domain);
    charger.charge(
        &mut tl,
        Phase::Init,
        2 * nd * CPU_RNG_FLOPS_PER_DRAW,
        2 * nd * 4,
        6,
    );

    let mut history = if cfg.record_history {
        Some(Vec::with_capacity(cfg.max_iter))
    } else {
        None
    };
    let mut lbest_idx = match cfg.topology {
        Topology::Ring { .. } | Topology::Islands { .. } => vec![0usize; n],
        Topology::Global => Vec::new(),
    };
    let mut stagnant = 0usize;
    let mut iterations_run = 0usize;
    let mut migrations = 0u64;

    for t in 0..cfg.max_iter {
        iterations_run = t + 1;
        // Step (ii): swarm evaluation.
        for (e, row) in swarm.errors.iter_mut().zip(swarm.pos.chunks_exact(d)) {
            *e = obj.eval(row);
        }
        charger.charge(
            &mut tl,
            Phase::Eval,
            nd * obj.flops_per_dim(),
            nd * 4 + n as u64 * 4,
            0,
        );

        // Step (iii.a): pbest update.
        let mut improved = 0u64;
        for i in 0..n {
            if swarm.errors[i] < swarm.pbest_err[i] {
                swarm.pbest_err[i] = swarm.errors[i];
                let (src, dst) = (i * d, i * d + d);
                swarm.pbest_pos[src..dst].copy_from_slice(&swarm.pos[src..dst]);
                improved += 1;
            }
        }
        charger.charge(
            &mut tl,
            Phase::PBest,
            n as u64,
            n as u64 * 8 + improved * d as u64 * 8,
            0,
        );

        // Step (iii.b): gbest update — sequential argmin scan (gpu-sim's
        // `reduce_min_index` has identical tie semantics).
        let (mut min_i, mut min_v) = (0usize, swarm.pbest_err[0]);
        for (i, &v) in swarm.pbest_err.iter().enumerate().skip(1) {
            if v < min_v {
                min_i = i;
                min_v = v;
            }
        }
        let gbest_improved = min_v < swarm.gbest_err;
        if gbest_improved {
            swarm.gbest_err = min_v;
            swarm
                .gbest_pos
                .copy_from_slice(&swarm.pbest_pos[min_i * d..(min_i + 1) * d]);
        }
        charger.charge(
            &mut tl,
            Phase::GBest,
            n as u64,
            n as u64 * 4 + if gbest_improved { d as u64 * 8 } else { 0 },
            0,
        );

        // Ring topology: each particle's social attractor is its
        // neighborhood best rather than the swarm best.
        if let Topology::Ring { k } = cfg.topology {
            ring_neighborhood_best(&swarm.pbest_err, k, &mut lbest_idx);
            // The effective window is clamped to the ring circumference.
            let window = (2 * k.min(n / 2) + 1) as u64;
            charger.charge(
                &mut tl,
                Phase::GBest,
                n as u64 * window,
                n as u64 * window * 4,
                0,
            );
        }

        // Island topology: periodic elite migration rewrites whole particle
        // rows, then every particle's social attractor becomes its island's
        // best. Same order as the GPU plan (gbest adoption → migrate →
        // attractor gather) and the same pure `plan_migration` schedule, so
        // seq/par/GPU trajectories stay bit-identical.
        if let Topology::Islands { islands, migration } = cfg.topology {
            if (t + 1).is_multiple_of(migration.every_k) {
                let pairs = plan_migration(&swarm.pbest_err, islands, migration, t, cfg.seed);
                // Snapshot every source row before the first write: a
                // migration schedule may chain (A→B while B→C), and the
                // copies must all read pre-migration state.
                let rows: Vec<_> = pairs
                    .iter()
                    .map(|&(src, _)| {
                        (
                            swarm.pos[src * d..(src + 1) * d].to_vec(),
                            swarm.vel[src * d..(src + 1) * d].to_vec(),
                            swarm.pbest_pos[src * d..(src + 1) * d].to_vec(),
                            swarm.pbest_err[src],
                            swarm.errors[src],
                        )
                    })
                    .collect();
                for (&(_, dst), row) in pairs.iter().zip(&rows) {
                    swarm.pos[dst * d..(dst + 1) * d].copy_from_slice(&row.0);
                    swarm.vel[dst * d..(dst + 1) * d].copy_from_slice(&row.1);
                    swarm.pbest_pos[dst * d..(dst + 1) * d].copy_from_slice(&row.2);
                    swarm.pbest_err[dst] = row.3;
                    swarm.errors[dst] = row.4;
                }
                migrations += pairs.len() as u64;
                charger.charge(
                    &mut tl,
                    Phase::GBest,
                    pairs.len() as u64 * d as u64,
                    pairs.len() as u64 * d as u64 * 24,
                    0,
                );
            }
            island_attractors(&swarm.pbest_err, islands, &mut lbest_idx);
            charger.charge(&mut tl, Phase::GBest, n as u64, n as u64 * 4, 0);
        }

        // Advance the adaptive bound (Equation 5 with Kaucic's scheme),
        // then run the swarm update under the current bound.
        sched.note_iteration(gbest_improved);
        let bound = sched.current();

        // Step (iv): swarm update (fused Equations 1, 5 and 2). Under the
        // ring topology, the social attractor is the neighborhood best's
        // pbest row; under the star topology it is the swarm best.
        // The pbest matrix is only *read* during the update, so the social
        // row may be borrowed from it while velocity and position change.
        #[allow(clippy::needless_range_loop)]
        for row in 0..n {
            let (s, e) = (row * d, row * d + d);
            let social_row = match cfg.topology {
                Topology::Global => &swarm.gbest_pos[..],
                Topology::Ring { .. } | Topology::Islands { .. } => {
                    let b = lbest_idx[row];
                    &swarm.pbest_pos[b * d..(b + 1) * d]
                }
            };
            // Split borrows: vel and pos are distinct fields.
            let vrow = &mut swarm.vel[s..e];
            let prow = &mut swarm.pos[s..e];
            update_row(
                row,
                vrow,
                prow,
                &swarm.pbest_pos[s..e],
                swarm.pbest_err[row],
                social_row,
                swarm.gbest_err,
                cfg,
                bound,
                &rng,
                t,
            );
        }
        // The paper's Figure-5 breakdown attributes the per-iteration
        // generation of L and G to the "init" step (§3.1 presents it as
        // part of swarm initialization), so charge RNG work there and the
        // arithmetic to the swarm update.
        charger.charge(&mut tl, Phase::Init, nd * 2 * CPU_RNG_FLOPS_PER_DRAW, 0, 0);
        charger.charge(
            &mut tl,
            Phase::SwarmUpdate,
            nd * UPDATE_FLOPS_PER_ELEM,
            nd * 24,
            0,
        );

        if let Some(h) = history.as_mut() {
            h.push(swarm.gbest_err);
        }

        // Early termination (library extension; None by default).
        if gbest_improved {
            stagnant = 0;
        } else {
            stagnant += 1;
        }
        if let Some(target) = cfg.target_value {
            if (swarm.gbest_err as f64) <= target {
                break;
            }
        }
        if let Some(p) = cfg.patience {
            if stagnant >= p {
                break;
            }
        }
    }

    debug_assert!(swarm.check_invariants().is_ok());
    Ok(RunResult {
        best_value: swarm.gbest_err as f64,
        best_position: swarm.gbest_pos.clone(),
        iterations: iterations_run,
        evaluations: (n * iterations_run) as u64,
        timeline: tl,
        history,
        migrations,
    })
}
