//! `solve-dense`: one client runs single-device PSO solves back to back.
//!
//! Each solve is a GlobalMem, unfused `GpuBackend` run of 4096–4192
//! particles (one size per run, from the seed) in 64 dimensions for 10
//! iterations, on Sphere, Rastrigin and Griewank in rotation. With
//! n·d ≥ 256k the swarm matrices total several MiB, beyond a 2 MiB per-core
//! L2. Philox draws, the element-wise kernel bodies, objective evaluation
//! and the reductions do nearly all the host work; plan dispatch and the
//! serving layer do almost none.

use crate::measure::{same_bits, Fnv, Host, Modeled, Session};
use crate::probes::PlanInput;
use crate::trace::Tracer;
use fastpso::{GpuBackend, PsoBackend, PsoConfig, RunResult, SeqBackend};
use fastpso_functions::builtins::{Griewank, Rastrigin, Sphere};
use fastpso_functions::Objective;
use fastpso_prng::SplitMix64;

/// Dimensions per solve.
const DIM: usize = 64;
/// Iterations per solve.
const ITERS: usize = 10;
/// A session is one rotation: one solve per objective.
const PER_SESSION: usize = 3;
/// Distinct sessions before the inputs repeat.
pub const CYCLE: usize = 10;

/// One solve's inputs.
pub struct Solve {
    /// The objective.
    pub objective: &'static dyn Objective,
    /// The swarm configuration.
    pub cfg: PsoConfig,
}

/// The workload's inputs, made from the seed.
pub struct SolveDense {
    /// `CYCLE × PER_SESSION` solves, in the order the client runs them.
    pub solves: Vec<Solve>,
    first: Vec<Option<RunResult>>,
    modeled: Modeled,
}

/// Build the inputs from `seed`.
pub fn setup(seed: u64) -> SolveDense {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_de45e);
    let objectives: [&'static dyn Objective; 3] = [&Sphere, &Rastrigin, &Griewank];
    // One swarm size for the whole run: sizes that differ from solve to
    // solve would make the allocator's peak footprint, and so
    // `host_peak_rss_mb`, depend on their order.
    let particles = 4096 + 32 * (rng.next_u64() % 4) as usize;
    let solves: Vec<Solve> = (0..CYCLE * PER_SESSION)
        .map(|i| {
            let cfg = PsoConfig::builder(particles, DIM)
                .max_iter(ITERS)
                .seed(rng.next_u64())
                .build()
                .expect("solve-dense configs are valid");
            Solve {
                objective: objectives[i % 3],
                cfg,
            }
        })
        .collect();
    SolveDense {
        first: vec![None; solves.len()],
        solves,
        modeled: Modeled::default(),
    }
}

impl SolveDense {
    /// Run one 1-iteration solve, so the window starts from a warm process.
    pub fn warm_up(&self) {
        let mut warm = self.solves[0].cfg.clone();
        warm.max_iter = 1;
        GpuBackend::new()
            .run(&warm, self.solves[0].objective)
            .expect("warm-up solve runs");
    }

    /// Run session `index`: one solve per objective, the inputs repeating
    /// every [`CYCLE`] sessions. The first cycle's solves give the modeled
    /// results; every later solve of the same inputs must reproduce them
    /// bit for bit.
    pub fn session(&mut self, index: usize, tracer: &mut Tracer, host: &mut Host) {
        let base = (index % CYCLE) * PER_SESSION;
        let mut done = Vec::with_capacity(PER_SESSION);
        let mut stats = Session::default();
        let span = tracer.begin("session", None);
        for i in base..base + PER_SESSION {
            let s = &self.solves[i];
            let job = Some((index * PER_SESSION + i - base) as u64);
            let backend = GpuBackend::new();
            let (res, took) = tracer.time("gpu_run", job, || backend.run(&s.cfg, s.objective));
            host.attempted += 1;
            match res {
                Ok(r) => {
                    let ms = took.as_secs_f64() * 1e3;
                    stats.job_ms.push(ms);
                    stats.tick_ms.push(ms / r.iterations.max(1) as f64);
                    stats.completed += 1;
                    stats.elem_iters += (s.cfg.n_particles * s.cfg.dim * r.iterations) as f64;
                    done.push((i, r, backend));
                }
                Err(_) => host.failed += 1,
            }
        }
        stats.secs = tracer.end(span).as_secs_f64();
        host.window_s += stats.secs;
        host.sessions.push(stats);
        for (i, r, backend) in done {
            match &self.first[i] {
                Some(prev) => {
                    let (mut a, mut b) = (Fnv::default(), Fnv::default());
                    a.result(prev);
                    b.result(&r);
                    if a.0 != b.0 {
                        host.nondeterministic += 1;
                    }
                }
                None => {
                    let dev = backend.device();
                    let secs = r.elapsed_seconds();
                    let m = &mut self.modeled;
                    m.completed += 1;
                    m.device_s += secs;
                    m.makespan_s += secs;
                    m.latency_s.push(secs);
                    m.queue_wait_s.push(0.0);
                    m.run_s.push(secs);
                    m.add_timeline(&r.timeline, dev.counters(), dev.peak_bytes());
                    self.first[i] = Some(r);
                }
            }
        }
    }

    /// Modeled results of the first cycle.
    pub fn modeled(&self) -> Modeled {
        self.modeled.clone()
    }

    /// Output check, outside the timed window: the first rotation's solves
    /// must be bit-identical to `SeqBackend` on the same config. Returns
    /// (checked, wrong).
    pub fn check(&self) -> (u64, u64) {
        let mut wrong = 0;
        for (s, got) in self.solves.iter().zip(&self.first).take(PER_SESSION) {
            let ok = match (got, SeqBackend.run(&s.cfg, s.objective)) {
                (Some(g), Ok(want)) => same_bits(g, &want),
                _ => false,
            };
            if !ok {
                wrong += 1;
            }
        }
        (PER_SESSION as u64, wrong)
    }

    /// Every solve as (config, algorithm, strategy) for the layer probes.
    pub fn plans(&self) -> Vec<PlanInput> {
        self.solves
            .iter()
            .map(|s| {
                (
                    s.cfg.clone(),
                    fastpso::Algorithm::Pso,
                    fastpso::UpdateStrategy::GlobalMem,
                )
            })
            .collect()
    }
}
