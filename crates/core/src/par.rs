//! `fastpso-omp` — the paper's OpenMP port. It runs the sequential loops of
//! `fastpso-seq` and charges their modeled time at the testbed's core count
//! (`CpuCharger::parallel`); no host thread is spawned (DESIGN.md §2).

use crate::backend::PsoBackend;
use crate::config::PsoConfig;
use crate::error::PsoError;
use crate::result::RunResult;
use fastpso_functions::Objective;

/// CPU backend priced as the paper's multi-threaded OpenMP port.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParBackend;

impl PsoBackend for ParBackend {
    fn name(&self) -> &'static str {
        "fastpso-omp"
    }

    fn run(&self, cfg: &PsoConfig, obj: &dyn Objective) -> Result<RunResult, PsoError> {
        crate::cpu::run_cpu(cfg, obj, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqBackend;
    use fastpso_functions::builtins::{Griewank, Sphere};

    fn cfg(n: usize, d: usize, iters: usize) -> PsoConfig {
        PsoConfig::builder(n, d)
            .max_iter(iters)
            .seed(5)
            .build()
            .unwrap()
    }

    #[test]
    fn converges_on_sphere() {
        let r = ParBackend.run(&cfg(64, 8, 200), &Sphere).unwrap();
        assert!(r.best_value < 5.0, "best = {}", r.best_value);
    }

    #[test]
    fn trajectory_is_bit_identical_to_sequential() {
        // The OpenMP-priced backend runs the sequential loops, so it must
        // produce exactly the sequential result; only its modeled time
        // differs.
        for obj in [&Sphere as &dyn fastpso_functions::Objective, &Griewank] {
            let c = cfg(40, 6, 60);
            let a = SeqBackend.run(&c, obj).unwrap();
            let b = ParBackend.run(&c, obj).unwrap();
            assert_eq!(a.best_value, b.best_value);
            assert_eq!(a.best_position, b.best_position);
        }
    }

    #[test]
    fn modeled_time_is_faster_than_sequential_but_modestly() {
        // Table 1: fastpso-omp is 1.3-1.7x faster than fastpso-seq.
        let c = cfg(1024, 64, 20);
        let ts = SeqBackend.run(&c, &Sphere).unwrap().elapsed_seconds();
        let tp = ParBackend.run(&c, &Sphere).unwrap().elapsed_seconds();
        let speedup = ts / tp;
        assert!(
            (1.1..3.0).contains(&speedup),
            "omp speedup {speedup} outside plausible band"
        );
    }
}
