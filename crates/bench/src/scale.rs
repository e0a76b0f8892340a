//! Experiment scale presets.

/// Scale of one harness invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Default particle count (the paper uses 5000).
    pub n_particles: usize,
    /// Default dimensionality (the paper uses 200).
    pub dim: usize,
    /// Iterations the reported numbers are extrapolated to (2000 in the
    /// paper).
    pub target_iters: usize,
    /// First measured iteration count (affine-extrapolation anchor).
    pub iters_lo: usize,
    /// Second measured iteration count.
    pub iters_hi: usize,
    /// Particle sweep for Figure 4 (a/c/e/g).
    pub particles_sweep: Vec<usize>,
    /// Dimension sweep for Figure 4 (b/d/f/h).
    pub dims_sweep: Vec<usize>,
    /// Trees / depth for the Table 5 case study.
    pub tgbm_trees: usize,
    pub tgbm_depth: usize,
    /// Particles / iterations for the Table 5 tuning run.
    pub tune_particles: usize,
    pub tune_iters: usize,
    /// Particles / iterations for the Table 2 solution-quality runs
    /// (quality needs enough iterations to converge; time does not).
    pub quality_particles: usize,
    pub quality_iters: usize,
}

impl Scale {
    /// Reduced scale: paper-sized swarms, measured at two short iteration
    /// counts and extrapolated to 2000 iterations. A full regeneration of
    /// all artifacts completes in minutes on one core.
    pub fn quick() -> Scale {
        Scale {
            n_particles: 5000,
            dim: 200,
            target_iters: 2000,
            iters_lo: 10,
            iters_hi: 20,
            particles_sweep: vec![2000, 3000, 4000, 5000],
            dims_sweep: vec![50, 100, 150, 200],
            tgbm_trees: 8,
            tgbm_depth: 6,
            tune_particles: 256,
            tune_iters: 40,
            quality_particles: 512,
            quality_iters: 400,
        }
    }

    /// The paper's exact setup: 2000 measured iterations, 40 trees.
    /// Expect a long wall-clock on a small host.
    pub fn paper() -> Scale {
        Scale {
            n_particles: 5000,
            dim: 200,
            target_iters: 2000,
            iters_lo: 1000,
            iters_hi: 2000,
            particles_sweep: vec![2000, 3000, 4000, 5000],
            dims_sweep: vec![50, 100, 150, 200],
            tgbm_trees: 40,
            tgbm_depth: 6,
            tune_particles: 5000,
            tune_iters: 200,
            quality_particles: 5000,
            quality_iters: 2000,
        }
    }

    /// Tiny scale for smoke runs and tests.
    pub fn smoke() -> Scale {
        Scale {
            n_particles: 256,
            dim: 32,
            target_iters: 100,
            iters_lo: 4,
            iters_hi: 8,
            particles_sweep: vec![64, 128],
            dims_sweep: vec![8, 16],
            tgbm_trees: 3,
            tgbm_depth: 3,
            tune_particles: 32,
            tune_iters: 8,
            quality_particles: 64,
            quality_iters: 30,
        }
    }

    /// Parse from CLI args: `--paper-scale` or `--smoke`, else quick.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--paper-scale") {
            Scale::paper()
        } else if args.iter().any(|a| a == "--smoke") {
            Scale::smoke()
        } else {
            Scale::quick()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_internally_consistent() {
        for s in [Scale::quick(), Scale::paper(), Scale::smoke()] {
            assert!(s.iters_lo < s.iters_hi);
            assert!(s.iters_hi <= s.target_iters);
            assert!(!s.particles_sweep.is_empty());
            assert!(!s.dims_sweep.is_empty());
            assert!(s.tgbm_trees > 0 && s.tgbm_depth > 0);
        }
    }

    #[test]
    fn quick_matches_paper_workload_shape() {
        let s = Scale::quick();
        assert_eq!(s.n_particles, 5000);
        assert_eq!(s.dim, 200);
        assert_eq!(s.target_iters, 2000);
        assert_eq!(s.particles_sweep, vec![2000, 3000, 4000, 5000]);
        assert_eq!(s.dims_sweep, vec![50, 100, 150, 200]);
    }
}
