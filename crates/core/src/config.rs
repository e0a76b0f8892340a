//! PSO run configuration.

use crate::error::PsoError;
use crate::topology::Topology;

/// Which quantity Equation (1)'s attractor terms broadcast.
///
/// The paper's Equation (1) *as printed* multiplies the all-ones vector by
/// the scalar best **errors** (`pbest_i · e`, `gbest · e`). Every practical
/// PSO — including the libraries the paper benchmarks against — attracts
/// particles toward the best **positions**. We implement the standard
/// semantics by default and keep the literal reading available as an
/// ablation (see DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttractorSemantics {
    /// Standard PSO: attract toward `pbest` / `gbest` positions.
    #[default]
    PositionVectors,
    /// The paper's Equation (1) verbatim: broadcast the scalar best errors.
    ScalarBroadcast,
}

/// Velocity-bound policy (paper Equation 5).
///
/// The default is a fixed bound at half the domain width (convergence is
/// provided by the linearly decaying inertia, see [`PsoConfig::omega`]).
/// The adaptive variant implements the geometric decay of Kaucic's
/// "adaptive velocity" scheme, which the paper's reference \[14\] describes,
/// as an alternative convergence mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum VelocityBound {
    /// Kaucic-style adaptive bound: start at `fraction ×` domain width,
    /// multiply by `shrink` every iteration.
    Adaptive {
        /// Initial bound as a fraction of the domain width.
        fraction: f32,
        /// Per-iteration multiplicative decay of the bound.
        shrink: f32,
    },
    /// Clamp to ± half the objective's domain width, fixed.
    #[default]
    HalfRange,
    /// Clamp to an explicit symmetric bound `±v`, fixed.
    Symmetric(f32),
    /// No clamping (how the Python baselines behave by default).
    Unbounded,
}

/// Per-run evolution of the velocity bound. All backends drive one of
/// these identically, which keeps their trajectories bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundSchedule {
    current: Option<f32>,
    shrink: f32,
}

impl BoundSchedule {
    /// Initialize from a config and the objective's domain.
    pub fn new(cfg: &PsoConfig, domain: (f32, f32)) -> Self {
        let width = domain.1 - domain.0;
        match cfg.velocity_bound {
            VelocityBound::Adaptive { fraction, shrink } => BoundSchedule {
                current: Some(fraction * width),
                shrink,
            },
            VelocityBound::HalfRange => BoundSchedule {
                current: Some(0.5 * width),
                shrink: 1.0,
            },
            VelocityBound::Symmetric(v) => BoundSchedule {
                current: Some(v),
                shrink: 1.0,
            },
            VelocityBound::Unbounded => BoundSchedule {
                current: None,
                shrink: 1.0,
            },
        }
    }

    /// The bound in force for the current iteration.
    pub fn current(&self) -> Option<f32> {
        self.current
    }

    /// Advance the schedule after an iteration.
    pub fn note_iteration(&mut self, _gbest_improved: bool) {
        if let Some(b) = self.current.as_mut() {
            *b *= self.shrink;
        }
    }
}

/// Configuration of one PSO run (paper Algorithm 1's inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct PsoConfig {
    /// Number of particles `n`.
    pub n_particles: usize,
    /// Problem dimensionality `d`.
    pub dim: usize,
    /// Initial inertia / momentum `ω`. Following standard PSO practice
    /// (Shi & Eberhart), the stated `ω = 0.9` is the *initial* inertia and
    /// decays linearly to [`Self::omega_end`] over the run — constant
    /// `ω = 0.9` with `c1 = c2 = 2` is variance-divergent and cannot reach
    /// the paper's Table-2 error levels.
    pub omega: f32,
    /// Final inertia; set equal to `omega` for a constant schedule.
    pub omega_end: f32,
    /// Cognitive (local exploration) coefficient `c1`.
    pub c1: f32,
    /// Social (global exploration) coefficient `c2`.
    pub c2: f32,
    /// Number of iterations `max_iter`.
    pub max_iter: usize,
    /// RNG seed; equal seeds give bit-identical trajectories on the
    /// deterministic backends.
    pub seed: u64,
    /// Velocity-bound policy (paper Equation 5).
    pub velocity_bound: VelocityBound,
    /// Scale of initial velocities as a fraction of the domain width.
    pub init_velocity_scale: f32,
    /// Attractor semantics (see [`AttractorSemantics`]).
    pub semantics: AttractorSemantics,
    /// Swarm communication topology (see [`Topology`]). The paper's
    /// FastPSO is [`Topology::Global`]; the baselines always use their own
    /// libraries' global-best behaviour regardless of this field.
    pub topology: Topology,
    /// Stop early once `gbest` reaches this value.
    pub target_value: Option<f64>,
    /// Stop early after this many consecutive non-improving iterations.
    pub patience: Option<usize>,
    /// Record `gbest` after every iteration (costs one f32 per iteration).
    pub record_history: bool,
    /// Explicit search-domain bounds `[lo, hi)`. `None` (the default)
    /// means "use the objective's own domain". Validation rejects
    /// non-finite or inverted bounds.
    pub domain: Option<(f32, f32)>,
}

impl PsoConfig {
    /// Start building a configuration for `n` particles in `d` dimensions.
    ///
    /// Defaults follow the paper's experimental setup: `ω = 0.9`,
    /// `c1 = c2 = 2`, `max_iter = 2000`.
    pub fn builder(n: usize, d: usize) -> PsoConfigBuilder {
        PsoConfigBuilder {
            cfg: PsoConfig {
                n_particles: n,
                dim: d,
                omega: 0.9,
                omega_end: 0.4,
                c1: 2.0,
                c2: 2.0,
                max_iter: 2000,
                seed: 0x5eed_fa57,
                velocity_bound: VelocityBound::HalfRange,
                init_velocity_scale: 0.1,
                semantics: AttractorSemantics::PositionVectors,
                topology: Topology::Global,
                target_value: None,
                patience: None,
                record_history: false,
                domain: None,
            },
        }
    }

    /// The paper's default workload: 5000 particles, 200 dimensions,
    /// 2000 iterations.
    pub fn paper_default() -> PsoConfigBuilder {
        Self::builder(5000, 200)
    }

    /// Total matrix elements `n × d`.
    pub fn elems(&self) -> usize {
        self.n_particles * self.dim
    }

    /// Inertia in force at iteration `t` (linear decay from `omega` to
    /// `omega_end`).
    pub fn omega_at(&self, t: usize) -> f32 {
        if self.max_iter <= 1 {
            return self.omega;
        }
        let frac = t as f32 / (self.max_iter - 1) as f32;
        self.omega + (self.omega_end - self.omega) * frac
    }

    /// Resolve the *initial* velocity bound for a given search domain
    /// (backends evolve it through a [`BoundSchedule`]).
    pub fn resolved_velocity_bound(&self, domain: (f32, f32)) -> Option<f32> {
        BoundSchedule::new(self, domain).current()
    }

    /// The search domain a run actually uses: the explicit override if one
    /// was configured, else the objective's own domain.
    pub fn resolve_domain(&self, objective_domain: (f32, f32)) -> (f32, f32) {
        self.domain.unwrap_or(objective_domain)
    }

    pub(crate) fn validate(&self) -> Result<(), PsoError> {
        if self.n_particles == 0 {
            return Err(PsoError::InvalidConfig("n_particles must be > 0".into()));
        }
        if self.dim == 0 {
            return Err(PsoError::InvalidConfig("dim must be > 0".into()));
        }
        if self.max_iter == 0 {
            return Err(PsoError::InvalidConfig("max_iter must be > 0".into()));
        }
        for (name, v) in [
            ("omega", self.omega),
            ("omega_end", self.omega_end),
            ("c1", self.c1),
            ("c2", self.c2),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(PsoError::InvalidConfig(format!(
                    "{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        match self.velocity_bound {
            VelocityBound::Symmetric(vb) if !(vb > 0.0 && vb.is_finite()) => {
                return Err(PsoError::InvalidConfig(format!(
                    "velocity_bound must be positive and finite, got {vb}"
                )));
            }
            VelocityBound::Adaptive { fraction, shrink }
                if !(fraction > 0.0 && fraction.is_finite() && shrink > 0.0 && shrink <= 1.0) =>
            {
                return Err(PsoError::InvalidConfig(format!(
                    "adaptive bound needs fraction > 0 and 0 < shrink <= 1, got {fraction}, {shrink}"
                )));
            }
            _ => {}
        }
        if let Some(p) = self.patience {
            if p == 0 {
                return Err(PsoError::InvalidConfig("patience must be >= 1".into()));
            }
        }
        if self.init_velocity_scale < 0.0 || !self.init_velocity_scale.is_finite() {
            return Err(PsoError::InvalidConfig(
                "init_velocity_scale must be finite and >= 0".into(),
            ));
        }
        if let Topology::Islands { islands, migration } = self.topology {
            if islands < 2 {
                return Err(PsoError::InvalidConfig(format!(
                    "islands topology needs at least 2 islands, got {islands}"
                )));
            }
            if islands > self.n_particles {
                return Err(PsoError::InvalidConfig(format!(
                    "{islands} islands cannot partition {} particles",
                    self.n_particles
                )));
            }
            if migration.every_k == 0 {
                return Err(PsoError::InvalidConfig(
                    "migration period every_k must be >= 1".into(),
                ));
            }
            let smallest = self.n_particles / islands;
            if migration.elites == 0 || migration.elites >= smallest {
                return Err(PsoError::InvalidConfig(format!(
                    "migration elites must satisfy 1 <= elites < smallest island size \
                     ({smallest}), got {}",
                    migration.elites
                )));
            }
        }
        if let Some((lo, hi)) = self.domain {
            if !lo.is_finite() || !hi.is_finite() {
                return Err(PsoError::InvalidConfig(format!(
                    "domain bounds must be finite, got [{lo}, {hi})"
                )));
            }
            if lo >= hi {
                return Err(PsoError::InvalidConfig(format!(
                    "domain bounds are inverted or empty: lo ({lo}) must be < hi ({hi})"
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`PsoConfig`].
#[derive(Debug, Clone)]
pub struct PsoConfigBuilder {
    cfg: PsoConfig,
}

impl PsoConfigBuilder {
    /// Set the initial inertia `ω`.
    pub fn omega(mut self, w: f32) -> Self {
        self.cfg.omega = w;
        self
    }

    /// Set the final inertia of the linear decay schedule.
    pub fn omega_end(mut self, w: f32) -> Self {
        self.cfg.omega_end = w;
        self
    }

    /// Use a constant inertia (no decay).
    pub fn constant_inertia(mut self) -> Self {
        self.cfg.omega_end = self.cfg.omega;
        self
    }

    /// Set cognitive coefficient `c1`.
    pub fn c1(mut self, c: f32) -> Self {
        self.cfg.c1 = c;
        self
    }

    /// Set social coefficient `c2`.
    pub fn c2(mut self, c: f32) -> Self {
        self.cfg.c2 = c;
        self
    }

    /// Set the iteration count.
    pub fn max_iter(mut self, it: usize) -> Self {
        self.cfg.max_iter = it;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Set a symmetric velocity bound `±v`.
    pub fn velocity_bound(mut self, v: f32) -> Self {
        self.cfg.velocity_bound = VelocityBound::Symmetric(v);
        self
    }

    /// Disable velocity clamping entirely.
    pub fn unbounded_velocity(mut self) -> Self {
        self.cfg.velocity_bound = VelocityBound::Unbounded;
        self
    }

    /// Set the initial-velocity scale (fraction of domain width).
    pub fn init_velocity_scale(mut self, s: f32) -> Self {
        self.cfg.init_velocity_scale = s;
        self
    }

    /// Select attractor semantics.
    pub fn semantics(mut self, s: AttractorSemantics) -> Self {
        self.cfg.semantics = s;
        self
    }

    /// Select the swarm topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.cfg.topology = t;
        self
    }

    /// Stop as soon as `gbest` reaches `v`.
    pub fn target_value(mut self, v: f64) -> Self {
        self.cfg.target_value = Some(v);
        self
    }

    /// Stop after `iters` consecutive iterations without improvement.
    pub fn patience(mut self, iters: usize) -> Self {
        self.cfg.patience = Some(iters);
        self
    }

    /// Record the per-iteration `gbest` history.
    pub fn record_history(mut self, yes: bool) -> Self {
        self.cfg.record_history = yes;
        self
    }

    /// Override the search domain to `[lo, hi)` instead of the
    /// objective's own.
    pub fn domain(mut self, lo: f32, hi: f32) -> Self {
        self.cfg.domain = Some((lo, hi));
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<PsoConfig, PsoError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inertia_decays_linearly_to_omega_end() {
        let cfg = PsoConfig::builder(4, 2).max_iter(101).build().unwrap();
        assert_eq!(cfg.omega_at(0), 0.9);
        assert!((cfg.omega_at(50) - 0.65).abs() < 1e-3);
        assert!((cfg.omega_at(100) - 0.4).abs() < 1e-6);
        let c = PsoConfig::builder(4, 2)
            .constant_inertia()
            .max_iter(10)
            .build()
            .unwrap();
        assert_eq!(c.omega_at(9), 0.9);
        let single = PsoConfig::builder(4, 2).max_iter(1).build().unwrap();
        assert_eq!(single.omega_at(0), 0.9);
    }

    #[test]
    fn bound_schedule_decays_geometrically() {
        let mut cfg = PsoConfig::builder(4, 2).build().unwrap();
        cfg.velocity_bound = VelocityBound::Adaptive {
            fraction: 0.5,
            shrink: 0.999,
        };
        let mut sched = BoundSchedule::new(&cfg, (-1.0, 1.0));
        let b0 = sched.current().unwrap();
        assert_eq!(b0, 1.0);
        sched.note_iteration(true);
        let b1 = sched.current().unwrap();
        assert!(b1 < b0, "adaptive bound decays every iteration");
        assert!((b1 - 0.999).abs() < 1e-6);
    }

    #[test]
    fn static_bounds_never_shrink() {
        let cfg = PsoConfig::builder(4, 2)
            .velocity_bound(2.0)
            .build()
            .unwrap();
        let mut sched = BoundSchedule::new(&cfg, (-1.0, 1.0));
        for _ in 0..10 {
            sched.note_iteration(false);
        }
        assert_eq!(sched.current(), Some(2.0));
        let cfg = PsoConfig::builder(4, 2)
            .unbounded_velocity()
            .build()
            .unwrap();
        let sched = BoundSchedule::new(&cfg, (-1.0, 1.0));
        assert_eq!(sched.current(), None);
    }

    #[test]
    fn invalid_adaptive_parameters_are_rejected() {
        let mut cfg = PsoConfig::builder(4, 2).build().unwrap();
        cfg.velocity_bound = VelocityBound::Adaptive {
            fraction: 0.5,
            shrink: 1.5,
        };
        assert!(PsoConfig::builder(4, 2).build().is_ok());
        let rebuilt = PsoConfigBuilder { cfg };
        assert!(rebuilt.build().is_err());
    }

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = PsoConfig::paper_default().build().unwrap();
        assert_eq!(cfg.n_particles, 5000);
        assert_eq!(cfg.dim, 200);
        assert_eq!(cfg.max_iter, 2000);
        assert_eq!(cfg.omega, 0.9);
        assert_eq!(cfg.c1, 2.0);
        assert_eq!(cfg.c2, 2.0);
        assert_eq!(cfg.elems(), 1_000_000);
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = PsoConfig::builder(10, 3)
            .omega(0.7)
            .omega_end(0.7)
            .c1(1.5)
            .c2(1.7)
            .max_iter(50)
            .seed(9)
            .velocity_bound(2.0)
            .init_velocity_scale(0.2)
            .semantics(AttractorSemantics::ScalarBroadcast)
            .record_history(true)
            .build()
            .unwrap();
        assert_eq!(cfg.omega, 0.7);
        assert_eq!(cfg.velocity_bound, VelocityBound::Symmetric(2.0));
        assert_eq!(cfg.semantics, AttractorSemantics::ScalarBroadcast);
        assert!(cfg.record_history);
    }

    #[test]
    fn zero_sizes_are_rejected() {
        assert!(PsoConfig::builder(0, 5).build().is_err());
        assert!(PsoConfig::builder(5, 0).build().is_err());
        assert!(PsoConfig::builder(5, 5).max_iter(0).build().is_err());
    }

    #[test]
    fn bad_coefficients_are_rejected() {
        assert!(PsoConfig::builder(5, 5).omega(f32::NAN).build().is_err());
        assert!(PsoConfig::builder(5, 5).c1(-1.0).build().is_err());
        assert!(PsoConfig::builder(5, 5)
            .velocity_bound(0.0)
            .build()
            .is_err());
    }

    fn rejection_message(b: PsoConfigBuilder) -> String {
        match b.build() {
            Err(PsoError::InvalidConfig(msg)) => msg,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn rejections_carry_specific_messages() {
        assert!(
            rejection_message(PsoConfig::builder(5, 5).omega(f32::INFINITY))
                .contains("omega must be finite and non-negative")
        );
        assert!(rejection_message(PsoConfig::builder(5, 5).c2(f32::NAN))
            .contains("c2 must be finite and non-negative"));
        assert!(rejection_message(PsoConfig::builder(5, 5).max_iter(0))
            .contains("max_iter must be > 0"));
    }

    #[test]
    fn inverted_or_nonfinite_domains_are_rejected() {
        assert!(rejection_message(PsoConfig::builder(5, 5).domain(3.0, -3.0)).contains("inverted"));
        assert!(rejection_message(PsoConfig::builder(5, 5).domain(1.0, 1.0)).contains("inverted"));
        assert!(
            rejection_message(PsoConfig::builder(5, 5).domain(f32::NAN, 1.0)).contains("finite")
        );
        assert!(
            rejection_message(PsoConfig::builder(5, 5).domain(0.0, f32::INFINITY))
                .contains("finite")
        );
        assert!(PsoConfig::builder(5, 5).domain(-2.0, 2.0).build().is_ok());
    }

    #[test]
    fn degenerate_island_configs_are_rejected_with_diagnostics() {
        use crate::topology::{Migration, MigrationKind, Topology};
        let isl = |islands, every_k, elites| Topology::Islands {
            islands,
            migration: Migration {
                kind: MigrationKind::Ring,
                every_k,
                elites,
            },
        };
        assert!(
            rejection_message(PsoConfig::builder(16, 4).topology(isl(1, 5, 1)))
                .contains("at least 2 islands")
        );
        assert!(
            rejection_message(PsoConfig::builder(16, 4).topology(isl(17, 5, 1)))
                .contains("cannot partition")
        );
        assert!(
            rejection_message(PsoConfig::builder(16, 4).topology(isl(4, 0, 1)))
                .contains("every_k must be >= 1")
        );
        assert!(
            rejection_message(PsoConfig::builder(16, 4).topology(isl(4, 5, 0))).contains("elites")
        );
        assert!(
            rejection_message(PsoConfig::builder(16, 4).topology(isl(4, 5, 4)))
                .contains("smallest island size")
        );
        assert!(PsoConfig::builder(16, 4)
            .topology(isl(4, 5, 2))
            .build()
            .is_ok());
    }

    #[test]
    fn domain_override_resolution() {
        let cfg = PsoConfig::builder(5, 5).build().unwrap();
        assert_eq!(cfg.resolve_domain((-10.0, 10.0)), (-10.0, 10.0));
        let cfg = PsoConfig::builder(5, 5).domain(-1.0, 1.0).build().unwrap();
        assert_eq!(cfg.resolve_domain((-10.0, 10.0)), (-1.0, 1.0));
    }

    #[test]
    fn velocity_bound_resolution() {
        let cfg = PsoConfig::builder(5, 5).build().unwrap();
        // Default adaptive bound starts at half the domain width.
        assert_eq!(cfg.resolved_velocity_bound((-4.0, 4.0)), Some(4.0));
        let cfg = PsoConfig::builder(5, 5)
            .velocity_bound(1.5)
            .build()
            .unwrap();
        assert_eq!(cfg.resolved_velocity_bound((-4.0, 4.0)), Some(1.5));
        let cfg = PsoConfig::builder(5, 5)
            .unbounded_velocity()
            .build()
            .unwrap();
        assert_eq!(cfg.resolved_velocity_bound((-4.0, 4.0)), None);
    }
}
