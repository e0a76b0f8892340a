//! Optimization-quality integration tests: every implementation (the
//! paper's own variants and the four baselines) must genuinely optimize,
//! histories must be monotone, and the paper's quality ordering — clamped
//! decaying-inertia implementations beat the Python-library defaults —
//! must hold.

use fastpso_suite::baselines::{GpuPsoBaseline, HGpuPsoBaseline, PySwarmsLike, ScikitOptLike};
use fastpso_suite::fastpso::stats::{iters_within_budget, modeled_s, random_search};
use fastpso_suite::fastpso::{
    Algorithm, AttractorSemantics, GpuBackend, JobShape, Migration, MigrationKind, ParBackend,
    PsoBackend, PsoConfig, SeqBackend, Topology, UpdateStrategy,
};
use fastpso_suite::functions::builtins::{
    Easom, Griewank, Levy, Qap, Rastrigin, Rosenbrock, Sphere,
};
use fastpso_suite::functions::Objective;

fn cfg(n: usize, d: usize, iters: usize) -> PsoConfig {
    PsoConfig::builder(n, d)
        .max_iter(iters)
        .seed(77)
        .record_history(true)
        .build()
        .unwrap()
}

#[test]
fn every_implementation_improves_over_initialization() {
    let c = cfg(64, 10, 150);
    let impls: Vec<Box<dyn PsoBackend>> = vec![
        Box::new(SeqBackend),
        Box::new(ParBackend),
        Box::new(GpuBackend::new()),
        Box::new(GpuPsoBaseline::new()),
        Box::new(HGpuPsoBaseline::new()),
        Box::new(PySwarmsLike),
        Box::new(ScikitOptLike),
    ];
    for b in impls {
        let r = b.run(&c, &Sphere).unwrap();
        let h = r.history.as_ref().unwrap();
        assert!(
            *h.last().unwrap() < h[0],
            "{} never improved: {} -> {}",
            b.name(),
            h[0],
            h.last().unwrap()
        );
        assert_eq!(r.history_is_monotone(), Some(true), "{}", b.name());
        assert!(r.best_value.is_finite(), "{}", b.name());
    }
}

#[test]
fn fastpso_converges_deep_on_every_smooth_landscape() {
    let c = cfg(128, 8, 400);
    for (obj, threshold) in [
        (&Sphere as &dyn Objective, 0.01),
        (&Rosenbrock, 10.0),
        (&Levy, 0.5),
    ] {
        let r = GpuBackend::new().run(&c, obj).unwrap();
        assert!(
            r.best_value < threshold,
            "{}: best {} above {threshold}",
            obj.name(),
            r.best_value
        );
    }
}

#[test]
fn multimodal_landscapes_still_improve_substantially() {
    let c = cfg(128, 8, 400);
    for obj in [&Rastrigin as &dyn Objective, &Griewank] {
        let r = GpuBackend::new().run(&c, obj).unwrap();
        let h = r.history.unwrap();
        assert!(
            h[0] / *h.last().unwrap() > 5.0 || *h.last().unwrap() < 1.0,
            "{}: {} -> {}",
            obj.name(),
            h[0],
            h.last().unwrap()
        );
    }
}

#[test]
fn clamped_decaying_swarm_beats_python_defaults() {
    // Table 2's quality shape at an integration-test scale.
    let c = cfg(96, 24, 500);
    let fast = GpuBackend::new().run(&c, &Sphere).unwrap().best_value;
    let py = PySwarmsLike.run(&c, &Sphere).unwrap().best_value;
    let sk = ScikitOptLike.run(&c, &Sphere).unwrap().best_value;
    assert!(
        fast * 5.0 < py && fast * 5.0 < sk,
        "fastpso {fast} must clearly beat pyswarms {py} / scikit-opt {sk}"
    );
}

#[test]
fn easom_needle_is_found_in_low_dimensions() {
    // The classic 2-D Easom: minimum −1 at (π, π). A healthy swarm finds
    // it; this guards the evaluation function and the optimizer together.
    let c = PsoConfig::builder(256, 2)
        .max_iter(300)
        .seed(5)
        .build()
        .unwrap();
    let r = GpuBackend::new().run(&c, &Easom).unwrap();
    assert!(
        r.best_value < -0.9,
        "2-D Easom needle not found: best = {}",
        r.best_value
    );
    let x = &r.best_position;
    assert!((x[0] - std::f32::consts::PI).abs() < 0.2);
    assert!((x[1] - std::f32::consts::PI).abs() < 0.2);
}

#[test]
fn scalar_broadcast_semantics_run_but_explore_differently() {
    // The paper's Equation (1) literal reading (ablation): it still runs
    // and produces a different trajectory than standard semantics.
    let base = cfg(48, 8, 100);
    let standard = SeqBackend.run(&base, &Sphere).unwrap();
    let mut literal_cfg = base.clone();
    literal_cfg.semantics = AttractorSemantics::ScalarBroadcast;
    let literal = SeqBackend.run(&literal_cfg, &Sphere).unwrap();
    assert_ne!(standard.best_position, literal.best_position);
    assert!(literal.best_value.is_finite());
    assert!(
        standard.best_value <= literal.best_value,
        "standard semantics should not lose to the scalar-broadcast reading on Sphere"
    );
}

#[test]
fn sso_beats_random_search_on_qap_at_equal_modeled_budget() {
    // Discrete SSO on the permutation-encoded QAP: its index-sampling
    // update (copy gbest / copy pbest / keep / resample) is built for
    // exactly this landscape. The modeled budget is a 64x12 PSO run of
    // 200 iterations; SSO's cheaper schedule affords it more iterations,
    // and random search gets the same evaluation count SSO used.
    let pso = JobShape::new(64, 12, 200, UpdateStrategy::GlobalMem);
    let iters = iters_within_budget(&pso.clone().algorithm(Algorithm::Sso), modeled_s(&pso));
    assert!(
        iters > pso.iterations,
        "SSO must afford more iterations than PSO"
    );
    let (n, d, iters) = (pso.particles as usize, pso.dim as usize, iters as usize);
    let c = PsoConfig::builder(n, d)
        .max_iter(iters)
        .seed(77)
        .record_history(true)
        .build()
        .unwrap();
    let r = GpuBackend::new()
        .algorithm(Algorithm::Sso)
        .run(&c, &Qap)
        .unwrap();
    assert_eq!(r.history_is_monotone(), Some(true));
    let evals = (n * iters) as u64;
    let floor = random_search(&Qap, d, evals, 77);
    assert!(
        (r.best_value as f32) < floor,
        "SSO best {} must beat random search {floor} at {evals} evals",
        r.best_value
    );
}

#[test]
fn gfwa_beats_random_search_on_high_dim_multimodal_at_equal_modeled_budget() {
    // GFWA on 32-D Rastrigin: the explosion cloud plus the guiding spark
    // must out-search a random sampler that receives every objective
    // evaluation GFWA spent (fireworks + 8 sparks + guide per firework).
    let pso = JobShape::new(48, 32, 300, UpdateStrategy::GlobalMem);
    let iters = iters_within_budget(&pso.clone().algorithm(Algorithm::Gfwa), modeled_s(&pso));
    assert!(
        iters < pso.iterations,
        "GFWA's spark cloud must price above PSO"
    );
    let (n, d, iters) = (pso.particles as usize, pso.dim as usize, iters as usize);
    let c = PsoConfig::builder(n, d)
        .max_iter(iters)
        .seed(77)
        .record_history(true)
        .build()
        .unwrap();
    let r = GpuBackend::new()
        .algorithm(Algorithm::Gfwa)
        .run(&c, &Rastrigin)
        .unwrap();
    assert_eq!(r.history_is_monotone(), Some(true));
    let evals = (n * iters * 10) as u64;
    let floor = random_search(&Rastrigin, d, evals, 77);
    assert!(
        (r.best_value as f32) < floor,
        "GFWA best {} must beat random search {floor} at {evals} evals",
        r.best_value
    );
}

/// Golden pinning the islands-vs-single-swarm quality comparison. The
/// free-standing, scale-selectable version of this experiment is the
/// `island_bench` binary; this is the committed CI gate.
const ISLAND_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/island_compare.md");

#[test]
fn islands_beat_the_single_swarm_at_equal_modeled_budget() {
    // The island model's exploration claim, pinned: 4 islands exchanging
    // 4 elites every 60 iterations beat one fully-connected swarm on both
    // multimodal landscapes, after paying for their own migration and
    // elite-select launches out of the same modeled device-second budget.
    // The horizon is long (1500 single-swarm iterations) because the
    // advantage appears only once the single swarm has converged as far
    // as it ever will.
    let (n, budget_iters) = (128, 1500);
    let islands = Topology::Islands {
        islands: 4,
        migration: Migration {
            kind: MigrationKind::Random,
            every_k: 60,
            elites: 4,
        },
    };
    let mut md = String::from(
        "# Islands vs single swarm at equal modeled budget (pinned)\n\n\
         Produced by `tests/convergence.rs`\n\
         (`islands_beat_the_single_swarm_at_equal_modeled_budget`).\n\
         Regenerate: `UPDATE_GOLDEN=1 cargo test --test convergence islands`.\n\n\
         | objective | dim | setup | iterations | migrations | best |\n\
         |---|---:|---|---:|---:|---:|\n",
    );
    for (name, obj, d) in [
        ("rastrigin", &Rastrigin as &dyn Objective, 32),
        ("qap", &Qap, 12),
    ] {
        let run = |topology: Topology, iters: usize| {
            let cfg = PsoConfig::builder(n, d)
                .max_iter(iters)
                .seed(42)
                .topology(topology)
                .build()
                .unwrap();
            GpuBackend::new().run(&cfg, obj).unwrap()
        };
        let single = run(Topology::Global, budget_iters);
        let global = JobShape::new(
            n as u64,
            d as u64,
            budget_iters as u64,
            UpdateStrategy::GlobalMem,
        );
        let iters =
            iters_within_budget(&global.clone().topology(islands), modeled_s(&global)) as usize;
        assert!(
            iters < budget_iters,
            "{name}: island launches must price above the plain schedule"
        );
        let isl = run(islands, iters);
        assert_eq!(single.migrations, 0);
        assert!(isl.migrations > 0, "{name}: islands must migrate");
        assert!(
            isl.best_value <= single.best_value,
            "{name}: islands {} must beat the equal-budget single swarm {}",
            isl.best_value,
            single.best_value
        );
        md.push_str(&format!(
            "| {name} | {d} | single swarm (global) | {budget_iters} | 0 | {:.4} |\n",
            single.best_value
        ));
        md.push_str(&format!(
            "| {name} | {d} | {islands} | {iters} | {} | {:.4} |\n",
            isl.migrations, isl.best_value
        ));
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(ISLAND_GOLDEN, &md).expect("write island golden");
        return;
    }
    let expected = std::fs::read_to_string(ISLAND_GOLDEN).expect(
        "island golden missing; regenerate with \
         UPDATE_GOLDEN=1 cargo test --test convergence islands",
    );
    assert_eq!(
        md, expected,
        "island comparison drifted from the recorded golden (if intentional: \
         UPDATE_GOLDEN=1 cargo test --test convergence islands)"
    );
}

#[test]
fn unbounded_velocity_hurts_quality() {
    let bounded = cfg(64, 16, 300);
    let mut unbounded = bounded.clone();
    unbounded.velocity_bound = fastpso_suite::fastpso::VelocityBound::Unbounded;
    let b = SeqBackend.run(&bounded, &Sphere).unwrap().best_value;
    let u = SeqBackend.run(&unbounded, &Sphere).unwrap().best_value;
    assert!(b < u, "bounded {b} should beat unbounded {u}");
}
