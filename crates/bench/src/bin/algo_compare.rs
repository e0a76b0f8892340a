//! Cross-algorithm comparison at equal modeled budget: PSO vs the
//! discrete-SSO and GFWA engines, all three running through the same
//! plan executor, plus a random-search floor.
//!
//! Per function, every engine receives the same modeled device-second
//! budget: PSO's full-run price at the scale's quality iteration count on
//! the V100 profile ([`fastpso::stats::modeled_s`]). Each engine then runs
//! the largest iteration count whose own full-run price fits that budget
//! ([`fastpso::stats::iters_within_budget`]), so PSO runs exactly its
//! quality count, SSO's single-launch update buys it more iterations and
//! GFWA's spark cloud buys it fewer. Random search
//! ([`fastpso::stats::random_search`]) receives the largest total
//! objective-evaluation count any engine used, a deliberately generous
//! floor: an engine that cannot beat it is not earning its kernels.
//!
//! Usage: `cargo run --release -p fastpso-bench --bin algo_compare --
//!         [--paper-scale|--smoke] [--out <path>] [--topology <spec>]`
//! — writes a markdown table (default `results/algo_compare.md`).
//!
//! `--topology` accepts the [`Topology`] grammar shared with the library's
//! `FromStr` impl: `global` (the default), `ring_lbest:<k>` for a ring
//! neighborhood of half-window `k`, or
//! `islands:<m>:<ring|star|random>:<every_k>:<elites>` for an island
//! model of `m` sub-swarms migrating `elites` rows every `every_k`
//! iterations. Island shapes are priced with their migration launches (a
//! full run schedules `iterations / every_k` of them), so the equal-budget
//! comparison stays honest.

use fastpso::stats::{iters_within_budget, modeled_s, random_search};
use fastpso::{Algorithm, GpuBackend, JobShape, PsoBackend, PsoConfig, Topology, UpdateStrategy};
use fastpso_bench::Scale;
use fastpso_functions::builtins::{Qap, Rastrigin, Sphere};
use fastpso_functions::Objective;

/// Objective evaluations one engine iteration costs: the swarm eval plus
/// GFWA's 8 sparks and one guiding spark per firework.
fn evals_per_iter(algo: Algorithm, particles: u64) -> u64 {
    match algo {
        Algorithm::Gfwa => particles * 10,
        _ => particles,
    }
}

struct Row {
    engine: String,
    iters: usize,
    evals: u64,
    modeled_s: f64,
    best: f32,
}

fn compare(
    obj: &dyn Objective,
    particles: usize,
    dim: usize,
    budget_iters: usize,
    seed: u64,
    topology: Topology,
) -> (f64, Vec<Row>) {
    let (n, d) = (particles as u64, dim as u64);
    let pso =
        JobShape::new(n, d, budget_iters as u64, UpdateStrategy::GlobalMem).topology(topology);
    let budget_s = modeled_s(&pso);

    let mut rows = Vec::new();
    let mut max_evals = 0u64;
    for algo in Algorithm::ALL {
        let iters = iters_within_budget(&pso.clone().algorithm(algo), budget_s) as usize;
        let cfg = PsoConfig::builder(particles, dim)
            .max_iter(iters)
            .seed(seed)
            .topology(topology)
            .build()
            .expect("valid config");
        let backend = GpuBackend::new().algorithm(algo);
        let r = backend.run(&cfg, obj).expect("engine run");
        let evals = iters as u64 * evals_per_iter(algo, particles as u64);
        max_evals = max_evals.max(evals);
        rows.push(Row {
            engine: backend.name().to_string(),
            iters,
            evals,
            modeled_s: r.timeline.total_seconds(),
            best: r.best_value as f32,
        });
    }
    rows.push(Row {
        engine: "random-search".to_string(),
        iters: 0,
        evals: max_evals,
        modeled_s: 0.0,
        best: random_search(obj, dim, max_evals, seed),
    });
    (budget_s, rows)
}

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/algo_compare.md".to_string());
    let topology: Topology = args
        .iter()
        .position(|a| a == "--topology")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("valid --topology spec"))
        .unwrap_or(Topology::Global);
    let seed = 42u64;
    let particles = scale.quality_particles;
    let iters = scale.quality_iters;
    // QAP decodes a permutation per evaluation; keep its facility count
    // modest so the O(d^2) objective stays cheap at every scale.
    let qap_dim = 12usize.min(scale.dim);

    let mut md = String::from(
        "# PSO vs SSO vs GFWA at equal modeled budget\n\n\
         Every engine gets the same modeled device-second budget — PSO's\n\
         predicted cost at the quality iteration count, V100 profile,\n\
         global-memory strategy — and runs the largest iteration count\n\
         whose own modeled full-run price fits it. Random search gets the\n\
         largest objective-evaluation count any engine used.\n\n\
         Regenerate: `cargo run --release -p fastpso-bench --bin\n\
         algo_compare` (append `--smoke` for the CI-sized run,\n\
         `--out <path>` to redirect).\n",
    );
    for (name, obj, dim) in [
        ("sphere", &Sphere as &dyn Objective, scale.dim),
        ("rastrigin", &Rastrigin as &dyn Objective, scale.dim),
        ("qap", &Qap as &dyn Objective, qap_dim),
    ] {
        let (budget_s, rows) = compare(obj, particles, dim, iters, seed, topology);
        md.push_str(&format!(
            "\n## {name} — dim {dim}, {particles} particles, topology {topology}, \
             budget {budget_s:.6} modeled s\n\n\
             | engine | iterations | evaluations | modeled s | best value |\n\
             |---|---:|---:|---:|---:|\n"
        ));
        for r in &rows {
            let iters_cell = if r.iters == 0 {
                "—".to_string()
            } else {
                r.iters.to_string()
            };
            let modeled_cell = if r.modeled_s == 0.0 {
                "—".to_string()
            } else {
                format!("{:.6}", r.modeled_s)
            };
            assert!(r.best.is_finite(), "{name}/{}: non-finite best", r.engine);
            md.push_str(&format!(
                "| {} | {} | {} | {} | {:.4} |\n",
                r.engine, iters_cell, r.evals, modeled_cell, r.best
            ));
            eprintln!(
                "{name:<10} {:<14} iters {:>6} evals {:>9} best {:>12.4}",
                r.engine, r.iters, r.evals, r.best
            );
        }
    }
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out, md).expect("write table");
    eprintln!("\n(table written to {out})");
}
