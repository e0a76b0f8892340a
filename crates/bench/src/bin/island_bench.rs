//! Island-model vs single-swarm comparison at equal modeled budget.
//!
//! Per multimodal objective, a single global-topology swarm runs for the
//! scale's iteration horizon and sets the modeled device-second budget:
//! its full-run V100 price on the global-memory strategy
//! ([`fastpso::stats::modeled_s`]). Each island configuration then runs the
//! largest iteration count whose own full-run price fits the *same* budget
//! ([`fastpso::stats::iters_within_budget`]). That price includes the
//! per-iteration elite-select gather and the periodic migration launches,
//! so the comparison charges islands for their coordination overhead.
//! Every setup runs over a fixed seed panel through
//! [`fastpso::stats::run_many`], which reports the median best and the
//! migration rollup from the same runs. The claim under test is that
//! restricted information flow (independent islands with periodic elite
//! exchange) out-searches one big fully-connected swarm on multimodal
//! landscapes, and the binary asserts the best island configuration beats
//! the single swarm on at least one objective.
//!
//! The horizons here are deliberately longer than the quality presets in
//! [`Scale`](fastpso_bench::Scale): the island advantage appears once the
//! fully-connected swarm has had every chance to converge — at short
//! horizons a single swarm's faster information flow wins and the
//! comparison would measure nothing but the migration overhead.
//!
//! Usage: `cargo run --release -p fastpso-bench --bin island_bench --
//!         [--paper-scale|--smoke] [--out <path>]`
//! — writes a markdown table (default `results/island_bench.md`).
//!
//! The committed quality gate lives in `tests/convergence.rs` /
//! `results/island_compare.md`; this binary is the free-standing,
//! scale-selectable version of the same experiment.

use fastpso::stats::{iters_within_budget, modeled_s, run_many};
use fastpso::{
    GpuBackend, JobShape, Migration, MigrationKind, PsoConfig, Topology, UpdateStrategy,
};
use fastpso_functions::builtins::{Qap, Rastrigin};
use fastpso_functions::Objective;

/// The seed panel every setup runs over; the reported statistic is the
/// median best across the panel.
const SEEDS: [u64; 5] = [42, 43, 44, 45, 46];

/// The setup name of the single global-topology swarm.
const SINGLE: &str = "single swarm (global)";

/// Sub-swarm count of every island configuration.
const ISLANDS: usize = 4;
/// Migration period (iterations between elite exchanges). Long isolation
/// stretches let each island develop its own basin before elites mix.
const EVERY_K: usize = 60;
/// Elite rows exchanged per migration edge.
const ELITES: usize = 4;

fn island_topology(kind: MigrationKind) -> Topology {
    Topology::Islands {
        islands: ISLANDS,
        migration: Migration {
            kind,
            every_k: EVERY_K,
            elites: ELITES,
        },
    }
}

/// The `n`×`d` global-memory shape of `iters` iterations under `t`.
fn shape(n: usize, d: usize, iters: usize, t: Topology) -> JobShape {
    JobShape::new(n as u64, d as u64, iters as u64, UpdateStrategy::GlobalMem).topology(t)
}

struct Row {
    setup: String,
    iters: usize,
    modeled_s: f64,
    migrations: u64,
    best: f32,
}

/// Every setup at the budget of `budget_iters` single-swarm iterations:
/// the single swarm first (the search gives it back exactly its own
/// iterations), then one island configuration per migration kind. Each row
/// holds the panel's median best and migration rollup (identical across
/// seeds: the schedule, not the trajectory, decides how many rows move;
/// reported for the operator runbook).
fn compare(obj: &dyn Objective, n: usize, d: usize, budget_iters: usize) -> (f64, Vec<Row>) {
    let budget_s = modeled_s(&shape(n, d, budget_iters, Topology::Global));
    let setups = [
        Topology::Global,
        island_topology(MigrationKind::Ring),
        island_topology(MigrationKind::Star),
        island_topology(MigrationKind::Random),
    ];
    let rows = setups
        .into_iter()
        .map(|t| {
            let iters = iters_within_budget(&shape(n, d, budget_iters, t), budget_s) as usize;
            let cfg = PsoConfig::builder(n, d)
                .max_iter(iters)
                .topology(t)
                .build()
                .expect("valid config");
            let runs = run_many(&GpuBackend::new(), &cfg, obj, &SEEDS).expect("run");
            Row {
                setup: match t {
                    Topology::Global => SINGLE.to_string(),
                    _ => t.to_string(),
                },
                iters,
                modeled_s: modeled_s(&shape(n, d, iters, t)),
                migrations: runs.migrations[0],
                best: runs.median() as f32,
            }
        })
        .collect();
    (budget_s, rows)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/island_bench.md".to_string());
    // Particles, Rastrigin dimension, single-swarm iteration horizon.
    let (particles, dim, iters) = if args.iter().any(|a| a == "--paper-scale") {
        (512, 32, 2000)
    } else if args.iter().any(|a| a == "--smoke") {
        (64, 24, 600)
    } else {
        (128, 32, 1500)
    };
    let qap_dim = 12usize.min(dim);

    let mut md = String::from(
        "# Island model vs single swarm at equal modeled budget\n\n\
         One global-topology swarm sets the modeled device-second budget\n\
         (V100 profile); every island configuration is priced with its\n\
         migration and elite-select launches and runs for as many\n\
         iterations as fit the same budget. Best values are medians over\n\
         a 5-seed panel.\n\n\
         Regenerate: `cargo run --release -p fastpso-bench --bin\n\
         island_bench` (append `--smoke` for the CI-sized run,\n\
         `--out <path>` to redirect).\n",
    );
    let mut island_wins = 0usize;
    for (name, obj, dim) in [
        ("rastrigin", &Rastrigin as &dyn Objective, dim),
        ("qap", &Qap, qap_dim),
    ] {
        let (budget_s, rows) = compare(obj, particles, dim, iters);
        md.push_str(&format!(
            "\n## {name} — dim {dim}, {particles} particles, budget {budget_s:.6} modeled s\n\n\
             | setup | iterations | modeled s | migrations | median best |\n\
             |---|---:|---:|---:|---:|\n"
        ));
        let single = rows[0].best;
        let mut best_island = f32::INFINITY;
        for r in &rows {
            assert!(r.best.is_finite(), "{name}/{}: non-finite best", r.setup);
            assert!(
                r.modeled_s <= budget_s * 1.0001,
                "{name}/{}: over budget ({} > {budget_s})",
                r.setup,
                r.modeled_s
            );
            if r.setup != SINGLE {
                best_island = best_island.min(r.best);
            }
            md.push_str(&format!(
                "| {} | {} | {:.6} | {} | {:.4} |\n",
                r.setup, r.iters, r.modeled_s, r.migrations, r.best
            ));
            eprintln!(
                "{name:<10} {:<24} iters {:>6} migrations {:>5} best {:>12.4}",
                r.setup, r.iters, r.migrations, r.best
            );
        }
        if best_island <= single {
            island_wins += 1;
        }
    }
    assert!(
        island_wins >= 1,
        "islands must beat the equal-budget single swarm on at least one objective"
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out, md).expect("write table");
    eprintln!("\n(islands won on {island_wins}/2 objectives; table written to {out})");
}
