//! Island-model vs single-swarm comparison at equal modeled budget.
//!
//! Per multimodal objective, a single global-topology swarm runs for the
//! scale's iteration horizon and sets the modeled device-second budget
//! (V100 cost predictor, global-memory strategy). Each island
//! configuration is then priced with its own extra launches — the
//! per-iteration elite-select gather plus periodic migration kernels —
//! and runs for however many iterations fit the *same* budget, so the
//! comparison charges islands for their coordination overhead. Every
//! setup runs over a fixed seed panel and reports the median best: the
//! claim under test is that restricted information flow (independent
//! islands with periodic elite exchange) out-searches one big
//! fully-connected swarm on multimodal landscapes, and the binary asserts
//! the best island configuration beats the single swarm on at least one
//! objective.
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

use fastpso::{
    CostPredictor, GpuBackend, JobShape, Migration, MigrationKind, PsoBackend, PsoConfig, Topology,
    UpdateStrategy,
};
use fastpso_functions::builtins::{Qap, Rastrigin};
use fastpso_functions::Objective;

/// The seed panel every setup runs over; the reported statistic is the
/// median best across the panel.
const SEEDS: [u64; 5] = [42, 43, 44, 45, 46];

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

/// Modeled cost of `iters` iterations of topology `t` at `n`×`d`.
fn modeled_s(predictor: &CostPredictor, n: usize, d: usize, iters: usize, t: Topology) -> f64 {
    let shape = JobShape::new(n as u64, d as u64, iters as u64, UpdateStrategy::GlobalMem);
    predictor.base_s(&shape.topology(t))
}

/// Largest iteration count whose modeled cost under topology `t` stays
/// within `budget_s` (monotone in iterations, so a binary search).
fn iters_within_budget(
    predictor: &CostPredictor,
    n: usize,
    d: usize,
    budget_s: f64,
    t: Topology,
) -> usize {
    let (mut lo, mut hi) = (1usize, 1usize);
    while modeled_s(predictor, n, d, hi, t) <= budget_s {
        lo = hi;
        hi *= 2;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if modeled_s(predictor, n, d, mid, t) <= budget_s {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

struct Row {
    setup: String,
    iters: usize,
    modeled_s: f64,
    migrations: u64,
    best: f32,
}

/// Median best over the seed panel for one setup, plus the migration
/// rollup (identical across seeds — the schedule, not the trajectory,
/// decides how many rows move; reported for the operator runbook).
fn run_setup(obj: &dyn Objective, n: usize, d: usize, iters: usize, t: Topology) -> (f32, u64) {
    let mut migrations = 0;
    let mut bests: Vec<f32> = SEEDS
        .iter()
        .map(|&seed| {
            let cfg = PsoConfig::builder(n, d)
                .max_iter(iters)
                .seed(seed)
                .topology(t)
                .build()
                .expect("valid config");
            let r = GpuBackend::new().run(&cfg, obj).expect("run");
            migrations = r.migrations;
            r.best_value as f32
        })
        .collect();
    bests.sort_by(f32::total_cmp);
    (bests[bests.len() / 2], migrations)
}

fn compare(obj: &dyn Objective, n: usize, d: usize, budget_iters: usize) -> (f64, Vec<Row>) {
    let predictor = CostPredictor::v100();
    let budget_s = modeled_s(&predictor, n, d, budget_iters, Topology::Global);

    let mut rows = Vec::new();
    let (best, migrations) = run_setup(obj, n, d, budget_iters, Topology::Global);
    rows.push(Row {
        setup: "single swarm (global)".into(),
        iters: budget_iters,
        modeled_s: budget_s,
        migrations,
        best,
    });
    for kind in [
        MigrationKind::Ring,
        MigrationKind::Star,
        MigrationKind::Random,
    ] {
        let t = island_topology(kind);
        let iters = iters_within_budget(&predictor, n, d, budget_s, t);
        let (best, migrations) = run_setup(obj, n, d, iters, t);
        rows.push(Row {
            setup: t.to_string(),
            iters,
            modeled_s: modeled_s(&predictor, n, d, iters, t),
            migrations,
            best,
        });
    }
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
            if r.setup != "single swarm (global)" {
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
