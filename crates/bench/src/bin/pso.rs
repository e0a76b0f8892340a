//! `pso` — command-line front end over every implementation in the
//! workspace: run any built-in objective with any backend and report the
//! result, the modeled time and the per-phase breakdown.
//!
//! ```text
//! cargo run --release -p fastpso-bench --bin pso -- \
//!     --function rastrigin --backend fastpso --particles 2000 --dim 64 \
//!     --iters 500 --seed 7 --history /tmp/history.csv
//! ```
//!
//! `--function list` and `--backend list` enumerate the options.

use fastpso::{GpuBackend, PsoBackend, PsoConfig, ResilienceConfig, Topology};
use fastpso_bench::backend_by_name;
use fastpso_functions::Builtin;
use gpu_sim::{DeviceGroup, FaultPlan};
use perf_model::Phase;

#[derive(Debug)]
struct Args {
    function: String,
    backend: String,
    particles: usize,
    dim: usize,
    iters: usize,
    seed: u64,
    omega: f32,
    omega_end: Option<f32>,
    c1: f32,
    c2: f32,
    topology: Topology,
    target: Option<f64>,
    patience: Option<usize>,
    devices: usize,
    history: Option<String>,
    quiet: bool,
    resilient: bool,
    faults: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            function: "sphere".into(),
            backend: "fastpso".into(),
            particles: 1000,
            dim: 32,
            iters: 500,
            seed: 42,
            omega: 0.9,
            omega_end: None,
            c1: 2.0,
            c2: 2.0,
            topology: Topology::Global,
            target: None,
            patience: None,
            devices: 1,
            history: None,
            quiet: false,
            resilient: false,
            faults: 0,
        }
    }
}

const USAGE: &str = "\
pso — FastPSO reproduction CLI

OPTIONS
    --function <name|list>   objective (default sphere)
    --backend <name|list>    implementation (default fastpso)
    --particles <n>          swarm size (default 1000)
    --dim <d>                dimensionality (default 32)
    --iters <t>              iterations (default 500)
    --seed <s>               RNG seed (default 42)
    --omega <w>              initial inertia (default 0.9)
    --omega-end <w>          final inertia (default 0.4; = omega disables decay)
    --c1 <c> / --c2 <c>      cognitive / social coefficients (default 2.0)
    --ring <k>               ring topology with k neighbours per side
    --target <v>             stop when gbest reaches v
    --patience <t>           stop after t non-improving iterations
    --devices <n>            shard over n simulated GPUs (tile matrix, fastpso only)
    --resilient              enable retry/checkpoint recovery (fastpso only)
    --faults <n>             inject n seeded transient launch faults (fastpso only)
    --history <file>         write per-iteration gbest CSV
    --quiet                  print only the final value
    --help                   this text
";

fn parse_args() -> Result<Args, String> {
    let mut out = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--function" => out.function = value(&mut i)?,
            "--backend" => out.backend = value(&mut i)?,
            "--particles" => out.particles = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--dim" => out.dim = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--iters" => out.iters = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => out.seed = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--omega" => out.omega = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--omega-end" => {
                out.omega_end = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--c1" => out.c1 = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--c2" => out.c2 = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--ring" => {
                out.topology = Topology::Ring {
                    k: value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
                }
            }
            "--target" => out.target = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?),
            "--patience" => {
                out.patience = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--devices" => out.devices = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--resilient" => out.resilient = true,
            "--faults" => out.faults = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--history" => out.history = Some(value(&mut i)?),
            "--quiet" => out.quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other} (try --help)")),
        }
        i += 1;
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if args.function == "list" {
        for b in Builtin::ALL {
            let o = b.objective();
            let (lo, hi) = o.domain();
            println!("{:<16} domain ({lo}, {hi})", o.name());
        }
        return;
    }
    if args.backend == "list" {
        for name in [
            "fastpso",
            "fastpso-smem",
            "fastpso-tensor",
            "fastpso-forloop",
            "fastpso-lowcomp",
            "fastpso-sso",
            "fastpso-gfwa",
            "fastpso-seq",
            "fastpso-omp",
            "gpu-pso",
            "hgpu-pso",
            "pyswarms",
            "scikit-opt",
        ] {
            println!("{name}");
        }
        return;
    }

    let Some(builtin) = Builtin::by_name(&args.function) else {
        eprintln!(
            "error: unknown function {:?} (try --function list)",
            args.function
        );
        std::process::exit(2);
    };
    let obj = builtin.objective();

    let mut builder = PsoConfig::builder(args.particles, args.dim)
        .max_iter(args.iters)
        .seed(args.seed)
        .omega(args.omega)
        .c1(args.c1)
        .c2(args.c2)
        .topology(args.topology)
        .record_history(args.history.is_some());
    if let Some(w) = args.omega_end {
        builder = builder.omega_end(w);
    }
    if let Some(t) = args.target {
        builder = builder.target_value(t);
    }
    if let Some(p) = args.patience {
        builder = builder.patience(p);
    }
    let cfg = match builder.build() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let fastpso = args.backend == "fastpso";
    if !fastpso && (args.devices > 1 || args.resilient || args.faults > 0) {
        eprintln!("error: --devices/--resilient/--faults require --backend fastpso");
        std::process::exit(2);
    }
    if args.devices == 0 {
        eprintln!("error: --devices must be at least 1");
        std::process::exit(2);
    }

    let backend: Box<dyn PsoBackend> = if fastpso {
        let mut b = GpuBackend::with_group(DeviceGroup::v100s(args.devices));
        if args.resilient {
            b = b.resilient(ResilienceConfig::default());
        }
        if args.faults > 0 {
            // Faults land on the first device's launch ordinals, spread
            // over the whole run (~8 launches per iteration).
            let horizon = (args.iters as u64 * 8).max(64);
            b.device()
                .set_fault_plan(FaultPlan::seeded(args.seed, args.faults, horizon));
        }
        Box::new(b)
    } else {
        match backend_by_name(&args.backend) {
            Some(b) => b,
            None => {
                eprintln!(
                    "error: unknown backend {:?} (try --backend list)",
                    args.backend
                );
                std::process::exit(2);
            }
        }
    };

    let result = match backend.run(&cfg, obj) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    if args.quiet {
        println!("{}", result.best_value);
    } else {
        println!("function        : {}", obj.name());
        println!("backend         : {}", backend.name());
        println!("best value      : {:.6e}", result.best_value);
        if let Some(err) = obj.error(result.best_value, args.dim) {
            println!("error to optimum: {err:.6e}");
        }
        println!("iterations      : {}", result.iterations);
        println!("evaluations     : {}", result.evaluations);
        println!("modeled elapsed : {:.6} s", result.elapsed_seconds());
        println!("breakdown       :");
        for p in Phase::ALL {
            let secs = result.phase_seconds(p);
            if secs > 0.0 {
                println!("  {:<6} {:.6} s", p.label(), secs);
            }
        }
    }

    if let (Some(path), Some(history)) = (&args.history, &result.history) {
        let mut csv = String::from("iteration,gbest\n");
        for (t, g) in history.iter().enumerate() {
            csv.push_str(&format!("{t},{g}\n"));
        }
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("warning: could not write {path}: {e}");
        } else if !args.quiet {
            println!("history written : {path}");
        }
    }
}
