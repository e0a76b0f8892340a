//! Layer probes: host time of each layer's public entry points, called
//! directly by the benchmark after a warm-up, each reported as the median
//! of several samples.

use crate::stats::median;
use fastpso::{Algorithm, GpuBackend, PsoBackend, PsoConfig, SeqBackend, Topology, UpdateStrategy};
use fastpso_functions::builtins::{Griewank, Qap, Rastrigin, Sphere};
use fastpso_functions::Objective;
use fastpso_prng::Philox;
use gpu_sim::{Device, KernelDesc, Phase};
use std::hint::black_box;
use std::time::Instant;

/// Elements of the gpu-sim per-element probes: solve-dense's n·d.
const DENSE_ELEMS: usize = 4096 * 64;
/// Elements of the fixed-cost launch probe (launch-bound, ≤ 512).
const FIXED_ELEMS: usize = 256;
/// Samples per probe.
const SAMPLES: usize = 7;

/// A probe result: name, value, unit.
pub type Row = (String, f64, &'static str);

/// What the plan probe builds a plan from: a job's configuration,
/// algorithm and update strategy.
pub type PlanInput = (PsoConfig, Algorithm, UpdateStrategy);

/// Median host seconds per call of `f`: `f` runs once to warm up, then
/// enough times per sample that a sample lasts at least a millisecond.
fn per_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut reps = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        if t.elapsed().as_secs_f64() >= 1e-3 || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / f64::from(reps)
        })
        .collect();
    median(&samples)
}

/// Run every probe. `shape` is the workload's representative (particles,
/// dims); `plans` its jobs, for the plan-build probe.
pub fn run(shape: (usize, usize), plans: &[PlanInput]) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    let mut row =
        |name: &str, value: f64, unit: &'static str| rows.push((name.to_string(), value, unit));
    let (n, d) = shape;

    // prng
    let rng = Philox::new(7);
    const DRAWS: u64 = 4096;
    let s = per_call(|| {
        let mut acc = 0.0f32;
        for i in 0..DRAWS {
            acc += rng.uniform_at(black_box(i), 3);
        }
        black_box(acc);
    });
    row("prng.uniform_at_ns", s * 1e9 / DRAWS as f64, "ns");
    let mut buf = vec![0.0f32; n * d];
    let s = per_call(|| {
        rng.fill_uniform(&mut buf, 5, 0, -1.0, 1.0);
        black_box(buf[0]);
    });
    row(
        "prng.fill_uniform_ns_per_elem",
        s * 1e9 / (n * d) as f64,
        "ns/elem",
    );

    // gpu_sim
    let dev = Device::v100();
    let a: Vec<f32> = (0..DENSE_ELEMS).map(|i| (i % 1024) as f32 * 1e-3).collect();
    let mut out = vec![0.0f32; DENSE_ELEMS];
    let per_elem = |s: f64| s * 1e9 / DENSE_ELEMS as f64;
    let desc = KernelDesc::simple("probe_update", Phase::Other, 2, 8, 4, DENSE_ELEMS as u64);
    let s = per_call(|| {
        dev.launch_update(&desc, &mut out, |i, v| v * 0.5 + a[i])
            .expect("probe launch");
    });
    row("gpu_sim.launch_update_ns_per_elem", per_elem(s), "ns/elem");
    let s = per_call(|| {
        dev.launch_tiled(
            "probe_tiled",
            Phase::Other,
            2,
            1024,
            &[&a],
            &mut out,
            |_, l, ctx| ctx.out_old[l] * 0.5 + ctx.inputs[0][l],
        )
        .expect("probe launch");
    });
    row("gpu_sim.launch_tiled_ns_per_elem", per_elem(s), "ns/elem");
    let s = per_call(|| {
        black_box(
            dev.reduce_min_index(Phase::GBest, &a)
                .expect("probe reduce"),
        );
    });
    row(
        "gpu_sim.reduce_min_index_ns_per_elem",
        per_elem(s),
        "ns/elem",
    );
    let s = per_call(|| {
        dev.launch_tensor_elementwise(
            "probe_tensor",
            Phase::Other,
            2,
            &[&a],
            &mut out,
            |_, ins, old| old * 0.5 + ins[0],
        )
        .expect("probe launch");
    });
    row(
        "gpu_sim.tensor_elementwise_ns_per_elem",
        per_elem(s),
        "ns/elem",
    );
    let mut small = vec![0.0f32; FIXED_ELEMS];
    let desc = KernelDesc::simple("probe_fixed", Phase::Other, 2, 8, 4, FIXED_ELEMS as u64);
    let s = per_call(|| {
        dev.launch_update(&desc, &mut small, |i, v| v * 0.5 + a[i])
            .expect("probe launch");
    });
    row("gpu_sim.launch_fixed_ns", s * 1e9, "ns");
    drop(out);

    // functions, at the workload's own shape
    let xs: Vec<f32> = (0..n * d)
        .map(|i| ((i * 7919) % 1000) as f32 * 1e-3 - 0.5)
        .collect();
    let mut errs = vec![0.0f32; n];
    let objectives: [(&str, &dyn Objective); 4] = [
        ("sphere", &Sphere),
        ("rastrigin", &Rastrigin),
        ("griewank", &Griewank),
        ("qap", &Qap),
    ];
    for (key, obj) in objectives {
        let s = per_call(|| {
            obj.eval_batch(&xs, d, &mut errs);
            black_box(errs[0]);
        });
        row(
            &format!("functions.eval_batch_ns_per_elem.{key}"),
            s * 1e9 / (n * d) as f64,
            "ns/elem",
        );
    }

    // plan, at the workload's own jobs
    let backends: Vec<(GpuBackend, &PsoConfig)> = plans
        .iter()
        .map(|(cfg, algo, strategy)| (GpuBackend::new().algorithm(*algo).strategy(*strategy), cfg))
        .collect();
    let s = per_call(|| {
        for (b, cfg) in &backends {
            black_box(b.plan(cfg));
        }
    });
    row("plan.build_us", s * 1e6 / backends.len() as f64, "us");
    let nodes: usize = backends
        .iter()
        .map(|(b, cfg)| b.plan(cfg).iteration_nodes().len())
        .sum();
    row(
        "plan.nodes_per_iter",
        nodes as f64 / backends.len() as f64,
        "count",
    );

    // gpu / algo / topology: host ms per iteration at one fixed mid shape
    const MID_ITERS: usize = 5;
    let mid = |topology: Topology| {
        PsoConfig::builder(1024, 32)
            .max_iter(MID_ITERS)
            .seed(11)
            .topology(topology)
            .build()
            .expect("probe config is valid")
    };
    let global = mid(Topology::Global);
    let islands = mid("islands:4:random:2:2".parse().expect("valid island spec"));
    let engines: [(&str, GpuBackend, &PsoConfig, &dyn Objective); 6] = [
        ("pso_global", GpuBackend::new(), &global, &Sphere),
        (
            "pso_tensor",
            GpuBackend::new().strategy(UpdateStrategy::TensorCore),
            &global,
            &Sphere,
        ),
        (
            "pso_fused_persistent",
            GpuBackend::new().fused(true).persistent(true),
            &global,
            &Sphere,
        ),
        (
            "sso",
            GpuBackend::new().algorithm(Algorithm::Sso),
            &global,
            &Qap,
        ),
        (
            "gfwa",
            GpuBackend::new().algorithm(Algorithm::Gfwa),
            &global,
            &Sphere,
        ),
        ("islands", GpuBackend::new(), &islands, &Sphere),
    ];
    for (key, backend, cfg, obj) in engines {
        let s = per_call(|| {
            black_box(backend.run(cfg, obj).expect("probe run"));
        });
        row(
            &format!("gpu.iter_ms.{key}"),
            s * 1e3 / MID_ITERS as f64,
            "ms",
        );
    }
    const SEQ_ITERS: usize = 2;
    let dense = PsoConfig::builder(4096, 64)
        .max_iter(SEQ_ITERS)
        .seed(11)
        .build()
        .expect("probe config is valid");
    let s = per_call(|| {
        black_box(SeqBackend.run(&dense, &Sphere).expect("probe run"));
    });
    row("seq.iter_ms", s * 1e3 / SEQ_ITERS as f64, "ms");
    rows
}
