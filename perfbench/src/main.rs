//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and which clock each one reads.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve-dense|serve-tiny|serve-mixed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! alternates untraced and traced sessions in the window, writes the traced
//! sessions' spans to `perfbench/out/`, runs the layer probes and prints
//! every per-layer metric. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod measure;
mod probes;
mod serve;
mod solve_dense;
mod stats;
mod trace;

use fastpso::GpuBackend;
use measure::{peak_rss_mb, Host, Modeled, SUSTAINED};
use stats::{median, tail};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Fewest set-up samples per run. One sample is taken after every session,
/// so the samples spread over the run. A set-up makes the workload's inputs
/// from the seed.
const SETUPS: usize = 11;
/// Back-to-back batches of set-ups in one sample.
const SETUP_BATCHES: usize = 16;
/// Host seconds of one batch of set-ups.
const SETUP_BATCH_S: f64 = 0.0025;

/// One sample of set-up time: host seconds per set-up in the fastest of
/// [`SETUP_BATCHES`] batches. `setup_s` is the fastest sample of the run.
///
/// The shared host this benchmark runs on switches between a fast and a
/// slow mode, about 1.7x apart, as work on its other hardware thread comes
/// and goes: at times every few milliseconds, at others not for tens of
/// seconds. A median over set-ups lands in whichever mode held for most of
/// the run, and a mean moves with the share of time spent in each. The
/// fastest short batch reads the fast mode whenever the host gives it for
/// 2.5 ms anywhere in the run, and a regression in set-up shows in that
/// mode as in the other.
fn setup_sample(workload: &str, seed: u64) -> f64 {
    (0..SETUP_BATCHES)
        .map(|_| {
            let t = Instant::now();
            let mut n = 0u32;
            while t.elapsed().as_secs_f64() < SETUP_BATCH_S {
                std::hint::black_box(Bench::setup(workload, seed));
                n += 1;
            }
            t.elapsed().as_secs_f64() / f64::from(n)
        })
        .fold(f64::INFINITY, f64::min)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

const WORKLOADS: [&str; 3] = ["solve-dense", "serve-tiny", "serve-mixed"];

enum Bench {
    Dense(Box<solve_dense::SolveDense>),
    Serve(Box<serve::ServeBench>),
}

impl Bench {
    fn setup(workload: &str, seed: u64) -> Bench {
        match workload {
            "solve-dense" => Bench::Dense(Box::new(solve_dense::setup(seed))),
            "serve-tiny" => Bench::Serve(Box::new(serve::setup_tiny(seed))),
            _ => Bench::Serve(Box::new(serve::setup_mixed(seed))),
        }
    }

    /// Run the timed path once, so the window starts from a warm process.
    fn warm_up(&self) {
        match self {
            Bench::Dense(b) => b.warm_up(),
            Bench::Serve(b) => b.warm_up(),
        }
    }

    /// Sessions until every input has run once and the modeled results are
    /// complete.
    fn cycle(&self) -> usize {
        match self {
            Bench::Dense(_) => solve_dense::CYCLE,
            Bench::Serve(_) => 1,
        }
    }

    fn session(&mut self, index: usize, tracer: &mut Tracer, host: &mut Host) {
        match self {
            Bench::Dense(b) => b.session(index, tracer, host),
            Bench::Serve(b) => b.session(tracer, host),
        }
    }

    fn modeled(&self) -> Modeled {
        match self {
            Bench::Dense(b) => b.modeled(),
            Bench::Serve(b) => b.modeled(),
        }
    }

    /// The workload's representative (particles, dims) — its largest job —
    /// and every job's plan inputs, for the layer probes.
    fn probe_inputs(&self) -> ((usize, usize), Vec<probes::PlanInput>) {
        let plans = match self {
            Bench::Dense(b) => b.plans(),
            Bench::Serve(b) => b.plans(),
        };
        let shape = plans
            .iter()
            .map(|(cfg, _, _)| (cfg.n_particles, cfg.dim))
            .max_by_key(|&(n, d)| n * d)
            .expect("every workload has jobs");
        (shape, plans)
    }

    /// (checked, wrong) outputs, plus mid-run restores that failed to
    /// re-serialize byte-equal.
    fn check(&self) -> (u64, u64, u64) {
        match self {
            Bench::Dense(b) => {
                let (c, w) = b.check();
                (c, w, 0)
            }
            Bench::Serve(b) => {
                let (c, w) = b.check();
                (c, w, b.restore_mismatches)
            }
        }
    }
}

/// Run sessions until `seconds` of session time have passed and the first
/// cycle is complete, calling `between` after every session; returns the
/// (untraced, traced) host samples. When `tracer` is on, sessions alternate
/// between untraced and traced, so a slow change in host speed falls on
/// both sides alike and their difference is the cost of tracing. Peak memory is read once the first cycle is done:
/// later sessions only add allocator fragmentation, in proportion to how
/// many fit in the window.
fn window(
    bench: &mut Bench,
    seconds: f64,
    tracer: &mut Tracer,
    mut between: impl FnMut(),
) -> (Host, Host) {
    let (mut off, mut on) = (Host::default(), Host::default());
    let mut untraced = Tracer::new(false);
    let min_sessions = bench.cycle().max(if tracer.is_on() { 2 } else { 1 });
    let mut index = 0;
    while off.window_s + on.window_s < seconds || index < min_sessions {
        if tracer.is_on() && index % 2 == 1 {
            bench.session(index, tracer, &mut on);
        } else {
            bench.session(index, &mut untraced, &mut off);
        }
        index += 1;
        if index == bench.cycle() {
            off.peak_rss_mb = peak_rss_mb();
        }
        between();
    }
    (off, on)
}

/// Which clock a metric reads.
#[derive(Clone, Copy)]
enum Clock {
    /// Host wall-clock of this process.
    Host,
    /// Modeled device time from `perf-model`; exact for a seed.
    Modeled,
    /// A count the program or the model makes; exact for a seed.
    Exact,
    /// Bytes computed by the cost model, not measured; exact for a seed.
    Computed,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modeled => "modeled, exact",
            Clock::Exact => "count, exact",
            Clock::Computed => "computed, exact",
        }
    }
}

/// Collects metrics in the order they were put.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str, Clock)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) {
        self.0.push((name.into(), value, unit, clock));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit, _)) in self.0.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push('}');
        out
    }
}

/// The gated end-to-end metrics: set-up time, peak memory and the modeled
/// clock. The host clock is reported beside them but not gated (see
/// [`host_figures`]).
fn end_to_end(m: &mut Metrics, setup: &[f64], modeled: &Modeled, rss_mb: f64) {
    use Clock::{Host as H, Modeled as M};
    let fastest = setup.iter().copied().fold(f64::INFINITY, f64::min);
    m.put("setup_s", fastest, "s", H);
    m.put("host_peak_rss_mb", rss_mb, "MiB", H);
    m.put("modeled_device_s", modeled.device_s, "s", M);
    let jobs_per_s = modeled.completed as f64 / modeled.makespan_s;
    m.put("modeled_jobs_per_s", jobs_per_s, "1/s", M);
    m.put("modeled_latency_p50_s", median(&modeled.latency_s), "s", M);
    let lat = tail(&modeled.latency_s);
    m.put("modeled_latency_tail_s", lat.value, "s", M);
    println!(
        "modeled latency tail: p{:.2} of {} samples",
        lat.percentile, lat.count
    );
}

/// The host-clock figures of an untraced window. The shared host this
/// benchmark runs on changes speed by up to 1.8x for minutes at a time, so
/// no bound of 25% or less holds for them from run to run; they travel with
/// the per-layer metrics, which carry no bound.
fn host_figures(m: &mut Metrics, host: &Host) {
    let h = host.sustained();
    m.put("host_jobs_per_s", h.jobs_per_s, "1/s", Clock::Host);
    m.put(
        "host_elem_iters_per_s",
        h.elem_iters_per_s,
        "1/s",
        Clock::Host,
    );
    m.put("host_job_p50_ms", h.job_p50_ms, "ms", Clock::Host);
    m.put("host_job_tail_ms", h.job_tail_ms, "ms", Clock::Host);
    m.put("host_tick_p50_ms", h.tick_p50_ms, "ms", Clock::Host);
    m.put("host_tick_tail_ms", h.tick_tail_ms, "ms", Clock::Host);
    let (job, tick) = host.tails();
    println!(
        "host figures: the value {:.0}% of {} sessions meet; per session, the job tail is \
         p{:.2} of {} samples and the tick tail p{:.2} of {}",
        SUSTAINED * 100.0,
        host.sessions.len(),
        job.percentile,
        job.count,
        tick.percentile,
        tick.count
    );
}

fn layer_metrics(
    m: &mut Metrics,
    bench: &Bench,
    host: &Host,
    modeled: &Modeled,
    traced: &Host,
    tracer: &Tracer,
) {
    use Clock::{Computed, Exact, Host as H, Modeled as M};
    let c = &modeled.counters;
    m.put(
        "gpu_sim.kernel_launches",
        c.kernel_launches as f64,
        "count",
        Exact,
    );
    m.put(
        "gpu_sim.flops",
        (c.flops + c.tensor_flops) as f64,
        "flop",
        Exact,
    );
    m.put(
        "gpu_sim.dram_bytes_computed",
        c.dram_bytes() as f64,
        "B",
        Computed,
    );
    m.put("gpu_sim.allocs", c.device_allocs as f64, "count", Exact);
    m.put(
        "gpu_sim.peak_device_bytes",
        modeled.peak_device_bytes as f64,
        "B",
        Exact,
    );
    const PHASES: [&str; 7] = [
        "init",
        "eval",
        "pbest",
        "gbest",
        "swarm_update",
        "recovery",
        "other",
    ];
    for (name, s) in PHASES.iter().zip(modeled.phase_s) {
        m.put(format!("perf_model.phase_s.{name}"), s, "s", M);
    }
    m.put("perf_model.overlapped_s", modeled.overlapped_s, "s", M);
    m.put(
        "perf_model.admission_plan_us",
        median(&host.admission_us),
        "us",
        H,
    );
    let err = &modeled.predictor_rel_err;
    m.put("perf_model.predictor_rel_err_p50", median(err), "ratio", M);
    m.put(
        "perf_model.predictor_rel_err_tail",
        tail(err).value,
        "ratio",
        M,
    );
    m.put("serve.submit_us_p50", median(&host.submit_us), "us", H);
    m.put("serve.ticks", modeled.ticks as f64, "count", Exact);
    m.put(
        "serve.occupancy_mean",
        modeled.occupancy_mean,
        "slots",
        Exact,
    );
    m.put(
        "serve.queue_wait_s_p50",
        median(&modeled.queue_wait_s),
        "s",
        M,
    );
    m.put(
        "serve.queue_wait_s_tail",
        tail(&modeled.queue_wait_s).value,
        "s",
        M,
    );
    m.put("serve.run_s_p50", median(&modeled.run_s), "s", M);
    m.put(
        "serve.rejected_infeasible",
        modeled.rejected_infeasible as f64,
        "count",
        Exact,
    );
    m.put(
        "serve.admission_downgrades",
        modeled.admission_downgrades as f64,
        "count",
        Exact,
    );
    m.put("serve.shed", modeled.shed as f64, "count", Exact);
    m.put("serve.rehomes", modeled.rehomes as f64, "count", Exact);
    m.put("serve.recovery_s", modeled.recovery_s, "s", M);
    // serve-mixed snapshots and restores inside its sessions; serve-tiny
    // gets one of each as a probe of its first session's final service.
    let (snap_ms, restore_ms, snap_bytes) = match bench {
        Bench::Serve(b) if host.snapshot_ms.is_empty() => {
            b.snapshot_probe().unwrap_or((0.0, 0.0, 0))
        }
        _ => (
            median(&host.snapshot_ms),
            median(&host.restore_ms),
            modeled.snapshot_bytes,
        ),
    };
    m.put("serve.snapshot_ms", snap_ms, "ms", H);
    m.put("serve.snapshot_bytes", snap_bytes as f64, "B", Exact);
    m.put("serve.restore_ms", restore_ms, "ms", H);
    m.put(
        "serve.journal_bytes",
        modeled.journal_bytes as f64,
        "B",
        Exact,
    );
    for (layer, ms) in tracer.self_ms() {
        m.put(format!("trace.self_ms.{layer}"), ms, "ms", H);
    }
    m.put("trace.spans", tracer.len() as f64, "count", H);
    let (on, off) = (traced.sustained(), host.sustained());
    m.put(
        "trace.overhead.host_jobs_per_s",
        on.jobs_per_s - off.jobs_per_s,
        "1/s",
        H,
    );
    m.put(
        "trace.overhead.host_job_p50_ms",
        on.job_p50_ms - off.job_p50_ms,
        "ms",
        H,
    );
    m.put(
        "trace.overhead.host_tick_p50_ms",
        on.tick_p50_ms - off.tick_p50_ms,
        "ms",
        H,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut bench = Bench::setup(&args.workload, args.seed);
    bench.warm_up();

    let mut tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    let (host, traced) = if args.trace {
        tracer.time("setup", None, || Bench::setup(&args.workload, args.seed));
        window(&mut bench, args.seconds, &mut tracer, || {})
    } else {
        window(&mut bench, args.seconds, &mut tracer, || {
            setup_s.push(setup_sample(&args.workload, args.seed))
        })
    };
    while setup_s.len() < SETUPS && !args.trace {
        setup_s.push(setup_sample(&args.workload, args.seed));
    }
    let Some(rss_mb) = host.peak_rss_mb else {
        eprintln!("perfbench: this platform does not report peak RSS (/proc/self/status)");
        return ExitCode::from(1);
    };
    let modeled = bench.modeled();
    let attempted = host.attempted + traced.attempted;
    let mut failed = host.failed + traced.failed;
    let diverged = host.nondeterministic + traced.nondeterministic;
    let mut metrics = Metrics::default();
    // Printed in the table but not in the result line.
    let mut shown = Metrics::default();

    if args.trace {
        let (shape, plans) = bench.probe_inputs();
        for (cfg, algo, strategy) in &plans {
            let backend = GpuBackend::new().algorithm(*algo).strategy(*strategy);
            tracer.time("plan_build", None, || backend.plan(cfg));
        }
        let out_dir = std::path::Path::new("perfbench/out");
        let path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("chrome trace: {} ({} spans)", path.display(), tracer.len());
        host_figures(&mut metrics, &host);
        for (name, value, unit) in probes::run(shape, &plans) {
            let clock = if unit == "count" {
                Clock::Exact
            } else {
                Clock::Host
            };
            metrics.put(name, value, unit, clock);
        }
        layer_metrics(&mut metrics, &bench, &host, &modeled, &traced, &tracer);
    } else {
        end_to_end(&mut metrics, &setup_s, &modeled, rss_mb);
        host_figures(&mut shown, &host);
    }

    let (checked, wrong, restore_mismatches) = bench.check();
    failed += wrong;
    let correct = wrong == 0 && restore_mismatches == 0 && diverged == 0 && modeled.completed > 0;
    for (name, value, unit, clock) in &metrics.0 {
        println!("{name:<44} {value:>18.6} {unit:<8} {}", clock.label());
    }
    for (name, value, unit, clock) in &shown.0 {
        println!(
            "{name:<44} {value:>18.6} {unit:<8} {}, not gated",
            clock.label()
        );
    }
    println!(
        "checks: {checked} outputs compared, {wrong} wrong; {restore_mismatches} restores \
         not byte-equal; {diverged} sessions diverged from the first"
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    );
    ExitCode::SUCCESS
}
