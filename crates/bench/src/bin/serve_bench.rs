//! Multi-tenant serving benchmark: many small jobs time-sliced over a
//! shared device group versus the same jobs run back-to-back on one
//! dedicated device.
//!
//! Replays a fixed trace of 32 small optimization jobs from three tenants
//! (mixed priorities, a handful of deadlines) through `fastpso::serve` on
//! a 4-device V100 group, packing several co-resident jobs per device.
//! The baseline runs the identical job list sequentially through the
//! dedicated `GpuBackend`, on the schedule the service runs a solo job
//! with (resident, inside a persistent region). Because the
//! serving layer packs independent jobs onto idle devices, modeled
//! makespan drops roughly in proportion to the group size; the binary
//! asserts at least a 2x throughput gain and prints per-tenant p50/p95
//! latency and shed counts from the service's own accounting.
//!
//! With `--overload`, runs the predictive-admission comparison instead: an
//! overload trace (a burst of deadline jobs worth several times the
//! device-seconds available before the deadline) is replayed twice on the
//! same seed — once through the blind scheduler, which admits everything
//! and sheds at the deadline, and once with
//! `ServeConfig::predictive_admission` on, where the calibrated cost
//! predictor converts those mid-flight sheds into up-front
//! `ServeError::Infeasible` rejections and reserves capacity so every
//! accepted deadline is met. The binary asserts the predictive run sheds
//! nothing, rejects the overflow up front, and at least doubles goodput
//! (deadline-met device-seconds); results land in
//! `results/serve_overload.csv`.
//!
//! With `--small-jobs`, runs the cross-job micro-batching comparison: a
//! trace of 64 tiny jobs (at most 64 particles each) on a 2-device group,
//! replayed once with batching off and once with `ServeConfig::batching`
//! set. Batched or not, every tick opens one region per device and every
//! job leased there steps inside it, with one checkpoint copy per device;
//! batching only gathers small jobs under one lease. The binary
//! asserts at most one region per device per tick in both modes and
//! batched throughput no lower than unbatched, verifies per-job results
//! are bit-identical between the modes, pins them against
//! `results/serve_batch_fingerprints.golden.txt` (regenerate with
//! `UPDATE_GOLDEN=1`), and writes `results/serve_batch.csv`.
//!
//! Usage: `cargo run --release -p fastpso-bench --bin serve_bench
//! [--overload | --small-jobs] [--topology <spec>]`
//!
//! `--topology` applies a swarm topology to every job in the default
//! packing trace (it does not affect the `--overload` / `--small-jobs`
//! scenarios, whose traces are pinned by goldens). The spec uses the
//! library's [`Topology`] `FromStr` grammar: `global` (default),
//! `ring_lbest:<k>`, or `islands:<m>:<ring|star|random>:<every_k>:<elites>`
//! — e.g. `--topology islands:4:ring:5:2` serves a trace of island-model
//! jobs, exercising island-aware admission pricing and batch placement.
//!
//! The default trace writes `results/serve_bench.csv` and
//! `results/serve_bench_tenants.csv`; a non-global `--topology` writes
//! `results/serve_bench_<spec>.csv` and `results/serve_bench_<spec>_tenants.csv`
//! instead, with the spec's `:` as `_` (`serve_bench_islands_4_ring_5_2.csv`).

use fastpso::serve::{
    BatchPolicy, JobStatus, OptimizeRequest, Priority, ServeConfig, ServeError, Service,
};
use fastpso::{GpuBackend, PsoBackend, PsoConfig, Topology};
use fastpso_bench::report::{fmt_secs, fmt_speedup, Table};
use fastpso_functions::builtins::{Griewank, Rastrigin, Sphere};
use fastpso_functions::Objective;
use gpu_sim::DeviceGroup;
use std::sync::Arc;

const N_JOBS: u64 = 32;
const DEVICES: usize = 4;

fn job_cfg(i: u64, topology: Topology) -> PsoConfig {
    // Small, heterogeneous jobs: 32–96 particles, 4–16 dims.
    let n = 32 + 32 * (i as usize % 3);
    let d = 4 * (1 + (i as usize % 4));
    PsoConfig::builder(n, d)
        .max_iter(60 + 10 * (i as usize % 4))
        .seed(1000 + i)
        .topology(topology)
        .build()
        .unwrap()
}

/// The `--topology` flag, parsed through the library grammar (`global`,
/// `ring_lbest:<k>`, `islands:<m>:<kind>:<every_k>:<elites>`).
fn cli_topology() -> Topology {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--topology")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("valid --topology spec"))
        .unwrap_or(Topology::Global)
}

fn job_objective(i: u64) -> Arc<dyn Objective> {
    match i % 3 {
        0 => Arc::new(Sphere),
        1 => Arc::new(Rastrigin),
        _ => Arc::new(Griewank),
    }
}

fn job_tenant(i: u64) -> &'static str {
    ["acme", "globex", "initech"][i as usize % 3]
}

fn job_priority(i: u64) -> Priority {
    match i % 4 {
        0 => Priority::Low,
        3 => Priority::High,
        _ => Priority::Normal,
    }
}

// ---- overload scenario ---------------------------------------------------

/// Devices in the overload group (smaller than the packing demo's so the
/// burst genuinely exceeds capacity).
const OVERLOAD_DEVICES: usize = 2;
/// Deadline-free jobs that calibrate the predictor before the burst.
const WARMUP_JOBS: u64 = 8;
/// Deadline jobs in the overload burst.
const BURST_JOBS: u64 = 24;
/// Slots per device of the overload group.
const OVERLOAD_SLOTS: usize = 4;
/// Completion deadline of every burst job, as a multiple of one served
/// wave of burst jobs (see [`overload_deadline_s`]). The burst is three
/// waves, and a deadline short of one wave lets no full wave finish in
/// time, so most of it cannot. The gates hold from 0.50 to 0.95 of a wave.
const OVERLOAD_DEADLINE_WAVES: f64 = 0.77;

/// A warm-up or burst job: 1024×64, large enough that the lanes of a
/// device's wave serialize under the work-conserving floor, so a lone job
/// takes about half a wave and a deadline short of one wave still fits
/// some.
fn overload_cfg(i: u64) -> PsoConfig {
    PsoConfig::builder(1024, 64)
        .max_iter(80)
        .seed(2000 + i)
        .build()
        .unwrap()
}

/// The overload group's service, blind or with predictive admission.
fn overload_service(predictive: bool) -> Service {
    Service::new(
        DeviceGroup::v100s(OVERLOAD_DEVICES),
        ServeConfig {
            slots_per_device: OVERLOAD_SLOTS,
            slice_iters: 10,
            predictive_admission: predictive,
            admission_headroom: 1.2,
            ..ServeConfig::default()
        },
    )
}

/// The burst's deadline in modeled seconds after submission: a multiple of
/// one full wave of burst jobs (one per slot of the group) as the service
/// serves it. Co-resident jobs step side by side on their devices' stream
/// lanes, and these jobs are large enough that the lanes serialize, so a
/// lone job takes about half a wave; scaling by the served wave keeps the scenario's overload ratio — and so its outcome —
/// independent of how fast the engine models a job and of how much of
/// each job's time its neighbours' lanes hide.
fn overload_deadline_s() -> f64 {
    let mut wave = overload_service(false);
    let first = WARMUP_JOBS;
    for i in first..first + (OVERLOAD_DEVICES * OVERLOAD_SLOTS) as u64 {
        let req = OptimizeRequest::new(job_tenant(i), job_objective(i), overload_cfg(i));
        wave.submit(req).expect("a wave job is admissible");
    }
    wave.run_until_idle();
    OVERLOAD_DEADLINE_WAVES * wave.now()
}

struct OverloadOutcome {
    accepted: u64,
    rejected: u64,
    downgraded: u64,
    shed: u64,
    completed: u64,
    goodput_s: f64,
}

/// Replay the warmup + burst trace through one service. The trace and every
/// scheduler decision are deterministic, so the two calls differ only in
/// the admission policy.
fn run_overload_trace(predictive: bool, deadline_s: f64) -> OverloadOutcome {
    let mut svc = overload_service(predictive);
    // Warmup: deadline-free completions feed the calibration loop (the
    // blind service runs them too, so both traces start identically).
    for i in 0..WARMUP_JOBS {
        svc.submit(OptimizeRequest::new(
            "warmup",
            job_objective(i),
            overload_cfg(i),
        ))
        .expect("warmup jobs are always admissible");
    }
    svc.run_until_idle();
    let warm_goodput = svc.goodput_s();
    // Burst: every job carries the same tight deadline; the group can only
    // finish a fraction of them in time.
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut burst_ids = Vec::new();
    for i in WARMUP_JOBS..WARMUP_JOBS + BURST_JOBS {
        let req = OptimizeRequest::new(job_tenant(i), job_objective(i), overload_cfg(i))
            .deadline_s(deadline_s);
        match svc.submit(req) {
            Ok(id) => {
                accepted += 1;
                burst_ids.push(id);
            }
            Err(ServeError::Infeasible { .. }) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    svc.run_until_idle();
    let mut shed = 0u64;
    let mut completed = 0u64;
    for id in burst_ids {
        match svc.status(id).expect("burst job reached a terminal state") {
            JobStatus::Completed => completed += 1,
            JobStatus::Shed => shed += 1,
            other => panic!("burst {id} ended {other:?}"),
        }
    }
    OverloadOutcome {
        accepted,
        rejected,
        downgraded: svc.admission_downgrades(),
        shed,
        completed,
        goodput_s: svc.goodput_s() - warm_goodput,
    }
}

fn run_overload() {
    let deadline_s = overload_deadline_s();
    let blind = run_overload_trace(false, deadline_s);
    let predictive = run_overload_trace(true, deadline_s);

    let mut t = Table::new(
        format!(
            "Overload burst: {BURST_JOBS} jobs, {deadline_s:.4}s deadline \
             ({OVERLOAD_DEADLINE_WAVES} of a served wave), \
             {OVERLOAD_DEVICES} devices — blind vs predictive admission"
        ),
        &[
            "mode",
            "accepted",
            "rejected",
            "downgraded",
            "shed",
            "completed",
            "goodput (s)",
        ],
    );
    for (name, o) in [("blind", &blind), ("predictive", &predictive)] {
        t.row(vec![
            name.into(),
            o.accepted.to_string(),
            o.rejected.to_string(),
            o.downgraded.to_string(),
            o.shed.to_string(),
            o.completed.to_string(),
            fmt_secs(o.goodput_s),
        ]);
    }
    t.emit("serve_overload");

    assert_eq!(
        blind.accepted, BURST_JOBS,
        "the blind scheduler admits the whole burst"
    );
    assert!(
        blind.shed > 0,
        "the burst must overload the blind scheduler (got {} sheds)",
        blind.shed
    );
    assert_eq!(
        predictive.shed, 0,
        "predictive admission must shed nothing mid-flight"
    );
    assert!(
        predictive.rejected > 0,
        "the overflow must surface as up-front rejections"
    );
    assert_eq!(
        predictive.accepted + predictive.rejected,
        BURST_JOBS,
        "every burst job is either admitted or rejected"
    );
    let ratio = if blind.goodput_s > 0.0 {
        predictive.goodput_s / blind.goodput_s
    } else {
        f64::INFINITY
    };
    assert!(
        predictive.goodput_s > 0.0 && ratio >= 2.0,
        "expected >= 2x goodput from predictive admission, got {:.4}s vs {:.4}s",
        predictive.goodput_s,
        blind.goodput_s
    );
    println!(
        "predictive admission turned {} mid-flight sheds into {} up-front rejections",
        blind.shed, predictive.rejected
    );
    println!(
        "and raised deadline-met goodput {}: every accepted deadline was met.",
        if ratio.is_finite() {
            format!("{ratio:.1}x")
        } else {
            "from zero".into()
        }
    );
}

// ---- small-jobs micro-batching scenario ----------------------------------

/// Jobs in the small-jobs trace.
const SMALL_JOBS: u64 = 64;
/// Devices serving the small-jobs trace.
const SMALL_DEVICES: usize = 2;
/// Fingerprint golden pinning per-job results across both modes.
const BATCH_GOLDEN: &str = "results/serve_batch_fingerprints.golden.txt";

fn small_cfg(i: u64) -> PsoConfig {
    // Tiny launch-bound swarms: 16–64 particles, 5–8 dims, so eight of
    // them stay far inside the default batch's 16 384 elements and
    // batches of eight actually form.
    let n = 16 + 16 * (i as usize % 4);
    let d = 5 + (i as usize % 4);
    PsoConfig::builder(n, d)
        .max_iter(40 + 10 * (i as usize % 3))
        .seed(3000 + i)
        .build()
        .unwrap()
}

struct SmallOutcome {
    fingerprints: Vec<String>,
    makespan_s: f64,
    launches: u64,
    peak_leases: usize,
}

/// FNV-1a over the result's exact bit patterns: any single-bit divergence
/// between the modes changes the fingerprint.
fn fingerprint(job: u64, value: f64, position: &[f32]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(value.to_bits());
    for &p in position {
        eat(u64::from(p.to_bits()));
    }
    format!("job={job},value={:016x},fnv={h:016x}", value.to_bits())
}

/// Replay the small-jobs trace once. Both calls submit the identical
/// trace before the first tick; only the batching policy differs.
fn run_small_trace(batching: Option<BatchPolicy>) -> SmallOutcome {
    let mut svc = Service::new(
        DeviceGroup::v100s(SMALL_DEVICES),
        ServeConfig {
            slots_per_device: 4,
            slice_iters: 10,
            batching,
            ..ServeConfig::default()
        },
    );
    let ids: Vec<_> = (0..SMALL_JOBS)
        .map(|i| {
            svc.submit(OptimizeRequest::new(
                job_tenant(i),
                job_objective(i),
                small_cfg(i),
            ))
            .expect("the small-jobs trace fits the admission queue")
        })
        .collect();
    // Batched or not, every job on a device steps inside that device's one
    // region per tick; batching only decides which jobs share a device.
    let ticks = svc.run_until_idle();
    for log in svc.group().iter().map(|dev| dev.profiler()) {
        assert!(log.is_complete(), "the profiler evicted records");
        let regions = log.kernels.iter().filter(|k| k.name == "batched_slice");
        let regions = regions.count();
        assert!(regions <= ticks, "{regions} regions in {ticks} ticks");
    }
    let fingerprints = ids
        .iter()
        .map(|&id| {
            let r = svc.result(id).expect("every small job completes");
            fingerprint(id.0, r.best_value, &r.best_position)
        })
        .collect();
    SmallOutcome {
        fingerprints,
        makespan_s: svc.now(),
        launches: svc.merged_profiler().total_counters().kernel_launches,
        peak_leases: svc.occupancy().1,
    }
}

fn run_small_jobs() {
    let unbatched = run_small_trace(None);
    let batched = run_small_trace(Some(BatchPolicy::default()));

    assert_eq!(
        unbatched.fingerprints, batched.fingerprints,
        "batching must keep every job's result bit-identical"
    );
    let golden: String = batched
        .fingerprints
        .iter()
        .map(|f| format!("{f}\n"))
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(BATCH_GOLDEN, &golden).expect("write fingerprint golden");
        println!("wrote {} ({} jobs)", BATCH_GOLDEN, SMALL_JOBS);
    } else {
        let pinned = std::fs::read_to_string(BATCH_GOLDEN)
            .expect("fingerprint golden missing — regenerate with UPDATE_GOLDEN=1");
        assert_eq!(
            pinned, golden,
            "per-job results drifted from {BATCH_GOLDEN}; \
             regenerate with UPDATE_GOLDEN=1 if the change is intended"
        );
    }

    let throughput = |o: &SmallOutcome| SMALL_JOBS as f64 / o.makespan_s;
    let gain = throughput(&batched) / throughput(&unbatched);
    let mut t = Table::new(
        format!(
            "Micro-batching {SMALL_JOBS} tiny jobs on a {SMALL_DEVICES}-device group \
             (batch policy: {})",
            BatchPolicy::default()
        ),
        &[
            "mode",
            "makespan (s)",
            "jobs/s",
            "launches",
            "peak leases",
            "speedup",
        ],
    );
    for (name, o) in [("unbatched", &unbatched), ("batched", &batched)] {
        t.row(vec![
            name.into(),
            fmt_secs(o.makespan_s),
            format!("{:.1}", throughput(o)),
            o.launches.to_string(),
            o.peak_leases.to_string(),
            fmt_speedup(unbatched.makespan_s / o.makespan_s),
        ]);
    }
    t.emit("serve_batch");

    assert!(
        gain >= 1.0,
        "micro-batching lowered modeled throughput: {gain:.2}x"
    );
    println!(
        "micro-batching lifted modeled throughput {gain:.1}x \
         ({} launches -> {}) with bit-identical per-job results",
        unbatched.launches, batched.launches
    );
}

fn main() {
    if std::env::args().any(|a| a == "--overload") {
        run_overload();
        return;
    }
    if std::env::args().any(|a| a == "--small-jobs") {
        run_small_jobs();
        return;
    }
    // Baseline: every job back-to-back on one dedicated device, on the
    // resident schedule the service runs each of them with.
    let topology = cli_topology();
    let mut sequential_s = 0.0;
    for i in 0..N_JOBS {
        let res = GpuBackend::new()
            .persistent(true)
            .run(&job_cfg(i, topology), job_objective(i).as_ref())
            .expect("baseline run");
        sequential_s += res.elapsed_seconds();
    }

    // Served: the same trace through the multi-tenant scheduler.
    let mut svc = Service::new(
        DeviceGroup::v100s(DEVICES),
        ServeConfig {
            slots_per_device: 4,
            slice_iters: 10,
            ..ServeConfig::default()
        },
    );
    for i in 0..N_JOBS {
        let mut req = OptimizeRequest::new(job_tenant(i), job_objective(i), job_cfg(i, topology))
            .priority(job_priority(i));
        if i % 8 == 5 {
            // A few generous deadlines; none should trip under packing.
            req = req.deadline_s(10.0);
        }
        svc.submit(req).expect("trace fits the admission queue");
    }
    svc.run_until_idle();
    let served_s = svc.now();
    let speedup = sequential_s / served_s;

    let mut t = Table::new(
        format!(
            "Serving {N_JOBS} small jobs on a {DEVICES}-device group vs sequential dedicated runs"
        ),
        &["mode", "makespan (s)", "jobs/s", "speedup"],
    );
    t.row(vec![
        "sequential (1 device)".into(),
        fmt_secs(sequential_s),
        format!("{:.1}", N_JOBS as f64 / sequential_s),
        "1.00x".into(),
    ]);
    t.row(vec![
        format!("served ({DEVICES} devices, packed)"),
        fmt_secs(served_s),
        format!("{:.1}", N_JOBS as f64 / served_s),
        fmt_speedup(speedup),
    ]);
    // A topology trace writes its own files beside the default trace's.
    let stem = match topology {
        Topology::Global => "serve_bench".to_string(),
        t => format!("serve_bench_{}", t.to_string().replace(':', "_")),
    };
    t.emit(&stem);

    let mut tenants = Table::new(
        "Per-tenant rollup (completed-job latency percentiles, nearest-rank)",
        &[
            "tenant",
            "completed",
            "shed",
            "failed",
            "p50 latency (s)",
            "p95 latency (s)",
            "device-seconds",
        ],
    );
    let mut shed_total = 0;
    for s in svc.tenant_rollups() {
        shed_total += s.shed;
        tenants.row(vec![
            s.tenant.clone(),
            s.completed.to_string(),
            s.shed.to_string(),
            s.failed.to_string(),
            fmt_secs(s.p50_latency_s),
            fmt_secs(s.p95_latency_s),
            fmt_secs(s.device_seconds),
        ]);
    }
    tenants.emit(&format!("{stem}_tenants"));

    let (in_use, peak) = svc.occupancy();
    println!(
        "queue drained, {in_use} leases held (peak {peak}), {shed_total} jobs shed, \
         modeled speedup {}",
        fmt_speedup(speedup)
    );
    assert_eq!(in_use, 0, "all leases returned at idle");
    assert_eq!(shed_total, 0, "no job should miss its (generous) deadline");
    assert!(
        speedup >= 2.0,
        "expected >= 2x modeled throughput from packing {N_JOBS} jobs \
         over {DEVICES} devices, got {speedup:.2}x"
    );
    println!("Packing independent small jobs onto idle devices converts the group's");
    println!("spare capacity into throughput; the gain is bounded by the group size");
    println!("and the per-iteration exchange-free schedule keeps jobs bit-identical");
    println!("to their dedicated runs.");
}
