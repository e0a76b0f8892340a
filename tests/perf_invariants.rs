//! Counter-assertion regression tests: every FastPSO optimization claim,
//! locked in as an exact invariant over the device profiler.
//!
//! All quantities are *modeled* — launch counts, driver allocations,
//! global-memory traffic — so each assertion is deterministic and exact
//! (no tolerance windows). The suite pins:
//!
//! * the caching allocator's zero steady-state driver allocations
//!   (Table 4) for **all four** swarm-update strategies, and the
//!   `Realloc` contrast paying a driver round-trip per request;
//! * the per-iteration kernel-launch schedule, per strategy, by name;
//! * one launch per best-tracking decision (pbest, gbest) on every engine,
//!   carrying its data-dependent copies;
//! * one `init_swarm` launch per run and one `gfwa_selection` launch per
//!   GFWA iteration, each carrying the work of the kernels it replaced;
//! * the traffic ordering `TensorCore ≤ SharedMemTiled < GlobalMem`
//!   (Figure 6's axes);
//! * profiler totals equal timeline totals to the last byte;
//! * bit-identical `gbest` across the bit-exact strategies;
//! * retried operations after injected faults charging to
//!   [`Phase::Recovery`] — never double-counting into the natural phase.

use fastpso_suite::fastpso::cost::RNG_FLOPS_PER_DRAW;
use fastpso_suite::fastpso::gpu::kernels::GFWA_SPARKS_PER_FIREWORK;
use fastpso_suite::fastpso::resilience::{retry_op, ResilienceConfig, RetryPolicy};
use fastpso_suite::fastpso::{
    Algorithm, CounterAsserts, ExecutionPlan, GpuBackend, Migration, MigrationKind, PsoBackend,
    PsoConfig, TailShape, Topology, UpdateStrategy,
};
use fastpso_suite::functions::builtins::{Rastrigin, Sphere};
use fastpso_suite::functions::Objective;
use fastpso_suite::gpu_sim::{AllocMode, Device, DeviceGroup, FaultPlan, Phase};
use fastpso_suite::perf_model::{gpu_kernel_time, GpuProfile};

const ALL_STRATEGIES: [UpdateStrategy; 4] = [
    UpdateStrategy::GlobalMem,
    UpdateStrategy::SharedMem,
    UpdateStrategy::TensorCore,
    UpdateStrategy::ForLoop,
];

fn cfg(iters: usize) -> PsoConfig {
    PsoConfig::builder(64, 8)
        .max_iter(iters)
        .seed(42)
        .build()
        .unwrap()
}

fn run_and_capture(strategy: UpdateStrategy, iters: usize) -> CounterAsserts {
    let b = GpuBackend::new().strategy(strategy);
    b.run(&cfg(iters), &Sphere).unwrap();
    CounterAsserts::capture(b.device())
}

/// Table 4's steady state: once the pool is warm, a whole run performs
/// **zero** driver allocations — for every swarm-update strategy.
#[test]
fn caching_allocator_reaches_zero_steady_state_allocs() {
    for strategy in ALL_STRATEGIES {
        let b = GpuBackend::new().strategy(strategy);
        b.run(&cfg(5), &Sphere).unwrap(); // warm the pool
        b.run(&cfg(5), &Sphere).unwrap(); // measured run (run() resets the profiler)
        let ca = CounterAsserts::capture(b.device());
        ca.assert_no_steady_state_allocs();
        assert!(
            ca.counters().device_alloc_cache_hits > 0,
            "{strategy:?}: the measured run should be served from the pool"
        );
    }
}

/// The `Realloc` contrast: cudaMalloc/cudaFree per weight matrix, every
/// iteration — the churn the paper's Table 4 eliminates.
#[test]
fn realloc_mode_pays_driver_allocations_every_iteration() {
    let iters = 5;
    let b = GpuBackend::new().alloc_mode(AllocMode::Realloc);
    b.run(&cfg(iters), &Sphere).unwrap();
    b.run(&cfg(iters), &Sphere).unwrap(); // even warm, Realloc never caches
    let ca = CounterAsserts::capture(b.device());
    let allocs = ca.driver_allocs();
    assert!(
        allocs >= 2 * iters as u64,
        "Realloc must pay ≥ 2 driver allocations per iteration \
         (the two weight matrices); saw {allocs} for {iters} iterations"
    );
    assert_eq!(
        ca.counters().device_alloc_cache_hits,
        0,
        "Realloc mode must never hit a cache"
    );
}

/// The steady-state launch schedule, pinned per kernel *name* and per
/// strategy: exactly one launch of each pipeline kernel per iteration.
/// Comparing a 3-iteration against a 6-iteration run isolates the
/// per-iteration rate from one-time init launches.
#[test]
fn launch_schedule_is_pinned_per_strategy() {
    for (strategy, vel, pos) in [
        (
            UpdateStrategy::GlobalMem,
            "velocity_update",
            "position_update",
        ),
        (
            UpdateStrategy::SharedMem,
            "velocity_update_smem",
            "position_update_smem",
        ),
        (
            UpdateStrategy::TensorCore,
            "velocity_update_wmma",
            "position_update_wmma",
        ),
        (
            UpdateStrategy::ForLoop,
            "velocity_update_forloop",
            "position_update_forloop",
        ),
    ] {
        let lo = run_and_capture(strategy, 3);
        let hi = run_and_capture(strategy, 6);
        CounterAsserts::assert_launches_per_iter(
            &lo,
            &hi,
            3,
            &[
                ("evaluate_swarm", 1),
                ("pbest_update", 1),
                ("reduce_pass0", 1),
                ("gen_l_weights", 1),
                ("gen_g_weights", 1),
                (vel, 1),
                (pos, 1),
            ],
        );
    }
}

/// Best tracking takes one launch per decision, on every engine and rung.
/// On a single-shard plan each iteration issues exactly one
/// [`Phase::PBest`] launch — the element-wise `pbest_update`, which also
/// carries the row copies of the particles that improved — and one
/// [`Phase::GBest`] launch — the single-pass argmin, which also carries
/// the `gbest` row copy whenever the swarm best improved. The large size
/// needs a second reduction level (4096 rows → 16 block partials), which
/// the argmin folds in the same launch.
#[test]
fn best_tracking_is_one_launch_per_decision() {
    let mut rungs: Vec<(Algorithm, UpdateStrategy)> = UpdateStrategy::ALL
        .iter()
        .map(|&s| (Algorithm::Pso, s))
        .collect();
    rungs.push((Algorithm::Sso, UpdateStrategy::GlobalMem));
    rungs.push((Algorithm::Gfwa, UpdateStrategy::GlobalMem));
    let iters = 4;
    for (n, d) in [(64usize, 8usize), (4096, 64)] {
        let (rows, d64) = (n as u64, d as u64);
        // Bytes of the argmin's fold: 8 B (value + index) read and written
        // per block partial, per level above the first.
        let mut fold_bytes = 0;
        let mut partials = rows.div_ceil(256);
        while partials > 1 {
            fold_bytes += 16 * partials;
            partials = partials.div_ceil(256);
        }
        for &(algo, strategy) in &rungs {
            let label = format!("{algo}/{strategy} {n}x{d}");
            let b = GpuBackend::new().algorithm(algo).strategy(strategy);
            let c = PsoConfig::builder(n, d)
                .max_iter(iters)
                .seed(42)
                .record_history(true)
                .build()
                .unwrap();
            let history = b.run(&c, &Sphere).unwrap().history.unwrap();
            assert_eq!(history.len(), iters, "{label}: ran every iteration");
            let kernels = b.profile().kernels;
            let in_phase = |p: Phase| kernels.iter().filter(move |k| k.phase == p);
            assert_eq!(in_phase(Phase::PBest).count(), iters, "{label}: PBest");
            assert_eq!(in_phase(Phase::GBest).count(), iters, "{label}: GBest");

            for (t, k) in in_phase(Phase::PBest).enumerate() {
                assert_eq!(k.name, "pbest_update", "{label}");
                assert_eq!(k.threads, rows * d64, "{label}: one thread per element");
                assert_eq!(k.flops, rows, "{label}: one compare per row");
                let bytes = k.dram_read_bytes + k.dram_write_bytes;
                let copied = bytes - 12 * rows;
                assert_eq!(copied % (8 * d64), 0, "{label}: whole rows copied");
                let improved = copied / (8 * d64);
                assert!(improved <= rows, "{label}: {improved} rows improved");
                if t == 0 {
                    assert_eq!(improved, rows, "{label}: every row beats infinity");
                }
            }
            for (t, k) in in_phase(Phase::GBest).enumerate() {
                assert_eq!(k.name, "reduce_pass0", "{label}");
                assert_eq!(k.launches, 1, "{label}");
                let adopted = t == 0 || history[t] < history[t - 1];
                let adoption = if adopted { 8 * d64 } else { 0 };
                assert_eq!(
                    k.dram_read_bytes + k.dram_write_bytes,
                    8 * rows + fold_bytes + adoption,
                    "{label}: iteration {t} (adopted: {adopted})"
                );
            }
        }
    }
}

/// Every engine's swarm init is one element-wise launch per run, and GFWA
/// commits selection and amplitude in one launch per iteration. The
/// `init_swarm` record carries exactly the work of the three kernels it
/// replaced (positions and velocities: one draw and one 4-byte write per
/// element each; best state: one 4-byte write per row), and each
/// `gfwa_selection` record carries the old selection + amplitude pair
/// (amplitude: 2 flops, 8 B read and 4 B written per firework).
#[test]
fn swarm_init_and_gfwa_selection_are_one_launch_each() {
    let mut rungs: Vec<(Algorithm, UpdateStrategy)> = UpdateStrategy::ALL
        .iter()
        .map(|&s| (Algorithm::Pso, s))
        .collect();
    rungs.push((Algorithm::Sso, UpdateStrategy::GlobalMem));
    rungs.push((Algorithm::Gfwa, UpdateStrategy::GlobalMem));
    let iters = 3;
    let per_fw = GFWA_SPARKS_PER_FIREWORK as u64;
    for (n, d) in [(64usize, 8usize), (4096, 64)] {
        let (rows, d64) = (n as u64, d as u64);
        let elems = rows * d64;
        for &(algo, strategy) in &rungs {
            let label = format!("{algo}/{strategy} {n}x{d}");
            let b = GpuBackend::new().algorithm(algo).strategy(strategy);
            let c = PsoConfig::builder(n, d)
                .max_iter(iters)
                .seed(42)
                .build()
                .unwrap();
            b.run(&c, &Sphere).unwrap();
            let kernels = b.profile().kernels;
            let named = |name: &'static str| kernels.iter().filter(move |k| k.name == name);

            let init: Vec<_> = kernels
                .iter()
                .filter(|k| k.name.starts_with("init_"))
                .map(|k| k.name)
                .collect();
            let expected: &[&str] = if algo == Algorithm::Gfwa {
                &["init_swarm", "init_gfwa_amplitudes"]
            } else {
                &["init_swarm"]
            };
            assert_eq!(init, expected, "{label}: init launches");
            let k = named("init_swarm").next().unwrap();
            assert_eq!(k.phase, Phase::Init, "{label}");
            assert_eq!(k.launches, 1, "{label}");
            assert_eq!(k.threads, elems, "{label}: one thread per element");
            assert_eq!(k.flops, 2 * RNG_FLOPS_PER_DRAW * elems, "{label}: flops");
            assert_eq!(k.dram_read_bytes, 0, "{label}: reads");
            assert_eq!(k.dram_write_bytes, 8 * elems + 4 * rows, "{label}: writes");

            assert_eq!(named("gfwa_amplitude").count(), 0, "{label}");
            if algo == Algorithm::Gfwa {
                let sel: Vec<_> = named("gfwa_selection").collect();
                assert_eq!(sel.len(), iters, "{label}: one selection per iteration");
                for k in sel {
                    assert_eq!(k.launches, 1, "{label}");
                    assert_eq!(k.flops, (per_fw + 2 + 2) * rows, "{label}: flops");
                    assert_eq!(
                        k.dram_read_bytes,
                        ((per_fw + 1) * 4 + 8) * rows,
                        "{label}: reads"
                    );
                    assert_eq!(
                        k.dram_write_bytes,
                        ((d64 + 1) * 4 + 4) * rows,
                        "{label}: writes"
                    );
                }
            }
        }
    }
}

/// A transient fault at `init_swarm`'s launch gate fires before anything
/// is written, so the whole-op retry re-runs it from scratch: the result
/// stays bit-identical to the clean run, every natural phase matches it
/// exactly, and the retry adds only backoff to [`Phase::Recovery`] (the
/// failed attempt completed no work to replay).
#[test]
fn retried_init_swarm_charges_recovery_not_natural_phase() {
    let c = PsoConfig::builder(64, 8)
        .max_iter(6)
        .seed(42)
        .record_history(true)
        .build()
        .unwrap();
    let probe = GpuBackend::new().resilient(ResilienceConfig::default());
    let clean_result = probe.run(&c, &Sphere).unwrap();
    let clean = CounterAsserts::capture(probe.device());
    let ordinal = clean
        .log()
        .kernels
        .iter()
        .find(|k| k.name == "init_swarm")
        .expect("init_swarm launches once per run")
        .ordinal;

    let faulted_backend = GpuBackend::new().resilient(ResilienceConfig::default());
    faulted_backend
        .device()
        .set_fault_plan(FaultPlan::new().with_transient_launch(ordinal));
    let faulted_result = faulted_backend.run(&c, &Sphere).unwrap();
    let faulted = CounterAsserts::capture(faulted_backend.device());
    assert_eq!(faulted_backend.device().fault_stats().injected, 1);

    CounterAsserts::assert_bit_identical_gbest(&clean_result, &faulted_result);
    assert_eq!(clean_result.history, faulted_result.history);
    for phase in Phase::ALL {
        if phase == Phase::Recovery {
            continue;
        }
        assert_eq!(
            faulted.timeline().phase_counters(phase),
            clean.timeline().phase_counters(phase),
            "{phase:?} counters must match the fault-free run exactly"
        );
        assert_eq!(
            faulted.timeline().seconds(phase),
            clean.timeline().seconds(phase),
            "{phase:?} modeled seconds must match the fault-free run exactly"
        );
    }
    assert_eq!(
        faulted.timeline().phase_counters(Phase::Recovery),
        clean.timeline().phase_counters(Phase::Recovery),
        "the faulted attempt wrote nothing, so nothing is replayed"
    );
    assert!(
        faulted.timeline().seconds(Phase::Recovery) > clean.timeline().seconds(Phase::Recovery)
    );
}

/// Launches, flops, DRAM bytes and modeled seconds of a set of launches.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Totals {
    launches: u64,
    flops: u64,
    dram_bytes: u64,
    seconds: f64,
}

impl Totals {
    fn add(&mut self, launches: u64, flops: u64, dram_bytes: u64, seconds: f64) {
        self.launches += launches;
        self.flops += flops;
        self.dram_bytes += dram_bytes;
        self.seconds += seconds;
    }

    /// The difference of two runs' totals.
    fn minus(self, base: Totals) -> Totals {
        Totals {
            launches: self.launches - base.launches,
            flops: self.flops - base.flops,
            dram_bytes: self.dram_bytes - base.dram_bytes,
            seconds: self.seconds - base.seconds,
        }
    }

    fn assert_matches(self, priced: Totals, label: &str) {
        assert_eq!(self.launches, priced.launches, "{label}: launches");
        assert_eq!(self.flops, priced.flops, "{label}: flops");
        assert_eq!(self.dram_bytes, priced.dram_bytes, "{label}: DRAM bytes");
        assert!(
            (self.seconds - priced.seconds).abs() <= 1e-12 * priced.seconds,
            "{label}: executed {} s vs priced {} s",
            self.seconds,
            priced.seconds
        );
    }
}

/// The executed update tail of one run over `devices`: the records
/// charged to the tail's phases (`Init` holds PSO's weight generations,
/// `SwarmUpdate` the rest of every engine's tail).
fn executed_tail(devices: &[&Device]) -> Totals {
    let mut tail = Totals::default();
    for dev in devices {
        for k in dev.profiler().kernels {
            let bytes = k.dram_read_bytes + k.dram_write_bytes;
            let flops = k.flops + k.tensor_flops;
            if matches!(k.phase, Phase::Init | Phase::SwarmUpdate) {
                tail.add(k.launches, flops, bytes, k.duration_s);
            }
        }
    }
    tail
}

/// The priced update tail of one iteration of `plan`: every shard's
/// [`ExecutionPlan::tail_launches`] (`rows` rows each) — what
/// `CostPredictor::base_s` prices.
fn priced_tail(plan: &ExecutionPlan, shape: TailShape<'_>) -> Totals {
    let mut tail = Totals::default();
    for shard in 0..plan.n_shards {
        for desc in plan.tail_launches(shard, &shape) {
            let w = desc.work();
            let t = gpu_kernel_time(shape.gpu, &w);
            let bytes = w.dram_read_bytes + w.dram_write_bytes;
            tail.add(1, w.flops + w.tensor_flops, bytes, t);
        }
    }
    tail
}

/// One swept case of the update-tail comparison: the executed tail of
/// three iterations and three times the priced tail.
struct TailCase {
    label: String,
    executed: Totals,
    priced: Totals,
}

/// Every rung (PSO's five strategies, SSO, GFWA) at 64×8 and 2500×77 (not
/// a multiple of a warp or a block, and past the V100's resident-thread
/// capacity), over Sphere and Rastrigin (2 and 10 flops per dimension,
/// which GFWA's spark evaluations are priced from), under the
/// global, ring and island topologies on one device, and PSO on two
/// devices (tile-matrix sharding, global topology only): a 6-iteration
/// run minus a 3-iteration run leaves three iterations of tail, set
/// against three times the priced tail. Island migration fires every other
/// iteration (it is priced in the prefix).
fn tail_cases() -> Vec<TailCase> {
    let islands = Topology::Islands {
        islands: 4,
        migration: Migration {
            kind: MigrationKind::Ring,
            every_k: 2,
            elites: 1,
        },
    };
    let mut rungs: Vec<(Algorithm, UpdateStrategy)> = UpdateStrategy::ALL
        .iter()
        .map(|&s| (Algorithm::Pso, s))
        .collect();
    rungs.push((Algorithm::Sso, UpdateStrategy::GlobalMem));
    rungs.push((Algorithm::Gfwa, UpdateStrategy::GlobalMem));
    let objectives: [&dyn Objective; 2] = [&Sphere, &Rastrigin];
    let gpu = GpuProfile::tesla_v100();
    let mut cases = Vec::new();
    for (n, d) in [(64usize, 8usize), (2500, 77)] {
        let cfg = |iters, topology| {
            PsoConfig::builder(n, d)
                .max_iter(iters)
                .seed(42)
                .topology(topology)
                .build()
                .unwrap()
        };
        for obj in objectives {
            let shape = |rows, strategy| TailShape {
                gpu: &gpu,
                rows,
                d: d as u64,
                flops_per_dim: obj.flops_per_dim(),
                strategy,
            };
            for &(algo, strategy) in &rungs {
                let rung = format!("{algo}/{strategy} {} {n}x{d}", obj.name());
                for topology in [Topology::Global, Topology::Ring { k: 2 }, islands] {
                    let b = GpuBackend::new().algorithm(algo).strategy(strategy);
                    let run = |iters| {
                        b.run(&cfg(iters, topology), obj).unwrap();
                        executed_tail(&[b.device()])
                    };
                    let (lo, hi) = (run(3), run(6));
                    let plan = b.plan(&cfg(6, topology));
                    let tail = priced_tail(&plan, shape(n as u64, strategy));
                    cases.push(TailCase {
                        label: format!("{rung} {topology} 1 shard"),
                        executed: hi.minus(lo),
                        priced: triple(tail),
                    });
                }
                if algo != Algorithm::Pso {
                    continue;
                }
                let b = GpuBackend::with_group(DeviceGroup::v100s(2)).strategy(strategy);
                let run = |iters| {
                    b.run(&cfg(iters, Topology::Global), obj).unwrap();
                    executed_tail(&b.group().iter().collect::<Vec<_>>())
                };
                let (lo, hi) = (run(3), run(6));
                let plan = b.plan(&cfg(6, Topology::Global));
                let tail = priced_tail(&plan, shape(n as u64 / 2, strategy));
                cases.push(TailCase {
                    label: format!("{rung} 2 shards"),
                    executed: hi.minus(lo),
                    priced: triple(tail),
                });
            }
        }
    }
    cases
}

/// The update tail admission prices is the tail the executor runs, launch
/// for launch, on every case of [`tail_cases`]: launches, flops and DRAM
/// bytes exactly, modeled seconds to 1e-12 relative.
#[test]
fn predicted_tail_matches_the_executed_tail() {
    for case in tail_cases() {
        case.executed.assert_matches(case.priced, &case.label);
    }
}

/// Three iterations of a priced per-iteration total.
fn triple(t: Totals) -> Totals {
    Totals {
        launches: 3 * t.launches,
        flops: 3 * t.flops,
        dram_bytes: 3 * t.dram_bytes,
        seconds: 3.0 * t.seconds,
    }
}

/// Figure 6's memory-hierarchy ordering, as exact byte counts: shared-
/// memory tiling moves strictly less global-DRAM traffic than the plain
/// global-memory kernels (same bit-identical trajectory, so totals are
/// directly comparable), and the tensor-core path stages at least as
/// little as the tiled path in the swarm-update phase.
#[test]
fn traffic_ordering_tensor_le_shared_lt_global() {
    let iters = 6;
    let global = run_and_capture(UpdateStrategy::GlobalMem, iters);
    let smem = run_and_capture(UpdateStrategy::SharedMem, iters);
    let tensor = run_and_capture(UpdateStrategy::TensorCore, iters);

    // SharedMem < GlobalMem, strictly, over the whole run.
    smem.assert_global_traffic_at_most(global.dram_bytes() - 1);

    // Tiling only touches the swarm update; everything else is identical.
    let g_swarm = global.dram_bytes_in_phase(Phase::SwarmUpdate);
    let s_swarm = smem.dram_bytes_in_phase(Phase::SwarmUpdate);
    let t_swarm = tensor.dram_bytes_in_phase(Phase::SwarmUpdate);
    assert!(
        s_swarm < g_swarm,
        "tiling must cut swarm-update DRAM traffic: {s_swarm} vs {g_swarm}"
    );
    assert!(
        t_swarm <= s_swarm,
        "tensor-core staging must not exceed the tiled path: {t_swarm} vs {s_swarm}"
    );
    // Tiling pays for the DRAM cut with on-chip traffic.
    assert!(
        smem.log().phase_counters(Phase::SwarmUpdate).shared_bytes
            > global.log().phase_counters(Phase::SwarmUpdate).shared_bytes
    );
}

/// The profiler's per-record totals reconstruct the timeline's aggregate
/// counters to the last byte — for every strategy and for a resilient
/// (checkpointing) run.
#[test]
fn profiler_totals_equal_timeline_totals() {
    for strategy in ALL_STRATEGIES {
        run_and_capture(strategy, 4).assert_profiler_matches_timeline();
    }
    let b = GpuBackend::new().resilient(ResilienceConfig::default());
    b.run(&cfg(10), &Sphere).unwrap();
    CounterAsserts::capture(b.device()).assert_profiler_matches_timeline();
}

/// The bit-exact strategies (everything but the f16-rounding tensor path)
/// agree on `gbest` through raw bit patterns.
#[test]
fn bit_exact_strategies_share_one_gbest() {
    let c = cfg(8);
    let global = GpuBackend::new()
        .strategy(UpdateStrategy::GlobalMem)
        .run(&c, &Sphere)
        .unwrap();
    let smem = GpuBackend::new()
        .strategy(UpdateStrategy::SharedMem)
        .run(&c, &Sphere)
        .unwrap();
    let forloop = GpuBackend::new()
        .strategy(UpdateStrategy::ForLoop)
        .run(&c, &Sphere)
        .unwrap();
    CounterAsserts::assert_bit_identical_gbest(&global, &smem);
    CounterAsserts::assert_bit_identical_gbest(&global, &forloop);
}

/// Regression for the fault-retry accounting bug: a retried launch used to
/// double-count the work its failed attempt had already completed into the
/// natural phase. Now the repeats charge to [`Phase::Recovery`]: every
/// non-recovery phase of a faulted run matches the fault-free run exactly —
/// counters *and* modeled seconds — and the recovery ledger shows precisely
/// the redundant work plus backoff.
#[test]
fn retried_launch_charges_recovery_not_natural_phase() {
    let c = cfg(6);

    // Clean resilient probe run: find the launch ordinal of iteration 1's
    // `gen_l_weights` (the second record of that name). Its retry replays
    // the two weight-matrix allocations the failed attempt completed.
    let probe = GpuBackend::new().resilient(ResilienceConfig::default());
    let clean_result = probe.run(&c, &Sphere).unwrap();
    let clean = CounterAsserts::capture(probe.device());
    let ordinal = clean
        .log()
        .kernels
        .iter()
        .filter(|k| k.name == "gen_l_weights")
        .nth(1)
        .expect("gen_l_weights launches every iteration")
        .ordinal;

    let faulted_backend = GpuBackend::new().resilient(ResilienceConfig::default());
    faulted_backend
        .device()
        .set_fault_plan(FaultPlan::new().with_transient_launch(ordinal));
    let faulted_result = faulted_backend.run(&c, &Sphere).unwrap();
    let faulted = CounterAsserts::capture(faulted_backend.device());
    assert_eq!(faulted_backend.device().fault_stats().injected, 1);

    CounterAsserts::assert_bit_identical_gbest(&clean_result, &faulted_result);
    for phase in Phase::ALL {
        if phase == Phase::Recovery {
            continue;
        }
        assert_eq!(
            faulted.timeline().phase_counters(phase),
            clean.timeline().phase_counters(phase),
            "{phase:?} counters must match the fault-free run exactly"
        );
        assert_eq!(
            faulted.timeline().seconds(phase),
            clean.timeline().seconds(phase),
            "{phase:?} modeled seconds must match the fault-free run exactly"
        );
    }
    // Recovery picked up the backoff plus exactly the replayed work: the
    // two pool-served weight-matrix allocations the failed attempt had
    // already performed.
    let mut expected = clean.timeline().phase_counters(Phase::Recovery);
    expected.device_alloc_cache_hits += 2;
    assert_eq!(
        faulted.timeline().phase_counters(Phase::Recovery),
        expected,
        "recovery must hold exactly the redundant re-executed work"
    );
    assert!(
        faulted.timeline().seconds(Phase::Recovery) > clean.timeline().seconds(Phase::Recovery)
    );
}

/// The allocation-gate variant of the same regression: fault the *last*
/// weight-matrix allocation of the run. The retry's replayed allocation
/// charges to recovery; the natural phases stay untouched.
#[test]
fn retried_alloc_charges_recovery_not_natural_phase() {
    let c = cfg(6);
    let probe = GpuBackend::new().resilient(ResilienceConfig::default());
    let clean_result = probe.run(&c, &Sphere).unwrap();
    let clean = CounterAsserts::capture(probe.device());
    // The final alloc record is the last iteration's `g` matrix; faulting
    // its gate means the attempt completed one allocation (`l`) first.
    let ordinal = clean.log().allocs.last().expect("allocs recorded").ordinal;

    let faulted_backend = GpuBackend::new().resilient(ResilienceConfig::default());
    faulted_backend
        .device()
        .set_fault_plan(FaultPlan::new().with_transient_alloc(ordinal));
    let faulted_result = faulted_backend.run(&c, &Sphere).unwrap();
    let faulted = CounterAsserts::capture(faulted_backend.device());
    assert_eq!(faulted_backend.device().fault_stats().injected, 1);

    CounterAsserts::assert_bit_identical_gbest(&clean_result, &faulted_result);
    for phase in Phase::ALL {
        if phase == Phase::Recovery {
            continue;
        }
        assert_eq!(
            faulted.timeline().phase_counters(phase),
            clean.timeline().phase_counters(phase),
            "{phase:?} counters must match the fault-free run exactly"
        );
    }
    let mut expected = clean.timeline().phase_counters(Phase::Recovery);
    expected.device_alloc_cache_hits += 1;
    assert_eq!(faulted.timeline().phase_counters(Phase::Recovery), expected);
}

/// The transfer-gate variant, at the device level: an op uploading two
/// buffers whose second upload is corrupted re-runs both; the natural
/// phase still sees exactly two uploads, the replayed first upload lands
/// in recovery.
#[test]
fn retried_upload_charges_recovery_not_natural_phase() {
    let dev = Device::v100();
    dev.set_fault_plan(FaultPlan::new().with_corrupted_transfer(2));
    let mut a = dev.alloc::<f32>(256).unwrap();
    let mut b = dev.alloc::<f32>(256).unwrap();
    let host = vec![1.0f32; 256];
    let policy = RetryPolicy::default();
    retry_op(&dev, &policy, || {
        a.upload(&host)?;
        b.upload(&host)?;
        Ok(())
    })
    .unwrap();

    let ca = CounterAsserts::capture(&dev);
    let bytes = (256 * std::mem::size_of::<f32>()) as u64;
    let natural = ca.timeline().phase_counters(Phase::Other);
    let recovery = ca.timeline().phase_counters(Phase::Recovery);
    assert_eq!(natural.transfers, 2, "the op's own uploads");
    assert_eq!(natural.h2d_bytes, 2 * bytes);
    assert_eq!(recovery.transfers, 1, "the replayed first upload");
    assert_eq!(recovery.h2d_bytes, bytes);
    assert!(
        ca.timeline().seconds(Phase::Recovery) > 0.0,
        "backoff charged"
    );
    ca.assert_profiler_matches_timeline();
}
