//! Counter-assertion harness over the device profiler.
//!
//! The paper's performance claims are observational — Table 3 reads DRAM
//! throughput off nvprof, Table 4 shows the caching allocator zeroing
//! allocation churn. [`CounterAsserts`] turns those observations into
//! enforced invariants: a test captures a device after a run and asserts on
//! exact, deterministic modeled counters (launch counts per kernel, driver
//! allocations, global-memory traffic, profiler/timeline agreement and
//! bit-identical trajectories). All quantities are modeled, so every
//! assertion is exact — no tolerance windows, no flakiness.
//!
//! # Example
//!
//! ```
//! use fastpso::{CounterAsserts, GpuBackend, PsoBackend, PsoConfig};
//! use fastpso_functions::builtins::Sphere;
//!
//! let cfg = PsoConfig::builder(32, 4).max_iter(10).seed(3).build().unwrap();
//! let backend = GpuBackend::new();
//! backend.run(&cfg, &Sphere).unwrap(); // warm the allocator pool
//! backend.run(&cfg, &Sphere).unwrap(); // measured run (run() resets the profiler)
//!
//! let caps = CounterAsserts::capture(backend.device());
//! assert_eq!(caps.launches_of("evaluate_swarm"), 10); // one per iteration
//! caps.assert_profiler_matches_timeline();
//! caps.assert_no_steady_state_allocs();
//! ```

use crate::result::RunResult;
use gpu_sim::{Counters, Device, Phase, ProfilerLog, Timeline};

/// A paired snapshot of a device's [`Timeline`] and [`ProfilerLog`], with
/// assertion helpers for perf-invariant tests.
#[derive(Debug, Clone)]
pub struct CounterAsserts {
    timeline: Timeline,
    log: ProfilerLog,
}

impl CounterAsserts {
    /// Snapshot `dev`'s timeline and profiler (both cover the same span:
    /// they are reset together).
    pub fn capture(dev: &Device) -> Self {
        CounterAsserts {
            timeline: dev.timeline(),
            log: dev.profiler(),
        }
    }

    /// The captured timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The captured profiler log.
    pub fn log(&self) -> &ProfilerLog {
        &self.log
    }

    /// Total counters, from the timeline view.
    pub fn counters(&self) -> Counters {
        self.timeline.total_counters()
    }

    /// Total global-memory traffic (reads + writes) over the run, from
    /// profiler records.
    pub fn dram_bytes(&self) -> u64 {
        self.log.total_counters().dram_bytes()
    }

    /// Global-memory traffic of records charged to `phase` only.
    pub fn dram_bytes_in_phase(&self, phase: Phase) -> u64 {
        self.log.phase_counters(phase).dram_bytes()
    }

    /// Number of recorded launches of the kernel named `name`.
    pub fn launches_of(&self, name: &str) -> u64 {
        self.log.launches_of(name)
    }

    /// Total recorded kernel launches.
    pub fn kernel_launches(&self) -> u64 {
        self.log.kernels.len() as u64
    }

    /// Driver allocations (cache hits excluded) over the run.
    pub fn driver_allocs(&self) -> u64 {
        self.log.total_counters().device_allocs
    }

    /// Assert the run performed **zero** driver allocations — every request
    /// was served by the caching pool (the paper's Table 4 steady state).
    /// Capture after a warm-up run so the pool is populated.
    #[track_caller]
    pub fn assert_no_steady_state_allocs(&self) {
        assert!(
            self.log.is_complete(),
            "profiler log truncated ({} records dropped); raise the capacity before asserting",
            self.log.dropped_total()
        );
        let c = self.log.total_counters();
        assert_eq!(
            c.device_allocs, 0,
            "expected zero steady-state driver allocations, found {} (cache hits: {})",
            c.device_allocs, c.device_alloc_cache_hits
        );
        let tc = self.counters();
        assert_eq!(
            tc.device_allocs, 0,
            "timeline disagrees: {} driver allocations",
            tc.device_allocs
        );
    }

    /// Assert total global-memory traffic is at most `budget_bytes`.
    #[track_caller]
    pub fn assert_global_traffic_at_most(&self, budget_bytes: u64) {
        assert!(
            self.log.is_complete(),
            "profiler log truncated ({} records dropped); raise the capacity before asserting",
            self.log.dropped_total()
        );
        let actual = self.dram_bytes();
        assert!(
            actual <= budget_bytes,
            "global-memory traffic {actual} B exceeds budget {budget_bytes} B"
        );
    }

    /// Assert per-kernel launch counts grew by exactly `per_iter` launches
    /// per iteration between two captures of the *same* configuration run
    /// for `k` and `k + extra_iters` iterations.
    ///
    /// Comparing two run lengths pins the steady-state launch rate while
    /// staying insensitive to one-time setup launches (init kernels) and to
    /// conditional kernels outside `expected` (e.g. a multi-shard
    /// `gbest_copy` only fires on improvement).
    #[track_caller]
    pub fn assert_launches_per_iter(
        lo: &CounterAsserts,
        hi: &CounterAsserts,
        extra_iters: u64,
        expected: &[(&str, u64)],
    ) {
        for &(name, per_iter) in expected {
            let a = lo.launches_of(name);
            let b = hi.launches_of(name);
            assert_eq!(
                b.saturating_sub(a),
                per_iter * extra_iters,
                "kernel `{name}`: {a} launches at k iters, {b} at k+{extra_iters}; \
                 expected exactly {per_iter}/iteration"
            );
            assert!(
                a > 0,
                "kernel `{name}` never launched in the shorter run — wrong name?"
            );
        }
    }

    /// Assert the profiler's reconstructed counters equal the timeline's
    /// device-side counters field by field — to the last byte. Holds
    /// whenever every charge went through a recording entry point and the
    /// log is complete.
    #[track_caller]
    pub fn assert_profiler_matches_timeline(&self) {
        assert!(
            self.log.is_complete(),
            "profiler log truncated ({} records dropped): totals cannot match",
            self.log.dropped_total()
        );
        let p = self.log.total_counters();
        let t = self.counters();
        assert_eq!(p.flops, t.flops, "flops");
        assert_eq!(p.tensor_flops, t.tensor_flops, "tensor_flops");
        assert_eq!(p.dram_read_bytes, t.dram_read_bytes, "dram_read_bytes");
        assert_eq!(p.dram_write_bytes, t.dram_write_bytes, "dram_write_bytes");
        assert_eq!(p.shared_bytes, t.shared_bytes, "shared_bytes");
        assert_eq!(p.kernel_launches, t.kernel_launches, "kernel_launches");
        assert_eq!(p.device_allocs, t.device_allocs, "device_allocs");
        assert_eq!(
            p.device_alloc_cache_hits, t.device_alloc_cache_hits,
            "device_alloc_cache_hits"
        );
        assert_eq!(p.transfers, t.transfers, "transfers");
        assert_eq!(p.h2d_bytes, t.h2d_bytes, "h2d_bytes");
        assert_eq!(p.d2h_bytes, t.d2h_bytes, "d2h_bytes");
    }

    /// Assert two runs produced bit-identical results: `best_value` and
    /// every coordinate of `best_position` compared through their raw bit
    /// patterns (distinguishes `-0.0` from `0.0` and never tolerates ULP
    /// drift).
    #[track_caller]
    pub fn assert_bit_identical_gbest(a: &RunResult, b: &RunResult) {
        assert_eq!(
            a.best_value.to_bits(),
            b.best_value.to_bits(),
            "best_value differs: {} vs {}",
            a.best_value,
            b.best_value
        );
        assert_eq!(
            a.best_position.len(),
            b.best_position.len(),
            "best_position dimensionality differs"
        );
        for (i, (x, y)) in a
            .best_position
            .iter()
            .zip(b.best_position.iter())
            .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "best_position[{i}] differs: {x} vs {y}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::KernelDesc;

    fn dev_with_two_launches() -> Device {
        let dev = Device::v100();
        dev.begin_launch().unwrap();
        dev.charge_kernel(&KernelDesc::simple("a", Phase::Eval, 1, 4, 4, 64));
        dev.begin_launch().unwrap();
        dev.charge_kernel(&KernelDesc::simple("a", Phase::Eval, 1, 4, 4, 64));
        dev
    }

    #[test]
    fn capture_pairs_timeline_and_log() {
        let ca = CounterAsserts::capture(&dev_with_two_launches());
        assert_eq!(ca.kernel_launches(), 2);
        assert_eq!(ca.launches_of("a"), 2);
        assert_eq!(ca.launches_of("missing"), 0);
        assert_eq!(ca.dram_bytes(), 2 * 64 * 8);
        assert_eq!(ca.dram_bytes_in_phase(Phase::Eval), 2 * 64 * 8);
        assert_eq!(ca.dram_bytes_in_phase(Phase::Init), 0);
        ca.assert_profiler_matches_timeline();
        ca.assert_global_traffic_at_most(2 * 64 * 8);
        ca.assert_no_steady_state_allocs();
    }

    #[test]
    #[should_panic(expected = "exceeds budget")]
    fn traffic_budget_violation_panics() {
        let ca = CounterAsserts::capture(&dev_with_two_launches());
        ca.assert_global_traffic_at_most(1);
    }

    #[test]
    #[should_panic(expected = "driver allocations")]
    fn steady_state_alloc_violation_panics() {
        let dev = Device::v100();
        let _b = dev.alloc::<f32>(64).unwrap();
        CounterAsserts::capture(&dev).assert_no_steady_state_allocs();
    }

    #[test]
    fn bit_identity_distinguishes_signed_zero() {
        let mk = |v: f64, p: f32| RunResult {
            best_value: v,
            best_position: vec![p],
            iterations: 1,
            evaluations: 1,
            timeline: Timeline::new(),
            history: None,
            migrations: 0,
        };
        CounterAsserts::assert_bit_identical_gbest(&mk(1.0, 2.0), &mk(1.0, 2.0));
        let r = std::panic::catch_unwind(|| {
            CounterAsserts::assert_bit_identical_gbest(&mk(0.0, 2.0), &mk(-0.0, 2.0));
        });
        assert!(r.is_err(), "signed zeros must not compare bit-identical");
    }
}
