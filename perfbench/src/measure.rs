//! What one timed window measures, on each clock.

use crate::stats::{median, quantile, tail, Tail};
use fastpso::serve::OptimizeRequest;
use fastpso::{GpuBackend, PsoBackend, RunResult};
use gpu_sim::Phase;
use perf_model::{Counters, Timeline};

/// Host-clock samples of one timed window. Sessions are the unit the window
/// is cut into: it ends at the first session boundary past `--seconds`.
#[derive(Debug, Default)]
pub struct Host {
    /// Sum of session host seconds (checks excluded).
    pub window_s: f64,
    /// One entry per session, in order.
    pub sessions: Vec<Session>,
    /// Peak resident memory in MiB once the first cycle of sessions is
    /// done. Read there, not at the end, because later sessions only add
    /// allocator fragmentation, in proportion to how many fit in the window.
    pub peak_rss_mb: Option<f64>,
    /// Host µs per `Service::submit`.
    pub submit_us: Vec<f64>,
    /// Host µs per `Service::admission_plan`.
    pub admission_us: Vec<f64>,
    /// Host ms per mid-run `Service::snapshot`.
    pub snapshot_ms: Vec<f64>,
    /// Host ms per mid-run `Service::restore` (including its replay).
    pub restore_ms: Vec<f64>,
    /// Jobs the clients tried to run.
    pub attempted: u64,
    /// Jobs rejected, shed or failed by the program.
    pub failed: u64,
    /// Sessions whose modeled fingerprint differed from the first
    /// session's with the same inputs (must be 0: the model is exact).
    pub nondeterministic: u64,
}

/// The share of sessions a host figure holds for. A shared host's speed
/// jumps by a third or more for stretches of seconds to minutes as
/// neighbours come and go, which makes a median over samples flip between
/// two modes. Each host figure is therefore summarised per session first,
/// and the run reports the value that this share of its sessions meets: the
/// 10th percentile of session throughputs and the 90th percentile of
/// session times. That reads the sustained speed, and a regression shows in
/// it as in every other session.
pub const SUSTAINED: f64 = 0.9;

/// A run's sustained host figures (see [`SUSTAINED`]).
#[derive(Debug)]
pub struct Sustained {
    /// Completed jobs per host second.
    pub jobs_per_s: f64,
    /// Σ n·d·iterations of completed jobs per host second.
    pub elem_iters_per_s: f64,
    /// Median host ms per job.
    pub job_p50_ms: f64,
    /// Tail host ms per job.
    pub job_tail_ms: f64,
    /// Median host ms per scheduler step.
    pub tick_p50_ms: f64,
    /// Tail host ms per scheduler step.
    pub tick_tail_ms: f64,
}

impl Host {
    /// The sustained figures over this window's sessions.
    pub fn sustained(&self) -> Sustained {
        let per =
            |f: &dyn Fn(&Session) -> f64| -> Vec<f64> { self.sessions.iter().map(f).collect() };
        let fast = 1.0 - SUSTAINED;
        Sustained {
            jobs_per_s: quantile(&per(&|s| s.completed as f64 / s.secs), fast),
            elem_iters_per_s: quantile(&per(&|s| s.elem_iters / s.secs), fast),
            job_p50_ms: quantile(&per(&|s| median(&s.job_ms)), SUSTAINED),
            job_tail_ms: quantile(&per(&|s| tail(&s.job_ms).value), SUSTAINED),
            tick_p50_ms: quantile(&per(&|s| median(&s.tick_ms)), SUSTAINED),
            tick_tail_ms: quantile(&per(&|s| tail(&s.tick_ms).value), SUSTAINED),
        }
    }

    /// The per-session job and tick tails of the first session: which
    /// percentile they sit at and over how many samples.
    pub fn tails(&self) -> (Tail, Tail) {
        self.sessions.first().map_or((tail(&[]), tail(&[])), |s| {
            (tail(&s.job_ms), tail(&s.tick_ms))
        })
    }
}

/// Host-clock samples of one session.
#[derive(Debug, Default)]
pub struct Session {
    /// Host seconds the session took (checks excluded).
    pub secs: f64,
    /// Jobs that completed.
    pub completed: u64,
    /// Σ n·d·iterations of the completed jobs.
    pub elem_iters: f64,
    /// Host ms per job: `GpuBackend::run` for a solve, submit → terminal
    /// seen by its client for a served job.
    pub job_ms: Vec<f64>,
    /// Host ms per scheduler step: `Service::tick` when serving, one plan
    /// iteration (the run's time over its iterations) for a solve.
    pub tick_ms: Vec<f64>,
}

/// Modeled-clock results and exact counts of the first full cycle of
/// sessions. They repeat bit for bit for a given seed.
#[derive(Debug, Default, Clone)]
pub struct Modeled {
    /// Jobs that completed.
    pub completed: u64,
    /// Σ modeled device-seconds of completed jobs.
    pub device_s: f64,
    /// Modeled makespan of the cycle.
    pub makespan_s: f64,
    /// Per completed job: modeled submission → finish seconds.
    pub latency_s: Vec<f64>,
    /// Per completed job: modeled seconds queued before its first iteration.
    pub queue_wait_s: Vec<f64>,
    /// Per completed job: modeled seconds from first iteration to finish.
    pub run_s: Vec<f64>,
    /// Per completed job with a prediction: |predicted − observed| / observed.
    pub predictor_rel_err: Vec<f64>,
    /// Device counters summed over every device the cycle used.
    pub counters: Counters,
    /// Highest device-memory high-water mark of any device.
    pub peak_device_bytes: u64,
    /// Modeled seconds per phase, in [`Phase::ALL`] order.
    pub phase_s: [f64; 7],
    /// Modeled seconds hidden by stream overlap.
    pub overlapped_s: f64,
    /// Scheduler ticks.
    pub ticks: u64,
    /// Mean leased slots, sampled after every tick.
    pub occupancy_mean: f64,
    /// Submissions rejected as infeasible.
    pub rejected_infeasible: u64,
    /// Admissions downgraded to a cheaper strategy.
    pub admission_downgrades: u64,
    /// Jobs shed.
    pub shed: u64,
    /// Device-loss re-homings.
    pub rehomes: u64,
    /// Σ modeled recovery seconds.
    pub recovery_s: f64,
    /// Size of the mid-run snapshot.
    pub snapshot_bytes: u64,
    /// Size of the journal at the end of the session.
    pub journal_bytes: u64,
}

impl Modeled {
    /// Add a device's (or group's) timeline and counters.
    pub fn add_timeline(&mut self, tl: &Timeline, counters: Counters, peak_bytes: usize) {
        for (slot, phase) in self.phase_s.iter_mut().zip(Phase::ALL) {
            *slot += tl.seconds(phase);
        }
        self.overlapped_s += tl.overlapped_seconds();
        self.counters += counters;
        self.peak_device_bytes = self.peak_device_bytes.max(peak_bytes as u64);
    }
}

/// Run `req` alone on a fresh, fault-free device at `strategy` — the
/// reference a served job must match bit for bit.
pub fn solo(req: &OptimizeRequest, strategy: fastpso::UpdateStrategy) -> Option<RunResult> {
    GpuBackend::new()
        .strategy(strategy)
        .algorithm(req.algorithm)
        .fused(req.fused)
        .run(&req.cfg, req.objective.as_ref())
        .ok()
}

/// Whether two runs produced the same answer, bit for bit.
pub fn same_bits(a: &RunResult, b: &RunResult) -> bool {
    a.best_value.to_bits() == b.best_value.to_bits()
        && a.iterations == b.iterations
        && a.best_position.len() == b.best_position.len()
        && a.best_position
            .iter()
            .zip(&b.best_position)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a, folded over 64-bit words: fingerprints of modeled outcomes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold a run's answer and modeled time in.
    pub fn result(&mut self, r: &RunResult) {
        self.word(r.best_value.to_bits());
        self.word(r.iterations as u64);
        self.word(r.elapsed_seconds().to_bits());
        for x in &r.best_position {
            self.word(u64::from(x.to_bits()));
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
