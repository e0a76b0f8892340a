//! Resilient execution: retry, checkpoint/restore, quarantine, degradation.
//!
//! The simulated GPU can inject deterministic faults (see `gpu_sim::fault`);
//! this module is the engine-side answer. Four mechanisms compose:
//!
//! 1. **Bounded retry** — transient faults ([`gpu_sim::GpuError::is_transient`]) are
//!    retried up to [`RetryPolicy::max_retries`] times with a deterministic
//!    exponential backoff charged to [`Phase::Recovery`] on the device's
//!    modeled timeline. Every injected fault fires *before* the operation
//!    mutates device state, so an in-place retry is always safe.
//! 2. **Checkpoint / restore** — the backend snapshots the full swarm state
//!    at iteration boundaries ([`ShardCheckpoint`]). When retries are
//!    exhausted, it restores the last checkpoint and replays. Because all
//!    randomness is counter-based on `(seed, iteration)`, the replay
//!    recomputes *exactly* the lost iterations, so a faulted run's `gbest`
//!    trajectory is bit-identical to the fault-free run.
//! 3. **NaN/Inf quarantine** — non-finite objective values (user-defined
//!    objectives can misbehave) are re-evaluated once and, if still
//!    non-finite, pinned to `+∞` so they can never poison `pbest`/`gbest`.
//! 4. **Graceful degradation** — a permanent launch failure in the swarm
//!    update walks the algorithm's fault ladder
//!    ([`SwarmAlgorithm::fallback_strategy`]; for PSO `TensorCore →
//!    SharedMem → GlobalMem → ForLoop`). A lost device is re-homed rather
//!    than retried: a run on a device group moves the lost device's shard
//!    onto a survivor (see [`crate::GpuBackend::with_group`]), and the
//!    serve layer resumes the
//!    device's jobs on another lease.
//!
//! All recovery overhead — backoff, checkpoint and restore transfers, the
//! degradation switch penalty — is charged to [`Phase::Recovery`], so it
//! shows up as its own category in the perf-model breakdown.
//!
//! # Example
//!
//! Injected transient faults are absorbed by retry; the result is
//! bit-identical to the fault-free run and the overhead is charged to
//! [`Phase::Recovery`]:
//!
//! ```
//! use fastpso::resilience::ResilienceConfig;
//! use fastpso::{GpuBackend, PsoBackend, PsoConfig};
//! use fastpso_functions::builtins::Sphere;
//! use gpu_sim::{FaultPlan, Phase};
//!
//! let cfg = PsoConfig::builder(32, 4).max_iter(20).seed(9).build().unwrap();
//! let clean = GpuBackend::new().run(&cfg, &Sphere).unwrap();
//!
//! let backend = GpuBackend::new().resilient(ResilienceConfig::default());
//! backend
//!     .device()
//!     .set_fault_plan(FaultPlan::new().with_transient_launches([5, 17]));
//! let faulted = backend.run(&cfg, &Sphere).unwrap();
//!
//! assert_eq!(faulted.best_value, clean.best_value);
//! assert_eq!(faulted.best_position, clean.best_position);
//! assert!(faulted.phase_seconds(Phase::Recovery) > 0.0);
//! ```

use crate::algo::SwarmAlgorithm;
use crate::error::PsoError;
use crate::gpu::kernels::{Shard, UpdateStrategy};
use fastpso_functions::Objective;
use gpu_sim::{CopyTicket, Counters, Device, DeviceBuffer, KernelDesc, Phase};

/// Bounded-retry policy for transient device faults.
///
/// The backoff is *modeled*, not slept: attempt `k` charges
/// `backoff_base_s * backoff_factor^k` seconds to [`Phase::Recovery`] on the
/// device timeline, the way a real driver would stall the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 disables in-place retry).
    pub max_retries: u32,
    /// Backoff charged before the first retry, in modeled seconds.
    pub backoff_base_s: f64,
    /// Multiplicative factor per subsequent retry.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_s: 100e-6, // 100 µs: roughly a driver round-trip
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based), in modeled seconds.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        self.backoff_base_s * self.backoff_factor.powi(attempt as i32)
    }
}

/// Knobs of the resilient execution layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// In-place retry policy for transient faults.
    pub retry: RetryPolicy,
    /// Checkpoint the swarm every this many iterations (≥ 1).
    pub checkpoint_every: usize,
    /// Give up after this many restore-and-replay episodes.
    pub max_restores: u32,
    /// Quarantine non-finite objective values (re-evaluate once, then pin
    /// to `+∞`).
    pub quarantine_nonfinite: bool,
    /// Walk the update-strategy degradation chain on permanent launch
    /// failures instead of aborting.
    pub strategy_fallback: bool,
}

impl ResilienceConfig {
    /// No recovery at all: zero retries, no quarantine, no strategy
    /// fallback. The plan executor guards every op of a run configured
    /// without resilience with this, so each guarded op is its bare call.
    pub(crate) const OFF: ResilienceConfig = ResilienceConfig {
        retry: RetryPolicy {
            max_retries: 0,
            backoff_base_s: 0.0,
            backoff_factor: 1.0,
        },
        checkpoint_every: 0,
        max_restores: 0,
        quarantine_nonfinite: false,
        strategy_fallback: false,
    };
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            checkpoint_every: 8,
            max_restores: 16,
            quarantine_nonfinite: true,
            strategy_fallback: true,
        }
    }
}

/// Run `op`, retrying transient failures under `policy` with deterministic
/// backoff charged to [`Phase::Recovery`] on `dev`'s timeline.
///
/// Work the failed attempt had already completed is re-executed by the
/// retry; those repeats are marked redundant on the device so their charges
/// land in [`Phase::Recovery`] rather than double-counting into the
/// operation's natural phase ([`Device::mark_redundant`]).
pub fn retry_op<T>(
    dev: &Device,
    policy: &RetryPolicy,
    mut op: impl FnMut() -> Result<T, PsoError>,
) -> Result<T, PsoError> {
    let mut attempt = 0u32;
    loop {
        let before = dev.fault_stats();
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < policy.max_retries => {
                mark_completed_work_redundant(dev, &before, &e);
                dev.charge_raw(Phase::Recovery, policy.backoff_s(attempt), Counters::new());
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Mark the operations a failed attempt completed (gate-counter deltas
/// since `before`, minus the one gate that fired the fault without doing
/// work) as redundant, so the retry's repeats charge to recovery.
fn mark_completed_work_redundant(dev: &Device, before: &gpu_sim::FaultStats, err: &PsoError) {
    let after = dev.fault_stats();
    let mut launches = after.launches.saturating_sub(before.launches);
    let mut allocs = after.allocs.saturating_sub(before.allocs);
    let mut transfers = after.transfers.saturating_sub(before.transfers);
    if let PsoError::Gpu(g) = err {
        match g {
            gpu_sim::GpuError::TransientLaunch { .. } => {
                launches = launches.saturating_sub(1);
            }
            gpu_sim::GpuError::TransientAlloc { .. } => allocs = allocs.saturating_sub(1),
            gpu_sim::GpuError::CorruptedTransfer { .. } => {
                transfers = transfers.saturating_sub(1);
            }
            _ => {}
        }
    }
    dev.mark_redundant(launches, allocs, transfers);
}

/// Run one strategy-dependent update step under the combined recovery
/// policy: transient faults retry in place, permanent launch failures walk
/// `algo`'s fault ladder ([`SwarmAlgorithm::fallback_strategy`]) —
/// updating `strategy` for the rest of the run — before giving up.
///
/// `op` must be idempotent per attempt, i.e. a *single* fault-gated launch.
/// That is why the swarm update is driven here as two halves
/// (`velocity_update`, then `position_update`) rather than as a whole:
/// retrying the pair after the position launch faults would re-apply the
/// in-place velocity update and silently corrupt the trajectory.
pub(crate) fn retry_degradable(
    algo: &dyn SwarmAlgorithm,
    dev: &Device,
    res: &ResilienceConfig,
    strategy: &mut UpdateStrategy,
    mut op: impl FnMut(UpdateStrategy) -> Result<(), PsoError>,
) -> Result<(), PsoError> {
    let policy = &res.retry;
    loop {
        let st = *strategy;
        match retry_op(dev, policy, || op(st)) {
            Ok(()) => return Ok(()),
            Err(e) if res.strategy_fallback && !e.is_transient() && e.lost_device().is_none() => {
                match algo.fallback_strategy(st) {
                    Some(lower) => {
                        // Switching rungs costs one backoff unit on the
                        // recovery ledger (pipeline re-setup).
                        dev.charge_raw(Phase::Recovery, policy.backoff_s(0), Counters::new());
                        *strategy = lower;
                    }
                    // The ladder ran out: surface a typed outcome naming the
                    // exhausted rung, rather than the bare device error —
                    // callers (and the serve layer's shed path) can tell
                    // "could not degrade" apart from "device broke".
                    None => {
                        return Err(match e {
                            PsoError::Gpu(cause) => PsoError::NoFallback {
                                strategy: st,
                                cause,
                            },
                            other => other,
                        })
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// A host-side snapshot of one [`Shard`]'s full optimizer state.
///
/// The per-iteration weight matrices `L`/`G` are deliberately *not*
/// captured: they are regenerated from the counter-based RNG at the start
/// of every iteration, so a restore recomputes them bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// First global row of the shard this snapshot came from.
    pub row0: usize,
    /// Row count.
    pub rows: usize,
    /// Dimensionality.
    pub d: usize,
    /// Positions (`rows × d`).
    pub pos: Vec<f32>,
    /// Velocities (`rows × d`).
    pub vel: Vec<f32>,
    /// Current errors (`rows`).
    pub errors: Vec<f32>,
    /// Per-particle best errors (`rows`).
    pub pbest_err: Vec<f32>,
    /// Per-particle best positions (`rows × d`).
    pub pbest_pos: Vec<f32>,
    /// Swarm-best position (`d`).
    pub gbest_pos: Vec<f32>,
    /// Swarm-best error.
    pub gbest_err: f32,
    /// Algorithm-specific per-row state (`rows`), present only when the
    /// shard carries it (GFWA's explosion amplitudes). `None` for PSO and
    /// SSO shards, so their checkpoint transfer counts are unchanged.
    pub extra: Option<Vec<f32>>,
}

impl ShardCheckpoint {
    /// Snapshot `shard` to host memory in one packed device→host copy
    /// ([`Device::download_packed`]), charged to [`Phase::Recovery`]; the
    /// device's timeline waits for the copy.
    pub fn capture(shard: &Shard) -> Self {
        let bufs: Vec<&DeviceBuffer<f32>> = shard.checkpoint_buffers().collect();
        let host = shard.pos.device().download_packed(Phase::Recovery, &bufs);
        Self::unpack(shard, &mut host.into_iter())
    }

    /// Snapshot several shards in one packed device→host copy per device
    /// they live on, each on that device's copy lane
    /// ([`Device::download_packed_async`]): one gather pass and one
    /// transfer for all of a device's shards, charged to
    /// [`Phase::Recovery`] there, while the device's timeline runs on.
    /// Returns one checkpoint per shard, in order, each equal to
    /// [`ShardCheckpoint::capture`] of it, with the ticket of the copy
    /// that carries it: the checkpoint holds the shard's state only once
    /// that copy lands.
    pub fn capture_many(shards: &[&Shard]) -> Vec<(Self, CopyTicket)> {
        let mut out: Vec<Option<(Self, CopyTicket)>> = vec![None; shards.len()];
        for i in 0..shards.len() {
            if out[i].is_some() {
                continue;
            }
            let dev = shards[i].pos.device();
            let here: Vec<usize> = (i..shards.len())
                .filter(|&j| shards[j].pos.is_on(&dev))
                .collect();
            let bufs: Vec<&DeviceBuffer<f32>> = (here.iter())
                .flat_map(|&j| shards[j].checkpoint_buffers())
                .collect();
            let (host, ticket) = dev.download_packed_async(Phase::Recovery, &bufs);
            let mut host = host.into_iter();
            for j in here {
                out[j] = Some((Self::unpack(shards[j], &mut host), ticket.clone()));
            }
        }
        out.into_iter().flatten().collect()
    }

    /// The checkpoint of `s` from the next host vectors of a packed copy
    /// of its [`Shard::checkpoint_buffers`].
    fn unpack(s: &Shard, host: &mut impl Iterator<Item = Vec<f32>>) -> Self {
        let mut next = || host.next().expect("one host vector per packed buffer");
        ShardCheckpoint {
            row0: s.row0,
            rows: s.rows,
            d: s.d,
            pos: next(),
            vel: next(),
            errors: next(),
            pbest_err: next(),
            pbest_pos: next(),
            gbest_pos: next(),
            gbest_err: s.gbest_err,
            extra: s.extra.as_ref().map(|_| next()),
        }
    }

    /// Write the snapshot back into `shard` (host→device transfers charged
    /// to [`Phase::Recovery`]). Each upload is individually retried under
    /// `policy`, since transfer faults can hit the restore path too; that
    /// is why restores stay per-buffer while captures are packed.
    ///
    /// A checkpoint whose `(row0, rows, d)` differs from the shard's is
    /// rejected with [`PsoError::InvalidConfig`] before anything is written.
    pub fn restore_into(
        &self,
        dev: &Device,
        shard: &mut Shard,
        policy: &RetryPolicy,
    ) -> Result<(), PsoError> {
        let (have, want) = (
            (self.row0, self.rows, self.d),
            (shard.row0, shard.rows, shard.d),
        );
        if have != want {
            return Err(PsoError::InvalidConfig(format!(
                "checkpoint geometry (row0, rows, d) = {have:?} does not match \
                 shard geometry {want:?}"
            )));
        }
        // One upload per buffer, in `Shard::checkpoint_buffers` order.
        for (buf, data) in [
            (&mut shard.pos, &self.pos),
            (&mut shard.vel, &self.vel),
            (&mut shard.errors, &self.errors),
            (&mut shard.pbest_err, &self.pbest_err),
            (&mut shard.pbest_pos, &self.pbest_pos),
            (&mut shard.gbest_pos, &self.gbest_pos),
        ] {
            retry_op(dev, policy, || {
                buf.upload_in(Phase::Recovery, data).map_err(PsoError::from)
            })?;
        }
        if let Some(data) = &self.extra {
            // A freshly re-homed shard (Shard::alloc) has no extra buffer
            // yet: allocate it before the upload so restore works on both
            // a live shard and a replacement.
            if shard.extra.is_none() {
                let rows = shard.rows;
                shard.extra = Some(retry_op(dev, policy, || {
                    dev.alloc::<f32>(rows).map_err(PsoError::from)
                })?);
            }
            let buf = shard.extra.as_mut().expect("just ensured");
            retry_op(dev, policy, || {
                buf.upload_in(Phase::Recovery, data).map_err(PsoError::from)
            })?;
        }
        shard.gbest_err = self.gbest_err;
        Ok(())
    }
}

/// Re-evaluate particles whose objective value came back non-finite; pin
/// any that stay non-finite to `+∞`. Returns how many were quarantined.
///
/// The re-evaluation is charged as a sparse kernel over the quarantined
/// rows to [`Phase::Recovery`].
pub fn quarantine_nonfinite(
    dev: &Device,
    shard: &mut Shard,
    obj: &dyn Objective,
) -> Result<u64, PsoError> {
    let bad: Vec<usize> = shard
        .errors
        .as_slice()
        .iter()
        .enumerate()
        .filter(|(_, e)| !e.is_finite())
        .map(|(i, _)| i)
        .collect();
    if bad.is_empty() {
        return Ok(0);
    }
    let d = shard.d;
    let desc = KernelDesc::simple(
        "quarantine_reeval",
        Phase::Recovery,
        d as u64 * obj.flops_per_dim(),
        d as u64 * 4,
        4,
        bad.len() as u64,
    );
    dev.charge_kernel(&desc);
    // Split borrows: read positions, write errors.
    let rows: Vec<(usize, f32)> = {
        let pos = shard.pos.as_slice();
        bad.iter()
            .map(|&i| (i, obj.eval(&pos[i * d..(i + 1) * d])))
            .collect()
    };
    let errors = shard.errors.as_mut_slice();
    for (i, v) in rows {
        errors[i] = if v.is_finite() { v } else { f32::INFINITY };
    }
    Ok(bad.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::Pso;
    use crate::config::PsoConfig;
    use crate::gpu::kernels::init_shard;
    use fastpso_functions::builtins::Sphere;
    use fastpso_functions::schema::CustomObjective;
    use gpu_sim::GpuError;

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_s(0), 100e-6);
        assert_eq!(p.backoff_s(1), 200e-6);
        assert_eq!(p.backoff_s(2), 400e-6);
        assert_eq!(p.backoff_s(1), p.backoff_s(1));
    }

    #[test]
    fn retry_op_charges_recovery_and_succeeds() {
        let dev = Device::v100();
        let policy = RetryPolicy::default();
        let mut failures_left = 2;
        let out = retry_op(&dev, &policy, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(PsoError::Gpu(GpuError::TransientLaunch {
                    device: 0,
                    launch: 1,
                }))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(out, 42);
        let recovery = dev.timeline().seconds(Phase::Recovery);
        assert!(
            (recovery - (100e-6 + 200e-6)).abs() < 1e-12,
            "two backoffs charged, got {recovery}"
        );
    }

    #[test]
    fn retry_op_gives_up_after_max_retries() {
        let dev = Device::v100();
        let policy = RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        };
        let err = retry_op(&dev, &policy, || -> Result<(), PsoError> {
            Err(PsoError::Gpu(GpuError::TransientLaunch {
                device: 0,
                launch: 7,
            }))
        })
        .unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn retry_op_does_not_retry_permanent_errors() {
        let dev = Device::v100();
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let _ = retry_op(&dev, &policy, || -> Result<(), PsoError> {
            calls += 1;
            Err(PsoError::Gpu(GpuError::DeviceLost(0)))
        });
        assert_eq!(calls, 1);
        assert_eq!(dev.timeline().seconds(Phase::Recovery), 0.0);
    }

    #[test]
    fn checkpoint_roundtrips_shard_state() {
        let dev = Device::v100();
        let cfg = PsoConfig::builder(8, 4)
            .max_iter(4)
            .seed(3)
            .build()
            .unwrap();
        let mut shard = Shard::alloc(&dev, 0, 8, 4).unwrap();
        init_shard(&dev, &mut shard, &cfg, Sphere.domain()).unwrap();
        shard.gbest_err = 1.25;
        let cp = ShardCheckpoint::capture(&shard);
        // Trash the live state, then restore.
        shard.pos.as_mut_slice().fill(f32::NAN);
        shard.vel.as_mut_slice().fill(-1.0);
        shard.gbest_err = f32::INFINITY;
        cp.restore_into(&dev, &mut shard, &RetryPolicy::default())
            .unwrap();
        assert_eq!(shard.pos.as_slice(), &cp.pos[..]);
        assert_eq!(shard.vel.as_slice(), &cp.vel[..]);
        assert_eq!(shard.gbest_err, 1.25);
        assert!(
            dev.timeline().seconds(Phase::Recovery) > 0.0,
            "checkpoint traffic must be charged to the recovery phase"
        );
    }

    #[test]
    fn checkpoint_roundtrips_algorithm_extra_state() {
        let dev = Device::v100();
        let cfg = PsoConfig::builder(8, 4)
            .max_iter(4)
            .seed(3)
            .build()
            .unwrap();
        let mut shard = Shard::alloc(&dev, 0, 8, 4).unwrap();
        init_shard(&dev, &mut shard, &cfg, Sphere.domain()).unwrap();
        crate::gpu::kernels::init_gfwa_amplitudes(&dev, &mut shard, Sphere.domain()).unwrap();
        let amps = shard.extra.as_ref().unwrap().as_slice().to_vec();
        let cp = ShardCheckpoint::capture(&shard);
        assert_eq!(cp.extra.as_deref(), Some(&amps[..]));
        // Restore into a fresh replacement shard that has no extra buffer
        // yet — the re-homing path.
        let mut fresh = Shard::alloc(&dev, 0, 8, 4).unwrap();
        assert!(fresh.extra.is_none());
        cp.restore_into(&dev, &mut fresh, &RetryPolicy::default())
            .unwrap();
        assert_eq!(fresh.extra.as_ref().unwrap().as_slice(), &amps[..]);
        // A PSO shard's checkpoint stays extra-free.
        let plain = Shard::alloc(&dev, 0, 8, 4).unwrap();
        assert_eq!(ShardCheckpoint::capture(&plain).extra, None);
    }

    #[test]
    fn mismatched_checkpoint_is_rejected_and_leaves_the_shard_untouched() {
        let dev = Device::v100();
        let cfg = PsoConfig::builder(8, 4)
            .max_iter(4)
            .seed(3)
            .build()
            .unwrap();
        let mut small = Shard::alloc(&dev, 0, 4, 4).unwrap();
        let cp = ShardCheckpoint::capture(&small);
        let mut shard = Shard::alloc(&dev, 0, 8, 4).unwrap();
        init_shard(&dev, &mut shard, &cfg, Sphere.domain()).unwrap();
        shard.gbest_err = 2.5;
        let pos = shard.pos.as_slice().to_vec();
        let uploads = dev.fault_stats().transfers;
        let err = cp
            .restore_into(&dev, &mut shard, &RetryPolicy::default())
            .unwrap_err();
        match &err {
            PsoError::InvalidConfig(msg) => {
                assert!(msg.contains("(0, 4, 4)"), "names the checkpoint: {msg}");
                assert!(msg.contains("(0, 8, 4)"), "names the shard: {msg}");
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
        assert_eq!(shard.pos.as_slice(), &pos[..]);
        assert_eq!(shard.gbest_err, 2.5);
        assert_eq!(dev.fault_stats().transfers, uploads, "nothing uploaded");
        // The matching shard still restores.
        cp.restore_into(&dev, &mut small, &RetryPolicy::default())
            .unwrap();
    }

    #[test]
    fn capture_many_matches_per_shard_capture_in_one_transfer_per_device() {
        let group = gpu_sim::DeviceGroup::v100s(2);
        let (d0, d1) = (group.device(0).unwrap(), group.device(1).unwrap());
        let cfg = PsoConfig::builder(16, 4)
            .max_iter(4)
            .seed(3)
            .build()
            .unwrap();
        // Shards on devices 0, 1, 0, 1, interleaved as a sharded job's are
        // after it resumed round-robin; one carries GFWA's extra state.
        let mut shards = Vec::new();
        for (i, (row0, rows)) in [(0, 4), (4, 4), (8, 5), (13, 3)].into_iter().enumerate() {
            let dev = if i % 2 == 0 { d0 } else { d1 };
            let mut s = Shard::alloc(dev, row0, rows, 4).unwrap();
            init_shard(dev, &mut s, &cfg, Sphere.domain()).unwrap();
            shards.push(s);
        }
        crate::gpu::kernels::init_gfwa_amplitudes(d1, &mut shards[3], Sphere.domain()).unwrap();
        let solo: Vec<ShardCheckpoint> = shards.iter().map(ShardCheckpoint::capture).collect();
        let transfers = || [d0, d1].map(|d| d.counters().transfers);
        let before = transfers();
        let many = ShardCheckpoint::capture_many(&shards.iter().collect::<Vec<_>>());
        let many: Vec<ShardCheckpoint> = many.into_iter().map(|(cp, _)| cp).collect();
        assert_eq!(many, solo);
        let after = transfers();
        assert_eq!(
            [after[0] - before[0], after[1] - before[1]],
            [1, 1],
            "one packed copy per device"
        );
        assert!(ShardCheckpoint::capture_many(&[]).is_empty());
    }

    #[test]
    fn shard_size_functions_match_what_alloc_and_capture_do() {
        let dev = Device::v100();
        let allocs = dev.counters().device_allocs;
        let mut shard = Shard::alloc(&dev, 0, 8, 4).unwrap();
        assert_eq!(dev.counters().device_allocs - allocs, Shard::BUFFERS);
        for extra in [false, true] {
            if extra {
                crate::gpu::kernels::init_gfwa_amplitudes(&dev, &mut shard, Sphere.domain())
                    .unwrap();
            }
            let packed: usize = shard.checkpoint_buffers().map(|b| b.len()).sum();
            assert_eq!(packed as u64, Shard::checkpoint_elems(8, 4, extra));
        }
    }

    #[test]
    fn exhausted_ladder_surfaces_a_typed_no_fallback() {
        let dev = Device::v100();
        let res = ResilienceConfig::default();
        // LowComplexity has no cheaper rung: a permanent launch failure
        // must come back as NoFallback naming the stuck strategy.
        let mut strategy = UpdateStrategy::LowComplexity;
        let err = retry_degradable(&Pso, &dev, &res, &mut strategy, |_| {
            Err(PsoError::Gpu(GpuError::InvalidLaunch("perma".into())))
        })
        .unwrap_err();
        match err {
            PsoError::NoFallback { strategy: st, .. } => {
                assert_eq!(st, UpdateStrategy::LowComplexity)
            }
            other => panic!("expected NoFallback, got {other}"),
        }
        assert_eq!(strategy, UpdateStrategy::LowComplexity, "no rung switch");
        // A ladder that still has rungs walks them and only reports
        // NoFallback from the bottom.
        let mut strategy = UpdateStrategy::GlobalMem;
        let err = retry_degradable(&Pso, &dev, &res, &mut strategy, |_| {
            Err(PsoError::Gpu(GpuError::InvalidLaunch("perma".into())))
        })
        .unwrap_err();
        match err {
            PsoError::NoFallback { strategy: st, .. } => {
                assert_eq!(st, UpdateStrategy::ForLoop, "fails at the bottom rung")
            }
            other => panic!("expected NoFallback, got {other}"),
        }
    }

    #[test]
    fn quarantine_pins_stubborn_nonfinite_to_infinity() {
        let dev = Device::v100();
        let obj = CustomObjective::new("sometimes-nan", (-1.0, 1.0), 2, |x: &[f32]| {
            if x[0] < 0.0 {
                f32::NAN
            } else {
                x.iter().map(|v| v * v).sum()
            }
        });
        let cfg = PsoConfig::builder(16, 2)
            .max_iter(4)
            .seed(9)
            .build()
            .unwrap();
        let mut shard = Shard::alloc(&dev, 0, 16, 2).unwrap();
        init_shard(&dev, &mut shard, &cfg, (-1.0, 1.0)).unwrap();
        crate::gpu::kernels::eval_shard(&dev, &mut shard, &obj).unwrap();
        let had_nan = shard.errors.as_slice().iter().any(|e| e.is_nan());
        let n = quarantine_nonfinite(&dev, &mut shard, &obj).unwrap();
        assert_eq!(had_nan, n > 0);
        assert!(
            shard.errors.as_slice().iter().all(|e| !e.is_nan()),
            "no NaN survives quarantine"
        );
        // A second pass finds nothing new to do beyond the pinned rows.
        let again = quarantine_nonfinite(&dev, &mut shard, &obj).unwrap();
        assert_eq!(again, n, "pinned +inf rows are re-checked, nothing else");
    }
}
