//! Multi-GPU support (paper §3.5, "Supporting multiple GPUs").
//!
//! The paper sketches two extensions: *particle splitting* (each GPU owns a
//! sub-swarm and exchanges its local-global best asynchronously) and *tile
//! matrix* (the element-wise update is sharded across devices). A
//! [`DeviceGroup`] provides the device collection, per-device timelines and
//! the modeled peer-exchange cost; `fastpso::GpuBackend` runs on a group,
//! one shard per device, with its `sync_every` choosing the strategy.

use crate::device::Device;
use crate::error::GpuError;
use perf_model::{Counters, GpuProfile, LinkProfile, Phase, Timeline};

/// A collection of simulated GPUs attached to one host. A clone is another
/// view of the same devices, as [`Device`]'s own clone is.
#[derive(Clone)]
pub struct DeviceGroup {
    devices: Vec<Device>,
}

impl DeviceGroup {
    /// Create `n` identical devices.
    pub fn new(n: usize, profile: GpuProfile, link: LinkProfile) -> Self {
        let devices = (0..n)
            .map(|i| Device::with_index(profile.clone(), link.clone(), i))
            .collect();
        DeviceGroup { devices }
    }

    /// `n` V100s behind PCIe 3.0.
    pub fn v100s(n: usize) -> Self {
        Self::new(n, GpuProfile::tesla_v100(), LinkProfile::pcie3_x16())
    }

    /// Wrap existing device handles as a group. [`Device`] is a cheap
    /// shared-state handle ([`Clone`] shares the underlying device), so a
    /// scheduler can lease a subset of a larger group's devices and hand a
    /// sharded job its own `DeviceGroup` view over them — timelines,
    /// profilers and fault state stay shared with the parent group.
    pub fn from_devices(devices: Vec<Device>) -> Self {
        DeviceGroup { devices }
    }

    /// Number of devices in the group.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Handle to device `i`.
    pub fn device(&self, i: usize) -> Result<&Device, GpuError> {
        self.devices.get(i).ok_or(GpuError::NoSuchDevice(i))
    }

    /// Iterate over all devices.
    pub fn iter(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter()
    }

    /// Attach one fault plan per device (`plans[i]` goes to device `i`).
    /// Panics if the lengths disagree.
    pub fn set_fault_plans(&self, plans: Vec<crate::FaultPlan>) {
        assert_eq!(plans.len(), self.devices.len(), "one plan per device");
        for (dev, plan) in self.devices.iter().zip(plans) {
            dev.set_fault_plan(plan);
        }
    }

    /// Indices of devices still alive (not permanently lost).
    pub fn survivors(&self) -> Vec<usize> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_lost())
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of devices a placement layer may use under `health`:
    /// surviving **and** not quarantined by the tracker's circuit breaker.
    /// The health-aware counterpart of [`DeviceGroup::survivors`].
    pub fn eligible_devices(&self, health: &crate::FleetHealth) -> Vec<usize> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(i, d)| !d.is_lost() && health.allows(*i))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of devices that have been permanently lost.
    pub fn lost_devices(&self) -> Vec<usize> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_lost())
            .map(|(i, _)| i)
            .collect()
    }

    /// Model an all-to-one exchange of `bytes` per device (e.g. each
    /// sub-swarm publishing its local best to the coordinator GPU), charged
    /// to every surviving device's timeline. Lost devices no longer
    /// participate in (or pay for) exchanges.
    pub fn exchange(&self, phase: Phase, bytes_per_device: u64) {
        for dev in &self.devices {
            if dev.is_lost() {
                continue;
            }
            // Routed through the device's transfer charge so the exchange
            // shows up in its profiler records as well as its timeline
            // (every device carries a clone of the group link).
            dev.charge_transfer(phase, perf_model::TransferDirection::D2H, bytes_per_device);
        }
    }

    /// Wall-clock of the group: devices run concurrently, so the group's
    /// modeled elapsed time is the *maximum* over per-device timelines.
    pub fn elapsed_seconds(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.timeline().total_seconds())
            .fold(0.0, f64::max)
    }

    /// Sum of counters over all devices.
    pub fn merged_counters(&self) -> Counters {
        self.devices
            .iter()
            .fold(Counters::new(), |acc, d| acc + d.counters())
    }

    /// Merged timeline (per-phase sums — useful for breakdowns, not for
    /// wall-clock, which is [`Self::elapsed_seconds`]).
    pub fn merged_timeline(&self) -> Timeline {
        let mut tl = Timeline::new();
        for d in &self.devices {
            tl.merge(&d.timeline());
        }
        tl
    }

    /// Profiler records of every device concatenated into one log; each
    /// record keeps its originating device index (the chrome-trace exporter
    /// maps it to `pid`).
    pub fn merged_profiler(&self) -> perf_model::ProfilerLog {
        let mut log = perf_model::ProfilerLog::new();
        for d in &self.devices {
            log.merge(&d.profiler());
        }
        log
    }

    /// Reset every device's timeline.
    pub fn reset_timelines(&self) {
        for d in &self.devices {
            d.reset_timeline();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::KernelDesc;

    #[test]
    fn group_creates_indexed_devices() {
        let g = DeviceGroup::v100s(3);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.device(2).unwrap().index(), 2);
        assert!(g.device(3).is_err());
    }

    #[test]
    fn elapsed_is_max_not_sum() {
        let g = DeviceGroup::v100s(2);
        let d0 = g.device(0).unwrap();
        let d1 = g.device(1).unwrap();
        d0.charge_kernel(&KernelDesc::simple("a", Phase::Eval, 1, 4, 4, 1 << 20));
        d1.charge_kernel(&KernelDesc::simple("b", Phase::Eval, 1, 4, 4, 1 << 10));
        let t0 = d0.timeline().total_seconds();
        let t1 = d1.timeline().total_seconds();
        assert!((g.elapsed_seconds() - t0.max(t1)).abs() < 1e-15);
        assert!(g.merged_timeline().total_seconds() > g.elapsed_seconds());
    }

    #[test]
    fn exchange_charges_every_device() {
        let g = DeviceGroup::v100s(2);
        g.exchange(Phase::GBest, 1024);
        for d in g.iter() {
            let c = d.counters();
            assert_eq!(c.transfers, 1);
            assert_eq!(c.d2h_bytes, 1024);
        }
    }

    #[test]
    fn merged_profiler_keeps_per_device_indices() {
        let g = DeviceGroup::v100s(2);
        g.device(0)
            .unwrap()
            .charge_kernel(&KernelDesc::simple("a", Phase::Eval, 1, 4, 4, 64));
        g.device(1)
            .unwrap()
            .charge_kernel(&KernelDesc::simple("b", Phase::Eval, 1, 4, 4, 64));
        g.exchange(Phase::GBest, 128);
        let log = g.merged_profiler();
        assert_eq!(log.kernels.len(), 2);
        assert_eq!(log.transfers.len(), 2);
        let devices: Vec<usize> = log.kernels.iter().map(|k| k.device).collect();
        assert_eq!(devices, vec![0, 1]);
        assert!(log.is_complete());
    }

    #[test]
    fn reset_clears_all_timelines() {
        let g = DeviceGroup::v100s(2);
        g.exchange(Phase::Other, 8);
        g.reset_timelines();
        assert_eq!(g.elapsed_seconds(), 0.0);
        assert_eq!(g.merged_counters().transfers, 0);
    }
}
