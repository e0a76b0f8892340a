//! Device leasing: a slot-based occupancy view over a [`DeviceGroup`].
//!
//! The serving layer (`fastpso::serve`) packs many concurrent optimization
//! jobs onto a shared group of simulated GPUs. A [`LeasePool`] divides each
//! device into a fixed number of *slots* (co-resident jobs) and hands out
//! [`Lease`] tickets: small jobs take one slot on the least-loaded device,
//! sharded jobs take one slot on *every* device. Placement is deterministic
//! — least-loaded first, ties broken by device index — so a replayed arrival
//! trace schedules identically every time. With a [`FleetHealth`] tracker
//! attached ([`LeasePool::set_health`]), placement additionally skips
//! quarantined devices and prefers healthy ones over degraded ones.
//!
//! The pool tracks occupancy only; it never touches device memory. Callers
//! allocate buffers on the leased device(s) and must release the lease when
//! the job completes, is cancelled, or is preempted.
//!
//! ```
//! use gpu_sim::{DeviceGroup, lease::LeasePool};
//!
//! let group = DeviceGroup::v100s(2);
//! let mut pool = LeasePool::new(&group, 2); // 2 slots per device
//! let a = pool.try_acquire().unwrap();      // device 0 (least loaded)
//! let b = pool.try_acquire().unwrap();      // device 1
//! assert_ne!(a.devices(), b.devices());
//! assert_eq!(pool.in_use(), 2);
//! pool.release(a);
//! assert_eq!(pool.in_use(), 1);
//! assert_eq!(pool.peak_in_use(), 2);
//! ```

use crate::device::Device;
use crate::health::{FleetHealth, HealthState};
use crate::multi::DeviceGroup;
use std::collections::BTreeSet;

/// A ticket for one slot on each of the listed devices. Obtained from
/// [`LeasePool::try_acquire`] (one device) or [`LeasePool::try_acquire_all`]
/// (every device, for sharded jobs); give it back with
/// [`LeasePool::release`].
#[derive(Debug, PartialEq, Eq)]
pub struct Lease {
    devices: Vec<usize>,
    /// Monotone ticket id, for debugging/accounting.
    id: u64,
}

impl Lease {
    /// Indices (within the pool's group) of the devices this lease holds a
    /// slot on.
    pub fn devices(&self) -> &[usize] {
        &self.devices
    }

    /// The pool-unique ticket id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Slot-based occupancy tracker over a [`DeviceGroup`]. See the
/// [module docs](self) for the placement policy.
pub struct LeasePool {
    devices: Vec<Device>,
    slots_per_device: usize,
    used: Vec<usize>,
    next_id: u64,
    peak: usize,
    /// Ticket ids issued but not yet released — [`LeasePool::release`]
    /// asserts membership, so a slot can never be double-released even if a
    /// revocation path and a cancellation path race over the same job.
    outstanding: BTreeSet<u64>,
    /// Optional fleet-health tracker consulted at placement time.
    health: Option<FleetHealth>,
}

impl LeasePool {
    /// A pool over `group`'s devices with `slots_per_device` co-resident
    /// jobs allowed per device. Panics if `slots_per_device` is zero.
    pub fn new(group: &DeviceGroup, slots_per_device: usize) -> Self {
        assert!(slots_per_device > 0, "a device needs at least one slot");
        let devices: Vec<Device> = group.iter().cloned().collect();
        let n = devices.len();
        LeasePool {
            devices,
            slots_per_device,
            used: vec![0; n],
            next_id: 0,
            peak: 0,
            outstanding: BTreeSet::new(),
            health: None,
        }
    }

    /// Attach a [`FleetHealth`] tracker: placement then skips quarantined
    /// devices entirely and prefers healthy devices over degraded ones
    /// (before the least-loaded/lowest-index tiebreak).
    pub fn set_health(&mut self, health: FleetHealth) {
        self.health = Some(health);
    }

    /// The attached fleet-health tracker, if any.
    pub fn health(&self) -> Option<&FleetHealth> {
        self.health.as_ref()
    }

    /// Whether placement may use device `i`: it survives and is not
    /// quarantined by the attached health tracker (if any).
    fn eligible(&self, i: usize) -> bool {
        !self.devices[i].is_lost() && self.health.as_ref().is_none_or(|h| h.allows(i))
    }

    /// Placement preference rank: healthy devices before degraded ones.
    fn rank(&self, i: usize) -> u8 {
        match self.health.as_ref().map(|h| h.state(i)) {
            Some(HealthState::Degraded) => 1,
            _ => 0,
        }
    }

    /// Number of devices in the pool.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Total slots across all devices.
    pub fn capacity(&self) -> usize {
        self.devices.len() * self.slots_per_device
    }

    /// Slots currently held by outstanding leases.
    pub fn in_use(&self) -> usize {
        self.used.iter().sum()
    }

    /// High-water mark of [`LeasePool::in_use`] since construction.
    pub fn peak_in_use(&self) -> usize {
        self.peak
    }

    /// Handle to leased device `i`. Panics if out of range — leases only
    /// carry indices the pool itself issued.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// Lease one slot on the least-loaded eligible device — not lost, not
    /// quarantined, healthy preferred over degraded, ties broken by load
    /// then lowest index. Returns `None` when every eligible device is
    /// full (or none is eligible).
    pub fn try_acquire(&mut self) -> Option<Lease> {
        let best = (0..self.devices.len())
            .filter(|&i| self.eligible(i) && self.used[i] < self.slots_per_device)
            .min_by_key(|&i| (self.rank(i), self.used[i], i))?;
        self.used[best] += 1;
        self.note_peak();
        Some(self.ticket(vec![best]))
    }

    /// Lease one slot on *every* eligible device at once (a sharded job
    /// spans the healthy part of the group). Returns `None` — taking
    /// nothing — unless every eligible device has a free slot.
    pub fn try_acquire_all(&mut self) -> Option<Lease> {
        let alive: Vec<usize> = (0..self.devices.len())
            .filter(|&i| self.eligible(i))
            .collect();
        if alive.is_empty() || alive.iter().any(|&i| self.used[i] >= self.slots_per_device) {
            return None;
        }
        for &i in &alive {
            self.used[i] += 1;
        }
        self.note_peak();
        Some(self.ticket(alive))
    }

    /// Return a lease's slots to the pool.
    ///
    /// Panics if the ticket was not issued by this pool or was already
    /// released — the guard that makes a revocation/cancellation race over
    /// the same job a loud bug instead of silent occupancy corruption.
    pub fn release(&mut self, lease: Lease) {
        assert!(
            self.outstanding.remove(&lease.id),
            "lease #{} released twice or never issued by this pool",
            lease.id
        );
        for i in lease.devices {
            debug_assert!(self.used[i] > 0, "release without matching acquire");
            self.used[i] = self.used[i].saturating_sub(1);
        }
    }

    /// A `DeviceGroup` view over the leased devices, for driving a sharded
    /// plan execution. Shares state (timeline, profiler, faults) with the
    /// parent group.
    pub fn group_view(&self, lease: &Lease) -> DeviceGroup {
        DeviceGroup::from_devices(
            lease
                .devices
                .iter()
                .map(|&i| self.devices[i].clone())
                .collect(),
        )
    }

    fn ticket(&mut self, devices: Vec<usize>) -> Lease {
        let id = self.next_id;
        self.next_id += 1;
        self.outstanding.insert(id);
        Lease { devices, id }
    }

    fn note_peak(&mut self) {
        let now = self.in_use();
        if now > self.peak {
            self.peak = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_least_loaded_deterministic() {
        let g = DeviceGroup::v100s(3);
        let mut pool = LeasePool::new(&g, 2);
        let picks: Vec<usize> = (0..6)
            .map(|_| pool.try_acquire().unwrap().devices()[0])
            .collect();
        // Round-robin by load, ties by index.
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        assert!(pool.try_acquire().is_none(), "pool is full");
        assert_eq!(pool.peak_in_use(), 6);
    }

    #[test]
    fn release_frees_the_slot() {
        let g = DeviceGroup::v100s(1);
        let mut pool = LeasePool::new(&g, 1);
        let l = pool.try_acquire().unwrap();
        assert!(pool.try_acquire().is_none());
        pool.release(l);
        assert_eq!(pool.in_use(), 0);
        assert!(pool.try_acquire().is_some());
    }

    #[test]
    fn acquire_all_is_all_or_nothing() {
        let g = DeviceGroup::v100s(2);
        let mut pool = LeasePool::new(&g, 1);
        let single = pool.try_acquire().unwrap(); // device 0 occupied
        assert!(pool.try_acquire_all().is_none());
        assert_eq!(pool.in_use(), 1, "failed acquire_all must take nothing");
        pool.release(single);
        let all = pool.try_acquire_all().unwrap();
        assert_eq!(all.devices(), &[0, 1]);
        assert_eq!(pool.in_use(), 2);
    }

    #[test]
    fn lost_devices_are_skipped() {
        let g = DeviceGroup::v100s(2);
        let d0 = g.device(0).unwrap();
        d0.set_fault_plan(crate::FaultPlan::new().with_device_loss_at_launch(1));
        let _ = d0.begin_launch(); // trips the injected permanent loss
        assert!(d0.is_lost());
        let mut pool = LeasePool::new(&g, 1);
        let l = pool.try_acquire().unwrap();
        assert_eq!(l.devices(), &[1]);
        let all_pool_view = pool.try_acquire_all();
        assert!(all_pool_view.is_none(), "device 1 is already full");
    }

    #[test]
    #[should_panic(expected = "never issued")]
    fn foreign_tickets_are_rejected() {
        let g = DeviceGroup::v100s(1);
        let mut a = LeasePool::new(&g, 1);
        let mut b = LeasePool::new(&g, 1);
        let l = a.try_acquire().unwrap();
        // A ticket from another pool: the guard must fire rather than
        // silently corrupting `b`'s occupancy.
        b.release(l);
    }

    #[test]
    fn quarantined_devices_receive_no_leases() {
        use crate::health::{FleetHealth, HealthPolicy};
        let g = DeviceGroup::v100s(2);
        let health = FleetHealth::new(
            2,
            HealthPolicy {
                window_s: 1.0,
                degraded_after: 1,
                quarantine_after: 2,
                cooldown_s: 0.5,
            },
        );
        let mut pool = LeasePool::new(&g, 2);
        pool.set_health(health.clone());
        // Two faults on device 0 trip its breaker.
        health.record_fault(0, 0.1);
        health.record_fault(0, 0.2);
        let a = pool.try_acquire().unwrap();
        let b = pool.try_acquire().unwrap();
        assert_eq!(a.devices(), &[1], "quarantined device skipped");
        assert_eq!(b.devices(), &[1]);
        assert!(pool.try_acquire().is_none(), "only device 1 is placeable");
        // A group lease spans the eligible devices only.
        pool.release(a);
        pool.release(b);
        let all = pool.try_acquire_all().unwrap();
        assert_eq!(all.devices(), &[1]);
        pool.release(all);
        // Past the cool-down the device re-admits and is preferred again.
        health.record_fault(1, 1.0); // device 1 degraded; clock at 1.0
        let c = pool.try_acquire().unwrap();
        assert_eq!(c.devices(), &[0], "re-admitted healthy device preferred");
    }

    #[test]
    fn group_view_shares_device_state() {
        let g = DeviceGroup::v100s(2);
        let mut pool = LeasePool::new(&g, 1);
        let lease = pool.try_acquire().unwrap();
        let view = pool.group_view(&lease);
        view.exchange(perf_model::Phase::Other, 64);
        // The charge shows up on the parent group's device too.
        assert_eq!(
            g.device(lease.devices()[0]).unwrap().counters().transfers,
            1
        );
    }
}
