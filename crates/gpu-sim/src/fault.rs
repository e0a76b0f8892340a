//! Deterministic fault injection.
//!
//! A [`FaultPlan`] attached to a [`Device`](crate::Device) (or to members of
//! a [`DeviceGroup`](crate::DeviceGroup)) makes the simulator fail chosen
//! operations: transient kernel-launch failures, transient allocation
//! failures, detected transfer corruption, and permanent device loss.
//!
//! Faults are addressed by **operation ordinal**, not wall-clock: the device
//! counts launch-API calls, allocations and host↔device transfers from the
//! moment the plan is attached, and an operation fails iff its 1-based
//! ordinal is in the plan. Two runs issuing the same operation sequence
//! therefore observe *exactly* the same faults — which is what lets the
//! resilience tests demand bit-identical recovery.
//!
//! Transient faults fire once: the retried operation gets the next ordinal,
//! which is not in the plan (unless deliberately planned to be). Device loss
//! is permanent — after its trigger fires, every subsequent operation on the
//! device fails with [`GpuError::DeviceLost`](crate::GpuError::DeviceLost).

use fastpso_prng::SplitMix64;
use std::collections::BTreeSet;

/// When, in a device's operation stream, faults fire.
///
/// Build a plan with the `with_*` constructors, or draw launch-fault
/// ordinals pseudo-randomly (but reproducibly) with [`FaultPlan::seeded`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    launch_faults: BTreeSet<u64>,
    alloc_faults: BTreeSet<u64>,
    transfer_faults: BTreeSet<u64>,
    loss_at_launch: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fail the `ordinal`-th launch (1-based) transiently.
    pub fn with_transient_launch(mut self, ordinal: u64) -> Self {
        self.launch_faults.insert(ordinal);
        self
    }

    /// Fail every listed launch ordinal transiently.
    pub fn with_transient_launches<I: IntoIterator<Item = u64>>(mut self, ordinals: I) -> Self {
        self.launch_faults.extend(ordinals);
        self
    }

    /// Fail the `ordinal`-th allocation (1-based) transiently.
    pub fn with_transient_alloc(mut self, ordinal: u64) -> Self {
        self.alloc_faults.insert(ordinal);
        self
    }

    /// Corrupt (and detect) the `ordinal`-th host↔device transfer (1-based).
    pub fn with_corrupted_transfer(mut self, ordinal: u64) -> Self {
        self.transfer_faults.insert(ordinal);
        self
    }

    /// Permanently lose the device at the `ordinal`-th launch (1-based).
    pub fn with_device_loss_at_launch(mut self, ordinal: u64) -> Self {
        self.loss_at_launch = Some(ordinal);
        self
    }

    /// Draw `count` distinct transient launch-fault ordinals uniformly from
    /// `1..=max_launch` using a [`SplitMix64`] stream over `seed`. Deterministic:
    /// the same `(seed, count, max_launch)` always yields the same plan.
    pub fn seeded(seed: u64, count: usize, max_launch: u64) -> Self {
        assert!(
            max_launch >= count as u64,
            "not enough launch slots for faults"
        );
        let mut rng = SplitMix64::new(seed);
        let mut faults = BTreeSet::new();
        while faults.len() < count {
            faults.insert(1 + ((rng.next_u64() as u128 * max_launch as u128) >> 64) as u64);
        }
        FaultPlan {
            launch_faults: faults,
            ..Self::default()
        }
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.launch_faults.is_empty()
            && self.alloc_faults.is_empty()
            && self.transfer_faults.is_empty()
            && self.loss_at_launch.is_none()
    }

    /// Planned transient-launch ordinals (1-based, ascending).
    pub fn launch_faults(&self) -> impl Iterator<Item = u64> + '_ {
        self.launch_faults.iter().copied()
    }

    pub(crate) fn launch_fault_at(&self, ordinal: u64) -> bool {
        self.launch_faults.contains(&ordinal)
    }

    pub(crate) fn alloc_fault_at(&self, ordinal: u64) -> bool {
        self.alloc_faults.contains(&ordinal)
    }

    pub(crate) fn transfer_fault_at(&self, ordinal: u64) -> bool {
        self.transfer_faults.contains(&ordinal)
    }

    pub(crate) fn loss_at(&self, launch_ordinal: u64) -> bool {
        self.loss_at_launch == Some(launch_ordinal)
    }
}

/// Per-device fault-injection bookkeeping, embedded in the device state.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    pub plan: Option<FaultPlan>,
    pub launches: u64,
    pub allocs: u64,
    pub transfers: u64,
    pub injected: u64,
    pub lost: bool,
    /// Modeled time the device was lost at (meaningful once `lost`): the
    /// start of the launch the loss fired on. A copy-lane transfer that
    /// had not ended by then is lost with the device.
    pub lost_at_s: f64,
}

/// Operation counts and injected-fault totals for one device, observable by
/// tests and by the resilience layer's reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Launch-API calls since the plan was attached (or device creation).
    pub launches: u64,
    /// Allocations since the plan was attached.
    pub allocs: u64,
    /// Host↔device transfers since the plan was attached.
    pub transfers: u64,
    /// Faults injected so far (of any kind, including the loss trigger).
    pub injected: u64,
    /// Whether the device has been permanently lost.
    pub lost: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_ordinals() {
        let p = FaultPlan::new()
            .with_transient_launch(3)
            .with_transient_launches([5, 9])
            .with_transient_alloc(2)
            .with_corrupted_transfer(1)
            .with_device_loss_at_launch(20);
        assert!(p.launch_fault_at(3) && p.launch_fault_at(5) && p.launch_fault_at(9));
        assert!(!p.launch_fault_at(4));
        assert!(p.alloc_fault_at(2) && !p.alloc_fault_at(3));
        assert!(p.transfer_fault_at(1));
        assert!(p.loss_at(20) && !p.loss_at(19));
        assert!(!p.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_distinct() {
        let a = FaultPlan::seeded(42, 5, 1000);
        let b = FaultPlan::seeded(42, 5, 1000);
        assert_eq!(a, b);
        assert_eq!(a.launch_faults().count(), 5);
        assert!(a.launch_faults().all(|o| (1..=1000).contains(&o)));
        let c = FaultPlan::seeded(43, 5, 1000);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }
}
