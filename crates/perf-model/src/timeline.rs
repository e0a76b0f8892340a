//! Phase-attributed accounting of modeled time and counters.
//!
//! The paper's Figure 5 breaks PSO down into five steps — swarm
//! initialization, swarm evaluation, `pbest` update, `gbest` update and
//! swarm update — and attributes elapsed time to each. [`Timeline`] provides
//! exactly that attribution for modeled time: implementations tag every
//! charge with a [`Phase`], and the harness reads per-phase totals back.

use crate::counters::Counters;
use std::collections::BTreeMap;

/// The PSO algorithm steps used in the paper's breakdown (Figure 5), plus a
/// catch-all for work outside the loop (transfers, teardown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Swarm initialization: positions, velocities, RNG state (step i).
    Init,
    /// Swarm evaluation: objective function over all particles (step ii).
    Eval,
    /// Per-particle best update (step iii, first half).
    PBest,
    /// Global best reduction (step iii, second half).
    GBest,
    /// Velocity + position update (step iv).
    SwarmUpdate,
    /// Fault-recovery overhead: retry backoff, checkpoint capture,
    /// restore replay and rebalancing after a device loss.
    Recovery,
    /// Anything else: host↔device transfers, memory management, teardown.
    Other,
}

impl Phase {
    /// All phases in the order the paper plots them, with the recovery
    /// category appended before the catch-all.
    pub const ALL: [Phase; 7] = [
        Phase::Init,
        Phase::Eval,
        Phase::PBest,
        Phase::GBest,
        Phase::SwarmUpdate,
        Phase::Recovery,
        Phase::Other,
    ];

    /// The tag used in the paper's Figure 5 x-axis.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Init => "init",
            Phase::Eval => "eval",
            Phase::PBest => "pbest",
            Phase::GBest => "gbest",
            Phase::SwarmUpdate => "swarm",
            Phase::Recovery => "recovery",
            Phase::Other => "other",
        }
    }
}

/// Accumulates modeled seconds and counters per [`Phase`].
///
/// Per-phase charges are *serial* accounting: every operation is charged in
/// full to its phase, so breakdowns and counter invariants hold regardless of
/// how operations were scheduled. Concurrency (simulated streams) is layered
/// on top as an *overlap credit*: time that two or more stream lanes spent
/// executing simultaneously is recorded via [`Timeline::credit_overlap`] and
/// subtracted from [`Timeline::total_seconds`], while per-phase seconds and
/// counters stay untouched. Per-stream busy time is tracked in `lanes`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    seconds: BTreeMap<Phase, f64>,
    counters: BTreeMap<Phase, Counters>,
    /// Seconds hidden by stream overlap; subtracted from the wall-clock total.
    overlapped_s: f64,
    /// Busy seconds per stream lane (stream id → seconds queued on it).
    lanes: BTreeMap<u32, f64>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `seconds` of modeled time and `counters` of work to `phase`.
    pub fn charge(&mut self, phase: Phase, seconds: f64, counters: Counters) {
        debug_assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "bad charge: {seconds}"
        );
        *self.seconds.entry(phase).or_insert(0.0) += seconds;
        self.counters.entry(phase).or_default().merge(&counters);
    }

    /// Charge time only (no counter detail).
    pub fn charge_time(&mut self, phase: Phase, seconds: f64) {
        self.charge(phase, seconds, Counters::default());
    }

    /// Modeled seconds attributed to `phase`.
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.seconds.get(&phase).copied().unwrap_or(0.0)
    }

    /// Counters attributed to `phase`.
    pub fn phase_counters(&self, phase: Phase) -> Counters {
        self.counters.get(&phase).copied().unwrap_or_default()
    }

    /// Total modeled seconds across all phases, net of stream-overlap
    /// credit. With no streams in play this is exactly the per-phase sum.
    pub fn total_seconds(&self) -> f64 {
        let raw: f64 = self.seconds.values().sum();
        raw - self.overlapped_s
    }

    /// Record `seconds` of busy time on stream lane `stream`.
    pub fn charge_lane(&mut self, stream: u32, seconds: f64) {
        debug_assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "bad lane charge: {seconds}"
        );
        *self.lanes.entry(stream).or_insert(0.0) += seconds;
    }

    /// Busy seconds queued on stream lane `stream`.
    pub fn lane_seconds(&self, stream: u32) -> f64 {
        self.lanes.get(&stream).copied().unwrap_or(0.0)
    }

    /// All stream lanes as `(stream, busy seconds)` pairs.
    pub fn lanes(&self) -> Vec<(u32, f64)> {
        self.lanes.iter().map(|(&s, &t)| (s, t)).collect()
    }

    /// Credit `seconds` of time hidden by concurrent stream execution. The
    /// per-phase breakdown keeps its serial accounting; only the wall-clock
    /// total shrinks.
    pub fn credit_overlap(&mut self, seconds: f64) {
        debug_assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "bad overlap credit: {seconds}"
        );
        self.overlapped_s += seconds;
    }

    /// Charge `seconds` of wall time spent waiting for work already
    /// credited as overlap (an asynchronous copy the host joins before it
    /// ended): the credit shrinks by the wait, so the total grows while the
    /// per-phase breakdown keeps its serial accounting.
    pub fn charge_wait(&mut self, seconds: f64) {
        debug_assert!(
            seconds >= 0.0 && seconds <= self.overlapped_s * (1.0 + 1e-12),
            "bad wait: {seconds} against {} credited",
            self.overlapped_s
        );
        self.overlapped_s = (self.overlapped_s - seconds).max(0.0);
    }

    /// Seconds hidden by stream overlap so far.
    pub fn overlapped_seconds(&self) -> f64 {
        self.overlapped_s
    }

    /// Total counters across all phases.
    pub fn total_counters(&self) -> Counters {
        self.counters
            .values()
            .fold(Counters::default(), |acc, c| acc + *c)
    }

    /// Merge another timeline into this one, phase by phase. Overlap credit
    /// and lane busy time accumulate as well.
    pub fn merge(&mut self, other: &Timeline) {
        for (p, s) in &other.seconds {
            *self.seconds.entry(*p).or_insert(0.0) += s;
        }
        for (p, c) in &other.counters {
            self.counters.entry(*p).or_default().merge(c);
        }
        self.overlapped_s += other.overlapped_s;
        for (s, t) in &other.lanes {
            *self.lanes.entry(*s).or_insert(0.0) += t;
        }
    }

    /// Breakdown as `(phase, seconds)` pairs in the paper's plot order,
    /// including phases with zero charge.
    pub fn breakdown(&self) -> Vec<(Phase, f64)> {
        Phase::ALL.iter().map(|&p| (p, self.seconds(p))).collect()
    }

    /// Fraction of total time spent in `phase` (0 when the timeline is empty).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total_seconds();
        if total == 0.0 {
            0.0
        } else {
            self.seconds(phase) / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_phase() {
        let mut t = Timeline::new();
        t.charge_time(Phase::SwarmUpdate, 1.0);
        t.charge_time(Phase::SwarmUpdate, 0.5);
        t.charge_time(Phase::Eval, 0.25);
        assert_eq!(t.seconds(Phase::SwarmUpdate), 1.5);
        assert_eq!(t.seconds(Phase::Eval), 0.25);
        assert_eq!(t.seconds(Phase::Init), 0.0);
        assert!((t.total_seconds() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn counters_accumulate_per_phase() {
        let mut t = Timeline::new();
        let mut c = Counters::new();
        c.flops = 10;
        t.charge(Phase::Eval, 0.1, c);
        t.charge(Phase::Eval, 0.1, c);
        assert_eq!(t.phase_counters(Phase::Eval).flops, 20);
        assert_eq!(t.total_counters().flops, 20);
    }

    #[test]
    fn merge_combines_timelines() {
        let mut a = Timeline::new();
        a.charge_time(Phase::Init, 1.0);
        let mut b = Timeline::new();
        b.charge_time(Phase::Init, 2.0);
        b.charge_time(Phase::GBest, 3.0);
        a.merge(&b);
        assert_eq!(a.seconds(Phase::Init), 3.0);
        assert_eq!(a.seconds(Phase::GBest), 3.0);
    }

    #[test]
    fn breakdown_covers_all_phases_in_order() {
        let t = Timeline::new();
        let b = t.breakdown();
        assert_eq!(b.len(), 7);
        assert_eq!(b[0].0, Phase::Init);
        assert_eq!(b[4].0, Phase::SwarmUpdate);
        assert_eq!(b[5].0, Phase::Recovery);
    }

    #[test]
    fn fraction_is_zero_on_empty_and_normalized_otherwise() {
        let mut t = Timeline::new();
        assert_eq!(t.fraction(Phase::Eval), 0.0);
        t.charge_time(Phase::Eval, 1.0);
        t.charge_time(Phase::SwarmUpdate, 3.0);
        assert!((t.fraction(Phase::SwarmUpdate) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn overlap_credit_shrinks_total_but_not_phases() {
        let mut t = Timeline::new();
        t.charge_time(Phase::Eval, 2.0);
        t.charge_time(Phase::Init, 1.0);
        t.charge_lane(0, 2.0);
        t.charge_lane(1, 1.0);
        t.credit_overlap(1.0);
        assert_eq!(t.seconds(Phase::Eval), 2.0);
        assert_eq!(t.seconds(Phase::Init), 1.0);
        assert!((t.total_seconds() - 2.0).abs() < 1e-12);
        assert_eq!(t.overlapped_seconds(), 1.0);
        assert_eq!(t.lane_seconds(1), 1.0);
        assert_eq!(t.lanes(), vec![(0, 2.0), (1, 1.0)]);
    }

    #[test]
    fn a_wait_takes_back_credit_but_not_phases() {
        let mut t = Timeline::new();
        t.charge_time(Phase::Recovery, 1.0);
        t.credit_overlap(1.0);
        t.charge_wait(0.25);
        assert_eq!(t.seconds(Phase::Recovery), 1.0);
        assert_eq!(t.overlapped_seconds(), 0.75);
        assert_eq!(t.total_seconds(), 0.25);
    }

    #[test]
    fn merge_accumulates_overlap_and_lanes() {
        let mut a = Timeline::new();
        a.charge_time(Phase::Eval, 4.0);
        a.credit_overlap(0.5);
        a.charge_lane(1, 0.5);
        let mut b = Timeline::new();
        b.charge_time(Phase::Eval, 4.0);
        b.credit_overlap(0.25);
        b.charge_lane(1, 0.25);
        a.merge(&b);
        assert!((a.total_seconds() - 7.25).abs() < 1e-12);
        assert_eq!(a.overlapped_seconds(), 0.75);
        assert_eq!(a.lane_seconds(1), 0.75);
    }

    #[test]
    fn labels_match_paper_tags() {
        assert_eq!(Phase::SwarmUpdate.label(), "swarm");
        assert_eq!(Phase::PBest.label(), "pbest");
    }
}
