//! Simulated CUDA streams and events.
//!
//! Real FastPSO-style engines overlap independent copy/compute by queuing
//! work on multiple `cudaStream_t`s; cuPSO (Wang et al. 2022) reports this
//! as the next win after fusion. The simulator models that with *stream
//! windows*: between [`Device::bind_stream`] and [`Device::join_streams`]
//! every charged operation queues on the currently bound lane, its modeled
//! `[start_s, start_s + duration_s)` interval laid out from the lane's
//! frontier rather than the serial timeline front. Lanes advance
//! independently, so intervals on different lanes overlap; cross-lane
//! ordering is expressed with [`Event`]s ([`Device::record_event`] /
//! [`Device::wait_event`]), which mirror `cudaEventRecord` /
//! `cudaStreamWaitEvent`.
//!
//! Phase accounting stays *serial*: every op is still charged in full to its
//! phase, so counters and per-phase breakdowns are identical with streams on
//! or off. At the join point the window computes how much lane time was
//! hidden by concurrency (total queued seconds minus the longest lane
//! frontier) and credits it to the timeline as overlap, which only shrinks
//! [`perf_model::Timeline::total_seconds`]. With no window open the device
//! behaves byte-for-byte as before.
//!
//! [`Device::bind_stream`]: crate::Device::bind_stream
//! [`Device::join_streams`]: crate::Device::join_streams
//! [`Device::record_event`]: crate::Device::record_event
//! [`Device::wait_event`]: crate::Device::wait_event

use std::collections::BTreeMap;

/// Per-device bookkeeping for one open stream window.
#[derive(Default)]
pub(crate) struct StreamWindow {
    /// Whether a window is open; when false every charge takes the legacy
    /// serial path.
    pub open: bool,
    /// Timeline seconds elapsed when the window opened; lane frontiers are
    /// offsets from this base.
    pub base_s: f64,
    /// Lane the next charge queues on.
    pub current: u32,
    /// Completion-time offset of the last op queued on each lane (includes
    /// stalls introduced by [`Device::wait_event`](crate::Device::wait_event)).
    pub frontier: BTreeMap<u32, f64>,
    /// Sum of all op durations queued in this window (serial time).
    pub serial_s: f64,
}

impl StreamWindow {
    /// Overlap hidden by this window so far: serial time minus the longest
    /// lane frontier (clamped — a stall-dominated window hides nothing).
    pub fn overlap_s(&self) -> f64 {
        let longest = self.frontier.values().copied().fold(0.0, f64::max);
        (self.serial_s - longest).max(0.0)
    }
}

/// A marker in a stream's queue, capturing the lane frontier at record time.
/// The simulated analogue of a recorded `cudaEvent_t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub(crate) stream: u32,
    pub(crate) offset_s: f64,
}

impl Event {
    /// Lane the event was recorded on.
    pub fn stream(&self) -> u32 {
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use crate::device::Device;
    use crate::launch::KernelDesc;
    use perf_model::Phase;

    fn kernel(name: &'static str, elems: u64) -> KernelDesc {
        KernelDesc::simple(name, Phase::Eval, 2, 8, 4, elems)
    }

    #[test]
    fn no_window_means_legacy_serial_accounting() {
        let dev = Device::v100();
        dev.charge_kernel(&kernel("a", 1 << 16));
        dev.charge_kernel(&kernel("b", 1 << 16));
        let log = dev.profiler();
        let a = &log.kernels[0];
        let b = &log.kernels[1];
        assert_eq!(a.stream, 0);
        assert_eq!(b.stream, 0);
        assert!(b.start_s >= a.start_s + a.duration_s - 1e-15, "no overlap");
        let tl = dev.timeline();
        assert_eq!(tl.overlapped_seconds(), 0.0);
        assert!((tl.total_seconds() - (a.duration_s + b.duration_s)).abs() < 1e-15);
    }

    #[test]
    fn two_lanes_overlap_and_join_credits_hidden_time() {
        let dev = Device::v100();
        dev.bind_stream(0);
        dev.charge_kernel(&kernel("a", 1 << 20));
        dev.bind_stream(1);
        dev.charge_kernel(&kernel("b", 1 << 16));
        let credit = dev.join_streams();
        let log = dev.profiler();
        let a = &log.kernels[0];
        let b = &log.kernels[1];
        assert_eq!((a.stream, b.stream), (0, 1));
        // Both lanes start at the window base: intervals overlap.
        assert_eq!(a.start_s, b.start_s);
        let expected_credit = a.duration_s.min(b.duration_s);
        assert!((credit - expected_credit).abs() < 1e-15);
        let tl = dev.timeline();
        assert!((tl.overlapped_seconds() - expected_credit).abs() < 1e-15);
        // Wall clock is the longest lane; phase accounting keeps the sum.
        assert!((tl.total_seconds() - a.duration_s.max(b.duration_s)).abs() < 1e-15);
        assert!((tl.seconds(Phase::Eval) - (a.duration_s + b.duration_s)).abs() < 1e-15);
        assert!((tl.lane_seconds(0) - a.duration_s).abs() < 1e-15);
        assert!((tl.lane_seconds(1) - b.duration_s).abs() < 1e-15);
    }

    #[test]
    fn event_wait_serializes_across_lanes() {
        let dev = Device::v100();
        dev.bind_stream(1);
        dev.charge_kernel(&kernel("producer", 1 << 16));
        let ev = dev.record_event();
        assert_eq!(ev.stream(), 1);
        dev.bind_stream(0);
        dev.wait_event(&ev);
        dev.charge_kernel(&kernel("consumer", 1 << 16));
        let credit = dev.join_streams();
        let log = dev.profiler();
        let p = &log.kernels[0];
        let c = &log.kernels[1];
        // The consumer starts exactly at the producer's event position.
        assert!((c.start_s - (p.start_s + p.duration_s)).abs() < 1e-15);
        assert_eq!(credit, 0.0, "fully serialized window hides nothing");
    }

    #[test]
    fn join_without_window_is_a_noop() {
        let dev = Device::v100();
        dev.charge_kernel(&kernel("a", 1 << 10));
        assert_eq!(dev.join_streams(), 0.0);
        assert_eq!(dev.timeline().overlapped_seconds(), 0.0);
    }

    #[test]
    fn windows_compose_across_iterations() {
        let dev = Device::v100();
        let mut expected = 0.0;
        for _ in 0..3 {
            dev.bind_stream(0);
            dev.charge_kernel(&kernel("a", 1 << 18));
            dev.bind_stream(1);
            dev.charge_kernel(&kernel("b", 1 << 12));
            expected += dev.join_streams();
        }
        let tl = dev.timeline();
        assert!((tl.overlapped_seconds() - expected).abs() < 1e-15);
        assert!(expected > 0.0);
    }

    #[test]
    fn transfers_queue_on_the_bound_lane() {
        let dev = Device::v100();
        dev.bind_stream(2);
        let buf = dev.alloc::<f32>(1024).unwrap();
        let _host = buf.download_in(Phase::Other);
        dev.join_streams();
        let log = dev.profiler();
        assert_eq!(log.transfers[0].stream, 2);
    }
}
