//! Simulated CUDA streams and the copy lane.
//!
//! Real FastPSO-style engines overlap independent copy/compute by queuing
//! work on multiple `cudaStream_t`s; cuPSO (Wang et al. 2022) reports this
//! as the next win after fusion. The simulator models that with *stream
//! windows*: between [`Device::bind_stream`] and [`Device::join_streams`]
//! every charged operation — kernel pass, transfer, allocation, barrier —
//! queues on the currently bound lane, its modeled
//! `[start_s, start_s + duration_s)` interval laid out from the lane's
//! frontier rather than the serial timeline front. Lanes advance
//! independently, so intervals on different lanes overlap.
//!
//! The caller is the serving layer (`fastpso::serve`): each tick it opens
//! one persistent region per device, every job on a device steps its slice
//! on its own lane there (the lane id is the job's position among the jobs
//! leasing the device), and the window joins before the tick's checkpoint.
//! A job's init, or its resume from a checkpoint, queues on its lane in
//! its first region, and its result download in its last.
//!
//! Phase accounting stays *serial*: every op is still charged in full to its
//! phase, so counters and per-phase breakdowns are identical with streams on
//! or off. At the join point the window's wall time is its longest lane,
//! floored by a work-conserving bound: every kernel pass re-priced at the
//! window's total occupancy (the widest grid of each lane, summed and capped
//! at the device's resident threads). Lanes of saturating kernels therefore
//! serialize, as they would on hardware, and concurrency is never free.
//! The serial time minus that wall time is credited to the timeline as
//! overlap, which only shrinks [`perf_model::Timeline::total_seconds`].
//! With no window open the device behaves byte-for-byte as before.
//!
//! # The copy lane
//!
//! Every device also has one *copy lane*, the `cudaMemcpyAsync` a V100's
//! copy engines run while its kernels do. Its frontier outlives any stream
//! window. [`Device::download_packed_async`] charges its `checkpoint_pack`
//! pass on the compute timeline as usual, then queues the D2H on the copy
//! lane: it starts at the later of the timeline front and the copy lane's
//! frontier (so copies on one device serialize), and the compute timeline
//! does not wait for it. Accounting stays serial here too: the transfer is
//! charged in full to its phase, one transfer and its bytes, and its
//! seconds are credited as overlap at once, so only its wall time is
//! hidden. Its [`TransferRecord`](perf_model::TransferRecord) carries
//! [`COPY_LANE`] as its stream.
//!
//! The copy returns a [`CopyTicket`]. Anything that reads the copied bytes
//! joins it first ([`CopyTicket::join`]): if the copy has not ended at the
//! timeline front, the timeline waits for it, and the wait is charged as
//! wall time (taken back from the overlap credit, phases untouched). If
//! the device is lost before the copy ends, the copy is lost with it: the
//! device records when it was lost (the start of the launch the loss fired
//! on), [`CopyTicket::is_lost`] reports it and a join fails with
//! [`GpuError::DeviceLost`]. Copy-lane transfers are not modeled as
//! contending with a window's lane transfers for the copy engines.
//!
//! [`Device::bind_stream`]: crate::Device::bind_stream
//! [`Device::join_streams`]: crate::Device::join_streams
//! [`Device::download_packed_async`]: crate::Device::download_packed_async

use crate::device::pass_seconds;
use crate::{Device, GpuError};
use perf_model::{GpuKernelWork, GpuProfile};
use std::collections::BTreeMap;

/// The stream id a copy-lane transfer is recorded on.
pub const COPY_LANE: u32 = u32::MAX;

/// A device→host copy queued on a device's copy lane (see the
/// [module docs](self)): when it ends, and whether its bytes made it.
#[derive(Clone)]
pub struct CopyTicket {
    pub(crate) device: Device,
    pub(crate) end_s: f64,
}

impl CopyTicket {
    /// Modeled time the copy ends on its device's timeline.
    pub fn end_s(&self) -> f64 {
        self.end_s
    }

    /// Whether the copy was lost with its device: the device was lost
    /// before the copy ended.
    pub fn is_lost(&self) -> bool {
        self.device.copy_status(self.end_s).0
    }

    /// Whether the copied bytes are on the host: the copy ended by the
    /// device's current front and was not lost.
    pub fn has_landed(&self) -> bool {
        self.device.copy_status(self.end_s).1
    }

    /// Join the copy lane up to this copy, as a reader of its bytes must:
    /// the device's timeline waits for the copy's end, and the wait is
    /// charged as wall time. Returns the seconds waited (0 when the copy
    /// had already ended).
    ///
    /// # Errors
    ///
    /// [`GpuError::DeviceLost`] when the copy was lost with its device.
    ///
    /// # Panics
    ///
    /// If a stream window is open on the device.
    pub fn join(&self) -> Result<f64, GpuError> {
        self.device.join_copy(self.end_s)
    }
}

/// A kernel pass queued in a stream window, kept to price the window's
/// floor: its final work, and whether it ran inside a persistent region (no
/// launch overhead of its own).
pub(crate) type Pass = (GpuKernelWork, bool);

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
    /// Completion-time offset of the last op queued on each lane.
    pub frontier: BTreeMap<u32, f64>,
    /// Sum of all op durations queued in this window (serial time).
    pub serial_s: f64,
    /// Widest grid (resident threads) of any pass queued on each lane.
    pub width: BTreeMap<u32, u64>,
    /// Every kernel pass queued in this window, in order.
    pub passes: Vec<Pass>,
}

impl StreamWindow {
    /// Queue an op lasting `dur` seconds on the bound lane, a kernel
    /// `pass` or (`None`) a transfer, allocation, barrier or region open;
    /// returns the lane and the op's start offset from the window base.
    pub fn queue(&mut self, dur: f64, pass: Option<Pass>) -> (u32, f64) {
        let lane = self.current;
        if let Some((work, in_region)) = pass {
            let widest = self.width.entry(lane).or_insert(0);
            *widest = (*widest).max(launched_threads(&work));
            self.passes.push((work, in_region));
        }
        let frontier = self.frontier.entry(lane).or_insert(0.0);
        let start = *frontier;
        *frontier += dur;
        self.serial_s += dur;
        (lane, start)
    }

    /// Overlap hidden by this window on `gpu`: serial time minus the
    /// window's wall time, the longest lane frontier floored by every
    /// kernel pass priced at the window's total occupancy (clamped — a
    /// stall-dominated window hides nothing). One lane hides exactly
    /// nothing.
    pub fn overlap_s(&self, gpu: &GpuProfile) -> f64 {
        let longest = self.frontier.values().copied().fold(0.0, f64::max);
        let occupancy = self
            .width
            .values()
            .sum::<u64>()
            .min(gpu.max_resident_threads());
        let floor = self.passes.iter().fold(0.0, |acc, &(work, in_region)| {
            acc + pass_at_occupancy(gpu, &work, occupancy, in_region)
        });
        (self.serial_s - longest.max(floor)).max(0.0)
    }
}

/// Modeled seconds of one kernel pass of `work` on `gpu` inside a window
/// whose lanes hold `occupancy` resident threads: the work-conserving
/// floor's price of the pass, as if launched that wide (never narrower
/// than itself), less the launch overhead when it runs `in_region`.
pub fn pass_at_occupancy(
    gpu: &GpuProfile,
    work: &GpuKernelWork,
    occupancy: u64,
    in_region: bool,
) -> f64 {
    let wide = launched_threads(work).max(occupancy);
    let work = GpuKernelWork {
        threads: wide,
        launched_threads: wide,
        ..*work
    };
    pass_seconds(gpu, &work, in_region)
}

/// Threads a launch of `work` puts on the device (before the resident cap).
pub fn launched_threads(work: &GpuKernelWork) -> u64 {
    if work.launched_threads == 0 {
        work.threads
    } else {
        work.launched_threads.min(work.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::COPY_LANE;
    use crate::device::{Device, GRID_SYNC_OVERHEAD_S};
    use crate::launch::KernelDesc;
    use perf_model::{gpu_kernel_time, Phase};

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
        // Two latency-bound lanes: together they hold far fewer threads
        // than the device, so the floor does not bind and the wall time is
        // the longest lane.
        let dev = Device::v100();
        dev.begin_persistent("region", Phase::Eval, 1 << 11)
            .unwrap();
        dev.bind_stream(0);
        dev.charge_kernel(&kernel("a", 1 << 10));
        dev.bind_stream(1);
        dev.charge_kernel(&kernel("b", 1 << 8));
        let credit = dev.join_streams();
        dev.end_persistent();
        let log = dev.profiler();
        let (open, a, b) = (&log.kernels[0], &log.kernels[1], &log.kernels[2]);
        assert_eq!((a.stream, b.stream), (0, 1));
        // Both lanes start at the window base: intervals overlap.
        assert_eq!(a.start_s, b.start_s);
        let expected_credit = a.duration_s.min(b.duration_s);
        assert!((credit - expected_credit).abs() < 1e-15);
        let tl = dev.timeline();
        assert!((tl.overlapped_seconds() - expected_credit).abs() < 1e-15);
        // Wall clock is the longest lane; phase accounting keeps the sum.
        let wall = open.duration_s + a.duration_s.max(b.duration_s);
        assert!((tl.total_seconds() - wall).abs() < 1e-15);
        let serial = open.duration_s + a.duration_s + b.duration_s;
        assert!((tl.seconds(Phase::Eval) - serial).abs() < 1e-15);
        assert!((tl.lane_seconds(0) - a.duration_s).abs() < 1e-15);
        assert!((tl.lane_seconds(1) - b.duration_s).abs() < 1e-15);
    }

    #[test]
    fn saturating_lanes_serialize_and_earn_no_credit() {
        // Each lane alone fills every resident thread: priced at the
        // window's total occupancy nothing gets faster, so the floor equals
        // the serial time and the lanes run one after the other.
        let dev = Device::v100();
        let full = dev.profile().max_resident_threads();
        dev.begin_persistent("region", Phase::Eval, full).unwrap();
        dev.bind_stream(0);
        dev.charge_kernel(&kernel("a", full));
        dev.bind_stream(1);
        dev.charge_kernel(&kernel("b", full));
        assert_eq!(dev.join_streams(), 0.0);
        dev.end_persistent();
        let tl = dev.timeline();
        assert_eq!(tl.overlapped_seconds(), 0.0);
        assert!(tl.lane_seconds(0) > 0.0 && tl.lane_seconds(1) > 0.0);
    }

    #[test]
    fn the_floor_prices_passes_at_the_windows_total_occupancy() {
        // A saturating lane beside a tiny one: the tiny pass re-priced at
        // full occupancy is far cheaper than its own latency-bound price,
        // so the wall time is the floor, above the longest lane.
        let dev = Device::v100();
        dev.bind_stream(0);
        dev.charge_kernel(&kernel("wide", 1 << 18));
        dev.bind_stream(1);
        dev.charge_kernel(&kernel("tiny", 1 << 12));
        let credit = dev.join_streams();
        let log = dev.profiler();
        let (wide, tiny) = (&log.kernels[0], &log.kernels[1]);
        let mut full = kernel("tiny", 1 << 12).work();
        full.threads = 1 << 18;
        full.launched_threads = 1 << 18;
        let floor = wide.duration_s + gpu_kernel_time(&dev.profile(), &full);
        assert!(floor > wide.duration_s.max(tiny.duration_s));
        let serial = wide.duration_s + tiny.duration_s;
        assert!((credit - (serial - floor)).abs() < 1e-15);
        assert!(credit > 0.0 && credit < tiny.duration_s);
    }

    #[test]
    fn one_lane_earns_exactly_no_credit() {
        let dev = Device::v100();
        dev.begin_persistent("region", Phase::Eval, 1 << 10)
            .unwrap();
        dev.bind_stream(3);
        dev.charge_kernel(&kernel("a", 1 << 10));
        let buf = dev.alloc::<f32>(256).unwrap();
        dev.synchronize(Phase::Eval);
        dev.charge_kernel(&kernel("b", 1 << 6));
        let _host = buf.download_in(Phase::Other);
        assert_eq!(dev.join_streams(), 0.0);
        dev.end_persistent();
        assert_eq!(dev.timeline().overlapped_seconds(), 0.0);
    }

    #[test]
    fn a_barrier_inside_a_window_queues_on_its_lane() {
        let dev = Device::v100();
        dev.begin_persistent("region", Phase::Eval, 1 << 10)
            .unwrap();
        dev.bind_stream(0);
        dev.charge_kernel(&kernel("a", 1 << 10));
        dev.bind_stream(1);
        dev.synchronize(Phase::Eval);
        let credit = dev.join_streams();
        dev.end_persistent();
        let tl = dev.timeline();
        assert_eq!(tl.lane_seconds(1), GRID_SYNC_OVERHEAD_S);
        // The barrier ran beside lane 0's pass, not after it.
        let pass = dev.profiler().kernels[1].duration_s;
        assert_eq!(credit, pass.min(GRID_SYNC_OVERHEAD_S));
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

    /// Equal up to rounding: the copy lane's credit is subtracted from a
    /// serial sum.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-15
    }

    /// A device with a 64 Ki-float buffer to copy, and the seconds its
    /// packed download's transfer takes.
    fn copy_source() -> (Device, crate::DeviceBuffer<f32>, f64) {
        let dev = Device::v100();
        let buf = dev.alloc::<f32>(1 << 16).unwrap();
        let copy = perf_model::transfer_time(&dev.link(), 4 << 16);
        (dev, buf, copy)
    }

    #[test]
    fn a_copy_followed_by_a_longer_pass_adds_nothing_to_the_total() {
        let (dev, buf, copy) = copy_source();
        let front = dev.timeline().total_seconds();
        let (host, ticket) = dev.download_packed_async(Phase::Recovery, &[&buf]);
        assert_eq!(host, vec![vec![0.0; 1 << 16]]);
        let pack = dev.profiler().kernels[0].duration_s;
        assert!(close(dev.timeline().total_seconds(), front + pack));
        assert!(close(ticket.end_s(), front + pack + copy));
        assert!(!ticket.has_landed(), "the copy is still in flight");
        dev.charge_kernel(&kernel("long", 1 << 24));
        let long = dev.profiler().kernels[1].duration_s;
        assert!(long > copy);
        let total = dev.timeline().total_seconds();
        assert!(
            close(total, front + pack + long),
            "the copy hid behind the pass"
        );
        assert!(ticket.has_landed() && !ticket.is_lost());
        assert_eq!(ticket.join(), Ok(0.0));
        assert_eq!(dev.timeline().total_seconds(), total);
        let log = dev.profiler();
        assert_eq!(log.transfers[0].stream, COPY_LANE);
        assert!(close(log.transfers[0].start_s, front + pack));
    }

    #[test]
    fn a_join_right_after_the_copy_waits_for_exactly_its_remainder() {
        for pass in [0, 1 << 10] {
            let (dev, buf, copy) = copy_source();
            let (_, ticket) = dev.download_packed_async(Phase::Recovery, &[&buf]);
            let mut ran = 0.0;
            if pass > 0 {
                dev.charge_kernel(&kernel("short", pass));
                ran = dev.profiler().kernels[1].duration_s;
                assert!(ran < copy);
            }
            let before = dev.timeline().total_seconds();
            let wait = ticket.join().unwrap();
            assert!(close(wait, copy - ran), "{wait} vs {copy} - {ran}");
            let total = dev.timeline().total_seconds();
            assert!(close(total, ticket.end_s()));
            assert!(close(total - before, wait));
            assert!(ticket.has_landed());
        }
    }

    #[test]
    fn two_copies_on_one_device_serialize_on_the_copy_frontier() {
        let (dev, buf, copy) = copy_source();
        let (_, first) = dev.download_packed_async(Phase::Recovery, &[&buf]);
        let (_, second) = dev.download_packed_async(Phase::Recovery, &[&buf]);
        assert!(close(second.end_s(), first.end_s() + copy));
        let log = dev.profiler();
        assert_eq!(log.transfers[1].start_s, first.end_s());
        // The second pack ran on the compute timeline while the first copy
        // was still in flight.
        assert!(log.kernels[1].start_s < first.end_s());
        let total = dev.timeline().total_seconds();
        assert!(close(second.join().unwrap(), second.end_s() - total));
        assert_eq!(first.join(), Ok(0.0));
    }

    #[test]
    fn a_copy_charges_the_phases_and_counters_of_the_synchronous_download() {
        let (sync, buf, copy) = copy_source();
        let host = sync.download_packed(Phase::Recovery, &[&buf]);
        let (lane, lane_buf, _) = copy_source();
        let (lane_host, _) = lane.download_packed_async(Phase::Recovery, &[&lane_buf]);
        assert_eq!(host, lane_host);
        let (a, b) = (sync.timeline(), lane.timeline());
        for phase in Phase::ALL {
            assert_eq!(a.seconds(phase), b.seconds(phase), "{phase:?}");
            assert_eq!(
                a.phase_counters(phase),
                b.phase_counters(phase),
                "{phase:?}"
            );
        }
        assert_eq!(b.overlapped_seconds(), copy, "only the wall time is hidden");
        assert!(close(a.total_seconds() - b.total_seconds(), copy));
        assert_eq!(
            sync.profiler().total_counters(),
            lane.profiler().total_counters()
        );
    }

    #[test]
    fn a_device_lost_before_the_copy_ends_loses_the_copy() {
        use crate::{FaultPlan, GpuError};
        for (pass, lost) in [(0, true), (1 << 24, false)] {
            let (dev, buf, _) = copy_source();
            let (_, ticket) = dev.download_packed_async(Phase::Recovery, &[&buf]);
            if pass > 0 {
                dev.charge_kernel(&kernel("long", pass));
            }
            dev.set_fault_plan(FaultPlan::new().with_device_loss_at_launch(1));
            assert_eq!(dev.begin_launch(), Err(GpuError::DeviceLost(0)));
            assert_eq!(ticket.is_lost(), lost, "pass of {pass} elements");
            assert_eq!(ticket.has_landed(), !lost);
            if lost {
                assert_eq!(ticket.join(), Err(GpuError::DeviceLost(0)));
            } else {
                assert_eq!(ticket.join(), Ok(0.0));
            }
        }
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
