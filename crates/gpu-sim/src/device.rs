//! The simulated device: profile + caching allocator + modeled timeline.

use crate::alloc::{AllocOutcome, Pool};
use crate::buffer::DeviceBuffer;
use crate::error::GpuError;
use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::launch::{AllocMode, KernelDesc, LaunchConfig, DEFAULT_BLOCK};
use crate::profiler::Profiler;
use crate::stream::{CopyTicket, Pass, StreamWindow, COPY_LANE};
use crate::sync::Mutex;
use perf_model::{
    gpu_kernel_time, transfer_time, AllocKind, AllocRecord, Counters, GpuKernelWork, GpuProfile,
    KernelRecord, LinkProfile, Phase, ProfilerLog, Timeline, TransferDirection, TransferRecord,
};
use std::sync::Arc;

/// Modeled time of one device-wide synchronization (`cudaDeviceSynchronize`).
const SYNC_OVERHEAD_S: f64 = 3.0e-6;

/// Modeled time of one grid-wide barrier
/// (`cooperative_groups::grid_group::sync()`): resident threads rendezvous
/// on-device without a host round-trip, so it is much cheaper than a
/// host-side device sync (3 µs). Charged by [`Device::synchronize`] inside
/// an open persistent region.
pub const GRID_SYNC_OVERHEAD_S: f64 = 0.5e-6;

/// Modeled cost of an allocation the caching pool serves, as a fraction
/// of the profile's `device_alloc_cost_s` (a driver round-trip): a pool
/// lookup is a couple of host instructions.
pub const CACHE_HIT_COST_FRACTION: f64 = 0.02;

/// Bookkeeping for retried operations (see [`Device::mark_redundant`]).
///
/// A resilient caller that re-executes work after a transient fault marks
/// the *completed* operations of the failed attempt as redundant; the next
/// that-many gated operations are then charged to [`Phase::Recovery`]
/// instead of their natural phase, so fault-free and faulted runs agree on
/// every non-recovery phase and retried work is never double-counted.
#[derive(Default)]
pub(crate) struct RedundantWork {
    pub launches: u64,
    pub allocs: u64,
    pub transfers: u64,
    /// Set by the launch gate; inherited by every kernel charge until the
    /// next gate (multi-pass entry points charge several kernels per gate).
    pub launch_in_recovery: bool,
    /// Set by the upload gate; consumed by the next H2D charge.
    pub transfer_in_recovery: bool,
}

pub(crate) struct DeviceState {
    pub timeline: Timeline,
    pub pool: Pool,
    pub alloc_mode: AllocMode,
    pub bytes_in_use: usize,
    pub peak_bytes: usize,
    pub fault: FaultState,
    pub profiler: Profiler,
    pub redundant: RedundantWork,
    pub stream: StreamWindow,
    /// End of the last transfer queued on the device's copy lane (see
    /// [`Device::download_packed_async`]).
    pub copy_frontier_s: f64,
    /// Whether a persistent-kernel region is open (see
    /// [`Device::begin_persistent`]).
    persistent: bool,
}

impl DeviceState {
    /// Modeled start time and stream lane for a charge of `dur` seconds,
    /// a kernel `pass` or another op. With a stream window open the op
    /// queues on the bound lane, starting at the lane's frontier (so
    /// intervals on different lanes overlap); otherwise it starts at the
    /// serial timeline front on lane 0.
    fn queue_charge(&mut self, dur: f64, pass: Option<Pass>) -> (f64, u32) {
        if self.stream.open {
            let (lane, offset) = self.stream.queue(dur, pass);
            self.timeline.charge_lane(lane, dur);
            (self.stream.base_s + offset, lane)
        } else {
            (self.timeline.total_seconds(), 0)
        }
    }

    /// Modeled time the next charge on the bound lane would start at: the
    /// lane's frontier inside a stream window, else the timeline front.
    fn front_s(&self) -> f64 {
        if self.stream.open {
            let lane = self.stream.frontier.get(&self.stream.current);
            self.stream.base_s + lane.copied().unwrap_or(0.0)
        } else {
            self.timeline.total_seconds()
        }
    }

    /// Restart modeled time at zero after a timeline reset: no window or
    /// region open, the copy lane idle, and a lost device lost from the
    /// start.
    fn restart_clock(&mut self) {
        self.stream = StreamWindow::default();
        self.persistent = false;
        self.copy_frontier_s = 0.0;
        self.fault.lost_at_s = 0.0;
    }

    /// Whether a copy-lane transfer ending at `end_s` was lost with the
    /// device: the device was lost before it ended.
    fn copy_lost(&self, end_s: f64) -> bool {
        self.fault.lost && self.fault.lost_at_s < end_s
    }
}

/// Modeled seconds of one kernel pass of `work` on `gpu`: its
/// [`gpu_kernel_time`], less the launch overhead when it runs `in_region`
/// (a device-resident pass of an open persistent region).
pub(crate) fn pass_seconds(gpu: &GpuProfile, work: &GpuKernelWork, in_region: bool) -> f64 {
    let t = gpu_kernel_time(gpu, work);
    if in_region {
        (t - gpu.kernel_launch_overhead_s).max(0.0)
    } else {
        t
    }
}

pub(crate) struct DeviceShared {
    pub profile: GpuProfile,
    pub link: LinkProfile,
    pub index: usize,
    pub state: Mutex<DeviceState>,
}

impl DeviceShared {
    /// Charge modeled seconds + counters to a phase.
    pub fn charge(&self, phase: Phase, seconds: f64, counters: Counters) {
        self.state.lock().timeline.charge(phase, seconds, counters);
    }
}

/// A handle to one simulated GPU.
///
/// Cloning a `Device` yields another handle to the *same* device (same
/// allocator, same timeline), mirroring how CUDA contexts are shared.
#[derive(Clone)]
pub struct Device {
    pub(crate) shared: Arc<DeviceShared>,
}

impl Device {
    /// Create a device with an explicit profile and interconnect.
    pub fn new(profile: GpuProfile, link: LinkProfile) -> Self {
        Self::with_index(profile, link, 0)
    }

    /// Create a device with an explicit multi-GPU index.
    pub fn with_index(profile: GpuProfile, link: LinkProfile, index: usize) -> Self {
        Device {
            shared: Arc::new(DeviceShared {
                profile,
                link,
                index,
                state: Mutex::new(DeviceState {
                    timeline: Timeline::new(),
                    pool: Pool::new(),
                    alloc_mode: AllocMode::Caching,
                    bytes_in_use: 0,
                    peak_bytes: 0,
                    fault: FaultState::default(),
                    profiler: Profiler::default(),
                    redundant: RedundantWork::default(),
                    stream: StreamWindow::default(),
                    copy_frontier_s: 0.0,
                    persistent: false,
                }),
            }),
        }
    }

    /// The paper's GPU: a Tesla V100 behind PCIe 3.0 x16.
    pub fn v100() -> Self {
        Self::new(GpuProfile::tesla_v100(), LinkProfile::pcie3_x16())
    }

    /// Device index within a [`crate::DeviceGroup`] (0 for standalone).
    pub fn index(&self) -> usize {
        self.shared.index
    }

    /// The device's hardware profile.
    pub fn profile(&self) -> GpuProfile {
        self.shared.profile.clone()
    }

    /// The device's host interconnect.
    pub fn link(&self) -> LinkProfile {
        self.shared.link.clone()
    }

    /// Select the allocation strategy (Table 4 ablation).
    pub fn set_alloc_mode(&self, mode: AllocMode) {
        let mut st = self.shared.state.lock();
        st.alloc_mode = mode;
        if mode == AllocMode::Realloc {
            st.pool.clear();
        }
    }

    /// Current allocation strategy.
    pub fn alloc_mode(&self) -> AllocMode {
        self.shared.state.lock().alloc_mode
    }

    /// Attach a fault-injection plan. Operation ordinals restart at 1 from
    /// this call, so a plan's fault positions are relative to attach time.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut st = self.shared.state.lock();
        st.fault = FaultState {
            plan: Some(plan),
            ..FaultState::default()
        };
    }

    /// Detach any fault plan (counters keep running, nothing fires).
    pub fn clear_fault_plan(&self) {
        self.shared.state.lock().fault.plan = None;
    }

    /// Operation counts and injected-fault totals since the plan attach.
    pub fn fault_stats(&self) -> FaultStats {
        let st = self.shared.state.lock();
        FaultStats {
            launches: st.fault.launches,
            allocs: st.fault.allocs,
            transfers: st.fault.transfers,
            injected: st.fault.injected,
            lost: st.fault.lost,
        }
    }

    /// Whether the device has been permanently lost.
    pub fn is_lost(&self) -> bool {
        self.shared.state.lock().fault.lost
    }

    /// Fault-injection gate at the top of every launch entry point: counts
    /// the launch and fails it if the attached plan says so. Public so
    /// out-of-crate code that models launches through
    /// [`Device::charge_kernel`] (the baselines, `tgbm`) can opt into the
    /// same fault behavior.
    pub fn begin_launch(&self) -> Result<(), GpuError> {
        let mut st = self.shared.state.lock();
        if st.fault.lost {
            return Err(GpuError::DeviceLost(self.shared.index));
        }
        st.fault.launches += 1;
        let ordinal = st.fault.launches;
        if let Some(plan) = &st.fault.plan {
            if plan.loss_at(ordinal) {
                st.fault.lost_at_s = st.front_s();
                st.fault.lost = true;
                st.fault.injected += 1;
                return Err(GpuError::DeviceLost(self.shared.index));
            }
            if plan.launch_fault_at(ordinal) {
                st.fault.injected += 1;
                return Err(GpuError::TransientLaunch {
                    device: self.shared.index,
                    launch: ordinal,
                });
            }
        }
        st.redundant.launch_in_recovery = st.redundant.launches > 0;
        st.redundant.launches = st.redundant.launches.saturating_sub(1);
        Ok(())
    }

    /// Fault-injection gate for host→device transfers (uploads). Transfer
    /// ordinals count uploads only: downloads have no error channel.
    pub(crate) fn begin_transfer(&self) -> Result<(), GpuError> {
        let mut st = self.shared.state.lock();
        if st.fault.lost {
            return Err(GpuError::DeviceLost(self.shared.index));
        }
        st.fault.transfers += 1;
        let ordinal = st.fault.transfers;
        if let Some(plan) = &st.fault.plan {
            if plan.transfer_fault_at(ordinal) {
                st.fault.injected += 1;
                return Err(GpuError::CorruptedTransfer {
                    device: self.shared.index,
                    transfer: ordinal,
                });
            }
        }
        st.redundant.transfer_in_recovery = st.redundant.transfers > 0;
        st.redundant.transfers = st.redundant.transfers.saturating_sub(1);
        Ok(())
    }

    /// Allocate a zero-initialized device buffer of `len` elements.
    pub fn alloc<T: Default + Clone + Send + Sync + 'static>(
        &self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, GpuError> {
        let bytes = len * std::mem::size_of::<T>();
        let mut st = self.shared.state.lock();
        if st.fault.lost {
            return Err(GpuError::DeviceLost(self.shared.index));
        }
        st.fault.allocs += 1;
        let alloc_ordinal = st.fault.allocs;
        if let Some(plan) = &st.fault.plan {
            if plan.alloc_fault_at(alloc_ordinal) {
                st.fault.injected += 1;
                return Err(GpuError::TransientAlloc {
                    device: self.shared.index,
                    alloc: alloc_ordinal,
                });
            }
        }
        if st.bytes_in_use + bytes > self.shared.profile.global_mem {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                in_use: st.bytes_in_use,
                capacity: self.shared.profile.global_mem,
            });
        }
        let (data, outcome) = match st.alloc_mode {
            AllocMode::Caching => st.pool.acquire::<T>(len),
            AllocMode::Realloc => (vec![T::default(); len], AllocOutcome::Miss),
        };
        st.bytes_in_use += bytes;
        st.peak_bytes = st.peak_bytes.max(st.bytes_in_use);
        let mut c = Counters::new();
        let (seconds, kind) = match outcome {
            AllocOutcome::Miss => {
                c.device_allocs = 1;
                (
                    self.shared.profile.device_alloc_cost_s,
                    AllocKind::DriverAlloc,
                )
            }
            AllocOutcome::CacheHit => {
                c.device_alloc_cache_hits = 1;
                (
                    self.shared.profile.device_alloc_cost_s * CACHE_HIT_COST_FRACTION,
                    AllocKind::CacheHit,
                )
            }
        };
        let phase = if st.redundant.allocs > 0 {
            st.redundant.allocs -= 1;
            Phase::Recovery
        } else {
            Phase::Other
        };
        // Stream-ordered, like `cudaMallocAsync`: inside a window the
        // allocation queues on the bound lane.
        let (start_s, _) = st.queue_charge(seconds, None);
        let record = AllocRecord {
            device: self.shared.index,
            phase,
            start_s,
            duration_s: seconds,
            bytes: bytes as u64,
            kind,
            ordinal: alloc_ordinal,
        };
        st.profiler.record_alloc(record);
        st.timeline.charge(phase, seconds, c);
        drop(st);
        Ok(DeviceBuffer::new(data, self.shared.clone()))
    }

    /// Allocate a buffer and upload `src` into it.
    pub fn alloc_from_slice<T: Default + Clone + Send + Sync + 'static>(
        &self,
        src: &[T],
    ) -> Result<DeviceBuffer<T>, GpuError> {
        let mut buf = self.alloc(src.len())?;
        buf.upload(src)?;
        Ok(buf)
    }

    /// Charge one kernel launch described by `desc` to the timeline and
    /// record it in the profiler.
    ///
    /// Called internally by the `launch_*` methods; exposed for
    /// implementations (like the baselines) that model kernels whose bodies
    /// run through other entry points. Kernels whose work depends on their
    /// data are charged through the same path with their final work once
    /// their body has run.
    pub fn charge_kernel(&self, desc: &KernelDesc) {
        self.charge_launch(desc, desc.work());
    }

    /// Charge one launch of `desc`'s kernel whose final work is `work`, and
    /// record it in the profiler — the one charging path every launch
    /// takes.
    ///
    /// `work` is `desc.work()` plus whatever the body decided at run time:
    /// the rows a `pbest` update copied, the partial sums a single-pass
    /// reduction folded, the row an argmin adopted. Kernels with such
    /// data-dependent totals charge after their body, so the launch carries
    /// its whole cost in one record; `desc` supplies the name, phase and
    /// launch geometry.
    pub(crate) fn charge_launch(&self, desc: &KernelDesc, work: GpuKernelWork) {
        let config = desc
            .config
            .unwrap_or_else(|| LaunchConfig::one_per_element(desc.threads.max(1), DEFAULT_BLOCK));
        let mut st = self.shared.state.lock();
        // Inside an open persistent region the pass runs device-resident:
        // no host launch, so the per-launch overhead and the launch count
        // move to the region record (charged at `begin_persistent`). All
        // compute/memory counters are unchanged.
        let in_region = st.persistent;
        let t = pass_seconds(&self.shared.profile, &work, in_region);
        let mut c = Counters::new();
        c.flops = work.flops;
        c.tensor_flops = work.tensor_flops;
        c.dram_read_bytes = work.dram_read_bytes;
        c.dram_write_bytes = work.dram_write_bytes;
        c.shared_bytes = work.shared_bytes;
        c.kernel_launches = u64::from(!in_region);
        // Mirror the model's occupancy logic for the record.
        let launched = if work.launched_threads == 0 {
            work.threads
        } else {
            work.launched_threads.min(work.threads)
        };
        let max_resident = self.shared.profile.max_resident_threads().max(1);
        let occupancy = launched.min(max_resident) as f64 / max_resident as f64;
        let bw_fraction = if t > 0.0 {
            (work.dram_read_bytes + work.dram_write_bytes) as f64
                / t
                / self.shared.profile.mem_bandwidth
        } else {
            0.0
        };
        let phase = if st.redundant.launch_in_recovery {
            Phase::Recovery
        } else {
            desc.phase
        };
        let (start_s, stream) = st.queue_charge(t, Some((work, in_region)));
        let record = KernelRecord {
            name: desc.name,
            device: self.shared.index,
            phase,
            start_s,
            duration_s: t,
            grid: [config.grid.x, config.grid.y, config.grid.z],
            block: [config.block.x, config.block.y, config.block.z],
            threads: work.threads,
            launched_threads: launched,
            flops: work.flops,
            tensor_flops: work.tensor_flops,
            dram_read_bytes: work.dram_read_bytes,
            dram_write_bytes: work.dram_write_bytes,
            shared_bytes: work.shared_bytes,
            occupancy,
            bw_fraction,
            ordinal: st.fault.launches,
            stream,
            launches: u64::from(!in_region),
        };
        st.profiler.record_kernel(record);
        st.timeline.charge(phase, t, c);
    }

    /// Open a persistent-kernel region: one host launch whose grid stays
    /// resident on the device until [`Device::end_persistent`].
    ///
    /// While the region is open, every kernel charged through
    /// [`Device::charge_kernel`] models a device-resident *pass* of the
    /// persistent grid instead of a fresh launch: it costs its own
    /// compute/memory time minus the per-launch overhead and counts zero
    /// `kernel_launches` (the single launch is charged here, so profiler
    /// and timeline totals stay exact). [`Device::synchronize`] becomes a
    /// grid-wide barrier at `GRID_SYNC_OVERHEAD_S`. Launch fault gates
    /// ([`Device::begin_launch`]) keep counting ordinals exactly as in
    /// per-launch mode, so fault plans fire at the same positions.
    ///
    /// `threads` is the grid's resident thread count; a grid-wide barrier
    /// requires full co-residency, so values above the profile's
    /// `max_resident_threads` are rejected. Nested regions are rejected.
    /// The region open does not consume a fault ordinal — the first inner
    /// pass's gate stands in for the real launch.
    pub fn begin_persistent(
        &self,
        name: &'static str,
        phase: Phase,
        threads: u64,
    ) -> Result<(), GpuError> {
        let max_resident = self.shared.profile.max_resident_threads();
        let mut st = self.shared.state.lock();
        if st.fault.lost {
            return Err(GpuError::DeviceLost(self.shared.index));
        }
        if st.persistent {
            return Err(GpuError::InvalidLaunch(
                "persistent regions cannot nest".into(),
            ));
        }
        if threads == 0 {
            return Err(GpuError::InvalidLaunch(
                "persistent region needs at least one resident thread".into(),
            ));
        }
        if threads > max_resident {
            return Err(GpuError::InvalidLaunch(format!(
                "persistent region needs {threads} co-resident threads, \
                 device holds {max_resident}"
            )));
        }
        let t = self.shared.profile.kernel_launch_overhead_s;
        let mut c = Counters::new();
        c.kernel_launches = 1;
        let config = LaunchConfig::one_per_element(threads, DEFAULT_BLOCK);
        let phase = if st.redundant.launch_in_recovery {
            Phase::Recovery
        } else {
            phase
        };
        let (start_s, stream) = st.queue_charge(t, None);
        let record = KernelRecord {
            name,
            device: self.shared.index,
            phase,
            start_s,
            duration_s: t,
            grid: [config.grid.x, config.grid.y, config.grid.z],
            block: [config.block.x, config.block.y, config.block.z],
            threads,
            launched_threads: threads,
            flops: 0,
            tensor_flops: 0,
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            shared_bytes: 0,
            occupancy: threads as f64 / max_resident.max(1) as f64,
            bw_fraction: 0.0,
            ordinal: st.fault.launches,
            stream,
            launches: 1,
        };
        st.profiler.record_kernel(record);
        st.timeline.charge(phase, t, c);
        st.persistent = true;
        Ok(())
    }

    /// Close the open persistent region. Safe to call on a lost device (the
    /// region is host-side bookkeeping) and when no region is open (a
    /// no-op), so error-path cleanup never needs its own error handling.
    pub fn end_persistent(&self) {
        self.shared.state.lock().persistent = false;
    }

    /// Whether a persistent region is currently open.
    pub fn in_persistent(&self) -> bool {
        self.shared.state.lock().persistent
    }

    /// Charge a host↔device transfer of `bytes` to the timeline and record
    /// it in the profiler.
    pub(crate) fn charge_transfer(&self, phase: Phase, dir: TransferDirection, bytes: u64) {
        let t = transfer_time(&self.shared.link, bytes);
        let mut c = Counters::new();
        c.record_transfer(dir, bytes);
        let mut st = self.shared.state.lock();
        let (phase, ordinal) = match dir {
            // Uploads pass the fault gate; redirect a marked-redundant one.
            TransferDirection::H2D => {
                let p = if st.redundant.transfer_in_recovery {
                    st.redundant.transfer_in_recovery = false;
                    Phase::Recovery
                } else {
                    phase
                };
                (p, st.fault.transfers)
            }
            // Downloads have no gate and carry no ordinal.
            TransferDirection::D2H => (phase, 0),
        };
        let (start_s, stream) = st.queue_charge(t, None);
        let record = TransferRecord {
            device: self.shared.index,
            phase,
            start_s,
            duration_s: t,
            bytes,
            dir,
            ordinal,
            stream,
        };
        st.profiler.record_transfer(record);
        st.timeline.charge(phase, t, c);
    }

    /// Download several `f32` buffers in one coalesced device→host copy,
    /// charged to `phase`, returning their contents in order.
    ///
    /// Models a gather kernel (`checkpoint_pack`) that packs the buffers
    /// into one contiguous staging block, followed by a single D2H
    /// transfer of the summed bytes — one PCIe latency instead of one per
    /// buffer. Inside an open persistent region the pack is an inner pass
    /// with no launch overhead. Like every download it passes no fault
    /// gate, so launch and transfer ordinals are untouched.
    ///
    /// # Panics
    ///
    /// If a buffer lives on another device.
    pub fn download_packed(&self, phase: Phase, bufs: &[&DeviceBuffer<f32>]) -> Vec<Vec<f32>> {
        let bytes = self.pack(phase, bufs);
        self.charge_transfer(phase, TransferDirection::D2H, bytes);
        bufs.iter().map(|b| b.as_slice().to_vec()).collect()
    }

    /// [`Device::download_packed`] with the transfer on the device's copy
    /// lane: the `checkpoint_pack` pass is charged on the compute timeline
    /// as usual, and the D2H starts at the later of the timeline front and
    /// the copy lane's frontier while the timeline runs on without it. The
    /// transfer is still charged in full to `phase`, one transfer and its
    /// bytes, and its seconds are credited as overlap, so only its wall
    /// time is hidden (see [`crate::stream`]).
    ///
    /// The returned contents are the bytes the copy carries; they reach the
    /// host when the [`CopyTicket`] lands, and not at all if the device is
    /// lost before then. A caller that reads them joins the copy first
    /// ([`CopyTicket::join`]).
    ///
    /// # Panics
    ///
    /// If a buffer lives on another device, or a stream window is open.
    pub fn download_packed_async(
        &self,
        phase: Phase,
        bufs: &[&DeviceBuffer<f32>],
    ) -> (Vec<Vec<f32>>, CopyTicket) {
        let bytes = self.pack(phase, bufs);
        let t = transfer_time(&self.shared.link, bytes);
        let mut c = Counters::new();
        c.record_transfer(TransferDirection::D2H, bytes);
        let mut st = self.shared.state.lock();
        assert!(
            !st.stream.open,
            "download_packed_async: join the stream window first"
        );
        let front = st.timeline.total_seconds();
        let start_s = front.max(st.copy_frontier_s);
        st.copy_frontier_s = start_s + t;
        st.profiler.record_transfer(TransferRecord {
            device: self.shared.index,
            phase,
            start_s,
            duration_s: t,
            bytes,
            dir: TransferDirection::D2H,
            ordinal: 0,
            stream: COPY_LANE,
        });
        st.timeline.charge(phase, t, c);
        st.timeline.credit_overlap(t);
        let ticket = CopyTicket {
            device: self.clone(),
            end_s: start_s + t,
        };
        drop(st);
        (bufs.iter().map(|b| b.as_slice().to_vec()).collect(), ticket)
    }

    /// Charge the `checkpoint_pack` pass that gathers `bufs` into one
    /// staging block, and return the block's bytes.
    fn pack(&self, phase: Phase, bufs: &[&DeviceBuffer<f32>]) -> u64 {
        assert!(
            bufs.iter().all(|b| b.is_on(self)),
            "download_packed: every buffer must live on device {}",
            self.shared.index
        );
        let elems: usize = bufs.iter().map(|b| b.len()).sum();
        self.charge_kernel(&KernelDesc::checkpoint_pack(phase, elems as u64));
        elems as u64 * std::mem::size_of::<f32>() as u64
    }

    /// Block the timeline until the copy-lane transfer ending at `end_s`
    /// has landed; see [`CopyTicket::join`].
    pub(crate) fn join_copy(&self, end_s: f64) -> Result<f64, GpuError> {
        let mut st = self.shared.state.lock();
        if st.copy_lost(end_s) {
            return Err(GpuError::DeviceLost(self.shared.index));
        }
        assert!(!st.stream.open, "join_copy: join the stream window first");
        let wait = (end_s - st.timeline.total_seconds()).max(0.0);
        st.timeline.charge_wait(wait);
        Ok(wait)
    }

    /// Whether the copy-lane transfer ending at `end_s` was lost with the
    /// device, and whether it has landed by the bound lane's front.
    pub(crate) fn copy_status(&self, end_s: f64) -> (bool, bool) {
        let st = self.shared.state.lock();
        let lost = st.copy_lost(end_s);
        (lost, !lost && st.front_s() >= end_s)
    }

    /// Declare the next `launches`/`allocs`/`transfers` gated operations
    /// redundant re-executions of already-counted work: they will be
    /// charged to [`Phase::Recovery`] instead of their natural phase.
    ///
    /// Called by resilient retry loops after a transient fault with the
    /// number of operations the failed attempt had already completed, so
    /// aggregate per-phase counters match a fault-free run exactly and the
    /// repeat cost is attributed to recovery (never double-counted into
    /// Init/Eval/.../SwarmUpdate).
    pub fn mark_redundant(&self, launches: u64, allocs: u64, transfers: u64) {
        let mut st = self.shared.state.lock();
        st.redundant.launches += launches;
        st.redundant.allocs += allocs;
        st.redundant.transfers += transfers;
    }

    /// Charge an externally computed cost to the timeline. For callers
    /// (like `tgbm`) that extend the kernel-time model with effects the
    /// built-in roofline does not capture (block-count imbalance across
    /// SMs, launch-geometry tails) — the built-in `launch_*` entry points
    /// should be preferred everywhere else.
    pub fn charge_raw(&self, phase: Phase, seconds: f64, counters: Counters) {
        self.shared.charge(phase, seconds, counters);
    }

    /// Model a `cudaDeviceSynchronize`, charged to `phase`. Inside an open
    /// persistent region this is a grid-wide barrier instead: the resident
    /// grid rendezvouses on-device at `GRID_SYNC_OVERHEAD_S` without a
    /// host round-trip. Inside a stream window it queues on the bound lane,
    /// so a job's barriers wait only for that job's passes.
    pub fn synchronize(&self, phase: Phase) {
        let mut st = self.shared.state.lock();
        let t = if st.persistent {
            GRID_SYNC_OVERHEAD_S
        } else {
            SYNC_OVERHEAD_S
        };
        st.queue_charge(t, None);
        st.timeline.charge(phase, t, Counters::new());
    }

    /// Queue subsequent charges on stream lane `id`, opening a stream
    /// window (based at the current timeline front) if none is open. See
    /// [`crate::stream`] for the overlap model.
    pub fn bind_stream(&self, id: u32) {
        let mut st = self.shared.state.lock();
        if !st.stream.open {
            st.stream = StreamWindow {
                open: true,
                base_s: st.timeline.total_seconds(),
                ..StreamWindow::default()
            };
        }
        st.stream.current = id;
    }

    /// Close the stream window: compute the lane time hidden by concurrent
    /// execution (queued serial seconds minus the window's wall time, its
    /// longest lane floored by the work-conserving bound — see
    /// [`crate::stream`]), credit it to the timeline as overlap and return
    /// it. The analogue of the device-wide sync point where all streams
    /// converge. No-op (0.0) when no window is open.
    pub fn join_streams(&self) -> f64 {
        let mut st = self.shared.state.lock();
        if !st.stream.open {
            return 0.0;
        }
        let credit = st.stream.overlap_s(&self.shared.profile);
        st.timeline.credit_overlap(credit);
        st.stream = StreamWindow::default();
        credit
    }

    /// Snapshot of the modeled timeline.
    pub fn timeline(&self) -> Timeline {
        self.shared.state.lock().timeline.clone()
    }

    /// Total counters across all phases.
    pub fn counters(&self) -> Counters {
        self.shared.state.lock().timeline.total_counters()
    }

    /// Snapshot of everything the profiler recorded since the last reset.
    pub fn profiler(&self) -> ProfilerLog {
        self.shared.state.lock().profiler.snapshot()
    }

    /// Bound the profiler's ring buffers (records beyond the bound evict
    /// the oldest entry and are counted, see [`ProfilerLog::is_complete`]).
    pub fn set_profiler_capacity(&self, kernels: usize, allocs: usize, transfers: usize) {
        self.shared
            .state
            .lock()
            .profiler
            .set_capacity(kernels, allocs, transfers);
    }

    /// Drop all profiler records (capacities persist).
    pub fn reset_profiler(&self) {
        self.shared.state.lock().profiler.clear();
    }

    /// Reset the timeline (counters and modeled time) and the profiler
    /// records, without touching the allocator pool. Used between benchmark
    /// repetitions — the two views always cover the same span.
    pub fn reset_timeline(&self) {
        let mut st = self.shared.state.lock();
        st.timeline = Timeline::new();
        st.profiler.clear();
        st.restart_clock();
    }

    /// Reset timeline, profiler *and* drop all pooled memory (full device
    /// reset).
    pub fn reset(&self) {
        let mut st = self.shared.state.lock();
        st.timeline = Timeline::new();
        st.profiler.clear();
        st.pool.clear();
        st.restart_clock();
    }

    /// Bytes currently allocated on the device.
    pub fn bytes_in_use(&self) -> usize {
        self.shared.state.lock().bytes_in_use
    }

    /// High-water mark of device memory use.
    pub fn peak_bytes(&self) -> usize {
        self.shared.state.lock().peak_bytes
    }

    /// Derived throughput metrics (the paper's Table 3 quantities).
    pub fn metrics(&self) -> DeviceMetrics {
        let tl = self.timeline();
        DeviceMetrics::from_timeline(&tl)
    }
}

/// Derived whole-run metrics, as reported in the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceMetrics {
    /// Total modeled seconds.
    pub elapsed_s: f64,
    /// DRAM read throughput in GB/s (`dram_read_throughtput` in the paper).
    pub dram_read_gbs: f64,
    /// DRAM write throughput in GB/s.
    pub dram_write_gbs: f64,
    /// Sustained GFLOP/s over the run (CUDA + tensor cores).
    pub gflops: f64,
    /// Number of kernel launches.
    pub kernel_launches: u64,
    /// Device allocations that went to the driver.
    pub device_allocs: u64,
    /// Device allocations served by the caching pool.
    pub cache_hits: u64,
}

impl DeviceMetrics {
    /// Compute metrics from a timeline snapshot.
    pub fn from_timeline(tl: &Timeline) -> Self {
        let c = tl.total_counters();
        let t = tl.total_seconds();
        let inv = if t > 0.0 { 1.0 / t } else { 0.0 };
        DeviceMetrics {
            elapsed_s: t,
            dram_read_gbs: c.dram_read_bytes as f64 * inv / 1e9,
            dram_write_gbs: c.dram_write_bytes as f64 * inv / 1e9,
            gflops: (c.flops + c.tensor_flops) as f64 * inv / 1e9,
            kernel_launches: c.kernel_launches,
            device_allocs: c.device_allocs,
            cache_hits: c.device_alloc_cache_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_model::Phase;

    #[test]
    fn alloc_tracks_bytes_and_oom() {
        let dev = Device::v100();
        let cap = dev.profile().global_mem;
        let a = dev.alloc::<f32>(1024).unwrap();
        assert_eq!(dev.bytes_in_use(), 4096);
        let err = match dev.alloc::<u8>(cap) {
            Err(e) => e,
            Ok(_) => panic!("allocation over capacity must fail"),
        };
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        drop(a);
        assert_eq!(dev.bytes_in_use(), 0);
        assert_eq!(dev.peak_bytes(), 4096);
    }

    #[test]
    fn caching_mode_recycles_and_counts_hits() {
        let dev = Device::v100();
        let buf = dev.alloc::<f32>(1000).unwrap();
        drop(buf);
        let _buf2 = dev.alloc::<f32>(1000).unwrap();
        let c = dev.counters();
        assert_eq!(c.device_allocs, 1);
        assert_eq!(c.device_alloc_cache_hits, 1);
    }

    #[test]
    fn realloc_mode_never_hits() {
        let dev = Device::v100();
        dev.set_alloc_mode(AllocMode::Realloc);
        let buf = dev.alloc::<f32>(1000).unwrap();
        drop(buf);
        let _buf2 = dev.alloc::<f32>(1000).unwrap();
        let c = dev.counters();
        assert_eq!(c.device_allocs, 2);
        assert_eq!(c.device_alloc_cache_hits, 0);
    }

    #[test]
    fn caching_is_modeled_cheaper_than_realloc() {
        let run = |mode| {
            let dev = Device::v100();
            dev.set_alloc_mode(mode);
            for _ in 0..100 {
                let b = dev.alloc::<f32>(4096).unwrap();
                drop(b);
            }
            dev.timeline().total_seconds()
        };
        assert!(run(AllocMode::Caching) < run(AllocMode::Realloc));
    }

    #[test]
    fn clone_shares_state() {
        let dev = Device::v100();
        let dev2 = dev.clone();
        dev.synchronize(Phase::Other);
        assert!(dev2.timeline().total_seconds() > 0.0);
    }

    #[test]
    fn reset_timeline_keeps_pool() {
        let dev = Device::v100();
        let b = dev.alloc::<f32>(64).unwrap();
        drop(b);
        dev.reset_timeline();
        assert_eq!(dev.timeline().total_seconds(), 0.0);
        let _b2 = dev.alloc::<f32>(64).unwrap();
        assert_eq!(dev.counters().device_alloc_cache_hits, 1, "pool survived");
    }

    #[test]
    fn metrics_derive_throughputs() {
        let mut tl = Timeline::new();
        let mut c = Counters::new();
        c.dram_read_bytes = 2_000_000_000;
        c.flops = 5_000_000_000;
        tl.charge(Phase::SwarmUpdate, 2.0, c);
        let m = DeviceMetrics::from_timeline(&tl);
        assert!((m.dram_read_gbs - 1.0).abs() < 1e-9);
        assert!((m.gflops - 2.5).abs() < 1e-9);
        assert!((m.elapsed_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_on_empty_timeline_are_zero() {
        let m = DeviceMetrics::from_timeline(&Timeline::new());
        assert_eq!(m.gflops, 0.0);
        assert_eq!(m.elapsed_s, 0.0);
    }

    #[test]
    fn planned_launch_fault_fires_once_then_clears() {
        use crate::fault::FaultPlan;
        let dev = Device::v100();
        dev.set_fault_plan(FaultPlan::new().with_transient_launch(2));
        assert!(dev.begin_launch().is_ok(), "launch 1 clean");
        let err = dev.begin_launch().unwrap_err();
        assert_eq!(
            err,
            GpuError::TransientLaunch {
                device: 0,
                launch: 2
            }
        );
        assert!(err.is_transient());
        assert!(dev.begin_launch().is_ok(), "retry (launch 3) clean");
        let stats = dev.fault_stats();
        assert_eq!((stats.launches, stats.injected), (3, 1));
    }

    #[test]
    fn planned_alloc_fault_is_transient_not_oom() {
        use crate::fault::FaultPlan;
        let dev = Device::v100();
        dev.set_fault_plan(FaultPlan::new().with_transient_alloc(1));
        let err = match dev.alloc::<f32>(16) {
            Err(e) => e,
            Ok(_) => panic!("planned alloc fault must fire"),
        };
        assert_eq!(
            err,
            GpuError::TransientAlloc {
                device: 0,
                alloc: 1
            }
        );
        assert!(err.is_transient());
        let buf = dev.alloc::<f32>(16);
        assert!(buf.is_ok(), "retry allocates");
        assert_eq!(dev.bytes_in_use(), 64, "failed alloc reserved nothing");
    }

    #[test]
    fn corrupted_upload_leaves_device_data_intact() {
        use crate::fault::FaultPlan;
        let dev = Device::v100();
        let mut buf = dev.alloc_from_slice(&[1.0f32, 2.0]).unwrap();
        dev.set_fault_plan(FaultPlan::new().with_corrupted_transfer(1));
        let err = buf.upload(&[9.0, 9.0]).unwrap_err();
        assert!(matches!(
            err,
            GpuError::CorruptedTransfer { transfer: 1, .. }
        ));
        assert_eq!(buf.as_slice(), &[1.0, 2.0], "no partial write");
        buf.upload(&[9.0, 9.0]).unwrap();
        assert_eq!(buf.as_slice(), &[9.0, 9.0], "retry lands");
    }

    #[test]
    fn device_loss_is_permanent_across_all_operations() {
        use crate::fault::FaultPlan;
        let dev = Device::with_index(GpuProfile::tesla_v100(), LinkProfile::pcie3_x16(), 3);
        dev.set_fault_plan(FaultPlan::new().with_device_loss_at_launch(1));
        assert_eq!(dev.begin_launch().unwrap_err(), GpuError::DeviceLost(3));
        assert!(dev.is_lost());
        assert_eq!(dev.begin_launch().unwrap_err(), GpuError::DeviceLost(3));
        let err = match dev.alloc::<f32>(4) {
            Err(e) => e,
            Ok(_) => panic!("lost device must not allocate"),
        };
        assert_eq!(err, GpuError::DeviceLost(3));
        assert!(!GpuError::DeviceLost(3).is_transient());
    }

    #[test]
    fn clear_fault_plan_stops_injection() {
        use crate::fault::FaultPlan;
        let dev = Device::v100();
        dev.set_fault_plan(FaultPlan::new().with_transient_launch(1));
        dev.clear_fault_plan();
        assert!(dev.begin_launch().is_ok());
    }

    #[test]
    fn charge_kernel_records_name_geometry_and_metrics() {
        let dev = Device::v100();
        dev.begin_launch().unwrap();
        dev.charge_kernel(&KernelDesc::simple("probe", Phase::Eval, 2, 8, 4, 1000));
        let log = dev.profiler();
        assert_eq!(log.kernels.len(), 1);
        let k = &log.kernels[0];
        assert_eq!(k.name, "probe");
        assert_eq!(k.phase, Phase::Eval);
        assert_eq!(k.ordinal, 1);
        assert_eq!(k.flops, 2000);
        assert_eq!(k.dram_read_bytes, 8000);
        // config = None → one thread per element, 256-wide blocks.
        assert_eq!(k.block, [256, 1, 1]);
        assert_eq!(k.grid, [4, 1, 1]);
        assert!(k.occupancy > 0.0 && k.occupancy <= 1.0);
        assert!(k.bw_fraction >= 0.0 && k.bw_fraction < 1.0);
        assert!(k.duration_s > 0.0);
    }

    #[test]
    fn profiler_counters_match_timeline_counters() {
        let dev = Device::v100();
        let b = dev.alloc::<f32>(256).unwrap();
        drop(b);
        let mut b2 = dev.alloc::<f32>(256).unwrap();
        b2.upload(&[0.5f32; 256]).unwrap();
        dev.begin_launch().unwrap();
        dev.charge_kernel(&KernelDesc::simple("k", Phase::SwarmUpdate, 1, 4, 4, 256));
        let _ = b2.download();
        let from_records = dev.profiler().total_counters();
        let from_timeline = dev.counters();
        assert_eq!(from_records, from_timeline);
    }

    #[test]
    fn marked_redundant_launch_charges_recovery_not_natural_phase() {
        let dev = Device::v100();
        dev.mark_redundant(1, 0, 0);
        dev.begin_launch().unwrap();
        dev.charge_kernel(&KernelDesc::simple("redo", Phase::Eval, 1, 4, 4, 64));
        // The flag covers every charge until the next gate, then clears.
        dev.begin_launch().unwrap();
        dev.charge_kernel(&KernelDesc::simple("fresh", Phase::Eval, 1, 4, 4, 64));
        let tl = dev.timeline();
        assert_eq!(tl.phase_counters(Phase::Recovery).kernel_launches, 1);
        assert_eq!(tl.phase_counters(Phase::Eval).kernel_launches, 1);
        let log = dev.profiler();
        assert_eq!(log.kernels[0].phase, Phase::Recovery);
        assert_eq!(log.kernels[1].phase, Phase::Eval);
    }

    #[test]
    fn marked_redundant_alloc_and_upload_charge_recovery() {
        let dev = Device::v100();
        dev.mark_redundant(0, 1, 1);
        let mut b = dev.alloc::<f32>(64).unwrap();
        b.upload(&[1.0f32; 64]).unwrap();
        let mut b2 = dev.alloc::<f32>(64).unwrap();
        b2.upload(&[2.0f32; 64]).unwrap();
        let tl = dev.timeline();
        let rec = tl.phase_counters(Phase::Recovery);
        assert_eq!(rec.device_allocs, 1);
        assert_eq!(rec.transfers, 1);
        let other = tl.phase_counters(Phase::Other);
        assert_eq!(other.device_allocs, 1);
        assert_eq!(other.transfers, 1);
    }

    #[test]
    fn persistent_region_charges_one_launch_and_exact_counters() {
        let run = |persistent: bool| {
            let dev = Device::v100();
            if persistent {
                dev.begin_persistent("persistent_probe", Phase::SwarmUpdate, 256)
                    .unwrap();
            }
            for _ in 0..10 {
                dev.begin_launch().unwrap();
                dev.charge_kernel(&KernelDesc::simple("k", Phase::SwarmUpdate, 2, 8, 4, 256));
                dev.synchronize(Phase::SwarmUpdate);
            }
            if persistent {
                dev.end_persistent();
            }
            (
                dev.counters(),
                dev.profiler(),
                dev.timeline().total_seconds(),
            )
        };
        let (base_c, base_log, base_t) = run(false);
        let (pers_c, pers_log, pers_t) = run(true);
        assert_eq!(base_c.kernel_launches, 10);
        assert_eq!(pers_c.kernel_launches, 1, "one region launch per slice");
        // Every non-launch counter is byte-exact between the two modes.
        let neutral = |mut c: Counters| {
            c.kernel_launches = 0;
            c
        };
        assert_eq!(neutral(base_c), neutral(pers_c));
        // Profiler totals agree with the timeline in both modes.
        assert_eq!(base_log.total_counters(), base_c);
        assert_eq!(pers_log.total_counters(), pers_c);
        // The device-resident run is strictly cheaper: per-pass launch
        // overhead is gone and syncs are grid-scope.
        assert!(pers_t < base_t);
        // Inner passes record zero launches; the region record carries one.
        assert_eq!(pers_log.kernels[0].name, "persistent_probe");
        assert_eq!(pers_log.kernels[0].launches, 1);
        assert_eq!(pers_log.kernels[1..].len(), 10, "10 passes recorded");
        assert!(pers_log.kernels[1..].iter().all(|k| k.launches == 0));
        // The timeline holds the recorded kernels plus 10 barriers: host
        // syncs per launch, grid-wide barriers inside the region.
        let kernel_s = |log: &ProfilerLog| log.kernels.iter().map(|k| k.duration_s).sum::<f64>();
        let barriers_s = |t: f64, log: &ProfilerLog| t - kernel_s(log);
        assert!((barriers_s(base_t, &base_log) - 10.0 * SYNC_OVERHEAD_S).abs() < 1e-12);
        assert!((barriers_s(pers_t, &pers_log) - 10.0 * GRID_SYNC_OVERHEAD_S).abs() < 1e-12);
    }

    #[test]
    fn persistent_region_keeps_fault_ordinals_aligned() {
        use crate::fault::FaultPlan;
        let dev = Device::v100();
        dev.set_fault_plan(FaultPlan::new().with_transient_launch(3));
        dev.begin_persistent("r", Phase::SwarmUpdate, 64).unwrap();
        assert!(dev.begin_launch().is_ok(), "ordinal 1");
        assert!(dev.begin_launch().is_ok(), "ordinal 2");
        let err = dev.begin_launch().unwrap_err();
        assert!(err.is_transient(), "region open consumed no ordinal: {err}");
        dev.end_persistent();
    }

    #[test]
    fn persistent_region_rejects_nesting_and_over_residency() {
        let dev = Device::v100();
        let max = dev.profile().max_resident_threads();
        assert!(matches!(
            dev.begin_persistent("r", Phase::Other, max + 1),
            Err(GpuError::InvalidLaunch(_))
        ));
        assert!(matches!(
            dev.begin_persistent("r", Phase::Other, 0),
            Err(GpuError::InvalidLaunch(_))
        ));
        dev.begin_persistent("r", Phase::Other, max).unwrap();
        assert!(dev.in_persistent());
        assert!(matches!(
            dev.begin_persistent("r2", Phase::Other, 1),
            Err(GpuError::InvalidLaunch(_))
        ));
        dev.end_persistent();
        assert!(!dev.in_persistent());
        // Closing with nothing open is a harmless no-op.
        dev.end_persistent();
        assert!(!dev.in_persistent());
    }

    #[test]
    fn lost_device_refuses_new_region_but_closes_cleanly() {
        use crate::fault::FaultPlan;
        let dev = Device::v100();
        dev.begin_persistent("r", Phase::Other, 64).unwrap();
        dev.set_fault_plan(FaultPlan::new().with_device_loss_at_launch(1));
        let _ = dev.begin_launch();
        assert!(dev.is_lost());
        dev.end_persistent();
        assert!(!dev.in_persistent());
        assert_eq!(dev.profiler().kernels.len(), 1, "only the region record");
        assert!(matches!(
            dev.begin_persistent("r", Phase::Other, 64),
            Err(GpuError::DeviceLost(_))
        ));
    }

    #[test]
    fn download_packed_is_one_transfer_and_one_pack_pass() {
        let run = |in_region: bool| {
            let dev = Device::v100();
            let a = dev.alloc_from_slice(&[1.0f32, 2.0, 3.0]).unwrap();
            let b = dev.alloc_from_slice(&[4.0f32; 5]).unwrap();
            dev.reset_profiler();
            let before = dev.counters();
            let gates = dev.fault_stats();
            if in_region {
                dev.begin_persistent("r", Phase::Recovery, 64).unwrap();
            }
            let out = dev.download_packed(Phase::Recovery, &[&a, &b]);
            dev.end_persistent();
            assert_eq!(out, vec![vec![1.0, 2.0, 3.0], vec![4.0; 5]]);
            assert_eq!(dev.fault_stats(), gates, "no fault gate");
            let log = dev.profiler();
            assert_eq!(log.transfers.len(), 1);
            assert_eq!(log.transfers[0].bytes, 32);
            assert_eq!(log.transfers[0].dir, TransferDirection::D2H);
            assert_eq!(log.transfers[0].phase, Phase::Recovery);
            let packs: Vec<_> = log
                .kernels
                .iter()
                .filter(|k| k.name == "checkpoint_pack")
                .collect();
            assert_eq!(packs.len(), 1);
            assert_eq!(packs[0].phase, Phase::Recovery);
            let after = dev.counters();
            assert_eq!(after.transfers - before.transfers, 1);
            assert_eq!(after.d2h_bytes - before.d2h_bytes, 32);
            packs[0].launches
        };
        assert_eq!(run(false), 1, "outside a region: one launch");
        assert_eq!(run(true), 0, "inside a region: an inner pass");
    }

    #[test]
    #[should_panic(expected = "must live on device")]
    fn download_packed_rejects_foreign_buffers() {
        let dev = Device::v100();
        let other = Device::v100();
        let b = other.alloc::<f32>(4).unwrap();
        let _ = dev.download_packed(Phase::Recovery, &[&b]);
    }

    #[test]
    fn reset_timeline_clears_profiler_too() {
        let dev = Device::v100();
        dev.begin_launch().unwrap();
        dev.charge_kernel(&KernelDesc::simple("k", Phase::Eval, 1, 4, 4, 64));
        assert_eq!(dev.profiler().kernels.len(), 1);
        dev.reset_timeline();
        assert!(dev.profiler().is_empty());
        assert_eq!(dev.timeline().total_seconds(), 0.0);
    }
}
