//! A software CUDA-like GPU, built so that the FastPSO algorithm (ICPP '21)
//! can be expressed against the same execution model the paper targets —
//! grids of thread blocks, grid-stride loops, shared-memory tiles, warp-level
//! tensor-core fragments, a caching device allocator and explicit host↔device
//! transfers — on a machine with no physical GPU.
//!
//! The launch API is flat: element-wise launches ([`kernel`]), shared-memory
//! tiled launches ([`tiled`]), tensor-core element-wise launches ([`tensor`])
//! and a single-pass argmin ([`reduce`]). A persistent region
//! ([`Device::begin_persistent`]) keeps a loop of launches device-resident,
//! and a stream window ([`stream`]) lets independent launches overlap.
//!
//! Two things happen on every kernel launch:
//!
//! 1. the kernel body **really executes** (sequentially, on the calling host
//!    thread), so optimization results are genuine, bit-for-bit comparable
//!    to a scalar reference implementation; and
//! 2. the launch's work descriptor (threads, flops, bytes per memory space,
//!    access pattern) is priced by [`perf_model`] against a device profile
//!    (Tesla V100 by default) and charged to a per-phase [`Timeline`].
//!
//! The modeled timeline — not host wall-clock — is what the experiment
//! harness reports, which makes every benchmark deterministic and
//! independent of the host machine. See `DESIGN.md` §2 for why this
//! substitution preserves the paper's results.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{Device, KernelDesc, Phase};
//!
//! let dev = Device::v100();
//! let mut buf = dev.alloc_from_slice(&[1.0f32, 2.0, 3.0, 4.0]).unwrap();
//! // y[i] = 2 * x[i], one logical thread per element
//! let desc = KernelDesc::simple("scale", Phase::Other, 1, 4, 4, 4);
//! dev.launch_update(&desc, buf.as_mut_slice(), |_, x| 2.0 * x).unwrap();
//! assert_eq!(buf.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
//! assert!(dev.timeline().total_seconds() > 0.0);
//! ```

#![deny(missing_docs)]

pub mod alloc;
pub mod buffer;
pub mod device;
pub mod error;
pub mod fault;
pub mod health;
pub mod kernel;
pub mod launch;
pub mod lease;
pub mod multi;
pub mod profiler;
pub mod reduce;
pub mod stream;
pub mod sync;
pub mod tensor;
pub mod tiled;

pub use buffer::DeviceBuffer;
pub use device::{Device, DeviceMetrics, CACHE_HIT_COST_FRACTION, GRID_SYNC_OVERHEAD_S};
pub use error::GpuError;
pub use fault::{FaultPlan, FaultStats};
pub use health::{FleetHealth, HealthPolicy, HealthState};
pub use launch::{AllocMode, Dim3, KernelCost, KernelDesc, LaunchConfig};
pub use multi::DeviceGroup;
pub use perf_model::{
    chrome_trace_json, gpu_summary, AllocKind, AllocRecord, Counters, KernelRecord, KernelStats,
    MemoryPattern, Phase, ProfilerLog, Timeline, TransferDirection, TransferRecord,
};
pub use stream::{CopyTicket, COPY_LANE};
pub use tensor::{f16_bits_to_f32, f32_to_f16_bits, through_f16, Fragment, FRAGMENT_DIM};
