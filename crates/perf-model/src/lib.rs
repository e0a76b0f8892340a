//! Deterministic analytical performance model for the FastPSO reproduction.
//!
//! The original paper measured wall-clock time on a dedicated testbed
//! (2× Xeon E5-2640 v4, 256 GB RAM, one Tesla V100 16 GB). This environment
//! has neither the GPU nor a multi-core CPU, so wall-clock cannot reproduce
//! any of the paper's ratios. Instead, every implementation in this
//! workspace is instrumented to emit *operation counters* (floating point
//! operations, bytes moved per memory space, kernel launches, allocations,
//! interpreter dispatch events, host↔device transfers), and this crate
//! converts those counters into *modeled seconds* using calibrated profiles
//! of the paper's hardware.
//!
//! The model is intentionally simple and transparent — a roofline-style
//! `max(compute, memory)` per kernel with an occupancy/latency-hiding term —
//! because the paper's headline results are consequences of exactly those
//! architectural quantities:
//!
//! * element-wise parallelism saturates the GPU while particle-per-thread
//!   parallelism leaves it latency-bound (Table 1, Figure 4);
//! * the swarm update is memory-bound, so caching and coalescing matter
//!   (Tables 3 and 4);
//! * Python libraries pay per-op interpreter dispatch and temporary-array
//!   churn (Table 1's two-orders-of-magnitude column).
//!
//! Everything here is pure arithmetic over explicit inputs: given the same
//! counters and profile, the model produces the same answer on any host.

//! # Example
//!
//! ```
//! use perf_model::{gpu_kernel_time, GpuKernelWork, Testbed};
//!
//! let tb = Testbed::paper();
//! // One coalesced streaming kernel over 1M elements, 16 B/element:
//! let work = GpuKernelWork::elementwise(1_000_000, 4_000_000, 12_000_000, 4_000_000);
//! let secs = gpu_kernel_time(&tb.gpu, &work);
//! assert!(secs > 0.0 && secs < 1e-3, "a few tens of microseconds: {secs}");
//! ```

pub mod counters;
pub mod model;
pub mod profile;
pub mod record;
pub mod tenant;
pub mod timeline;
pub mod trace;

pub use counters::{Counters, MemoryPattern, TransferDirection};
pub use model::{
    cpu_time, gpu_kernel_time, interpreter_time, transfer_time, CpuWork, GpuKernelWork,
};
pub use profile::{CpuProfile, GpuProfile, InterpreterProfile, LinkProfile, Testbed};
pub use record::{AllocKind, AllocRecord, KernelRecord, KernelStats, ProfilerLog, TransferRecord};
pub use tenant::{JobOutcome, JobRecord, TenantSummary};
pub use timeline::{Phase, Timeline};
pub use trace::{chrome_trace_json, gpu_summary};
