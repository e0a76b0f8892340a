//! Launch configurations, kernel descriptors and per-element cost
//! annotations.
//!
//! FastPSO's "GPU resource-aware thread creation" (paper §3, technique i)
//! lives here: [`LaunchConfig::resource_aware`] clamps the number of
//! launched threads to what the device can keep resident, turning a
//! one-thread-per-element launch into a grid-stride loop whose per-thread
//! workload is the paper's `tw = n·d / mem` (Equation 3 analogue).

use perf_model::{GpuKernelWork, GpuProfile, MemoryPattern, Phase};

/// Device allocation strategy (paper §4.4, Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocMode {
    /// Allocate a buffer once and recycle it through the caching pool
    /// (FastPSO's default behaviour).
    #[default]
    Caching,
    /// Release to the driver on drop and re-allocate each time
    /// (the "w/ reallocation" ablation arm).
    Realloc,
}

/// A 3-component CUDA dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim3 {
    /// Extent along x (the fastest-varying axis).
    pub x: u32,
    /// Extent along y.
    pub y: u32,
    /// Extent along z.
    pub z: u32,
}

impl Dim3 {
    /// A 1-D dimension `(x, 1, 1)`.
    pub const fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D dimension `(x, y, 1)`.
    pub const fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Total threads/blocks described by this dimension.
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

/// Grid and block dimensions of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid: Dim3,
    /// Threads per block.
    pub block: Dim3,
}

/// Default CUDA block size used throughout the workspace.
pub const DEFAULT_BLOCK: u32 = 256;

/// How many times the device's resident-thread capacity a grid-stride launch
/// oversubscribes by. A small factor keeps tail effects negligible without
/// paying for excess thread creation — the failure mode the paper's
/// technique (i) exists to prevent.
pub const OVERSUBSCRIPTION: u64 = 2;

impl LaunchConfig {
    /// One logical thread per element, `block_size`-wide blocks.
    pub fn one_per_element(elems: u64, block_size: u32) -> Self {
        let block_size = block_size.max(1);
        let blocks = elems.div_ceil(block_size as u64).max(1);
        LaunchConfig {
            grid: Dim3::x(blocks.min(u32::MAX as u64) as u32),
            block: Dim3::x(block_size),
        }
    }

    /// Resource-aware configuration (paper technique i): launch at most
    /// `OVERSUBSCRIPTION ×` the device's resident-thread capacity and let
    /// each thread grid-stride over `tw = elems / launched` elements.
    pub fn resource_aware(profile: &perf_model::GpuProfile, elems: u64) -> Self {
        let cap = profile.max_resident_threads() * OVERSUBSCRIPTION;
        let threads = elems.min(cap).max(1);
        Self::one_per_element(threads, DEFAULT_BLOCK)
    }

    /// Total threads this configuration launches.
    pub fn threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }

    /// Per-thread workload when covering `elems` elements with a
    /// grid-stride loop.
    pub fn thread_workload(&self, elems: u64) -> u64 {
        elems.div_ceil(self.threads().max(1))
    }
}

/// Per-element cost annotation of a kernel.
///
/// Kernels in this simulator execute real Rust closures, so the simulator
/// cannot observe their internal operation mix; instead each launch carries
/// an explicit, reviewable cost descriptor. All quantities are *per
/// element processed*.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelCost {
    /// FP32 operations on CUDA cores.
    pub flops: u64,
    /// Mixed-precision tensor-core operations.
    pub tensor_flops: u64,
    /// Bytes read from global memory.
    pub dram_read: u64,
    /// Bytes written to global memory.
    pub dram_write: u64,
    /// Bytes staged through shared memory (reads + writes).
    pub shared: u64,
}

impl KernelCost {
    /// Cost of a coalesced element-wise kernel: `flops` per element,
    /// `read`/`write` bytes of global traffic per element.
    pub const fn elementwise(flops: u64, read: u64, write: u64) -> Self {
        KernelCost {
            flops,
            tensor_flops: 0,
            dram_read: read,
            dram_write: write,
            shared: 0,
        }
    }

    /// Add `elems` elements at this cost onto `work`'s totals. Launch
    /// geometry and access pattern are left alone: the elements belong to
    /// the launch `work` describes.
    pub(crate) fn add_to(&self, work: &mut GpuKernelWork, elems: u64) {
        work.flops += self.flops * elems;
        work.tensor_flops += self.tensor_flops * elems;
        work.dram_read_bytes += self.dram_read * elems;
        work.dram_write_bytes += self.dram_write * elems;
        work.shared_bytes += self.shared * elems;
    }
}

/// Complete descriptor of one kernel launch: identity, phase attribution,
/// per-element cost, element count, launch geometry and access pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Kernel name (diagnostics and traces).
    pub name: &'static str,
    /// Timeline phase the launch is charged to.
    pub phase: Phase,
    /// Per-element cost.
    pub cost: KernelCost,
    /// Logical elements the kernel covers.
    pub elems: u64,
    /// Logical threads (before resource-aware clamping). For element-wise
    /// kernels this equals `elems`; for particle-per-thread baselines it is
    /// the particle count.
    pub threads: u64,
    /// Actual launch geometry. `None` means "one thread per logical
    /// thread" (no resource-aware clamping) — used by baselines that do not
    /// implement technique (i).
    pub config: Option<LaunchConfig>,
    /// Global-memory access pattern.
    pub pattern: MemoryPattern,
}

impl KernelDesc {
    /// The gather pass of [`crate::Device::download_packed`]
    /// (`checkpoint_pack`): one thread per packed `f32`, reading it from
    /// its buffer and writing it to the staging block.
    pub fn checkpoint_pack(phase: Phase, elems: u64) -> KernelDesc {
        let f32_bytes = std::mem::size_of::<f32>() as u64;
        KernelDesc::elementwise("checkpoint_pack", phase, 0, f32_bytes, f32_bytes).over(elems)
    }

    /// A coalesced element-wise kernel over `elems` elements with
    /// `flops`/`read`/`write` per-element cost and one logical thread per
    /// element.
    pub fn elementwise(
        name: &'static str,
        phase: Phase,
        flops: u64,
        read: u64,
        write: u64,
    ) -> KernelDescBuilder {
        KernelDescBuilder {
            desc: KernelDesc {
                name,
                phase,
                cost: KernelCost::elementwise(flops, read, write),
                elems: 0,
                threads: 0,
                config: None,
                pattern: MemoryPattern::Coalesced,
            },
        }
    }

    /// A coalesced kernel over `elems` elements at `cost` each, one thread
    /// per element, grid clamped by [`LaunchConfig::resource_aware`].
    pub fn resource_aware(
        name: &'static str,
        phase: Phase,
        cost: KernelCost,
        elems: u64,
        profile: &GpuProfile,
    ) -> Self {
        KernelDesc {
            name,
            phase,
            cost,
            elems,
            threads: elems,
            config: Some(LaunchConfig::resource_aware(profile, elems)),
            pattern: MemoryPattern::Coalesced,
        }
    }

    /// Shorthand fully-specified constructor used widely in tests: an
    /// element-wise coalesced kernel over `elems` elements.
    pub fn simple(
        name: &'static str,
        phase: Phase,
        flops_per_elem: u64,
        read_per_elem: u64,
        write_per_elem: u64,
        elems: u64,
    ) -> Self {
        KernelDesc {
            name,
            phase,
            cost: KernelCost::elementwise(flops_per_elem, read_per_elem, write_per_elem),
            elems,
            threads: elems,
            config: None,
            pattern: MemoryPattern::Coalesced,
        }
    }

    /// Total work of this launch as a [`GpuKernelWork`] for the model.
    pub fn work(&self) -> GpuKernelWork {
        let launched = self.config.map(|c| c.threads()).unwrap_or(self.threads);
        GpuKernelWork {
            threads: self.threads,
            launched_threads: launched,
            flops: self.cost.flops * self.elems,
            tensor_flops: self.cost.tensor_flops * self.elems,
            dram_read_bytes: self.cost.dram_read * self.elems,
            dram_write_bytes: self.cost.dram_write * self.elems,
            shared_bytes: self.cost.shared * self.elems,
            pattern: self.pattern,
        }
    }
}

// NOTE: the paper's API exposes evaluation kernels through a schema; the
// builder below keeps descriptor construction readable at call sites.

/// Builder for [`KernelDesc`] (finish with [`KernelDescBuilder::over`]).
#[derive(Debug, Clone)]
pub struct KernelDescBuilder {
    desc: KernelDesc,
}

impl KernelDescBuilder {
    /// Set element count (and logical threads = elems).
    pub fn over(mut self, elems: u64) -> KernelDesc {
        self.desc.elems = elems;
        self.desc.threads = elems;
        self.desc
    }

    /// Set a non-default access pattern.
    pub fn pattern(mut self, p: MemoryPattern) -> Self {
        self.desc.pattern = p;
        self
    }

    /// Set per-element shared-memory traffic.
    pub fn shared(mut self, bytes: u64) -> Self {
        self.desc.cost.shared = bytes;
        self
    }

    /// Set per-element tensor-core ops.
    pub fn tensor(mut self, flops: u64) -> Self {
        self.desc.cost.tensor_flops = flops;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_model::GpuProfile;

    #[test]
    fn dim3_counts_multiply() {
        assert_eq!(Dim3::x(4).count(), 4);
        assert_eq!(Dim3::xy(4, 3).count(), 12);
        let d: Dim3 = 7u32.into();
        assert_eq!(d.count(), 7);
    }

    #[test]
    fn one_per_element_rounds_up_to_blocks() {
        let cfg = LaunchConfig::one_per_element(1000, 256);
        assert_eq!(cfg.grid.x, 4);
        assert_eq!(cfg.block.x, 256);
        assert_eq!(cfg.threads(), 1024);
    }

    #[test]
    fn one_per_element_handles_degenerate_inputs() {
        let cfg = LaunchConfig::one_per_element(0, 0);
        assert!(cfg.threads() >= 1);
    }

    #[test]
    fn resource_aware_clamps_huge_launches() {
        let gpu = GpuProfile::tesla_v100();
        let cfg = LaunchConfig::resource_aware(&gpu, 1_000_000_000);
        assert!(
            cfg.threads() <= gpu.max_resident_threads() * OVERSUBSCRIPTION + DEFAULT_BLOCK as u64
        );
        // ... but small launches are not inflated.
        let small = LaunchConfig::resource_aware(&gpu, 1000);
        assert!(small.threads() <= 1024);
    }

    #[test]
    fn thread_workload_matches_paper_formula() {
        let gpu = GpuProfile::tesla_v100();
        let elems = 5000u64 * 200; // n × d from the paper's defaults
        let cfg = LaunchConfig::resource_aware(&gpu, elems);
        // tw = n·d / launched, rounded up (paper Equation 3).
        assert_eq!(cfg.thread_workload(elems), elems.div_ceil(cfg.threads()));
        assert!(cfg.thread_workload(elems) >= 1);
        let big = 1_000_000_000u64;
        let cfg = LaunchConfig::resource_aware(&gpu, big);
        assert!(cfg.thread_workload(big) > 1);
    }

    #[test]
    fn kernel_desc_work_scales_cost_by_elems() {
        let d = KernelDesc::simple("k", Phase::SwarmUpdate, 2, 8, 4, 100);
        let w = d.work();
        assert_eq!(w.flops, 200);
        assert_eq!(w.dram_read_bytes, 800);
        assert_eq!(w.dram_write_bytes, 400);
        assert_eq!(w.threads, 100);
    }

    #[test]
    fn builder_sets_pattern_and_extras() {
        let d = KernelDesc::elementwise("k", Phase::Eval, 1, 4, 0)
            .pattern(MemoryPattern::Strided(200))
            .shared(8)
            .tensor(2)
            .over(10);
        assert_eq!(d.pattern, MemoryPattern::Strided(200));
        assert_eq!(d.work().shared_bytes, 80);
        assert_eq!(d.work().tensor_flops, 20);
    }
}
