//! Shared-memory tiled element-wise kernels (paper §3.5, "Supporting shared
//! memory").
//!
//! The paper segments the swarm matrices into `(TILE_SIZE, TILE_SIZE)`
//! sub-matrices, stages them in shared memory, performs the element-wise
//! operation there and writes results back to global memory. The simulator
//! reproduces that pipeline faithfully: input tiles (and the output tile's
//! previous contents) are *really copied* into block-local scratch, the
//! user's per-element function reads only the staged copies, and the launch
//! is charged shared-memory traffic on top of the unavoidable global
//! read/write.

use crate::device::Device;
use crate::error::GpuError;
use crate::launch::{KernelCost, KernelDesc};
use perf_model::{GpuProfile, Phase};

/// Default tile edge used by the shared-memory swarm update; a 32×32 f32
/// tile is 4 KiB, letting several blocks stage multiple operand tiles per SM.
pub const TILE_SIZE: usize = 32;

impl KernelDesc {
    /// The launch [`Device::launch_tiled`] issues over `elems` elements
    /// and `inputs` input arrays: each input and the old output read once,
    /// the result written once, every staged byte crossing shared memory
    /// twice. Cost models price a tiled launch from it.
    pub fn tiled(
        name: &'static str,
        phase: Phase,
        flops_per_elem: u64,
        inputs: usize,
        elems: u64,
        profile: &GpuProfile,
    ) -> KernelDesc {
        let per_elem_read = (inputs as u64 + 1) * 4;
        let cost = KernelCost {
            flops: flops_per_elem,
            tensor_flops: 0,
            dram_read: per_elem_read,
            dram_write: 4,
            shared: 2 * (per_elem_read + 4),
        };
        KernelDesc::resource_aware(name, phase, cost, elems, profile)
    }
}

/// Staged view of one tile, handed to the per-element function.
pub struct TileCtx<'a> {
    /// Previous contents of the output tile (staged copy).
    pub out_old: &'a [f32],
    /// Staged copies of each input tile, in caller order.
    pub inputs: &'a [Vec<f32>],
    /// First global element index of this tile.
    pub tile_start: usize,
}

impl Device {
    /// Tiled element-wise update through shared memory:
    /// `out[g] = f(g, local, ctx)` where `g = ctx.tile_start + local`.
    ///
    /// All `inputs` must have the same length as `out`. `tile_elems` is the
    /// flat tile size (`TILE_SIZE × TILE_SIZE` for the paper's square
    /// tiles); the staged working set must fit the device's shared memory.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_tiled<F>(
        &self,
        name: &'static str,
        phase: Phase,
        flops_per_elem: u64,
        tile_elems: usize,
        inputs: &[&[f32]],
        out: &mut [f32],
        f: F,
    ) -> Result<(), GpuError>
    where
        F: Fn(usize, usize, &TileCtx<'_>) -> f32 + Sync,
    {
        self.begin_launch()?;
        if tile_elems == 0 {
            return Err(GpuError::InvalidLaunch("zero tile size".into()));
        }
        for (k, input) in inputs.iter().enumerate() {
            if input.len() != out.len() {
                return Err(GpuError::ShapeMismatch {
                    expected: out.len(),
                    actual: input.len(),
                    what: if k == 0 {
                        "launch_tiled input 0"
                    } else {
                        "launch_tiled input"
                    },
                });
            }
        }
        let staged_bytes = (inputs.len() + 1) * tile_elems * 4;
        let profile = self.profile();
        if staged_bytes > profile.shared_mem_per_sm {
            return Err(GpuError::InvalidLaunch(format!(
                "tile working set {staged_bytes} B exceeds shared memory {} B",
                profile.shared_mem_per_sm
            )));
        }

        let desc = KernelDesc::tiled(
            name,
            phase,
            flops_per_elem,
            inputs.len(),
            out.len() as u64,
            &profile,
        );
        self.charge_kernel(&desc);

        out.chunks_mut(tile_elems)
            .enumerate()
            .for_each(|(tile_idx, out_tile)| {
                let tile_start = tile_idx * tile_elems;
                let len = out_tile.len();
                // Stage: global → shared (real copies).
                let out_old = out_tile.to_vec();
                let staged: Vec<Vec<f32>> = inputs
                    .iter()
                    .map(|input| input[tile_start..tile_start + len].to_vec())
                    .collect();
                let ctx = TileCtx {
                    out_old: &out_old,
                    inputs: &staged,
                    tile_start,
                };
                // Compute within the tile; write back: shared → global.
                for (local, slot) in out_tile.iter_mut().enumerate() {
                    *slot = f(tile_start + local, local, &ctx);
                }
            });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiled_update_matches_flat_computation() {
        let dev = Device::v100();
        let n = 1000; // deliberately not a multiple of the tile size
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        let mut out = vec![1.0f32; n];
        dev.launch_tiled(
            "axpy",
            Phase::SwarmUpdate,
            2,
            TILE_SIZE * TILE_SIZE,
            &[&a, &b],
            &mut out,
            |_g, local, ctx| ctx.out_old[local] + ctx.inputs[0][local] * 0.5 + ctx.inputs[1][local],
        )
        .unwrap();
        for (i, &v) in out.iter().enumerate() {
            let expect = 1.0 + i as f32 * 0.5 + 2.0 * i as f32;
            assert_eq!(v, expect, "mismatch at {i}");
        }
    }

    #[test]
    fn global_and_local_indices_are_consistent() {
        let dev = Device::v100();
        let n = 100;
        let mut out = vec![0.0f32; n];
        dev.launch_tiled(
            "idx",
            Phase::Other,
            0,
            16,
            &[],
            &mut out,
            |g, local, ctx| {
                assert_eq!(g, ctx.tile_start + local);
                g as f32
            },
        )
        .unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as f32));
    }

    #[test]
    fn mismatched_input_length_is_rejected() {
        let dev = Device::v100();
        let a = vec![0.0f32; 5];
        let mut out = vec![0.0f32; 6];
        let err = dev
            .launch_tiled("bad", Phase::Other, 0, 4, &[&a], &mut out, |_, _, _| 0.0)
            .unwrap_err();
        assert!(matches!(err, GpuError::ShapeMismatch { .. }));
    }

    #[test]
    fn oversized_tile_is_rejected() {
        let dev = Device::v100();
        let mut out = vec![0.0f32; 10];
        let huge = dev.profile().shared_mem_per_sm; // elems → 4x bytes over
        let err = dev
            .launch_tiled("huge", Phase::Other, 0, huge, &[], &mut out, |_, _, _| 0.0)
            .unwrap_err();
        assert!(matches!(err, GpuError::InvalidLaunch(_)));
    }

    #[test]
    fn shared_traffic_is_charged() {
        let dev = Device::v100();
        let a = vec![0.0f32; 64];
        let mut out = vec![0.0f32; 64];
        dev.launch_tiled(
            "t",
            Phase::SwarmUpdate,
            1,
            16,
            &[&a],
            &mut out,
            |_, _, _| 0.0,
        )
        .unwrap();
        let c = dev.counters();
        assert!(c.shared_bytes > 0);
        assert_eq!(c.dram_write_bytes, 64 * 4);
        assert_eq!(c.dram_read_bytes, 64 * 8); // input + old output
    }
}
