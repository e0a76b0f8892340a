//! Tensor-core emulation (paper §3.5, "Supporting tensor cores").
//!
//! Volta tensor cores execute warp-level 16×16 matrix multiply-accumulate
//! on f16 inputs with f32 accumulation. The paper maps the element-wise
//! swarm update onto them by treating the matrices as warp-level fragments:
//! operands are loaded into fragments (rounding through f16), the
//! element-wise combination runs fragment-by-fragment, and results are
//! copied back to global memory after tensor-core synchronization.
//!
//! The simulator reproduces both the *numerics* (inputs really are rounded
//! through IEEE binary16, so results differ from the f32 path exactly the
//! way they would on hardware) and the *cost* (the work is charged at
//! tensor-core throughput).

use crate::device::Device;
use crate::error::GpuError;
use crate::launch::{KernelCost, KernelDesc};
use perf_model::{GpuProfile, Phase};

/// Edge length of a tensor-core fragment (16×16 on Volta).
pub const FRAGMENT_DIM: usize = 16;

/// Number of elements in one fragment.
pub const FRAGMENT_ELEMS: usize = FRAGMENT_DIM * FRAGMENT_DIM;

/// Convert an `f32` to IEEE 754 binary16 bits, round-to-nearest-even.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: preserve NaN-ness with a quiet mantissa bit.
        return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
    }
    // Re-bias from 127 to 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal f16. Keep 10 mantissa bits, round to nearest even.
        let mant16 = mant >> 13;
        let rest = mant & 0x1fff;
        let half = 0x1000u32;
        let exp16 = ((unbiased + 15) as u32) << 10;
        let mut out = sign as u32 | exp16 | mant16;
        if rest > half || (rest == half && (mant16 & 1) == 1) {
            out += 1; // may carry into the exponent — that is correct
        }
        return out as u16;
    }
    if unbiased >= -24 {
        // Subnormal f16: value = m16 · 2⁻²⁴ with m16 = round(f · 2^(e+24)),
        // i.e. drop k = -e-1 bits of the 24-bit significand (k ∈ [14, 23]).
        let full_mant = mant | 0x0080_0000; // implicit leading 1
        let k = (-unbiased - 1) as u32;
        let mant16 = full_mant >> k;
        let rest = full_mant & ((1u32 << k) - 1);
        let half = 1u32 << (k - 1);
        let mut out = sign as u32 | mant16;
        if rest > half || (rest == half && (mant16 & 1) == 1) {
            out += 1;
        }
        return out as u16;
    }
    sign // underflow → ±0
}

/// Convert IEEE 754 binary16 bits to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: value = m · 2⁻²⁴. Normalize: with p the position of
            // m's top bit, value = 2^(p-24) · (1 + frac).
            let p = 31 - m.leading_zeros();
            let e = p + 127 - 24;
            let frac = (m << (23 - p)) & 0x007f_ffff;
            sign | (e << 23) | frac
        }
        (0x1f, 0) => sign | 0x7f80_0000,
        (0x1f, m) => sign | 0x7f80_0000 | (m << 13) | 0x0040_0000,
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// Round an `f32` through binary16 and back — the precision a value has
/// after being loaded into a tensor-core input fragment.
pub fn through_f16(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// A 16×16 warp-level matrix fragment with f32 storage and f16 input
/// semantics, mirroring `nvcuda::wmma::fragment`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fragment {
    data: [f32; FRAGMENT_ELEMS],
}

impl Default for Fragment {
    fn default() -> Self {
        Fragment {
            data: [0.0; FRAGMENT_ELEMS],
        }
    }
}

impl Fragment {
    /// Zero-filled accumulator fragment (`wmma::fill_fragment(frag, 0)`).
    pub fn zeroed() -> Self {
        Self::default()
    }

    /// Load a fragment from a row-major matrix slice with the given leading
    /// dimension, rounding every element through f16
    /// (`wmma::load_matrix_sync` on a `half` operand). Rows/cols outside
    /// the matrix load as zero, which is how ragged edges are padded.
    pub fn load(
        src: &[f32],
        rows: usize,
        cols: usize,
        row0: usize,
        col0: usize,
        ld: usize,
    ) -> Self {
        let mut f = Fragment::zeroed();
        for r in 0..FRAGMENT_DIM {
            for c in 0..FRAGMENT_DIM {
                let (gr, gc) = (row0 + r, col0 + c);
                if gr < rows && gc < cols {
                    f.data[r * FRAGMENT_DIM + c] = through_f16(src[gr * ld + gc]);
                }
            }
        }
        f
    }

    /// Store the fragment into a row-major matrix slice
    /// (`wmma::store_matrix_sync`); out-of-range elements are dropped.
    pub fn store(
        &self,
        dst: &mut [f32],
        rows: usize,
        cols: usize,
        row0: usize,
        col0: usize,
        ld: usize,
    ) {
        for r in 0..FRAGMENT_DIM {
            for c in 0..FRAGMENT_DIM {
                let (gr, gc) = (row0 + r, col0 + c);
                if gr < rows && gc < cols {
                    dst[gr * ld + gc] = self.data[r * FRAGMENT_DIM + c];
                }
            }
        }
    }

    /// Element access (row-major within the fragment).
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * FRAGMENT_DIM + c]
    }
}

impl KernelDesc {
    /// The launch [`Device::launch_tensor_elementwise`] issues over `elems`
    /// elements and `inputs` input arrays: tensor-core work, each input and
    /// the old output read once, the result written once, the fragments
    /// staged on-chip. Cost models price a tensor-core launch from it.
    pub fn tensor_elementwise(
        name: &'static str,
        phase: Phase,
        tensor_flops_per_elem: u64,
        inputs: usize,
        elems: u64,
        profile: &GpuProfile,
    ) -> KernelDesc {
        let per_elem_read = (inputs as u64 + 1) * 4;
        let cost = KernelCost {
            flops: 0,
            tensor_flops: tensor_flops_per_elem,
            dram_read: per_elem_read,
            dram_write: 4,
            shared: per_elem_read + 4,
        };
        KernelDesc::resource_aware(name, phase, cost, elems, profile)
    }
}

impl Device {
    /// Tensor-core element-wise update: `out[i] = f(i, rounded_inputs, old)`
    /// where every input value and the old output value have been rounded
    /// through f16 (fragment-load semantics) and the work is charged at
    /// tensor-core throughput.
    ///
    /// `f` receives the global element index, a slice of the f16-rounded
    /// input values at that element (caller order) and the f16-rounded old
    /// output value; it must return the new f32 value.
    pub fn launch_tensor_elementwise<F>(
        &self,
        name: &'static str,
        phase: Phase,
        tensor_flops_per_elem: u64,
        inputs: &[&[f32]],
        out: &mut [f32],
        f: F,
    ) -> Result<(), GpuError>
    where
        F: Fn(usize, &[f32], f32) -> f32 + Sync,
    {
        self.begin_launch()?;
        for input in inputs {
            if input.len() != out.len() {
                return Err(GpuError::ShapeMismatch {
                    expected: out.len(),
                    actual: input.len(),
                    what: "launch_tensor_elementwise",
                });
            }
        }
        let desc = KernelDesc::tensor_elementwise(
            name,
            phase,
            tensor_flops_per_elem,
            inputs.len(),
            out.len() as u64,
            &self.profile(),
        );
        self.charge_kernel(&desc);

        let n_inputs = inputs.len();
        out.chunks_mut(FRAGMENT_ELEMS)
            .enumerate()
            .for_each(|(frag_idx, out_frag)| {
                let start = frag_idx * FRAGMENT_ELEMS;
                let mut vals = vec![0.0f32; n_inputs];
                for (local, slot) in out_frag.iter_mut().enumerate() {
                    let g = start + local;
                    for (k, input) in inputs.iter().enumerate() {
                        vals[k] = through_f16(input[g]);
                    }
                    let old = through_f16(*slot);
                    *slot = f(g, &vals, old);
                }
            });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrip_exact_values() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.099975586] {
            assert_eq!(through_f16(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn f16_handles_specials() {
        assert!(through_f16(f32::NAN).is_nan());
        assert_eq!(through_f16(f32::INFINITY), f32::INFINITY);
        assert_eq!(through_f16(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert_eq!(
            through_f16(1e10),
            f32::INFINITY,
            "overflow saturates to inf"
        );
        assert_eq!(through_f16(1e-30), 0.0, "deep underflow flushes to zero");
        assert_eq!(through_f16(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn f16_rounding_error_is_bounded() {
        // Relative error of binary16 rounding is at most 2^-11 for normals.
        let mut x = 0.0001f32;
        while x < 60000.0 {
            let r = through_f16(x);
            let rel = ((r - x) / x).abs();
            assert!(rel <= 1.0 / 2048.0 + 1e-7, "x={x}, r={r}, rel={rel}");
            x *= 1.7;
        }
    }

    #[test]
    fn f16_subnormals_roundtrip() {
        // Smallest positive f16 subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(through_f16(tiny), tiny);
        assert_eq!(through_f16(tiny * 3.0), tiny * 3.0);
        // Smallest normal.
        let min_norm = 2.0f32.powi(-14);
        assert_eq!(through_f16(min_norm), min_norm);
    }

    #[test]
    fn fragment_load_store_roundtrip_with_padding() {
        let rows = 20;
        let cols = 20;
        let src: Vec<f32> = (0..rows * cols).map(|i| (i % 7) as f32).collect();
        let frag = Fragment::load(&src, rows, cols, 16, 16, cols);
        // Only a 4×4 corner is in range; the rest must be zero padding.
        assert_eq!(frag.get(0, 0), src[16 * cols + 16]);
        assert_eq!(frag.get(4, 0), 0.0);
        assert_eq!(frag.get(0, 4), 0.0);
        let mut dst = vec![0.0f32; rows * cols];
        frag.store(&mut dst, rows, cols, 16, 16, cols);
        assert_eq!(dst[17 * cols + 18], src[17 * cols + 18]);
        assert_eq!(dst[0], 0.0, "out-of-fragment region untouched");
    }

    #[test]
    fn tensor_elementwise_applies_f16_rounding() {
        let dev = Device::v100();
        let x = vec![0.1f32; 64]; // 0.1 is inexact in f16
        let mut out = vec![0.0f32; 64];
        dev.launch_tensor_elementwise("t", Phase::SwarmUpdate, 1, &[&x], &mut out, |_, ins, _| {
            ins[0]
        })
        .unwrap();
        assert_ne!(out[0], 0.1, "value must show f16 rounding");
        assert!((out[0] - 0.1).abs() < 1e-4);
        let c = dev.counters();
        assert_eq!(c.tensor_flops, 64);
        assert_eq!(c.flops, 0);
    }

    #[test]
    fn tensor_elementwise_rejects_shape_mismatch() {
        let dev = Device::v100();
        let x = vec![0.0f32; 3];
        let mut out = vec![0.0f32; 4];
        assert!(dev
            .launch_tensor_elementwise("t", Phase::Other, 1, &[&x], &mut out, |_, _, _| 0.0)
            .is_err());
    }
}
