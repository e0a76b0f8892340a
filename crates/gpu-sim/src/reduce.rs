//! GPU-style parallel reductions.
//!
//! The paper implements the `gbest` update as "a process of finding the
//! minimum and its corresponding index in all the `pbest` of the particles
//! ... using a GPU-based parallel reduction" (§3.3). The simulator models a
//! single-pass tree reduction: every block reduces its slice of the input
//! to one partial in global memory, and the last block to finish (found
//! with an atomic ticket) folds the per-block partials in the same launch.
//! The fold is charged exactly what separate follow-up passes over the
//! partials would be — one flop and one read and one write of the payload
//! per partial, per tree level — so the single pass saves their launch
//! overhead and nothing else.

use crate::device::Device;
use crate::error::GpuError;
use crate::launch::{KernelCost, KernelDesc, DEFAULT_BLOCK};
use perf_model::{GpuKernelWork, Phase};
use rayon::prelude::*;

/// Result of an argmin reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinResult {
    /// Minimum value found.
    pub value: f32,
    /// Index of the minimum. Ties resolve to the smallest index, matching
    /// a deterministic sequential scan.
    pub index: usize,
}

impl Device {
    /// Find the minimum value and its index (`gbest` update).
    pub fn reduce_min_index(&self, phase: Phase, data: &[f32]) -> Result<MinResult, GpuError> {
        self.reduce_min_index_then(phase, data, KernelCost::default(), |_| 0)
    }

    /// [`Device::reduce_min_index`] whose last block runs `epilogue` on the
    /// result inside the same launch — the shape of an argmin that adopts
    /// its winner, e.g. copies the winning row into a swarm-best buffer.
    ///
    /// `epilogue` returns how many elements it wrote; each is charged at
    /// `per_elem` on top of the reduction's own work, and the launch is
    /// charged once, after the epilogue. The fault gate fires first, so a
    /// faulted launch runs no epilogue and writes nothing. The epilogue
    /// runs inside the launch, so it must not issue device work of its own.
    pub fn reduce_min_index_then<F>(
        &self,
        phase: Phase,
        data: &[f32],
        per_elem: KernelCost,
        epilogue: F,
    ) -> Result<MinResult, GpuError>
    where
        F: FnOnce(MinResult) -> u64,
    {
        self.begin_launch()?;
        if data.is_empty() {
            return Err(GpuError::Empty("reduce_min_index"));
        }
        let (index, value) = data.par_iter().copied().enumerate().reduce(
            || (usize::MAX, f32::INFINITY),
            |a, b| {
                // NaN never wins, so a swarm with NaN errors keeps its
                // previous best; ties keep the earliest index so the
                // result matches a deterministic sequential scan.
                let a_valid = a.0 != usize::MAX && !a.1.is_nan();
                let b_valid = b.0 != usize::MAX && !b.1.is_nan();
                match (a_valid, b_valid) {
                    (true, false) | (false, false) => a,
                    (false, true) => b,
                    (true, true) => {
                        if b.1 < a.1 || (b.1 == a.1 && b.0 < a.0) {
                            b
                        } else {
                            a
                        }
                    }
                }
            },
        );
        let result = if index == usize::MAX {
            // All-NaN input: fall back to index 0 like a sequential scan
            // that never updates its running best.
            MinResult {
                value: data[0],
                index: 0,
            }
        } else {
            MinResult { value, index }
        };
        let (desc, mut work) = self.reduction_work(phase, data.len());
        per_elem.add_to(&mut work, epilogue(result));
        self.charge_launch(&desc, work);
        Ok(result)
    }

    /// The launch descriptor and total work of a single-pass tree reduction
    /// over `n` elements, where each element carries an 8-byte value+index
    /// payload: the block pass over the input plus the last block's fold of
    /// every level of per-block partials.
    fn reduction_work(&self, phase: Phase, n: usize) -> (KernelDesc, GpuKernelWork) {
        let elem_bytes = 8;
        let desc = KernelDesc::resource_aware(
            "reduce_pass0",
            phase,
            KernelCost::elementwise(1, elem_bytes, 0),
            n as u64,
            &self.profile(),
        );
        let mut work = desc.work();
        let fold = KernelCost::elementwise(1, elem_bytes, elem_bytes);
        let mut partials = (n as u64).div_ceil(DEFAULT_BLOCK as u64);
        while partials > 1 {
            fold.add_to(&mut work, partials);
            partials = partials.div_ceil(DEFAULT_BLOCK as u64);
        }
        (desc, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_index_matches_sequential_scan() {
        let dev = Device::v100();
        let data = vec![5.0, 3.0, 9.0, 3.0, 7.0];
        let r = dev.reduce_min_index(Phase::GBest, &data).unwrap();
        assert_eq!(r.value, 3.0);
        assert_eq!(r.index, 1, "ties resolve to the smallest index");
    }

    #[test]
    fn min_of_single_element() {
        let dev = Device::v100();
        let r = dev.reduce_min_index(Phase::GBest, &[42.0]).unwrap();
        assert_eq!(r.index, 0);
        assert_eq!(r.value, 42.0);
    }

    #[test]
    fn empty_input_errors() {
        let dev = Device::v100();
        assert!(dev.reduce_min_index(Phase::GBest, &[]).is_err());
    }

    #[test]
    fn nan_never_wins() {
        let dev = Device::v100();
        let data = vec![f32::NAN, 2.0, f32::NAN];
        let r = dev.reduce_min_index(Phase::GBest, &data).unwrap();
        assert_eq!(r.index, 1);
        assert_eq!(r.value, 2.0);
    }

    #[test]
    fn all_nan_falls_back_to_first() {
        let dev = Device::v100();
        let r = dev
            .reduce_min_index(Phase::GBest, &[f32::NAN, f32::NAN])
            .unwrap();
        assert_eq!(r.index, 0);
        assert!(r.value.is_nan());
    }

    #[test]
    fn reduction_charges_multiple_passes_for_large_inputs() {
        let dev = Device::v100();
        let data = vec![1.0f32; 100_000];
        dev.reduce_min_index(Phase::GBest, &data).unwrap();
        let c = dev.counters();
        assert_eq!(c.kernel_launches, 1, "the last block folds the partials");
        // 100k elems: pass0 reads 8 B per element; the fold then reads and
        // writes 8 B per partial over 391 partials, then over 2.
        let partials = [391u64, 2];
        assert_eq!(c.flops, 100_000 + partials.iter().sum::<u64>());
        assert_eq!(
            c.dram_read_bytes,
            8 * 100_000 + partials.iter().map(|p| 8 * p).sum::<u64>()
        );
        assert_eq!(
            c.dram_write_bytes,
            partials.iter().map(|p| 8 * p).sum::<u64>()
        );
        let log = dev.profiler();
        assert_eq!(log.kernels.len(), 1);
        assert_eq!(log.kernels[0].name, "reduce_pass0");
    }

    #[test]
    fn epilogue_work_rides_on_the_reduction_launch() {
        let dev = Device::v100();
        let data = vec![4.0, 1.0, 3.0];
        let mut adopted = None;
        let r = dev
            .reduce_min_index_then(Phase::GBest, &data, KernelCost::elementwise(0, 4, 4), |m| {
                adopted = Some(m.index);
                5
            })
            .unwrap();
        assert_eq!((r.index, adopted), (1, Some(1)));
        let c = dev.counters();
        assert_eq!(c.kernel_launches, 1);
        assert_eq!(c.flops, 3);
        assert_eq!(c.dram_read_bytes, 8 * 3 + 4 * 5);
        assert_eq!(c.dram_write_bytes, 4 * 5);
    }

    #[test]
    fn faulted_reduction_runs_no_epilogue() {
        use crate::fault::FaultPlan;
        let dev = Device::v100();
        dev.set_fault_plan(FaultPlan::new().with_transient_launch(1));
        let mut ran = false;
        let err = dev.reduce_min_index_then(Phase::GBest, &[1.0], KernelCost::default(), |_| {
            ran = true;
            0
        });
        assert!(err.is_err());
        assert!(!ran, "the gate fires before the epilogue");
        assert_eq!(dev.counters().kernel_launches, 0);
    }
}
