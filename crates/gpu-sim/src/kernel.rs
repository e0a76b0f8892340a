//! Element-wise kernel launches.
//!
//! These entry points execute real closures over buffer contents — one
//! logical thread after another on the calling host thread — and charge the
//! launch's modeled cost to the device timeline. The closures are `Sync`
//! and the element types `Send + Sync`, so a body may later be split across
//! host threads without changing any launch signature. They are the
//! simulator analogue of `kernel<<<grid, block>>>(...)` for the kernel
//! shapes PSO needs:
//!
//! * [`Device::launch_map`] — `out[i] = f(i)` (pure production),
//! * [`Device::launch_update`] — `out[i] = f(i, out[i])` (in-place update),
//! * [`Device::launch_chunks2`] — one thread per *row/particle* updating two
//!   output arrays chunk-wise,
//! * [`Device::launch_chunks2_counted`] — the same shape whose body counts
//!   the chunks that took a data-dependent path and whose launch is charged
//!   after the body (the `pbest` error + row-copy shape),
//! * [`Device::launch_rows`] — two row-chunked outputs plus a per-row
//!   output, charged an extra per-row cost (the swarm-init shape).

use crate::device::Device;
use crate::error::GpuError;
use crate::launch::{KernelCost, KernelDesc};

impl Device {
    /// `out[i] = f(i)` for every element. `desc.elems` must equal
    /// `out.len()`.
    pub fn launch_map<T, F>(&self, desc: &KernelDesc, out: &mut [T], f: F) -> Result<(), GpuError>
    where
        T: Send + Sync,
        F: Fn(usize) -> T + Sync,
    {
        self.begin_launch()?;
        self.check_elems(desc, out.len(), "launch_map")?;
        self.charge_kernel(desc);
        out.iter_mut()
            .enumerate()
            .for_each(|(i, slot)| *slot = f(i));
        Ok(())
    }

    /// `out[i] = f(i, out[i])` for every element (in-place element-wise
    /// update — the swarm-update kernel shape).
    pub fn launch_update<T, F>(
        &self,
        desc: &KernelDesc,
        out: &mut [T],
        f: F,
    ) -> Result<(), GpuError>
    where
        T: Copy + Send + Sync,
        F: Fn(usize, T) -> T + Sync,
    {
        self.begin_launch()?;
        self.check_elems(desc, out.len(), "launch_update")?;
        self.charge_kernel(desc);
        out.iter_mut()
            .enumerate()
            .for_each(|(i, slot)| *slot = f(i, *slot));
        Ok(())
    }

    /// One logical thread per chunk pair: thread `i` gets mutable access to
    /// `a[i*ca .. (i+1)*ca]` and `b[i*cb .. (i+1)*cb]`. `desc.elems` must
    /// equal the number of chunks.
    pub fn launch_chunks2<A, B, F>(
        &self,
        desc: &KernelDesc,
        a: &mut [A],
        ca: usize,
        b: &mut [B],
        cb: usize,
        f: F,
    ) -> Result<(), GpuError>
    where
        A: Send + Sync,
        B: Send + Sync,
        F: Fn(usize, &mut [A], &mut [B]) + Sync,
    {
        self.launch_chunks2_counted(desc, KernelCost::default(), a, ca, b, cb, |i, ac, bc| {
            f(i, ac, bc);
            false
        })
        .map(|_| ())
    }

    /// [`Device::launch_chunks2`] whose body returns whether chunk `i` took
    /// its data-dependent path — a *hit* — and whose launch carries that
    /// path's cost. Returns the number of hits.
    ///
    /// This is the `pbest` update shape: per particle, compare the new error
    /// (`a` chunk of 1) and, when it improved, copy the position row (`b`
    /// chunk of `d`). The hits are counted (an atomic on a real device),
    /// and the launch is charged once, after the body: `desc`'s work plus
    /// `per_hit` for every element of each hit's `b` chunk. The fault gate
    /// still fires before the body writes anything.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_chunks2_counted<A, B, F>(
        &self,
        desc: &KernelDesc,
        per_hit: KernelCost,
        a: &mut [A],
        ca: usize,
        b: &mut [B],
        cb: usize,
        f: F,
    ) -> Result<u64, GpuError>
    where
        A: Send + Sync,
        B: Send + Sync,
        F: Fn(usize, &mut [A], &mut [B]) -> bool + Sync,
    {
        self.begin_launch()?;
        if ca == 0 || cb == 0 {
            return Err(GpuError::InvalidLaunch("zero chunk size".into()));
        }
        if !a.len().is_multiple_of(ca)
            || !b.len().is_multiple_of(cb)
            || a.len() / ca != b.len() / cb
        {
            return Err(GpuError::ShapeMismatch {
                expected: a.len() / ca.max(1),
                actual: b.len() / cb.max(1),
                what: "launch_chunks2",
            });
        }
        self.check_elems(desc, a.len() / ca, "launch_chunks2")?;
        let hits: u64 = a
            .chunks_mut(ca)
            .zip(b.chunks_mut(cb))
            .enumerate()
            .map(|(i, (ac, bc))| u64::from(f(i, ac, bc)))
            .sum();
        let mut work = desc.work();
        per_hit.add_to(&mut work, hits * cb as u64);
        self.charge_launch(desc, work);
        Ok(hits)
    }

    /// Two element-wise outputs plus a per-row output, in one launch: `a`
    /// and `b` are each split into `rows.len()` equal row chunks (their
    /// widths may differ), and the body gets row `r`'s chunk of each and
    /// `rows[r]`. `desc` prices the element-wise index space, so
    /// `desc.elems` must equal `a.len()`; the launch is charged `desc`'s
    /// work plus `per_row` for every row. The fault gate fires before the
    /// body writes anything.
    ///
    /// This is the swarm-init shape (positions, velocities and per-particle
    /// best error from one launch) and GFWA's selection commit (errors and
    /// positions plus the per-firework amplitude).
    pub fn launch_rows<A, B, R, F>(
        &self,
        desc: &KernelDesc,
        per_row: KernelCost,
        a: &mut [A],
        b: &mut [B],
        rows: &mut [R],
        f: F,
    ) -> Result<(), GpuError>
    where
        A: Send + Sync,
        B: Send + Sync,
        R: Send + Sync,
        F: Fn(usize, &mut [A], &mut [B], &mut R) + Sync,
    {
        self.begin_launch()?;
        let n = rows.len();
        if n == 0 {
            return Err(GpuError::InvalidLaunch("zero rows".into()));
        }
        for (len, what) in [(a.len(), "launch_rows a"), (b.len(), "launch_rows b")] {
            if len == 0 || !len.is_multiple_of(n) {
                return Err(GpuError::ShapeMismatch {
                    expected: n,
                    actual: len,
                    what,
                });
            }
        }
        self.check_elems(desc, a.len(), "launch_rows")?;
        let (wa, wb) = (a.len() / n, b.len() / n);
        a.chunks_mut(wa)
            .zip(b.chunks_mut(wb))
            .zip(rows.iter_mut())
            .enumerate()
            .for_each(|(r, ((ac, bc), slot))| f(r, ac, bc, slot));
        let mut work = desc.work();
        per_row.add_to(&mut work, n as u64);
        self.charge_launch(desc, work);
        Ok(())
    }

    /// One logical thread per chunk quadruple — the fused
    /// particle-per-thread kernel shape used by the gpu-pso baseline, where
    /// a single thread owns its particle's position row, velocity row,
    /// best error and best-position row.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_chunks4<A, B, C, D, F>(
        &self,
        desc: &KernelDesc,
        a: &mut [A],
        ca: usize,
        b: &mut [B],
        cb: usize,
        c: &mut [C],
        cc: usize,
        d: &mut [D],
        cd: usize,
        f: F,
    ) -> Result<(), GpuError>
    where
        A: Send + Sync,
        B: Send + Sync,
        C: Send + Sync,
        D: Send + Sync,
        F: Fn(usize, &mut [A], &mut [B], &mut [C], &mut [D]) + Sync,
    {
        self.begin_launch()?;
        if ca == 0 || cb == 0 || cc == 0 || cd == 0 {
            return Err(GpuError::InvalidLaunch("zero chunk size".into()));
        }
        let chunks = a.len() / ca;
        for (len, sz, what) in [
            (a.len(), ca, "launch_chunks4 a"),
            (b.len(), cb, "launch_chunks4 b"),
            (c.len(), cc, "launch_chunks4 c"),
            (d.len(), cd, "launch_chunks4 d"),
        ] {
            if !len.is_multiple_of(sz) || len / sz != chunks {
                return Err(GpuError::ShapeMismatch {
                    expected: chunks,
                    actual: len / sz,
                    what,
                });
            }
        }
        self.check_elems(desc, chunks, "launch_chunks4")?;
        self.charge_kernel(desc);
        a.chunks_mut(ca)
            .zip(b.chunks_mut(cb))
            .zip(c.chunks_mut(cc).zip(d.chunks_mut(cd)))
            .enumerate()
            .for_each(|(i, ((ac, bc), (cc_, dc)))| f(i, ac, bc, cc_, dc));
        Ok(())
    }

    fn check_elems(
        &self,
        desc: &KernelDesc,
        actual: usize,
        what: &'static str,
    ) -> Result<(), GpuError> {
        if desc.elems != actual as u64 {
            return Err(GpuError::ShapeMismatch {
                expected: desc.elems as usize,
                actual,
                what,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_model::Phase;

    fn desc(elems: u64) -> KernelDesc {
        KernelDesc::simple("test", Phase::Other, 1, 4, 4, elems)
    }

    #[test]
    fn map_fills_by_index() {
        let dev = Device::v100();
        let mut out = vec![0u32; 100];
        dev.launch_map(&desc(100), &mut out, |i| i as u32 * 2)
            .unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u32));
    }

    #[test]
    fn update_sees_old_value() {
        let dev = Device::v100();
        let mut out = vec![10.0f32; 8];
        dev.launch_update(&desc(8), &mut out, |i, old| old + i as f32)
            .unwrap();
        assert_eq!(out[3], 13.0);
    }

    #[test]
    fn elems_mismatch_is_rejected() {
        let dev = Device::v100();
        let mut out = vec![0.0f32; 7];
        let err = dev.launch_map(&desc(8), &mut out, |_| 0.0).unwrap_err();
        assert!(matches!(err, GpuError::ShapeMismatch { .. }));
    }

    #[test]
    fn chunks2_updates_both_arrays_per_row() {
        let dev = Device::v100();
        let n = 4;
        let d = 3;
        let mut err = vec![1.0f32; n];
        let mut pos = vec![0.0f32; n * d];
        dev.launch_chunks2(&desc(n as u64), &mut err, 1, &mut pos, d, |i, e, p| {
            e[0] = i as f32;
            p.iter_mut().for_each(|x| *x = 10.0 * i as f32);
        })
        .unwrap();
        assert_eq!(err, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(&pos[6..9], &[20.0, 20.0, 20.0]);
    }

    #[test]
    fn chunks2_rejects_mismatched_chunking() {
        let dev = Device::v100();
        let mut a = vec![0.0f32; 4];
        let mut b = vec![0.0f32; 9]; // 4 chunks of 1 vs 3 chunks of 3
        let err = dev
            .launch_chunks2(&desc(4), &mut a, 1, &mut b, 3, |_, _, _| {})
            .unwrap_err();
        assert!(matches!(err, GpuError::ShapeMismatch { .. }));
        let err = dev
            .launch_chunks2(&desc(4), &mut a, 0, &mut b, 3, |_, _, _| {})
            .unwrap_err();
        assert!(matches!(err, GpuError::InvalidLaunch(_)));
    }

    #[test]
    fn rows_launch_fills_both_outputs_and_charges_per_row_work() {
        let dev = Device::v100();
        let (n, d) = (4, 3);
        let mut a = vec![0.0f32; n * d];
        let mut b = vec![0u32; n * d];
        let mut best = vec![0.0f32; n];
        let per_row = KernelCost::elementwise(0, 0, 4);
        dev.launch_rows(
            &desc((n * d) as u64),
            per_row,
            &mut a,
            &mut b,
            &mut best,
            |r, ar, br, e| {
                ar.iter_mut().for_each(|x| *x = r as f32);
                br.iter_mut().for_each(|x| *x = 2 * r as u32);
                *e = f32::INFINITY;
            },
        )
        .unwrap();
        assert_eq!(&a[6..9], &[2.0; 3]);
        assert_eq!(&b[9..12], &[6; 3]);
        assert!(best.iter().all(|e| e.is_infinite()));
        let c = dev.counters();
        assert_eq!(c.kernel_launches, 1);
        assert_eq!(c.flops, (n * d) as u64);
        assert_eq!(c.dram_write_bytes, 4 * (n * d) as u64 + 4 * n as u64);
    }

    #[test]
    fn rows_launch_allows_outputs_of_different_widths() {
        let dev = Device::v100();
        let (n, d) = (3, 5);
        let mut err = vec![0.0f32; n];
        let mut pos = vec![0.0f32; n * d];
        let mut amp = vec![1.0f32; n];
        dev.launch_rows(
            &desc(n as u64),
            KernelCost::default(),
            &mut err,
            &mut pos,
            &mut amp,
            |r, e, p, a| {
                e[0] = r as f32;
                p.fill(1.0);
                *a *= 2.0;
            },
        )
        .unwrap();
        assert_eq!(err, vec![0.0, 1.0, 2.0]);
        assert!(pos.iter().all(|&x| x == 1.0));
        assert_eq!(amp, vec![2.0; 3]);
        let mut short = vec![0.0f32; 7]; // not a whole number of rows
        let err = dev
            .launch_rows(
                &desc(n as u64),
                KernelCost::default(),
                &mut err,
                &mut short,
                &mut amp,
                |_, _, _, _| {},
            )
            .unwrap_err();
        assert!(matches!(err, GpuError::ShapeMismatch { .. }));
    }

    #[test]
    fn faulted_rows_launch_writes_nothing() {
        use crate::fault::FaultPlan;
        let dev = Device::v100();
        dev.set_fault_plan(FaultPlan::new().with_transient_launch(1));
        let mut a = vec![0.0f32; 4];
        let mut b = vec![0.0f32; 4];
        let mut rows = vec![0.0f32; 2];
        let err = dev.launch_rows(
            &desc(4),
            KernelCost::default(),
            &mut a,
            &mut b,
            &mut rows,
            |_, ar, br, e| {
                ar.fill(1.0);
                br.fill(1.0);
                *e = 1.0;
            },
        );
        assert!(err.is_err());
        assert!(a.iter().chain(&b).chain(&rows).all(|&x| x == 0.0));
        assert_eq!(dev.counters().kernel_launches, 0);
    }

    #[test]
    fn launches_accumulate_counters() {
        let dev = Device::v100();
        let mut out = vec![0.0f32; 16];
        dev.launch_map(&desc(16), &mut out, |_| 1.0).unwrap();
        dev.launch_update(&desc(16), &mut out, |_, v| v).unwrap();
        let c = dev.counters();
        assert_eq!(c.kernel_launches, 2);
        assert_eq!(c.flops, 32);
        assert_eq!(c.dram_read_bytes, 2 * 64);
    }
}
