//! Device-resident buffers.
//!
//! A [`DeviceBuffer`] owns its backing store while alive; on drop the store
//! is returned to the device's caching pool (or truly freed in `Realloc`
//! mode), and the device's memory accounting is updated. Host↔device copies
//! are explicit and charged to the modeled timeline, exactly like
//! `cudaMemcpy`.

use crate::device::DeviceShared;
use crate::error::GpuError;
use crate::launch::AllocMode;
use perf_model::{Phase, TransferDirection};
use std::sync::Arc;

/// A typed buffer resident on one simulated device.
pub struct DeviceBuffer<T: Send + 'static> {
    data: Vec<T>,
    shared: Arc<DeviceShared>,
}

impl<T: Send + Sync + 'static> DeviceBuffer<T> {
    pub(crate) fn new(data: Vec<T>, shared: Arc<DeviceShared>) -> Self {
        DeviceBuffer { data, shared }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Device-side view of the contents.
    ///
    /// In CUDA this would be a device pointer only kernels may touch; the
    /// simulator exposes it directly so kernels (host closures) can read it.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable device-side view, for passing to kernel launches.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Upload from host memory (`cudaMemcpyHostToDevice`), charged to
    /// [`Phase::Other`].
    pub fn upload(&mut self, src: &[T]) -> Result<(), GpuError>
    where
        T: Clone,
    {
        self.upload_in(Phase::Other, src)
    }

    /// Upload from host memory, charging the transfer to `phase`.
    pub fn upload_in(&mut self, phase: Phase, src: &[T]) -> Result<(), GpuError>
    where
        T: Clone,
    {
        if src.len() != self.data.len() {
            return Err(GpuError::ShapeMismatch {
                expected: self.data.len(),
                actual: src.len(),
                what: "upload",
            });
        }
        // Fault-injection gate: a corrupted transfer is detected before any
        // byte lands, so device contents stay intact and a retry is safe.
        self.device().begin_transfer()?;
        self.data.clone_from_slice(src);
        let bytes = std::mem::size_of_val(src) as u64;
        crate::Device {
            shared: self.shared.clone(),
        }
        .charge_transfer(phase, TransferDirection::H2D, bytes);
        Ok(())
    }

    /// Download to host memory (`cudaMemcpyDeviceToHost`), charged to
    /// [`Phase::Other`].
    pub fn download(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.download_in(Phase::Other)
    }

    /// Download to host memory, charging the transfer to `phase`.
    pub fn download_in(&self, phase: Phase) -> Vec<T>
    where
        T: Clone,
    {
        let bytes = (self.data.len() * std::mem::size_of::<T>()) as u64;
        crate::Device {
            shared: self.shared.clone(),
        }
        .charge_transfer(phase, TransferDirection::D2H, bytes);
        self.data.clone()
    }

    /// Whether this buffer lives on `dev`.
    pub fn is_on(&self, dev: &crate::Device) -> bool {
        Arc::ptr_eq(&self.shared, &dev.shared)
    }

    /// The device this buffer lives on.
    pub fn device(&self) -> crate::Device {
        crate::Device {
            shared: self.shared.clone(),
        }
    }
}

impl<T: Send + 'static> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        let bytes = self.data.capacity() * std::mem::size_of::<T>();
        let data = std::mem::take(&mut self.data);
        let mut st = self.shared.state.lock();
        // `len * size_of` was what alloc accounted; capacity may exceed it
        // for recycled stores, so recompute from len for symmetry.
        let accounted = data.len() * std::mem::size_of::<T>();
        st.bytes_in_use = st.bytes_in_use.saturating_sub(accounted);
        let _ = bytes;
        if st.alloc_mode == AllocMode::Caching {
            st.pool.release(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;

    #[test]
    fn upload_download_roundtrip() {
        let dev = Device::v100();
        let src = vec![1.0f32, 2.0, 3.0];
        let buf = dev.alloc_from_slice(&src).unwrap();
        assert_eq!(buf.download(), src);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
    }

    #[test]
    fn upload_length_mismatch_errors() {
        let dev = Device::v100();
        let mut buf = dev.alloc::<f32>(4).unwrap();
        let err = buf.upload(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, GpuError::ShapeMismatch { .. }));
    }

    #[test]
    fn transfers_are_charged() {
        let dev = Device::v100();
        let mut buf = dev.alloc::<f32>(1024).unwrap();
        let before = dev.counters();
        buf.upload(&vec![0.5; 1024]).unwrap();
        let _ = buf.download();
        let after = dev.counters();
        assert_eq!(after.transfers - before.transfers, 2);
        assert_eq!(after.h2d_bytes, 4096);
        assert_eq!(after.d2h_bytes, 4096);
    }

    #[test]
    fn drop_returns_memory_to_accounting() {
        let dev = Device::v100();
        let buf = dev.alloc::<u32>(100).unwrap();
        assert_eq!(dev.bytes_in_use(), 400);
        drop(buf);
        assert_eq!(dev.bytes_in_use(), 0);
    }

    #[test]
    fn mutation_through_slice_is_visible() {
        let dev = Device::v100();
        let mut buf = dev.alloc::<f32>(2).unwrap();
        buf.as_mut_slice()[1] = 9.0;
        assert_eq!(buf.as_slice(), &[0.0, 9.0]);
    }

    #[test]
    fn device_handle_from_buffer_matches() {
        let dev = Device::v100();
        let buf = dev.alloc::<f32>(1).unwrap();
        buf.device().synchronize(Phase::Other);
        assert!(dev.timeline().total_seconds() > 0.0);
    }
}
