//! Executor-bound flat storage, mirroring Ginkgo's `gko::array<T>`.
//!
//! An [`Array`] owns a contiguous buffer that logically lives on its
//! executor's memory space. Because the device executors are simulations,
//! the bytes are physically in host memory, but every allocation is tracked
//! by the owning executor's memory accountant and every cross-executor copy
//! is charged to the simulated transfer model — so programs observe the same
//! costs and ownership rules real Ginkgo enforces.

use crate::base::error::{GkoError, Result};
use crate::executor::Executor;

/// A contiguous, executor-bound buffer of `T`.
#[derive(Debug)]
pub struct Array<T> {
    exec: Executor,
    data: Vec<T>,
}

impl<T: Copy + Default + Send + Sync> Array<T> {
    /// Allocates `len` default-initialized elements on `exec`.
    pub fn new(exec: &Executor, len: usize) -> Self {
        exec.track_alloc(len * std::mem::size_of::<T>());
        Array {
            exec: exec.clone(),
            data: vec![T::default(); len],
        }
    }

    /// Takes ownership of a host vector, placing it on `exec`.
    ///
    /// If `exec` is a device executor this charges a host-to-device transfer.
    pub fn from_vec(exec: &Executor, data: Vec<T>) -> Self {
        let bytes = data.len() * std::mem::size_of::<T>();
        exec.track_alloc(bytes);
        exec.charge_upload(bytes);
        Array {
            exec: exec.clone(),
            data,
        }
    }

    /// Copies this array to another executor, charging the transfer.
    pub(crate) fn copy_to(&self, exec: &Executor) -> Array<T> {
        let bytes = self.data.len() * std::mem::size_of::<T>();
        exec.track_alloc(bytes);
        if !self.exec.same_memory_space(exec) {
            // Device->device or host<->device: pay the slower link.
            self.exec.charge_download(bytes);
            exec.charge_upload(bytes);
        }
        Array {
            exec: exec.clone(),
            data: self.data.clone(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The executor this array lives on.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Read access to the underlying buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Write access to the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Overwrites every element.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Validates that `self` and `other` are on the same executor.
    pub(crate) fn check_same_executor<U>(&self, other: &Array<U>) -> Result<()> {
        if self.exec.same_memory_space(&other.exec) {
            Ok(())
        } else {
            Err(GkoError::ExecutorMismatch {
                left: self.exec.name().to_owned(),
                right: other.exec.name().to_owned(),
            })
        }
    }
}

impl<T> Drop for Array<T> {
    fn drop(&mut self) {
        self.exec
            .track_dealloc(self.data.len() * std::mem::size_of::<T>());
    }
}

impl<T: Copy + Default + Send + Sync> Clone for Array<T> {
    fn clone(&self) -> Self {
        self.exec
            .track_alloc(self.data.len() * std::mem::size_of::<T>());
        Array {
            exec: self.exec.clone(),
            data: self.data.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;

    #[test]
    fn allocation_is_tracked() {
        let exec = Executor::reference();
        let base = exec.bytes_allocated();
        let a = Array::<f64>::new(&exec, 100);
        assert_eq!(exec.bytes_allocated(), base + 800);
        drop(a);
        assert_eq!(exec.bytes_allocated(), base);
    }

    #[test]
    fn from_vec_keeps_contents() {
        let exec = Executor::reference();
        let a = Array::from_vec(&exec, vec![1.0f32, 2.0, 3.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn copy_to_device_charges_transfer() {
        let host = Executor::reference();
        let dev = Executor::cuda(0);
        let a = Array::from_vec(&host, vec![0u8; 1 << 20]);
        let before = dev.timeline().snapshot();
        let b = a.copy_to(&dev);
        let delta = dev.timeline().snapshot().since(&before);
        assert_eq!(delta.copies, 1);
        assert_eq!(delta.bytes_copied, 1 << 20);
        assert!(delta.ns > 0);
        assert_eq!(b.as_slice().len(), 1 << 20);
    }

    #[test]
    fn copy_within_same_space_is_free_of_transfer() {
        let host = Executor::reference();
        let omp = Executor::omp(4);
        let a = Array::from_vec(&host, vec![1.0f64; 10]);
        let before = omp.timeline().snapshot();
        let _b = a.copy_to(&omp);
        let delta = omp.timeline().snapshot().since(&before);
        assert_eq!(delta.copies, 0, "host executors share the memory space");
    }

    #[test]
    fn executor_mismatch_is_detected() {
        let host = Executor::reference();
        let dev = Executor::cuda(0);
        let a = Array::from_vec(&host, vec![1.0f64; 4]);
        let b = Array::from_vec(&dev, vec![1.0f64; 4]);
        assert!(a.check_same_executor(&b).is_err());
        let c = Array::from_vec(&host, vec![2.0f64; 4]);
        assert!(a.check_same_executor(&c).is_ok());
    }

    #[test]
    fn fill_overwrites() {
        let exec = Executor::reference();
        let mut a = Array::<f64>::new(&exec, 5);
        a.fill(2.5);
        assert!(a.as_slice().iter().all(|&x| x == 2.5));
    }
}
