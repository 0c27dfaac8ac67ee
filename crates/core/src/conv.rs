//! Convolution binding — the paper's outlook feature
//! ("integration of a convolution kernel ... required in image processing
//! and convolutional neural networks") exposed through the facade.

use crate::device::Device;
use crate::dispatch::{with_dtype, OpImpl};
use crate::dtype::DType;
use crate::error::PyResult;
use crate::gil::binding_call;
use crate::tensor::Tensor;
use gko::matrix::Conv2d;
use gko::Value;
use std::sync::Arc;

/// A 2-D convolution operator with runtime dtype, applicable to flattened
/// image tensors like any other pyGinkgo operator.
pub struct Conv2dOp {
    inner: OpImpl,
    device: Device,
    image: (usize, usize),
    kernel: (usize, usize),
}

/// Creates a convolution operator: `pg::conv2d(&dev, (h, w), (kh, kw),
/// kernel_taps, "float")`.
pub fn conv2d(
    device: &Device,
    image: (usize, usize),
    kernel_size: (usize, usize),
    kernel: &[f64],
    dtype: &str,
) -> PyResult<Conv2dOp> {
    binding_call(device, || {
        let dtype: DType = dtype.parse()?;
        let exec = device.executor();
        let inner: OpImpl = with_dtype!(dtype.tag(), |_tag as wrap| {
            let taps = kernel.iter().map(|&v| Value::from_f64(v)).collect();
            wrap(Arc::new(Conv2d::new(exec, image, kernel_size, taps)?))
        });
        Ok(Conv2dOp {
            inner,
            device: device.clone(),
            image,
            kernel: kernel_size,
        })
    })
}

impl Conv2dOp {
    /// Image dimensions the operator expects (rows * cols input length).
    pub fn image_size(&self) -> (usize, usize) {
        self.image
    }

    /// Filter dimensions.
    pub fn kernel_size(&self) -> (usize, usize) {
        self.kernel
    }

    /// Runtime dtype.
    pub fn dtype(&self) -> DType {
        self.inner.dtype()
    }

    /// Applies the convolution to a flattened image tensor, returning the
    /// filtered image.
    pub fn apply(&self, image: &Tensor) -> PyResult<Tensor> {
        binding_call(&self.device, || {
            let n = self.image.0 * self.image.1;
            let mut out =
                crate::tensor::as_tensor_fill(&self.device, (n, 1), self.dtype().name(), 0.0)?;
            with_dtype!(("conv", &self.inner), ("image", &image.data), ("out", &mut out.data); |op, b, x| {
                Ok(op.apply(b, x)?)
            })?;
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::device;
    use crate::error::PyGinkgoError;
    use crate::tensor::as_tensor;

    #[test]
    fn blur_through_the_facade() {
        let dev = device("cuda").unwrap();
        let op = conv2d(&dev, (4, 4), (3, 3), &[1.0 / 9.0; 9], "float").unwrap();
        assert_eq!(op.image_size(), (4, 4));
        assert_eq!(op.kernel_size(), (3, 3));
        let img = as_tensor(vec![9.0; 16], &dev, (16, 1), "float").unwrap();
        let out = op.apply(&img).unwrap();
        // Interior average of nine 9s is 9; corners keep 4/9 of the mass.
        assert!((out.get(5, 0).unwrap() - 9.0).abs() < 1e-5);
        assert!((out.get(0, 0).unwrap() - 4.0).abs() < 1e-5);
    }

    #[test]
    fn dtype_mismatch_raises() {
        let dev = device("reference").unwrap();
        let op = conv2d(&dev, (2, 2), (1, 1), &[1.0], "double").unwrap();
        let img = as_tensor(vec![1.0; 4], &dev, (4, 1), "float").unwrap();
        assert!(matches!(op.apply(&img), Err(PyGinkgoError::Type(_))));
    }

    #[test]
    fn invalid_kernel_is_value_error() {
        let dev = device("reference").unwrap();
        assert!(matches!(
            conv2d(&dev, (2, 2), (2, 2), &[1.0; 4], "double"),
            Err(PyGinkgoError::Value(_))
        ));
    }

    #[test]
    fn works_in_half_precision() {
        let dev = device("reference").unwrap();
        let op = conv2d(&dev, (2, 2), (1, 1), &[2.0], "half").unwrap();
        let img = as_tensor(vec![0.5, 1.0, 1.5, 2.0], &dev, (4, 1), "half").unwrap();
        let out = op.apply(&img).unwrap();
        assert_eq!(out.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }
}
