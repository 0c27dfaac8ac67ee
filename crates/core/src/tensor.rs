//! Type-erased dense tensors (`pg.as_tensor`, §5.2).
//!
//! A [`Tensor`] is the facade's NumPy-array analog: dtype chosen at runtime
//! by string, storage on a device, elementwise access in `f64` at the
//! boundary (exactly how Python floats cross pybind11). The construction
//! paths mirror §5.2's buffer protocol: building a `double` tensor from an
//! owned `Vec<f64>` moves the buffer without copying elements — the
//! zero-copy path — while other dtypes convert.

use crate::device::Device;
use crate::dispatch::{with_dtype, PerDType};
use crate::dtype::DType;
use crate::error::{PyGinkgoError, PyResult};
use crate::gil::binding_call;
use gko::matrix::Dense;
use gko::{Dim2, Value};
use pygko_half::Half;

/// The monomorphic storage behind a tensor (pre-instantiated per Table 1).
pub(crate) type TensorData = PerDType<Dense<Half>, Dense<f32>, Dense<f64>>;

/// A dense matrix/vector with runtime dtype, bound to a device.
#[derive(Clone, Debug)]
pub struct Tensor {
    pub(crate) data: TensorData,
    pub(crate) device: Device,
}

impl Tensor {
    /// Tensor shape as (rows, cols).
    pub fn shape(&self) -> (usize, usize) {
        let d = with_dtype!(&self.data, |d| d.size());
        (d.rows, d.cols)
    }

    /// Runtime dtype tag.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// The device this tensor lives on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Reads one element, widened to `f64` (Python float semantics).
    pub fn get(&self, row: usize, col: usize) -> PyResult<f64> {
        let (r, c) = self.shape();
        if row >= r || col >= c {
            return Err(PyGinkgoError::Value(format!(
                "index ({row}, {col}) out of bounds for shape ({r}, {c})"
            )));
        }
        Ok(with_dtype!(&self.data, |d| d.at(row, col).to_f64()))
    }

    /// Writes one element (rounded to the tensor's dtype).
    pub fn set(&mut self, row: usize, col: usize, value: f64) -> PyResult<()> {
        let (r, c) = self.shape();
        if row >= r || col >= c {
            return Err(PyGinkgoError::Value(format!(
                "index ({row}, {col}) out of bounds for shape ({r}, {c})"
            )));
        }
        with_dtype!(&mut self.data, |d| d.set(row, col, Value::from_f64(value)));
        Ok(())
    }

    /// Copies the values out as a row-major `f64` vector.
    pub fn to_vec(&self) -> Vec<f64> {
        binding_call(&self.device, || {
            with_dtype!(&self.data, |d| d
                .as_slice()
                .iter()
                .map(|v| v.to_f64())
                .collect())
        })
    }

    /// Overwrites every element.
    pub fn fill(&mut self, value: f64) {
        binding_call(&self.device, || {
            with_dtype!(&mut self.data, |d| d.fill(Value::from_f64(value)));
        })
    }

    /// Scales all elements in place.
    pub fn scale(&mut self, alpha: f64) {
        binding_call(&self.device, || {
            with_dtype!(&mut self.data, |d| d.scale(Value::from_f64(alpha)));
        })
    }

    /// AXPY: `self += alpha * other`. Dtypes must match (like NumPy's
    /// in-place ops, mixed dtypes raise).
    pub fn add_scaled(&mut self, alpha: f64, other: &Tensor) -> PyResult<()> {
        binding_call(&self.device, || {
            with_dtype!(("self", &mut self.data), ("other", &other.data); |a, b| {
                Ok(a.add_scaled(Value::from_f64(alpha), b)?)
            })
        })
    }

    /// Dot product (accumulated in `f64`). Dtypes must match.
    pub fn dot(&self, other: &Tensor) -> PyResult<f64> {
        binding_call(
            &self.device,
            || with_dtype!(("self", &self.data), ("other", &other.data); |a, b| Ok(a.compute_dot(b)?)),
        )
    }

    /// Euclidean norm over all elements.
    pub fn norm(&self) -> f64 {
        binding_call(&self.device, || {
            with_dtype!(&self.data, |d| d.compute_norm2())
        })
    }

    /// Converts to another dtype (always copies, like `ndarray.astype`).
    pub fn astype(&self, dtype: &str) -> PyResult<Tensor> {
        let target: DType = dtype.parse()?;
        let host = self.to_vec();
        from_f64_buffer(&self.device, self.shape(), target, host)
    }

    /// Clones onto another device, charging simulated transfers.
    pub fn to_device(&self, device: &Device) -> Tensor {
        binding_call(device, || {
            let data = with_dtype!(&self.data, |d as wrap| wrap(d.clone_to(device.executor())));
            Tensor {
                data,
                device: device.clone(),
            }
        })
    }
}

fn from_f64_buffer(
    device: &Device,
    (rows, cols): (usize, usize),
    dtype: DType,
    host: Vec<f64>,
) -> PyResult<Tensor> {
    let dim = Dim2::new(rows, cols);
    let exec = device.executor();
    let data = match dtype {
        // Zero-copy path (§5.2): the owned buffer moves without an
        // element-wise copy, like a NumPy array passed via buffer protocol.
        DType::Double => PerDType::Double(Dense::from_vec(exec, dim, host)?),
        narrower => with_dtype!(narrower.tag(), |_tag as wrap| {
            wrap(Dense::from_vec(exec, dim, host.iter().map(|&v| Value::from_f64(v)).collect())?)
        }),
    };
    Ok(Tensor {
        data,
        device: device.clone(),
    })
}

/// Builds a tensor from a host buffer — `pg.as_tensor(x, device=...)`.
///
/// `data` is row-major and must have `rows * cols` elements.
pub fn as_tensor(
    data: Vec<f64>,
    device: &Device,
    dim: (usize, usize),
    dtype: &str,
) -> PyResult<Tensor> {
    binding_call(device, || {
        let target: DType = dtype.parse()?;
        // A shape whose element count overflows is no buffer's length either.
        if Dim2::new(dim.0, dim.1).checked_count() != Some(data.len()) {
            return Err(PyGinkgoError::Value(format!(
                "buffer of {} elements cannot fill shape ({}, {})",
                data.len(),
                dim.0,
                dim.1
            )));
        }
        from_f64_buffer(device, dim, target, data)
    })
}

/// Builds a constant-filled tensor — Listing 1's
/// `pg.as_tensor(device=dev, dim=(n, 1), dtype="double", fill=1.0)`.
pub fn as_tensor_fill(
    device: &Device,
    dim: (usize, usize),
    dtype: &str,
    fill: f64,
) -> PyResult<Tensor> {
    binding_call(device, || {
        let target: DType = dtype.parse()?;
        let dim2 = Dim2::new(dim.0, dim.1);
        if dim2.checked_count().is_none() {
            return Err(PyGinkgoError::Value(format!(
                "shape ({}, {}) has more elements than can be addressed",
                dim.0, dim.1
            )));
        }
        let exec = device.executor();
        let data = with_dtype!(target.tag(), |_tag as wrap| {
            wrap(Dense::filled(exec, dim2, Value::from_f64(fill)))
        });
        Ok(Tensor {
            data,
            device: device.clone(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::device;

    #[test]
    fn listing_1_style_construction() {
        let dev = device("reference").unwrap();
        let b = as_tensor_fill(&dev, (5, 1), "double", 1.0).unwrap();
        assert_eq!(b.shape(), (5, 1));
        assert_eq!(b.dtype(), DType::Double);
        assert_eq!(b.to_vec(), vec![1.0; 5]);
    }

    #[test]
    fn buffer_construction_and_access() {
        let dev = device("reference").unwrap();
        let mut t = as_tensor(vec![1.0, 2.0, 3.0, 4.0], &dev, (2, 2), "float").unwrap();
        assert_eq!(t.dtype(), DType::Float);
        assert_eq!(t.get(1, 0).unwrap(), 3.0);
        t.set(1, 0, 7.5).unwrap();
        assert_eq!(t.get(1, 0).unwrap(), 7.5);
        assert!(t.get(2, 0).is_err());
        assert!(t.set(0, 2, 0.0).is_err());
    }

    #[test]
    fn wrong_buffer_length_is_a_value_error() {
        let dev = device("reference").unwrap();
        let err = as_tensor(vec![1.0; 3], &dev, (2, 2), "double").unwrap_err();
        assert!(err.to_string().contains("ValueError"));
    }

    #[test]
    fn half_tensor_rounds_values() {
        let dev = device("reference").unwrap();
        let t = as_tensor(vec![0.1], &dev, (1, 1), "half").unwrap();
        let v = t.get(0, 0).unwrap();
        assert!((v - 0.1).abs() < 1e-3 && v != 0.1, "half-rounded: {v}");
    }

    #[test]
    fn astype_roundtrip() {
        let dev = device("reference").unwrap();
        let t = as_tensor(vec![1.5, -2.5], &dev, (2, 1), "double").unwrap();
        let f = t.astype("float32").unwrap();
        assert_eq!(f.dtype(), DType::Float);
        assert_eq!(f.to_vec(), vec![1.5, -2.5]);
        assert!(t.astype("int8").is_err());
    }

    #[test]
    fn vector_math_works() {
        let dev = device("reference").unwrap();
        let mut a = as_tensor(vec![3.0, 4.0], &dev, (2, 1), "double").unwrap();
        let b = as_tensor(vec![1.0, 1.0], &dev, (2, 1), "double").unwrap();
        assert_eq!(a.dot(&b).unwrap(), 7.0);
        assert_eq!(a.norm(), 5.0);
        a.add_scaled(2.0, &b).unwrap();
        assert_eq!(a.to_vec(), vec![5.0, 6.0]);
        a.scale(0.5);
        assert_eq!(a.to_vec(), vec![2.5, 3.0]);
        a.fill(0.0);
        assert_eq!(a.to_vec(), vec![0.0, 0.0]);
    }

    #[test]
    fn mixed_dtype_math_raises_type_error() {
        let dev = device("reference").unwrap();
        let a = as_tensor(vec![1.0], &dev, (1, 1), "double").unwrap();
        let b = as_tensor(vec![1.0], &dev, (1, 1), "float").unwrap();
        assert!(matches!(a.dot(&b), Err(PyGinkgoError::Type(_))));
        let mut a2 = a.clone();
        assert!(matches!(
            a2.add_scaled(1.0, &b),
            Err(PyGinkgoError::Type(_))
        ));
    }

    #[test]
    fn to_device_charges_transfer() {
        let host = device("reference").unwrap();
        let gpu = device("cuda").unwrap();
        let t = as_tensor(vec![1.0; 1000], &host, (1000, 1), "double").unwrap();
        let before = gpu.executor().timeline().snapshot();
        let g = t.to_device(&gpu);
        let delta = gpu.executor().timeline().snapshot().since(&before);
        assert!(delta.copies >= 1);
        assert_eq!(g.to_vec(), t.to_vec());
        assert_eq!(g.device().executor().backend().name(), "cuda");
    }
}
