//! Type-erased sparse matrices.
//!
//! Ginkgo's templates would generate one class per (format, value type,
//! index type) combination; pybind11 bindings pre-instantiate all of them
//! and the Python layer dispatches at runtime (§5.1). [`SparseMatrix`] is
//! that mechanism in Rust: an enum with one variant per pre-instantiated
//! combination (2 formats x 3 value types x 2 index types = 12), and
//! macro-generated dispatch.

use crate::device::Device;
use crate::dtype::{DType, IndexType};
use crate::error::{PyGinkgoError, PyResult};
use crate::gil::binding_call;
use crate::tensor::{Tensor, TensorData};
use gko::matrix::{Coo, Csr, SpmvStrategy};
use gko::{Dim2, Index, LinOp, Value};
use pygko_half::Half;
use std::sync::Arc;

/// Sparse storage format exposed by the facade.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatrixFormat {
    /// Compressed sparse row.
    Csr,
    /// Coordinate.
    Coo,
}

impl MatrixFormat {
    /// Parses `"Csr"`/`"csr"`/`"Coo"`/... (Listing 1 passes `format="Csr"`).
    pub fn parse(s: &str) -> PyResult<Self> {
        match s.to_ascii_lowercase().as_str() {
            "csr" => Ok(MatrixFormat::Csr),
            "coo" | "coordinate" => Ok(MatrixFormat::Coo),
            other => Err(PyGinkgoError::Value(format!(
                "unknown matrix format '{other}' (expected Csr or Coo)"
            ))),
        }
    }

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            MatrixFormat::Csr => "Csr",
            MatrixFormat::Coo => "Coo",
        }
    }
}

/// One variant per pre-instantiated (format, value, index) combination.
#[derive(Clone, Debug)]
pub(crate) enum MatrixImpl {
    CsrHalfI32(Arc<Csr<Half, i32>>),
    CsrHalfI64(Arc<Csr<Half, i64>>),
    CsrFloatI32(Arc<Csr<f32, i32>>),
    CsrFloatI64(Arc<Csr<f32, i64>>),
    CsrDoubleI32(Arc<Csr<f64, i32>>),
    CsrDoubleI64(Arc<Csr<f64, i64>>),
    CooHalfI32(Arc<Coo<Half, i32>>),
    CooHalfI64(Arc<Coo<Half, i64>>),
    CooFloatI32(Arc<Coo<f32, i32>>),
    CooFloatI64(Arc<Coo<f32, i64>>),
    CooDoubleI32(Arc<Coo<f64, i32>>),
    CooDoubleI64(Arc<Coo<f64, i64>>),
}

/// Dispatches over every variant, binding the inner `Arc` to `$m`.
macro_rules! with_impl {
    ($data:expr, $m:ident => $body:expr) => {
        match $data {
            MatrixImpl::CsrHalfI32($m) => $body,
            MatrixImpl::CsrHalfI64($m) => $body,
            MatrixImpl::CsrFloatI32($m) => $body,
            MatrixImpl::CsrFloatI64($m) => $body,
            MatrixImpl::CsrDoubleI32($m) => $body,
            MatrixImpl::CsrDoubleI64($m) => $body,
            MatrixImpl::CooHalfI32($m) => $body,
            MatrixImpl::CooHalfI64($m) => $body,
            MatrixImpl::CooFloatI32($m) => $body,
            MatrixImpl::CooFloatI64($m) => $body,
            MatrixImpl::CooDoubleI32($m) => $body,
            MatrixImpl::CooDoubleI64($m) => $body,
        }
    };
}

/// A sparse matrix with runtime-selected format, dtype, and index type.
#[derive(Clone, Debug)]
pub struct SparseMatrix {
    pub(crate) inner: MatrixImpl,
    pub(crate) device: Device,
}

impl SparseMatrix {
    /// Builds a matrix from (row, col, value) triplets with runtime type
    /// selection — the facade's central constructor, used by [`crate::read`]
    /// and the benchmark harness.
    pub fn from_triplets(
        device: &Device,
        shape: (usize, usize),
        triplets: &[(usize, usize, f64)],
        dtype: &str,
        index_type: &str,
        format: &str,
    ) -> PyResult<SparseMatrix> {
        binding_call(device, || {
            let dtype: DType = dtype.parse()?;
            let itype: IndexType = index_type.parse()?;
            let format = MatrixFormat::parse(format)?;
            let dim = Dim2::new(shape.0, shape.1);
            let exec = device.executor();

            macro_rules! build {
                ($variant:ident, $fmt:ident, $v:ty, $i:ty) => {
                    MatrixImpl::$variant(Arc::new(
                        $fmt::<$v, $i>::from_triplets(exec, dim, triplets)
                            .map_err(PyGinkgoError::from)?,
                    ))
                };
            }
            let inner = match (format, dtype, itype) {
                (MatrixFormat::Csr, DType::Half, IndexType::Int32) => build!(CsrHalfI32, Csr, Half, i32),
                (MatrixFormat::Csr, DType::Half, IndexType::Int64) => build!(CsrHalfI64, Csr, Half, i64),
                (MatrixFormat::Csr, DType::Float, IndexType::Int32) => build!(CsrFloatI32, Csr, f32, i32),
                (MatrixFormat::Csr, DType::Float, IndexType::Int64) => build!(CsrFloatI64, Csr, f32, i64),
                (MatrixFormat::Csr, DType::Double, IndexType::Int32) => build!(CsrDoubleI32, Csr, f64, i32),
                (MatrixFormat::Csr, DType::Double, IndexType::Int64) => build!(CsrDoubleI64, Csr, f64, i64),
                (MatrixFormat::Coo, DType::Half, IndexType::Int32) => build!(CooHalfI32, Coo, Half, i32),
                (MatrixFormat::Coo, DType::Half, IndexType::Int64) => build!(CooHalfI64, Coo, Half, i64),
                (MatrixFormat::Coo, DType::Float, IndexType::Int32) => build!(CooFloatI32, Coo, f32, i32),
                (MatrixFormat::Coo, DType::Float, IndexType::Int64) => build!(CooFloatI64, Coo, f32, i64),
                (MatrixFormat::Coo, DType::Double, IndexType::Int32) => build!(CooDoubleI32, Coo, f64, i32),
                (MatrixFormat::Coo, DType::Double, IndexType::Int64) => build!(CooDoubleI64, Coo, f64, i64),
            };
            Ok(SparseMatrix {
                inner,
                device: device.clone(),
            })
        })
    }

    /// Matrix shape (rows, cols) — exposed as `.size` in the paper's API.
    pub fn shape(&self) -> (usize, usize) {
        let d = with_impl!(&self.inner, m => m.size());
        (d.rows, d.cols)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        with_impl!(&self.inner, m => m.nnz())
    }

    /// Runs the engine sanitizer's structural validation on the stored
    /// format: re-derives the CSR/COO invariants (monotone row pointers,
    /// in-bounds indices, sorted coordinates) from scratch and reports the
    /// first violation as a value error.
    pub fn validate(&self) -> PyResult<()> {
        with_impl!(&self.inner, m => m.validate().map_err(PyGinkgoError::from))
    }

    /// Runtime value type.
    pub fn dtype(&self) -> DType {
        match &self.inner {
            MatrixImpl::CsrHalfI32(_)
            | MatrixImpl::CsrHalfI64(_)
            | MatrixImpl::CooHalfI32(_)
            | MatrixImpl::CooHalfI64(_) => DType::Half,
            MatrixImpl::CsrFloatI32(_)
            | MatrixImpl::CsrFloatI64(_)
            | MatrixImpl::CooFloatI32(_)
            | MatrixImpl::CooFloatI64(_) => DType::Float,
            MatrixImpl::CsrDoubleI32(_)
            | MatrixImpl::CsrDoubleI64(_)
            | MatrixImpl::CooDoubleI32(_)
            | MatrixImpl::CooDoubleI64(_) => DType::Double,
        }
    }

    /// Runtime index type.
    pub fn index_type(&self) -> IndexType {
        match &self.inner {
            MatrixImpl::CsrHalfI32(_)
            | MatrixImpl::CsrFloatI32(_)
            | MatrixImpl::CsrDoubleI32(_)
            | MatrixImpl::CooHalfI32(_)
            | MatrixImpl::CooFloatI32(_)
            | MatrixImpl::CooDoubleI32(_) => IndexType::Int32,
            _ => IndexType::Int64,
        }
    }

    /// Storage format.
    pub fn format(&self) -> MatrixFormat {
        match &self.inner {
            MatrixImpl::CsrHalfI32(_)
            | MatrixImpl::CsrHalfI64(_)
            | MatrixImpl::CsrFloatI32(_)
            | MatrixImpl::CsrFloatI64(_)
            | MatrixImpl::CsrDoubleI32(_)
            | MatrixImpl::CsrDoubleI64(_) => MatrixFormat::Csr,
            _ => MatrixFormat::Coo,
        }
    }

    /// The device the matrix lives on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The §5.1 mangled binding name this matrix dispatches to, e.g.
    /// `"spmv_csr_double_int32"`.
    pub fn binding_name(&self, op: &str) -> String {
        format!(
            "{op}_{}_{}_{}",
            self.format().name().to_ascii_lowercase(),
            self.dtype().name(),
            self.index_type().name()
        )
    }

    /// SpMV: returns `x = A b` as a new tensor (`x = mtx @ b` in Python).
    pub fn spmv(&self, b: &Tensor) -> PyResult<Tensor> {
        let (rows, _) = self.shape();
        let (_, bcols) = b.shape();
        let mut x = crate::tensor::as_tensor_fill(
            &self.device,
            (rows, bcols),
            self.dtype().name(),
            0.0,
        )?;
        self.spmv_into(b, &mut x)?;
        Ok(x)
    }

    /// SpMV into an existing output tensor.
    pub fn spmv_into(&self, b: &Tensor, x: &mut Tensor) -> PyResult<()> {
        let dev = self.device.clone();
        binding_call(&dev, || {
            macro_rules! go {
                ($m:expr, $bvar:ident, $xvar:ident) => {
                    match (b.data(), x.data_mut()) {
                        (TensorData::$bvar(bd), TensorData::$xvar(xd)) => {
                            $m.apply(bd, xd).map_err(PyGinkgoError::from)
                        }
                        _ => Err(PyGinkgoError::Type(format!(
                            "dtype mismatch: matrix is {}, operands are {}/{}",
                            self.dtype(),
                            b.dtype(),
                            self.dtype()
                        ))),
                    }
                };
            }
            match &self.inner {
                MatrixImpl::CsrHalfI32(m) => go!(m, Half, Half),
                MatrixImpl::CsrHalfI64(m) => go!(m, Half, Half),
                MatrixImpl::CsrFloatI32(m) => go!(m, Float, Float),
                MatrixImpl::CsrFloatI64(m) => go!(m, Float, Float),
                MatrixImpl::CsrDoubleI32(m) => go!(m, Double, Double),
                MatrixImpl::CsrDoubleI64(m) => go!(m, Double, Double),
                MatrixImpl::CooHalfI32(m) => go!(m, Half, Half),
                MatrixImpl::CooHalfI64(m) => go!(m, Half, Half),
                MatrixImpl::CooFloatI32(m) => go!(m, Float, Float),
                MatrixImpl::CooFloatI64(m) => go!(m, Float, Float),
                MatrixImpl::CooDoubleI32(m) => go!(m, Double, Double),
                MatrixImpl::CooDoubleI64(m) => go!(m, Double, Double),
            }
        })
    }

    /// Converts to another storage format (same dtype/index type).
    pub fn convert(&self, format: &str) -> PyResult<SparseMatrix> {
        let dev = self.device.clone();
        binding_call(&dev, || {
            let target = MatrixFormat::parse(format)?;
            if target == self.format() {
                return Ok(self.clone());
            }
            let inner = match (&self.inner, target) {
                (MatrixImpl::CsrHalfI32(m), MatrixFormat::Coo) => MatrixImpl::CooHalfI32(Arc::new(Coo::from_csr(m))),
                (MatrixImpl::CsrHalfI64(m), MatrixFormat::Coo) => MatrixImpl::CooHalfI64(Arc::new(Coo::from_csr(m))),
                (MatrixImpl::CsrFloatI32(m), MatrixFormat::Coo) => MatrixImpl::CooFloatI32(Arc::new(Coo::from_csr(m))),
                (MatrixImpl::CsrFloatI64(m), MatrixFormat::Coo) => MatrixImpl::CooFloatI64(Arc::new(Coo::from_csr(m))),
                (MatrixImpl::CsrDoubleI32(m), MatrixFormat::Coo) => MatrixImpl::CooDoubleI32(Arc::new(Coo::from_csr(m))),
                (MatrixImpl::CsrDoubleI64(m), MatrixFormat::Coo) => MatrixImpl::CooDoubleI64(Arc::new(Coo::from_csr(m))),
                (MatrixImpl::CooHalfI32(m), MatrixFormat::Csr) => MatrixImpl::CsrHalfI32(Arc::new(m.to_csr())),
                (MatrixImpl::CooHalfI64(m), MatrixFormat::Csr) => MatrixImpl::CsrHalfI64(Arc::new(m.to_csr())),
                (MatrixImpl::CooFloatI32(m), MatrixFormat::Csr) => MatrixImpl::CsrFloatI32(Arc::new(m.to_csr())),
                (MatrixImpl::CooFloatI64(m), MatrixFormat::Csr) => MatrixImpl::CsrFloatI64(Arc::new(m.to_csr())),
                (MatrixImpl::CooDoubleI32(m), MatrixFormat::Csr) => MatrixImpl::CsrDoubleI32(Arc::new(m.to_csr())),
                (MatrixImpl::CooDoubleI64(m), MatrixFormat::Csr) => MatrixImpl::CsrDoubleI64(Arc::new(m.to_csr())),
                _ => unreachable!("same-format handled above"),
            };
            Ok(SparseMatrix {
                inner,
                device: self.device.clone(),
            })
        })
    }

    /// Selects the CSR SpMV strategy: `"classical"`, `"load_balance"`,
    /// `"merge"`/`"merge_path"`, or `"auto"` (the default, which resolves
    /// from the matrix's row-skew statistics). No-op for COO, which is
    /// inherently nnz-partitioned.
    pub fn with_spmv_strategy(&self, strategy: &str) -> PyResult<SparseMatrix> {
        let s = match strategy.to_ascii_lowercase().as_str() {
            "classical" => SpmvStrategy::Classical,
            "load_balance" => SpmvStrategy::LoadBalance,
            "merge" | "merge_path" => SpmvStrategy::MergePath,
            "auto" => SpmvStrategy::Auto,
            other => {
                return Err(PyGinkgoError::Value(format!(
                    "unknown SpMV strategy '{other}'"
                )))
            }
        };
        macro_rules! restrategize {
            ($variant:ident, $m:expr) => {
                MatrixImpl::$variant(Arc::new($m.as_ref().clone().with_strategy(s)))
            };
        }
        let inner = match &self.inner {
            MatrixImpl::CsrHalfI32(m) => restrategize!(CsrHalfI32, m),
            MatrixImpl::CsrHalfI64(m) => restrategize!(CsrHalfI64, m),
            MatrixImpl::CsrFloatI32(m) => restrategize!(CsrFloatI32, m),
            MatrixImpl::CsrFloatI64(m) => restrategize!(CsrFloatI64, m),
            MatrixImpl::CsrDoubleI32(m) => restrategize!(CsrDoubleI32, m),
            MatrixImpl::CsrDoubleI64(m) => restrategize!(CsrDoubleI64, m),
            other => other.clone(),
        };
        Ok(SparseMatrix {
            inner,
            device: self.device.clone(),
        })
    }

    /// Densifies into a tensor (small matrices; used by tests and examples).
    pub fn to_dense(&self) -> Tensor {
        let dev = self.device.clone();
        binding_call(&dev, || {
            macro_rules! dense_of {
                ($m:expr, $variant:ident) => {
                    TensorData::$variant($m.to_dense())
                };
            }
            let data = match &self.inner {
                MatrixImpl::CsrHalfI32(m) => dense_of!(m, Half),
                MatrixImpl::CsrHalfI64(m) => dense_of!(m, Half),
                MatrixImpl::CsrFloatI32(m) => dense_of!(m, Float),
                MatrixImpl::CsrFloatI64(m) => dense_of!(m, Float),
                MatrixImpl::CsrDoubleI32(m) => dense_of!(m, Double),
                MatrixImpl::CsrDoubleI64(m) => dense_of!(m, Double),
                MatrixImpl::CooHalfI32(m) => dense_of!(m, Half),
                MatrixImpl::CooHalfI64(m) => dense_of!(m, Half),
                MatrixImpl::CooFloatI32(m) => dense_of!(m, Float),
                MatrixImpl::CooFloatI64(m) => dense_of!(m, Float),
                MatrixImpl::CooDoubleI32(m) => dense_of!(m, Double),
                MatrixImpl::CooDoubleI64(m) => dense_of!(m, Double),
            };
            Tensor::new(self.device.clone(), data)
        })
    }

    /// The stored entries in row-major order, explicit zeros dropped and
    /// values widened to f64 (for writing back to Matrix Market). Walks the
    /// CSR/COO arrays, so the cost is O(nnz) whatever the shape.
    pub fn to_triplets(&self) -> Vec<(usize, usize, f64)> {
        let mut out = binding_call(&self.device.clone(), || {
            with_impl!(&self.inner, m => m.stored_entries())
        });
        out.retain(|&(_, _, v)| v != 0.0);
        out
    }
}

/// A format's stored entries, widened to f64. Both formats keep them sorted
/// by `(row, col)` without duplicates, so storage order is row-major order.
trait StoredEntries {
    fn stored_entries(&self) -> Vec<(usize, usize, f64)>;
}

impl<V: Value, I: Index> StoredEntries for Csr<V, I> {
    fn stored_entries(&self) -> Vec<(usize, usize, f64)> {
        let (row_ptrs, cols, vals) = (self.row_ptrs(), self.col_idxs(), self.values());
        let mut out = Vec::with_capacity(vals.len());
        for (r, span) in row_ptrs.windows(2).enumerate() {
            for k in span[0].to_usize()..span[1].to_usize() {
                out.push((r, cols[k].to_usize(), vals[k].to_f64()));
            }
        }
        out
    }
}

impl<V: Value, I: Index> StoredEntries for Coo<V, I> {
    fn stored_entries(&self) -> Vec<(usize, usize, f64)> {
        (self.row_idxs().iter().zip(self.col_idxs()).zip(self.values()))
            .map(|((r, c), v)| (r.to_usize(), c.to_usize(), v.to_f64()))
            .collect()
    }
}

fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<SparseMatrix>();
    check::<Tensor>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::device;
    use crate::tensor::as_tensor;

    fn sample(dev: &Device, dtype: &str, itype: &str, format: &str) -> SparseMatrix {
        SparseMatrix::from_triplets(
            dev,
            (3, 3),
            &[
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
                (2, 2, 6.0),
            ],
            dtype,
            itype,
            format,
        )
        .unwrap()
    }

    #[test]
    fn all_twelve_combinations_construct_and_multiply() {
        let dev = device("reference").unwrap();
        for dtype in ["half", "float", "double"] {
            for itype in ["int32", "int64"] {
                for format in ["Csr", "Coo"] {
                    let m = sample(&dev, dtype, itype, format);
                    assert_eq!(m.shape(), (3, 3));
                    assert_eq!(m.nnz(), 6);
                    let b = as_tensor(vec![1.0, 2.0, 3.0], &dev, (3, 1), dtype).unwrap();
                    let x = m.spmv(&b).unwrap();
                    let xs = x.to_vec();
                    assert!(
                        (xs[0] - 5.0).abs() < 0.02 && (xs[2] - 32.0).abs() < 0.05,
                        "{dtype}/{itype}/{format}: {xs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn metadata_reflects_construction() {
        let dev = device("reference").unwrap();
        let m = sample(&dev, "float32", "int64", "coo");
        assert_eq!(m.dtype(), DType::Float);
        assert_eq!(m.index_type(), IndexType::Int64);
        assert_eq!(m.format(), MatrixFormat::Coo);
        assert_eq!(m.binding_name("spmv"), "spmv_coo_float_int64");
    }

    #[test]
    fn dtype_mismatch_in_spmv_raises() {
        let dev = device("reference").unwrap();
        let m = sample(&dev, "double", "int32", "Csr");
        let b = as_tensor(vec![1.0, 2.0, 3.0], &dev, (3, 1), "float").unwrap();
        assert!(matches!(m.spmv(&b), Err(PyGinkgoError::Type(_))));
    }

    #[test]
    fn format_conversion_roundtrip_preserves_values() {
        let dev = device("reference").unwrap();
        let m = sample(&dev, "double", "int32", "Csr");
        let coo = m.convert("Coo").unwrap();
        assert_eq!(coo.format(), MatrixFormat::Coo);
        let back = coo.convert("Csr").unwrap();
        assert_eq!(back.to_dense().to_vec(), m.to_dense().to_vec());
        // Converting to the same format is a cheap clone.
        assert_eq!(m.convert("csr").unwrap().nnz(), m.nnz());
    }

    #[test]
    fn invalid_construction_raises_value_or_type_error() {
        let dev = device("reference").unwrap();
        assert!(SparseMatrix::from_triplets(&dev, (2, 2), &[(5, 0, 1.0)], "double", "int32", "Csr").is_err());
        assert!(SparseMatrix::from_triplets(&dev, (2, 2), &[], "quad", "int32", "Csr").is_err());
        assert!(SparseMatrix::from_triplets(&dev, (2, 2), &[], "double", "int8", "Csr").is_err());
        assert!(SparseMatrix::from_triplets(&dev, (2, 2), &[], "double", "int32", "Hyb").is_err());
    }

    #[test]
    fn spmv_strategy_switch_keeps_results() {
        let dev = device("cuda").unwrap();
        let m = sample(&dev, "double", "int32", "Csr");
        let b = as_tensor(vec![1.0, 2.0, 3.0], &dev, (3, 1), "double").unwrap();
        let x1 = m.spmv(&b).unwrap();
        for strategy in ["classical", "load_balance", "merge", "merge_path", "auto"] {
            let m2 = m.with_spmv_strategy(strategy).unwrap();
            let x2 = m2.spmv(&b).unwrap();
            assert_eq!(x1.to_vec(), x2.to_vec(), "strategy {strategy}");
        }
        assert!(m.with_spmv_strategy("quantum").is_err());
    }

    /// The O(rows·cols) scan `to_triplets` used to be: the reference the
    /// stored-entry walk must reproduce (order, dropped zeros, widening).
    fn dense_scan(m: &SparseMatrix) -> Vec<(usize, usize, f64)> {
        let dense = m.to_dense();
        let (rows, cols) = dense.shape();
        let mut out = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = dense.get(r, c).unwrap();
                if v != 0.0 {
                    out.push((r, c, v));
                }
            }
        }
        out
    }

    #[test]
    fn triplet_extraction_roundtrip() {
        let dev = device("reference").unwrap();
        let m = sample(&dev, "double", "int32", "Csr");
        let t = m.to_triplets();
        assert_eq!(t.len(), 6);
        let m2 = SparseMatrix::from_triplets(&dev, (3, 3), &t, "double", "int32", "Csr").unwrap();
        assert_eq!(m2.to_dense().to_vec(), m.to_dense().to_vec());

        // Every instantiation walks its stored entries to the same triplets
        // the dense scan finds — unsorted input, an empty row, a stored
        // explicit zero and a duplicate pair cancelling to zero included.
        let entries = [
            (3, 1, 0.5),
            (0, 2, 1.0),
            (0, 0, 2.0),
            (1, 1, 0.0),
            (3, 3, -4.0),
            (1, 0, 3.0),
            (1, 2, 7.0),
            (1, 2, -7.0),
        ];
        for dtype in ["half", "float", "double"] {
            for itype in ["int32", "int64"] {
                for format in ["Csr", "Coo"] {
                    let m = SparseMatrix::from_triplets(&dev, (4, 4), &entries, dtype, itype, format)
                        .unwrap();
                    assert_eq!(m.nnz(), 7, "zeros are stored");
                    let t = m.to_triplets();
                    assert_eq!(t, dense_scan(&m), "{dtype}/{itype}/{format}");
                    assert_eq!(t.len(), 5, "and dropped on extraction");
                }
            }
        }
    }
}
