//! Type-erased sparse matrices.
//!
//! Ginkgo's templates would generate one class per (format, value type,
//! index type) combination; pybind11 bindings pre-instantiate all of them
//! and the Python layer dispatches at runtime (§5.1). [`SparseMatrix`] is
//! that object in Rust: [`SparseMatrix::from_triplets`] looks its
//! constructor up in the instantiation table of [`crate::dispatch`], and
//! what comes back is a handle that knows its value type as a tag and its
//! format and index type only behind a pointer. Every method here is written
//! against that handle, once.

use crate::device::Device;
use crate::dispatch::{self, with_dtype, CsrInstance, Generate, Instance, MatrixImpl, OpImpl};
use crate::dtype::{DType, IndexType};
use crate::error::{PyGinkgoError, PyResult};
use crate::gil::binding_call;
use crate::tensor::Tensor;
use gko::matrix::SpmvStrategy;
use gko::{Dim2, Value};
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

/// A sparse matrix with runtime-selected format, dtype, and index type.
#[derive(Clone, Debug)]
pub struct SparseMatrix {
    pub(crate) inner: MatrixImpl,
    pub(crate) device: Device,
}

/// The CSR-only half of a matrix. A COO matrix is converted first, through
/// the binding crossing that `convert("Csr")` is (Ginkgo's factories convert
/// the same way inside `generate()`).
pub(crate) fn csr_half<V: Value>(
    device: &Device,
    matrix: &Arc<dyn Instance<V>>,
) -> Arc<dyn CsrInstance<V>> {
    let csr = matrix.clone().csr();
    csr.unwrap_or_else(|| binding_call(device, || matrix.clone().to_csr()))
}

impl SparseMatrix {
    /// Builds a matrix from (row, col, value) triplets with runtime type
    /// selection — the facade's central constructor, used by [`crate::read()`]
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
            let build = dispatch::lookup("from_triplets", format, dtype, itype)?.constructor()?;
            let dim = Dim2::new(shape.0, shape.1);
            Ok(SparseMatrix {
                inner: build(device.executor(), dim, triplets)?,
                device: device.clone(),
            })
        })
    }

    /// Matrix shape (rows, cols) — exposed as `.size` in the paper's API.
    pub fn shape(&self) -> (usize, usize) {
        let d = with_dtype!(&self.inner, |m| m.size());
        (d.rows, d.cols)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        with_dtype!(&self.inner, |m| m.nnz())
    }

    /// Runs the engine sanitizer's structural validation on the stored
    /// format: re-derives the CSR/COO invariants (monotone row pointers,
    /// in-bounds indices, sorted coordinates) from scratch and reports the
    /// first violation as a value error.
    pub fn validate(&self) -> PyResult<()> {
        Ok(with_dtype!(&self.inner, |m| m.validate())?)
    }

    /// Runtime value type.
    pub fn dtype(&self) -> DType {
        self.inner.dtype()
    }

    /// Runtime index type.
    pub fn index_type(&self) -> IndexType {
        with_dtype!(&self.inner, |m| m.index_type())
    }

    /// Storage format.
    pub fn format(&self) -> MatrixFormat {
        with_dtype!(&self.inner, |m| m.format())
    }

    /// The device the matrix lives on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The §5.1 mangled binding name this matrix dispatches to, e.g.
    /// `"spmv_csr_double_int32"`.
    pub fn binding_name(&self, op: &str) -> String {
        dispatch::mangled(op, (self.format(), self.dtype(), self.index_type()))
    }

    /// SpMV: returns `x = A b` as a new tensor (`x = mtx @ b` in Python).
    pub fn spmv(&self, b: &Tensor) -> PyResult<Tensor> {
        let (rows, _) = self.shape();
        let (_, bcols) = b.shape();
        let mut x =
            crate::tensor::as_tensor_fill(&self.device, (rows, bcols), self.dtype().name(), 0.0)?;
        self.spmv_into(b, &mut x)?;
        Ok(x)
    }

    /// SpMV into an existing output tensor.
    pub fn spmv_into(&self, b: &Tensor, x: &mut Tensor) -> PyResult<()> {
        binding_call(&self.device, || {
            with_dtype!(("matrix", &self.inner), ("b", &b.data), ("x", &mut x.data); |m, bd, xd| {
                Ok(m.apply(bd, xd)?)
            })
        })
    }

    /// Converts to another storage format (same dtype/index type).
    pub fn convert(&self, format: &str) -> PyResult<SparseMatrix> {
        binding_call(&self.device, || {
            let target = MatrixFormat::parse(format)?;
            let inner = with_dtype!(&self.inner, |m as wrap| wrap(match target {
                MatrixFormat::Coo => m.clone().to_coo(),
                MatrixFormat::Csr => m.clone().to_csr(),
            }));
            Ok(self.with_inner(inner))
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
        // Only CSR has strategies: COO is inherently nnz-partitioned.
        Ok(
            self.with_inner(with_dtype!(&self.inner, |m as wrap| match m.clone().csr() {
                Some(csr) => wrap(csr.with_strategy(s)),
                None => wrap(m.clone()),
            })),
        )
    }

    /// Densifies into a tensor (small matrices; used by tests and examples).
    pub fn to_dense(&self) -> Tensor {
        binding_call(&self.device, || {
            let data = with_dtype!(&self.inner, |m as wrap| wrap(m.to_dense()));
            Tensor {
                data,
                device: self.device.clone(),
            }
        })
    }

    /// The stored entries in row-major order, explicit zeros dropped and
    /// values widened to f64 (for writing back to Matrix Market). Walks the
    /// CSR/COO arrays, so the cost is O(nnz) whatever the shape.
    pub fn to_triplets(&self) -> Vec<(usize, usize, f64)> {
        let mut out = binding_call(&self.device, || {
            with_dtype!(&self.inner, |m| m.stored_entries())
        });
        out.retain(|&(_, _, v)| v != 0.0);
        out
    }

    /// Generates `what` from the matrix's CSR half in one binding crossing on
    /// `device` (one more for a COO matrix: see [`csr_half`]).
    pub(crate) fn generate(&self, device: &Device, what: Generate) -> PyResult<OpImpl> {
        binding_call(device, || {
            Ok(
                with_dtype!(&self.inner, |m as wrap| wrap(csr_half(&self.device, m).generate(what)?)),
            )
        })
    }

    fn with_inner(&self, inner: MatrixImpl) -> SparseMatrix {
        SparseMatrix {
            inner,
            device: self.device.clone(),
        }
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

    /// The one mismatch error names the operator's dtype and each operand's:
    /// a float `x` under a double matrix and `b` used to read "operands are
    /// double/double".
    #[test]
    fn dtype_mismatch_names_every_participant() {
        let dev = device("reference").unwrap();
        let m = sample(&dev, "double", "int32", "Csr");
        let b = as_tensor(vec![1.0, 2.0, 3.0], &dev, (3, 1), "double").unwrap();
        let mut x = as_tensor(vec![0.0; 3], &dev, (3, 1), "float").unwrap();
        let spmv = m.spmv_into(&b, &mut x).unwrap_err();
        let cfg = crate::config_solver::SolveOptions::default()
            .to_config()
            .unwrap();
        let solve = crate::config_solver::solve_with_config(&m, &b, &mut x, &cfg).unwrap_err();
        for err in [spmv, solve] {
            assert!(matches!(err, PyGinkgoError::Type(_)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains("matrix is double"), "{msg}");
            assert!(
                msg.contains("b is double") && msg.contains("x is float"),
                "{msg}"
            );
        }
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
        assert!(SparseMatrix::from_triplets(
            &dev,
            (2, 2),
            &[(5, 0, 1.0)],
            "double",
            "int32",
            "Csr"
        )
        .is_err());
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
                    let m =
                        SparseMatrix::from_triplets(&dev, (4, 4), &entries, dtype, itype, format)
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
