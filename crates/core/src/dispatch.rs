//! The binding boundary (§5.1): one instantiation table, and the handles
//! behind it.
//!
//! C++ function overloading does not exist in Python, so pyGinkgo
//! pre-instantiates every template combination under a mangled name
//! (`funcxx_int`, `funcxx_float`) inside the `pyGinkgoBindings` module and a
//! single-entry-point Python function looks the instantiation up at run
//! time; after that a pybind11 object is just an object. Here rustc does the
//! pre-instantiation. `TABLE` spells each `Csr<V, I>` / `Coo<V, I>` the
//! facade supports once, the only place in the crate where a concrete
//! instantiation is named, and [`lookup`] is how
//! [`crate::SparseMatrix::from_triplets`] reaches its constructor. Past
//! construction the index type is gone: a matrix is an `Arc<dyn Instance<V>>`
//! and every other operator an `Arc<dyn LinOp<V>>`, each held by value type
//! in a `PerDType` that `with_dtype!` opens.

use crate::dtype::{DType, IndexType};
use crate::error::{PyGinkgoError, PyResult};
use crate::matrix::MatrixFormat;
use gko::config::{Config, ConfiguredSolver};
use gko::matrix::{BatchCsr, BatchDense, Coo, Csr, Dense, SpmvStrategy};
use gko::preconditioner::{Ic, Ilu, Jacobi};
use gko::solver::{BatchBiCgStab, BatchCg, BatchSolveRecord, Direct, LowerTrs, UpperTrs};
use gko::stop::Criteria;
use gko::{Dim2, Executor, Index, LinOp, Value};
use pygko_half::Half;
use std::fmt::Debug;
use std::sync::Arc;

/// One payload per value type of Table 1: the shape of every dtype-erased
/// handle the facade holds ([`MatrixImpl`], [`OpImpl`],
/// [`crate::tensor::TensorData`]).
#[derive(Clone, Debug)]
pub(crate) enum PerDType<H, F, D> {
    Half(H),
    Float(F),
    Double(D),
}

impl DType {
    /// The tag as a handle without payload, for [`with_dtype!`] to open
    /// where a handle of this dtype is still to be built.
    pub(crate) fn tag(self) -> PerDType<(), (), ()> {
        match self {
            DType::Half => PerDType::Half(()),
            DType::Float => PerDType::Float(()),
            DType::Double => PerDType::Double(()),
        }
    }
}

impl<H, F, D> PerDType<H, F, D> {
    /// The runtime tag of the payload held.
    pub(crate) fn dtype(&self) -> DType {
        match self {
            PerDType::Half(_) => DType::Half,
            PerDType::Float(_) => DType::Float,
            PerDType::Double(_) => DType::Double,
        }
    }
}

/// A sparse matrix: format and index type live behind the pointer.
pub(crate) type MatrixImpl =
    PerDType<Arc<dyn Instance<Half>>, Arc<dyn Instance<f32>>, Arc<dyn Instance<f64>>>;

/// A solver, preconditioner or convolution: any engine operator.
pub(crate) type OpImpl = PerDType<Arc<dyn LinOp<Half>>, Arc<dyn LinOp<f32>>, Arc<dyn LinOp<f64>>>;

/// The facade's one dtype dispatch, `funcxx(a) -> funcxx_float(a)`: runs
/// `$body` with the payloads of one to three [`PerDType`] handles bound,
/// once per value type. `as $wrap` also binds the constructor of the matched
/// variant, for a body whose result is a handle of the same dtype.
macro_rules! with_dtype {
    // One handle: every tag has an arm, so the body may be infallible.
    ($handle:expr, |$x:ident $(as $wrap:ident)?| $body:expr) => {
        match $handle {
            $crate::dispatch::PerDType::Half($x) => {
                $(let $wrap = $crate::dispatch::PerDType::Half;)?
                $body
            }
            $crate::dispatch::PerDType::Float($x) => {
                $(let $wrap = $crate::dispatch::PerDType::Float;)?
                $body
            }
            $crate::dispatch::PerDType::Double($x) => {
                $(let $wrap = $crate::dispatch::PerDType::Double;)?
                $body
            }
        }
    };
    // Several named handles: the body, a `PyResult`, runs when their tags
    // agree; otherwise the result is the one dtype-mismatch error.
    ($(($name:literal, $handle:expr)),+; |$($x:ident),+ $(as $wrap:ident)?| $body:expr) => {
        match ($($handle,)+) {
            ($($crate::dispatch::PerDType::Half($x),)+) => {
                $(let $wrap = $crate::dispatch::PerDType::Half;)?
                $body
            }
            ($($crate::dispatch::PerDType::Float($x),)+) => {
                $(let $wrap = $crate::dispatch::PerDType::Float;)?
                $body
            }
            ($($crate::dispatch::PerDType::Double($x),)+) => {
                $(let $wrap = $crate::dispatch::PerDType::Double;)?
                $body
            }
            ($($x,)+) => Err($crate::dispatch::dtype_mismatch(&[$(($name, $x.dtype())),+])),
        }
    };
}
pub(crate) use with_dtype;

/// The one dtype-mismatch error: every participant by name with its dtype,
/// the operator first.
pub(crate) fn dtype_mismatch(parts: &[(&str, DType)]) -> PyGinkgoError {
    let parts: Vec<String> = parts
        .iter()
        .map(|(what, dtype)| format!("{what} is {dtype}"))
        .collect();
    PyGinkgoError::Type(format!("dtype mismatch: {}", parts.join(", ")))
}

/// What the facade asks of a matrix once its index type is erased. Written
/// once per format, generically over the value and index types.
pub(crate) trait Instance<V: Value>: LinOp<V> + Debug {
    fn format(&self) -> MatrixFormat;
    fn index_type(&self) -> IndexType;
    fn nnz(&self) -> usize;
    /// The engine sanitizer's structural validation.
    fn validate(&self) -> gko::Result<()>;
    fn to_dense(&self) -> Dense<V>;
    /// The stored entries widened to f64. Both formats keep them sorted by
    /// `(row, col)` without duplicates, so storage order is row-major order.
    fn stored_entries(&self) -> Vec<(usize, usize, f64)>;
    /// The CSR-only half, when the matrix is stored as CSR.
    fn csr(self: Arc<Self>) -> Option<Arc<dyn CsrInstance<V>>>;
    /// The matrix in CSR storage (itself when it already is).
    fn to_csr(self: Arc<Self>) -> Arc<dyn CsrInstance<V>>;
    /// The matrix in COO storage (itself when it already is).
    fn to_coo(self: Arc<Self>) -> Arc<dyn Instance<V>>;
}

/// What the engine generates from CSR storage and hands back as a plain
/// operator: the preconditioners, and the direct and triangular solvers.
#[derive(Clone, Copy)]
pub(crate) enum Generate {
    Jacobi { block_size: usize },
    Ilu,
    Ic,
    Direct,
    LowerTrs,
    UpperTrs,
}

/// The half of the facade only CSR storage serves.
pub(crate) trait CsrInstance<V: Value>: Instance<V> {
    /// A copy with another SpMV strategy.
    fn with_strategy(&self, strategy: SpmvStrategy) -> Arc<dyn Instance<V>>;
    /// The preconditioner or solver `what` names, generated from the matrix.
    fn generate(self: Arc<Self>, what: Generate) -> gko::Result<Arc<dyn LinOp<V>>>;
    /// The solver pipeline a config tree describes.
    fn config_solve(self: Arc<Self>, config: &Config) -> gko::Result<ConfiguredSolver<V>>;
    /// One batched CG (`cg`) or BiCGStab solve over the matrix replicated
    /// once per column of the row-major `(n, S)` blocks `b` and `x`.
    fn solve_batch(
        &self,
        cg: bool,
        criteria: Criteria,
        b: &Dense<V>,
        x: &mut Dense<V>,
    ) -> gko::Result<BatchSolveRecord>;
}

impl<V: Value, I: Ordinal> Instance<V> for Csr<V, I> {
    fn format(&self) -> MatrixFormat {
        MatrixFormat::Csr
    }
    fn index_type(&self) -> IndexType {
        I::INDEX_TYPE
    }
    fn nnz(&self) -> usize {
        Csr::nnz(self)
    }
    fn validate(&self) -> gko::Result<()> {
        Csr::validate(self)
    }
    fn to_dense(&self) -> Dense<V> {
        Csr::to_dense(self)
    }
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
    fn csr(self: Arc<Self>) -> Option<Arc<dyn CsrInstance<V>>> {
        Some(self)
    }
    fn to_csr(self: Arc<Self>) -> Arc<dyn CsrInstance<V>> {
        self
    }
    fn to_coo(self: Arc<Self>) -> Arc<dyn Instance<V>> {
        Arc::new(Coo::from_csr(&self))
    }
}

impl<V: Value, I: Ordinal> Instance<V> for Coo<V, I> {
    fn format(&self) -> MatrixFormat {
        MatrixFormat::Coo
    }
    fn index_type(&self) -> IndexType {
        I::INDEX_TYPE
    }
    fn nnz(&self) -> usize {
        Coo::nnz(self)
    }
    fn validate(&self) -> gko::Result<()> {
        Coo::validate(self)
    }
    fn to_dense(&self) -> Dense<V> {
        Coo::to_dense(self)
    }
    fn stored_entries(&self) -> Vec<(usize, usize, f64)> {
        (self
            .row_idxs()
            .iter()
            .zip(self.col_idxs())
            .zip(self.values()))
        .map(|((r, c), v)| (r.to_usize(), c.to_usize(), v.to_f64()))
        .collect()
    }
    fn csr(self: Arc<Self>) -> Option<Arc<dyn CsrInstance<V>>> {
        None
    }
    fn to_csr(self: Arc<Self>) -> Arc<dyn CsrInstance<V>> {
        Arc::new(Coo::to_csr(&self))
    }
    fn to_coo(self: Arc<Self>) -> Arc<dyn Instance<V>> {
        self
    }
}

impl<V: Value, I: Ordinal> CsrInstance<V> for Csr<V, I> {
    fn with_strategy(&self, strategy: SpmvStrategy) -> Arc<dyn Instance<V>> {
        Arc::new(Csr::with_strategy(self.clone(), strategy))
    }
    fn generate(self: Arc<Self>, what: Generate) -> gko::Result<Arc<dyn LinOp<V>>> {
        Ok(match what {
            Generate::Jacobi { block_size } => {
                Arc::new(Jacobi::with_block_size(&*self, block_size)?)
            }
            Generate::Ilu => Arc::new(Ilu::new(&self)?),
            Generate::Ic => Arc::new(Ic::new(&self)?),
            Generate::Direct => Arc::new(Direct::new(&*self)?),
            Generate::LowerTrs => Arc::new(LowerTrs::new(self)?),
            Generate::UpperTrs => Arc::new(UpperTrs::new(self)?),
        })
    }
    fn config_solve(self: Arc<Self>, config: &Config) -> gko::Result<ConfiguredSolver<V>> {
        gko::config::config_solve(self, config)
    }
    fn solve_batch(
        &self,
        cg: bool,
        criteria: Criteria,
        b: &Dense<V>,
        x: &mut Dense<V>,
    ) -> gko::Result<BatchSolveRecord> {
        let Dim2 {
            rows: n,
            cols: systems,
        } = b.size();
        let batch = Arc::new(BatchCsr::replicated(self, systems)?);
        // Row-major (n, S) columns -> contiguous per-system vectors.
        let mut bb = BatchDense::zeros(self.executor(), systems, Dim2::new(n, 1));
        let mut xb = BatchDense::zeros(self.executor(), systems, Dim2::new(n, 1));
        for s in 0..systems {
            let (bsys, xsys) = (bb.system_mut(s), xb.system_mut(s));
            for i in 0..n {
                bsys[i] = b.as_slice()[i * systems + s];
                xsys[i] = x.as_slice()[i * systems + s];
            }
        }
        let record = if cg {
            BatchCg::new(batch)?
                .with_criteria(criteria)
                .apply_batch(&bb, &mut xb)?
        } else {
            BatchBiCgStab::new(batch)?
                .with_criteria(criteria)
                .apply_batch(&bb, &mut xb)?
        };
        for s in 0..systems {
            for i in 0..n {
                x.as_mut_slice()[i * systems + s] = xb.system(s)[i];
            }
        }
        Ok(record)
    }
}

/// An engine index type as the facade tags it.
pub(crate) trait Ordinal: Index {
    /// Table 1's tag of this type.
    const INDEX_TYPE: IndexType;
}

impl Ordinal for i32 {
    const INDEX_TYPE: IndexType = IndexType::Int32;
}

impl Ordinal for i64 {
    const INDEX_TYPE: IndexType = IndexType::Int64;
}

/// The facade's triplet-list constructor, as each instantiation provides it.
pub(crate) type Build = fn(&Executor, Dim2, &[(usize, usize, f64)]) -> gko::Result<MatrixImpl>;

/// The table row of one engine matrix type: its binding under the
/// constructor's name, and the constructor. `$tag` is the value type's tag,
/// which the handle's variant of that name holds the compiler to.
macro_rules! row {
    ($Format:ident<$V:ty, $I:ty>, $tag:ident) => {
        (
            BindingEntry {
                op: OPS[0],
                format: MatrixFormat::$Format,
                dtype: DType::$tag,
                index_type: <$I as Ordinal>::INDEX_TYPE,
            },
            |exec, dim, triplets| {
                let matrix = $Format::<$V, $I>::from_triplets(exec, dim, triplets)?;
                Ok(PerDType::$tag(Arc::new(matrix)))
            },
        )
    };
}

/// Every engine matrix type the facade instantiates (2 formats x Table 1's 3
/// value types x 2 index types).
static TABLE: [(BindingEntry, Build); 12] = [
    row!(Csr<Half, i32>, Half),
    row!(Csr<Half, i64>, Half),
    row!(Csr<f32, i32>, Float),
    row!(Csr<f32, i64>, Float),
    row!(Csr<f64, i32>, Double),
    row!(Csr<f64, i64>, Double),
    row!(Coo<Half, i32>, Half),
    row!(Coo<Half, i64>, Half),
    row!(Coo<f32, i32>, Float),
    row!(Coo<f32, i64>, Float),
    row!(Coo<f64, i32>, Double),
    row!(Coo<f64, i64>, Double),
];

/// What identifies an instantiation: the table's lookup key.
type Key = (MatrixFormat, DType, IndexType);

/// The table lookup; its miss is the facade's "uninstantiated combination".
fn find(key: Key) -> PyResult<&'static (BindingEntry, Build)> {
    TABLE
        .iter()
        .find(|(entry, _)| entry.key() == key)
        .ok_or_else(|| {
            let (format, dtype, index_type) = (key.0.name(), key.1, key.2);
            PyGinkgoError::Type(format!(
                "no {format} instantiation for {dtype} values with {index_type} indices"
            ))
        })
}

/// The §5.1 mangled name, e.g. `"spmv_csr_double_int32"`.
pub(crate) fn mangled(op: &str, (format, dtype, index_type): Key) -> String {
    let format = format.name().to_ascii_lowercase();
    format!("{op}_{format}_{dtype}_{index_type}")
}

/// One pre-instantiated binding, identified by its mangled name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BindingEntry {
    /// Operation (`"spmv"`, `"convert"`, `"solve"`...).
    pub op: &'static str,
    /// Storage format the instantiation is bound to.
    pub format: MatrixFormat,
    /// Value type.
    pub dtype: DType,
    /// Index type.
    pub index_type: IndexType,
}

impl BindingEntry {
    fn key(&self) -> Key {
        (self.format, self.dtype, self.index_type)
    }

    /// The mangled symbol name, e.g. `"spmv_csr_double_int32"`.
    pub fn mangled(&self) -> String {
        mangled(self.op, self.key())
    }

    /// The instantiation's triplet-list constructor.
    pub(crate) fn constructor(&self) -> PyResult<Build> {
        Ok(find(self.key())?.1)
    }
}

/// Operations the facade dispatches per (format, dtype, itype) instantiation.
pub const OPS: [&str; 4] = ["from_triplets", "spmv", "convert", "solve"];

/// Enumerates every pre-instantiated binding: the instantiation table times
/// the operations.
pub fn registry() -> Vec<BindingEntry> {
    let bindings = |op| {
        TABLE.iter().map(move |(entry, _)| BindingEntry {
            op,
            ..entry.clone()
        })
    };
    OPS.iter().copied().flat_map(bindings).collect()
}

/// Resolves the binding a dynamic call dispatches to; the errors are what a
/// Python user sees when naming an unknown operation (`ValueError`) or an
/// uninstantiated combination (`TypeError`).
pub fn lookup(
    op: &str,
    format: MatrixFormat,
    dtype: DType,
    index_type: IndexType,
) -> PyResult<BindingEntry> {
    let Some(&op) = OPS.iter().find(|&&known| known == op) else {
        return Err(PyGinkgoError::Value(format!("unknown operation '{op}'")));
    };
    let (entry, _) = find((format, dtype, index_type))?;
    Ok(BindingEntry {
        op,
        ..entry.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_full_cross_product() {
        let reg = registry();
        // 4 ops x 2 formats x 3 dtypes x 2 index types.
        assert_eq!(reg.len(), 4 * 2 * 3 * 2);
        // All mangled names are unique.
        let mut names: Vec<String> = reg.iter().map(BindingEntry::mangled).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), reg.len());
    }

    #[test]
    fn mangling_matches_the_papers_scheme() {
        let e = lookup("spmv", MatrixFormat::Csr, DType::Double, IndexType::Int32).unwrap();
        assert_eq!(e.mangled(), "spmv_csr_double_int32");
        let e = lookup("convert", MatrixFormat::Coo, DType::Half, IndexType::Int64).unwrap();
        assert_eq!(e.mangled(), "convert_coo_half_int64");
    }

    #[test]
    fn unknown_ops_are_rejected() {
        assert!(lookup("fft", MatrixFormat::Csr, DType::Float, IndexType::Int32).is_err());
        // Advertised until PR 19, never bound.
        assert!(lookup(
            "spmv_advanced",
            MatrixFormat::Csr,
            DType::Float,
            IndexType::Int32
        )
        .is_err());
    }

    /// The tags the table reads off the engine types carry the names the
    /// engine gives those types, so a mangled name is `V::NAME`/`I::NAME`.
    #[test]
    fn tags_agree_with_the_engine_type_names() {
        assert_eq!(DType::Half.name(), <Half as Value>::NAME);
        assert_eq!(DType::Float.name(), <f32 as Value>::NAME);
        assert_eq!(DType::Double.name(), <f64 as Value>::NAME);
        assert_eq!(<i32 as Ordinal>::INDEX_TYPE.name(), <i32 as Index>::NAME);
        assert_eq!(<i64 as Ordinal>::INDEX_TYPE.name(), <i64 as Index>::NAME);
    }
}
