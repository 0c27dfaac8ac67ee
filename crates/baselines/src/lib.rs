//! Algorithmically faithful analogs of the Python libraries the paper
//! benchmarks against (§6): SciPy, CuPy, PyTorch, and TensorFlow.
//!
//! Per `DESIGN.md`'s substitution table, each baseline reproduces the
//! *structural* choices that determine the competitor's performance, not its
//! exact code:
//!
//! | Library | CSR SpMV: its [`Library`] cost model | Its own operators |
//! |---|---|---|
//! | SciPy ([`scipy`]) | `Scipy`: the textbook loop as one chunk on one core | `scipy_solver`: the engine's Krylov loop over `ScipyCsr` |
//! | CuPy ([`cupy`]) | `Cupy`: cuSPARSE-style warp per row (wasted lanes on short rows) | `CupyGmres`: CPU-side Hessenberg least squares, orthonormal projection, and residual checks only at the end of each restart cycle (§6.2.1's three differences); `CupyKrylov`: the Python loop's per-iteration tax |
//! | PyTorch ([`torch`]) | `Torch`: classical row-balanced (not nnz-balanced) chunks | `TorchCoo`: scatter-add with atomic-update penalty |
//! | TensorFlow ([`tf`]) | none: COO only, as the paper notes | `TfCoo`: two-pass gather + sorted segment sum through an intermediate buffer |
//!
//! All baselines execute real numerics (their results are bit-compatible
//! with the engine's reference SpMV up to reduction order) and charge their
//! modeled cost, plus their framework's per-call [`overhead`] (SciPy's the
//! lightest, TensorFlow's the heaviest), to their own executor's virtual
//! timeline.
//!
//! The three CSR SpMVs are one operator, [`LibraryCsr`]: one row loop, then
//! the library's overhead and cost model (`ScipyCsr` is
//! `LibraryCsr<V, I, Scipy>`, and so on). The two COO SpMVs keep their own
//! loops: PyTorch rounds after every entry and TensorFlow once per row, so
//! their numerics differ.

#![warn(missing_docs)]

pub mod cupy;
pub mod scipy;
pub mod tf;
pub mod torch;

use gko::base::dim::Dim2;
use gko::base::error::Result;
use gko::base::types::{Index, Value};
use gko::executor::Backend;
use gko::linop::{check_operands, LinOp};
use gko::matrix::{Csr, Dense};
use gko::Executor;
use pygko_sim::{ChunkWork, DeviceKind, DeviceSpec};
use std::marker::PhantomData;
use std::sync::Arc;

/// Per-operation dispatch overhead of each framework, in virtual ns.
///
/// Calibration notes: PyTorch's dispatcher costs ~5–10 us per eager op
/// (documented extensively in the PyTorch dispatcher profiling literature);
/// TensorFlow's eager executor is heavier; CuPy is a thin wrapper above
/// cuSPARSE; SciPy calls C directly.
pub mod overhead {
    /// SciPy: one C call.
    pub(crate) const SCIPY_NS: f64 = 600.0;
    /// CuPy: thin Python wrapper + cuSPARSE descriptor handling.
    pub(crate) const CUPY_NS: f64 = 2_000.0;
    /// PyTorch: eager dispatcher + autograd bookkeeping.
    pub(crate) const TORCH_NS: f64 = 8_000.0;
    /// TensorFlow: eager op executor.
    pub(crate) const TF_NS: f64 = 25_000.0;
}

/// Extra throughput penalty for fp64 on the unoptimized PyTorch and
/// TensorFlow kernels (paper §2: "computations at double precision in
/// PyTorch and TensorFlow are rather inefficient").
fn fp64_penalty<V: Value>() -> f64 {
    if V::BYTES == 8 {
        1.6
    } else {
        1.0
    }
}

/// Chunks of a PyTorch or TensorFlow sparse kernel: their CPU kernels are
/// effectively unparallelized (one chunk, which is why the paper measures
/// 10-60x gaps there); on a GPU, two per worker.
fn framework_chunks(exec: &Executor) -> usize {
    let spec = exec.spec();
    if spec.kind == DeviceKind::Cpu {
        1
    } else {
        spec.workers * 2
    }
}

/// What tells one library's CSR SpMV from another's: its name, its per-call
/// overhead and its cost model.
pub trait Library {
    /// The operator's `op_name`.
    const NAME: &'static str;
    /// Per-call overhead, in virtual ns (one of [`overhead`]'s constants).
    const OVERHEAD_NS: f64;
    /// The chunks one SpMV with `matrix` charges.
    fn work<V: Value, I: Index>(matrix: &Csr<V, I>) -> Vec<ChunkWork>;
}

/// A library's CSR SpMV: the textbook row loop, which every library's
/// numerics reproduce, charged as the library `L` models it.
pub struct LibraryCsr<V: Value, I: Index, L> {
    matrix: Arc<Csr<V, I>>,
    library: PhantomData<fn() -> L>,
}

impl<V: Value, I: Index, L: Library> LibraryCsr<V, I, L> {
    /// Wraps a CSR matrix living on the library's executor.
    pub fn new(matrix: Arc<Csr<V, I>>) -> Self {
        LibraryCsr {
            matrix,
            library: PhantomData,
        }
    }
}

impl<V: Value, I: Index, L: Library> LinOp<V> for LibraryCsr<V, I, L> {
    fn size(&self) -> Dim2 {
        self.matrix.size()
    }

    fn executor(&self) -> &Executor {
        self.matrix.executor()
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.matrix.size(), self.executor(), b, x)?;
        let k = b.size().cols;
        let rp = self.matrix.row_ptrs();
        let ci = self.matrix.col_idxs();
        let vals = self.matrix.values();
        let bv = b.as_slice();
        let xs = x.as_mut_slice();
        for r in 0..self.matrix.size().rows {
            let (lo, hi) = (rp[r].to_usize(), rp[r + 1].to_usize());
            for c in 0..k {
                let mut acc = 0.0f64;
                for idx in lo..hi {
                    acc += vals[idx].to_f64() * bv[ci[idx].to_usize() * k + c].to_f64();
                }
                xs[r * k + c] = V::from_f64(acc);
            }
        }
        let exec = self.executor();
        exec.timeline().advance_ns(L::OVERHEAD_NS);
        exec.launch(&L::work(&self.matrix));
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        L::NAME
    }
}

/// Executor modeling the paper's SciPy baseline platform: one Xeon core.
pub fn scipy_executor() -> Executor {
    let mut spec = DeviceSpec::single_core();
    spec.name = "SciPy (1 core)".to_owned();
    Executor::with_spec(Backend::Reference, 0, spec)
}

/// Executor modeling the GPU the Python GPU libraries run on.
pub fn gpu_executor(library: &str) -> Executor {
    let mut spec = DeviceSpec::a100();
    spec.name = format!("{library} on NVIDIA A100");
    Executor::with_spec(Backend::Cuda, 0, spec)
}

/// Executor for CPU runs of torch/tf with a given thread count.
pub fn cpu_executor(library: &str, threads: usize) -> Executor {
    let mut spec = DeviceSpec::xeon_8368(threads);
    spec.name = format!("{library} on Xeon 8368 ({threads} threads)");
    Executor::with_spec(Backend::Omp, 0, spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executors_carry_library_names() {
        assert_eq!(scipy_executor().name(), "SciPy (1 core)");
        assert!(gpu_executor("CuPy").name().contains("CuPy"));
        assert!(cpu_executor("PyTorch", 8).name().contains("8 threads"));
    }

    #[test]
    fn overhead_ordering_matches_framework_weight() {
        let order = [
            overhead::SCIPY_NS,
            overhead::CUPY_NS,
            overhead::TORCH_NS,
            overhead::TF_NS,
        ];
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
    }
}
