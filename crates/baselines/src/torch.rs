//! PyTorch analog.
//!
//! `torch.sparse` offers CSR and COO SpMV, but (as the paper's §2 and §6.1
//! observe) the kernels are "not optimized": the CSR path uses a classical
//! row-balanced partition with no nnz balancing, the COO path is a
//! scatter-add with atomic updates, and every eager op pays the dispatcher
//! tax. Double precision paths are additionally throttled (the paper calls
//! fp64 in PyTorch "rather inefficient").

use crate::overhead::TORCH_NS;
use crate::{fp64_penalty, framework_chunks, Library, LibraryCsr};
use gko::base::dim::Dim2;
use gko::base::error::Result;
use gko::base::types::{Index, Value};
use gko::executor::pool::uniform_bounds;
use gko::linop::{check_operands, LinOp};
use gko::matrix::{Coo, Csr, Dense};
use gko::Executor;
use pygko_sim::ChunkWork;
use std::sync::Arc;

/// Effective-bandwidth inefficiency of the untuned kernels relative to a
/// hand-optimized SpMV (no vectorized loads, redundant row-pointer reads,
/// no streaming stores). Calibrated so PyTorch peaks near the paper's
/// ~110 GFLOP/s against pyGinkgo's ~150.
const KERNEL_INEFFICIENCY: f64 = 1.4;

/// PyTorch CSR SpMV: classical equal-row-count chunks.
pub type TorchCsr<V, I = i32> = LibraryCsr<V, I, Torch>;

/// PyTorch's CSR cost model (the library slot of [`TorchCsr`]).
pub struct Torch;

impl Library for Torch {
    const NAME: &'static str = "torch::csr";
    const OVERHEAD_NS: f64 = TORCH_NS;

    fn work<V: Value, I: Index>(matrix: &Csr<V, I>) -> Vec<ChunkWork> {
        let rows = matrix.size().rows;
        let rp = matrix.row_ptrs();
        // GPU: classical partition — equal rows per chunk, so skewed
        // matrices leave most workers idle while one grinds the heavy rows.
        let bounds = uniform_bounds(rows, framework_chunks(matrix.executor()));
        let pen = fp64_penalty::<V>();
        bounds
            .windows(2)
            .map(|w| {
                let nnz = (rp[w[1]].to_usize() - rp[w[0]].to_usize()) as f64;
                let r = (w[1] - w[0]) as f64;
                ChunkWork::new(
                    (nnz * (V::BYTES + I::BYTES) as f64 + r * (I::BYTES + V::BYTES) as f64)
                        * pen
                        * KERNEL_INEFFICIENCY,
                    nnz * V::BYTES as f64 * pen * KERNEL_INEFFICIENCY,
                    2.0 * nnz,
                )
            })
            .collect()
    }
}

/// PyTorch COO SpMV: gather + atomic scatter-add.
pub struct TorchCoo<V: Value, I: Index = i32> {
    matrix: Arc<Coo<V, I>>,
}

impl<V: Value, I: Index> TorchCoo<V, I> {
    /// Wraps a COO matrix.
    pub fn new(matrix: Arc<Coo<V, I>>) -> Self {
        TorchCoo { matrix }
    }

    /// Measures the actual atomic-collision pressure: the fraction of
    /// consecutive entries hitting the same output row (those serialize).
    fn conflict_factor(&self) -> f64 {
        let ri = self.matrix.row_idxs();
        if ri.len() < 2 {
            return 1.0;
        }
        let collisions = ri.windows(2).filter(|w| w[0] == w[1]).count();
        1.0 + collisions as f64 / (ri.len() - 1) as f64
    }

    fn work(&self) -> Vec<ChunkWork> {
        let bounds = uniform_bounds(self.matrix.nnz(), framework_chunks(self.matrix.executor()));
        let pen = fp64_penalty::<V>();
        let conflict = self.conflict_factor();
        bounds
            .windows(2)
            .map(|w| {
                let e = (w[1] - w[0]) as f64;
                ChunkWork::new(
                    e * (2 * I::BYTES + V::BYTES) as f64 * pen * KERNEL_INEFFICIENCY,
                    // Gather of x plus atomic read-modify-write of y,
                    // scaled by the measured same-row collision factor.
                    e * (V::BYTES as f64 * (1.0 + 2.0 * conflict)) * pen * KERNEL_INEFFICIENCY,
                    2.0 * e,
                )
            })
            .collect()
    }
}

impl<V: Value, I: Index> LinOp<V> for TorchCoo<V, I> {
    fn size(&self) -> Dim2 {
        self.matrix.size()
    }

    fn executor(&self) -> &Executor {
        self.matrix.executor()
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.matrix.size(), self.executor(), b, x)?;
        let k = b.size().cols;
        let ri = self.matrix.row_idxs();
        let ci = self.matrix.col_idxs();
        let vals = self.matrix.values();
        let bv = b.as_slice();
        let xs = x.as_mut_slice();
        for v in xs.iter_mut() {
            *v = V::zero();
        }
        // Scatter-add in f64 accumulation order (sorted entries).
        for idx in 0..vals.len() {
            let r = ri[idx].to_usize();
            let v = vals[idx].to_f64();
            for c in 0..k {
                let cur = xs[r * k + c].to_f64();
                xs[r * k + c] = V::from_f64(cur + v * bv[ci[idx].to_usize() * k + c].to_f64());
            }
        }
        let exec = self.executor();
        exec.timeline().advance_ns(TORCH_NS);
        exec.launch(&self.work());
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        "torch::coo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_executor;

    fn skewed(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for j in 0..n {
            t.push((0usize, j, 1.0));
        }
        for i in 1..n {
            t.push((i, i, 2.0));
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn torch_csr_and_coo_match_engine_numerics() {
        let exec = gpu_executor("PyTorch");
        let a = skewed(&exec, 100);
        let b = Dense::<f64>::vector(&exec, 100, 1.5);
        let mut want = Dense::zeros(&exec, Dim2::new(100, 1));
        a.apply(&b, &mut want).unwrap();

        let csr = TorchCsr::new(a.clone());
        let mut x = Dense::zeros(&exec, Dim2::new(100, 1));
        csr.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), want.to_host_vec());

        let coo = TorchCoo::new(Arc::new(Coo::from_csr(&a)));
        let mut y = Dense::zeros(&exec, Dim2::new(100, 1));
        coo.apply(&b, &mut y).unwrap();
        for (a, b) in y.to_host_vec().iter().zip(want.to_host_vec()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn classical_partition_suffers_on_skewed_rows() {
        let exec = gpu_executor("PyTorch");
        let a = skewed(&exec, 60_000);
        let torch = TorchCsr::new(a.clone());
        let b = Dense::<f64>::vector(&exec, 60_000, 1.0);
        let mut x = Dense::zeros(&exec, Dim2::new(60_000, 1));
        let t0 = exec.timeline().snapshot();
        torch.apply(&b, &mut x).unwrap();
        let torch_ns = exec.timeline().snapshot().since(&t0).ns;

        let gk = Executor::cuda(0);
        let a2 = a.clone_to(&gk);
        let b2 = Dense::<f64>::vector(&gk, 60_000, 1.0);
        let mut x2 = Dense::zeros(&gk, Dim2::new(60_000, 1));
        let t0 = gk.timeline().snapshot();
        a2.apply(&b2, &mut x2).unwrap();
        let gko_ns = gk.timeline().snapshot().since(&t0).ns;

        assert!(
            torch_ns as f64 > 1.5 * gko_ns as f64,
            "torch {torch_ns} vs gko {gko_ns}: load-balanced kernel should win on skew"
        );
    }

    #[test]
    fn conflict_factor_reflects_row_multiplicity() {
        let exec = gpu_executor("PyTorch");
        // All entries in one row: maximal conflicts.
        let hot = Coo::<f64, i32>::from_triplets(
            &exec,
            Dim2::square(10),
            &(0..10).map(|j| (0usize, j, 1.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        let spread = Coo::<f64, i32>::from_triplets(
            &exec,
            Dim2::square(10),
            &(0..10).map(|i| (i, i, 1.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        let hot_f = TorchCoo::new(Arc::new(hot)).conflict_factor();
        let spread_f = TorchCoo::new(Arc::new(spread)).conflict_factor();
        assert!(hot_f > 1.9, "hot row factor {hot_f}");
        assert!((spread_f - 1.0).abs() < 1e-12, "diagonal factor {spread_f}");
    }

    #[test]
    fn fp64_pays_extra_relative_to_fp32() {
        let exec32 = gpu_executor("PyTorch");
        let exec64 = gpu_executor("PyTorch");
        // Large enough that data movement, not launch overhead, dominates.
        let n = 2_000_000usize;
        let t32: Vec<(usize, usize, f32)> = (0..n).map(|i| (i, i, 1.0f32)).collect();
        let t64: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1.0f64)).collect();
        let a32 = Arc::new(Csr::<f32, i32>::from_triplets(&exec32, Dim2::square(n), &t32).unwrap());
        let a64 = Arc::new(Csr::<f64, i32>::from_triplets(&exec64, Dim2::square(n), &t64).unwrap());
        let b32 = Dense::<f32>::vector(&exec32, n, 1.0);
        let b64 = Dense::<f64>::vector(&exec64, n, 1.0);
        let mut x32 = Dense::zeros(&exec32, Dim2::new(n, 1));
        let mut x64 = Dense::zeros(&exec64, Dim2::new(n, 1));

        let t0 = exec32.timeline().snapshot();
        TorchCsr::new(a32).apply(&b32, &mut x32).unwrap();
        let ns32 = exec32.timeline().snapshot().since(&t0).ns;
        let t0 = exec64.timeline().snapshot();
        TorchCsr::new(a64).apply(&b64, &mut x64).unwrap();
        let ns64 = exec64.timeline().snapshot().since(&t0).ns;
        // fp64 moves 2x the bytes and pays the 1.6x kernel penalty.
        assert!(
            ns64 as f64 > 1.5 * ns32 as f64,
            "fp64 {ns64} should be well above fp32 {ns32}"
        );
    }
}
