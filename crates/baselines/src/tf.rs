//! TensorFlow analog.
//!
//! TensorFlow supports only the COO format (paper §2) and implements
//! `sparse_dense_matmul` as a gather of products followed by a sorted
//! segment sum — two full passes over the nonzeros with an intermediate
//! products buffer written to and read back from memory. Together with the
//! heaviest per-op executor overhead, this is why the paper measures
//! TensorFlow 2–14x behind pyGinkgo.

use crate::overhead::TF_NS;
use crate::{fp64_penalty, framework_chunks};
use gko::base::dim::Dim2;
use gko::base::error::Result;
use gko::base::types::{Index, Value};
use gko::executor::pool::uniform_bounds;
use gko::linop::{check_operands, LinOp};
use gko::matrix::{Coo, Dense};
use gko::Executor;
use pygko_sim::ChunkWork;
use std::sync::Arc;

/// Untuned-kernel bandwidth inefficiency (see the torch analog); TF's
/// generic gather/segment ops are further from peak than torch's.
const KERNEL_INEFFICIENCY: f64 = 1.5;

/// TensorFlow's COO-only SpMV via gather + sorted segment sum.
pub struct TfCoo<V: Value, I: Index = i32> {
    matrix: Arc<Coo<V, I>>,
}

impl<V: Value, I: Index> TfCoo<V, I> {
    /// Wraps a COO matrix (TensorFlow's only sparse format).
    pub fn new(matrix: Arc<Coo<V, I>>) -> Self {
        TfCoo { matrix }
    }

    fn work(&self) -> Vec<ChunkWork> {
        let bounds = uniform_bounds(self.matrix.nnz(), framework_chunks(self.matrix.executor()));
        let pen = fp64_penalty::<V>();
        let mut chunks: Vec<ChunkWork> = Vec::with_capacity(2 * bounds.len());
        // Pass 1: gather products into the intermediate buffer.
        for w in bounds.windows(2) {
            let e = (w[1] - w[0]) as f64;
            chunks.push(ChunkWork::new(
                // read indices+values, write products buffer
                (e * (2 * I::BYTES + V::BYTES) as f64 * pen + e * V::BYTES as f64 * pen)
                    * KERNEL_INEFFICIENCY,
                e * V::BYTES as f64 * pen * KERNEL_INEFFICIENCY, // x gather
                e,
            ));
        }
        // Pass 2: segment-sum the products buffer into y.
        for w in bounds.windows(2) {
            let e = (w[1] - w[0]) as f64;
            chunks.push(ChunkWork::new(
                // re-read products + segment ids, write outputs
                e * (V::BYTES + I::BYTES) as f64 * pen * KERNEL_INEFFICIENCY,
                // segment boundary updates
                e * 0.25 * V::BYTES as f64 * pen * KERNEL_INEFFICIENCY,
                e,
            ));
        }
        chunks
    }
}

impl<V: Value, I: Index> LinOp<V> for TfCoo<V, I> {
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

        // Pass 1: products buffer (really materialized, like TF does).
        let nnz = vals.len();
        let mut products = vec![0.0f64; nnz * k];
        for idx in 0..nnz {
            let v = vals[idx].to_f64();
            for c in 0..k {
                products[idx * k + c] = v * bv[ci[idx].to_usize() * k + c].to_f64();
            }
        }
        // Pass 2: sorted segment sum into the output.
        let xs = x.as_mut_slice();
        for v in xs.iter_mut() {
            *v = V::zero();
        }
        let mut acc = vec![0.0f64; k];
        let mut idx = 0usize;
        while idx < nnz {
            let r = ri[idx].to_usize();
            acc.fill(0.0);
            while idx < nnz && ri[idx].to_usize() == r {
                for (c, a) in acc.iter_mut().enumerate() {
                    *a += products[idx * k + c];
                }
                idx += 1;
            }
            for (c, &a) in acc.iter().enumerate() {
                xs[r * k + c] = V::from_f64(a);
            }
        }
        let exec = self.executor();
        exec.timeline().advance_ns(TF_NS);
        // Two kernel launches: gather pass and segment-sum pass.
        let all = self.work();
        let half = all.len() / 2;
        exec.launch(&all[..half]);
        exec.launch(&all[half..]);
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        "tf::coo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_executor;
    use gko::matrix::Csr;

    fn system(exec: &Executor, n: usize) -> Arc<Coo<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 3.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Arc::new(Coo::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn segment_sum_matches_engine_numerics() {
        let exec = gpu_executor("TensorFlow");
        let coo = system(&exec, 200);
        let csr = coo.to_csr();
        let b = Dense::<f64>::vector(&exec, 200, 1.25);
        let tf = TfCoo::new(coo);
        let mut x1 = Dense::zeros(&exec, Dim2::new(200, 1));
        let mut x2 = Dense::zeros(&exec, Dim2::new(200, 1));
        tf.apply(&b, &mut x1).unwrap();
        csr.apply(&b, &mut x2).unwrap();
        for (a, b) in x1.to_host_vec().iter().zip(x2.to_host_vec()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn two_pass_kernel_is_slowest_of_the_gpu_libraries() {
        let n = 40_000usize;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 3.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }

        // TensorFlow.
        let tf_exec = gpu_executor("TensorFlow");
        let tf = TfCoo::new(Arc::new(
            Coo::<f64, i32>::from_triplets(&tf_exec, Dim2::square(n), &t).unwrap(),
        ));
        let b = Dense::<f64>::vector(&tf_exec, n, 1.0);
        let mut x = Dense::zeros(&tf_exec, Dim2::new(n, 1));
        let t0 = tf_exec.timeline().snapshot();
        tf.apply(&b, &mut x).unwrap();
        let tf_ns = tf_exec.timeline().snapshot().since(&t0).ns;

        // pyGinkgo (engine CSR).
        let gk = Executor::cuda(0);
        let a = Csr::<f64, i32>::from_triplets(&gk, Dim2::square(n), &t).unwrap();
        let b2 = Dense::<f64>::vector(&gk, n, 1.0);
        let mut x2 = Dense::zeros(&gk, Dim2::new(n, 1));
        // Warm up so the engine's one-time plan build stays outside the
        // timed window — the paper compares steady-state SpMV.
        a.apply(&b2, &mut x2).unwrap();
        let t0 = gk.timeline().snapshot();
        a.apply(&b2, &mut x2).unwrap();
        let gko_ns = gk.timeline().snapshot().since(&t0).ns;

        // PyTorch COO for comparison.
        let to_exec = gpu_executor("PyTorch");
        let torch = crate::torch::TorchCoo::new(Arc::new(
            Coo::<f64, i32>::from_triplets(&to_exec, Dim2::square(n), &t).unwrap(),
        ));
        let b3 = Dense::<f64>::vector(&to_exec, n, 1.0);
        let mut x3 = Dense::zeros(&to_exec, Dim2::new(n, 1));
        let t0 = to_exec.timeline().snapshot();
        torch.apply(&b3, &mut x3).unwrap();
        let torch_ns = to_exec.timeline().snapshot().since(&t0).ns;

        assert!(
            tf_ns > torch_ns && torch_ns > gko_ns,
            "paper ordering pyGinkgo < PyTorch < TensorFlow violated: \
             gko {gko_ns}, torch {torch_ns}, tf {tf_ns}"
        );
        let ratio = tf_ns as f64 / gko_ns as f64;
        assert!(
            (2.0..20.0).contains(&ratio),
            "paper: TF 2-14x slower; modeled {ratio}"
        );
    }

    #[test]
    fn tf_launches_two_kernels_per_spmv() {
        let exec = gpu_executor("TensorFlow");
        let tf = TfCoo::new(system(&exec, 50));
        let b = Dense::<f64>::vector(&exec, 50, 1.0);
        let mut x = Dense::zeros(&exec, Dim2::new(50, 1));
        let t0 = exec.timeline().snapshot();
        tf.apply(&b, &mut x).unwrap();
        assert_eq!(exec.timeline().snapshot().since(&t0).kernels, 2);
    }
}
