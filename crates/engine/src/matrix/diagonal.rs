//! Diagonal matrices (Ginkgo's `matrix::Diagonal`) — the cheapest
//! preconditioner building block.

use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::executor::pool::{parallel_chunks, uniform_bounds};
use crate::executor::Executor;
use crate::linop::{check_operands, LinOp};
use crate::log::OpTimer;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use pygko_sim::ChunkWork;

/// A diagonal matrix stored as its diagonal values, an `n x 1` column: its
/// product with a vector is then `Dense::assign_product`, one sweep like
/// every other BLAS-1 operation.
#[derive(Debug, Clone)]
pub struct Diagonal<V: Value> {
    values: Dense<V>,
}

impl<V: Value> Diagonal<V> {
    /// Creates a diagonal matrix from its entries.
    pub fn new(exec: &Executor, values: Vec<V>) -> Self {
        Diagonal {
            values: Dense::column(exec, values),
        }
    }

    /// The diagonal of an existing matrix.
    pub fn from_matrix<I: Index>(matrix: &Csr<V, I>) -> Self {
        Diagonal::new(matrix.executor(), matrix.extract_diagonal())
    }

    /// Inverted copy; fails on zero entries.
    pub fn inverse(&self) -> Result<Diagonal<V>> {
        let mut inv = Vec::with_capacity(self.len());
        for (i, &v) in self.values().iter().enumerate() {
            if v == V::zero() {
                return Err(GkoError::Singular { at: i });
            }
            inv.push(V::one() / v);
        }
        Ok(Diagonal::new(self.executor(), inv))
    }

    fn len(&self) -> usize {
        self.values.size().rows
    }

    /// The diagonal entries.
    pub fn values(&self) -> &[V] {
        self.values.as_slice()
    }
}

impl<V: Value> LinOp<V> for Diagonal<V> {
    fn size(&self) -> Dim2 {
        Dim2::square(self.len())
    }

    fn executor(&self) -> &Executor {
        self.values.executor()
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size(), self.executor(), b, x)?;
        let k = b.size().cols;
        if k == 1 {
            return x.assign_product(&self.values, b);
        }
        // A block of `k` vectors: every row of `b` scaled by its entry,
        // row-chunked on the executor's pool (`k` = 0 leaves nothing to
        // write, and a chunk length may not be 0).
        let _timer = OpTimer::new(self.executor(), "diagonal");
        let d = self.values();
        let bv = b.as_slice();
        let exec = self.executor().clone();
        let spec = exec.spec();
        let row_bounds = uniform_bounds(d.len(), spec.workers * 2);
        let elem_bounds: Vec<usize> = row_bounds.iter().map(|&r| r * k).collect();
        let work: Vec<ChunkWork> = row_bounds
            .windows(2)
            .map(|w| {
                let n = ((w[1] - w[0]) * k) as f64;
                ChunkWork::new(n * 3.0 * V::BYTES as f64, 0.0, n)
            })
            .collect();
        parallel_chunks(&exec, x.as_mut_slice(), &elem_bounds, |chunk, xs| {
            let rows = row_bounds[chunk]..row_bounds[chunk + 1];
            let b_rows = bv[rows.start * k..rows.end * k].chunks_exact(k.max(1));
            for ((x_row, b_row), &d) in xs.chunks_exact_mut(k.max(1)).zip(b_rows).zip(&d[rows]) {
                for (out, &b) in x_row.iter_mut().zip(b_row) {
                    *out = d * b;
                }
            }
        });
        self.executor().launch(&work);
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        "diagonal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_scales_entries() {
        let exec = Executor::reference();
        let d = Diagonal::new(&exec, vec![2.0f64, 3.0, -1.0]);
        let b = Dense::from_rows(&exec, &[[1.0f64], [1.0], [4.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(3, 1));
        d.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![2.0, 3.0, -4.0]);
    }

    #[test]
    fn inverse_round_trips_and_detects_zero() {
        let exec = Executor::reference();
        let d = Diagonal::new(&exec, vec![2.0f64, 4.0]);
        let inv = d.inverse().unwrap();
        assert_eq!(inv.values(), &[0.5, 0.25]);
        let zero = Diagonal::new(&exec, vec![1.0f64, 0.0]);
        assert_eq!(zero.inverse().unwrap_err(), GkoError::Singular { at: 1 });
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let exec = Executor::reference();
        let d = Diagonal::new(&exec, vec![1.0f64; 3]);
        let b = Dense::<f64>::vector(&exec, 2, 1.0);
        let mut x = Dense::zeros(&exec, Dim2::new(3, 1));
        assert!(d.apply(&b, &mut x).is_err());
    }
}
