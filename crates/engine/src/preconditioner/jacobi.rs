//! Jacobi (diagonal and block-diagonal) preconditioner.

use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::executor::Executor;
use crate::factorization::lu::DenseLu;
use crate::linop::{check_apply_dims, LinOp};
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use pygko_sim::ChunkWork;

/// Jacobi preconditioner: `M = diag-blocks(A)`, applied as `z = M^{-1} r`.
///
/// With `block_size == 1` this is the scalar Jacobi of Listing 2; larger
/// blocks invert dense diagonal blocks (Ginkgo's block-Jacobi).
pub struct Jacobi<V> {
    exec: Executor,
    size: Dim2,
    block_size: usize,
    inverse: Inverse<V>,
}

/// What `M^{-1}` is stored as.
enum Inverse<V> {
    /// Scalar fast path: inverted diagonal.
    Diagonal(Vec<V>),
    /// Block path: one LU per diagonal block (last may be smaller).
    Blocks(Vec<DenseLu>),
}

impl<V: Value> Jacobi<V> {
    /// Scalar Jacobi (`block_size = 1`).
    pub fn new<I: Index>(matrix: &Csr<V, I>) -> Result<Self> {
        Jacobi::with_block_size(matrix, 1)
    }

    /// Block Jacobi with the given block size.
    pub fn with_block_size<I: Index>(matrix: &Csr<V, I>, block_size: usize) -> Result<Self> {
        if !matrix.size().is_square() {
            return Err(GkoError::BadInput("jacobi needs a square matrix".into()));
        }
        if block_size == 0 {
            return Err(GkoError::BadInput("block size must be positive".into()));
        }
        let n = matrix.size().rows;
        let exec = matrix.executor().clone();
        if block_size == 1 {
            let diag = matrix.extract_diagonal();
            let mut inv = Vec::with_capacity(n);
            for (i, d) in diag.into_iter().enumerate() {
                if d == V::zero() {
                    return Err(GkoError::Singular { at: i });
                }
                inv.push(V::one() / d);
            }
            exec.launch(&[ChunkWork::new((n * V::BYTES) as f64 * 2.0, 0.0, n as f64)]);
            return Ok(Jacobi {
                exec,
                size: matrix.size(),
                block_size,
                inverse: Inverse::Diagonal(inv),
            });
        }

        // Extract and factorize each diagonal block.
        let dense = matrix.to_dense();
        let mut blocks = Vec::new();
        let mut start = 0usize;
        while start < n {
            let bs = block_size.min(n - start);
            let mut block = vec![0.0f64; bs * bs];
            for i in 0..bs {
                for j in 0..bs {
                    block[i * bs + j] = dense.at(start + i, start + j).to_f64();
                }
            }
            blocks.push(DenseLu::factor(bs, &block).map_err(|e| match e {
                GkoError::Singular { at } => GkoError::Singular { at: start + at },
                other => other,
            })?);
            start += bs;
        }
        exec.launch(&[ChunkWork::new(
            (n * block_size * V::BYTES) as f64,
            0.0,
            (n * block_size * block_size) as f64,
        )]);
        Ok(Jacobi {
            exec,
            size: matrix.size(),
            block_size,
            inverse: Inverse::Blocks(blocks),
        })
    }

    /// Configured block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }
}

impl<V: Value> LinOp<V> for Jacobi<V> {
    fn size(&self) -> Dim2 {
        self.size
    }

    fn executor(&self) -> &Executor {
        &self.exec
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        check_apply_dims::<V>(self.size, b, x)?;
        let n = self.size.rows;
        let k = b.size().cols;
        let bv = b.as_slice();
        let xs = x.as_mut_slice();
        let blocks = match &self.inverse {
            Inverse::Diagonal(inv) => {
                for i in 0..n {
                    for c in 0..k {
                        xs[i * k + c] = inv[i] * bv[i * k + c];
                    }
                }
                self.exec.launch(&[ChunkWork::new(
                    (n * k * V::BYTES * 3) as f64,
                    0.0,
                    (n * k) as f64,
                )]);
                return Ok(());
            }
            Inverse::Blocks(blocks) => blocks,
        };
        let mut start = 0usize;
        for lu in blocks {
            let bs = lu.n();
            for c in 0..k {
                let rhs: Vec<f64> = (0..bs).map(|i| bv[(start + i) * k + c].to_f64()).collect();
                let sol = lu.solve(&rhs)?;
                for i in 0..bs {
                    xs[(start + i) * k + c] = V::from_f64(sol[i]);
                }
            }
            start += bs;
        }
        self.exec.launch(&[ChunkWork::new(
            (n * self.block_size * k * V::BYTES) as f64,
            0.0,
            (2 * n * self.block_size * k) as f64,
        )]);
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        "preconditioner::Jacobi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(exec: &Executor) -> Csr<f64, i32> {
        Csr::from_triplets(
            exec,
            Dim2::square(4),
            &[
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 4.0),
                (2, 2, 5.0),
                (3, 3, 8.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn scalar_jacobi_inverts_diagonal() {
        let exec = Executor::reference();
        let m = Jacobi::new(&sample(&exec)).unwrap();
        let b = Dense::from_rows(&exec, &[[2.0f64], [4.0], [10.0], [16.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(4, 1));
        m.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn block_jacobi_inverts_blocks_exactly() {
        let exec = Executor::reference();
        let a = sample(&exec);
        let m = Jacobi::with_block_size(&a, 2).unwrap();
        assert_eq!(m.block_size(), 2);
        // First 2x2 block is [2 1; 1 4]; apply to its own column sums.
        let b = Dense::from_rows(&exec, &[[3.0f64], [5.0], [5.0], [8.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(4, 1));
        m.apply(&b, &mut x).unwrap();
        assert!((x.at(0, 0) - 1.0).abs() < 1e-12);
        assert!((x.at(1, 0) - 1.0).abs() < 1e-12);
        assert!((x.at(2, 0) - 1.0).abs() < 1e-12);
        assert!((x.at(3, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uneven_final_block_is_supported() {
        let exec = Executor::reference();
        let a = sample(&exec); // n = 4
        let m = Jacobi::with_block_size(&a, 3).unwrap(); // blocks of 3 and 1
        let b = Dense::<f64>::vector(&exec, 4, 8.0);
        let mut x = Dense::zeros(&exec, Dim2::new(4, 1));
        m.apply(&b, &mut x).unwrap();
        assert!((x.at(3, 0) - 1.0).abs() < 1e-12); // 8 / 8
    }

    #[test]
    fn zero_diagonal_is_rejected() {
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(
            Jacobi::new(&a),
            Err(GkoError::Singular { at: 1 })
        ));
    }

    #[test]
    fn zero_block_size_is_rejected() {
        let exec = Executor::reference();
        let a = sample(&exec);
        assert!(Jacobi::with_block_size(&a, 0).is_err());
    }
}
