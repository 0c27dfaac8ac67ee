//! Jacobi (diagonal and block-diagonal) preconditioner.

use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::executor::Executor;
use crate::factorization::lu::DenseLu;
use crate::linop::{check_operands, LinOp};
use crate::log::OpTimer;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use crate::matrix::diagonal::Diagonal;
use pygko_sim::ChunkWork;

/// Jacobi preconditioner: `M = diag-blocks(A)`, applied as `z = M^{-1} r`.
///
/// With `block_size == 1` this is the scalar Jacobi of Listing 2; larger
/// blocks invert dense diagonal blocks (Ginkgo's block-Jacobi).
pub struct Jacobi<V: Value> {
    exec: Executor,
    size: Dim2,
    block_size: usize,
    inverse: Inverse<V>,
}

/// What `M^{-1}` is stored as.
enum Inverse<V: Value> {
    /// Scalar path: the inverted diagonal, applied as one BLAS-1 sweep.
    Diagonal(Diagonal<V>),
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
        let inverse = if block_size == 1 {
            let inverse = Diagonal::from_matrix(matrix).inverse()?;
            exec.launch(&[ChunkWork::new((n * V::BYTES) as f64 * 2.0, 0.0, n as f64)]);
            Inverse::Diagonal(inverse)
        } else {
            let blocks = factor_blocks(matrix, block_size)?;
            exec.launch(&[ChunkWork::new(
                (n * block_size * V::BYTES) as f64,
                0.0,
                (n * block_size * block_size) as f64,
            )]);
            Inverse::Blocks(blocks)
        };
        Ok(Jacobi {
            exec,
            size: matrix.size(),
            block_size,
            inverse,
        })
    }

    /// Configured block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }
}

/// Factorizes the diagonal blocks of `matrix`, each read from its own rows:
/// the entries of rows `start..start + bs` in columns `start..start + bs`.
fn factor_blocks<V: Value, I: Index>(
    matrix: &Csr<V, I>,
    block_size: usize,
) -> Result<Vec<DenseLu>> {
    let n = matrix.size().rows;
    let (rp, ci, vals) = (matrix.row_ptrs(), matrix.col_idxs(), matrix.values());
    let widest = block_size.min(n);
    let mut dense = vec![0.0f64; widest * widest];
    let mut blocks = Vec::with_capacity(n.div_ceil(block_size));
    for start in (0..n).step_by(block_size) {
        let bs = block_size.min(n - start);
        let block = &mut dense[..bs * bs];
        block.fill(0.0);
        for (i, row) in block.chunks_exact_mut(bs).enumerate() {
            for k in rp[start + i].to_usize()..rp[start + i + 1].to_usize() {
                let col = ci[k].to_usize();
                if (start..start + bs).contains(&col) {
                    row[col - start] = vals[k].to_f64();
                }
            }
        }
        blocks.push(DenseLu::factor(bs, block).map_err(|e| match e {
            GkoError::Singular { at } => GkoError::Singular { at: start + at },
            other => other,
        })?);
    }
    Ok(blocks)
}

impl<V: Value> LinOp<V> for Jacobi<V> {
    fn size(&self) -> Dim2 {
        self.size
    }

    fn executor(&self) -> &Executor {
        &self.exec
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size, &self.exec, b, x)?;
        let _timer = OpTimer::new(&self.exec, "preconditioner::Jacobi");
        let blocks = match &self.inverse {
            Inverse::Diagonal(inverse) => return inverse.apply(b, x),
            Inverse::Blocks(blocks) => blocks,
        };
        let n = self.size.rows;
        let k = b.size().cols;
        let bv = b.as_slice();
        let xs = x.as_mut_slice();
        // One block-sized buffer per application: gathered from a column of
        // `b`, solved in place, scattered to `x`.
        let mut buffer = vec![0.0f64; self.block_size.min(n)];
        for (index, lu) in blocks.iter().enumerate() {
            let start = index * self.block_size;
            let rhs = &mut buffer[..lu.n()];
            for c in 0..k {
                for (i, v) in rhs.iter_mut().enumerate() {
                    *v = bv[(start + i) * k + c].to_f64();
                }
                lu.solve_in_place(rhs)?;
                for (i, v) in rhs.iter().enumerate() {
                    xs[(start + i) * k + c] = V::from_f64(*v);
                }
            }
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
        // Structurally missing, then stored as an explicit zero.
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(Jacobi::new(&a), Err(GkoError::Singular { at: 1 })));
        let a = Csr::<f64, i32>::from_triplets(
            &exec,
            Dim2::square(3),
            &[(0, 0, 1.0), (1, 1, 0.0), (1, 2, 5.0), (2, 2, 3.0)],
        )
        .unwrap();
        assert!(matches!(Jacobi::new(&a), Err(GkoError::Singular { at: 1 })));
    }

    #[test]
    fn singular_block_reports_its_global_row() {
        let exec = Executor::reference();
        // Second 2x2 block is [1 2; 2 4]: elimination fails at its row 1.
        let a = Csr::<f64, i32>::from_triplets(
            &exec,
            Dim2::square(4),
            &[
                (0, 0, 2.0),
                (1, 1, 3.0),
                (1, 2, 9.0),
                (2, 2, 1.0),
                (2, 3, 2.0),
                (3, 2, 2.0),
                (3, 3, 4.0),
            ],
        )
        .unwrap();
        assert!(matches!(
            Jacobi::with_block_size(&a, 2),
            Err(GkoError::Singular { at: 3 })
        ));
    }

    /// Generation reads the blocks from the CSR rows and an application
    /// goes through one block-sized buffer, so neither grows with `n^2`:
    /// densifying this matrix would take 320 GB.
    #[test]
    fn block_jacobi_memory_is_linear_in_the_rows() {
        let exec = Executor::reference();
        let n = 200_000;
        let mut t = Vec::with_capacity(3 * n);
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
        let m = Jacobi::with_block_size(&a, 4).unwrap();
        let b = Dense::<f64>::vector(&exec, n, 2.0);
        let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
        m.apply(&b, &mut x).unwrap();
        // Interior rows of a [-1 4 -1] block of four: symmetric solution.
        assert!((x.at(0, 0) - x.at(3, 0)).abs() < 1e-15);
        assert!(x.at(1, 0) > x.at(0, 0));
        assert!(
            exec.peak_bytes() < 64 << 20,
            "peak {} bytes",
            exec.peak_bytes()
        );
    }

    #[test]
    fn zero_block_size_is_rejected() {
        let exec = Executor::reference();
        let a = sample(&exec);
        assert!(Jacobi::with_block_size(&a, 0).is_err());
    }
}
