//! Direct solver (dense LU with partial pivoting).
//!
//! pyGinkgo exposes explicit bindings for "the direct solver" (Fig. 2). The
//! factorization happens once at construction; every `apply` is two
//! triangular solves. Intended for small/moderate systems — the
//! densification is O(n^2) memory.

use crate::base::dim::Dim2;
use crate::base::error::Result;
use crate::base::types::{Index, Value};
use crate::executor::Executor;
use crate::factorization::lu::DenseLu;
use crate::linop::{check_operands, LinOp};
use crate::log::OpTimer;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use pygko_sim::ChunkWork;

/// Direct solver holding a dense LU factorization of a sparse matrix.
pub struct Direct<V> {
    exec: Executor,
    size: Dim2,
    lu: DenseLu,
    _marker: std::marker::PhantomData<V>,
}

impl<V: Value> Direct<V> {
    /// Factorizes the matrix (in `f64`).
    pub fn new<I: Index>(matrix: &Csr<V, I>) -> Result<Self> {
        matrix.validate()?;
        let size = matrix.size();
        let n = size.rows;
        let dense = matrix.to_dense();
        let host: Vec<f64> = dense.as_slice().iter().map(|v| v.to_f64()).collect();
        let lu = DenseLu::factor(n, &host)?;
        // Charge the O(n^3) factorization as one large kernel.
        let n3 = (n * n * n) as f64;
        matrix
            .executor()
            .launch(&[ChunkWork::new((n * n * 8) as f64, 0.0, 2.0 / 3.0 * n3)]);
        Ok(Direct {
            exec: matrix.executor().clone(),
            size,
            lu,
            _marker: std::marker::PhantomData,
        })
    }
}

impl<V: Value> LinOp<V> for Direct<V> {
    fn size(&self) -> Dim2 {
        self.size
    }

    fn executor(&self) -> &Executor {
        &self.exec
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size, &self.exec, b, x)?;
        let _timer = OpTimer::new(&self.exec, "solver::Direct");
        let n = self.size.rows;
        let k = b.size().cols;
        let bv = b.as_slice();
        let xs = x.as_mut_slice();
        let mut rhs = vec![0.0f64; n];
        for c in 0..k {
            for i in 0..n {
                rhs[i] = bv[i * k + c].to_f64();
            }
            let sol = self.lu.solve(&rhs)?;
            for i in 0..n {
                xs[i * k + c] = V::from_f64(sol[i]);
            }
        }
        // Two triangular sweeps per right-hand side.
        self.exec.launch(&[ChunkWork::new(
            (n * n * 8 * k) as f64,
            0.0,
            (2 * n * n * k) as f64,
        )]);
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        "solver::Direct"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_exactly() {
        let exec = Executor::reference();
        let n = 20;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 5.0));
            if i > 0 {
                t.push((i, i - 1, -2.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
        let x_true = Dense::<f64>::vector(&exec, n, 3.0);
        let mut b = Dense::zeros(&exec, Dim2::new(n, 1));
        a.apply(&x_true, &mut b).unwrap();

        let direct = Direct::new(&a).unwrap();
        let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
        direct.apply(&b, &mut x).unwrap();
        for (got, want) in x.to_host_vec().iter().zip(x_true.to_host_vec()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_matrix_fails_at_construction() {
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 0, 1.0), (1, 0, 2.0)])
            .unwrap();
        assert!(Direct::new(&a).is_err());
    }

    #[test]
    fn multiple_right_hand_sides() {
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 0, 2.0), (1, 1, 4.0)])
            .unwrap();
        let direct = Direct::new(&a).unwrap();
        let b = Dense::from_rows(&exec, &[[2.0f64, 4.0], [4.0, 8.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 2));
        direct.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn works_in_f32_with_f64_factorization() {
        let exec = Executor::reference();
        let a = Csr::<f32, i32>::from_triplets(
            &exec,
            Dim2::square(2),
            &[(0, 0, 3.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0)],
        )
        .unwrap();
        let direct = Direct::new(&a).unwrap();
        let b = Dense::from_rows(&exec, &[[4.0f32], [3.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        direct.apply(&b, &mut x).unwrap();
        assert!((x.at(0, 0) - 1.0).abs() < 1e-5);
        assert!((x.at(1, 0) - 1.0).abs() < 1e-5);
    }
}
