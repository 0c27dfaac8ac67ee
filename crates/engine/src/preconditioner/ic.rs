//! IC(0) preconditioner for symmetric positive definite systems.

use crate::preconditioner::Incomplete;

/// IC(0) preconditioner: `z = L^{-T} L^{-1} r` with the incomplete Cholesky
/// factor of `A`.
pub type Ic<V, I = i32> = Incomplete<V, I, true>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::dim::Dim2;
    use crate::executor::Executor;
    use crate::linop::LinOp;
    use crate::matrix::{Csr, Dense};
    use std::sync::Arc;

    fn spd(exec: &Executor, n: usize) -> Csr<f64, i32> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        Csr::from_triplets(exec, Dim2::square(n), &t).unwrap()
    }

    #[test]
    fn exact_inverse_on_tridiagonal_spd() {
        let exec = Executor::reference();
        let n = 12;
        let a = spd(&exec, n);
        let x_true = Dense::<f64>::vector(&exec, n, 2.0);
        let mut b = Dense::zeros(&exec, Dim2::new(n, 1));
        a.apply(&x_true, &mut b).unwrap();

        let m = Ic::new(&a).unwrap();
        let mut z = Dense::zeros(&exec, Dim2::new(n, 1));
        m.apply(&b, &mut z).unwrap();
        for (got, want) in z.to_host_vec().iter().zip(x_true.to_host_vec()) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn reduces_cg_iterations() {
        use crate::solver::cg::Cg;
        use crate::stop::Criteria;
        let exec = Executor::reference();
        let n = 100;
        let a = Arc::new(spd(&exec, n));
        let b = Dense::<f64>::vector(&exec, n, 1.0);

        let plain = Cg::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let mut x1 = Dense::<f64>::vector(&exec, n, 0.0);
        plain.apply(&b, &mut x1).unwrap();

        let pre = Cg::new(a.clone())
            .unwrap()
            .with_preconditioner(Arc::new(Ic::new(&*a).unwrap()))
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let mut x2 = Dense::<f64>::vector(&exec, n, 0.0);
        pre.apply(&b, &mut x2).unwrap();

        let (i_plain, i_pre) = (
            plain.logger().snapshot().iterations,
            pre.logger().snapshot().iterations,
        );
        assert!(i_pre < i_plain, "IC {i_pre} should beat plain {i_plain}");
        // IC(0) is exact on tridiagonal: one or two iterations.
        assert!(i_pre <= 2, "IC on tridiagonal is exact, took {i_pre}");
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(
            &exec,
            Dim2::square(2),
            &[(0, 0, 1.0), (0, 1, 9.0), (1, 0, 9.0), (1, 1, 1.0)],
        )
        .unwrap();
        assert!(Ic::new(&a).is_err());
    }
}
