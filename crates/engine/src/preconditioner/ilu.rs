//! ILU(0) preconditioner (Listing 1's choice).

use crate::preconditioner::Incomplete;

/// ILU(0) preconditioner: `z = U^{-1} L^{-1} r` with the incomplete factors
/// of `A`.
pub type Ilu<V, I = i32> = Incomplete<V, I, false>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::dim::Dim2;
    use crate::executor::Executor;
    use crate::linop::LinOp;
    use crate::matrix::{Csr, Dense};
    use std::sync::Arc;

    #[test]
    fn ilu_is_exact_inverse_on_tridiagonal() {
        // No fill-in is dropped on a tridiagonal matrix, so applying the
        // preconditioner solves the system exactly.
        let exec = Executor::reference();
        let n = 16;
        let mut t = vec![];
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
        let x_true = Dense::<f64>::vector(&exec, n, 1.0);
        let mut b = Dense::zeros(&exec, Dim2::new(n, 1));
        a.apply(&x_true, &mut b).unwrap();

        let m = Ilu::new(&a).unwrap();
        let mut z = Dense::zeros(&exec, Dim2::new(n, 1));
        m.apply(&b, &mut z).unwrap();
        for (got, want) in z.to_host_vec().iter().zip(x_true.to_host_vec()) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn accelerates_gmres_on_harder_system() {
        use crate::solver::gmres::Gmres;
        use crate::stop::Criteria;
        let exec = Executor::reference();
        let n = 100;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0 + (i % 3) as f64));
            if i > 0 {
                t.push((i, i - 1, -1.9));
            }
            if i + 1 < n {
                t.push((i, i + 1, -0.9));
            }
            if i + 10 < n {
                t.push((i, i + 10, 0.4));
            }
        }
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let b = Dense::<f64>::vector(&exec, n, 1.0);

        let plain = Gmres::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(300, 1e-10));
        let mut x1 = Dense::<f64>::vector(&exec, n, 0.0);
        plain.apply(&b, &mut x1).unwrap();

        let pre = Gmres::new(a.clone())
            .unwrap()
            .with_preconditioner(Arc::new(Ilu::new(&*a).unwrap()))
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(300, 1e-10));
        let mut x2 = Dense::<f64>::vector(&exec, n, 0.0);
        pre.apply(&b, &mut x2).unwrap();

        let (i_plain, i_pre) = (
            plain.logger().snapshot().iterations,
            pre.logger().snapshot().iterations,
        );
        assert!(
            i_pre < i_plain,
            "ILU {i_pre} iterations should beat plain {i_plain}"
        );
    }

    /// The sweeps keep copies of what they sweep, so the factors generation
    /// allocates on the executor are freed when it ends: each is held once.
    #[test]
    fn generation_frees_the_factors() {
        use crate::preconditioner::ic::Ic;
        let exec = Executor::reference();
        let mut t = vec![];
        for i in 0..50 {
            t.push((i, i, 4.0));
            if i > 0 {
                t.extend([(i, i - 1, -1.0), (i - 1, i, -1.0)]);
            }
        }
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(50), &t).unwrap();
        let before = exec.bytes_allocated();
        let ilu = Ilu::new(&a).unwrap();
        assert_eq!(exec.bytes_allocated(), before);
        let ic = Ic::new(&a).unwrap();
        assert_eq!(exec.bytes_allocated(), before);
        assert_eq!((ilu.size(), ic.size()), (a.size(), a.size()));
    }

    #[test]
    fn structurally_singular_matrix_fails() {
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 1, 1.0), (1, 0, 1.0)])
            .unwrap();
        assert!(Ilu::new(&a).is_err());
    }
}
