//! Preconditioned Conjugate Gradient method.

use crate::base::error::Result;
use crate::base::types::Value;
use crate::matrix::dense::Dense;
use crate::solver::{Iteration, Iterative, Recurrence, SolverCore, Step};
use crate::stop::StopReason;

/// The Conjugate Gradient method for symmetric positive definite systems.
pub type Cg<V> = Iterative<V, CgMethod>;

/// CG's recurrence (the method slot of [`Cg`]).
#[derive(Default)]
pub struct CgMethod;

/// CG's workspace: `z = M^{-1} r` (only with a preconditioner), search
/// direction `p`, `q = A p`, `rho = r·z` and `rr = r·r`.
pub struct CgWork<V: Value> {
    z: Option<Dense<V>>,
    p: Dense<V>,
    q: Dense<V>,
    rho: f64,
    rr: f64,
}

impl<V: Value> Recurrence<V> for CgMethod {
    const NAME: &'static str = "solver::Cg";
    type Work = CgWork<V>;

    fn seed(&self, _core: &SolverCore<V>, r: &Dense<V>) -> Result<CgWork<V>> {
        let zeros = || Dense::zeros(r.executor(), r.size());
        Ok(CgWork {
            z: None,
            p: zeros(),
            q: zeros(),
            rho: 0.0,
            rr: 0.0,
        })
    }

    fn iterate(&self, it: &mut Iteration<'_, V>, w: &mut CgWork<V>) -> Result<Step> {
        let z = it.core.preconditioned(it.r, &mut w.z)?;
        // Without a preconditioner z is r, and r·r is what the last update
        // returned.
        let rho_new = if it.index > 1 && it.core.precond.is_none() {
            w.rr
        } else {
            it.r.compute_dot(z)?
        };
        if it.index == 1 {
            w.p.copy_from(z)?;
        } else {
            // p = z + beta * p
            w.p.scale_add(V::one(), z, V::from_f64(rho_new / w.rho))?;
        }
        w.rho = rho_new;
        it.core.system.apply(&w.p, &mut w.q)?;
        let pq = w.p.compute_dot(&w.q)?;
        if pq == 0.0 || !pq.is_finite() || w.rho == 0.0 || !w.rho.is_finite() {
            return Ok(Step::Abort(StopReason::Breakdown));
        }
        let alpha = w.rho / pq;
        // x += alpha * p;  r -= alpha * q;  ||r||^2
        w.rr = it.x.add_scaled_with_residual(
            V::from_f64(alpha),
            &w.p,
            it.r,
            V::from_f64(-alpha),
            &w.q,
        )?;
        Ok(Step::Continue(w.rr.sqrt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::dim::Dim2;
    use crate::executor::Executor;
    use crate::linop::LinOp;
    use crate::matrix::csr::Csr;
    use crate::stop::Criteria;
    use std::sync::Arc;

    /// 1-D Poisson matrix (tridiagonal [-1, 2, -1]) — SPD.
    fn poisson(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn solves_poisson_to_tolerance() {
        let exec = Executor::reference();
        let a = poisson(&exec, 64);
        let solver = Cg::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(1000, 1e-10));
        let b = Dense::<f64>::vector(&exec, 64, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 64, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(rec.converged(), "stop reason {:?}", rec.stop_reason);
        // Check the actual residual.
        let mut r = Dense::zeros(&exec, Dim2::new(64, 1));
        r.copy_from(&b).unwrap();
        a.apply_advanced(-1.0, &x, 1.0, &mut r).unwrap();
        assert!(r.compute_norm2() < 1e-8, "residual {}", r.compute_norm2());
    }

    #[test]
    fn cg_converges_in_n_iterations_exactly_in_theory() {
        // CG on an n x n SPD system converges in at most n steps (exact
        // arithmetic); with fp64 and a tiny system it is numerically sharp.
        let exec = Executor::reference();
        let a = poisson(&exec, 8);
        let solver = Cg::new(a)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(100, 1e-12));
        let b = Dense::<f64>::vector(&exec, 8, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 8, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(rec.iterations <= 8, "took {} iterations", rec.iterations);
    }

    #[test]
    fn jacobi_preconditioner_reduces_iterations() {
        use crate::preconditioner::jacobi::Jacobi;
        let exec = Executor::reference();
        // Badly scaled SPD diagonal + small coupling.
        let n = 50;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 1.0 + i as f64 * 10.0));
            if i > 0 {
                t.push((i, i - 1, -0.1));
                t.push((i - 1, i, -0.1));
            }
        }
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let b = Dense::<f64>::vector(&exec, n, 1.0);

        let plain = Cg::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let mut x1 = Dense::<f64>::vector(&exec, n, 0.0);
        plain.apply(&b, &mut x1).unwrap();
        let it_plain = plain.logger().snapshot().iterations;

        let jacobi = Jacobi::new(&*a).unwrap();
        let pre = Cg::new(a)
            .unwrap()
            .with_preconditioner(Arc::new(jacobi))
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let mut x2 = Dense::<f64>::vector(&exec, n, 0.0);
        pre.apply(&b, &mut x2).unwrap();
        let it_pre = pre.logger().snapshot().iterations;

        assert!(
            it_pre < it_plain,
            "jacobi {it_pre} should beat plain {it_plain}"
        );
    }

    #[test]
    fn works_in_f32() {
        let exec = Executor::reference();
        let mut t = vec![];
        for i in 0..16usize {
            t.push((i, i, 3.0f32));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        let a = Arc::new(Csr::<f32, i32>::from_triplets(&exec, Dim2::square(16), &t).unwrap());
        let solver = Cg::new(a)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(200, 1e-5));
        let b = Dense::<f32>::vector(&exec, 16, 1.0);
        let mut x = Dense::<f32>::vector(&exec, 16, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert!(solver.logger().snapshot().converged());
    }
}
