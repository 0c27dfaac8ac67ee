//! Conjugate Gradient Squared method (Sonneveld 1989).
//!
//! CGS handles unsymmetric systems without transpose applications by
//! squaring the BiCG polynomial. It is one of the three solvers the paper
//! benchmarks against CuPy (§6.2.1), where it shows the largest speedups.

use crate::base::error::Result;
use crate::base::types::Value;
use crate::matrix::dense::Dense;
use crate::solver::{Iteration, Iterative, Recurrence, SolverCore, Step};
use crate::stop::StopReason;

/// The CGS solver.
pub type Cgs<V> = Iterative<V, CgsMethod>;

/// CGS's recurrence (the method slot of [`Cgs`]).
#[derive(Default)]
pub struct CgsMethod;

/// CGS's workspace.
pub struct CgsWork<V: Value> {
    r_tilde: Dense<V>,
    u: Dense<V>,
    p: Dense<V>,
    q: Dense<V>,
    v: Dense<V>,
    /// `M^{-1}` of `p`, then of `u + q`; unused without a preconditioner.
    hat: Option<Dense<V>>,
    t: Dense<V>,
    rho_old: f64,
}

impl<V: Value> Recurrence<V> for CgsMethod {
    const NAME: &'static str = "solver::Cgs";
    type Work = CgsWork<V>;

    fn seed(&self, _core: &SolverCore<V>, r: &Dense<V>) -> Result<CgsWork<V>> {
        let zeros = || Dense::zeros(r.executor(), r.size());
        Ok(CgsWork {
            r_tilde: r.clone(),
            u: zeros(),
            p: zeros(),
            q: zeros(),
            v: zeros(),
            hat: None,
            t: zeros(),
            rho_old: 1.0,
        })
    }

    fn iterate(&self, it: &mut Iteration<'_, V>, w: &mut CgsWork<V>) -> Result<Step> {
        let rho = w.r_tilde.compute_dot(it.r)?;
        if rho == 0.0 || !rho.is_finite() {
            return Ok(Step::Abort(StopReason::Breakdown));
        }
        if it.index == 1 {
            w.u.copy_from(it.r)?;
            w.p.copy_from(&w.u)?;
        } else {
            let beta = rho / w.rho_old;
            // u = r + beta * q
            w.u.copy_from(it.r)?;
            w.u.add_scaled(V::from_f64(beta), &w.q)?;
            // p = u + beta * (q + beta * p)
            w.t.copy_from(&w.q)?;
            w.t.add_scaled(V::from_f64(beta), &w.p)?;
            w.p.copy_from(&w.u)?;
            w.p.add_scaled(V::from_f64(beta), &w.t)?;
        }
        // v = A M^{-1} p
        let hat = it.core.preconditioned(&w.p, &mut w.hat)?;
        it.core.system.apply(hat, &mut w.v)?;
        let sigma = w.r_tilde.compute_dot(&w.v)?;
        if sigma == 0.0 || !sigma.is_finite() {
            return Ok(Step::Abort(StopReason::Breakdown));
        }
        let alpha = rho / sigma;
        // q = u - alpha * v
        w.q.copy_from(&w.u)?;
        w.q.add_scaled(V::from_f64(-alpha), &w.v)?;
        // hat = M^{-1} (u + q)
        w.t.copy_from(&w.u)?;
        w.t.add_scaled(V::one(), &w.q)?;
        let hat = it.core.preconditioned(&w.t, &mut w.hat)?;
        // x += alpha * hat;  r -= alpha * A hat (v is free again)
        it.x.add_scaled(V::from_f64(alpha), hat)?;
        it.core.system.apply(hat, &mut w.v)?;
        it.r.add_scaled(V::from_f64(-alpha), &w.v)?;
        w.rho_old = rho;
        Ok(Step::Continue(it.r.compute_norm2()))
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

    /// Unsymmetric convection-diffusion-like matrix.
    fn convdiff(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.5)); // upwind bias: unsymmetric
            }
            if i + 1 < n {
                t.push((i, i + 1, -0.5));
            }
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn solves_unsymmetric_system() {
        let exec = Executor::reference();
        let a = convdiff(&exec, 64);
        let solver = Cgs::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let b = Dense::<f64>::vector(&exec, 64, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 64, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert!(solver.logger().snapshot().converged());

        let mut r = Dense::zeros(&exec, Dim2::new(64, 1));
        r.copy_from(&b).unwrap();
        a.apply_advanced(-1.0, &x, 1.0, &mut r).unwrap();
        assert!(r.compute_norm2() < 1e-7, "residual {}", r.compute_norm2());
    }

    #[test]
    fn respects_iteration_limit() {
        let exec = Executor::reference();
        let a = convdiff(&exec, 128);
        let solver = Cgs::new(a).unwrap().with_criteria(Criteria::iterations(5));
        let b = Dense::<f64>::vector(&exec, 128, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 128, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert_eq!(rec.iterations, 5);
        assert_eq!(rec.stop_reason, Some(StopReason::MaxIterations));
        assert_eq!(rec.residual_history.len(), 5);
    }

    #[test]
    fn preconditioned_cgs_converges_faster() {
        use crate::preconditioner::jacobi::Jacobi;
        let exec = Executor::reference();
        let n = 64;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 2.0 + (i % 7) as f64 * 5.0));
            if i > 0 {
                t.push((i, i - 1, -0.8));
            }
            if i + 1 < n {
                t.push((i, i + 1, -0.3));
            }
        }
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let b = Dense::<f64>::vector(&exec, n, 1.0);

        let plain = Cgs::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let mut x1 = Dense::<f64>::vector(&exec, n, 0.0);
        plain.apply(&b, &mut x1).unwrap();

        let pre = Cgs::new(a.clone())
            .unwrap()
            .with_preconditioner(Arc::new(Jacobi::new(&*a).unwrap()))
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let mut x2 = Dense::<f64>::vector(&exec, n, 0.0);
        pre.apply(&b, &mut x2).unwrap();

        let (i1, i2) = (
            plain.logger().snapshot().iterations,
            pre.logger().snapshot().iterations,
        );
        assert!(i2 <= i1, "preconditioned {i2} vs plain {i1}");
    }
}
