//! BiConjugate Gradient Stabilized method (van der Vorst 1992).

use crate::base::error::Result;
use crate::base::types::Value;
use crate::matrix::dense::Dense;
use crate::solver::{Iteration, Iterative, Recurrence, SolverCore, Step};
use crate::stop::StopReason;

/// The BiCGStab solver for general (unsymmetric) systems.
pub type BiCgStab<V> = Iterative<V, BiCgStabMethod>;

/// BiCGStab's recurrence (the method slot of [`BiCgStab`]).
#[derive(Default)]
pub struct BiCgStabMethod;

/// BiCGStab's workspace.
pub struct BiCgStabWork<V: Value> {
    r_tilde: Dense<V>,
    p: Dense<V>,
    v: Dense<V>,
    s: Dense<V>,
    t: Dense<V>,
    /// `M^{-1} p` and `M^{-1} s`; unused (`p` and `s` themselves stand in)
    /// without a preconditioner.
    p_hat: Option<Dense<V>>,
    s_hat: Option<Dense<V>>,
    rho_old: f64,
    alpha: f64,
    omega: f64,
}

impl<V: Value> Recurrence<V> for BiCgStabMethod {
    const NAME: &'static str = "solver::Bicgstab";
    type Work = BiCgStabWork<V>;

    fn seed(&self, _core: &SolverCore<V>, r: &Dense<V>) -> Result<BiCgStabWork<V>> {
        let zeros = || Dense::zeros(r.executor(), r.size());
        Ok(BiCgStabWork {
            r_tilde: r.clone(),
            p: zeros(),
            v: zeros(),
            s: zeros(),
            t: zeros(),
            p_hat: None,
            s_hat: None,
            rho_old: 1.0,
            alpha: 1.0,
            omega: 1.0,
        })
    }

    fn iterate(&self, it: &mut Iteration<'_, V>, w: &mut BiCgStabWork<V>) -> Result<Step> {
        let core = it.core;
        let rho = w.r_tilde.compute_dot(it.r)?;
        if rho == 0.0 || w.omega == 0.0 || !rho.is_finite() {
            return Ok(Step::Abort(StopReason::Breakdown));
        }
        if it.index == 1 {
            w.p.copy_from(it.r)?;
        } else {
            let beta = (rho / w.rho_old) * (w.alpha / w.omega);
            // p = r + beta * (p - omega * v)
            w.p.add_scaled_scale_add(V::from_f64(-w.omega), &w.v, it.r, V::from_f64(beta))?;
        }
        let p_hat = core.preconditioned(&w.p, &mut w.p_hat)?;
        core.system.apply(p_hat, &mut w.v)?;
        let denom = w.r_tilde.compute_dot(&w.v)?;
        if denom == 0.0 || !denom.is_finite() {
            return Ok(Step::Abort(StopReason::Breakdown));
        }
        w.alpha = rho / denom;
        // s = r - alpha * v, and ||s||
        let s_norm =
            w.s.assign_add_scaled(it.r, V::from_f64(-w.alpha), &w.v)?
                .sqrt();
        match core.check(it.index, s_norm, it.baseline) {
            None | Some(StopReason::MaxIterations) => {}
            // A non-finite s_norm: x stays at its last finite state.
            Some(StopReason::Breakdown) => return Ok(Step::Abort(StopReason::Breakdown)),
            Some(reason) => {
                // Early half-step convergence: the half-step update
                // completes this iteration, so it is counted.
                it.x.add_scaled(V::from_f64(w.alpha), p_hat)?;
                return Ok(Step::Stop(s_norm, reason));
            }
        }

        let s_hat = core.preconditioned(&w.s, &mut w.s_hat)?;
        core.system.apply(s_hat, &mut w.t)?;
        let (tt, ts) = w.t.compute_dot2(&w.s)?;
        if tt == 0.0 || !tt.is_finite() {
            return Ok(Step::Abort(StopReason::Breakdown));
        }
        w.omega = ts / tt;
        // x += alpha * p_hat + omega * s_hat
        it.x.add_scaled2(V::from_f64(w.alpha), p_hat, V::from_f64(w.omega), s_hat)?;
        // r = s - omega * t, and ||r||
        let rr = it.r.assign_add_scaled(&w.s, V::from_f64(-w.omega), &w.t)?;
        w.rho_old = rho;
        Ok(Step::Continue(rr.sqrt()))
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

    fn unsymmetric(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 5.0));
            if i > 0 {
                t.push((i, i - 1, -2.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
            if i + 3 < n {
                t.push((i, i + 3, 0.5));
            }
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn solves_unsymmetric_system() {
        let exec = Executor::reference();
        let a = unsymmetric(&exec, 80);
        let solver = BiCgStab::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let b = Dense::<f64>::vector(&exec, 80, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 80, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert!(solver.logger().snapshot().converged());

        let mut r = Dense::zeros(&exec, Dim2::new(80, 1));
        r.copy_from(&b).unwrap();
        a.apply_advanced(-1.0, &x, 1.0, &mut r).unwrap();
        assert!(r.compute_norm2() < 1e-7, "residual {}", r.compute_norm2());
    }

    #[test]
    fn honors_iteration_limit() {
        let exec = Executor::reference();
        let a = unsymmetric(&exec, 100);
        let solver = BiCgStab::new(a)
            .unwrap()
            .with_criteria(Criteria::iterations(4));
        let b = Dense::<f64>::vector(&exec, 100, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 100, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert_eq!(rec.stop_reason, Some(StopReason::MaxIterations));
        assert!(rec.iterations <= 4);
    }

    #[test]
    fn with_ilu_preconditioner() {
        use crate::preconditioner::ilu::Ilu;
        let exec = Executor::reference();
        let a = unsymmetric(&exec, 60);
        let ilu = Ilu::new(&*a).unwrap();
        let solver = BiCgStab::new(a.clone())
            .unwrap()
            .with_preconditioner(Arc::new(ilu))
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let b = Dense::<f64>::vector(&exec, 60, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 60, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(rec.converged());
        assert!(
            rec.iterations < 30,
            "ILU-preconditioned should be fast, took {}",
            rec.iterations
        );
    }
}
