//! MINRES (Paige & Saunders 1975) for symmetric, possibly indefinite
//! systems — one of the CuPy solvers the paper's §6.2.1 enumerates, provided
//! here for solver-set parity.

use crate::base::error::Result;
use crate::base::types::Value;
use crate::matrix::dense::Dense;
use crate::solver::{Iteration, Iterative, Recurrence, SolverCore, Step};
use crate::stop::StopReason;

/// The MINRES solver (unpreconditioned Lanczos with on-the-fly Givens QR).
/// `with_preconditioner` returns [`GkoError::Unsupported`](crate::GkoError).
pub type Minres<V> = Iterative<V, MinresMethod>;

/// MINRES's recurrence (the method slot of [`Minres`]).
#[derive(Default)]
pub struct MinresMethod;

/// MINRES's workspace. The Lanczos vector `v` lives in the shell's residual
/// slot: it starts as `r0` and is normalized in the first iteration.
pub struct MinresWork<V: Value> {
    v_old: Dense<V>,
    av: Dense<V>,
    w: Dense<V>,
    w_old: Dense<V>,
    w_new: Dense<V>,
    beta: f64,
    eta: f64,
    gamma: (f64, f64),
    sigma: (f64, f64),
}

impl<V: Value> Recurrence<V> for MinresMethod {
    const NAME: &'static str = "solver::Minres";
    const PRECONDITIONED: bool = false;
    type Work = MinresWork<V>;

    fn seed(&self, _core: &SolverCore<V>, r: &Dense<V>) -> Result<MinresWork<V>> {
        let zeros = || Dense::zeros(r.executor(), r.size());
        Ok(MinresWork {
            v_old: zeros(),
            av: zeros(),
            w: zeros(),
            w_old: zeros(),
            w_new: zeros(),
            beta: 0.0,
            eta: 0.0,
            gamma: (1.0, 1.0),
            sigma: (0.0, 0.0),
        })
    }

    fn iterate(&self, it: &mut Iteration<'_, V>, k: &mut MinresWork<V>) -> Result<Step> {
        if it.index == 1 {
            // v1 = r0 / beta1. A non-finite beta1 already stopped the solve
            // (the criteria report Breakdown); an exactly-zero residual
            // cannot seed the Lanczos process.
            if it.baseline == 0.0 {
                return Ok(Step::Abort(StopReason::Breakdown));
            }
            it.r.scale(V::from_f64(1.0 / it.baseline));
            k.beta = it.baseline;
            k.eta = it.baseline;
        } else if k.beta == 0.0 {
            // Lucky breakdown: the Krylov space closed in the last iteration.
            return Ok(Step::Abort(StopReason::ResidualReduction));
        }
        let v = &mut *it.r;
        // Lanczos step: alpha, next v.
        it.core.system.apply(v, &mut k.av)?;
        let alpha = v.compute_dot(&k.av)?;
        k.av.add_scaled(V::from_f64(-alpha), v)?;
        k.av.add_scaled(V::from_f64(-k.beta), &k.v_old)?;
        let beta_new = k.av.compute_norm2();

        // Givens QR of the tridiagonal's new column.
        let (gamma0, gamma1) = k.gamma;
        let (sigma0, sigma1) = k.sigma;
        let delta = gamma1 * alpha - gamma0 * sigma1 * k.beta;
        let rho1 = (delta * delta + beta_new * beta_new).sqrt();
        let rho2 = sigma1 * alpha + gamma0 * gamma1 * k.beta;
        let rho3 = sigma0 * k.beta;
        if rho1 == 0.0 || !rho1.is_finite() {
            return Ok(Step::Abort(StopReason::Breakdown));
        }
        let gamma_new = delta / rho1;
        let sigma_new = beta_new / rho1;

        // Solution direction: w_new = (v - rho3 w_old - rho2 w) / rho1.
        k.w_new.copy_from(v)?;
        k.w_new.add_scaled(V::from_f64(-rho3), &k.w_old)?;
        k.w_new.add_scaled(V::from_f64(-rho2), &k.w)?;
        k.w_new.scale(V::from_f64(1.0 / rho1));
        it.x.add_scaled(V::from_f64(gamma_new * k.eta), &k.w_new)?;
        k.eta *= -sigma_new;

        // Shift registers.
        std::mem::swap(&mut k.w_old, &mut k.w);
        std::mem::swap(&mut k.w, &mut k.w_new);
        std::mem::swap(&mut k.v_old, v);
        std::mem::swap(v, &mut k.av);
        if beta_new > 0.0 {
            v.scale(V::from_f64(1.0 / beta_new));
        }
        k.gamma = (gamma1, gamma_new);
        k.sigma = (sigma1, sigma_new);
        k.beta = beta_new;
        Ok(Step::Continue(k.eta.abs()))
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

    fn residual(a: &Csr<f64, i32>, b: &Dense<f64>, x: &Dense<f64>) -> f64 {
        let exec = b.executor();
        let mut r = Dense::zeros(exec, b.size());
        r.copy_from(b).unwrap();
        a.apply_advanced(-1.0, x, 1.0, &mut r).unwrap();
        r.compute_norm2()
    }

    #[test]
    fn solves_spd_system() {
        let exec = Executor::reference();
        let n = 50;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let solver = Minres::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let b = Dense::<f64>::vector(&exec, n, 1.0);
        let mut x = Dense::<f64>::vector(&exec, n, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert!(solver.logger().snapshot().converged());
        assert!(residual(&a, &b, &x) < 1e-7);
    }

    #[test]
    fn solves_symmetric_indefinite_system_where_cg_breaks() {
        // Saddle-point-like matrix: symmetric with positive and negative
        // eigenvalues. CG's theory does not apply; MINRES handles it.
        let exec = Executor::reference();
        let n = 40;
        let mut t = vec![];
        for i in 0..n {
            let sign = if i < n / 2 { 1.0 } else { -1.0 };
            t.push((i, i, sign * (2.0 + (i % 3) as f64)));
            if i > 0 {
                t.push((i, i - 1, 0.3));
                t.push((i - 1, i, 0.3));
            }
        }
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let solver = Minres::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(2000, 1e-9));
        let b = Dense::<f64>::vector(&exec, n, 1.0);
        let mut x = Dense::<f64>::vector(&exec, n, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(rec.converged(), "{:?}", rec.stop_reason);
        assert!(
            residual(&a, &b, &x) < 1e-6,
            "residual {}",
            residual(&a, &b, &x)
        );
    }

    #[test]
    fn residual_estimate_tracks_true_residual() {
        let exec = Executor::reference();
        let n = 30;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 3.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let solver = Minres::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations(15));
        let b = Dense::<f64>::vector(&exec, n, 1.0);
        let mut x = Dense::<f64>::vector(&exec, n, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let est = solver.logger().snapshot().final_residual;
        let true_res = residual(&a, &b, &x);
        assert!(
            (est - true_res).abs() < 1e-8 * (1.0 + true_res),
            "estimate {est} vs true {true_res}"
        );
    }

    #[test]
    fn iteration_limit_respected() {
        let exec = Executor::reference();
        let t: Vec<(usize, usize, f64)> = (0..20).map(|i| (i, i, (i + 1) as f64)).collect();
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(20), &t).unwrap());
        let solver = Minres::new(a)
            .unwrap()
            .with_criteria(Criteria::iterations(5));
        let b = Dense::<f64>::vector(&exec, 20, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 20, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(solver.logger().snapshot().iterations, 5);
    }
}
