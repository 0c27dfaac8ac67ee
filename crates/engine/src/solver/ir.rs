//! Iterative refinement (preconditioned Richardson iteration).
//!
//! `x += omega * M^{-1} (b - A x)` — Ginkgo's `solver::Ir`. With an exact
//! inner solver as `M` this performs classical iterative refinement; with a
//! cheap preconditioner it is the Richardson method.

use crate::base::error::Result;
use crate::base::types::Value;
use crate::linop::LinOp;
use crate::matrix::dense::Dense;
use crate::solver::{Iteration, Iterative, Recurrence, SolverCore, Step};
use std::sync::Arc;

/// Richardson / iterative-refinement solver.
pub type Ir<V> = Iterative<V, IrMethod>;

/// IR's recurrence (the method slot of [`Ir`]): the relaxation factor.
pub struct IrMethod {
    omega: f64,
}

impl Default for IrMethod {
    /// Relaxation factor 1.
    fn default() -> Self {
        IrMethod { omega: 1.0 }
    }
}

impl<V: Value> Ir<V> {
    /// Sets the relaxation factor omega.
    pub fn with_relaxation(mut self, omega: f64) -> Self {
        self.method.omega = omega;
        self
    }

    /// Sets the inner solver / preconditioner.
    pub fn with_solver(self, inner: Arc<dyn LinOp<V>>) -> Result<Self> {
        self.with_preconditioner(inner)
    }
}

impl<V: Value> Recurrence<V> for IrMethod {
    const NAME: &'static str = "solver::Ir";
    /// The correction `d = M^{-1} r`; unused (`r` itself) without an inner
    /// solver.
    type Work = Option<Dense<V>>;

    fn seed(&self, _core: &SolverCore<V>, _r: &Dense<V>) -> Result<Option<Dense<V>>> {
        Ok(None)
    }

    fn iterate(&self, it: &mut Iteration<'_, V>, d: &mut Option<Dense<V>>) -> Result<Step> {
        let d = it.core.preconditioned(it.r, d)?;
        it.x.add_scaled(V::from_f64(self.omega), d)?;
        it.core.residual(it.b, it.x, it.r)?;
        Ok(Step::Continue(it.r.compute_norm2()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::dim::Dim2;
    use crate::executor::Executor;
    use crate::matrix::csr::Csr;
    use crate::preconditioner::jacobi::Jacobi;
    use crate::stop::Criteria;

    #[test]
    fn richardson_with_jacobi_converges_on_diagonally_dominant() {
        let exec = Executor::reference();
        let n = 40;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 10.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let solver = Ir::new(a.clone())
            .unwrap()
            .with_solver(Arc::new(Jacobi::new(&*a).unwrap()))
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let b = Dense::<f64>::vector(&exec, n, 1.0);
        let mut x = Dense::<f64>::vector(&exec, n, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert!(solver.logger().snapshot().converged());
    }

    #[test]
    fn plain_richardson_diverges_on_stiff_system_and_stops_at_limit() {
        let exec = Executor::reference();
        // Spectral radius of (I - A) > 1 for this A without damping.
        let a = Arc::new(
            Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 0, 5.0), (1, 1, 5.0)])
                .unwrap(),
        );
        let solver = Ir::new(a).unwrap().with_criteria(Criteria::iterations(10));
        let b = Dense::<f64>::vector(&exec, 2, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 2, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(!rec.converged());
        assert_eq!(rec.iterations, 10);
    }

    #[test]
    fn relaxation_factor_controls_convergence() {
        let exec = Executor::reference();
        let a = Arc::new(
            Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 0, 1.5), (1, 1, 1.5)])
                .unwrap(),
        );
        // omega = 2/3 makes (I - omega*A) = 0: converges in one step.
        let solver = Ir::new(a)
            .unwrap()
            .with_relaxation(2.0 / 3.0)
            .with_criteria(Criteria::iterations_and_reduction(50, 1e-12));
        let b = Dense::<f64>::vector(&exec, 2, 3.0);
        let mut x = Dense::<f64>::vector(&exec, 2, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(solver.logger().snapshot().iterations, 1);
        assert!((x.at(0, 0) - 2.0).abs() < 1e-12);
    }
}
