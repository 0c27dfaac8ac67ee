//! Flexible Conjugate Gradient (Ginkgo's `solver::Fcg`).
//!
//! FCG replaces CG's fixed beta formula with the Polak–Ribière form
//! `beta = <r_new - r_old, z_new> / <r_old, z_old>`, which tolerates
//! preconditioners that change between iterations (e.g. inner iterative
//! solves) at the cost of one extra stored vector.

use crate::base::error::Result;
use crate::base::types::Value;
use crate::matrix::dense::Dense;
use crate::solver::{Iteration, Iterative, Recurrence, SolverCore, Step};
use crate::stop::StopReason;

/// The flexible CG solver.
pub type Fcg<V> = Iterative<V, FcgMethod>;

/// FCG's recurrence (the method slot of [`Fcg`]).
#[derive(Default)]
pub struct FcgMethod;

/// FCG's workspace: CG's, plus the previous residual.
pub struct FcgWork<V: Value> {
    z: Option<Dense<V>>,
    p: Dense<V>,
    q: Dense<V>,
    r_old: Dense<V>,
    rho: f64,
    rr: f64,
}

impl<V: Value> Recurrence<V> for FcgMethod {
    const NAME: &'static str = "solver::Fcg";
    type Work = FcgWork<V>;

    fn seed(&self, _core: &SolverCore<V>, r: &Dense<V>) -> Result<FcgWork<V>> {
        let zeros = || Dense::zeros(r.executor(), r.size());
        Ok(FcgWork {
            z: None,
            p: zeros(),
            q: zeros(),
            r_old: zeros(),
            rho: 0.0,
            rr: 0.0,
        })
    }

    fn iterate(&self, it: &mut Iteration<'_, V>, w: &mut FcgWork<V>) -> Result<Step> {
        let z = it.core.preconditioned(it.r, &mut w.z)?;
        // Without a preconditioner z is r, and r·r is what the last update
        // returned.
        let rz = if it.index > 1 && it.core.precond.is_none() {
            w.rr
        } else {
            it.r.compute_dot(z)?
        };
        if it.index == 1 {
            w.p.copy_from(z)?;
        } else {
            // Polak-Ribière: beta = <r - r_old, z> / rho_old.
            let beta = (rz - w.r_old.compute_dot(z)?) / w.rho;
            w.p.scale_add(V::one(), z, V::from_f64(beta))?;
        }
        w.rho = rz;
        it.core.system.apply(&w.p, &mut w.q)?;
        let pq = w.p.compute_dot(&w.q)?;
        if pq == 0.0 || !pq.is_finite() || w.rho == 0.0 || !w.rho.is_finite() {
            return Ok(Step::Abort(StopReason::Breakdown));
        }
        let alpha = w.rho / pq;
        w.r_old.copy_from(it.r)?;
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

    fn spd(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn matches_cg_on_fixed_preconditioner() {
        // With a constant preconditioner FCG and CG follow the same Krylov
        // space; iteration counts agree.
        use crate::solver::Cg;
        let exec = Executor::reference();
        let a = spd(&exec, 64);
        let criteria = Criteria::iterations_and_reduction(500, 1e-10);
        let b = Dense::<f64>::vector(&exec, 64, 1.0);

        let fcg = Fcg::new(a.clone()).unwrap().with_criteria(criteria);
        let mut x1 = Dense::<f64>::vector(&exec, 64, 0.0);
        fcg.apply(&b, &mut x1).unwrap();

        let cg = Cg::new(a).unwrap().with_criteria(criteria);
        let mut x2 = Dense::<f64>::vector(&exec, 64, 0.0);
        cg.apply(&b, &mut x2).unwrap();

        let (i1, i2) = (
            fcg.logger().snapshot().iterations,
            cg.logger().snapshot().iterations,
        );
        assert!(
            i1.abs_diff(i2) <= 2,
            "fcg {i1} vs cg {i2} should be nearly identical"
        );
        assert!(fcg.logger().snapshot().converged());
    }

    #[test]
    fn survives_a_varying_preconditioner() {
        // A deliberately iteration-dependent preconditioner: alternates
        // between identity-ish scalings. Plain CG's beta formula degrades;
        // FCG still converges.
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Flip {
            exec: Executor,
            n: usize,
            count: AtomicUsize,
        }
        impl LinOp<f64> for Flip {
            fn size(&self) -> Dim2 {
                Dim2::square(self.n)
            }
            fn executor(&self) -> &Executor {
                &self.exec
            }
            fn apply(&self, b: &Dense<f64>, x: &mut Dense<f64>) -> Result<()> {
                let k = self.count.fetch_add(1, Ordering::Relaxed);
                let s = if k.is_multiple_of(2) { 0.5 } else { 0.25 };
                x.copy_from(b)?;
                x.scale(s);
                Ok(())
            }
        }
        let exec = Executor::reference();
        let a = spd(&exec, 48);
        let flip = Arc::new(Flip {
            exec: exec.clone(),
            n: 48,
            count: AtomicUsize::new(0),
        });
        let fcg = Fcg::new(a.clone())
            .unwrap()
            .with_preconditioner(flip)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(1000, 1e-9));
        let b = Dense::<f64>::vector(&exec, 48, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 48, 0.0);
        fcg.apply(&b, &mut x).unwrap();
        assert!(fcg.logger().snapshot().converged());

        // Verify the true residual.
        let mut r = Dense::zeros(&exec, Dim2::new(48, 1));
        r.copy_from(&b).unwrap();
        a.apply_advanced(-1.0, &x, 1.0, &mut r).unwrap();
        assert!(r.compute_norm2() < 1e-6, "residual {}", r.compute_norm2());
    }
}
