//! Mixed-precision iterative refinement.
//!
//! Ginkgo's headline mixed-precision capability (the reason its templates
//! cross value types, §5.1): solve the correction equation in a cheap low
//! precision, accumulate the solution and residual in high precision. The
//! classic result is fp64 accuracy at close to fp32 kernel cost for
//! well-conditioned systems.

use crate::base::error::Result;
use crate::base::types::{Index, Value};
use crate::linop::LinOp;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use crate::solver::cg::Cg;
use crate::solver::{Iteration, Iterative, Recurrence, SolverCore, Step};
use crate::stop::Criteria;
use std::sync::Arc;

/// Iterative refinement with a high-precision (`VO`) outer loop and a
/// low-precision (`VI`) inner CG correction solver. It has no
/// preconditioner slot.
pub type MixedIr<VO, VI, Idx = i32> = Iterative<VO, MixedIrMethod<VI, Idx>>;

/// Mixed-precision IR's recurrence (the method slot of [`MixedIr`]): the
/// low-precision copy of the matrix and the inner iteration budget.
pub struct MixedIrMethod<VI: Value, Idx: Index> {
    inner: Arc<Csr<VI, Idx>>,
    inner_iters: usize,
}

impl<VO: Value, VI: Value, Idx: Index> MixedIr<VO, VI, Idx> {
    /// Builds the refinement solver; the matrix is converted to `VI` once
    /// for the inner solves.
    pub fn new(matrix: Arc<Csr<VO, Idx>>) -> Result<Self> {
        let low = matrix.values().iter().map(|v| VI::from_f64(v.to_f64()));
        let inner = Arc::new(Csr::from_raw(
            matrix.executor(),
            matrix.size(),
            matrix.row_ptrs().to_vec(),
            matrix.col_idxs().to_vec(),
            low.collect(),
        )?);
        Self::from_method(
            matrix,
            MixedIrMethod {
                inner,
                inner_iters: 10,
            },
        )
    }

    /// Sets the inner CG iteration budget per refinement step.
    pub fn with_inner_iterations(mut self, iters: usize) -> Self {
        self.method.inner_iters = iters.max(1);
        self
    }
}

/// One solve's inner CG (built once, reused by every refinement step) and
/// the current outer residual norm.
pub struct MixedIrWork<VI: Value> {
    inner: Cg<VI>,
    res_norm: f64,
}

impl<VO: Value, VI: Value, Idx: Index> Recurrence<VO> for MixedIrMethod<VI, Idx> {
    const NAME: &'static str = "solver::MixedIr";
    const PRECONDITIONED: bool = false;
    type Work = MixedIrWork<VI>;

    fn seed(&self, _core: &SolverCore<VO>, _r: &Dense<VO>) -> Result<MixedIrWork<VI>> {
        let inner = Cg::new(self.inner.clone() as Arc<dyn LinOp<VI>>)?.with_criteria(
            Criteria::iterations_and_reduction(self.inner_iters, VI::eps()),
        );
        Ok(MixedIrWork {
            inner,
            res_norm: 0.0,
        })
    }

    fn iterate(&self, it: &mut Iteration<'_, VO>, w: &mut MixedIrWork<VI>) -> Result<Step> {
        if it.index == 1 {
            w.res_norm = it.baseline;
        }
        // Normalize the residual before downcasting so a tiny late-stage
        // residual does not underflow the low precision's range (the
        // standard IR scaling trick; essential for half).
        let scale = if w.res_norm > 0.0 {
            1.0 / w.res_norm
        } else {
            1.0
        };
        let mut r_scaled = it.r.clone();
        r_scaled.scale(VO::from_f64(scale));
        let r_lo: Dense<VI> = r_scaled.cast();
        let mut d_lo = Dense::<VI>::zeros(it.x.executor(), it.x.size());
        w.inner.apply(&r_lo, &mut d_lo)?;

        // Upcast, undo the scaling, and accumulate in high precision.
        let d: Dense<VO> = d_lo.cast();
        it.x.add_scaled(VO::from_f64(1.0 / scale), &d)?;

        // Outer residual in high precision. A non-finite one stops at the
        // shell's check (the update already happened, so this iteration is
        // counted).
        it.core.residual(it.b, it.x, it.r)?;
        w.res_norm = it.r.compute_norm2();
        Ok(Step::Continue(w.res_norm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::dim::Dim2;
    use crate::executor::Executor;
    use pygko_half::Half;

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
    fn f32_inner_reaches_f64_accuracy() {
        let exec = Executor::reference();
        let a = spd(&exec, 60);
        let solver = MixedIr::<f64, f32>::new(a.clone())
            .unwrap()
            .with_inner_iterations(20)
            .with_criteria(Criteria::iterations_and_reduction(100, 1e-12));
        let b = Dense::<f64>::vector(&exec, 60, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 60, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(rec.converged(), "{:?}", rec.stop_reason);
        // Beyond single precision: the refinement loop must push the
        // residual below what one f32 solve could reach.
        assert!(
            rec.final_residual < 1e-10 * rec.initial_residual,
            "reduction {}",
            rec.reduction()
        );
    }

    #[test]
    fn half_inner_still_refines() {
        let exec = Executor::reference();
        let a = spd(&exec, 24);
        let solver = MixedIr::<f64, Half>::new(a.clone())
            .unwrap()
            .with_inner_iterations(8)
            .with_criteria(Criteria::iterations_and_reduction(200, 1e-8));
        let b = Dense::<f64>::vector(&exec, 24, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 24, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(
            rec.converged(),
            "half-precision inner solves should still refine: {:?} (reduction {})",
            rec.stop_reason,
            rec.reduction()
        );
    }

    #[test]
    fn outer_iterations_shrink_with_more_inner_work() {
        let exec = Executor::reference();
        let a = spd(&exec, 48);
        let b = Dense::<f64>::vector(&exec, 48, 1.0);
        let mut outer_counts = Vec::new();
        for inner in [3usize, 30] {
            let solver = MixedIr::<f64, f32>::new(a.clone())
                .unwrap()
                .with_inner_iterations(inner)
                .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
            let mut x = Dense::<f64>::vector(&exec, 48, 0.0);
            solver.apply(&b, &mut x).unwrap();
            outer_counts.push(solver.logger().snapshot().iterations);
        }
        assert!(
            outer_counts[1] < outer_counts[0],
            "more inner work -> fewer outer sweeps: {outer_counts:?}"
        );
    }
}
