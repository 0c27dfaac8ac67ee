//! The replay model behind `solver.<cg|gmres>.kernel_model_share`: a solve
//! rebuilt from its iteration count and separately timed kernels.
//!
//! `model = sum over kernels of calls x unit cost`, with the calls read off
//! the solver loops (`crates/engine/src/solver/{cg,gmres}.rs`) and the unit
//! costs timed at the same size on the same executor. What the measured solve
//! takes beyond the model is loop plumbing, allocation and copies: it is
//! reported as `unattributed_share`, not hidden.

/// Seconds per call of each kernel a Krylov loop is made of.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnitCosts {
    /// One `LinOp::apply` of the system matrix.
    pub spmv: f64,
    /// One `compute_dot`.
    pub dot: f64,
    /// One `compute_norm2`.
    pub norm2: f64,
    /// One `add_scaled` / `scale_add`.
    pub axpy: f64,
    /// One `copy_from` (also what `scale` and `clone` cost: one read, one
    /// write per element).
    pub copy: f64,
    /// One preconditioner apply.
    pub precond: f64,
}

/// Kernel calls of one whole solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelCalls {
    /// Matrix applies.
    pub spmv: f64,
    /// Dot products.
    pub dot: f64,
    /// Norms.
    pub norm2: f64,
    /// Vector updates.
    pub axpy: f64,
    /// Copies, scalings and clones.
    pub copy: f64,
    /// Preconditioner applies.
    pub precond: f64,
}

/// Calls of an unpreconditioned CG solve of `iters` iterations: per
/// iteration one apply, `p.q` and `r.z`, one norm, `x`, `r` and `p` updates,
/// and the identity preconditioner's copy of `r` into `z`; before the loop
/// one residual (copy + fused apply), one such copy, one clone, one norm and
/// one dot.
pub fn cg_calls(iters: usize) -> KernelCalls {
    let n = iters as f64;
    KernelCalls {
        spmv: n + 1.0,
        dot: 2.0 * n + 1.0,
        norm2: n + 1.0,
        axpy: 3.0 * n,
        copy: n + 3.0,
        precond: 0.0,
    }
}

/// Calls of a right-preconditioned GMRES(`restart`) solve of `iters`
/// iterations. Iteration `j` of a cycle orthogonalises against `j + 1` basis
/// vectors (one dot and one update each, modified Gram-Schmidt), applies the
/// preconditioner and the matrix once, takes one norm and clones and scales
/// the new basis vector. Every cycle starts with a residual (copy + fused
/// apply), a norm and a clone + scale, and ends by folding the cycle into
/// `x`: one update per basis vector, one preconditioner apply, one more
/// update. One more residual and norm precede the first cycle.
pub fn gmres_calls(iters: usize, restart: usize) -> KernelCalls {
    let restart = restart.max(1);
    let full = iters / restart;
    let rest = iters % restart;
    let cycles = (full + usize::from(rest > 0)) as f64;
    let tri = |m: usize| (m * (m + 1) / 2) as f64;
    let orth = full as f64 * tri(restart) + tri(rest);
    let n = iters as f64;
    KernelCalls {
        spmv: n + cycles + 1.0,
        dot: orth,
        norm2: n + cycles + 1.0,
        axpy: orth + n + cycles,
        copy: 2.0 * n + 3.0 * cycles + 1.0,
        precond: n + cycles,
    }
}

/// Seconds the model gives a solve.
pub fn replay(calls: &KernelCalls, costs: &UnitCosts) -> f64 {
    calls.spmv * costs.spmv
        + calls.dot * costs.dot
        + calls.norm2 * costs.norm2
        + calls.axpy * costs.axpy
        + calls.copy * costs.copy
        + calls.precond * costs.precond
}

/// `(kernel_model_share, unattributed_share)` of a measured solve; the two
/// always sum to one.
pub fn shares(model_s: f64, measured_s: f64) -> (f64, f64) {
    let share = model_s / measured_s;
    (share, 1.0 - share)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MICRO: UnitCosts = UnitCosts {
        spmv: 1e-6,
        dot: 1e-6,
        norm2: 1e-6,
        axpy: 1e-6,
        copy: 1e-6,
        precond: 1e-6,
    };

    #[test]
    fn cg_replay_on_unit_costs_counts_eight_kernels_per_iteration() {
        let calls = cg_calls(100);
        // 8 per iteration plus 6 before the loop.
        let model = replay(&calls, &MICRO);
        assert!((model - 806e-6).abs() < 1e-12, "{model}");
        let (share, rest) = shares(model, 1000e-6);
        assert!((share - 0.806).abs() < 1e-9);
        assert!((share + rest - 1.0).abs() < 1e-15);
    }

    #[test]
    fn gmres_orthogonalisation_grows_within_a_cycle_and_resets_at_restart() {
        // 7 iterations of GMRES(3): cycles of 3, 3 and 1 iterations.
        let calls = gmres_calls(7, 3);
        assert_eq!(calls.dot, (1 + 2 + 3) as f64 * 2.0 + 1.0);
        assert_eq!(calls.spmv, 7.0 + 3.0 + 1.0);
        assert_eq!(calls.precond, 7.0 + 3.0);
        // A single kernel priced, the rest free: the model is calls x cost.
        let only_dots = UnitCosts {
            dot: 2e-6,
            spmv: 0.0,
            norm2: 0.0,
            axpy: 0.0,
            copy: 0.0,
            precond: 0.0,
        };
        assert!((replay(&calls, &only_dots) - 26e-6).abs() < 1e-15);
    }

    #[test]
    fn a_model_above_the_measurement_shows_as_negative_remainder() {
        let (share, rest) = shares(1.2, 1.0);
        assert!(share > 1.0 && rest < 0.0);
    }
}
