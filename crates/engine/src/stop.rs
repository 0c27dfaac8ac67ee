//! Stopping criteria (Ginkgo's `stop::Criterion` factories).
//!
//! The paper's examples (Listings 1 and 2) combine a maximum iteration count
//! with a relative residual reduction factor; criteria are OR-combined, as
//! in Ginkgo.

/// Why an iteration stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The iteration limit was reached without convergence.
    MaxIterations,
    /// `||r|| <= reduction_factor * ||r0||`.
    ResidualReduction,
    /// `||r|| <= absolute tolerance`.
    AbsoluteResidual,
    /// The iteration broke down numerically (reported by solvers).
    Breakdown,
}

impl StopReason {
    /// True if the stop indicates convergence (rather than giving up).
    pub fn is_converged(self) -> bool {
        matches!(
            self,
            StopReason::ResidualReduction | StopReason::AbsoluteResidual
        )
    }

    /// Stable identifier used in JSON documents (`/runs`, `/traces`).
    pub fn name(self) -> &'static str {
        match self {
            StopReason::MaxIterations => "max_iterations",
            StopReason::ResidualReduction => "residual_reduction",
            StopReason::AbsoluteResidual => "absolute_residual",
            StopReason::Breakdown => "breakdown",
        }
    }

    /// Wording shown to a user (the facade's `Logger::stop_reason`).
    pub fn describe(self) -> &'static str {
        match self {
            StopReason::MaxIterations => "max iterations",
            StopReason::ResidualReduction => "converged (residual reduction)",
            StopReason::AbsoluteResidual => "converged (absolute residual)",
            StopReason::Breakdown => "breakdown",
        }
    }
}

/// OR-combination of stopping criteria.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Criteria {
    /// Stop after this many iterations (always present as a safety net).
    pub max_iters: usize,
    /// Stop when the residual norm has been reduced by this factor relative
    /// to the initial residual.
    pub reduction_factor: Option<f64>,
    /// Stop when the residual norm falls below this absolute value.
    pub abs_tolerance: Option<f64>,
}

impl Default for Criteria {
    fn default() -> Self {
        Criteria {
            max_iters: 1000,
            reduction_factor: Some(1e-6),
            abs_tolerance: None,
        }
    }
}

impl Criteria {
    /// Criteria with only an iteration limit (the paper's fixed-iteration
    /// solver benchmarks disable residual-based stopping this way).
    pub fn iterations(max_iters: usize) -> Self {
        Criteria {
            max_iters,
            reduction_factor: None,
            abs_tolerance: None,
        }
    }

    /// Iteration limit plus relative residual reduction (Listing 1's setup).
    pub fn iterations_and_reduction(max_iters: usize, reduction_factor: f64) -> Self {
        Criteria {
            max_iters,
            reduction_factor: Some(reduction_factor),
            abs_tolerance: None,
        }
    }

    /// Adds an absolute residual tolerance.
    pub fn with_abs_tolerance(mut self, tol: f64) -> Self {
        self.abs_tolerance = Some(tol);
        self
    }

    /// Checks the state *after* `iters_done` completed iterations.
    ///
    /// `baseline` is the initial residual norm. Returns `Some(reason)` when
    /// the iteration should stop.
    ///
    /// A non-finite residual norm (NaN or ±Inf) stops the iteration
    /// immediately with [`StopReason::Breakdown`]: every float comparison
    /// against NaN is false, so without this check a diverging solve would
    /// silently burn `max_iters` iterations before giving up. The same guard
    /// applies to `baseline`: a poisoned initial residual would make
    /// `res_norm <= factor * baseline` silently false on every iteration, so
    /// the reduction criterion could never fire and the solve would also
    /// burn `max_iters`.
    ///
    /// # Zero-baseline contract
    ///
    /// When residual-based stopping is enabled (`reduction_factor` is set),
    /// a `baseline` of exactly `0.0` means the initial guess already solves
    /// the system exactly (e.g. `b = 0`, `x0 = 0`): the check converges at
    /// once with [`StopReason::ResidualReduction`] while `res_norm` is still
    /// zero, and reports [`StopReason::Breakdown`] if a later iteration
    /// presents a nonzero residual against that zero baseline — an exact
    /// solution the iteration subsequently left can only mean numerical
    /// trouble, and no reduction of a nonzero residual ever satisfies
    /// `res_norm <= factor * 0.0`. Iteration-only criteria
    /// ([`Criteria::iterations`]) are unaffected and still run their fixed
    /// iteration count; an `abs_tolerance`, checked first, also still fires
    /// on its own terms.
    pub fn check(&self, iters_done: usize, res_norm: f64, baseline: f64) -> Option<StopReason> {
        if !res_norm.is_finite() || !baseline.is_finite() {
            return Some(StopReason::Breakdown);
        }
        if let Some(tol) = self.abs_tolerance {
            if res_norm <= tol {
                return Some(StopReason::AbsoluteResidual);
            }
        }
        if let Some(factor) = self.reduction_factor {
            if baseline == 0.0 {
                return Some(if res_norm == 0.0 {
                    StopReason::ResidualReduction
                } else {
                    StopReason::Breakdown
                });
            }
            if res_norm <= factor * baseline {
                return Some(StopReason::ResidualReduction);
            }
        }
        if iters_done >= self.max_iters {
            return Some(StopReason::MaxIterations);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_listing() {
        let c = Criteria::default();
        assert_eq!(c.max_iters, 1000);
        assert_eq!(c.reduction_factor, Some(1e-6));
    }

    #[test]
    fn iteration_limit_fires_at_limit() {
        let c = Criteria::iterations(10);
        assert_eq!(c.check(9, 1.0, 1.0), None);
        assert_eq!(c.check(10, 1.0, 1.0), Some(StopReason::MaxIterations));
    }

    #[test]
    fn reduction_factor_is_relative() {
        let c = Criteria::iterations_and_reduction(100, 1e-3);
        // 0.05 <= 1e-3 * 100 -> converged relative to the large baseline...
        assert_eq!(c.check(1, 0.05, 100.0), Some(StopReason::ResidualReduction));
        // ...but not relative to a baseline of 1.
        assert_eq!(c.check(1, 0.05, 1.0), None);
    }

    #[test]
    fn absolute_tolerance_takes_priority() {
        let c = Criteria::iterations_and_reduction(100, 1e-3).with_abs_tolerance(1e-8);
        assert_eq!(c.check(1, 1e-9, 1.0), Some(StopReason::AbsoluteResidual));
    }

    #[test]
    fn non_finite_residual_is_breakdown() {
        // NaN/Inf must short-circuit every criterion, including the
        // iteration limit: a diverged solve should stop now, not at
        // max_iters.
        for c in [
            Criteria::default(),
            Criteria::iterations(1000),
            Criteria::iterations_and_reduction(1000, 1e-8).with_abs_tolerance(1e-12),
        ] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(c.check(1, bad, 1.0), Some(StopReason::Breakdown));
            }
        }
        // ...and finite residuals still follow the normal rules.
        let c = Criteria::iterations_and_reduction(10, 1e-3);
        assert_eq!(c.check(1, 0.5, 1.0), None);
    }

    #[test]
    fn non_finite_baseline_is_breakdown() {
        // A poisoned baseline makes `res_norm <= factor * baseline` false
        // forever (NaN) or trivially true (+Inf); either way the comparison
        // is meaningless and the solve must stop now, mirroring the
        // non-finite-res_norm guard above.
        for c in [
            Criteria::default(),
            Criteria::iterations(1000),
            Criteria::iterations_and_reduction(1000, 1e-8).with_abs_tolerance(1e-12),
        ] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(c.check(1, 1.0, bad), Some(StopReason::Breakdown));
                assert_eq!(c.check(0, 1.0, bad), Some(StopReason::Breakdown));
            }
        }
    }

    #[test]
    fn zero_baseline_converges_immediately_under_reduction() {
        // b = 0, x0 = 0: the initial check sees res_norm == baseline == 0
        // and must converge at once instead of relying on `0.0 <= 0.0`.
        let c = Criteria::iterations_and_reduction(100, 1e-6);
        assert_eq!(c.check(0, 0.0, 0.0), Some(StopReason::ResidualReduction));
        // An exact initial solution the iteration then *left* is numerical
        // trouble: no nonzero residual can ever be reduced below zero.
        assert_eq!(c.check(3, 0.5, 0.0), Some(StopReason::Breakdown));
        // An absolute tolerance still takes priority over the contract.
        let c = c.with_abs_tolerance(1e-8);
        assert_eq!(c.check(0, 0.0, 0.0), Some(StopReason::AbsoluteResidual));
        // Iteration-only criteria keep their fixed-iteration semantics.
        let c = Criteria::iterations(10);
        assert_eq!(c.check(0, 0.0, 0.0), None);
        assert_eq!(c.check(10, 0.0, 0.0), Some(StopReason::MaxIterations));
    }

    #[test]
    fn converged_classification() {
        assert!(StopReason::ResidualReduction.is_converged());
        assert!(StopReason::AbsoluteResidual.is_converged());
        assert!(!StopReason::MaxIterations.is_converged());
        assert!(!StopReason::Breakdown.is_converged());
    }
}
