//! Cross-solver regression tests for the stopping-criteria contract.
//!
//! Two edges every iterative solver inherits from [`gko::stop::Criteria`]:
//!
//! * **zero baseline** — `b = 0`, `x0 = 0` gives an initial residual of
//!   exactly zero, meaning the initial guess already solves the system. All
//!   eight solvers must converge at iteration 0 with `ResidualReduction`
//!   instead of relying on the accidental truth of `0.0 <= factor * 0.0`.
//! * **non-finite baseline** — a hostile `b` containing NaN poisons the
//!   initial residual norm. The solve must report `Breakdown` at iteration
//!   0, not burn `max_iters` iterations on comparisons that are false
//!   forever.

use std::sync::Arc;

use gko::linop::LinOp;
use gko::matrix::{Csr, Dense};
use gko::solver::{BiCgStab, Cg, Cgs, Fcg, Gmres, Ir, Minres, MixedIr};
use gko::stop::{Criteria, StopReason};
use gko::{Dim2, Executor};

/// SPD tridiagonal Poisson matrix, the shared test system.
fn poisson(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
    let mut triplets = Vec::new();
    for i in 0..n {
        triplets.push((i, i, 2.0));
        if i + 1 < n {
            triplets.push((i, i + 1, -1.0));
            triplets.push((i + 1, i, -1.0));
        }
    }
    Arc::new(Csr::from_triplets(exec, Dim2::new(n, n), &triplets).unwrap())
}

/// Runs `b -> x` through every solver and hands each final record to `check`.
fn for_each_solver(b: &Dense<f64>, check: impl Fn(&'static str, gko::log::SolveRecord)) {
    let exec = b.executor().clone();
    let n = b.size().rows;
    let a = poisson(&exec, n);
    let criteria = Criteria::iterations_and_reduction(50, 1e-8);

    macro_rules! run {
        ($name:literal, $solver:expr) => {{
            let solver = $solver;
            let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
            solver.apply(b, &mut x).unwrap();
            check($name, solver.logger().snapshot());
        }};
    }

    run!("cg", Cg::new(a.clone()).unwrap().with_criteria(criteria));
    run!("fcg", Fcg::new(a.clone()).unwrap().with_criteria(criteria));
    run!("cgs", Cgs::new(a.clone()).unwrap().with_criteria(criteria));
    run!(
        "bicgstab",
        BiCgStab::new(a.clone()).unwrap().with_criteria(criteria)
    );
    run!(
        "gmres",
        Gmres::new(a.clone()).unwrap().with_criteria(criteria)
    );
    run!("ir", Ir::new(a.clone()).unwrap().with_criteria(criteria));
    run!(
        "minres",
        Minres::new(a.clone()).unwrap().with_criteria(criteria)
    );
    run!(
        "mixed_ir",
        MixedIr::<f64, f32>::new(a).unwrap().with_criteria(criteria)
    );
}

#[test]
fn zero_rhs_converges_immediately_in_all_solvers() {
    let exec = Executor::reference();
    let b = Dense::<f64>::zeros(&exec, Dim2::new(24, 1));
    for_each_solver(&b, |name, rec| {
        assert_eq!(
            rec.iterations, 0,
            "{name}: zero RHS must cost no iterations"
        );
        assert_eq!(
            rec.stop_reason,
            Some(StopReason::ResidualReduction),
            "{name}: zero baseline converges via the explicit contract"
        );
        assert!(rec.converged(), "{name}");
        assert_eq!(rec.final_residual, 0.0, "{name}");
    });
}

#[test]
fn non_finite_rhs_breaks_down_immediately_in_all_solvers() {
    let exec = Executor::reference();
    let mut b = Dense::<f64>::zeros(&exec, Dim2::new(24, 1));
    b.set(3, 0, f64::NAN);
    for_each_solver(&b, |name, rec| {
        assert_eq!(
            rec.stop_reason,
            Some(StopReason::Breakdown),
            "{name}: a poisoned baseline must break down, not iterate"
        );
        assert_eq!(rec.iterations, 0, "{name}");
        assert!(!rec.converged(), "{name}");
    });
}
