//! Breakdown semantics across solvers (the non-finite-residual fixes).
//!
//! A residual that goes NaN/Inf — from a poisoned kernel, overflow on a
//! divergent iteration, or an exactly-singular step — must stop a solve
//! with [`StopReason::Breakdown`] within O(1) further iterations, never
//! spin silently until the iteration limit. And on *every* exit path, each
//! solver maintains the engine-wide convention documented on
//! `SolveRecord::iterations`: `residual_history.len() == iterations`.

use gko::linop::LinOp;
use gko::log::SolveRecord;
use gko::matrix::{Csr, Dense};
use gko::preconditioner::jacobi::Jacobi;
use gko::solver::{BiCgStab, Cg, Cgs, Fcg, Gmres, Ir, Minres, MixedIr};
use gko::stop::{Criteria, StopReason};
use gko::{Dim2, Executor};
use std::sync::Arc;

mod common;
use common::{poisson, PoisonAfter};

fn assert_invariant(name: &str, rec: &SolveRecord) {
    assert_eq!(
        rec.residual_history.len(),
        rec.iterations,
        "{name}: residual_history.len() must equal iterations (reason {:?})",
        rec.stop_reason
    );
}

/// A poisoned SpMV must stop CG, BiCGStab, and GMRES with `Breakdown`
/// within a couple of iterations of the first NaN, not run out the
/// 500-iteration budget.
#[test]
fn poisoned_spmv_stops_solvers_within_a_few_iterations() {
    let exec = Executor::reference();
    let a = poisson(&exec, 10);
    let n = a.size().rows;
    let crit = || Criteria::iterations_and_reduction(500, 1e-12);
    // The 3rd operator application (and every one after) produces a NaN:
    // the initial-residual apply plus at most two iteration applies are
    // clean, so breakdown must surface within the first few iterations.
    let run = |name: &str, rec: SolveRecord| {
        assert_eq!(
            rec.stop_reason,
            Some(StopReason::Breakdown),
            "{name}: expected breakdown, got {rec:?}"
        );
        assert!(
            rec.iterations <= 4,
            "{name}: breakdown should surface within O(1) iterations of the \
             poisoned apply, took {}",
            rec.iterations
        );
        assert_invariant(name, &rec);
    };

    let op = PoisonAfter::new(a.clone(), 3);
    let s = Cg::new(op as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(crit());
    let b = Dense::<f64>::vector(&exec, n, 1.0);
    let mut x = Dense::<f64>::vector(&exec, n, 0.0);
    s.apply(&b, &mut x).unwrap();
    run("cg", s.logger().snapshot());

    let op = PoisonAfter::new(a.clone(), 3);
    let s = BiCgStab::new(op as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(crit());
    let mut x = Dense::<f64>::vector(&exec, n, 0.0);
    s.apply(&b, &mut x).unwrap();
    run("bicgstab", s.logger().snapshot());

    let op = PoisonAfter::new(a, 3);
    let s = Gmres::new(op as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(crit());
    let mut x = Dense::<f64>::vector(&exec, n, 0.0);
    s.apply(&b, &mut x).unwrap();
    run("gmres", s.logger().snapshot());
}

/// The classic CG breakdown: a symmetric *indefinite* permutation matrix
/// makes the very first `p' A p` vanish. CG and BiCGStab must report
/// breakdown immediately; GMRES solves the system exactly.
#[test]
fn indefinite_two_cycle_breaks_cg_and_bicgstab_immediately() {
    let exec = Executor::reference();
    let a = Arc::new(
        Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 1, 1.0), (1, 0, 1.0)])
            .unwrap(),
    );
    let crit = || Criteria::iterations_and_reduction(50, 1e-12);
    let b = Dense::<f64>::from_rows(&exec, &[[1.0], [0.0]]);

    let s = Cg::new(a.clone() as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(crit());
    let mut x = Dense::<f64>::vector(&exec, 2, 0.0);
    s.apply(&b, &mut x).unwrap();
    let rec = s.logger().snapshot();
    assert_eq!(rec.stop_reason, Some(StopReason::Breakdown), "{rec:?}");
    assert_invariant("cg/indefinite", &rec);

    let s = BiCgStab::new(a.clone() as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(crit());
    let mut x = Dense::<f64>::vector(&exec, 2, 0.0);
    s.apply(&b, &mut x).unwrap();
    let rec = s.logger().snapshot();
    assert_eq!(rec.stop_reason, Some(StopReason::Breakdown), "{rec:?}");
    assert_invariant("bicgstab/indefinite", &rec);

    let s = Gmres::new(a as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(crit());
    let mut x = Dense::<f64>::vector(&exec, 2, 0.0);
    s.apply(&b, &mut x).unwrap();
    let rec = s.logger().snapshot();
    assert!(rec.converged(), "gmres handles indefinite: {rec:?}");
    assert!((x.at(0, 0)).abs() < 1e-10 && (x.at(1, 0) - 1.0).abs() < 1e-10);
    assert_invariant("gmres/indefinite", &rec);
}

/// A singular diagonal system with an inconsistent right-hand side: CG
/// diverges until its recurrence overflows — the non-finite residual is now
/// caught as `Breakdown` instead of iterating to the limit on NaNs.
/// BiCGStab breaks down the same way; GMRES stagnates (stable) and stops at
/// the iteration limit without claiming convergence.
#[test]
fn singular_system_stops_honestly() {
    let exec = Executor::reference();
    let n = 24;
    let t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, i as f64)).collect();
    let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
    let crit = || Criteria::iterations_and_reduction(2000, 1e-10);
    let b = Dense::<f64>::vector(&exec, n, 1.0);

    let s = Cg::new(a.clone() as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(crit());
    let mut x = Dense::<f64>::vector(&exec, n, 0.0);
    s.apply(&b, &mut x).unwrap();
    let rec = s.logger().snapshot();
    assert_eq!(rec.stop_reason, Some(StopReason::Breakdown), "{rec:?}");
    assert!(
        rec.iterations < 2000,
        "cg/singular: overflow breakdown must beat the iteration limit"
    );
    assert!(
        rec.residual_history.iter().all(|r| r.is_finite()),
        "cg/singular: no non-finite residual is ever recorded as history"
    );
    assert_invariant("cg/singular", &rec);

    let s = BiCgStab::new(a.clone() as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(crit());
    let mut x = Dense::<f64>::vector(&exec, n, 0.0);
    s.apply(&b, &mut x).unwrap();
    let rec = s.logger().snapshot();
    assert_eq!(rec.stop_reason, Some(StopReason::Breakdown), "{rec:?}");
    assert!(rec.iterations < 2000);
    assert_invariant("bicgstab/singular", &rec);

    let s = Gmres::new(a as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(crit());
    let mut x = Dense::<f64>::vector(&exec, n, 0.0);
    s.apply(&b, &mut x).unwrap();
    let rec = s.logger().snapshot();
    assert_eq!(rec.stop_reason, Some(StopReason::MaxIterations), "{rec:?}");
    assert!(
        !rec.converged() && rec.final_residual > 0.5,
        "gmres/singular must not claim convergence: {rec:?}"
    );
    assert_invariant("gmres/singular", &rec);
}

/// The all-zero operator breaks every Krylov recurrence before the first
/// iteration completes: `Breakdown` with zero counted iterations and an
/// empty history.
#[test]
fn zero_matrix_breaks_down_at_iteration_zero() {
    let exec = Executor::reference();
    let n = 8;
    let a =
        Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &[(0, 0, 0.0)]).unwrap());
    let crit = || Criteria::iterations_and_reduction(50, 1e-10);
    let b = Dense::<f64>::vector(&exec, n, 1.0);

    macro_rules! case {
        ($name:literal, $solver:expr) => {{
            let s = $solver;
            let mut x = Dense::<f64>::vector(&exec, n, 0.0);
            s.apply(&b, &mut x).unwrap();
            let rec = s.logger().snapshot();
            assert_eq!(rec.stop_reason, Some(StopReason::Breakdown), "{rec:?}");
            assert_eq!(rec.iterations, 0, $name);
            assert!(rec.residual_history.is_empty(), $name);
        }};
    }
    case!(
        "cg",
        Cg::new(a.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_criteria(crit())
    );
    case!(
        "bicgstab",
        BiCgStab::new(a.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_criteria(crit())
    );
    case!(
        "gmres",
        Gmres::new(a as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_criteria(crit())
    );
}

/// The `Criteria` entry point itself: any non-finite residual is a
/// breakdown regardless of the configured criteria.
#[test]
fn criteria_reports_non_finite_residual_as_breakdown() {
    for crit in [
        Criteria::iterations(10),
        Criteria::iterations_and_reduction(10, 1e-8),
        Criteria::iterations(10).with_abs_tolerance(1e-8),
    ] {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                crit.check(1, bad, 1.0),
                Some(StopReason::Breakdown),
                "residual {bad}"
            );
        }
    }
}

/// Satellite convention check: every solver, on every exit path exercised
/// here (converged, iteration-limited, diverged), satisfies
/// `residual_history.len() == iterations`.
#[test]
fn history_length_matches_iterations_for_every_solver() {
    let exec = Executor::reference();
    let a = poisson(&exec, 6);
    let n = a.size().rows;
    let b = Dense::<f64>::vector(&exec, n, 1.0);

    // Converging criteria and a hard 3-iteration cap.
    for crit in [
        Criteria::iterations_and_reduction(500, 1e-9),
        Criteria::iterations(3),
    ] {
        macro_rules! case {
            ($name:literal, $solver:expr) => {{
                let s = $solver;
                let mut x = Dense::<f64>::vector(&exec, n, 0.0);
                s.apply(&b, &mut x).unwrap();
                assert_invariant($name, &s.logger().snapshot());
            }};
        }
        case!(
            "cg",
            Cg::new(a.clone() as Arc<dyn LinOp<f64>>)
                .unwrap()
                .with_criteria(crit)
        );
        case!(
            "fcg",
            Fcg::new(a.clone() as Arc<dyn LinOp<f64>>)
                .unwrap()
                .with_criteria(crit)
        );
        case!(
            "cgs",
            Cgs::new(a.clone() as Arc<dyn LinOp<f64>>)
                .unwrap()
                .with_criteria(crit)
        );
        case!(
            "bicgstab",
            BiCgStab::new(a.clone() as Arc<dyn LinOp<f64>>)
                .unwrap()
                .with_criteria(crit)
        );
        case!(
            "gmres",
            Gmres::new(a.clone() as Arc<dyn LinOp<f64>>)
                .unwrap()
                .with_criteria(crit)
        );
        case!(
            "minres",
            Minres::new(a.clone() as Arc<dyn LinOp<f64>>)
                .unwrap()
                .with_criteria(crit)
        );
        case!(
            "ir",
            Ir::new(a.clone() as Arc<dyn LinOp<f64>>)
                .unwrap()
                .with_solver(Arc::new(Jacobi::new(&*a).unwrap()))
                .unwrap()
                .with_criteria(crit)
        );
        {
            let s = MixedIr::<f64, f32>::new(a.clone())
                .unwrap()
                .with_criteria(crit);
            let mut x = Dense::<f64>::vector(&exec, n, 0.0);
            s.apply(&b, &mut x).unwrap();
            assert_invariant("mixed_ir", &s.logger().snapshot());
        }
    }
}
