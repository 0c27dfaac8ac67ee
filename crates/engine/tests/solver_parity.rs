//! Solver convergence parity: the omp executor must reproduce the
//! reference executor's Krylov iterations up to reduction reassociation,
//! inside `common::assert_in_band`'s band, which doubles per iteration.
//! `solver_golden.rs` runs the same band over every solver kind, both
//! preconditioners, its golden systems and `cuda(0)`.

use gko::linop::LinOp;
use gko::log::ConvergenceLogger;
use gko::matrix::Dense;
use gko::solver::{BiCgStab, Cg, Cgs, Gmres};
use gko::stop::Criteria;
use gko::{Dim2, Executor};
use std::sync::Arc;

mod common;

/// A solver over the system operator, stopped after `common::BAND_ITERS`
/// iterations, and its convergence logger.
type Build = fn(Arc<dyn LinOp<f64>>) -> (Arc<dyn LinOp<f64>>, ConvergenceLogger);

/// Residual history and solution of `build` on the 12 x 12 Poisson system
/// (144 unknowns, several chunks per executor) with a mildly varying
/// right-hand side, so that no symmetry hides a partition-dependent bug.
fn solve(exec: &Executor, build: Build) -> (Vec<f64>, Vec<f64>) {
    let a = common::poisson(exec, 12);
    let n = a.size().rows;
    let b = (0..n).map(|i| 1.0 + 0.25 * ((i % 7) as f64) - 0.125 * ((i % 3) as f64));
    let b = Dense::from_vec(exec, Dim2::new(n, 1), b.collect()).unwrap();
    let (solver, logger) = build(a);
    let mut x = Dense::zeros(exec, Dim2::new(n, 1));
    solver.apply(&b, &mut x).unwrap();
    let rec = logger.snapshot();
    let on = common::label(exec);
    assert_eq!(
        rec.residual_history.len(),
        rec.iterations,
        "{on}: history/iterations invariant"
    );
    (rec.residual_history, x.to_host_vec())
}

/// Every omp executor against the reference executor, inside the band.
fn assert_solver_parity(name: &str, build: Build) {
    let executors = common::executors();
    let (reference, omps) = executors.split_first().unwrap();
    let (want_history, want_x) = solve(reference, build);
    for omp in omps {
        let (history, x) = solve(omp, build);
        let case = format!("{name}@{}", common::label(omp));
        common::assert_in_band(&case, (&history, &x), (&want_history, &want_x));
    }
}

macro_rules! parity_case {
    ($test:ident, $name:literal, $solver:ident) => {
        #[test]
        fn $test() {
            assert_solver_parity($name, |a| {
                let s = $solver::new(a).unwrap();
                let s = s.with_criteria(Criteria::iterations(common::BAND_ITERS));
                let logger = s.logger().clone();
                (Arc::new(s), logger)
            });
        }
    };
}

parity_case!(cg_matches_reference_on_omp, "cg", Cg);
parity_case!(cgs_matches_reference_on_omp, "cgs", Cgs);
parity_case!(bicgstab_matches_reference_on_omp, "bicgstab", BiCgStab);
parity_case!(gmres_matches_reference_on_omp, "gmres", Gmres);
