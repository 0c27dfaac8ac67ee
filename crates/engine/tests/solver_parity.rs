//! Solver convergence parity: the omp executor must reproduce the
//! reference executor's Krylov iterations bit-for-bit up to reduction
//! reassociation.
//!
//! Per-kernel parity (see `parity.rs`) bounds a single reassociated sum by
//! a few ulps. A Krylov solve *compounds* those rounding differences
//! multiplicatively — each iteration's dot products scale the next
//! iteration's coefficients, and CGS/BiCGStab square the underlying
//! residual polynomial — so the honest cross-executor bound *doubles* per
//! iteration (measured: CGS reaches ~80 ulps after 8 iterations). The
//! checks below allow `TOL_ULPS << iteration` ulps, which after 8
//! iterations is still ~2e-13 relative — tight enough to catch racing or
//! mispartitioned kernels, which produce wholesale different (or
//! non-deterministic) results, not a few hundred ulps.

use gko::linop::LinOp;
use gko::matrix::{Csr, Dense};
use gko::solver::{BiCgStab, Cg, Cgs, Gmres};
use gko::stop::Criteria;
use gko::{Dim2, Executor};
use std::sync::Arc;

/// Serial-on-omp, even split, prime, and wider-than-chunk-count.
const THREADS: [usize; 3] = [2, 7, 16];

/// Single-kernel reassociation tolerance (matches `parity.rs`).
const TOL_ULPS: u64 = 4;

/// Iterations each smoke solve runs for.
const ITERS: usize = 8;

fn ordered(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    if b < 0 {
        i64::MIN - b
    } else {
        b
    }
}

fn ulps(a: f64, b: f64) -> u64 {
    ordered(a).wrapping_sub(ordered(b)).unsigned_abs()
}

/// A 2D Poisson 5-point stencil on a `g`×`g` grid: SPD, well-conditioned
/// enough that every tested solver makes steady progress for `ITERS` steps.
fn poisson(exec: &Executor, g: usize) -> Arc<Csr<f64, i32>> {
    let n = g * g;
    let mut t = Vec::new();
    for i in 0..g {
        for j in 0..g {
            let r = i * g + j;
            t.push((r, r, 4.0));
            if i > 0 {
                t.push((r, r - g, -1.0));
            }
            if i + 1 < g {
                t.push((r, r + g, -1.0));
            }
            if j > 0 {
                t.push((r, r - 1, -1.0));
            }
            if j + 1 < g {
                t.push((r, r + 1, -1.0));
            }
        }
    }
    Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
}

/// Mildly varying right-hand side (not constant, so no accidental symmetry
/// hides partition-dependent bugs).
fn rhs(exec: &Executor, n: usize) -> Dense<f64> {
    let mut b = Dense::zeros(exec, Dim2::new(n, 1));
    for i in 0..n {
        b.set(
            i,
            0,
            1.0 + 0.25 * ((i % 7) as f64) - 0.125 * ((i % 3) as f64),
        );
    }
    b
}

/// Compares reference vs omp histories and solutions for one solver kind.
fn assert_solver_parity(name: &str, histories: &[(usize, Vec<f64>, Vec<f64>)]) {
    let (_, ref_hist, ref_x) = &histories[0];
    assert_eq!(ref_hist.len(), ITERS, "{name}: reference ran {ITERS} iters");
    let budget = TOL_ULPS << ITERS;
    for (threads, hist, x) in &histories[1..] {
        assert_eq!(
            hist.len(),
            ref_hist.len(),
            "{name}@omp{threads}: iteration count diverged"
        );
        for (it, (h, r)) in hist.iter().zip(ref_hist).enumerate() {
            // Rounding differences compound multiplicatively through the
            // recurrences: double the budget each iteration.
            let tol = TOL_ULPS << (it + 1);
            assert!(
                ulps(*h, *r) <= tol,
                "{name}@omp{threads} residual[{it}]: {h} vs {r} ({} ulps, tol {tol})",
                ulps(*h, *r)
            );
        }
        for (i, (g, r)) in x.iter().zip(ref_x).enumerate() {
            assert!(
                ulps(*g, *r) <= budget,
                "{name}@omp{threads} x[{i}]: {g} vs {r} ({} ulps, budget {budget})",
                ulps(*g, *r)
            );
        }
    }
}

macro_rules! parity_case {
    ($test:ident, $name:literal, $builder:expr) => {
        #[test]
        fn $test() {
            let g = 12; // 144 unknowns: several chunks per executor
            let mut histories = Vec::new();
            for (threads, exec) in std::iter::once((1usize, Executor::reference()))
                .chain(THREADS.into_iter().map(|t| (t, Executor::omp(t))))
            {
                let a = poisson(&exec, g);
                let n = a.size().rows;
                let solver = $builder(a as Arc<dyn LinOp<f64>>);
                let b = rhs(&exec, n);
                let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
                solver.apply(&b, &mut x).unwrap();
                let rec = solver.logger().snapshot();
                assert_eq!(
                    rec.residual_history.len(),
                    rec.iterations,
                    "{}@{threads}: history/iterations invariant",
                    $name
                );
                histories.push((threads, rec.residual_history.clone(), x.to_host_vec()));
            }
            assert_solver_parity($name, &histories);
        }
    };
}

parity_case!(cg_matches_reference_on_omp, "cg", |a| Cg::new(a)
    .unwrap()
    .with_criteria(Criteria::iterations(ITERS)));

parity_case!(cgs_matches_reference_on_omp, "cgs", |a| Cgs::new(a)
    .unwrap()
    .with_criteria(Criteria::iterations(ITERS)));

parity_case!(bicgstab_matches_reference_on_omp, "bicgstab", |a| {
    BiCgStab::new(a)
        .unwrap()
        .with_criteria(Criteria::iterations(ITERS))
});

parity_case!(gmres_matches_reference_on_omp, "gmres", |a| Gmres::new(a)
    .unwrap()
    .with_criteria(Criteria::iterations(ITERS)));
