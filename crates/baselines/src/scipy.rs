//! SciPy analog: textbook single-threaded sparse kernels.
//!
//! `scipy.sparse` dispatches to C loops that always run on one core — which
//! is why the paper uses SciPy-on-one-core as the speedup baseline
//! everywhere, and why SciPy wins at one thread but "does not scale with
//! increasing number of threads" (§6.1.2).

use crate::overhead::SCIPY_NS;
use crate::{Library, LibraryCsr};
use gko::base::error::Result;
use gko::base::types::{Index, Value};
use gko::linop::LinOp;
use gko::matrix::Csr;
use pygko_sim::ChunkWork;
use std::sync::Arc;

/// SciPy's `csr_matrix @ vector`: one sequential pass over all rows.
pub type ScipyCsr<V, I = i32> = LibraryCsr<V, I, Scipy>;

/// SciPy's cost model (the library slot of [`ScipyCsr`]).
pub struct Scipy;

impl Library for Scipy {
    const NAME: &'static str = "scipy::csr";
    const OVERHEAD_NS: f64 = SCIPY_NS;

    fn work<V: Value, I: Index>(matrix: &Csr<V, I>) -> Vec<ChunkWork> {
        // One chunk: the whole matrix on one core, plus the Python-call cost.
        let nnz = matrix.nnz() as f64;
        let rows = matrix.size().rows as f64;
        vec![ChunkWork::new(
            nnz * (V::BYTES + I::BYTES) as f64 + rows * (I::BYTES + V::BYTES) as f64,
            nnz * V::BYTES as f64,
            2.0 * nnz,
        )]
    }
}

/// Builds a SciPy-style solver: the engine's Krylov loop over the
/// single-core SciPy SpMV operator, so every kernel (SpMV, dots, axpys)
/// is charged at one-core rates. Method is the engine method's name in
/// lower case (`"cg"`, `"cgs"`, `"gmres"`, ...); GMRES restarts every 30.
pub fn scipy_solver<V: Value, I: Index>(
    matrix: Arc<Csr<V, I>>,
    method: &str,
    iters: usize,
) -> Result<(Arc<dyn LinOp<V>>, gko::log::ConvergenceLogger)> {
    let op: Arc<dyn LinOp<V>> = Arc::new(ScipyCsr::new(matrix));
    let (head, tail) = (method.get(..1).unwrap_or(""), method.get(1..).unwrap_or(""));
    let name = format!("solver::{}{tail}", head.to_uppercase());
    let criteria = gko::stop::Criteria::iterations(iters);
    gko::solver::iterative_by_name(&name, op, criteria, None, Some(30), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scipy_executor;
    use gko::base::dim::Dim2;
    use gko::matrix::Dense;
    use gko::Executor;

    fn sample(exec: &Executor) -> Arc<Csr<f64, i32>> {
        Arc::new(
            Csr::from_triplets(
                exec,
                Dim2::square(3),
                &[
                    (0, 0, 2.0),
                    (0, 2, 1.0),
                    (1, 1, 3.0),
                    (2, 0, 4.0),
                    (2, 1, 5.0),
                    (2, 2, 6.0),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn numerics_match_engine_csr() {
        let exec = scipy_executor();
        let a = sample(&exec);
        let scipy = ScipyCsr::new(a.clone());
        let b = Dense::from_rows(&exec, &[[1.0f64], [2.0], [3.0]]);
        let mut x1 = Dense::zeros(&exec, Dim2::new(3, 1));
        let mut x2 = Dense::zeros(&exec, Dim2::new(3, 1));
        scipy.apply(&b, &mut x1).unwrap();
        a.apply(&b, &mut x2).unwrap();
        assert_eq!(x1.to_host_vec(), x2.to_host_vec());
    }

    #[test]
    fn modeled_time_is_single_core() {
        // SciPy's one-chunk SpMV cannot exploit the worker count: its time
        // on a big matrix exceeds the engine's omp time on the same matrix.
        let n = 20_000usize;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
        }
        let scipy_exec = scipy_executor();
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&scipy_exec, Dim2::square(n), &t).unwrap());
        let scipy = ScipyCsr::new(a);
        let b = Dense::<f64>::vector(&scipy_exec, n, 1.0);
        let mut x = Dense::zeros(&scipy_exec, Dim2::new(n, 1));
        let t0 = scipy_exec.timeline().snapshot();
        scipy.apply(&b, &mut x).unwrap();
        let scipy_ns = scipy_exec.timeline().snapshot().since(&t0).ns;

        let omp = Executor::omp(32);
        let a2 = Csr::<f64, i32>::from_triplets(&omp, Dim2::square(n), &t).unwrap();
        let b2 = Dense::<f64>::vector(&omp, n, 1.0);
        let mut x2 = Dense::zeros(&omp, Dim2::new(n, 1));
        let t0 = omp.timeline().snapshot();
        a2.apply(&b2, &mut x2).unwrap();
        let omp_ns = omp.timeline().snapshot().since(&t0).ns;

        assert!(
            scipy_ns > 3 * omp_ns,
            "scipy {scipy_ns}ns should be much slower than 32-thread engine {omp_ns}ns"
        );
    }

    #[test]
    fn scipy_solvers_run_fixed_iterations() {
        let exec = scipy_executor();
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
        for method in ["cg", "cgs", "gmres"] {
            let (solver, logger) = scipy_solver(a.clone(), method, 8).unwrap();
            let b = Dense::<f64>::vector(&exec, n, 1.0);
            let mut x = Dense::<f64>::vector(&exec, n, 0.0);
            solver.apply(&b, &mut x).unwrap();
            assert_eq!(logger.snapshot().iterations, 8, "{method}");
        }
        assert!(scipy_solver(a, "sor", 5).is_err());
    }
}
