//! §6.2.2: CPU solver comparison — pyGinkgo (32 threads) vs SciPy (1 core),
//! time per iteration for CG, CGS, and GMRES(30), double precision, on the
//! solver suite. The paper reports pyGinkgo 3–8x faster for CG with similar
//! results for CGS and GMRES.
//!
//! `cargo run -p pygko-bench --bin solver_cpu --release`

use gko::linop::LinOp;
use gko::matrix::Csr;
use gko::solver::{Cg, Cgs, Gmres};
use gko::stop::Criteria;
use gko::{Dim2, Executor};
use pygko_baselines::scipy::scipy_solver;
use pygko_baselines::scipy_executor;
use pygko_bench::{cast_triplets, fmt, maybe_shrink, time_per_iter, Report, SOLVER_ITERS};
use pygko_matgen::solver_suite;
use std::sync::Arc;

fn main() {
    let mut report = Report::new(
        "Section 6.2.2: solver time/iteration speedup vs SciPy on CPU, fp64",
        &["matrix", "nnz", "CG x", "CGS x", "GMRES x"],
    );

    let mut rows: Vec<(usize, Vec<String>)> = Vec::new();
    let mut cg_speedups = Vec::new();

    for info in maybe_shrink(solver_suite()) {
        let gen = info.generate();
        let n = gen.rows;
        let nnz = gen.nnz();
        let t64 = cast_triplets::<f64>(&gen);
        let dim = Dim2::new(n, n);
        let criteria = Criteria::iterations(SOLVER_ITERS);
        let what = |library: &str, solver: &str| format!("{} {library} {solver}", gen.name);

        // pyGinkgo on 32 threads.
        let omp = Executor::omp(32);
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&omp, dim, &t64).unwrap());

        let s = Cg::new(a.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_criteria(criteria);
        let gko_cg = time_per_iter(&omp, &s, s.logger(), &what("pyGinkgo", "CG"));
        let s = Cgs::new(a.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_criteria(criteria);
        let gko_cgs = time_per_iter(&omp, &s, s.logger(), &what("pyGinkgo", "CGS"));
        let s = Gmres::new(a.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_krylov_dim(30)
            .with_criteria(criteria);
        let gko_gmres = time_per_iter(&omp, &s, s.logger(), &what("pyGinkgo", "GMRES"));

        // SciPy on one core.
        let sp = scipy_executor();
        let a_sp = Arc::new(Csr::<f64, i32>::from_triplets(&sp, dim, &t64).unwrap());
        let (s, log) = scipy_solver(a_sp.clone(), "cg", SOLVER_ITERS).unwrap();
        let scipy_cg = time_per_iter(&sp, &*s, &log, &what("SciPy", "CG"));
        let (s, log) = scipy_solver(a_sp.clone(), "cgs", SOLVER_ITERS).unwrap();
        let scipy_cgs = time_per_iter(&sp, &*s, &log, &what("SciPy", "CGS"));
        let (s, log) = scipy_solver(a_sp, "gmres", SOLVER_ITERS).unwrap();
        let scipy_gmres = time_per_iter(&sp, &*s, &log, &what("SciPy", "GMRES"));

        cg_speedups.push(scipy_cg / gko_cg);
        rows.push((
            nnz,
            vec![
                gen.name.clone(),
                nnz.to_string(),
                fmt(scipy_cg / gko_cg),
                fmt(scipy_cgs / gko_cgs),
                fmt(scipy_gmres / gko_gmres),
            ],
        ));
    }

    rows.sort_by_key(|(nnz, _)| *nnz);
    for (_, row) in rows {
        report.row(row);
    }
    report.print();
    report.write_csv("solver_cpu").expect("csv");

    cg_speedups.sort_by(f64::total_cmp);
    println!("\npaper: pyGinkgo 3-8x faster than SciPy for CG (similar for CGS/GMRES)");
    println!(
        "measured CG speedup range: {:.1}x .. {:.1}x (median {:.1}x)",
        cg_speedups.first().unwrap(),
        cg_speedups.last().unwrap(),
        cg_speedups[cg_speedups.len() / 2]
    );
}
