//! Figure 3c: iterative solvers on the (simulated) A100 — pyGinkgo's
//! speedup in *time per iteration* relative to CuPy for CG, CGS, and
//! GMRES(30), double precision, no preconditioner, fixed iteration count,
//! over the 40-matrix solver suite.
//!
//! `cargo run -p pygko-bench --bin fig3c_solver_gpu --release`

use gko::linop::LinOp;
use gko::matrix::Csr;
use gko::solver::{Cg, Cgs, Gmres};
use gko::stop::Criteria;
use gko::{Dim2, Executor};
use pygko_baselines::cupy::{CupyGmres, CupyKrylov};
use pygko_baselines::gpu_executor;
use pygko_bench::{cast_triplets, fmt, maybe_shrink, time_per_iter, Report, SOLVER_ITERS};
use pygko_matgen::solver_suite;
use std::sync::Arc;

fn main() {
    println!("fixed iterations per solve: {SOLVER_ITERS} (paper: 1000; metric is time/iteration)");

    let mut report = Report::new(
        "Figure 3c: solver time-per-iteration speedup vs CuPy on A100, fp64",
        &["matrix", "nnz", "CG x", "CGS x", "GMRES x"],
    );
    let mut rows: Vec<(usize, Vec<String>)> = Vec::new();
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;

    for info in maybe_shrink(solver_suite()) {
        let gen = info.generate();
        let n = gen.rows;
        let nnz = gen.nnz();
        let t64 = cast_triplets::<f64>(&gen);
        let dim = Dim2::new(n, n);
        let criteria = Criteria::iterations(SOLVER_ITERS);
        let what = |library: &str, solver: &str| format!("{} {library} {solver}", gen.name);

        // pyGinkgo on its executor.
        let gk = Executor::cuda(0);
        let a_gk = Arc::new(Csr::<f64, i32>::from_triplets(&gk, dim, &t64).unwrap());

        // CuPy on its executor; the same algorithm skeletons run over the
        // warp-per-row SpMV, except GMRES which is CuPy's own variant.
        let cu = gpu_executor("CuPy");
        let a_cu = Arc::new(Csr::<f64, i32>::from_triplets(&cu, dim, &t64).unwrap());

        // CG.
        let s = Cg::new(a_gk.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_criteria(criteria);
        let gko_cg = time_per_iter(&gk, &s, s.logger(), &what("pyGinkgo", "CG"));
        let s = CupyKrylov::cg(a_cu.clone(), criteria).unwrap();
        let cupy_cg = time_per_iter(&cu, &s, s.logger(), &what("CuPy", "CG"));

        // CGS.
        let s = Cgs::new(a_gk.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_criteria(criteria);
        let gko_cgs = time_per_iter(&gk, &s, s.logger(), &what("pyGinkgo", "CGS"));
        let s = CupyKrylov::cgs(a_cu.clone(), criteria).unwrap();
        let cupy_cgs = time_per_iter(&cu, &s, s.logger(), &what("CuPy", "CGS"));

        // GMRES(30): Ginkgo's Givens/device variant vs CuPy's CPU variant.
        let s = Gmres::new(a_gk.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_krylov_dim(30)
            .with_criteria(criteria);
        let gko_gmres = time_per_iter(&gk, &s, s.logger(), &what("pyGinkgo", "GMRES"));
        let s = CupyGmres::new(a_cu.clone(), 30, criteria);
        let cupy_gmres = time_per_iter(&cu, &s, s.logger(), &what("CuPy", "GMRES"));

        let sp = [cupy_cg / gko_cg, cupy_cgs / gko_cgs, cupy_gmres / gko_gmres];
        for (acc, v) in sums.iter_mut().zip(sp) {
            *acc += v;
        }
        count += 1;

        rows.push((
            nnz,
            vec![
                gen.name.clone(),
                nnz.to_string(),
                fmt(sp[0]),
                fmt(sp[1]),
                fmt(sp[2]),
            ],
        ));
    }

    rows.sort_by_key(|(nnz, _)| *nnz);
    for (_, row) in rows {
        report.row(row);
    }
    report.print();
    report.write_csv("fig3c_solver_gpu").expect("csv");

    println!(
        "\npaper: CGS up to ~4x (best at low NNZ), CG ~2.5x, GMRES slightly below 1x; \
         speedups shrink as NNZ grows"
    );
    println!(
        "measured means: CG {:.2}x, CGS {:.2}x, GMRES {:.2}x over {count} matrices",
        sums[0] / count as f64,
        sums[1] / count as f64,
        sums[2] / count as f64
    );
}
