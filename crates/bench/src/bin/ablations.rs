//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. CSR SpMV strategy — nnz-balanced vs classical row-balanced chunks;
//! 2. GMRES variant — Ginkgo's Givens/per-iteration-check vs CuPy's
//!    projection/end-of-cycle-check (cost per iteration);
//! 3. Preconditioner choice — iterations to convergence for none / Jacobi /
//!    block-Jacobi / ILU / IC on an SPD system.
//!
//! Every figure is virtual time, so reruns write the same bytes. The facade's
//! host cost per call, measured on the wall clock, is `micro_facade`'s
//! `binding_overhead_*` group.
//!
//! `cargo run -p pygko-bench --bin ablations --release`

use gko::linop::LinOp;
use gko::matrix::{Csr, Dense, SpmvStrategy};
use gko::solver::{Cg, Gmres};
use gko::stop::Criteria;
use gko::{Dim2, Executor};
use pygko_baselines::cupy::CupyGmres;
use pygko_baselines::gpu_executor;
use pygko_bench::{
    cast_triplets, fmt, print_first_calls, time_per_iter, time_spmv, virtual_secs, Report,
    SOLVER_ITERS,
};
use pygko_matgen::generators::{poisson2d, rmat};
use std::sync::Arc;

fn main() {
    spmv_strategy();
    gmres_variant();
    preconditioner_effect();
}

/// Ablation 1: the load-balanced partition is what wins on skewed matrices
/// and is neutral on regular ones.
fn spmv_strategy() {
    let mut report = Report::new(
        "Ablation 1: CSR SpMV strategy (virtual time, A100)",
        &["matrix", "nnz", "classical s", "load-balanced s", "gain"],
    );
    let mut firsts = Vec::new();
    for gen in [
        poisson2d("regular (poisson2d 500)", 500, 500),
        // Power-law degrees: a handful of hub rows hold a large share of
        // the nonzeros — the classical equal-row partition's worst case.
        rmat("skewed (rmat-17 power law)", 17, 8, 7),
    ] {
        let t32 = cast_triplets::<f32>(&gen);
        let dim = Dim2::new(gen.rows, gen.cols);
        let exec = Executor::cuda(0);
        let [t_classical, t_balanced] =
            [SpmvStrategy::Classical, SpmvStrategy::LoadBalance].map(|strategy| {
                let a = Csr::<f32, i32>::from_triplets(&exec, dim, &t32).unwrap();
                let t = time_spmv(&exec, &a.with_strategy(strategy));
                firsts.push(t);
                t.steady.seconds()
            });
        report.row(vec![
            gen.name.clone(),
            gen.nnz().to_string(),
            fmt(t_classical),
            fmt(t_balanced),
            format!("{:.2}x", t_classical / t_balanced),
        ]);
    }
    report.print();
    report.write_csv("ablation_spmv_strategy").expect("csv");
    print_first_calls("classical and load-balanced", &firsts);
}

/// Ablation 2: the two GMRES formulations of §6.2.1, cost per iteration at
/// a fixed iteration budget.
fn gmres_variant() {
    let mut report = Report::new(
        "Ablation 2: GMRES variant cost (fixed iterations, A100)",
        &["n", "Ginkgo s/iter", "CuPy-style s/iter", "ratio"],
    );
    for n in [500usize, 5_000, 50_000] {
        let gen = poisson2d("g", (n as f64).sqrt() as usize, (n as f64).sqrt() as usize);
        let t64 = cast_triplets::<f64>(&gen);
        let dim = Dim2::new(gen.rows, gen.cols);
        let criteria = Criteria::iterations(SOLVER_ITERS);

        let gk = Executor::cuda(0);
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&gk, dim, &t64).unwrap());
        let solver = Gmres::new(a.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_krylov_dim(30)
            .with_criteria(criteria);
        let gko_tpi = time_per_iter(
            &gk,
            &solver,
            solver.logger(),
            &format!("poisson2d n={n} Ginkgo GMRES"),
        );

        let cu = gpu_executor("CuPy-style");
        let a_cu = Arc::new(Csr::<f64, i32>::from_triplets(&cu, dim, &t64).unwrap());
        let solver = CupyGmres::new(a_cu, 30, criteria);
        let cupy_tpi = time_per_iter(
            &cu,
            &solver,
            solver.logger(),
            &format!("poisson2d n={n} CuPy GMRES"),
        );

        report.row(vec![
            gen.rows.to_string(),
            fmt(gko_tpi),
            fmt(cupy_tpi),
            format!("{:.2}", gko_tpi / cupy_tpi),
        ]);
    }
    report.print();
    report.write_csv("ablation_gmres").expect("csv");
    println!(
        "(ratios slightly above 1 reproduce §6.2.1: CuPy's CPU Hessenberg wins at small sizes)"
    );
}

/// Ablation 3: preconditioners trade setup cost for iteration count.
fn preconditioner_effect() {
    let gen = poisson2d("poisson2d 120", 120, 120);
    let exec = Executor::cuda(0);
    let t64 = cast_triplets::<f64>(&gen);
    let a = Arc::new(
        Csr::<f64, i32>::from_triplets(&exec, Dim2::new(gen.rows, gen.cols), &t64).unwrap(),
    );
    let mut report = Report::new(
        "Ablation 3: preconditioner effect on CG (poisson2d 120x120, tol 1e-8)",
        &[
            "preconditioner",
            "iterations",
            "converged",
            "solve virtual s",
        ],
    );
    for name in ["none", "jacobi", "block-jacobi(4)", "ilu", "ic"] {
        let pre: Option<Arc<dyn LinOp<f64>>> = match name {
            "none" => None,
            "jacobi" => Some(Arc::new(gko::preconditioner::Jacobi::new(&*a).unwrap())),
            "block-jacobi(4)" => Some(Arc::new(
                gko::preconditioner::Jacobi::with_block_size(&*a, 4).unwrap(),
            )),
            "ilu" => Some(Arc::new(gko::preconditioner::Ilu::new(&*a).unwrap())),
            _ => Some(Arc::new(gko::preconditioner::Ic::new(&*a).unwrap())),
        };
        let mut solver = Cg::new(a.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(5000, 1e-8));
        if let Some(p) = pre {
            solver = solver.with_preconditioner(p).unwrap();
        }
        let b = Dense::<f64>::vector(&exec, gen.rows, 1.0);
        let mut x = Dense::<f64>::vector(&exec, gen.rows, 0.0);
        let secs = virtual_secs(&exec, || solver.apply(&b, &mut x).unwrap()).seconds();
        let rec = solver.logger().snapshot();
        report.row(vec![
            name.into(),
            rec.iterations.to_string(),
            rec.converged().to_string(),
            fmt(secs),
        ]);
    }
    report.print();
    report.write_csv("ablation_precond").expect("csv");
}
