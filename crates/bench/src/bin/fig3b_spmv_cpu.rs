//! Figure 3b: SpMV on the (simulated) Xeon Platinum 8368 — pyGinkgo's
//! speedup relative to single-core SciPy as the thread count scales
//! (1..32), plus PyTorch and TensorFlow at 32 threads, fp32.
//!
//! `cargo run -p pygko-bench --bin fig3b_spmv_cpu --release`

use gko::matrix::{Coo, Csr};
use gko::Dim2;
use pygko_baselines::cpu_executor;
use pygko_baselines::scipy::ScipyCsr;
use pygko_baselines::scipy_executor;
use pygko_baselines::tf::TfCoo;
use pygko_baselines::torch::TorchCsr;
use pygko_bench::{cast_triplets, fmt, maybe_shrink, print_first_calls, time_spmv, Report};
use pygko_matgen::spmv_suite;
use std::sync::Arc;

const THREADS: [usize; 6] = [1, 2, 4, 8, 16, 32];

fn main() {
    let mut report = Report::new(
        "Figure 3b: CPU SpMV speedup vs SciPy (1 core), fp32, thread sweep",
        &[
            "matrix",
            "nnz",
            "x @1t",
            "x @2t",
            "x @4t",
            "x @8t",
            "x @16t",
            "x @32t",
            "PyTorch32 x",
            "TF32 x",
        ],
    );

    let mut rows: Vec<(usize, Vec<String>)> = Vec::new();
    let mut best_high_nnz: f64 = 0.0;
    let mut firsts = Vec::new();

    for info in maybe_shrink(spmv_suite()) {
        let gen = info.generate();
        let nnz = gen.nnz();
        let t32 = cast_triplets::<f32>(&gen);
        let dim = Dim2::new(gen.rows, gen.cols);

        let sp_exec = scipy_executor();
        let scipy = ScipyCsr::new(Arc::new(
            Csr::<f32, i32>::from_triplets(&sp_exec, dim, &t32).unwrap(),
        ));
        let t_scipy = time_spmv(&sp_exec, &scipy).steady.seconds();

        let mut cells = vec![gen.name.clone(), nnz.to_string()];
        for threads in THREADS {
            let exec = gko::Executor::omp(threads);
            let a = Csr::<f32, i32>::from_triplets(&exec, dim, &t32).unwrap();
            let t = time_spmv(&exec, &a);
            firsts.push(t);
            let speedup = t_scipy / t.steady.seconds();
            if threads == 32 && nnz > 1_000_000 {
                best_high_nnz = best_high_nnz.max(speedup);
            }
            cells.push(fmt(speedup));
        }

        // PyTorch and TensorFlow on 32 CPU threads.
        let to_exec = cpu_executor("PyTorch", 32);
        let torch = TorchCsr::new(Arc::new(
            Csr::<f32, i32>::from_triplets(&to_exec, dim, &t32).unwrap(),
        ));
        cells.push(fmt(t_scipy / time_spmv(&to_exec, &torch).steady.seconds()));

        let tf_exec = cpu_executor("TensorFlow", 32);
        let tf = TfCoo::new(Arc::new(
            Coo::<f32, i32>::from_triplets(&tf_exec, dim, &t32).unwrap(),
        ));
        cells.push(fmt(t_scipy / time_spmv(&tf_exec, &tf).steady.seconds()));

        rows.push((nnz, cells));
    }

    rows.sort_by_key(|(nnz, _)| *nnz);
    for (_, row) in rows {
        report.row(row);
    }
    report.print();
    report.write_csv("fig3b_spmv_cpu").expect("csv");

    println!(
        "\npaper: pyGinkgo 7-35x faster than SciPy at 32 threads for high-NNZ matrices; \
         10-60x vs PyTorch, 30-90x vs TensorFlow"
    );
    println!("measured best 32-thread speedup on matrices with NNZ > 1e6: {best_high_nnz:.1}x");
    print_first_calls("pyGinkgo", &firsts);
}
