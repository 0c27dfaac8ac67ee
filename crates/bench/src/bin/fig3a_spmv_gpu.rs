//! Figure 3a: SpMV on the (simulated) NVIDIA A100 — speedup of pyGinkgo,
//! PyTorch, TensorFlow, and CuPy relative to SciPy on one CPU core, over the
//! 30-matrix SpMV suite, single precision, ordered by nonzero count.
//!
//! `cargo run -p pygko-bench --bin fig3a_spmv_gpu --release`

use gko::matrix::{Coo, Csr};
use gko::Dim2;
use pygko_baselines::cupy::CupyCsr;
use pygko_baselines::scipy::ScipyCsr;
use pygko_baselines::tf::TfCoo;
use pygko_baselines::torch::TorchCsr;
use pygko_baselines::{gpu_executor, scipy_executor};
use pygko_bench::{
    cast_triplets, facade_matrix, fmt, gflops, maybe_shrink, print_first_calls, time_facade_spmv,
    time_spmv, Report,
};
use pygko_matgen::spmv_suite;
use std::sync::Arc;

fn main() {
    let mut report = Report::new(
        "Figure 3a: GPU SpMV speedup vs SciPy (1 core), fp32, by NNZ",
        &[
            "matrix",
            "nnz",
            "scipy GF/s",
            "pyGinkgo x",
            "PyTorch x",
            "TensorFlow x",
            "CuPy x",
            "pyGinkgo GF/s",
            "PyTorch GF/s",
            "TF GF/s",
            "CuPy GF/s",
        ],
    );

    let mut rows: Vec<(usize, Vec<String>)> = Vec::new();
    let mut peaks = [0.0f64; 4]; // pyginkgo, torch, tf, cupy
    let mut firsts = Vec::new();

    for info in maybe_shrink(spmv_suite()) {
        let gen = info.generate();
        let nnz = gen.nnz();
        let t32 = cast_triplets::<f32>(&gen);
        let dim = Dim2::new(gen.rows, gen.cols);

        // Baseline: SciPy on one core.
        let sp_exec = scipy_executor();
        let scipy = ScipyCsr::new(Arc::new(
            Csr::<f32, i32>::from_triplets(&sp_exec, dim, &t32).unwrap(),
        ));
        let t_scipy = time_spmv(&sp_exec, &scipy).steady.seconds();

        // pyGinkgo through the facade (includes binding overhead).
        let m = facade_matrix("cuda", &gen, "Csr");
        let pygko = time_facade_spmv(&m);
        firsts.push(pygko);
        let t_pygko = pygko.steady.seconds();

        // PyTorch (CSR is its best-performing format here).
        let to_exec = gpu_executor("PyTorch");
        let torch = TorchCsr::new(Arc::new(
            Csr::<f32, i32>::from_triplets(&to_exec, dim, &t32).unwrap(),
        ));
        let t_torch = time_spmv(&to_exec, &torch).steady.seconds();

        // TensorFlow (COO only).
        let tf_exec = gpu_executor("TensorFlow");
        let tf = TfCoo::new(Arc::new(
            Coo::<f32, i32>::from_triplets(&tf_exec, dim, &t32).unwrap(),
        ));
        let t_tf = time_spmv(&tf_exec, &tf).steady.seconds();

        // CuPy (cuSPARSE CSR).
        let cu_exec = gpu_executor("CuPy");
        let cupy = CupyCsr::new(Arc::new(
            Csr::<f32, i32>::from_triplets(&cu_exec, dim, &t32).unwrap(),
        ));
        let t_cupy = time_spmv(&cu_exec, &cupy).steady.seconds();

        let gf = [
            gflops(nnz, t_pygko),
            gflops(nnz, t_torch),
            gflops(nnz, t_tf),
            gflops(nnz, t_cupy),
        ];
        for (p, g) in peaks.iter_mut().zip(gf) {
            *p = p.max(g);
        }

        rows.push((
            nnz,
            vec![
                gen.name.clone(),
                nnz.to_string(),
                fmt(gflops(nnz, t_scipy)),
                fmt(t_scipy / t_pygko),
                fmt(t_scipy / t_torch),
                fmt(t_scipy / t_tf),
                fmt(t_scipy / t_cupy),
                fmt(gf[0]),
                fmt(gf[1]),
                fmt(gf[2]),
                fmt(gf[3]),
            ],
        ));
    }

    rows.sort_by_key(|(nnz, _)| *nnz);
    for (_, row) in rows {
        report.row(row);
    }
    report.print();
    report.write_csv("fig3a_spmv_gpu").expect("csv");

    println!("\npeak GFLOP/s   paper: pyGinkgo ~150, PyTorch ~110, CuPy ~85, TensorFlow ~50");
    println!(
        "           measured: pyGinkgo {:.0}, PyTorch {:.0}, CuPy {:.0}, TensorFlow {:.0}",
        peaks[0], peaks[1], peaks[3], peaks[2]
    );
    print_first_calls("pyGinkgo", &firsts);
}
