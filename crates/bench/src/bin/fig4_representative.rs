//! Figure 4: SpMV speedup relative to SciPy for the six representative
//! matrices of Table 2 — (a) on the simulated A100, (b) on the simulated
//! Xeon at 32 threads — fp32, per library.
//!
//! `cargo run -p pygko-bench --bin fig4_representative --release`

use gko::matrix::{Coo, Csr};
use gko::{Dim2, Executor};
use pygko_baselines::cupy::CupyCsr;
use pygko_baselines::scipy::ScipyCsr;
use pygko_baselines::tf::TfCoo;
use pygko_baselines::torch::TorchCsr;
use pygko_baselines::{cpu_executor, gpu_executor, scipy_executor};
use pygko_bench::{cast_triplets, fmt, print_first_calls, time_spmv, Report};
use pygko_matgen::representative;
use std::sync::Arc;

fn main() {
    let mut gpu_report = Report::new(
        "Figure 4a: speedup vs SciPy on A100 (representative matrices, fp32)",
        &[
            "matrix",
            "nnz",
            "pyGinkgo x",
            "PyTorch x",
            "TensorFlow x",
            "CuPy x",
        ],
    );
    let mut cpu_report = Report::new(
        "Figure 4b: speedup vs SciPy on Xeon 8368, 32 threads (fp32)",
        &["matrix", "nnz", "pyGinkgo x", "PyTorch x", "TensorFlow x"],
    );

    let mut gpu_small = Vec::new();
    let mut cpu_small = Vec::new();
    let mut firsts = Vec::new();

    for info in representative() {
        let gen = info.generate();
        let nnz = gen.nnz();
        let t32 = cast_triplets::<f32>(&gen);
        let dim = Dim2::new(gen.rows, gen.cols);
        let letter = gen.name.chars().next().unwrap();

        let sp_exec = scipy_executor();
        let scipy = ScipyCsr::new(Arc::new(
            Csr::<f32, i32>::from_triplets(&sp_exec, dim, &t32).unwrap(),
        ));
        let t_scipy = time_spmv(&sp_exec, &scipy).steady.seconds();

        // --- GPU ---
        let gk = Executor::cuda(0);
        let a = Csr::<f32, i32>::from_triplets(&gk, dim, &t32).unwrap();
        let gko_gpu = time_spmv(&gk, &a);
        firsts.push(gko_gpu);
        let t_gko_gpu = gko_gpu.steady.seconds();

        let to_exec = gpu_executor("PyTorch");
        let torch = TorchCsr::new(Arc::new(
            Csr::<f32, i32>::from_triplets(&to_exec, dim, &t32).unwrap(),
        ));
        let t_torch = time_spmv(&to_exec, &torch).steady.seconds();

        let tf_exec = gpu_executor("TensorFlow");
        let tf = TfCoo::new(Arc::new(
            Coo::<f32, i32>::from_triplets(&tf_exec, dim, &t32).unwrap(),
        ));
        let t_tf = time_spmv(&tf_exec, &tf).steady.seconds();

        let cu_exec = gpu_executor("CuPy");
        let cupy = CupyCsr::new(Arc::new(
            Csr::<f32, i32>::from_triplets(&cu_exec, dim, &t32).unwrap(),
        ));
        let t_cupy = time_spmv(&cu_exec, &cupy).steady.seconds();

        gpu_report.row(vec![
            gen.name.clone(),
            nnz.to_string(),
            fmt(t_scipy / t_gko_gpu),
            fmt(t_scipy / t_torch),
            fmt(t_scipy / t_tf),
            fmt(t_scipy / t_cupy),
        ]);
        if letter == 'A' || letter == 'B' {
            gpu_small.push(t_scipy / t_gko_gpu);
        }

        // --- CPU (32 threads) ---
        let omp = Executor::omp(32);
        let a = Csr::<f32, i32>::from_triplets(&omp, dim, &t32).unwrap();
        let gko_cpu = time_spmv(&omp, &a);
        firsts.push(gko_cpu);
        let t_gko_cpu = gko_cpu.steady.seconds();

        let to_exec = cpu_executor("PyTorch", 32);
        let torch = TorchCsr::new(Arc::new(
            Csr::<f32, i32>::from_triplets(&to_exec, dim, &t32).unwrap(),
        ));
        let t_torch_cpu = time_spmv(&to_exec, &torch).steady.seconds();

        let tf_exec = cpu_executor("TensorFlow", 32);
        let tf = TfCoo::new(Arc::new(
            Coo::<f32, i32>::from_triplets(&tf_exec, dim, &t32).unwrap(),
        ));
        let t_tf_cpu = time_spmv(&tf_exec, &tf).steady.seconds();

        cpu_report.row(vec![
            gen.name.clone(),
            nnz.to_string(),
            fmt(t_scipy / t_gko_cpu),
            fmt(t_scipy / t_torch_cpu),
            fmt(t_scipy / t_tf_cpu),
        ]);
        if letter == 'A' || letter == 'B' {
            cpu_small.push(t_scipy / t_gko_cpu);
        }
    }

    gpu_report.print();
    gpu_report
        .write_csv("fig4a_representative_gpu")
        .expect("csv");
    cpu_report.print();
    cpu_report
        .write_csv("fig4b_representative_cpu")
        .expect("csv");

    let gpu_avg: f64 = gpu_small.iter().sum::<f64>() / gpu_small.len() as f64;
    let cpu_avg: f64 = cpu_small.iter().sum::<f64>() / cpu_small.len() as f64;
    println!(
        "\npaper: low-NNZ matrices (A, B) are more efficient on CPU than GPU; \
         speedup grows with NNZ; matrix E drops (density)"
    );
    println!(
        "measured on A and B: CPU speedup {cpu_avg:.2}x vs GPU speedup {gpu_avg:.2}x \
         (CPU should win)"
    );
    print_first_calls("pyGinkgo, GPU and CPU", &firsts);
}
