//! Figure 5a: pyGinkgo's SpMV performance (GFLOP/s) against nonzero count
//! on the simulated NVIDIA A100 and AMD Instinct MI100, for both the CSR
//! and COO formats, fp32, over the 45-matrix overhead suite.
//!
//! `cargo run -p pygko-bench --bin fig5a_devices --release`

use pyginkgo as pg;
use pygko_bench::{fmt, gflops, maybe_shrink, Report};
use pygko_matgen::overhead_suite;

fn measure(dev: &pg::Device, m: &pg::SparseMatrix) -> f64 {
    let n = m.shape().1;
    let b = pg::as_tensor_fill(dev, (n, 1), "float", 1.0).unwrap();
    let t0 = dev.executor().timeline().snapshot();
    let _ = m.spmv(&b).unwrap();
    dev.executor().timeline().snapshot().since(&t0).seconds()
}

fn main() {
    let mut report = Report::new(
        "Figure 5a: pyGinkgo SpMV GFLOP/s by NNZ, device x format, fp32",
        &[
            "matrix",
            "nnz",
            "A100 CSR",
            "A100 COO",
            "MI100 CSR",
            "MI100 COO",
        ],
    );

    let mut rows: Vec<(usize, Vec<String>)> = Vec::new();
    let mut large_win = (0.0f64, 0.0f64); // (a100 csr, mi100 csr) at max nnz
    let mut max_nnz = 0usize;

    for info in maybe_shrink(overhead_suite()) {
        let gen = info.generate();
        let nnz = gen.nnz();
        let mut cells = vec![gen.name.clone(), nnz.to_string()];
        let mut a100_csr = 0.0;
        let mut mi100_csr = 0.0;
        for device_name in ["cuda", "hip"] {
            let dev = pg::device(device_name).unwrap();
            for format in ["Csr", "Coo"] {
                let m = pg::SparseMatrix::from_triplets(
                    &dev,
                    (gen.rows, gen.cols),
                    &gen.triplets,
                    "float",
                    "int32",
                    format,
                )
                .unwrap();
                let gf = gflops(nnz, measure(&dev, &m));
                if format == "Csr" {
                    if device_name == "cuda" {
                        a100_csr = gf;
                    } else {
                        mi100_csr = gf;
                    }
                }
                cells.push(fmt(gf));
            }
        }
        if nnz > max_nnz {
            max_nnz = nnz;
            large_win = (a100_csr, mi100_csr);
        }
        rows.push((nnz, cells));
    }

    rows.sort_by_key(|(nnz, _)| *nnz);
    for (_, row) in rows {
        report.row(row);
    }
    report.print();
    report.write_csv("fig5a_devices").expect("csv");

    println!(
        "\npaper: A100 slightly outperforms MI100, most visibly at large NNZ; \
         CSR is generally at or above COO"
    );
    println!(
        "measured at the largest matrix (nnz = {max_nnz}): A100 CSR {:.0} GF/s vs MI100 CSR {:.0} GF/s",
        large_win.0, large_win.1
    );
}
