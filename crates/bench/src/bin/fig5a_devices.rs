//! Figure 5a: pyGinkgo's SpMV performance (GFLOP/s) against nonzero count
//! on the simulated NVIDIA A100 and AMD Instinct MI100, for both the CSR
//! and COO formats, fp32, over the 45-matrix overhead suite.
//!
//! `cargo run -p pygko-bench --bin fig5a_devices --release`

use pygko_bench::{
    facade_matrix, fmt, gflops, maybe_shrink, print_first_calls, time_facade_spmv, Report,
};
use pygko_matgen::overhead_suite;

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
    let mut firsts = Vec::new();

    for info in maybe_shrink(overhead_suite()) {
        let gen = info.generate();
        let nnz = gen.nnz();
        let mut cells = vec![gen.name.clone(), nnz.to_string()];
        let mut a100_csr = 0.0;
        let mut mi100_csr = 0.0;
        for device_name in ["cuda", "hip"] {
            for format in ["Csr", "Coo"] {
                let m = facade_matrix(device_name, &gen, format);
                let t = time_facade_spmv(&m);
                firsts.push(t);
                let gf = gflops(nnz, t.steady.seconds());
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
    print_first_calls("CSR and COO, A100 and MI100", &firsts);
}
