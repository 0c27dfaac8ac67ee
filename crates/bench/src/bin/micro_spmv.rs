//! Wall-clock microbenchmarks of the real SpMV kernels.
//!
//! These measure actual host execution time (unlike the figure harnesses,
//! which report deterministic virtual time) and exist for regression
//! tracking of the kernels themselves. Successor of the former criterion
//! bench of the same scope, as a plain binary so the workspace builds with
//! no external dev-dependencies.
//!
//! `cargo run --release -p pygko-bench --bin micro_spmv`

use gko::linop::LinOp;
use gko::matrix::{Coo, Csr, Dense, Ell, Sellp, SpmvStrategy};
use gko::{Dim2, Executor, Value};
use pygko_bench::{fmt, micro_iters, wall_secs, wall_secs_best, Report};
use pygko_matgen::generators::{circuit, poisson2d};

/// COO may cost at most this multiple of CSR on `formats_poisson2d_200`
/// (it moves 20 B/nnz against CSR's 16; the per-row allocation this guards
/// against read 4.9).
const COO_OVER_CSR_LIMIT: f64 = 2.5;

/// Times every format on one stencil and returns COO's best repetition over
/// CSR's.
fn bench_formats(report: &mut Report) -> f64 {
    let exec = Executor::reference();
    let gen = poisson2d("p", 200, 200);
    let t: Vec<(usize, usize, f64)> = gen.triplets.clone();
    let dim = Dim2::new(gen.rows, gen.cols);
    let csr = Csr::<f64, i32>::from_triplets(&exec, dim, &t).unwrap();
    let coo = Coo::from_csr(&csr);
    let ell = Ell::from_csr(&csr);
    let sellp = Sellp::from_csr(&csr);
    let b = Dense::<f64>::vector(&exec, gen.cols, 1.0);
    let mut x = Dense::zeros(&exec, Dim2::new(gen.rows, 1));

    let iters = micro_iters(50);
    let ops: [(&str, &dyn LinOp<f64>); 4] =
        [("csr", &csr), ("coo", &coo), ("ell", &ell), ("sellp", &sellp)];
    let mut best = std::collections::BTreeMap::new();
    for (name, op) in ops {
        let secs = wall_secs(iters, || op.apply(&b, &mut x).unwrap());
        best.insert(name, wall_secs_best(iters, || op.apply(&b, &mut x).unwrap()));
        report.row(vec![
            "formats_poisson2d_200".into(),
            name.into(),
            gen.nnz().to_string(),
            fmt(secs * 1e6),
            fmt(gen.nnz() as f64 / secs / 1e6),
        ]);
    }
    best["coo"] / best["csr"]
}

fn bench_strategies(report: &mut Report) {
    let exec = Executor::reference();
    let gen = circuit("c", 50_000, 4, 3, 9);
    let dim = Dim2::new(gen.rows, gen.cols);
    let b = Dense::<f64>::vector(&exec, gen.cols, 1.0);
    let mut x = Dense::zeros(&exec, Dim2::new(gen.rows, 1));

    let iters = micro_iters(30);
    for (name, strategy) in [
        ("classical", SpmvStrategy::Classical),
        ("load_balance", SpmvStrategy::LoadBalance),
    ] {
        let a = Csr::<f64, i32>::from_triplets(&exec, dim, &gen.triplets)
            .unwrap()
            .with_strategy(strategy);
        let secs = wall_secs(iters, || a.apply(&b, &mut x).unwrap());
        report.row(vec![
            "strategy_circuit_50k".into(),
            name.into(),
            gen.nnz().to_string(),
            fmt(secs * 1e6),
            fmt(gen.nnz() as f64 / secs / 1e6),
        ]);
    }
}

fn bench_value_types(report: &mut Report) {
    let exec = Executor::reference();
    let gen = poisson2d("p", 150, 150);
    let dim = Dim2::new(gen.rows, gen.cols);
    let iters = micro_iters(50);

    macro_rules! run {
        ($v:ty, $name:expr) => {{
            let t: Vec<(usize, usize, $v)> = gen
                .triplets
                .iter()
                .map(|&(r, c, v)| (r, c, <$v as Value>::from_f64(v)))
                .collect();
            let a = Csr::<$v, i32>::from_triplets(&exec, dim, &t).unwrap();
            let b = Dense::<$v>::filled(&exec, Dim2::new(gen.cols, 1), <$v as Value>::one());
            let mut x = Dense::<$v>::zeros(&exec, Dim2::new(gen.rows, 1));
            let secs = wall_secs(iters, || a.apply(&b, &mut x).unwrap());
            report.row(vec![
                "value_types_poisson2d_150".into(),
                $name.into(),
                gen.nnz().to_string(),
                fmt(secs * 1e6),
                fmt(gen.nnz() as f64 / secs / 1e6),
            ]);
        }};
    }
    run!(pygko_half::Half, "half");
    run!(f32, "float");
    run!(f64, "double");
}

fn main() {
    let mut report = Report::new(
        "SpMV wall-clock microbenchmarks",
        &["group", "case", "nnz", "us/op", "Mnnz/s"],
    );
    let coo_over_csr = bench_formats(&mut report);
    bench_strategies(&mut report);
    bench_value_types(&mut report);
    report.print();
    let path = report.write_csv("micro_spmv").expect("write csv");
    println!("\nwrote {}", path.display());
    println!("coo_over_csr = {coo_over_csr:.2} (formats_poisson2d_200, limit {COO_OVER_CSR_LIMIT})");
    if coo_over_csr > COO_OVER_CSR_LIMIT {
        eprintln!("micro_spmv: FAIL — COO SpMV costs {coo_over_csr:.2}x CSR, above {COO_OVER_CSR_LIMIT}");
        std::process::exit(1);
    }
}
