//! Table 1: the supported value and index types, verified by actually
//! running an SpMV through every pre-instantiated combination.
//!
//! `cargo run -p pygko-bench --bin tab1_types --release`

use pyginkgo as pg;
use pygko_bench::Report;

fn main() {
    // Paper Table 1.
    let mut table = Report::new(
        "Table 1: available data and index types",
        &["Size (bytes)", "Value Type", "Index Type"],
    );
    table.row(vec!["2".into(), "half".into(), "".into()]);
    table.row(vec!["4".into(), "float".into(), "int32".into()]);
    table.row(vec!["8".into(), "double".into(), "int64".into()]);
    table.print();
    table.write_csv("tab1_types").expect("csv");

    // Exhaustive functional check of the cross product, through the facade.
    let dev = pg::device("cuda").expect("device");
    let mut checks = Report::new(
        "verification: every (format, value, index) instantiation runs SpMV",
        &["binding", "shape", "nnz", "result[0]", "status"],
    );
    let triplets = vec![(0usize, 0usize, 2.0f64), (1, 0, 1.0), (1, 1, 3.0)];
    for format in ["Csr", "Coo"] {
        for dtype in ["half", "float", "double"] {
            for itype in ["int32", "int64"] {
                let m =
                    pg::SparseMatrix::from_triplets(&dev, (2, 2), &triplets, dtype, itype, format)
                        .expect("construct");
                let b = pg::as_tensor_fill(&dev, (2, 1), dtype, 1.0).expect("tensor");
                let x = m.spmv(&b).expect("spmv");
                let ok = (x.get(0, 0).unwrap() - 2.0).abs() < 1e-2
                    && (x.get(1, 0).unwrap() - 4.0).abs() < 1e-2;
                checks.row(vec![
                    m.binding_name("spmv"),
                    format!("{:?}", m.shape()),
                    m.nnz().to_string(),
                    format!("{}", x.get(0, 0).unwrap()),
                    if ok { "ok".into() } else { "WRONG".into() },
                ]);
                assert!(ok, "{} produced a wrong result", m.binding_name("spmv"));
            }
        }
    }
    checks.print();
    checks.write_csv("tab1_verification").expect("csv");
    println!(
        "\nregistry: {} pre-instantiated bindings available",
        pg::dispatch::registry().len()
    );
}
