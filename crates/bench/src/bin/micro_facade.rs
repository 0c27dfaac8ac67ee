//! Wall-clock microbenchmarks of the facade's dynamic layer — the
//! real-host-time counterpart of the §6.3 virtual-time overhead study.
//! Plain-binary successor of the former criterion bench. Also times the
//! Matrix Market writer and reader that `pg::write` / `pg::read` sit on, and
//! is a wall-clock gate on the writer.
//!
//! `cargo run --release -p pygko-bench --bin micro_facade`

use gko::linop::LinOp;
use gko::matrix::{Csr, Dense};
use gko::{Dim2, Executor};
use pyginkgo as pg;
use pygko_bench::{best_in_turn, fmt, micro_iters, quick_mode, wall_secs, Report};
use pygko_matgen::generators::{circuit, poisson2d};
use pygko_matgen::GeneratedMatrix;
use std::hint::black_box;
use std::io::Write as _;

/// `write_mtx` may take at most this share of [`debug_loop`]'s time on
/// `circuit_25000`, whose values nearly all need 16-17 digits (0.39-0.40 with
/// the in-tree shortest-digits printer; 0.88-0.89 when each value went
/// through `{:?}`).
const WRITE_OVER_DEBUG_LOOP_LIMIT: f64 = 0.7;

/// One diagonal SpMV of order `n` through the engine, then through the facade
/// (dtype dispatch on three handles, GIL analog, validation, then the same
/// engine call): the difference is the facade's host cost per call.
fn bench_binding_overhead(report: &mut Report, n: usize, iters: usize) {
    let t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 2.0)).collect();

    // Engine direct.
    let exec = Executor::reference();
    let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
    let b = Dense::<f64>::vector(&exec, n, 1.0);
    let mut x = Dense::zeros(&exec, Dim2::new(n, 1));

    // Facade.
    let dev = pg::device("reference").unwrap();
    let m = pg::SparseMatrix::from_triplets(&dev, (n, n), &t, "double", "int32", "Csr").unwrap();
    let bt = pg::as_tensor_fill(&dev, (n, 1), "double", 1.0).unwrap();
    let mut xt = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0).unwrap();

    let group = format!("binding_overhead_diag{n}");
    let iters = micro_iters(iters);
    let secs = wall_secs(iters, || a.apply(&b, &mut x).unwrap());
    report.row(vec![
        group.clone(),
        "engine_spmv".into(),
        fmt(secs * 1e6),
        "-".into(),
    ]);
    let secs = wall_secs(iters, || m.spmv_into(&bt, &mut xt).unwrap());
    report.row(vec![
        group,
        "facade_spmv".into(),
        fmt(secs * 1e6),
        "-".into(),
    ]);
}

fn bench_dispatch_layers(report: &mut Report) {
    let dev = pg::device("reference").unwrap();
    let iters = micro_iters(5000);
    let secs = wall_secs(iters, || {
        "float64".parse::<pg::DType>().unwrap();
    });
    report.row(vec![
        "facade_calls".into(),
        "dtype_parse".into(),
        fmt(secs * 1e6),
        "-".into(),
    ]);
    let secs = wall_secs(iters, || {
        pg::as_tensor_fill(&dev, (16, 1), "double", 1.0).unwrap();
    });
    report.row(vec![
        "facade_calls".into(),
        "tensor_construct_16".into(),
        fmt(secs * 1e6),
        "-".into(),
    ]);
    let t16 = pg::as_tensor_fill(&dev, (16, 1), "double", 1.0).unwrap();
    let secs = wall_secs(iters, || {
        t16.dot(&t16).unwrap();
    });
    report.row(vec![
        "facade_calls".into(),
        "tensor_dot_16".into(),
        fmt(secs * 1e6),
        "-".into(),
    ]);
}

/// A document written one formatted line per entry, every value through
/// `{:?}`: what `write_mtx` replaced, kept as the ruler it is read against,
/// and byte for byte its output.
#[inline(never)]
fn debug_loop(out: &mut Vec<u8>, rows: usize, cols: usize, entries: &[(usize, usize, f64)]) {
    writeln!(out, "%%MatrixMarket matrix coordinate real general").unwrap();
    writeln!(out, "% written by pygko-mtx").unwrap();
    writeln!(out, "{rows} {cols} {}", entries.len()).unwrap();
    for &(r, c, v) in entries {
        writeln!(out, "{} {} {v:?}", r + 1, c + 1).unwrap();
    }
}

/// Times `write_mtx`, [`debug_loop`] and `read_mtx` in turn on one matrix
/// and returns `write_mtx` over `debug_loop`: the smallest of three blocks'
/// ratios of best calls, since a noisy spell on a shared host falls on some
/// blocks and a slow writer on all.
fn bench_mtx_io(report: &mut Report, gen: &GeneratedMatrix) -> f64 {
    let rounds = if quick_mode() { 3 } else { 10 };
    let (rows, cols, entries) = (gen.rows, gen.cols, &gen.triplets);
    let (mut written, mut reference) = (Vec::new(), Vec::new());
    pygko_mtx::write_mtx(&mut written, rows, cols, entries).unwrap();
    debug_loop(&mut reference, rows, cols, entries);
    assert!(
        written == reference,
        "{}: debug_loop is write_mtx's bytes",
        gen.name
    );
    let text = reference.clone();

    let mut best = [f64::INFINITY; 3];
    let mut ratio = f64::INFINITY;
    for _ in 0..3 {
        let block = best_in_turn(
            rounds,
            [
                &mut || {
                    written.clear();
                    pygko_mtx::write_mtx(&mut written, rows, cols, entries).unwrap();
                },
                &mut || {
                    reference.clear();
                    debug_loop(&mut reference, rows, cols, entries);
                },
                &mut || drop(black_box(pygko_mtx::read_mtx(text.as_slice()).unwrap())),
            ],
        );
        ratio = ratio.min(block[0] / block[1]);
        for (b, t) in best.iter_mut().zip(block) {
            *b = b.min(t);
        }
    }
    let group = format!("mtx_io_{}", gen.name);
    for (case, secs) in ["write_mtx", "debug_loop", "read_mtx"]
        .into_iter()
        .zip(best)
    {
        report.row(vec![
            group.clone(),
            case.into(),
            fmt(secs * 1e6),
            fmt(secs * 1e9 / entries.len() as f64),
        ]);
    }
    println!("{group}: write_over_debug_loop = {ratio:.2}");
    ratio
}

fn main() {
    let mut report = Report::new(
        "Facade wall-clock microbenchmarks",
        &["group", "case", "us/op", "best ns/entry"],
    );
    bench_binding_overhead(&mut report, 64, 20_000);
    bench_binding_overhead(&mut report, 1000, 2000);
    bench_dispatch_layers(&mut report);
    bench_mtx_io(&mut report, &poisson2d("poisson2d_120", 120, 120));
    let write_over_debug_loop =
        bench_mtx_io(&mut report, &circuit("circuit_25000", 25_000, 6, 4, 6));
    report.print();
    let path = report.write_csv("micro_facade").expect("write csv");
    println!("\nwrote {}", path.display());
    println!(
        "write_over_debug_loop = {write_over_debug_loop:.2} (write_mtx over one `{{:?}}` line per \
         entry on circuit_25000, limit {WRITE_OVER_DEBUG_LOOP_LIMIT})"
    );
    if write_over_debug_loop > WRITE_OVER_DEBUG_LOOP_LIMIT {
        eprintln!(
            "micro_facade: FAIL — write_mtx takes {write_over_debug_loop:.2}x the time of a \
             `{{:?}}` line per entry, above {WRITE_OVER_DEBUG_LOOP_LIMIT}"
        );
        std::process::exit(1);
    }
}
