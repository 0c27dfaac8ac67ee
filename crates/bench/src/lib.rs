//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md`'s per-experiment index): it materializes the relevant
//! matrix suite, runs the kernels, reads the deterministic virtual-time
//! clocks, prints an aligned text table, and writes a CSV to `results/`.
//!
//! Environment knobs:
//!
//! * `PYGKO_BENCH_QUICK=1` — shrink suites to their smaller members for a
//!   fast smoke run (used by CI-style validation).
//! * `PYGKO_RESULTS_DIR` — redirect all benchmark output files away from the
//!   committed `results/` directory (`scripts/verify.sh` points it at a
//!   scratch directory and compares what the bins write with `results/`).

#![warn(missing_docs)]

use gko::linop::LinOp;
use gko::log::ConvergenceLogger;
use gko::matrix::Dense;
use gko::{Dim2, Executor, Value};
use pygko_matgen::{GeneratedMatrix, MatrixInfo};
use pygko_sim::TimelineSnapshot;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

/// True when a quick (reduced-size) run was requested.
pub fn quick_mode() -> bool {
    std::env::var("PYGKO_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Iterations every fixed-iteration solver bench runs. The paper runs 1000;
/// the metric is time per iteration, over which one-time charges (the first
/// SpMV's plan, the initial residual) amortise, so a figure depends on the
/// count and is reproducible at this one.
pub const SOLVER_ITERS: usize = 100;

/// Filters a suite down for quick mode (keeps every third matrix).
pub fn maybe_shrink(suite: Vec<MatrixInfo>) -> Vec<MatrixInfo> {
    if quick_mode() {
        suite.into_iter().step_by(3).collect()
    } else {
        suite
    }
}

/// Converts a generated matrix's triplets to value type `V`.
pub fn cast_triplets<V: Value>(m: &GeneratedMatrix) -> Vec<(usize, usize, V)> {
    m.triplets
        .iter()
        .map(|&(r, c, v)| (r, c, V::from_f64(v)))
        .collect()
}

/// `gen` as an fp32 / int32 facade matrix in `format` on a new `device`.
pub fn facade_matrix(device: &str, gen: &GeneratedMatrix, format: &str) -> pyginkgo::SparseMatrix {
    let dev = pyginkgo::device(device).expect("device");
    let (shape, t) = ((gen.rows, gen.cols), &gen.triplets);
    pyginkgo::SparseMatrix::from_triplets(&dev, shape, t, "float", "int32", format).expect("matrix")
}

/// What `f` charges to `exec`'s virtual timeline: the difference of two
/// snapshots around it (time, kernels, flops, copies). Every figure's timed
/// window is one call of this.
pub fn virtual_secs(exec: &Executor, f: impl FnOnce()) -> TimelineSnapshot {
    let t0 = exec.timeline().snapshot();
    f();
    exec.synchronize();
    exec.timeline().snapshot().since(&t0)
}

/// One SpMV under the figures' timing protocol, the same call for every
/// library: a first call, which pays for what the operator builds on first
/// use (a CSR plan), then a steady call into the same preallocated output.
/// Figures plot `steady`; the bins print `first` beside them.
#[derive(Clone, Copy, Debug)]
pub struct SpmvTiming {
    /// The first call on a fresh operator.
    pub first: TimelineSnapshot,
    /// The next call, into the same preallocated output.
    pub steady: TimelineSnapshot,
}

fn spmv_protocol(exec: &Executor, mut call: impl FnMut()) -> SpmvTiming {
    let first = virtual_secs(exec, &mut call);
    SpmvTiming {
        first,
        steady: virtual_secs(exec, call),
    }
}

/// [`SpmvTiming`] of an engine-level operator applied into a preallocated
/// `x`, from a ones right-hand side.
pub fn time_spmv<V: Value>(exec: &Executor, op: &dyn LinOp<V>) -> SpmvTiming {
    let b = Dense::<V>::filled(exec, Dim2::new(op.size().cols, 1), V::one());
    let mut x = Dense::<V>::zeros(exec, Dim2::new(op.size().rows, 1));
    spmv_protocol(exec, || op.apply(&b, &mut x).expect("spmv"))
}

/// [`time_spmv`] through the facade: `spmv_into` a preallocated tensor, so
/// each call differs from the engine's by the binding crossing alone.
pub fn time_facade_spmv(m: &pyginkgo::SparseMatrix) -> SpmvTiming {
    let (dev, (rows, cols), dtype) = (m.device(), m.shape(), m.dtype().name());
    let b = pyginkgo::as_tensor_fill(dev, (cols, 1), dtype, 1.0).expect("b");
    let mut x = pyginkgo::as_tensor_fill(dev, (rows, 1), dtype, 0.0).expect("x");
    spmv_protocol(dev.executor(), || m.spmv_into(&b, &mut x).expect("spmv"))
}

/// Prints the dearest first call of `timings` against its steady call, which
/// is the one the figures plot.
pub fn print_first_calls(what: &str, timings: &[SpmvTiming]) {
    let ratio = |t: &SpmvTiming| t.first.seconds() / t.steady.seconds();
    let worst = timings.iter().map(ratio).fold(1.0, f64::max);
    println!("first calls, not plotted: {what} up to {worst:.2}x the steady call");
}

/// Virtual seconds per iteration of one solve with `solver`, stopped after
/// [`SOLVER_ITERS`] iterations, from a zero guess and the right-hand side
/// `b_i = sin(i)`. `logger` is the solver's: the solve must run every
/// iteration, or the division would charge a short solve's time to
/// iterations it never ran, so a solve that stops early fails, naming the
/// matrix and the solver (`what`).
///
/// Ones would not do: on a shifted Laplacian with a constant row sum,
/// `A 1 = c 1` makes ones an eigenvector, and CG or CGS finishes (and
/// breaks down) after one iteration. Nor would the ramp `b_i = 1 + i / n`:
/// CGS on `omp(32)` meets `r~ . v = 0` in working precision at iteration 95
/// on `poisson3d_18`.
pub fn time_per_iter<V: Value>(
    exec: &Executor,
    solver: &dyn LinOp<V>,
    logger: &ConvergenceLogger,
    what: &str,
) -> f64 {
    let n = solver.size().cols;
    let rhs = (0..n).map(|i| V::from_f64((i as f64).sin())).collect();
    let b = Dense::<V>::column(exec, rhs);
    let mut x = Dense::<V>::zeros(exec, Dim2::new(solver.size().rows, 1));
    let t = virtual_secs(exec, || solver.apply(&b, &mut x).expect("solve"));
    let iterations = logger.snapshot().iterations;
    assert_eq!(iterations, SOLVER_ITERS, "{what}: the solve stopped early");
    t.seconds() / SOLVER_ITERS as f64
}

/// GFLOP/s of an SpMV given its nonzero count and virtual seconds.
pub fn gflops(nnz: usize, seconds: f64) -> f64 {
    2.0 * nnz as f64 / seconds / 1e9
}

/// Mean wall-clock seconds per call of `f` over `iters` calls, after one
/// warm-up call. Used by the `micro_*` binaries, which measure real host
/// time of the real kernels (unlike the figure harnesses, which report
/// deterministic virtual time).
pub fn wall_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    assert!(iters > 0, "need at least one timed iteration");
    f();
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Fastest single call of `f` over `iters` calls, in wall-clock seconds,
/// after one warm-up call. A gate on a ratio of two kernels compares these:
/// a preempted repetition inflates a mean but never a minimum. Each call is
/// timed on its own, so use it for calls far longer than a clock read.
pub fn wall_secs_best(iters: usize, mut f: impl FnMut()) -> f64 {
    assert!(iters > 0, "need at least one timed iteration");
    f();
    (0..iters)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Fastest call of each of `fs` over `rounds` rounds that run them in turn, so
/// a noisy spell falls on all of them and not on one side of a ratio a gate
/// reads.
pub fn best_in_turn<const N: usize>(rounds: usize, mut fs: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..rounds {
        for (f, b) in fs.iter_mut().zip(&mut best) {
            let t0 = std::time::Instant::now();
            f();
            *b = b.min(t0.elapsed().as_secs_f64());
        }
    }
    best
}

/// Iteration count for the wall-clock micro benches (reduced in quick mode).
pub fn micro_iters(full: usize) -> usize {
    if quick_mode() {
        (full / 10).max(1)
    } else {
        full
    }
}

/// An output table streamed to stdout and a CSV file.
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Report {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Prints the aligned table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n=== {} ===", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        println!("{line}");
        println!("{}", "-".repeat(line.len().min(160)));
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ");
            }
            println!("{line}");
        }
    }

    /// Writes the table as CSV under `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// The directory benchmark outputs are written to: `PYGKO_RESULTS_DIR` when
/// set (smoke runs point it at a scratch directory so they never clobber the
/// committed `results/`), otherwise the workspace `results/` directory.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("PYGKO_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Formats a float with engineering-friendly precision.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrip() {
        let mut r = Report::new("t", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        r.print();
        let path = r.write_csv("unit_test_report").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn results_dir_honors_env_override() {
        // Env vars are process-global: take care to restore.
        let prev = std::env::var_os("PYGKO_RESULTS_DIR");
        std::env::set_var("PYGKO_RESULTS_DIR", "/tmp/pygko-results-test");
        let dir = results_dir();
        match prev {
            Some(v) => std::env::set_var("PYGKO_RESULTS_DIR", v),
            None => std::env::remove_var("PYGKO_RESULTS_DIR"),
        }
        assert_eq!(dir, PathBuf::from("/tmp/pygko-results-test"));
    }

    #[test]
    fn gflops_math() {
        assert_eq!(gflops(1_000_000, 2e-3), 1.0);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1.5), "1.500");
        assert!(fmt(1e-5).contains('e'));
        assert!(fmt(123456.0).contains('e'));
    }

    #[test]
    fn time_spmv_returns_positive_virtual_time() {
        let exec = Executor::cuda(0);
        let a = gko::matrix::Csr::<f32, i32>::from_triplets(
            &exec,
            Dim2::square(100),
            &(0..100).map(|i| (i, i, 1.0f32)).collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(time_spmv(&exec, &a).steady.seconds() > 0.0);

        // Every library is timed on the same call: the engine's steady
        // window and the facade's charge one kernel and 2 nnz flops, and
        // differ by the binding crossing alone; the first call holds the
        // plan inspection as a second kernel.
        let gen = pygko_matgen::generators::poisson2d("p", 60, 60);
        let dim = Dim2::new(gen.rows, gen.cols);
        let flops = 2 * gen.nnz() as u64;
        for device in ["cuda", "hip"] {
            let m = facade_matrix(device, &gen, "Csr");
            let exec = m.device().executor().clone();
            let a = gko::matrix::Csr::<f32, i32>::from_triplets(&exec, dim, &gen.triplets);
            let engine = time_spmv(&exec, &a.unwrap());
            let facade = time_facade_spmv(&m);
            for t in [engine, facade] {
                assert_eq!((t.steady.kernels, t.steady.flops), (1, flops), "{device}");
                assert_eq!(t.first.kernels, 2, "{device}");
            }
            let crossing = pygko_sim::BINDING_CALL_NS as u64;
            assert_eq!(facade.steady.ns - engine.steady.ns, crossing, "{device}");
            if device == "cuda" {
                assert_eq!((engine.steady.ns, engine.first.ns), (8_181, 18_110));
                assert_eq!(facade.steady.ns, 11_181);
                // The allocating `spmv`, which no figure times, pays a fill
                // kernel beside the product.
                let b = pyginkgo::as_tensor_fill(m.device(), (gen.cols, 1), "float", 1.0).unwrap();
                let alloc = virtual_secs(&exec, || drop(m.spmv(&b).unwrap()));
                assert_eq!((alloc.ns, alloc.kernels), (22_202, 2));
            }
        }
    }
}
