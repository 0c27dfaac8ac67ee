//! Builders, executor lists and comparisons shared by the engine's
//! integration tests, and the SpMV oracle ([`spmv`]).

#![allow(dead_code)]

pub mod spmv;

use gko::linop::LinOp;
use gko::matrix::{Csr, Dense};
use gko::solver::Cg;
use gko::stop::Criteria;
use gko::trace::{SpanKind, TraceReport, OWNER_LANE};
use gko::{DetectorConfig, Dim2, Executor, GkoError};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// omp thread counts of the agreement checks: serial-on-omp, an even split,
/// four lanes, a prime (chunk boundaries inside blocks of eight) and more
/// lanes than any test matrix has natural chunks.
pub const THREADS: [usize; 5] = [1, 2, 4, 7, 16];

/// omp thread counts also run pinned (`Executor::omp_pinned`): one OS
/// thread per worker, so the interleavings of 7 and 16 lanes stay checked
/// on a host with fewer cores, where `omp(t)` runs the host's count.
pub const PINNED: [usize; 2] = [7, 16];

/// The reference executor, then `omp(t)` for every `t` in [`THREADS`], then
/// the pinned shape for every count in [`PINNED`].
pub fn executors() -> Vec<Executor> {
    let mut all = vec![Executor::reference()];
    all.extend(THREADS.map(Executor::omp));
    all.extend(PINNED.map(Executor::omp_pinned));
    all
}

/// Short name of an executor: `reference`, `omp7`, `cuda0`, and
/// `omp7pinned` for a pinned pool with more threads than the host has
/// cores.
pub fn label(exec: &Executor) -> String {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    match exec.backend().name() {
        "reference" => "reference".to_string(),
        "omp" if exec.functional_threads() > host => format!("omp{}pinned", exec.spec().workers),
        "omp" => format!("omp{}", exec.spec().workers),
        backend => format!("{backend}{}", exec.device_id()),
    }
}

/// Distance between two floats in units in the last place: the bits mapped
/// to integers that order like the values, consecutive floats one apart.
pub fn ulps(a: f64, b: f64) -> u64 {
    let ordered = |x: f64| {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    };
    ordered(a).wrapping_sub(ordered(b)).unsigned_abs()
}

/// The 1-D Poisson matrix of `n` rows: 4 on the diagonal, -1 beside it.
pub fn poisson_csr(exec: &Executor, n: usize) -> Csr<f64, i32> {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 4.0));
        if i > 0 {
            t.push((i, i - 1, -1.0));
            t.push((i - 1, i, -1.0));
        }
    }
    Csr::from_triplets(exec, Dim2::square(n), &t).unwrap()
}

/// The 2-D Poisson 5-point stencil on a `g` x `g` grid.
pub fn poisson(exec: &Executor, g: usize) -> Arc<Csr<f64, i32>> {
    let n = g * g;
    let mut t = Vec::new();
    for i in 0..g {
        for j in 0..g {
            let r = i * g + j;
            t.push((r, r, 4.0));
            if i > 0 {
                t.push((r, r - g, -1.0));
            }
            if i + 1 < g {
                t.push((r, r + g, -1.0));
            }
            if j > 0 {
                t.push((r, r - 1, -1.0));
            }
            if j + 1 < g {
                t.push((r, r + 1, -1.0));
            }
        }
    }
    Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
}

/// Iterations the solver band covers, and the ulps one reduction
/// reassociated by another chunk partition may move by.
pub const BAND_ITERS: usize = 8;
pub const BAND_ULPS: u64 = 4;

/// The solver band: a run's residual history and solution against a live
/// reference run of [`BAND_ITERS`] iterations. A Krylov solve compounds the
/// few ulps of a reassociated reduction multiplicatively (each iteration's
/// dots scale the next one's coefficients), so the bound doubles per
/// iteration: residual `i` within `BAND_ULPS << (i + 1)` ulps, the solution
/// within `BAND_ULPS << BAND_ITERS` (about 2e-13 relative). A racing or
/// mispartitioned kernel produces wholesale different numbers, not a few
/// hundred ulps.
pub fn assert_in_band(case: &str, got: (&[f64], &[f64]), reference: (&[f64], &[f64])) {
    let ((history, x), (want_history, want_x)) = (got, reference);
    assert_eq!(
        want_history.len(),
        BAND_ITERS,
        "{case}: reference iterations"
    );
    assert_eq!(history.len(), BAND_ITERS, "{case}: iterations");
    for (i, (got, want)) in history.iter().zip(want_history).enumerate() {
        let (off, tol) = (ulps(*got, *want), BAND_ULPS << (i + 1));
        assert!(
            off <= tol,
            "{case} residual[{i}]: {got} vs {want}, {off} ulps, band {tol}"
        );
    }
    for (i, (got, want)) in x.iter().zip(want_x).enumerate() {
        let (off, tol) = (ulps(*got, *want), BAND_ULPS << BAND_ITERS);
        assert!(
            off <= tol,
            "{case} x[{i}]: {got} vs {want}, {off} ulps, band {tol}"
        );
    }
}

/// Checked cells per axis and value.
type Axes = BTreeMap<&'static str, BTreeMap<String, usize>>;

/// CG on `a` from a right-hand side of ones, to a `1e-10` reduction within
/// `2 n` iterations; asserts that it converged.
pub fn solve_cg(exec: &Executor, a: &Arc<Csr<f64, i32>>) {
    let n = a.size().rows;
    let solver = Cg::new(a.clone())
        .unwrap()
        .with_criteria(Criteria::iterations_and_reduction(2 * n, 1e-10));
    let b = Dense::<f64>::filled(exec, Dim2::new(n, 1), 1.0);
    let mut x = Dense::<f64>::zeros(exec, Dim2::new(n, 1));
    solver.apply(&b, &mut x).unwrap();
    let reason = solver.logger().snapshot().stop_reason.unwrap();
    assert!(
        reason.is_converged(),
        "reference solve converged: {reason:?}"
    );
}

/// Detector thresholds with the two timing-based detectors switched off:
/// wall-clock detectors fire spuriously on oversubscribed hosts.
pub fn quiet_detectors() -> DetectorConfig {
    DetectorConfig {
        drift_min_solves: u64::MAX,
        imbalance_ratio: f64::INFINITY,
    }
}

/// Structural validation of a span tree: unique ids, exactly one root (the
/// report's `root`), every parent resolvable, and for every dispatch span
/// the chunk spans parented under it exactly tile `0..chunk_count`.
pub fn assert_rooted_tree(report: &TraceReport, lanes: usize) {
    let mut ids = BTreeSet::new();
    for s in &report.spans {
        assert!(ids.insert(s.id), "duplicate span id {} in {report:?}", s.id);
    }
    let roots: Vec<_> = report.spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span: {report:?}");
    assert_eq!(roots[0].id, report.root);
    assert_eq!(roots[0].kind, SpanKind::Solve);
    for s in &report.spans {
        if s.parent != 0 {
            assert!(
                ids.contains(&s.parent),
                "span {} has dangling parent {}",
                s.id,
                s.parent
            );
        }
        match s.kind {
            SpanKind::Chunk => {
                assert!(
                    (s.lane as usize) < lanes,
                    "chunk lane {} out of range",
                    s.lane
                );
            }
            _ => assert_eq!(s.lane, OWNER_LANE, "owner-thread span has a lane"),
        }
    }
    // Per-dispatch tiling: a dispatch span's `index` is its chunk count, and
    // the chunk spans parented under it must carry exactly the indices
    // 0..count, each once.
    let dispatches: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Dispatch)
        .collect();
    assert!(
        !dispatches.is_empty(),
        "pooled solve produced no dispatch spans"
    );
    for d in &dispatches {
        let mut chunk_indices: Vec<u64> = report
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Chunk && s.parent == d.id)
            .map(|s| s.index)
            .collect();
        chunk_indices.sort_unstable();
        let expected: Vec<u64> = (0..d.index).collect();
        assert_eq!(
            chunk_indices, expected,
            "chunk spans must tile dispatch {} exactly",
            d.id
        );
    }
}

/// Minimal HTTP/1.1 GET over a raw `TcpStream`; returns (status line, body).
pub fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Wraps an operator and overwrites one output entry with NaN once the
/// operator has been applied `threshold` times — models a kernel that
/// starts producing garbage mid-solve.
pub struct PoisonAfter {
    inner: Arc<Csr<f64, i32>>,
    applies: AtomicUsize,
    threshold: usize,
}

impl PoisonAfter {
    pub fn new(inner: Arc<Csr<f64, i32>>, threshold: usize) -> Arc<Self> {
        Arc::new(PoisonAfter {
            inner,
            applies: AtomicUsize::new(0),
            threshold,
        })
    }

    fn poison(&self, x: &mut Dense<f64>) {
        if self.applies.fetch_add(1, Ordering::Relaxed) + 1 >= self.threshold {
            x.set(0, 0, f64::NAN);
        }
    }
}

impl LinOp<f64> for PoisonAfter {
    fn size(&self) -> Dim2 {
        self.inner.size()
    }

    fn executor(&self) -> &Executor {
        self.inner.executor()
    }

    fn apply(&self, b: &Dense<f64>, x: &mut Dense<f64>) -> Result<(), GkoError> {
        self.inner.apply(b, x)?;
        self.poison(x);
        Ok(())
    }

    fn apply_advanced(
        &self,
        alpha: f64,
        b: &Dense<f64>,
        beta: f64,
        x: &mut Dense<f64>,
    ) -> Result<(), GkoError> {
        self.inner.apply_advanced(alpha, b, beta, x)?;
        self.poison(x);
        Ok(())
    }
}

thread_local! {
    /// The running test's cell count and [`Axes`].
    static COVERAGE: RefCell<(usize, Axes)> = RefCell::default();
}

/// Counts one checked cell, given as its value on every axis.
pub fn cover(cell: &[(&'static str, &dyn std::fmt::Display)]) {
    COVERAGE.with_borrow_mut(|(cells, axes)| {
        *cells += 1;
        for (axis, value) in cell {
            *axes
                .entry(axis)
                .or_default()
                .entry(value.to_string())
                .or_default() += 1;
        }
    });
}

/// Prints the cells this test's thread counted, per axis (shown with
/// `--nocapture`), and starts the count again.
pub fn print_coverage(test: &str) {
    let (cells, axes) = COVERAGE.take();
    let mut out = format!("coverage of {test}: {cells} cells\n");
    for (axis, values) in axes {
        let values: Vec<String> = values.iter().map(|(v, n)| format!("{v}={n}")).collect();
        out += &format!("  {axis} ({}): {}\n", values.len(), values.join(" "));
    }
    print!("{out}");
}
