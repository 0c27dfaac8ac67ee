//! Acceptance tests for the metrics plane: inert fast path, histogram
//! bucketing, end-to-end aggregation over real kernels, and exporter
//! correctness (Prometheus text; the Chrome-trace JSON of a traced solve).

use gko::config::Config;
use gko::linop::LinOp;
use gko::matrix::{Csr, Dense};
use gko::metrics::{bucket_index, bucket_upper_bound, Log2Histogram, HISTOGRAM_BUCKETS};
use gko::solver::Cg;
use gko::stop::Criteria;
use gko::{Dim2, Executor, ObserveConfig, TraceConfig};
use std::sync::Arc;

mod common;
use common::poisson_csr;

/// Only the metrics plane on.
fn metrics_only() -> ObserveConfig {
    ObserveConfig {
        metrics: true,
        ..ObserveConfig::default()
    }
}

fn run_spmv(exec: &Executor, a: &Csr<f64, i32>) {
    let n = a.size().cols;
    let b = Dense::<f64>::filled(exec, Dim2::new(n, 1), 1.0);
    let mut x = Dense::<f64>::zeros(exec, Dim2::new(a.size().rows, 1));
    a.apply(&b, &mut x).unwrap();
}

/// The acceptance criterion for the inert path: an executor observing
/// nothing (and with no other logger) must not record anything anywhere —
/// the instrumented sites branch away after one relaxed load, so a metrics
/// plane enabled *afterwards* starts from zero observed events. And
/// `observe(ObserveConfig::default())` must lead back to that path from a
/// fully armed executor, with what was retained still readable.
#[test]
fn unlogged_spmv_performs_no_histogram_writes() {
    let exec = Executor::omp(2);
    let a = poisson_csr(&exec, 512);
    assert!(
        !exec.loggers().is_active(),
        "precondition: nothing attached, the OpTimer fast path is one relaxed load"
    );
    assert!(exec.observer().metrics().is_none(), "metrics plane off");
    for _ in 0..4 {
        run_spmv(&exec, &a);
    }
    // Enable metrics only now: everything that ran before must be invisible.
    exec.observe(metrics_only());
    let observer = exec.observer();
    assert_eq!(
        observer.events_observed(),
        0,
        "pre-attachment kernels must not have recorded any event"
    );
    let snap = observer.metrics().unwrap();
    assert_eq!(snap.events, 0);
    assert!(snap.kernels.is_empty());
    assert_eq!(snap.pool_dispatch_ns.count, 0);
    assert_eq!(snap.alloc_bytes.count, 0);

    // Arm every plane, run one solve through them, then switch all off.
    exec.observe(ObserveConfig {
        metrics: true,
        trace: Some(TraceConfig {
            sample_n: 1,
            ..TraceConfig::default()
        }),
        profile: true,
        ..ObserveConfig::default()
    });
    assert_eq!(
        exec.loggers().len(),
        1,
        "one observer behind all four planes"
    );
    let solver = Cg::new(Arc::new(poisson_csr(&exec, 256)))
        .unwrap()
        .with_criteria(Criteria::iterations(5));
    let b = Dense::<f64>::filled(&exec, Dim2::new(256, 1), 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(256, 1));
    solver.apply(&b, &mut x).unwrap();
    let observed = observer.events_observed();
    assert!(observed > 0);

    exec.observe(ObserveConfig::default());
    assert!(
        !exec.loggers().is_active(),
        "back on the one-relaxed-load path"
    );
    let off = exec.observing();
    assert!(!off.metrics && off.flight.is_none() && off.trace.is_none() && !off.profile);
    assert!(observer.metrics().is_none() && observer.runs().is_empty());
    solver.apply(&b, &mut x).unwrap();
    assert_eq!(
        observer.events_observed(),
        observed,
        "detached observer sees nothing"
    );
    assert_eq!(observer.traces().len(), 1, "retained trace stays readable");
    assert_eq!(observer.profile().solves, 1, "flame tree stays readable");
}

#[test]
fn executor_metrics_aggregate_spmv_and_pool_dispatches() {
    let exec = Executor::omp(2);
    let a = poisson_csr(&exec, 4096);
    exec.observe(metrics_only());
    for _ in 0..5 {
        run_spmv(&exec, &a);
    }
    let snap = exec.observer().metrics().unwrap();
    let csr = snap.kernel("csr").expect("csr kernel aggregated");
    assert_eq!(csr.calls, 5);
    assert!(csr.virtual_ns.max > 0, "virtual time recorded");
    assert!(csr.wall_ns.p50() <= csr.wall_ns.p99());
    assert!(csr.wall_ns.p99() <= csr.wall_ns.max);
    assert!(
        snap.pool_dispatch_ns.count >= 5,
        "each parallel apply dispatches through the pool: {}",
        snap.pool_dispatch_ns.count
    );
    assert!(snap.alloc_bytes.count > 0, "vector allocations observed");
    assert!(snap.events > 0);

    // Observing the same config again keeps the counters (idempotent).
    exec.observe(metrics_only());
    assert_eq!(exec.observer().metrics().unwrap(), snap);
}

#[test]
fn cg_solve_reports_per_kernel_quantiles_and_iterations() {
    let exec = Executor::reference();
    let a = Arc::new(poisson_csr(&exec, 256));
    exec.observe(metrics_only());
    let solver = Cg::new(a.clone())
        .unwrap()
        .with_criteria(Criteria::iterations_and_reduction(400, 1e-10));
    let b = Dense::<f64>::filled(&exec, Dim2::new(256, 1), 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(256, 1));
    solver.apply(&b, &mut x).unwrap();
    let snap = exec.observer().metrics().unwrap();

    let iters = solver.logger().snapshot().iterations as u64;
    assert!(iters > 0);
    assert_eq!(
        snap.solver_iterations,
        vec![("solver::Cg".to_string(), iters)],
        "iteration events are counted per solver"
    );
    assert_eq!(snap.solves, 1);
    assert!(snap.criterion_checks >= iters);

    // Per-kernel latency quantiles for the kernels a CG solve exercises.
    for op in ["csr", "dense::dot", "solver::Cg"] {
        let k = snap.kernel(op).unwrap_or_else(|| panic!("missing {op}"));
        assert!(k.calls > 0, "{op}");
        let (p50, p95, p99) = (k.wall_ns.p50(), k.wall_ns.p95(), k.wall_ns.p99());
        assert!(p50 <= p95 && p95 <= p99 && p99 <= k.wall_ns.max, "{op}");
    }
    // The solve's inclusive virtual time dominates each inner kernel's.
    let solve = snap.kernel("solver::Cg").unwrap();
    let spmv = snap.kernel("csr").unwrap();
    assert!(solve.virtual_ns.max >= spmv.virtual_ns.max);
}

#[test]
fn chrome_trace_is_valid_json_with_balanced_spans() {
    let exec = Executor::reference();
    let a = Arc::new(poisson_csr(&exec, 128));
    exec.observe(ObserveConfig {
        trace: Some(TraceConfig {
            sample_n: 1,
            ..TraceConfig::default()
        }),
        ..ObserveConfig::default()
    });
    let solver = Cg::new(a.clone())
        .unwrap()
        .with_criteria(Criteria::iterations(10));
    let b = Dense::<f64>::filled(&exec, Dim2::new(128, 1), 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(128, 1));
    solver.apply(&b, &mut x).unwrap();

    let report = exec
        .observer()
        .latest_trace()
        .expect("sample_n=1 retains the solve");
    assert!(!report.spans.is_empty());
    let trace = report.to_chrome_trace();

    // Must parse with the engine's own (strict, RFC 8259) JSON parser.
    let doc = Config::from_json(&trace).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let mut depth_by_lane: std::collections::BTreeMap<i64, i64> = Default::default();
    let (mut begins, mut ends, mut metas) = (0u64, 0u64, 0u64);
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph field");
        let tid = ev.get("tid").and_then(|t| t.as_int()).expect("tid field");
        match ph {
            "B" => {
                begins += 1;
                *depth_by_lane.entry(tid).or_default() += 1;
            }
            "E" => {
                ends += 1;
                let d = depth_by_lane.entry(tid).or_default();
                *d -= 1;
                assert!(*d >= 0, "E without matching B on lane {tid}");
            }
            "M" => metas += 1,
            other => panic!("unexpected phase {other}"),
        }
        assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
    }
    assert_eq!(begins, ends, "balanced begin/end pairs");
    assert_eq!(begins, report.spans.len() as u64);
    assert!(metas >= 2, "process_name + at least one thread_name");
    assert!(depth_by_lane.values().all(|&d| d == 0));
}

#[test]
fn prometheus_export_covers_kernels_and_pool() {
    let exec = Executor::omp(2);
    let a = poisson_csr(&exec, 4096);
    exec.observe(metrics_only());
    run_spmv(&exec, &a);
    let text = exec.observer().metrics().unwrap().to_prometheus();
    for needle in [
        "# TYPE gko_kernel_wall_ns histogram",
        "gko_kernel_calls_total{op=\"csr\"} 1",
        "gko_kernel_virtual_ns_count{op=\"csr\"} 1",
        "gko_pool_dispatch_ns_bucket{le=\"+Inf\"}",
        "gko_alloc_bytes_count",
        "gko_events_total",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Cumulative le-buckets: the +Inf bucket equals the count.
    let count_line = text
        .lines()
        .find(|l| l.starts_with("gko_kernel_wall_ns_count{op=\"csr\"}"))
        .unwrap();
    let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(count, 1);
}

#[test]
fn histogram_bucket_boundaries_partition_the_range() {
    // Exhaustive boundary check around every power of two.
    for bit in 1..63u32 {
        let lo = 1u64 << (bit - 1);
        let hi = 1u64 << bit;
        assert_eq!(bucket_index(lo), bit as usize, "lower edge of bucket {bit}");
        assert_eq!(
            bucket_index(hi - 1),
            bit as usize,
            "upper edge of bucket {bit}"
        );
        assert_eq!(
            bucket_index(hi),
            (bit as usize + 1).min(HISTOGRAM_BUCKETS - 1),
            "next bucket at 2^{bit}"
        );
    }
    assert_eq!(bucket_upper_bound(0), 0);
    assert_eq!(bucket_upper_bound(1), 1);
    assert_eq!(bucket_upper_bound(10), 1023);
    assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);

    // Recording exactly the boundary values lands them in distinct buckets.
    let mut h = Log2Histogram::new();
    for v in [1u64, 2, 4, 8, 16] {
        h.record(v);
    }
    for i in 1..=5usize {
        assert_eq!(h.buckets[i], 1, "bucket {i}");
    }
}
