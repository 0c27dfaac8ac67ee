//! What one pool dispatch records, read from every side: a traced solve's
//! chunk spans agree with the pool's own counters dispatch by dispatch and
//! lane by lane, the pool-wide totals are the sums over the lanes, the
//! sanitizer checks exactly the dispatches the loggers see, and a chunk
//! that panics inside a traced, sanitized solve leaves the executor, the
//! sanitizer and the tracer working.

use gko::executor::pool::{lane_stats_since, parallel_chunks, uniform_bounds};
use gko::linop::LinOp;
use gko::log::{Event, Record};
use gko::matrix::{Csr, Dense};
use gko::solver::Cg;
use gko::stop::Criteria;
use gko::trace::{SpanKind, TraceConfig};
use gko::{Dim2, Executor, GkoError, ObserveConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

mod common;
use common::{assert_rooted_tree, poisson_csr, quiet_detectors, solve_cg};

/// Every solve traced and kept, screened by the quiet detectors.
fn traced() -> ObserveConfig {
    ObserveConfig {
        flight: Some(quiet_detectors()),
        trace: Some(TraceConfig {
            sample_n: 1,
            ..TraceConfig::default()
        }),
        ..ObserveConfig::default()
    }
}

/// `(chunks, steals)` of every `PoolDispatch` event, in emission order.
fn dispatches(events: &[Event]) -> Vec<(u64, u64)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::PoolDispatch { chunks, steals, .. } => Some((*chunks, *steals)),
            _ => None,
        })
        .collect()
}

/// A traced CG solve: per dispatch, the chunk spans flagged `steal` number
/// the dispatch's `PoolDispatch.steals`, and per lane, the solve's chunk
/// spans are what the pool's lane counters moved by across it.
#[test]
fn chunk_spans_agree_with_the_pool_counters() {
    for threads in [4, 16] {
        let exec = Executor::omp(threads);
        exec.observe(traced());
        let record = Arc::new(Record::with_capacity(1 << 20));
        let n = 1024;
        let a = Arc::new(poisson_csr(&exec, n));
        let solver = Cg::new(a)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(2 * n, 1e-10));
        let b = Dense::<f64>::filled(&exec, Dim2::new(n, 1), 1.0);
        let mut x = Dense::<f64>::zeros(&exec, Dim2::new(n, 1));
        exec.add_logger(record.clone());
        let lanes_before = exec.pool_lane_stats();
        solver.apply(&b, &mut x).unwrap();
        let lanes = lane_stats_since(&exec.pool_lane_stats(), &lanes_before);
        assert_eq!(record.dropped(), 0);

        let report = exec.observer().latest_trace().expect("every solve kept");
        assert_eq!(report.truncated_spans, 0, "omp({threads})");
        assert_rooted_tree(&report, threads);
        let chunks = |parent: Option<u64>| {
            report
                .spans
                .iter()
                .filter(move |s| s.kind == SpanKind::Chunk && parent.is_none_or(|p| s.parent == p))
        };
        // Dispatch span ids are taken in opening order, which is the order
        // the solving thread dispatched and emitted `PoolDispatch` in.
        let mut spans: Vec<_> = report
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Dispatch)
            .collect();
        spans.sort_by_key(|s| s.id);
        let events = dispatches(&record.events());
        assert!(!events.is_empty(), "omp({threads}): the solve dispatched");
        assert_eq!(spans.len(), events.len(), "omp({threads}): one span each");
        for (span, &(count, steals)) in spans.iter().zip(&events) {
            assert_eq!(span.index, count, "omp({threads}): dispatch {}", span.id);
            let stolen = chunks(Some(span.id)).filter(|s| s.steal).count() as u64;
            assert_eq!(stolen, steals, "omp({threads}): dispatch {}", span.id);
        }
        assert_eq!(lanes.len(), threads);
        for (lane, counted) in lanes.iter().enumerate() {
            let on_lane = |s: &&gko::SpanRecord| s.lane as usize == lane;
            let spans_on_lane = chunks(None).filter(on_lane).count() as u64;
            let steals_on_lane = chunks(None).filter(on_lane).filter(|s| s.steal).count() as u64;
            assert_eq!(spans_on_lane, counted.chunks, "omp({threads}) lane {lane}");
            assert_eq!(steals_on_lane, counted.steals, "omp({threads}) lane {lane}");
        }
    }
}

/// After kernels from two threads, direct pool runs and a nested
/// dispatch, the pool-wide chunk and steal totals are the sums over lanes.
#[test]
fn pool_totals_are_the_sums_over_lanes() {
    let exec = Executor::omp(4);
    let a = Arc::new(poisson_csr(&exec, 2000));
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (exec, a) = (&exec, &a);
            scope.spawn(move || {
                let b = Dense::<f64>::filled(exec, Dim2::new(2000, 1), 1.0);
                let mut x = Dense::<f64>::zeros(exec, Dim2::new(2000, 1));
                for _ in 0..20 {
                    a.apply(&b, &mut x).unwrap();
                    x.compute_norm2();
                }
            });
        }
    });
    let pool = exec.worker_pool().unwrap();
    for chunks in [1, 3, 64] {
        pool.run(chunks, &|_| {});
    }
    let mut outer = vec![0u32; 4];
    parallel_chunks(&exec, &mut outer, &[0, 2, 4], |_, s| {
        let mut inner = vec![0u32; 4];
        parallel_chunks(&exec, &mut inner, &[0, 1, 4], |i, t| t.fill(i as u32));
        s[0] = inner.iter().sum();
    });
    let stats = exec.pool_stats();
    let lanes = exec.pool_lane_stats();
    assert!(stats.chunks > 0);
    assert_eq!(stats.chunks, lanes.iter().map(|l| l.chunks).sum::<u64>());
    assert_eq!(stats.steals, lanes.iter().map(|l| l.steals).sum::<u64>());
}

/// With the sanitizer armed, every dispatch the loggers see is one the
/// sanitizer checked, and no other.
#[test]
fn the_sanitizer_checks_every_logged_dispatch() {
    let exec = Executor::omp(4);
    exec.enable_sanitizer();
    let record = Arc::new(Record::with_capacity(1 << 20));
    let a = Arc::new(poisson_csr(&exec, 1024));
    let before = exec.sanitizer_report().jobs_checked;
    exec.add_logger(record.clone());
    solve_cg(&exec, &a);
    let checked = exec.sanitizer_report().jobs_checked - before;
    assert_eq!(record.dropped(), 0);
    let logged = dispatches(&record.events()).len() as u64;
    assert!(logged > 0);
    assert_eq!(checked, logged);
}

/// A CSR operator whose `at`-th apply ends in a pool dispatch with a
/// panicking chunk.
struct PanicInChunk {
    inner: Arc<Csr<f64, i32>>,
    applies: AtomicUsize,
    at: usize,
}

impl PanicInChunk {
    fn fault(&self) {
        if self.applies.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let mut scratch = vec![0u8; 16];
            let bounds = uniform_bounds(16, 8);
            parallel_chunks(self.executor(), &mut scratch, &bounds, |i, _| {
                if i == 5 {
                    // lint: allow(panic): the fault under test, raised in a
                    // chunk closure on purpose.
                    panic!("chunk 5 of a traced solve");
                }
            });
        }
    }
}

impl LinOp<f64> for PanicInChunk {
    fn size(&self) -> Dim2 {
        self.inner.size()
    }

    fn executor(&self) -> &Executor {
        self.inner.executor()
    }

    fn apply(&self, b: &Dense<f64>, x: &mut Dense<f64>) -> Result<(), GkoError> {
        self.inner.apply(b, x)?;
        self.fault();
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
        self.fault();
        Ok(())
    }
}

/// A chunk that panics inside a traced, sanitized CG solve re-raises on the
/// caller, and the executor's next SpMV, sanitizer check and traced solve
/// are all whole.
#[test]
fn a_panicking_chunk_leaves_the_executor_whole() {
    let exec = Executor::omp(4);
    exec.enable_sanitizer();
    exec.observe(traced());
    let n = 512;
    let a = Arc::new(poisson_csr(&exec, n));
    let faulty = Arc::new(PanicInChunk {
        inner: a.clone(),
        applies: AtomicUsize::new(0),
        at: 5,
    });
    let solver = Cg::new(faulty)
        .unwrap()
        .with_criteria(Criteria::iterations_and_reduction(2 * n, 1e-10));
    let b = Dense::<f64>::filled(&exec, Dim2::new(n, 1), 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(n, 1));
    let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = solver.apply(&b, &mut x);
    }));
    let payload = raised.expect_err("the chunk's panic reaches the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"chunk 5 of a traced solve")
    );

    let checked = exec.sanitizer_report().jobs_checked;
    let reference = Executor::reference();
    let want = {
        let a = poisson_csr(&reference, n);
        let b = Dense::<f64>::filled(&reference, Dim2::new(n, 1), 1.0);
        let mut y = Dense::<f64>::zeros(&reference, Dim2::new(n, 1));
        a.apply(&b, &mut y).unwrap();
        y
    };
    let mut y = Dense::<f64>::zeros(&exec, Dim2::new(n, 1));
    a.apply(&b, &mut y).unwrap();
    let bits = |d: &Dense<f64>| d.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&y), bits(&want), "the next SpMV is the reference's");
    assert!(exec.sanitizer_report().jobs_checked > checked);

    solve_cg(&exec, &a);
    let report = exec.observer().latest_trace().expect("every solve kept");
    assert!(report.run.converged, "{report:?}");
    assert_eq!(report.truncated_spans, 0);
    assert_rooted_tree(&report, 4);
}
