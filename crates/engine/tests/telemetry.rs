//! Acceptance tests for the live telemetry plane: concurrent scrapes under a
//! running solve, the three anomaly detectors on injected faults, a healthy
//! reference solve that must stay anomaly-free, and the inert-path
//! regression (an unarmed flight plane observes nothing).

use gko::config::Config;
use gko::linop::LinOp;
use gko::log::{Event, Logger};
use gko::matrix::{Csr, Dense};
use gko::preconditioner::Jacobi;
use gko::solver::Ir;
use gko::stop::{Criteria, StopReason};
use gko::telemetry::prom;
use gko::telemetry::recorder::{DRIFT_RATIO, IMBALANCE_MIN_BUSY_NS, STAGNATION_WINDOW};
use gko::{Anomaly, DetectorConfig, Dim2, Executor, ObserveConfig, Observer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::{http_get, poisson_csr, quiet_detectors, solve_cg};

/// The flight plane alone, screened by `detectors`.
fn flights(detectors: DetectorConfig) -> ObserveConfig {
    ObserveConfig {
        flight: Some(detectors),
        ..ObserveConfig::default()
    }
}

/// Arms the flight plane alone with `detectors` and hands its reader back.
fn record_flights(exec: &Executor, detectors: DetectorConfig) -> &Observer {
    exec.observe(flights(detectors));
    exec.observer()
}

/// Satellite 3: four scraper threads hammer `/metrics` and `/healthz` while
/// CG solves run on an omp-16 executor. Every scrape must be a complete,
/// well-formed document (the strict in-tree parser accepts it), and the
/// server must shut down cleanly afterwards.
#[test]
fn concurrent_scrapes_during_solve_are_never_torn() {
    let exec = Executor::omp(16);
    // This test is about scrape integrity, not detectors: on an
    // oversubscribed CI host (possibly a single core), wall latencies under
    // 4 scraper threads are arbitrarily noisy and a 16-lane pool is
    // genuinely skewed towards the submitting lane, so the two
    // timing-based detectors are switched off here — each has its own
    // deterministic test below.
    record_flights(&exec, quiet_detectors());
    let server = exec.serve_telemetry("127.0.0.1:0").unwrap();
    let addr = server.addr();
    let a = Arc::new(poisson_csr(&exec, 2048));

    let done = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..4)
        .map(|id| {
            let done = done.clone();
            std::thread::spawn(move || {
                let mut scrapes = 0u32;
                while scrapes < 20 || !done.load(Ordering::Acquire) {
                    let (status, body) = http_get(addr, "/metrics");
                    assert_eq!(status, "HTTP/1.1 200 OK", "scraper {id}");
                    prom::validate(&body)
                        .unwrap_or_else(|e| panic!("scraper {id}: invalid exposition: {e}"));
                    let (status, body) = http_get(addr, "/healthz");
                    assert_eq!(status, "HTTP/1.1 200 OK", "scraper {id}");
                    let health = Config::from_json(&body)
                        .unwrap_or_else(|e| panic!("scraper {id}: bad health JSON: {e:?}"));
                    assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"));
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    for _ in 0..12 {
        solve_cg(&exec, &a);
    }
    done.store(true, Ordering::Release);
    for handle in scrapers {
        assert!(handle.join().unwrap() >= 20);
    }

    // After the solves: lane series are present and the recorder holds
    // anomaly-free reports for every completed solve.
    let (_, metrics) = http_get(addr, "/metrics");
    for needle in [
        "gko_pool_lane_chunks_total{lane=\"0\"}",
        "gko_pool_lane_busy_ns_total{lane=\"15\"}",
        "# TYPE gko_anomalies_total counter",
        "gko_flight_reports 12",
    ] {
        assert!(
            metrics.contains(needle),
            "missing {needle:?} in:\n{metrics}"
        );
    }
    // Healthy solves: the anomaly family stays empty (declared, no samples).
    assert!(
        !metrics.contains("gko_anomalies_total{"),
        "unexpected anomaly samples:\n{metrics}"
    );
    let (_, runs) = http_get(addr, "/runs");
    let doc = Config::from_json(&runs).expect("/runs is valid JSON");
    let reports = doc.get("reports").and_then(|r| r.as_array()).unwrap();
    assert_eq!(reports.len(), 12);
    for report in reports {
        assert!(matches!(report.get("converged"), Some(Config::Bool(true))));
        let anomalies = report.get("anomalies").and_then(|a| a.as_array()).unwrap();
        assert!(anomalies.is_empty(), "healthy solve flagged: {runs}");
    }

    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    server.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener closed after shutdown"
    );
}

/// Satellite 4a: Richardson + Jacobi on an indefinite matrix makes no
/// progress (the iteration slowly diverges but stays far below the
/// divergence threshold) — the convergence detector must flag `Stagnation`,
/// and exactly that.
#[test]
fn stagnating_richardson_on_indefinite_matrix_is_flagged() {
    let exec = Executor::reference();
    let recorder = record_flights(&exec, DetectorConfig::default());
    let a = Csr::<f64, i32>::from_triplets(
        &exec,
        Dim2::square(2),
        &[(0, 0, 2.0), (0, 1, 3.0), (1, 0, 3.0), (1, 1, 2.0)],
    )
    .unwrap();
    let jacobi = Arc::new(Jacobi::new(&a).unwrap());
    let solver = Ir::new(Arc::new(a))
        .unwrap()
        .with_solver(jacobi)
        .unwrap()
        .with_criteria(Criteria::iterations(12));
    let b = Dense::<f64>::filled(&exec, Dim2::new(2, 1), 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(2, 1));
    solver.apply(&b, &mut x).unwrap();

    let report = recorder.latest_run().expect("solve recorded");
    assert_eq!(report.solver, "solver::Ir");
    assert_eq!(report.stop_reason, Some(StopReason::MaxIterations));
    assert!(!report.converged);
    assert_eq!(report.anomalies.len(), 1, "exactly one anomaly: {report:?}");
    match &report.anomalies[0] {
        Anomaly::Stagnation { window, from, to } => {
            assert_eq!(*window, STAGNATION_WINDOW);
            assert!(
                to >= from,
                "residual plateaued or grew over the window: {from} -> {to}"
            );
        }
        other => panic!("expected Stagnation, got {other:?}"),
    }
    assert_eq!(
        recorder.status().anomalies,
        vec![("stagnation".to_string(), 1)]
    );
}

/// A fixed amount of CPU busy-work; opaque to the optimizer.
fn spin(iters: u64) -> f64 {
    let mut acc = 0.0f64;
    for i in 0..iters {
        acc += std::hint::black_box((i as f64).sqrt());
    }
    acc
}

/// Satellite 4b: a dispatch where one chunk carries almost all the work
/// skews one lane's busy time far above the mean — the next report must
/// flag `LaneImbalance` on that lane.
#[test]
fn skewed_chunks_trigger_lane_imbalance() {
    let exec = Executor::omp(8);
    let recorder = record_flights(&exec, DetectorConfig::default());

    // 8 chunks, one lane apiece: chunk 0 busies its lane for 16 busy-time
    // floors, so the mean over the 8 lanes clears the floor on any machine
    // and the busiest lane sits near 8x the mean; the rest do ~1k flops.
    let mut out = vec![0.0f64; 8];
    let bounds: Vec<usize> = (0..=8).collect();
    let hot = std::time::Duration::from_nanos(16 * IMBALANCE_MIN_BUSY_NS);
    gko::executor::pool::parallel_chunks(&exec, &mut out, &bounds, |i, slot| {
        let start = std::time::Instant::now();
        slot[0] = spin(1_000);
        while i == 0 && start.elapsed() < hot {
            slot[0] += spin(1_000);
        }
    });

    // A tiny healthy solve closes out the report carrying the skewed delta.
    let a = Arc::new(poisson_csr(&exec, 64));
    solve_cg(&exec, &a);

    let report = recorder.latest_run().expect("solve recorded");
    let flagged: Vec<_> = report
        .anomalies
        .iter()
        .filter(|a| a.kind() == "lane_imbalance")
        .collect();
    assert_eq!(flagged.len(), 1, "anomalies: {:?}", report.anomalies);
    match flagged[0] {
        Anomaly::LaneImbalance {
            busy_ns,
            mean_busy_ns,
            ratio,
            ..
        } => {
            assert!(busy_ns > mean_busy_ns);
            assert!(
                *ratio >= DetectorConfig::default().imbalance_ratio,
                "ratio {ratio}"
            );
        }
        other => panic!("expected LaneImbalance, got {other:?}"),
    }
}

/// Satellite 4c: a kernel whose p99 jumps three orders of magnitude above
/// its rolling baseline must be flagged `LatencyDrift` — and the healthy
/// solves that built the baseline must not be.
#[test]
fn injected_slow_kernel_triggers_latency_drift() {
    let recorder = Observer::detached(flights(DetectorConfig::default()));
    let healthy_solve = |wall_ns: u64| {
        for _ in 0..8 {
            recorder.on_event(&Event::LinOpApplyCompleted {
                op: "csr",
                wall_ns,
                virtual_ns: 0,
            });
        }
        recorder.on_event(&Event::SolveCompleted {
            solver: "solver::Cg",
            iterations: 8,
            residual: 1e-12,
            reason: StopReason::ResidualReduction,
        });
    };
    // Three healthy solves establish the ~1µs baseline (drift_min_solves).
    for _ in 0..3 {
        healthy_solve(1_000);
    }
    for report in recorder.runs() {
        assert!(report.anomalies.is_empty(), "baseline solve flagged");
    }
    // The injected fault: the same kernel now takes ~1ms. The first slow
    // solve is withheld (a lone slow solve on a noisy host is not a
    // regression); the drift is reported once it persists.
    healthy_solve(1_000_000);
    assert!(
        recorder.latest_run().unwrap().anomalies.is_empty(),
        "a single slow solve must not be flagged yet"
    );
    healthy_solve(1_000_000);

    let report = recorder.latest_run().unwrap();
    assert_eq!(
        report.anomalies.len(),
        1,
        "anomalies: {:?}",
        report.anomalies
    );
    match &report.anomalies[0] {
        Anomaly::LatencyDrift {
            op,
            p99_ns,
            baseline_ns,
            ratio,
        } => {
            assert_eq!(op, "csr");
            assert!(p99_ns > baseline_ns);
            assert!(*ratio >= DRIFT_RATIO);
        }
        other => panic!("expected LatencyDrift, got {other:?}"),
    }
    assert_eq!(
        recorder.status().anomalies,
        vec![("latency_drift".to_string(), 1)]
    );
    // The flagged sample must not poison the baseline: an immediate return
    // to normal latency is healthy again.
    healthy_solve(1_000);
    assert!(recorder.latest_run().unwrap().anomalies.is_empty());

    // A tail-only spike (a few preempted samples among healthy ones)
    // inflates p99 but not the median — it must NOT be flagged as drift.
    for i in 0..100 {
        recorder.on_event(&Event::LinOpApplyCompleted {
            op: "csr",
            wall_ns: if i < 95 { 1_000 } else { 5_000_000 },
            virtual_ns: 0,
        });
    }
    recorder.on_event(&Event::SolveCompleted {
        solver: "solver::Cg",
        iterations: 100,
        residual: 1e-12,
        reason: StopReason::ResidualReduction,
    });
    let report = recorder.latest_run().unwrap();
    assert!(
        report.anomalies.is_empty(),
        "tail-only spike misflagged: {:?}",
        report.anomalies
    );
}

/// Satellite 4d: no false positives — repeated converging reference solves
/// through the full recorder produce zero anomalies of any kind.
#[test]
fn healthy_reference_solves_produce_no_anomalies() {
    let exec = Executor::omp(4);
    let recorder = record_flights(&exec, DetectorConfig::default());
    let a = Arc::new(poisson_csr(&exec, 1024));
    for _ in 0..6 {
        solve_cg(&exec, &a);
    }
    let status = recorder.status();
    assert_eq!(status.runs, 6);
    assert_eq!(status.anomalies_total(), 0, "{:?}", status.anomalies);
    for report in recorder.runs() {
        assert!(report.converged);
        assert!(report.anomalies.is_empty());
        assert!(report.residuals.last <= report.residuals.initial);
        assert!(report.kernels.iter().any(|k| k.op == "csr"));
    }
}

/// Inert-path regression: with no plane armed (and no logger attached), the
/// instrumented sites branch away after one relaxed load — a flight plane
/// armed afterwards has observed nothing.
#[test]
fn detached_recorder_observes_nothing() {
    let exec = Executor::omp(2);
    let a = poisson_csr(&exec, 512);
    assert!(
        !exec.loggers().is_active(),
        "precondition: the fast path is one relaxed load"
    );
    let b = Dense::<f64>::filled(&exec, Dim2::new(512, 1), 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(512, 1));
    for _ in 0..4 {
        a.apply(&b, &mut x).unwrap();
    }
    let recorder = record_flights(&exec, DetectorConfig::default());
    assert_eq!(
        recorder.events_observed(),
        0,
        "pre-attachment kernels must be invisible to the recorder"
    );
    assert_eq!(recorder.status().runs, 0);
    exec.observe(ObserveConfig::default());
    assert!(
        !exec.loggers().is_active(),
        "switching off detaches the observer"
    );
}

/// Satellite: `/runs?limit=N` returns the N newest reports, newest first,
/// with `total`/`returned` exposing the truncation.
#[test]
fn runs_limit_truncates_newest_first() {
    let exec = Executor::omp(2);
    record_flights(&exec, quiet_detectors());
    let server = exec.serve_telemetry("127.0.0.1:0").unwrap();
    let a = Arc::new(poisson_csr(&exec, 256));
    for _ in 0..5 {
        solve_cg(&exec, &a);
    }

    let (status, body) = http_get(server.addr(), "/runs?limit=2");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let doc = Config::from_json(&body).expect("truncated /runs is valid JSON");
    assert_eq!(doc.get("total").and_then(|v| v.as_int()), Some(5));
    assert_eq!(doc.get("returned").and_then(|v| v.as_int()), Some(2));
    let reports = doc.get("reports").and_then(|r| r.as_array()).unwrap();
    assert_eq!(reports.len(), 2);
    let seqs: Vec<i64> = reports
        .iter()
        .map(|r| r.get("seq").and_then(|s| s.as_int()).unwrap())
        .collect();
    assert_eq!(seqs, vec![5, 4], "newest first");

    // No query: everything fits under the default cap, newest still first.
    let (_, body) = http_get(server.addr(), "/runs");
    let doc = Config::from_json(&body).unwrap();
    assert_eq!(doc.get("returned").and_then(|v| v.as_int()), Some(5));
    assert_eq!(
        doc.get("reports").and_then(|r| r.as_array()).unwrap().len(),
        5
    );
    // A malformed limit falls back to the default rather than erroring.
    let (status, _) = http_get(server.addr(), "/runs?limit=bogus");
    assert_eq!(status, "HTTP/1.1 200 OK");
    server.shutdown();
}

/// Satellite: a request line that exceeds the head cap without ever
/// terminating is rejected as malformed, not truncated into a valid path.
#[test]
fn oversized_request_line_is_rejected() {
    let exec = Executor::reference();
    let server = exec.serve_telemetry("127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(16_384));
    stream.write_all(huge.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    assert!(
        text.starts_with("HTTP/1.1 400 Bad Request"),
        "oversized head must 400: {text}"
    );
    server.shutdown();
}

/// Satellite: `/traces` is GET-only like every other endpoint.
#[test]
fn unknown_method_on_traces_is_rejected() {
    let exec = Executor::reference();
    let server = exec.serve_telemetry("127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"POST /traces HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    assert!(
        text.starts_with("HTTP/1.1 405 Method Not Allowed"),
        "{text}"
    );
    // An unknown trace id under GET is a 404 with a JSON error.
    let (status, body) = http_get(server.addr(), "/traces/999999");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(body.contains("unknown trace id"), "{body}");
    server.shutdown();
}

/// Satellite: HEAD is honored on every route — identical status line to the
/// corresponding GET, a `Content-Length` advertising the GET body's length,
/// and the body suppressed. `/metrics` and `/healthz` render the executor's
/// uptime, whose digit count moves between the two requests, so their
/// lengths are compared up to the width of that one number; every other
/// route is time-invariant and must match exactly.
#[test]
fn head_requests_mirror_get_headers_without_body() {
    /// Upper bound on how far two renderings of one `f64` uptime can differ
    /// in length (`{}` never prints more than this many characters for it).
    const UPTIME_WIDTH: usize = 32;
    let exec = Executor::reference();
    let server = exec.serve_telemetry("127.0.0.1:0").unwrap();
    for (path, renders_uptime) in [
        ("/metrics", true),
        ("/healthz", true),
        ("/traces", false),
        ("/profile", false),
        ("/nope", false),
    ] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "HEAD {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8(raw).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(
            body.is_empty(),
            "HEAD {path} must not carry a body: {body:?}"
        );
        let head_status = head.lines().next().unwrap().to_string();
        let head_len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap_or_else(|| panic!("HEAD {path} lacks Content-Length:\n{head}"))
            .parse()
            .unwrap();
        // The advertised length is the GET body's length, not zero.
        let (get_status, get_body) = http_get(server.addr(), path);
        assert_eq!(head_status, get_status, "status parity on {path}");
        let slack = if renders_uptime { UPTIME_WIDTH } else { 0 };
        assert!(
            head_len.abs_diff(get_body.len()) <= slack,
            "length parity on {path}: HEAD {head_len} vs GET {}",
            get_body.len()
        );
        assert!(head_len > 0, "every route has a body under GET: {path}");
    }
    server.shutdown();
}

/// Satellite: concurrent `/traces` + `/traces/<id>` scrapes during an armed
/// batched solve never observe a torn span tree — every drilled-down trace
/// is valid JSON whose span parents all resolve within the document.
#[test]
fn concurrent_traces_scrape_during_armed_batched_solve() {
    use gko::matrix::{BatchCsr, BatchDense};
    use gko::solver::BatchCg;
    use gko::stop::Criteria;

    let exec = Executor::omp(16);
    exec.observe(ObserveConfig {
        flight: Some(quiet_detectors()),
        trace: Some(gko::TraceConfig {
            sample_n: 1,
            ..gko::TraceConfig::default()
        }),
        ..ObserveConfig::default()
    });
    let server = exec.serve_telemetry("127.0.0.1:0").unwrap();
    let addr = server.addr();

    let done = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..3)
        .map(|id| {
            let done = done.clone();
            std::thread::spawn(move || {
                let mut drilled = 0u32;
                let mut scrapes = 0u32;
                while scrapes < 10 || !done.load(Ordering::Acquire) {
                    let (status, body) = http_get(addr, "/traces");
                    assert_eq!(status, "HTTP/1.1 200 OK", "scraper {id}");
                    let index = Config::from_json(&body)
                        .unwrap_or_else(|e| panic!("scraper {id}: bad index: {e:?}\n{body}"));
                    let traces = index.get("traces").and_then(|t| t.as_array()).unwrap();
                    for entry in traces {
                        let tid = entry.get("trace_id").and_then(|v| v.as_int()).unwrap();
                        let (status, body) = http_get(addr, &format!("/traces/{tid}"));
                        if status != "HTTP/1.1 200 OK" {
                            continue; // evicted between index and drill-down
                        }
                        let doc = Config::from_json(&body).unwrap_or_else(|e| {
                            panic!("scraper {id}: torn trace JSON: {e:?}\n{body}")
                        });
                        let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
                        let ids: Vec<i64> = spans
                            .iter()
                            .map(|s| s.get("id").and_then(|v| v.as_int()).unwrap())
                            .collect();
                        let mut roots = 0;
                        for span in spans {
                            let parent = span.get("parent").and_then(|v| v.as_int()).unwrap();
                            if parent == 0 {
                                roots += 1;
                            } else {
                                assert!(
                                    ids.contains(&parent),
                                    "scraper {id}: dangling parent {parent} in {body}"
                                );
                            }
                        }
                        assert_eq!(roots, 1, "scraper {id}: torn tree in {body}");
                        drilled += 1;
                    }
                    scrapes += 1;
                }
                drilled
            })
        })
        .collect();

    let single = poisson_csr(&exec, 128);
    let batch = Arc::new(BatchCsr::replicated(&single, 6).unwrap());
    for _ in 0..8 {
        let mut b = BatchDense::<f64>::zeros(&exec, 6, gko::Dim2::new(128, 1));
        b.fill(1.0);
        let mut x = BatchDense::<f64>::zeros(&exec, 6, gko::Dim2::new(128, 1));
        let record = BatchCg::new(batch.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10))
            .apply_batch(&b, &mut x)
            .unwrap();
        assert!(record.all_converged());
    }
    done.store(true, Ordering::Release);
    for handle in scrapers {
        assert!(
            handle.join().unwrap() > 0,
            "scrapers must have drilled into at least one trace"
        );
    }
    // The tracer gauges are exposed on /metrics while armed.
    let (_, metrics) = http_get(addr, "/metrics");
    for needle in [
        "# TYPE gko_trace_retained gauge",
        "# TYPE gko_trace_drops_total counter",
    ] {
        assert!(
            metrics.contains(needle),
            "missing {needle:?} in:\n{metrics}"
        );
    }
    server.shutdown();
}

/// Only the thread that opened a solve feeds its per-solve planes: another
/// thread's kernel on the same executor is counted by the metrics plane
/// (executor-wide by definition) but stays out of the solve's kernel table
/// and out of the latency-drift baselines.
#[test]
fn other_threads_events_stay_out_of_the_solve_in_flight() {
    let observer = Observer::detached(ObserveConfig {
        metrics: true,
        ..flights(DetectorConfig::default())
    });
    let csr = |wall_ns| Event::LinOpApplyCompleted {
        op: "csr",
        wall_ns,
        virtual_ns: 0,
    };
    let solve = |own_csr_ns: Option<u64>| {
        observer.on_event(&Event::LinOpApplyStarted { op: "solver::Cg" });
        match own_csr_ns {
            Some(wall_ns) => (0..8).for_each(|_| observer.on_event(&csr(wall_ns))),
            // A full second of SpMV, emitted by a thread that owns no solve.
            None => std::thread::scope(|scope| {
                scope.spawn(|| observer.on_event(&csr(1_000_000_000)));
            }),
        }
        observer.on_event(&Event::SolveCompleted {
            solver: "solver::Cg",
            iterations: 8,
            residual: 1e-12,
            reason: StopReason::ResidualReduction,
        });
        observer.on_event(&Event::LinOpApplyCompleted {
            op: "solver::Cg",
            wall_ns: 50_000,
            virtual_ns: 0,
        });
        observer
            .latest_run()
            .expect("the solve closed into a report")
    };

    let report = solve(None);
    let ops: Vec<&str> = report.kernels.iter().map(|k| k.op.as_str()).collect();
    assert_eq!(ops, ["solver::Cg"], "the foreign csr must not appear");
    let counted = observer.metrics().unwrap();
    assert_eq!(
        counted.kernel("csr").map(|k| k.calls),
        Some(1),
        "metrics still count it"
    );

    // No baseline was seeded from the foreign second either: the solve's own
    // csr settles at 1 µs, so a persistent 1 ms is flagged as drift. Seeded
    // with 1 s the baseline would still sit near 0.3 s and stay silent.
    for _ in 0..3 {
        assert!(solve(Some(1_000)).anomalies.is_empty());
    }
    assert!(solve(Some(1_000_000)).anomalies.is_empty(), "withheld once");
    let anomalies = solve(Some(1_000_000)).anomalies;
    assert!(
        matches!(anomalies.as_slice(), [Anomaly::LatencyDrift { op, .. }] if op == "csr"),
        "{anomalies:?}"
    );
}

/// The one exposition writer, on a fixed status with every plane on: the
/// document passes the strict validator and carries every family `/metrics`
/// serves, each behind its own `# HELP` / `# TYPE` pair.
#[test]
fn exposition_of_a_fixed_status_is_strict_and_complete() {
    let observer = Observer::detached(ObserveConfig {
        metrics: true,
        profile: true,
        ..ObserveConfig::default()
    });
    observer.on_event(&Event::LinOpApplyStarted { op: "solver::Cg" });
    observer.on_event(&Event::LinOpApplyStarted { op: "csr" });
    observer.on_event(&Event::LinOpApplyCompleted {
        op: "csr",
        wall_ns: 1_500,
        virtual_ns: 1_000,
    });
    observer.on_event(&Event::IterationComplete {
        solver: "solver::Cg",
        iteration: 1,
        residual: 0.5,
    });
    observer.on_event(&Event::AllocationComplete { bytes: 4096 });
    observer.on_event(&Event::SolveCompleted {
        solver: "solver::Cg",
        iterations: 1,
        residual: 0.5,
        reason: StopReason::MaxIterations,
    });
    observer.on_event(&Event::LinOpApplyCompleted {
        op: "solver::Cg",
        wall_ns: 9_000,
        virtual_ns: 8_000,
    });
    let lanes = [
        gko::LaneStats {
            chunks: 3,
            steals: 1,
            busy_ns: 700,
        },
        gko::LaneStats::default(),
    ];
    let text = gko::telemetry::render_exposition(&observer.status(), &lanes, 12.5);
    prom::validate(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));

    let families = [
        ("gko_events_total", "counter"),
        ("gko_solves_total", "counter"),
        ("gko_criterion_checks_total", "counter"),
        ("gko_plan_builds_total", "counter"),
        ("gko_solver_iterations_total", "counter"),
        ("gko_anomalies_total", "counter"),
        ("gko_kernel_calls_total", "counter"),
        ("gko_kernel_wall_ns", "histogram"),
        ("gko_kernel_virtual_ns", "histogram"),
        ("gko_pool_dispatch_ns", "histogram"),
        ("gko_alloc_bytes", "histogram"),
        ("gko_pool_lane_chunks_total", "counter"),
        ("gko_pool_lane_steals_total", "counter"),
        ("gko_pool_lane_busy_ns_total", "counter"),
        ("gko_flight_reports", "gauge"),
        ("gko_trace_retained", "gauge"),
        ("gko_trace_drops_total", "counter"),
        ("gko_trace_truncated_spans_total", "counter"),
        ("gko_profile_nodes", "gauge"),
        ("gko_profile_evicted_total", "counter"),
        ("gko_profile_solves_total", "counter"),
        ("gko_build_info", "gauge"),
        ("gko_uptime_seconds", "gauge"),
    ];
    for (family, kind) in families {
        assert!(
            text.contains(&format!("# HELP {family} ")),
            "no HELP for {family}:\n{text}"
        );
        assert!(
            text.contains(&format!("# TYPE {family} {kind}\n")),
            "no TYPE for {family}"
        );
    }
    assert_eq!(
        text.matches("# TYPE ").count(),
        families.len(),
        "no family beyond the list"
    );
    for sample in [
        "gko_events_total 7\n",
        "gko_solves_total 1\n",
        "gko_solver_iterations_total{solver=\"solver::Cg\"} 1\n",
        "gko_kernel_calls_total{op=\"csr\"} 1\n",
        "gko_kernel_wall_ns_bucket{op=\"csr\",le=\"2047\"} 1\n",
        "gko_kernel_wall_ns_bucket{op=\"csr\",le=\"+Inf\"} 1\n",
        "gko_kernel_wall_ns_sum{op=\"csr\"} 1500\n",
        "gko_kernel_virtual_ns_count{op=\"solver::Cg\"} 1\n",
        "gko_pool_dispatch_ns_bucket{le=\"+Inf\"} 0\n",
        "gko_alloc_bytes_sum 4096\n",
        "gko_pool_lane_chunks_total{lane=\"0\"} 3\n",
        "gko_pool_lane_busy_ns_total{lane=\"1\"} 0\n",
        "gko_flight_reports 1\n",
        "gko_trace_retained 1\n",
        "gko_profile_solves_total 1\n",
        "gko_uptime_seconds 12.5\n",
    ] {
        assert!(text.contains(sample), "missing {sample:?} in:\n{text}");
    }
    assert!(text.contains("gko_build_info{version=\""), "{text}");

    // With every plane off only the identity gauges remain.
    let inert = Observer::detached(ObserveConfig::default());
    let text = gko::telemetry::render_exposition(&inert.status(), &[], 0.0);
    prom::validate(&text).expect("strict");
    assert_eq!(text.matches("# TYPE ").count(), 2, "{text}");
}
