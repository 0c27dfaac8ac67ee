//! Acceptance tests for the live telemetry plane: concurrent scrapes under a
//! running solve, the three anomaly detectors on injected faults, a healthy
//! reference solve that must stay anomaly-free, and the inert-path
//! regression (an unattached recorder observes nothing).

use gko::config::Config;
use gko::linop::LinOp;
use gko::log::{Event, Logger};
use gko::matrix::{Csr, Dense};
use gko::preconditioner::Jacobi;
use gko::solver::{Cg, Ir};
use gko::stop::{Criteria, StopReason};
use gko::telemetry::prom;
use gko::{Anomaly, DetectorConfig, Dim2, Executor, FlightRecorder, ObserveConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn poisson_csr(exec: &Executor, n: usize) -> Csr<f64, i32> {
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

fn solve_cg(exec: &Executor, a: &Arc<Csr<f64, i32>>) -> StopReason {
    let n = a.size().rows;
    let solver = Cg::new(a.clone())
        .unwrap()
        .with_criteria(Criteria::iterations_and_reduction(2 * n, 1e-10));
    let b = Dense::<f64>::filled(exec, Dim2::new(n, 1), 1.0);
    let mut x = Dense::<f64>::zeros(exec, Dim2::new(n, 1));
    solver.apply(&b, &mut x).unwrap();
    solver.logger().snapshot().stop_reason.unwrap()
}

/// Arms the flight recorder alone with `detectors` and hands it back.
fn record_flights(exec: &Executor, detectors: DetectorConfig) -> Arc<FlightRecorder> {
    exec.observe(ObserveConfig {
        flight: Some(detectors),
        ..ObserveConfig::default()
    });
    exec.flight_recorder().expect("flight plane armed")
}

/// Detector thresholds with the two timing-based detectors switched off.
fn quiet_detectors() -> DetectorConfig {
    DetectorConfig {
        drift_min_solves: u64::MAX,
        imbalance_ratio: f64::INFINITY,
        ..DetectorConfig::default()
    }
}

/// Minimal HTTP/1.1 GET over a raw `TcpStream`; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: telemetry\r\nConnection: close\r\n\r\n"
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
        let reason = solve_cg(&exec, &a);
        assert!(reason.is_converged(), "reference solve converged: {reason:?}");
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
        assert!(metrics.contains(needle), "missing {needle:?} in:\n{metrics}");
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

    let report = recorder.latest().expect("solve recorded");
    assert_eq!(report.solver, "solver::Ir");
    assert_eq!(report.stop_reason, Some(StopReason::MaxIterations));
    assert!(!report.converged);
    assert_eq!(report.anomalies.len(), 1, "exactly one anomaly: {report:?}");
    match &report.anomalies[0] {
        Anomaly::Stagnation { window, from, to } => {
            assert_eq!(*window, recorder.detector_config().stagnation_window);
            assert!(
                to >= from,
                "residual plateaued or grew over the window: {from} -> {to}"
            );
        }
        other => panic!("expected Stagnation, got {other:?}"),
    }
    assert_eq!(
        recorder.anomaly_counts(),
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
    // Lower the busy-time floor so the test stays fast on any machine; the
    // ratio threshold (the part under test) keeps its default.
    let recorder = record_flights(
        &exec,
        DetectorConfig {
            imbalance_min_busy_ns: 10_000,
            ..DetectorConfig::default()
        },
    );

    // 8 chunks, one lane apiece: chunk 0 does ~20M flops, the rest ~1k.
    let mut out = vec![0.0f64; 8];
    let bounds: Vec<usize> = (0..=8).collect();
    gko::executor::pool::parallel_chunks(&exec, &mut out, &bounds, |i, slot| {
        slot[0] = spin(if i == 0 { 20_000_000 } else { 1_000 });
    });

    // A tiny healthy solve closes out the report carrying the skewed delta.
    let a = Arc::new(poisson_csr(&exec, 64));
    assert!(solve_cg(&exec, &a).is_converged());

    let report = recorder.latest().expect("solve recorded");
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
                *ratio >= recorder.detector_config().imbalance_ratio,
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
    let recorder = FlightRecorder::detached(DetectorConfig::default());
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
    for report in recorder.reports() {
        assert!(report.anomalies.is_empty(), "baseline solve flagged");
    }
    // The injected fault: the same kernel now takes ~1ms. The first slow
    // solve is withheld (a lone slow solve on a noisy host is not a
    // regression); the drift is reported once it persists.
    healthy_solve(1_000_000);
    assert!(
        recorder.latest().unwrap().anomalies.is_empty(),
        "a single slow solve must not be flagged yet"
    );
    healthy_solve(1_000_000);

    let report = recorder.latest().unwrap();
    assert_eq!(report.anomalies.len(), 1, "anomalies: {:?}", report.anomalies);
    match &report.anomalies[0] {
        Anomaly::LatencyDrift {
            op,
            p99_ns,
            baseline_ns,
            ratio,
        } => {
            assert_eq!(op, "csr");
            assert!(p99_ns > baseline_ns);
            assert!(*ratio >= recorder.detector_config().drift_ratio);
        }
        other => panic!("expected LatencyDrift, got {other:?}"),
    }
    assert_eq!(
        recorder.anomaly_counts(),
        vec![("latency_drift".to_string(), 1)]
    );
    // The flagged sample must not poison the baseline: an immediate return
    // to normal latency is healthy again.
    healthy_solve(1_000);
    assert!(recorder.latest().unwrap().anomalies.is_empty());

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
    let report = recorder.latest().unwrap();
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
        assert!(solve_cg(&exec, &a).is_converged());
    }
    assert_eq!(recorder.reports_len(), 6);
    assert_eq!(recorder.anomalies_total(), 0, "{:?}", recorder.anomaly_counts());
    for report in recorder.reports() {
        assert!(report.converged);
        assert!(report.anomalies.is_empty());
        assert!(report.residuals.last <= report.residuals.initial);
        assert!(report.kernels.iter().any(|k| k.op == "csr"));
    }
}

/// Inert-path regression: with no recorder (or any logger) attached, the
/// instrumented sites branch away after one relaxed load — a recorder
/// enabled afterwards has observed nothing.
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
    assert_eq!(recorder.reports_len(), 0);
    exec.observe(ObserveConfig::default());
    assert!(!exec.loggers().is_active(), "switching off detaches the recorder");
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
        assert!(solve_cg(&exec, &a).is_converged());
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
        assert!(body.is_empty(), "HEAD {path} must not carry a body: {body:?}");
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
                            let parent =
                                span.get("parent").and_then(|v| v.as_int()).unwrap();
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
        assert!(metrics.contains(needle), "missing {needle:?} in:\n{metrics}");
    }
    server.shutdown();
}
