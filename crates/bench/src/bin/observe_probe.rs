//! End-to-end probe of the observability planes, run by `scripts/verify.sh`.
//!
//! Drives full CG solves on a 2D Poisson matrix (~1.8M nnz on the 600x600
//! grid, a small grid under `PYGKO_BENCH_QUICK=1`) through the pyGinkgo
//! facade's `Solver::observe` with the HTTP exporter serving, scrapes every
//! route over a raw `TcpStream` (no external HTTP client), and checks the
//! whole contract in two stages:
//!
//! **Health** (omp-2, default detectors): the detectors pass their
//! self-tests (each injected fault fires exactly its own anomaly kind, and
//! only under persistence); `/metrics` parses under the strict in-tree
//! Prometheus validator and carries one labelled series triple per pool
//! lane; `/healthz` reports the flight plane armed; `/runs` holds the
//! solve's report — converged, anomaly-free, annotated with the system
//! matrix — and the facade reads the same one.
//!
//! **Spans** (omp-16, tracing every solve, profiling): the facade's trace
//! and the scraped `/traces/<id>` document agree; the span parent links form
//! a single rooted tree whose chunk spans exactly tile `0..chunk_count` of
//! every `pool_dispatch` — no chunk lost, none duplicated, across lanes and
//! steals; `?format=chrome` parses; the newest `/runs` entry's number is
//! the trace id it links, the linked document holds that run, and a run
//! sampled out links nothing; the flame snapshot and `/profile` agree on a rooted,
//! non-empty tree bounded by the node cap; `?format=folded` obeys the
//! folded-stacks grammar; `HEAD` mirrors `GET` on every route;
//! `/profile/diff` answers 400 without a base, 404 on an unknown one and
//! ranks growth against a committed one; `/metrics` carries the
//! `gko_trace_*`, `gko_profile_*`, `gko_build_info` and `gko_uptime_seconds`
//! series.
//!
//! Both stages end with a clean shutdown (the port stops accepting). Any
//! violated expectation panics, which exits nonzero for `scripts/verify.sh`.
//!
//! `cargo run --release -p pygko-bench --bin observe_probe`

use gko::config::Config;
use gko::log::{Event, Logger as _};
use gko::profile::MAX_FLAME_NODES;
use gko::stop::StopReason;
use gko::telemetry::recorder::{detect_convergence, detect_lane_imbalance, STAGNATION_WINDOW};
use gko::telemetry::{prom, Anomaly, DetectorConfig};
use gko::{LaneStats, ObserveConfig, Observer, TelemetryServer};
use pyginkgo as pg;
use pygko_bench::quick_mode;
use pygko_matgen::generators::poisson2d;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One HTTP/1.1 exchange; returns (status line, lower-cased headers, body).
fn http(addr: SocketAddr, method: &str, path: &str) -> (String, Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: probe\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status = lines.next().unwrap_or("").to_string();
    (
        status,
        lines.map(str::to_ascii_lowercase).collect(),
        body.to_string(),
    )
}

/// `GET path`, which must answer `200 OK`; returns the body.
fn get(addr: SocketAddr, path: &str) -> String {
    let (status, _, body) = http(addr, "GET", path);
    assert_eq!(status, "HTTP/1.1 200 OK", "GET {path}");
    body
}

/// `GET path` as JSON.
fn get_json(addr: SocketAddr, path: &str) -> Config {
    Config::from_json(&get(addr, path)).unwrap_or_else(|e| panic!("{path} is not JSON: {e:?}"))
}

fn array<'a>(doc: &'a Config, key: &str) -> &'a [Config] {
    doc.get(key)
        .and_then(Config::as_array)
        .unwrap_or_else(|| panic!("{key} array"))
}

fn int(doc: &Config, key: &str) -> i64 {
    doc.get(key)
        .and_then(Config::as_int)
        .unwrap_or_else(|| panic!("{key} integer"))
}

/// The three detectors, each fed its own injected fault and a healthy
/// control, through the same pure functions the observer uses.
fn detector_self_tests() {
    let cfg = DetectorConfig::default();

    // Convergence: plateau -> Stagnation, runaway growth -> Divergence,
    // steady improvement -> clean.
    let window = |ratio: f64| -> Vec<f64> {
        (0..=STAGNATION_WINDOW)
            .map(|i| ratio.powi(i as i32))
            .collect()
    };
    assert!(matches!(
        detect_convergence(1.0, &window(1.0), false),
        Some(Anomaly::Stagnation { .. })
    ));
    assert!(matches!(
        detect_convergence(1e-3, &window(10.0), false),
        Some(Anomaly::Divergence { .. })
    ));
    assert_eq!(detect_convergence(1.0, &window(0.5), false), None);

    // Lane imbalance: one hot lane at scale fires; balanced lanes don't.
    let lane = |busy_ns| LaneStats {
        chunks: 1,
        steals: 0,
        busy_ns,
    };
    assert!(matches!(
        detect_lane_imbalance(&[lane(40_000_000), lane(0), lane(0), lane(0)], &cfg),
        Some(Anomaly::LaneImbalance { lane: 0, .. })
    ));
    assert_eq!(detect_lane_imbalance(&[lane(5_000_000); 4], &cfg), None);

    // Latency drift end to end through a detached observer: persistence
    // withholds the first slow solve, the second fires exactly one
    // LatencyDrift.
    let obs = Observer::detached(ObserveConfig {
        flight: Some(DetectorConfig {
            drift_min_solves: 3,
            ..cfg
        }),
        ..ObserveConfig::default()
    });
    let solve = |wall_ns: u64| {
        for _ in 0..8 {
            obs.on_event(&Event::LinOpApplyCompleted {
                op: "csr",
                wall_ns,
                virtual_ns: 0,
            });
        }
        obs.on_event(&Event::SolveCompleted {
            solver: "solver::Cg",
            iterations: 8,
            residual: 1e-12,
            reason: StopReason::ResidualReduction,
        });
        obs.latest_run().expect("solve reported").anomalies
    };
    for _ in 0..3 {
        assert!(solve(1_000).is_empty());
    }
    assert!(solve(1_000_000).is_empty(), "withheld once");
    assert!(matches!(
        solve(1_000_000)[..],
        [Anomaly::LatencyDrift { .. }]
    ));
    println!("observe_probe: detector self-tests OK");
}

/// A CG solver on the probe's Poisson system on an omp device with `lanes`
/// lanes, observing `what`, with the exporter serving.
struct Stage {
    dev: pg::Device,
    solver: pg::solver::Solver,
    b: pg::Tensor,
    rows: usize,
    nnz: usize,
    server: TelemetryServer,
}

impl Stage {
    fn start(
        lanes: usize,
        what: pg::Observe,
        engine: impl FnOnce(ObserveConfig) -> ObserveConfig,
    ) -> Stage {
        let grid = if quick_mode() { 120 } else { 600 };
        let gen = poisson2d("poisson2d", grid, grid);
        let (rows, nnz) = (gen.rows, gen.nnz());
        println!("observe_probe: poisson2d_{grid} ({rows} rows, {nnz} nnz), omp-{lanes}");
        let dev = pg::device_with_id("omp", lanes).expect("omp device");
        let m = pg::SparseMatrix::from_triplets(
            &dev,
            (gen.rows, gen.cols),
            &gen.triplets,
            "double",
            "int32",
            "Csr",
        )
        .expect("assemble matrix");
        let solver = pg::solver::cg(&dev, &m, None, 20 * grid, 1e-8)
            .expect("build cg")
            .observe(what)
            .expect("observe");
        // Engine-level policy the facade has no knob for.
        let exec = dev.executor();
        exec.observe(engine(exec.observing()));
        let server = exec.serve_telemetry("127.0.0.1:0").expect("start exporter");
        println!("observe_probe: serving on http://{}", server.addr());
        let b = pg::as_tensor_fill(&dev, (rows, 1), "double", 1.0).expect("rhs");
        Stage {
            dev,
            solver,
            b,
            rows,
            nnz,
            server,
        }
    }

    fn solve(&self) {
        let mut x = pg::as_tensor_fill(&self.dev, (self.rows, 1), "double", 0.0).expect("x0");
        let logger = self.solver.apply(&self.b, &mut x).expect("solve");
        assert!(
            logger.converged(),
            "reference solve must converge (stopped after {} iterations)",
            logger.iterations()
        );
        println!(
            "observe_probe: CG converged in {} iterations (residual {:.3e})",
            logger.iterations(),
            logger.final_residual()
        );
    }

    fn finish(self) {
        let addr = self.server.addr();
        self.server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err(),
            "port must stop accepting after shutdown"
        );
    }
}

/// Health stage: two pool lanes — enough for labelled per-lane series, few
/// enough that the imbalance bound (max/mean <= lanes) sits below the
/// detector's default threshold even on a single-core host.
fn health_stage() {
    let flight = pg::Observe {
        flight: true,
        ..pg::Observe::default()
    };
    let stage = Stage::start(2, flight, |config| config);
    let addr = stage.server.addr();
    stage.solve();

    let metrics = get(addr, "/metrics");
    prom::validate(&metrics).expect("/metrics passes the strict validator");
    let exec = stage.dev.executor();
    let lanes = exec.pool_lane_stats().len();
    // No pool, so no lane series, on a one-core host.
    assert_eq!(
        lanes.max(1),
        exec.functional_threads(),
        "omp pool spun {lanes} lanes"
    );
    for lane in 0..lanes {
        for series in [
            "gko_pool_lane_chunks_total",
            "gko_pool_lane_steals_total",
            "gko_pool_lane_busy_ns_total",
        ] {
            let needle = format!("{series}{{lane=\"{lane}\"}}");
            assert!(metrics.contains(&needle), "missing {needle}");
        }
    }
    assert!(metrics.contains("gko_solves_total 1"), "solve counted");
    assert!(
        !metrics.contains("gko_anomalies_total{"),
        "healthy solve produced anomaly samples:\n{metrics}"
    );
    println!("observe_probe: /metrics OK ({lanes} lanes labelled)");

    let health = get_json(addr, "/healthz");
    assert_eq!(health.get("status").and_then(Config::as_str), Some("ok"));
    let flight = health.get("flight_recorder").expect("flight_recorder key");
    assert!(matches!(flight.get("enabled"), Some(Config::Bool(true))));
    assert_eq!(int(flight, "anomalies"), 0);
    println!("observe_probe: /healthz OK");

    let runs = get_json(addr, "/runs");
    let reports = array(&runs, "reports");
    assert_eq!(reports.len(), 1, "exactly the probe's solve");
    let report = &reports[0];
    assert!(matches!(report.get("converged"), Some(Config::Bool(true))));
    assert!(array(report, "anomalies").is_empty());
    let matrix = report.get("matrix").expect("annotated with the system");
    assert_eq!(int(matrix, "nnz"), stage.nnz as i64);
    assert!(!array(report, "kernels").is_empty());
    let seen = stage.solver.observations().flight.expect("facade report");
    assert!(seen.converged && seen.anomalies.is_empty());
    assert_eq!(
        seen.seq as i64,
        int(report, "seq"),
        "the facade sees the same report"
    );
    println!("observe_probe: /runs OK (zero-anomaly report)");

    stage.finish();
    println!("observe_probe: health stage passed");
}

/// Single rooted tree, resolvable parents, and per-dispatch chunk tiling of
/// a scraped `/traces/<id>` document.
fn validate_tree(doc: &Config, lanes: i64) {
    let spans = array(doc, "spans");
    let kind = |s: &Config| {
        s.get("kind")
            .and_then(Config::as_str)
            .expect("kind")
            .to_string()
    };
    let mut ids = std::collections::BTreeSet::new();
    for s in spans {
        assert!(
            ids.insert(int(s, "id")),
            "duplicate span id {}",
            int(s, "id")
        );
    }
    let roots: Vec<_> = spans.iter().filter(|s| int(s, "parent") == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(
        int(roots[0], "id"),
        int(doc, "root"),
        "root matches the report's root field"
    );
    assert_eq!(kind(roots[0]), "solve");
    for s in spans {
        let parent = int(s, "parent");
        assert!(
            parent == 0 || ids.contains(&parent),
            "dangling parent {parent}"
        );
        if let Some(lane) = s.get("lane").and_then(Config::as_int) {
            assert_eq!(kind(s), "chunk", "only chunk spans carry a lane");
            assert!((0..lanes).contains(&lane), "lane {lane} out of range");
        }
    }
    let dispatches: Vec<_> = spans
        .iter()
        .filter(|s| kind(s) == "pool_dispatch")
        .collect();
    assert!(!dispatches.is_empty(), "pooled solve emitted no dispatches");
    let mut chunk_total = 0usize;
    for d in &dispatches {
        let mut indices: Vec<i64> = spans
            .iter()
            .filter(|s| kind(s) == "chunk" && int(s, "parent") == int(d, "id"))
            .map(|s| int(s, "index"))
            .collect();
        indices.sort_unstable();
        let expected: Vec<i64> = (0..int(d, "index")).collect();
        assert_eq!(
            indices,
            expected,
            "chunk spans must tile dispatch {}",
            int(d, "id")
        );
        chunk_total += indices.len();
    }
    println!(
        "observe_probe: tree OK — {} spans, {} dispatches, {} chunk spans, all tiled",
        spans.len(),
        dispatches.len(),
        chunk_total
    );
}

/// Asserts `text` obeys the folded-stacks grammar: every line is
/// `path(;path)* <integer>` with non-empty path segments. Returns the lines.
fn check_folded_grammar(text: &str) -> usize {
    for line in text.lines() {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("folded line lacks a count separator: {line:?}"));
        count
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("folded count is not an integer: {line:?}"));
        assert!(
            !stack.is_empty(),
            "folded line has an empty stack: {line:?}"
        );
        assert!(
            stack.split(';').all(|seg| !seg.is_empty()),
            "empty segment in {line:?}"
        );
    }
    text.lines().count()
}

/// Spans stage: asserts on tree and flame structure, not detector verdicts —
/// the wall-clock detectors fire spuriously on oversubscribed CI hosts with
/// a 16-lane pool, so they are neutralized. The full-grid solve assembles
/// ~300k spans, past the default per-trace cap (which exists for unattended
/// production use); the probe asserts zero truncation, so it raises the cap.
fn spans_stage() {
    let spans = pg::Observe {
        trace: Some(1),
        profile: true,
        ..pg::Observe::default()
    };
    let stage = Stage::start(16, spans, |config| ObserveConfig {
        flight: Some(DetectorConfig {
            drift_min_solves: u64::MAX,
            imbalance_ratio: f64::INFINITY,
        }),
        trace: Some(gko::TraceConfig {
            sample_n: 1,
            max_spans: 2_000_000,
        }),
        ..config
    });
    let addr = stage.server.addr();
    stage.solve();

    // --- the trace: facade, index, drill-down, chrome export, /runs link ---
    let seen = stage.solver.observations();
    let report = seen.trace.expect("sample_n=1 retains the solve");
    assert_eq!(report.run.solver, "solver::Cg");
    assert!(report.run.converged && report.run.iterations > 0);
    assert_eq!(report.truncated_spans, 0, "probe solve must not truncate");
    let trace_id = report.id() as i64;
    let index = get_json(addr, "/traces");
    assert!(matches!(index.get("armed"), Some(Config::Bool(true))));
    assert_eq!(int(&index, "drops_total"), 0);
    assert!(
        array(&index, "traces")
            .iter()
            .any(|e| int(e, "trace_id") == trace_id),
        "index lists the solve's trace"
    );
    let doc = get_json(addr, &format!("/traces/{trace_id}"));
    assert_eq!(int(&doc, "trace_id"), trace_id);
    let held = doc.get("run").expect("the trace holds its run");
    assert_eq!(
        int(held, "seq"),
        trace_id,
        "the run's number is the trace id"
    );
    assert_eq!(
        array(&doc, "spans").len(),
        report.spans.len(),
        "scrape matches the facade"
    );
    validate_tree(&doc, 16);
    let chrome = get_json(addr, &format!("/traces/{trace_id}?format=chrome"));
    assert!(
        !array(&chrome, "traceEvents").is_empty(),
        "chrome export has events"
    );
    let runs = get_json(addr, "/runs");
    let run = &array(&runs, "reports")[0];
    assert_eq!(int(run, "seq"), trace_id, "the newest run is the solve");
    assert_eq!(int(run, "trace_id"), trace_id, "/runs links the trace id");
    assert_eq!(
        array(run, "anomalies").len(),
        report.run.anomalies.len(),
        "same verdict"
    );
    assert_eq!(
        array(run, "anomalies").len(),
        array(held, "anomalies").len(),
        "one verdict over HTTP"
    );
    println!("observe_probe: /traces, chrome export and /runs linkage OK");

    // --- the flame profile: facade snapshot, JSON tree, folded stacks ---
    let snap = seen.profile.expect("profile observed");
    assert!(snap.solves >= 1, "solve folded into the flame tree");
    assert!(!snap.nodes.is_empty(), "flame tree is non-empty");
    let root = &snap.nodes[0];
    assert_eq!(
        (root.depth, root.kind.as_str(), root.name.as_str()),
        (0, "solve", "solver::Cg")
    );
    assert!(
        root.self_wall_ns <= root.wall_ns,
        "self time cannot exceed total time"
    );
    assert!(
        snap.nodes.len() <= MAX_FLAME_NODES,
        "window is bounded by the node cap"
    );
    assert!(
        snap.nodes.iter().any(|n| n.path.contains("csr")),
        "csr kernel spans surface as flame paths"
    );
    let flame = get_json(addr, "/profile");
    let roots = array(&flame, "roots");
    assert_eq!(roots[0].get("kind").and_then(Config::as_str), Some("solve"));
    assert!(int(&flame, "solves") >= 1, "/profile reports folded solves");
    let folded = get(addr, "/profile?format=folded");
    assert_eq!(
        check_folded_grammar(&folded),
        snap.nodes.len(),
        "one folded line per node"
    );
    println!(
        "observe_probe: /profile OK ({} nodes, folded grammar holds)",
        snap.nodes.len()
    );

    // --- HEAD parity on every route ---
    let content_length = |headers: &[String]| -> usize {
        let value = headers
            .iter()
            .find_map(|h| h.strip_prefix("content-length:"));
        value
            .and_then(|v| v.trim().parse().ok())
            .expect("Content-Length header")
    };
    let trace_path = format!("/traces/{trace_id}");
    for path in [
        "/metrics",
        "/healthz",
        "/runs",
        "/traces",
        trace_path.as_str(),
        "/profile",
        "/profile?format=folded",
        "/nope",
    ] {
        let (get_status, get_headers, get_body) = http(addr, "GET", path);
        let (head_status, head_headers, head_body) = http(addr, "HEAD", path);
        assert_eq!(head_status, get_status, "HEAD status parity on {path}");
        assert!(head_body.is_empty(), "HEAD {path} must not carry a body");
        // The GET length must match its own body; the HEAD length is a
        // fresh snapshot so it may differ slightly, but must be nonzero.
        assert_eq!(
            content_length(&get_headers),
            get_body.len(),
            "GET length on {path}"
        );
        assert!(
            content_length(&head_headers) > 0,
            "HEAD {path} advertises a length"
        );
    }
    println!("observe_probe: HEAD parity OK");

    // --- /profile/diff: 400 without base, 404 on unknown, 200 on known ---
    assert_eq!(
        http(addr, "GET", "/profile/diff").0,
        "HTTP/1.1 400 Bad Request"
    );
    assert_eq!(
        http(addr, "GET", "/profile/diff?base=nope").0,
        "HTTP/1.1 404 Not Found"
    );
    stage
        .dev
        .executor()
        .observer()
        .commit_profile_baseline("main");
    // More solves after the baseline so the diff has growth to report.
    stage.solve();
    stage.solve();
    let diff = get_json(addr, "/profile/diff?base=main");
    assert_eq!(diff.get("base").and_then(Config::as_str), Some("main"));
    let grew = |r: &Config| {
        r.get("delta_pct")
            .and_then(Config::as_float)
            .is_some_and(|d| d > 0.0)
    };
    assert!(
        array(&diff, "rows").iter().any(grew),
        "post-baseline solves must show self-time growth"
    );
    println!(
        "observe_probe: /profile/diff OK ({} rows)",
        array(&diff, "rows").len()
    );

    // --- /metrics: strict exposition + the span planes' series ---
    let metrics = get(addr, "/metrics");
    prom::validate(&metrics).unwrap_or_else(|e| panic!("/metrics violates the format: {e}"));
    for series in [
        "gko_trace_retained",
        "gko_trace_drops_total",
        "gko_profile_nodes",
        "gko_profile_evicted_total",
        "gko_profile_solves_total",
        "gko_build_info{",
        "gko_uptime_seconds",
    ] {
        assert!(
            metrics.contains(series),
            "/metrics is missing the {series} series"
        );
    }
    println!("observe_probe: /metrics OK (strict validator + span-plane series)");

    // --- a run sampled out links nothing ---
    let exec = stage.dev.executor();
    exec.observe(ObserveConfig {
        trace: Some(gko::TraceConfig {
            sample_n: 1_000_000,
            max_spans: 2_000_000,
        }),
        ..exec.observing()
    });
    let small = poisson2d("poisson2d", 8, 8);
    let m = pg::SparseMatrix::from_triplets(
        &stage.dev,
        (small.rows, small.cols),
        &small.triplets,
        "double",
        "int32",
        "Csr",
    )
    .expect("assemble small matrix");
    let b = pg::as_tensor_fill(&stage.dev, (small.rows, 1), "double", 1.0).expect("rhs");
    let mut x = pg::as_tensor_fill(&stage.dev, (small.rows, 1), "double", 0.0).expect("x0");
    let small_cg = pg::solver::cg(&stage.dev, &m, None, 200, 1e-8).expect("build cg");
    assert!(small_cg.apply(&b, &mut x).expect("solve").converged());
    let runs = get_json(addr, "/runs");
    let newest = &array(&runs, "reports")[0];
    let seq = int(newest, "seq");
    assert!(seq > trace_id, "the small solve is the newest run");
    assert!(
        newest.get("trace_id").is_none(),
        "a sampled-out run carries no trace_id"
    );
    let (status, _, _) = http(addr, "GET", &format!("/traces/{seq}"));
    assert_eq!(status, "HTTP/1.1 404 Not Found", "its tree was dropped");
    println!("observe_probe: sampled-out run {seq} links no trace");

    stage.finish();
    println!("observe_probe: spans stage passed");
}

fn main() {
    detector_self_tests();
    health_stage();
    spans_stage();
    println!("observe_probe: shutdown clean — all checks passed");
}
