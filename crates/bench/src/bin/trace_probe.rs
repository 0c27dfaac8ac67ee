//! End-to-end probe of causal span tracing, run by `scripts/check_trace.sh`.
//!
//! Drives an armed CG solve on a 2D Poisson matrix (~1.8M nnz on the full
//! 600x600 grid, a small grid under `PYGKO_BENCH_QUICK=1`) on an omp-16
//! device through the pyGinkgo facade with `with_tracing(1)` and the HTTP
//! exporter serving, then scrapes `/traces` and `/traces/<id>` over a raw
//! `TcpStream` and checks the whole contract:
//!
//! * the facade's `trace_report()` and the scraped `/traces/<id>` document
//!   agree on the same trace;
//! * the span parent links form a single rooted tree (unique ids, exactly
//!   one root, every parent resolvable);
//! * the chunk spans parented under every `pool_dispatch` span exactly tile
//!   `0..chunk_count` — no chunk lost, none duplicated, across lanes and
//!   steals;
//! * `?format=chrome` renders a parseable Chrome-trace document;
//! * the `/runs` entry for the solve links back to the trace id;
//! * shutdown is clean (the port stops accepting).
//!
//! Any violated expectation panics, which exits nonzero for the CI script.
//!
//! `cargo run --release -p pygko-bench --bin trace_probe`

use gko::config::Config;
use gko::telemetry::DetectorConfig;
use pygko_bench::quick_mode;
use pygko_matgen::generators::poisson2d;
use pyginkgo as pg;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: probe\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    (head.lines().next().unwrap_or("").to_string(), body.to_string())
}

/// One span as scraped from the `/traces/<id>` JSON document.
struct JsonSpan {
    id: i64,
    parent: i64,
    kind: String,
    index: i64,
    lane: Option<i64>,
}

fn parse_spans(doc: &Config) -> Vec<JsonSpan> {
    doc.get("spans")
        .and_then(Config::as_array)
        .expect("spans array")
        .iter()
        .map(|s| JsonSpan {
            id: s.get("id").and_then(Config::as_int).expect("span id"),
            parent: s.get("parent").and_then(Config::as_int).expect("parent"),
            kind: s
                .get("kind")
                .and_then(Config::as_str)
                .expect("kind")
                .to_string(),
            index: s.get("index").and_then(Config::as_int).expect("index"),
            lane: s.get("lane").and_then(Config::as_int),
        })
        .collect()
}

/// The probe's core checks: single rooted tree, resolvable parents, and
/// per-dispatch chunk tiling.
fn validate_tree(spans: &[JsonSpan], root: i64, lanes: i64) {
    let mut ids = std::collections::BTreeSet::new();
    for s in spans {
        assert!(ids.insert(s.id), "duplicate span id {}", s.id);
    }
    let roots: Vec<_> = spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(roots[0].id, root, "root matches the report's root field");
    assert_eq!(roots[0].kind, "solve");
    for s in spans {
        if s.parent != 0 {
            assert!(
                ids.contains(&s.parent),
                "span {} has dangling parent {}",
                s.id,
                s.parent
            );
        }
        if let Some(lane) = s.lane {
            assert_eq!(s.kind, "chunk", "only chunk spans carry a lane");
            assert!((0..lanes).contains(&lane), "lane {lane} out of range");
        }
    }
    let dispatches: Vec<_> = spans.iter().filter(|s| s.kind == "pool_dispatch").collect();
    assert!(!dispatches.is_empty(), "pooled solve emitted no dispatches");
    let mut chunk_total = 0usize;
    for d in &dispatches {
        let mut indices: Vec<i64> = spans
            .iter()
            .filter(|s| s.kind == "chunk" && s.parent == d.id)
            .map(|s| s.index)
            .collect();
        indices.sort_unstable();
        let expected: Vec<i64> = (0..d.index).collect();
        assert_eq!(
            indices, expected,
            "chunk spans must tile dispatch {} (chunks={})",
            d.id, d.index
        );
        chunk_total += indices.len();
    }
    println!(
        "trace_probe: tree OK — {} spans, {} dispatches, {} chunk spans, all tiled",
        spans.len(),
        dispatches.len(),
        chunk_total
    );
}

fn main() {
    let grid = if quick_mode() { 120 } else { 600 };
    let gen = poisson2d("poisson2d", grid, grid);
    let (rows, nnz) = (gen.rows, gen.nnz());
    println!("trace_probe: poisson2d_{grid} ({rows} rows, {nnz} nnz), omp-16");

    let dev = pg::device_with_id("omp", 16).expect("omp device");
    // This probe asserts on tracing structure, not detector verdicts: the
    // wall-clock detectors fire spuriously on oversubscribed CI hosts with
    // a 16-lane pool, so they are neutralized before tracing arms the
    // recorder (`with_tracing` keeps a recorder config already in force).
    dev.executor().observe(gko::ObserveConfig {
        flight: Some(DetectorConfig {
            drift_min_solves: u64::MAX,
            imbalance_ratio: f64::INFINITY,
            ..DetectorConfig::default()
        }),
        ..gko::ObserveConfig::default()
    });
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
        .with_tracing(1)
        .expect("arm tracing");
    // The full-grid solve assembles ~300k spans — past the default
    // per-trace cap, which exists for unattended production use. The probe
    // asserts zero truncation, so re-arm (idempotent) with a larger budget.
    dev.executor().observe(gko::ObserveConfig {
        trace: Some(gko::TraceConfig {
            sample_n: 1,
            max_spans: 2_000_000,
            ..gko::TraceConfig::default()
        }),
        ..dev.executor().observing()
    });
    let server = dev
        .executor()
        .serve_telemetry("127.0.0.1:0")
        .expect("start exporter");
    let addr = server.addr();
    println!("trace_probe: serving on http://{addr} (try: curl http://{addr}/traces)");

    let b = pg::as_tensor_fill(&dev, (rows, 1), "double", 1.0).expect("rhs");
    let mut x = pg::as_tensor_fill(&dev, (rows, 1), "double", 0.0).expect("x0");
    let logger = solver.apply(&b, &mut x).expect("solve");
    assert!(
        logger.converged(),
        "reference solve must converge (stopped after {} iterations)",
        logger.iterations()
    );
    println!(
        "trace_probe: CG converged in {} iterations (residual {:.3e})",
        logger.iterations(),
        logger.final_residual()
    );

    // --- the facade report ---
    let report = solver.trace_report().expect("sample_n=1 retains the solve");
    assert_eq!(report.annotation, "solver::Cg");
    assert!(report.converged);
    assert!(report.iterations > 0);
    assert_eq!(report.truncated_spans, 0, "probe solve must not truncate");
    let trace_id = report.trace_id;
    println!(
        "trace_probe: facade trace {} — {} spans over {} iterations",
        trace_id,
        report.spans.len(),
        report.iterations
    );

    // --- /traces index ---
    let (status, body) = http_get(addr, "/traces");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let index = Config::from_json(&body).expect("/traces is valid JSON");
    assert!(matches!(index.get("armed"), Some(Config::Bool(true))));
    assert_eq!(index.get("drops_total").and_then(Config::as_int), Some(0));
    let entries = index
        .get("traces")
        .and_then(Config::as_array)
        .expect("traces array");
    assert!(
        entries
            .iter()
            .any(|e| e.get("trace_id").and_then(Config::as_int) == Some(trace_id as i64)),
        "index lists the solve's trace"
    );
    println!("trace_probe: /traces OK ({} retained)", entries.len());

    // --- /traces/<id> drill-down ---
    let (status, body) = http_get(addr, &format!("/traces/{trace_id}"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    let doc = Config::from_json(&body).expect("/traces/<id> is valid JSON");
    assert_eq!(
        doc.get("trace_id").and_then(Config::as_int),
        Some(trace_id as i64)
    );
    let root = doc.get("root").and_then(Config::as_int).expect("root id");
    let spans = parse_spans(&doc);
    assert_eq!(spans.len(), report.spans.len(), "scrape matches the facade");
    validate_tree(&spans, root, 16);

    // --- Chrome-trace export ---
    let (status, chrome) = http_get(addr, &format!("/traces/{trace_id}?format=chrome"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    let chrome = Config::from_json(&chrome).expect("chrome export is valid JSON");
    let events = chrome
        .get("traceEvents")
        .and_then(Config::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "chrome export has events");
    println!("trace_probe: chrome export OK ({} events)", events.len());

    // --- /runs linkage ---
    let (status, runs) = http_get(addr, "/runs");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let doc = Config::from_json(&runs).expect("/runs is valid JSON");
    let reports = doc
        .get("reports")
        .and_then(Config::as_array)
        .expect("reports array");
    assert!(
        reports
            .iter()
            .any(|r| r.get("trace_id").and_then(Config::as_int) == Some(trace_id as i64)),
        "/runs links the trace id"
    );
    println!("trace_probe: /runs linkage OK");

    server.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "port must stop accepting after shutdown"
    );
    println!("trace_probe: shutdown clean — all checks passed");
}
