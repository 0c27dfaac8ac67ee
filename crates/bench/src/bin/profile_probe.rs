//! End-to-end probe of the continuous profiling plane, run by
//! `scripts/check_profile.sh`.
//!
//! Drives a profiled CG solve on a 2D Poisson matrix (small grid under
//! `PYGKO_BENCH_QUICK=1`) on an omp-16 device through the pyGinkgo facade
//! with `with_profiling()` and the HTTP exporter serving, then scrapes the
//! profile endpoints over a raw `TcpStream` and checks the contract:
//!
//! * the facade's `profile()` snapshot and the scraped `/profile` JSON
//!   agree on a rooted, non-empty flame tree bounded by the node cap;
//! * `/profile?format=folded` obeys the folded-stacks grammar — every line
//!   is `path(;path)* <integer>`;
//! * `HEAD` on `/profile` returns the same status and `Content-Length` a
//!   `GET` would, with no body;
//! * `/profile/diff?base=<name>` against a committed baseline parses and
//!   carries a row per live path; a missing `base` parameter is a 400 and
//!   an unknown name a 404;
//! * `/metrics` passes the strict `telemetry::prom` validator and carries
//!   the `gko_profile_*`, `gko_build_info`, and `gko_uptime_seconds`
//!   series;
//! * shutdown is clean (the port stops accepting).
//!
//! Any violated expectation panics, which exits nonzero for the CI script.
//!
//! `cargo run --release -p pygko-bench --bin profile_probe`

use gko::config::Config;
use gko::telemetry::DetectorConfig;
use pygko_bench::quick_mode;
use pygko_matgen::generators::poisson2d;
use pyginkgo as pg;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn http_request(addr: SocketAddr, method: &str, path: &str) -> (String, Vec<String>, String) {
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
    let headers: Vec<String> = lines.map(|l| l.to_ascii_lowercase()).collect();
    (status, headers, body.to_string())
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let (status, _, body) = http_request(addr, "GET", path);
    (status, body)
}

fn content_length(headers: &[String]) -> usize {
    headers
        .iter()
        .find_map(|h| h.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length header")
}

/// Asserts `text` obeys the folded-stacks grammar: every non-empty line is
/// `path(;path)* <integer>` with non-empty path segments.
fn check_folded_grammar(text: &str) -> usize {
    let mut lines = 0usize;
    for line in text.lines() {
        let (stack, count) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("folded line lacks a count separator: {line:?}")
        });
        count
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("folded count is not an integer: {line:?}"));
        assert!(!stack.is_empty(), "folded line has an empty stack: {line:?}");
        for seg in stack.split(';') {
            assert!(!seg.is_empty(), "empty path segment in {line:?}");
        }
        lines += 1;
    }
    lines
}

fn main() {
    let grid = if quick_mode() { 120 } else { 600 };
    let gen = poisson2d("poisson2d", grid, grid);
    let (rows, nnz) = (gen.rows, gen.nnz());
    println!("profile_probe: poisson2d_{grid} ({rows} rows, {nnz} nnz), omp-16");

    let dev = pg::device_with_id("omp", 16).expect("omp device");
    // The probe asserts on flame structure, not detector verdicts: the
    // wall-clock detectors fire spuriously on oversubscribed CI hosts, so
    // they are neutralized before profiling arms tracing + recorder.
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
        .with_profiling();
    let server = dev
        .executor()
        .serve_telemetry("127.0.0.1:0")
        .expect("start exporter");
    let addr = server.addr();
    println!("profile_probe: serving on http://{addr} (try: curl http://{addr}/profile)");

    let b = pg::as_tensor_fill(&dev, (rows, 1), "double", 1.0).expect("rhs");
    let mut x = pg::as_tensor_fill(&dev, (rows, 1), "double", 0.0).expect("x0");
    let logger = solver.apply(&b, &mut x).expect("solve");
    assert!(logger.converged(), "probe solve must converge");
    println!(
        "profile_probe: CG converged in {} iterations (residual {:.3e})",
        logger.iterations(),
        logger.final_residual()
    );

    // --- the facade snapshot: rooted, non-empty, bounded ---
    let snap = solver.profile().expect("with_profiling was called");
    assert!(snap.solves >= 1, "solve folded into the live window");
    assert!(!snap.nodes.is_empty(), "flame tree is non-empty");
    assert_eq!(snap.nodes[0].depth, 0, "flattening starts at a root");
    assert_eq!(snap.nodes[0].kind, "solve", "tree is rooted at the solve span");
    assert_eq!(snap.nodes[0].name, "solver::Cg", "root carries the solver annotation");
    assert!(
        snap.nodes.len() <= snap.max_nodes,
        "store is bounded: {} nodes > cap {}",
        snap.nodes.len(),
        snap.max_nodes
    );
    assert!(
        snap.nodes.iter().any(|n| n.path.contains("csr")),
        "csr kernel spans surface as flame paths"
    );
    assert!(
        snap.nodes[0].self_wall_ns <= snap.nodes[0].wall_ns,
        "root self time cannot exceed its total time"
    );
    println!(
        "profile_probe: facade snapshot OK — {} nodes over {} solves",
        snap.nodes.len(),
        snap.solves
    );

    // --- GET /profile (JSON flame tree) ---
    let (status, body) = http_get(addr, "/profile");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let doc = Config::from_json(&body).expect("/profile is valid JSON");
    let roots = doc
        .get("roots")
        .and_then(Config::as_array)
        .expect("roots array");
    assert!(!roots.is_empty(), "/profile serves a non-empty tree");
    assert_eq!(
        roots[0].get("kind").and_then(Config::as_str),
        Some("solve"),
        "first root is a solve span"
    );
    assert!(
        doc.get("solves").and_then(Config::as_int).unwrap_or(0) >= 1,
        "/profile reports folded solves"
    );
    println!("profile_probe: /profile OK ({} roots)", roots.len());

    // --- GET /profile?format=folded (flamegraph.pl grammar) ---
    let (status, folded) = http_get(addr, "/profile?format=folded");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let folded_lines = check_folded_grammar(&folded);
    assert_eq!(
        folded_lines,
        snap.nodes.len(),
        "one folded line per flame node"
    );
    println!("profile_probe: folded grammar OK ({folded_lines} lines)");

    // --- HEAD parity on every route ---
    for path in ["/profile", "/profile?format=folded", "/metrics", "/healthz"] {
        let (get_status, get_headers, get_body) = http_request(addr, "GET", path);
        let (head_status, head_headers, head_body) = http_request(addr, "HEAD", path);
        assert_eq!(head_status, get_status, "HEAD status parity on {path}");
        assert!(head_body.is_empty(), "HEAD {path} must not carry a body");
        let head_len = content_length(&head_headers);
        // The GET body length must match its own header; the HEAD length is
        // a fresh snapshot so it may differ slightly, but must be nonzero.
        assert_eq!(content_length(&get_headers), get_body.len(), "GET length on {path}");
        assert!(head_len > 0, "HEAD {path} advertises a body length");
    }
    println!("profile_probe: HEAD parity OK");

    // --- /profile/diff: 400 without base, 404 on unknown, 200 on known ---
    let (status, _) = http_get(addr, "/profile/diff");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    let (status, _) = http_get(addr, "/profile/diff?base=nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    dev.executor().profile().commit_baseline("main");
    // More solves after the baseline so the diff has growth to report.
    for _ in 0..2 {
        let mut x2 = pg::as_tensor_fill(&dev, (rows, 1), "double", 0.0).expect("x0");
        solver.apply(&b, &mut x2).expect("solve");
    }
    let (status, diff_body) = http_get(addr, "/profile/diff?base=main");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let diff = Config::from_json(&diff_body).expect("/profile/diff is valid JSON");
    assert_eq!(diff.get("base").and_then(Config::as_str), Some("main"));
    let diff_rows = diff
        .get("rows")
        .and_then(Config::as_array)
        .expect("rows array");
    assert!(!diff_rows.is_empty(), "diff carries per-path rows");
    let has_growth = diff_rows.iter().any(|r| {
        r.get("delta_pct")
            .and_then(Config::as_float)
            .map(|d| d > 0.0)
            .unwrap_or(false)
    });
    assert!(has_growth, "post-baseline solves must show self-time growth");
    println!("profile_probe: /profile/diff OK ({} rows)", diff_rows.len());

    // --- /metrics: strict exposition + the new series ---
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    gko::telemetry::prom::validate(&metrics)
        .unwrap_or_else(|e| panic!("/metrics violates the exposition format: {e}"));
    for series in [
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
    println!("profile_probe: /metrics OK (strict validator + profile series)");

    server.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "port must stop accepting after shutdown"
    );
    println!("profile_probe: shutdown clean — all checks passed");
}
