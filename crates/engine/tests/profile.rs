//! Acceptance tests for the continuous profiling plane: concurrent
//! `/profile` + `/profile/diff` scrapes during an armed omp-16 batched
//! solve (no torn snapshots, folded grammar holds), profiler gauges on
//! `/metrics`, and the executor-level arming contract.

use gko::config::Config;
use gko::log::{Event, Logger};
use gko::matrix::{BatchCsr, BatchDense};
use gko::profile::MAX_FLAME_NODES;
use gko::solver::BatchCg;
use gko::stop::Criteria;
use gko::telemetry::prom;
use gko::{Dim2, Executor, LinOp, ObserveConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::{http_get, poisson_csr, quiet_detectors};

/// Profiling, with the timing-based detectors neutralized (they fire
/// spuriously on oversubscribed CI hosts).
fn profiled() -> ObserveConfig {
    ObserveConfig {
        flight: Some(quiet_detectors()),
        profile: true,
        ..ObserveConfig::default()
    }
}

/// Asserts the folded-stacks grammar: every line is `path(;path)* <count>`.
fn assert_folded_grammar(text: &str, context: &str) {
    for line in text.lines() {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("{context}: no count separator in {line:?}"));
        count
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("{context}: non-integer count in {line:?}"));
        assert!(!stack.is_empty(), "{context}: empty stack in {line:?}");
        for seg in stack.split(';') {
            assert!(!seg.is_empty(), "{context}: empty segment in {line:?}");
        }
    }
}

/// Recursively checks a `/profile` JSON subtree: every node carries the
/// required fields and children nest one level deeper.
fn assert_flame_node(node: &Config, context: &str) {
    for field in ["name", "kind", "path"] {
        assert!(
            node.get(field).and_then(Config::as_str).is_some(),
            "{context}: node lacks {field}"
        );
    }
    for field in ["calls", "wall_ns", "self_wall_ns", "p50_ns", "p99_ns"] {
        assert!(
            node.get(field).and_then(Config::as_int).is_some(),
            "{context}: node lacks {field}"
        );
    }
    let total = node.get("wall_ns").and_then(Config::as_int).unwrap();
    let own = node.get("self_wall_ns").and_then(Config::as_int).unwrap();
    assert!(own <= total, "{context}: self {own} exceeds total {total}");
    for child in node
        .get("children")
        .and_then(Config::as_array)
        .unwrap_or(&[])
    {
        assert_flame_node(child, context);
    }
}

/// Satellite: three scraper threads hammer `/profile`,
/// `/profile?format=folded`, and `/profile/diff?base=start` while batched
/// CG solves run profiled on an omp-16 executor. Every scrape must be a
/// complete well-formed document — no torn snapshots — and the folded
/// output must parse line by line.
#[test]
fn concurrent_profile_scrapes_during_armed_batched_solve() {
    let exec = Executor::omp(16);
    exec.observe(profiled());
    assert!(exec.observing().profile);
    assert!(
        exec.observing().trace.is_some(),
        "profiling must arm tracing (it consumes the span stream)"
    );
    // An empty-window baseline: every later path shows up as "new" in the
    // diff, which is exactly the torn-snapshot-or-not shape being tested.
    exec.observer().commit_profile_baseline("start");
    let server = exec.serve_telemetry("127.0.0.1:0").unwrap();
    let addr = server.addr();

    let done = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..3)
        .map(|id| {
            let done = done.clone();
            std::thread::spawn(move || {
                let mut scrapes = 0u32;
                while scrapes < 10 || !done.load(Ordering::Acquire) {
                    let (status, body) = http_get(addr, "/profile");
                    assert_eq!(status, "HTTP/1.1 200 OK", "scraper {id}");
                    let doc = Config::from_json(&body)
                        .unwrap_or_else(|e| panic!("scraper {id}: torn /profile: {e:?}\n{body}"));
                    for root in doc.get("roots").and_then(Config::as_array).unwrap_or(&[]) {
                        assert_flame_node(root, "scraper");
                    }
                    let (status, folded) = http_get(addr, "/profile?format=folded");
                    assert_eq!(status, "HTTP/1.1 200 OK", "scraper {id}");
                    assert_folded_grammar(&folded, "scraper");
                    let (status, diff) = http_get(addr, "/profile/diff?base=start");
                    assert_eq!(status, "HTTP/1.1 200 OK", "scraper {id}");
                    let diff = Config::from_json(&diff)
                        .unwrap_or_else(|e| panic!("scraper {id}: torn diff: {e:?}"));
                    assert_eq!(diff.get("base").and_then(Config::as_str), Some("start"));
                    assert!(diff.get("rows").and_then(Config::as_array).is_some());
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    let single = poisson_csr(&exec, 128);
    let batch = Arc::new(BatchCsr::replicated(&single, 6).unwrap());
    for _ in 0..8 {
        let mut b = BatchDense::<f64>::zeros(&exec, 6, Dim2::new(128, 1));
        b.fill(1.0);
        let mut x = BatchDense::<f64>::zeros(&exec, 6, Dim2::new(128, 1));
        let record = BatchCg::new(batch.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10))
            .apply_batch(&b, &mut x)
            .unwrap();
        assert!(record.all_converged());
    }
    done.store(true, Ordering::Release);
    for handle in scrapers {
        assert!(handle.join().unwrap() >= 10);
    }

    // Every batched solve was folded (the profiler sees solves the trace
    // store samples out, so the count is exact, not 1-in-sample_n).
    let snap = exec.observer().profile();
    assert_eq!(snap.solves, 8, "all armed solves folded: {}", snap.solves);
    assert!(!snap.nodes.is_empty());
    assert!(snap.nodes.len() <= MAX_FLAME_NODES);
    assert!(
        snap.nodes
            .iter()
            .any(|n| n.kind == "chunk" && !n.lanes.is_empty()),
        "chunk nodes carry per-lane attribution"
    );

    // The post-solve diff against the empty baseline reports every live
    // path as new growth.
    let (_, diff) = http_get(addr, "/profile/diff?base=start");
    let diff = Config::from_json(&diff).unwrap();
    let rows = diff.get("rows").and_then(Config::as_array).unwrap();
    assert_eq!(rows.len(), snap.nodes.len());
    assert!(rows
        .iter()
        .any(|r| r.get("delta_pct").and_then(Config::as_str) == Some("new")));

    // Profiler gauges are exposed on /metrics while armed, and the
    // document still passes the strict validator.
    let (_, metrics) = http_get(addr, "/metrics");
    prom::validate(&metrics).expect("strict exposition");
    for needle in [
        "# TYPE gko_profile_nodes gauge",
        "# TYPE gko_profile_evicted_total counter",
        "gko_profile_solves_total 8",
        "gko_build_info{",
        "# TYPE gko_uptime_seconds gauge",
    ] {
        assert!(
            metrics.contains(needle),
            "missing {needle:?} in:\n{metrics}"
        );
    }

    // /healthz carries the profiling block.
    let (_, health) = http_get(addr, "/healthz");
    let health = Config::from_json(&health).unwrap();
    let profiling = health.get("profiling").expect("profiling block");
    assert!(matches!(profiling.get("armed"), Some(Config::Bool(true))));
    assert_eq!(profiling.get("solves").and_then(Config::as_int), Some(8));

    server.shutdown();
    exec.observe(ObserveConfig::default());
    assert!(!exec.observing().profile);
}

/// A `/profile/diff` request without a base is a 400; an unknown baseline
/// is a 404 listing the known names; `/profile` before any solve serves an
/// empty (but valid) document.
#[test]
fn profile_diff_error_paths_and_empty_window() {
    let exec = Executor::reference();
    let server = exec.serve_telemetry("127.0.0.1:0").unwrap();
    let addr = server.addr();

    // Never armed: /profile still serves a valid empty tree.
    let (status, body) = http_get(addr, "/profile");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let doc = Config::from_json(&body).unwrap();
    assert_eq!(doc.get("solves").and_then(Config::as_int), Some(0));
    let (status, folded) = http_get(addr, "/profile?format=folded");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(folded.is_empty(), "empty window folds to an empty document");

    let (status, body) = http_get(addr, "/profile/diff");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("missing base"), "{body}");
    exec.observer().commit_profile_baseline("known");
    let (status, body) = http_get(addr, "/profile/diff?base=unknown");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(
        body.contains("\"known\""),
        "404 lists known baselines: {body}"
    );
    let (status, _) = http_get(addr, "/profile/diff?base=known");
    assert_eq!(status, "HTTP/1.1 200 OK");
    server.shutdown();
}

/// Executor-level arming contract: the node cap holds under real solves,
/// eviction is observable, and disarm/rearm keeps aggregates. A synthetic
/// solve with more distinct kernels than the cap has nodes fills the tree
/// first, so the real solve's new paths find no room.
#[test]
fn tiny_node_cap_bounds_real_solves() {
    let exec = Executor::omp(4);
    exec.observe(profiled());
    let observer = exec.observer();
    observer.on_event(&Event::LinOpApplyStarted { op: "solver::Fill" });
    for k in 0..MAX_FLAME_NODES {
        let op: &'static str = Box::leak(format!("kernel{k}").into_boxed_str());
        observer.on_event(&Event::LinOpApplyStarted { op });
        let done = Event::LinOpApplyCompleted {
            op,
            wall_ns: 1,
            virtual_ns: 0,
        };
        observer.on_event(&done);
    }
    observer.on_event(&Event::LinOpApplyCompleted {
        op: "solver::Fill",
        wall_ns: 1,
        virtual_ns: 0,
    });
    let full = observer.profile();
    assert_eq!(
        full.nodes.len(),
        MAX_FLAME_NODES,
        "the fill reached the cap"
    );
    assert!(full.evicted_nodes > 0);

    let a = Arc::new(poisson_csr(&exec, 256));
    let solver = gko::solver::Cg::new(a)
        .unwrap()
        .with_criteria(Criteria::iterations_and_reduction(512, 1e-10));
    let b = gko::matrix::Dense::<f64>::filled(&exec, Dim2::new(256, 1), 1.0);
    let mut x = gko::matrix::Dense::<f64>::zeros(&exec, Dim2::new(256, 1));
    solver.apply(&b, &mut x).unwrap();

    let snap = observer.profile();
    assert!(
        snap.nodes.len() <= MAX_FLAME_NODES,
        "cap respected: {} nodes",
        snap.nodes.len()
    );
    assert_eq!(snap.solves, 2);
    assert!(
        snap.evicted_nodes > full.evicted_nodes,
        "the real solve's paths had no room"
    );
    // Disarm the profiler alone (tracing stays): folds stop, aggregates
    // stay readable.
    exec.observe(ObserveConfig {
        profile: false,
        ..exec.observing()
    });
    assert!(exec.observing().trace.is_some());
    solver.apply(&b, &mut x).unwrap();
    assert_eq!(
        exec.observer().profile().solves,
        snap.solves,
        "disarmed solves not folded"
    );
}
