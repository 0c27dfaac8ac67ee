//! Std-only HTTP exporter for the telemetry plane.
//!
//! A [`TelemetryServer`] owns a `std::net::TcpListener` drained by a
//! blocking accept loop on a named thread (`gko-telemetry`). Seven
//! endpoints, all `GET` (with `HEAD` honored on every route: identical
//! status and headers, no body), all `Connection: close`:
//!
//! * `/metrics` — Prometheus text exposition (metrics snapshot + per-lane
//!   pool utilization + flight, trace, profile, and build/uptime gauges);
//! * `/healthz` — executor/pool liveness and sanitizer/tracer/profiler arm
//!   state, as JSON;
//! * `/runs` — the retained flight reports, newest first, as JSON. `?limit=N` caps the count (default
//!   `DEFAULT_RUNS_LIMIT`); reports carry a
//!   `trace_id` linking to their span tree when tracing was armed;
//! * `/traces` — index of the tail-sampled trace store (trace_id,
//!   annotation, duration, anomaly kinds, retention reason);
//! * `/traces/<id>` — one full span tree as JSON, or as a Chrome-trace
//!   document with `?format=chrome`;
//! * `/profile` — the continuous profiler's live flame aggregate as a
//!   nested JSON tree, or as `flamegraph.pl`-compatible folded stacks with
//!   `?format=folded` (one `path;path;... <self_wall_ns>` line per node);
//! * `/profile/diff?base=<name>` — differential profile of the flame tree
//!   against a baseline committed via
//!   [`Observer::commit_profile_baseline`](crate::Observer::commit_profile_baseline),
//!   rows ranked by self-time regression.
//!
//! Requests are served sequentially — every response is a cheap immutable
//! snapshot, so there is nothing to win by handing connections to a pool —
//! and the server never touches solver threads: scraping is wait-free for
//! the engine. Shutdown (explicit or on drop) flips a flag and wakes the
//! accept loop with a loopback connection, then joins the thread.

use crate::base::error::{GkoError, Result};
use crate::config::json;
use crate::executor::Executor;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest request head (request line + headers) the server reads.
const MAX_REQUEST_BYTES: usize = 8192;

/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Handle to a running telemetry exporter (see the module docs). Dropping
/// the handle stops the server.
pub struct TelemetryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>, // atomic: flag
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer")
            .field("addr", &self.addr)
            .field("running", &self.handle.is_some())
            .finish()
    }
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9185"`, port `0` for an OS-assigned
    /// port) and starts serving `exec`'s telemetry.
    pub(crate) fn bind(exec: Executor, addr: &str) -> Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| GkoError::BadInput(format!("telemetry: cannot bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| GkoError::BadInput(format!("telemetry: no local addr: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::Builder::new()
            .name("gko-telemetry".to_string())
            .spawn(move || accept_loop(listener, exec, flag))
            .map_err(|e| {
                GkoError::BadInput(format!("telemetry: cannot spawn server thread: {e}"))
            })?;
        Ok(TelemetryServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shutdown.store(true, Ordering::Release);
            // Wake the blocking `accept` so the loop observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, exec: Executor, shutdown: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Ok(stream) = conn {
            // A misbehaving client only affects its own connection.
            let _ = handle_connection(stream, &exec);
        }
    }
}

/// One response before it is written.
struct Reply {
    status: &'static str,
    content_type: &'static str,
    body: String,
}

impl Reply {
    fn json(status: &'static str, body: String) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A JSON error document: `{"error": "<message>"<extra>}`.
    fn error(status: &'static str, message: &str, extra: &str) -> Reply {
        Reply::json(status, format!("{{\"error\": \"{message}\"{extra}}}\n"))
    }
}

fn handle_connection(mut stream: TcpStream, exec: &Executor) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = match read_request_head(&mut stream) {
        Some(head) => head,
        None => {
            let reply = Reply::error("400 Bad Request", "malformed request", "");
            let res = respond(&mut stream, &reply, false);
            // An oversized request may still be streaming in: drain it
            // (bounded) before closing, otherwise the kernel turns the
            // close into an RST that can discard the 400 response before
            // the client reads it.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            let mut sink = [0u8; 1024];
            let mut drained = 0usize;
            while drained < (1 << 20) {
                match stream.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => drained += n,
                }
            }
            return res;
        }
    };
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    // HEAD is GET minus the body: same routing, same status and headers
    // (including the true Content-Length), body suppressed at write time.
    let head_only = method == "HEAD";
    if method != "GET" && !head_only {
        let reply = Reply::error(
            "405 Method Not Allowed",
            "only GET and HEAD are supported",
            "",
        );
        return respond(&mut stream, &reply, false);
    }
    // The query string selects a representation, never a route:
    // `/metrics?x=y` scrapes `/metrics`.
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    respond(&mut stream, &route(exec, path, query), head_only)
}

/// The response to `GET path?query`.
fn route(exec: &Executor, path: &str, query: &str) -> Reply {
    let observer = exec.observer();
    match path {
        "/metrics" => Reply {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: super::render_prometheus(exec),
        },
        "/healthz" => Reply::json("200 OK", super::health_json(exec)),
        "/runs" => {
            let limit = query_param(query, "limit")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(super::recorder::DEFAULT_RUNS_LIMIT);
            Reply::json("200 OK", observer.runs_json(limit))
        }
        "/traces" => Reply::json("200 OK", observer.traces_json()),
        "/profile" if query_param(query, "format") == Some("folded") => Reply {
            status: "200 OK",
            content_type: "text/plain; charset=utf-8",
            body: observer.profile().folded(),
        },
        "/profile" => Reply::json(
            "200 OK",
            json::to_string_pretty(&observer.profile().to_config()),
        ),
        // Per-path self-time and call-count deltas of the live profiling
        // window against a committed baseline, ranked by regression.
        "/profile/diff" => {
            let Some(base_name) = query_param(query, "base") else {
                return Reply::error(
                    "400 Bad Request",
                    "missing base parameter; use /profile/diff?base=<name>",
                    "",
                );
            };
            match observer.profile_baseline(base_name) {
                Ok(base) => {
                    let diff = crate::profile::diff(&base, &observer.profile());
                    Reply::json("200 OK", json::to_string_pretty(&diff.to_config(base_name)))
                }
                Err(known) => {
                    let names: Vec<String> = known.iter().map(|n| format!("\"{n}\"")).collect();
                    let known = format!(", \"known\": [{}]", names.join(", "));
                    Reply::error("404 Not Found", "unknown baseline", &known)
                }
            }
        }
        _ => match path.strip_prefix("/traces/") {
            // The full span tree of one retained trace, as JSON or (with
            // `?format=chrome`) as a Chrome-trace document.
            Some(id) => match id.parse::<u64>().ok().and_then(|id| observer.trace(id)) {
                Some(report) if query_param(query, "format") == Some("chrome") => {
                    Reply::json("200 OK", report.to_chrome_trace())
                }
                Some(report) => Reply::json("200 OK", json::to_string_pretty(&report.to_config())),
                None => Reply::error(
                    "404 Not Found",
                    "unknown trace id (dropped by sampling, evicted, or never assigned)",
                    "",
                ),
            },
            None => Reply::error(
                "404 Not Found",
                "unknown path; try /metrics, /healthz, /runs, /traces, /profile",
                "",
            ),
        },
    }
}

/// Extracts `name`'s value from a raw query string (`a=1&b=2`).
fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

/// Reads until the end of the request head (`\r\n\r\n`) or the size cap and
/// returns the request line, or `None` when the request is malformed.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    // A head that hit the size cap without ever terminating is rejected
    // outright — a truncated request line must not be served as if it were
    // a (shorter) valid one.
    if !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        return None;
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next()?.trim().to_string();
    // A request line has exactly "METHOD TARGET VERSION".
    (line.split_whitespace().count() == 3).then_some(line)
}

/// Writes one response. `head_only` (a `HEAD` request) sends the exact
/// headers a `GET` would — including the true `Content-Length` — and
/// suppresses the body; every response carries `Connection: close`.
fn respond(stream: &mut TcpStream, reply: &Reply, head_only: bool) -> std::io::Result<()> {
    let header = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        reply.status,
        reply.content_type,
        reply.body.len()
    );
    stream.write_all(header.as_bytes())?;
    if !head_only {
        stream.write_all(reply.body.as_bytes())?;
    }
    stream.flush()
}
