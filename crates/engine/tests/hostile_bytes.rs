//! Fixed-seed byte-mutation loops over the two parsers that face outside
//! bytes: the telemetry server's request reader, fed over loopback, and the
//! JSON config parser with the config-solver factory behind it. Whatever
//! the bytes, the server answers with a status line and the parser and the
//! factory return (`Ok` or a typed `Err`): never a panic, never a hang.
//!
//! Case `k` depends only on `k`, so a failure names a case that any machine
//! reproduces. Each loop always runs its minimum and then keeps going while
//! it is inside `BUDGET` (up to its maximum), like the Matrix Market
//! reader's loop in `crates/mtx/tests/mutation.rs`.

use gko::config::{config_solve, Config};
use gko::matrix::{Csr, Dense};
use gko::solver::Cg;
use gko::{Dim2, Executor, LinOp};
use pygko_sim::rng::Xoshiro256pp;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUDGET: Duration = Duration::from_millis(1_000);

/// Case `case`: one of `seeds` with one to three random edits drawn from
/// `alphabet` (bit flip, insertion, removal, truncation, or a duplicated
/// line), a function of `case` alone.
fn mutate(seeds: &[&str], alphabet: &[u8], case: u64) -> Vec<u8> {
    let mut rng = Xoshiro256pp::seed_from_u64(0x9E37_79B9_7F4A_7C15 ^ case);
    let mut doc = seeds[(case % seeds.len() as u64) as usize]
        .as_bytes()
        .to_vec();
    for _ in 0..1 + rng.below_usize(3) {
        if doc.is_empty() {
            break;
        }
        let at = rng.below_usize(doc.len());
        match rng.below_usize(5) {
            0 => doc[at] ^= 1 << rng.below_usize(8),
            1 => doc.insert(at, alphabet[rng.below_usize(alphabet.len())]),
            2 => {
                doc.remove(at);
            }
            3 => doc.truncate(at),
            _ => {
                let start = doc[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |p| p + 1);
                let end = doc[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(doc.len(), |p| at + p + 1);
                let line = doc[start..end].to_vec();
                doc.splice(start..start, line);
            }
        }
    }
    doc
}

/// The 1D Poisson matrix of `n` rows.
fn poisson(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
    let mut triplets = Vec::new();
    for i in 0..n {
        triplets.push((i, i, 4.0));
        if i > 0 {
            triplets.push((i, i - 1, -1.0));
            triplets.push((i - 1, i, -1.0));
        }
    }
    Arc::new(Csr::from_triplets(exec, Dim2::square(n), &triplets).unwrap())
}

/// Runs `check` on cases `0..` until at least `min` ran and, counting from
/// `start`, the budget or `max` is spent; returns the number of cases.
fn time_boxed(start: Instant, min: u64, max: u64, mut check: impl FnMut(u64)) -> u64 {
    let mut cases = 0;
    while cases < min || (cases < max && start.elapsed() < BUDGET) {
        check(cases);
        cases += 1;
    }
    cases
}

/// Valid request heads over every route the server answers.
const REQUESTS: [&str; 8] = [
    "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n",
    "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    "HEAD /runs?limit=2 HTTP/1.1\r\nHost: t\r\n\r\n",
    "GET /traces HTTP/1.1\r\nHost: t\r\n\r\n",
    "GET /traces/1?format=chrome HTTP/1.1\r\nHost: t\r\n\r\n",
    "GET /profile?format=folded HTTP/1.1\r\nHost: t\r\n\r\n",
    "GET /profile/diff?base=start HTTP/1.1\r\nHost: t\r\n\r\n",
    "GET /profile HTTP/1.1\r\nAccept: */*\r\nHost: t\r\n\r\n",
];

/// Bytes an HTTP edit draws from: what request heads are made of, plus
/// bytes that are not UTF-8.
const HTTP_ALPHABET: &[u8] = b"GETHADP /?=&%:.\r\n\t0123456789abcdefz\x00\x7f\xff\xc3";

/// Sends `request` and reads the whole response: `Err` names what went
/// wrong on the wire.
fn exchange(addr: SocketAddr, request: &[u8]) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // A hang shows up as a timeout, not as a stuck test.
    let timeout = Some(Duration::from_secs(10));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    stream
        .shutdown(Shutdown::Write)
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(String::from_utf8_lossy(&raw).into_owned())
}

/// True when `response` opens with an HTTP/1.1 status line.
fn has_status_line(response: &str) -> bool {
    let line = response.lines().next().unwrap_or("");
    let code = line.strip_prefix("HTTP/1.1 ").unwrap_or("");
    code.len() > 4 && code.as_bytes()[..3].iter().all(u8::is_ascii_digit) && &code[3..4] == " "
}

#[test]
fn mutated_requests_always_get_a_status_line() {
    let exec = Executor::omp(2);
    exec.observe(gko::ObserveConfig {
        trace: Some(gko::TraceConfig {
            sample_n: 1,
            ..gko::TraceConfig::default()
        }),
        profile: true,
        ..gko::ObserveConfig::default()
    });
    exec.observer().commit_profile_baseline("start");
    // One traced solve, so `/traces/1` exists.
    let b = Dense::<f64>::filled(&exec, Dim2::new(16, 1), 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(16, 1));
    Cg::new(poisson(&exec, 16))
        .unwrap()
        .apply(&b, &mut x)
        .unwrap();
    let server = exec.serve_telemetry("127.0.0.1:0").unwrap();
    let addr = server.addr();
    for request in REQUESTS {
        let response = exchange(addr, request.as_bytes()).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 200 OK"),
            "{request:?}: {response}"
        );
    }
    let mut statuses = std::collections::BTreeSet::new();
    let cases = time_boxed(Instant::now(), 300, 3_000, |case| {
        let request = mutate(&REQUESTS, HTTP_ALPHABET, case);
        let shown = || String::from_utf8_lossy(&request).into_owned();
        match exchange(addr, &request) {
            Ok(response) if has_status_line(&response) => {
                statuses.insert(response[9..12].to_string());
            }
            Ok(response) => panic!(
                "case {case}: no status line for {:?}: {response:?}",
                shown()
            ),
            Err(why) => panic!("case {case}: {why} for {:?}", shown()),
        }
    });
    // The loop must reach more than one answer, not reject everything.
    for code in ["200", "400", "404"] {
        assert!(
            statuses.contains(code),
            "{cases} cases, statuses {statuses:?}"
        );
    }
    let health = exchange(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    server.shutdown();
}

/// Valid config documents: every solver family, preconditioner and
/// criterion the factory builds, and JSON's own literals and escapes.
const CONFIGS: [&str; 6] = [
    "{\n\"type\": \"solver::Gmres\",\n\"krylov_dim\": 30,\n\"preconditioner\": {\"type\": \"preconditioner::Jacobi\", \"max_block_size\": 1},\n\"criteria\": [\n{\"type\": \"Iteration\", \"max_iters\": 1000},\n{\"type\": \"ResidualNorm\", \"reduction_factor\": 1e-06}\n]\n}\n",
    "{\n\"type\": \"solver::Cg\",\n\"preconditioner\": {\"type\": \"preconditioner::Ilu\"},\n\"criteria\": [{\"type\": \"AbsoluteResidualNorm\", \"tolerance\": 0.5e-8}]\n}\n",
    "{\"type\": \"solver::Direct\", \"preconditioner\": null}\n",
    "{\n\"type\": \"solver::Bicgstab\",\n\"preconditioner\": {\"type\": \"preconditioner::Jacobi\", \"max_block_size\": 4},\n\"criteria\": [{\"type\": \"Iteration\", \"max_iters\": 20}]\n}\n",
    "{\n\"type\": \"solver::Ir\",\n\"relaxation_factor\": -0.25,\n\"preconditioner\": {\"type\": \"preconditioner::Ic\"},\n\"note\": \"caf\\u00e9 \\\"quoted\\\" \\\\ \\n\",\n\"flags\": [true, false, null, 1.5E+2]\n}\n",
    "{\"type\": \"solver::Minres\", \"criteria\": [{\"type\": \"Iteration\", \"max_iters\": 0}, {\"type\": \"ResidualNorm\", \"reduction_factor\": 1}]}\n",
];

/// Bytes a JSON edit draws from: the grammar's punctuation, digits,
/// literal and escape letters, plus bytes that are not UTF-8.
const JSON_ALPHABET: &[u8] = b"{}[]\":,0123456789.-+eE \n\\utfnlr\x00\xff\xc3\xa9";

#[test]
fn mutated_configs_parse_and_build_or_fail_typed() {
    let exec = Executor::reference();
    let matrix = poisson(&exec, 16);
    for seed in CONFIGS {
        let config = Config::from_json(seed).expect("seed documents parse");
        config_solve(matrix.clone(), &config).expect("seed documents build");
    }
    let (mut parsed, mut built) = (0u64, 0u64);
    let cases = time_boxed(Instant::now(), 5_000, 100_000, |case| {
        let doc = mutate(&CONFIGS, JSON_ALPHABET, case);
        let text = String::from_utf8_lossy(&doc);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let config = Config::from_json(&text).ok()?;
            Some(config_solve(matrix.clone(), &config).is_ok())
        }));
        match outcome {
            Err(_) => panic!("case {case}: panicked on {text:?}"),
            Ok(Some(ok)) => {
                parsed += 1;
                built += ok as u64;
            }
            Ok(None) => {}
        }
    });
    // The loop must exercise every outcome, not reject everything.
    assert!(
        parsed > 0 && built > 0 && built < parsed && parsed < cases,
        "{cases} cases, {parsed} parsed, {built} built"
    );
}
