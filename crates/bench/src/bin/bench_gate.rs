//! Benchmark regression gate: diffs `results/BENCH_spmv.json` against the
//! committed `results/BASELINE_spmv.json` and exits nonzero on slowdown.
//!
//! Both files are written by `spmv_formats` (virtual-time fields are
//! deterministic, so an honest rerun reproduces the baseline exactly) and
//! parsed back with the engine's own JSON parser. Every baseline record,
//! keyed by `(matrix, format, strategy, executor)`, must be present in the
//! candidate and satisfy
//!
//! ```text
//! candidate.virtual_seconds <= tolerance * baseline.virtual_seconds
//! ```
//!
//! and the same band is applied to each kernel's `virtual_p99_ns` in the
//! per-executor metrics sections, and to the `plan_build_ns` /
//! `apply_reused_ns` / `apply_rebuilt_ns` columns of the plan-reuse
//! ablation when the baseline carries them. The `trace_overhead` section's
//! wall-clock rows (inert/armed ns-per-iteration and their ratio) compare
//! under the separate `BENCH_GATE_TRACE_TOLERANCE` band. Missing records
//! fail the gate, so a format or executor silently dropped from the sweep
//! is caught too.
//!
//! The gate also refuses a candidate whose per-executor metrics carry a
//! nonzero `anomalies_total` — a sweep that tripped a flight-recorder
//! detector is not a clean benchmark run. Baselines written before that
//! field existed stay comparable (only candidate values are inspected).
//!
//! When any row regresses and both sides carry a folded flame profile
//! (the candidate's `profiles_folded` section and the committed
//! `results/BASELINE_profile.json`), the gate performs differential
//! attribution: per-span-path self-time deltas, ranked, the top 3 printed
//! as `ATTRIBUTED <path> +41%` lines — naming the offending code path
//! instead of leaving a bare ratio. Attribution is advisory (wall-clock
//! self times are noisy); it never changes the exit code by itself.
//!
//! Environment knobs:
//!
//! * `BENCH_GATE_TOLERANCE` — allowed slowdown ratio (default 1.25). The
//!   virtual clock is deterministic, but the band leaves room for honest
//!   cost-model retuning; raise it deliberately when the model changes.
//! * `BENCH_GATE_TRACE_TOLERANCE` — allowed slowdown ratio for the
//!   `trace_overhead` rows (default 5.0). Those are wall-clock figures —
//!   the tracing overhead being measured is real work the virtual clock
//!   cannot see — so the band is deliberately generous; its job is to
//!   catch the inert tracing path growing from "one relaxed load" into
//!   something structural, not scheduler noise.
//! * `BENCH_GATE_INJECT` — multiplies every candidate timing, simulating a
//!   uniform slowdown. `BENCH_GATE_INJECT=2.0` must make the gate fail —
//!   `scripts/check_bench.sh` uses this as a self-test of the gate itself.
//! * `PROFILE_INJECT` — multiplies the candidate's folded-profile self
//!   time by 100 for every span path containing the given substring,
//!   simulating one kernel going 100x slow. `PROFILE_INJECT=csr` must
//!   surface a csr path as the top attributed regression —
//!   `scripts/check_observe.sh` uses this as a self-test of attribution.
//!
//! Usage: `bench_gate [baseline.json [candidate.json [baseline_profile.json]]]`
//! (all default to the `results/` directory).

use gko::config::Config;
use pygko_bench::results_dir;
use std::path::PathBuf;

/// One comparable timing: identity key, baseline value, candidate value.
struct Check {
    key: String,
    metric: &'static str,
    baseline: f64,
    candidate: f64,
}

fn env_f64(name: &str, default: f64) -> f64 {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bench_gate: bad {name}='{v}' (expected a number)");
            std::process::exit(2);
        }),
    }
}

fn load(path: &PathBuf) -> Config {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    Config::from_json(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: {} is not valid JSON: {e}", path.display());
        std::process::exit(2);
    })
}

fn str_field(c: &Config, key: &str) -> String {
    c.get(key)
        .and_then(Config::as_str)
        .unwrap_or_default()
        .to_string()
}

/// Flattens a document into `(key, metric, value)` rows: one
/// `virtual_seconds` per timing record and one `virtual_p99_ns` per
/// (executor, kernel) metrics entry.
fn flatten(doc: &Config) -> Vec<(String, &'static str, f64)> {
    let mut rows = Vec::new();
    for r in doc.get("records").and_then(Config::as_array).unwrap_or(&[]) {
        let key = format!(
            "{}/{}/{}/{}",
            str_field(r, "matrix"),
            str_field(r, "format"),
            str_field(r, "strategy"),
            str_field(r, "executor"),
        );
        if let Some(secs) = r.get("virtual_seconds").and_then(Config::as_float) {
            rows.push((key, "virtual_seconds", secs));
        }
    }
    for m in doc.get("metrics").and_then(Config::as_array).unwrap_or(&[]) {
        let exec = str_field(m, "executor");
        for k in m.get("kernels").and_then(Config::as_array).unwrap_or(&[]) {
            let key = format!("metrics/{exec}/{}", str_field(k, "op"));
            if let Some(p99) = k.get("virtual_p99_ns").and_then(Config::as_float) {
                rows.push((key, "virtual_p99_ns", p99));
            }
        }
    }
    // Plan-reuse ablation (absent from baselines predating the plan cache;
    // comparisons are baseline-driven, so old files stay fully comparable).
    if let Some(p) = doc.get("plan_ablation") {
        let key = format!(
            "plan_ablation/{}/{}/{}/{}",
            str_field(p, "matrix"),
            str_field(p, "format"),
            str_field(p, "strategy"),
            str_field(p, "executor"),
        );
        for metric in ["plan_build_ns", "apply_reused_ns", "apply_rebuilt_ns"] {
            if let Some(v) = p.get(metric).and_then(Config::as_float) {
                rows.push((key.clone(), metric, v));
            }
        }
    }
    // Batched-solver section (absent from baselines predating batched
    // formats; comparisons are baseline-driven, so old files stay fully
    // comparable).
    if let Some(b) = doc.get("batched") {
        let key = format!(
            "batched/{}/{}",
            str_field(b, "matrix"),
            str_field(b, "executor"),
        );
        for metric in ["per_system_batched_ns", "per_system_loop_ns"] {
            if let Some(v) = b.get(metric).and_then(Config::as_float) {
                rows.push((key.clone(), metric, v));
            }
        }
    }
    // Trace-overhead section (absent from baselines predating span tracing;
    // comparisons are baseline-driven, so old files stay fully comparable).
    // These rows are wall-clock and compare under the dedicated trace band.
    if let Some(t) = doc.get("trace_overhead") {
        let key = format!(
            "trace_overhead/{}/{}/{}/{}",
            str_field(t, "matrix"),
            str_field(t, "format"),
            str_field(t, "strategy"),
            str_field(t, "executor"),
        );
        for metric in [
            "inert_wall_ns_per_iter",
            "armed_wall_ns_per_iter",
            "profiled_wall_ns_per_iter",
            "armed_over_inert",
            "profiled_over_inert",
        ] {
            if let Some(v) = t.get(metric).and_then(Config::as_float) {
                rows.push((key.clone(), metric, v));
            }
        }
    }
    rows
}

/// True for rows compared under `BENCH_GATE_TRACE_TOLERANCE` instead of the
/// main band: the wall-clock trace/profile-overhead figures.
fn is_trace_metric(metric: &str) -> bool {
    matches!(
        metric,
        "inert_wall_ns_per_iter"
            | "armed_wall_ns_per_iter"
            | "profiled_wall_ns_per_iter"
            | "armed_over_inert"
            | "profiled_over_inert"
    )
}

/// Extracts a document's folded flame profile as `(path, self_wall_ns)`
/// rows, or an empty list when the section is absent.
fn folded_paths(doc: &Config) -> Vec<(String, f64)> {
    let Some(Config::Map(paths)) = doc
        .get("profiles_folded")
        .and_then(|p| p.get("paths"))
    else {
        return Vec::new();
    };
    paths
        .iter()
        .filter_map(|(path, v)| v.as_float().map(|ns| (path.clone(), ns)))
        .collect()
}

/// Differential attribution: per-path self-time growth of the candidate
/// profile over the baseline profile, worst first. Paths new in the
/// candidate rank by absolute self time (no baseline to divide by); paths
/// that vanished are ignored — a kernel that stopped running cannot be the
/// regression.
fn attribute(base: &[(String, f64)], cand: &[(String, f64)]) -> Vec<(String, f64, f64, f64)> {
    let mut rows: Vec<(String, f64, f64, f64)> = cand
        .iter()
        .map(|(path, c)| {
            let b = base
                .iter()
                .find(|(p, _)| p == path)
                .map(|&(_, v)| v)
                .unwrap_or(0.0);
            let delta_pct = if b > 0.0 {
                (c - b) / b * 100.0
            } else {
                f64::INFINITY
            };
            (path.clone(), b, *c, delta_pct)
        })
        .collect();
    rows.sort_by(|a, b| {
        b.3.partial_cmp(&a.3)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                (b.2 - b.1)
                    .partial_cmp(&(a.2 - a.1))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.0.cmp(&b.0))
    });
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = args
        .get(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("BASELINE_spmv.json"));
    let candidate_path = args
        .get(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("BENCH_spmv.json"));
    let profile_baseline_path = args
        .get(3)
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("BASELINE_profile.json"));
    let tolerance = env_f64("BENCH_GATE_TOLERANCE", 1.25);
    let trace_tolerance = env_f64("BENCH_GATE_TRACE_TOLERANCE", 5.0);
    let inject = env_f64("BENCH_GATE_INJECT", 1.0);
    let profile_inject = std::env::var("PROFILE_INJECT").ok();

    println!(
        "bench_gate: {} vs {} (tolerance {tolerance}x, trace {trace_tolerance}x{})",
        candidate_path.display(),
        baseline_path.display(),
        if inject != 1.0 {
            format!(", injected slowdown {inject}x")
        } else {
            String::new()
        }
    );

    let baseline = flatten(&load(&baseline_path));
    let candidate_doc = load(&candidate_path);
    let candidate = flatten(&candidate_doc);
    if baseline.is_empty() {
        eprintln!("bench_gate: baseline has no comparable rows");
        std::process::exit(2);
    }

    // Flight-recorder verdict: a candidate executor section with a nonzero
    // anomaly count fails the gate outright.
    let mut anomalous: Vec<String> = Vec::new();
    for m in candidate_doc
        .get("metrics")
        .and_then(Config::as_array)
        .unwrap_or(&[])
    {
        let n = m
            .get("anomalies_total")
            .and_then(Config::as_int)
            .unwrap_or(0);
        if n > 0 {
            anomalous.push(format!("{} ({n} anomalies)", str_field(m, "executor")));
        }
    }
    if let Some(b) = candidate_doc.get("batched") {
        let n = b
            .get("anomalies_total")
            .and_then(Config::as_int)
            .unwrap_or(0);
        if n > 0 {
            anomalous.push(format!("batched sweep ({n} anomalies)"));
        }
    }

    let mut checks: Vec<Check> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    for (key, metric, base) in baseline {
        match candidate
            .iter()
            .find(|(k, m, _)| *k == key && *m == metric)
        {
            None => missing.push(format!("{key} [{metric}]")),
            Some(&(_, _, cand)) => checks.push(Check {
                key,
                metric,
                baseline: base,
                candidate: cand * inject,
            }),
        }
    }

    let mut regressions: Vec<&Check> = Vec::new();
    for c in &checks {
        // A zero baseline (e.g. the reference executor's pool counters)
        // only requires the candidate to stay zero-ish within tolerance of
        // nothing: treat any positive candidate against a zero baseline as
        // equal — those rows carry no timing signal.
        let band = if is_trace_metric(c.metric) {
            trace_tolerance
        } else {
            tolerance
        };
        let ok = if c.baseline == 0.0 {
            true
        } else {
            c.candidate <= band * c.baseline
        };
        if !ok {
            regressions.push(c);
        }
    }

    println!(
        "bench_gate: {} rows compared, {} missing, {} regressed, {} anomalous",
        checks.len(),
        missing.len(),
        regressions.len(),
        anomalous.len()
    );
    for m in &missing {
        eprintln!("  MISSING   {m}");
    }
    for c in &regressions {
        let band = if is_trace_metric(c.metric) {
            trace_tolerance
        } else {
            tolerance
        };
        eprintln!(
            "  REGRESSED {} [{}]: {:.3e} -> {:.3e} ({:.2}x > {band}x allowed)",
            c.key,
            c.metric,
            c.baseline,
            c.candidate,
            c.candidate / c.baseline
        );
    }
    for a in &anomalous {
        eprintln!("  ANOMALOUS {a}");
    }

    // Differential attribution: once something regressed, name the span
    // paths whose self time grew the most. Advisory only — wall-clock self
    // times are noisy, so attribution ranks but never gates.
    if !regressions.is_empty() || !missing.is_empty() {
        let base_profile = std::fs::read_to_string(&profile_baseline_path)
            .ok()
            .and_then(|t| Config::from_json(&t).ok())
            .map(|doc| folded_paths(&doc))
            .unwrap_or_default();
        let mut cand_profile = folded_paths(&candidate_doc);
        if let Some(needle) = &profile_inject {
            for (path, ns) in cand_profile.iter_mut() {
                if path.contains(needle.as_str()) {
                    *ns *= 100.0;
                }
            }
        }
        if base_profile.is_empty() || cand_profile.is_empty() {
            eprintln!(
                "  (no differential attribution: profile baseline {} or candidate \
                 profiles_folded section missing)",
                profile_baseline_path.display()
            );
        } else {
            eprintln!("  top regressed span paths (self-time vs profile baseline):");
            for (path, base_ns, cand_ns, delta_pct) in
                attribute(&base_profile, &cand_profile).into_iter().take(3)
            {
                if delta_pct.is_finite() {
                    eprintln!(
                        "  ATTRIBUTED {path} {}{:.0}% ({:.3e} -> {:.3e} ns)",
                        if delta_pct >= 0.0 { "+" } else { "" },
                        delta_pct,
                        base_ns,
                        cand_ns
                    );
                } else {
                    eprintln!("  ATTRIBUTED {path} new ({cand_ns:.3e} ns, no baseline)");
                }
            }
        }
    }

    if !missing.is_empty() || !regressions.is_empty() || !anomalous.is_empty() {
        std::process::exit(1);
    }
    println!("bench_gate: OK");
}
