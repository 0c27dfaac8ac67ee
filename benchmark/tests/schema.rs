//! `BENCHMARK.json` and the program agree: every workload and metric the file
//! names is emitted by a `--quick` run, with the unit the file gives, and
//! nothing unnamed is.

use gko::config::Config;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn manifest() -> Config {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    Config::from_json(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(manifest: &Config, key: &str) -> BTreeMap<String, String> {
    manifest
        .get(key)
        .and_then(Config::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Config::as_str).expect(f).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs `bench --quick` and returns the parsed last line of its output.
fn quick_run(workload: &str, trace: &str) -> Config {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("bench runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(
        output.status.success(),
        "bench failed on {workload}: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    Config::from_json(stdout.lines().last().expect("a result line")).expect("result line parses")
}

fn emitted(result: &Config) -> BTreeMap<String, String> {
    let Some(Config::Map(metrics)) = result.get("metrics") else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Config::as_float).is_some(),
                "{name} has a numeric value"
            );
            let unit = m.get("unit").and_then(Config::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_named_metrics() {
    let manifest = manifest();
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(Config::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Config::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(workloads, ["spmv", "krylov", "storm", "cold_pipeline"]);
    let end_to_end = names_and_units(&manifest, "end_to_end");
    let per_layer = names_and_units(&manifest, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    for name in end_to_end.keys() {
        assert!(!per_layer.contains_key(name), "{name} is named twice");
    }

    for workload in &workloads {
        let result = quick_run(workload, "0");
        assert_eq!(
            emitted(&result),
            end_to_end,
            "end-to-end names on {workload}"
        );
        assert_eq!(result.get("failed").and_then(Config::as_int), Some(0));
        assert!(result.get("attempted").and_then(Config::as_int).unwrap() >= 1);
    }
    // The per-layer set does not depend on the workload; one traced run of
    // the cheapest and one of the costliest cover both span shapes.
    for workload in ["storm", "cold_pipeline"] {
        let result = quick_run(workload, "1");
        assert_eq!(emitted(&result), per_layer, "per-layer names on {workload}");
        assert_eq!(result.get("failed").and_then(Config::as_int), Some(0));
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", "nope"])
        .output()
        .expect("bench runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
