//! `bench --summarize <raw.jsonl>`: the arithmetic behind `repeat.sh`.
//!
//! Each input line is `{"set": n, "workload": w, "seed": s, "result": <the
//! result line of that run>}`. For every (workload, end-to-end metric) the
//! summary gives min, max, `(max - min) / min` over the sets and the quartile
//! spread `(q3 - q1) / median`, next to the bound `BENCHMARK.json` fixes, and
//! the raw sets are written to `results/repeatability.json`.
//!
//! The verdict is the driver's acceptance rule: a metric's quartile spread must
//! stay within its bound, `setup_s` excepted (it is printed, not judged).

use crate::run::benchmark_dir;
use crate::stats;
use gko::config::Config;
use std::collections::BTreeMap;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Bound of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Res<BTreeMap<String, f64>> {
    let text = std::fs::read_to_string(benchmark_dir().join("../BENCHMARK.json"))?;
    let manifest = Config::from_json(&text)?;
    let metrics = manifest
        .get("end_to_end")
        .and_then(Config::as_array)
        .ok_or("BENCHMARK.json has no end_to_end array")?;
    let mut out = BTreeMap::new();
    for m in metrics {
        let name = m
            .get("name")
            .and_then(Config::as_str)
            .ok_or("metric without name")?;
        let bound = m
            .get("bound")
            .and_then(Config::as_float)
            .ok_or("metric without bound")?;
        out.insert(name.to_owned(), bound);
    }
    Ok(out)
}

/// One row of the summary.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload the runs were of.
    pub workload: String,
    /// End-to-end metric.
    pub metric: String,
    /// Values, one per set.
    pub values: Vec<f64>,
    /// Bound from `BENCHMARK.json`.
    pub bound: f64,
}

impl Row {
    /// `(max - min) / min`: the widest disagreement between two sets.
    pub fn range(&self) -> f64 {
        stats::relative_spread(&self.values)
    }

    /// `(q3 - q1) / median` over the sets (0 for a single set).
    pub fn quartile_spread(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        stats::quartile_spread(&self.values)
    }

    /// Whether the sets agree as the driver requires.
    pub fn within_bound(&self) -> bool {
        self.metric == "setup_s" || self.quartile_spread() <= self.bound
    }
}

/// Groups the raw lines into one row per (workload, metric).
pub fn rows(raw: &str, bounds: &BTreeMap<String, f64>) -> Res<Vec<Row>> {
    let mut grouped: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in raw.lines().filter(|l| !l.trim().is_empty()) {
        let run = Config::from_json(line)?;
        let workload = run
            .get("workload")
            .and_then(Config::as_str)
            .ok_or("no workload")?;
        let Some(Config::Map(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err("run without metrics".into());
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Config::as_float)
                .ok_or("no value")?;
            grouped
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    grouped
        .into_iter()
        .map(|((workload, metric), values)| {
            let bound = *bounds
                .get(&metric)
                .ok_or_else(|| format!("{metric} is not an end-to-end metric"))?;
            Ok(Row {
                workload,
                metric,
                values,
                bound,
            })
        })
        .collect()
}

/// Prints the table, writes `results/repeatability.json`, and says whether
/// every metric's sets agree within its bound.
pub fn summarize(raw_path: &str) -> Res<bool> {
    let raw = std::fs::read_to_string(raw_path)?;
    let rows = rows(&raw, &bounds()?)?;
    println!(
        "{:<14} {:<30} {:>3} {:>13} {:>13} {:>8} {:>8} {:>6}",
        "workload", "metric", "n", "min", "max", "range", "iqr/med", "bound"
    );
    let mut summary = Vec::new();
    let mut all_within = true;
    for row in &rows {
        let (lo, hi) = (
            stats::min(&row.values),
            row.values.iter().copied().fold(f64::NAN, f64::max),
        );
        let spread = row.quartile_spread();
        let flag = if row.within_bound() { "" } else { "  OVER" };
        all_within &= row.within_bound();
        println!(
            "{:<14} {:<30} {:>3} {lo:>13.6} {hi:>13.6} {:>8.4} {spread:>8.4} {:>6.2}{flag}",
            row.workload,
            row.metric,
            row.values.len(),
            row.range(),
            row.bound
        );
        summary.push(format!(
            "{{\"workload\":\"{}\",\"metric\":\"{}\",\"min\":{lo:?},\"max\":{hi:?},\"range\":{:?},\"quartile_spread\":{spread:?},\"bound\":{:?}}}",
            row.workload,
            row.metric,
            row.range(),
            row.bound
        ));
    }
    let runs: Vec<&str> = raw.lines().filter(|l| !l.trim().is_empty()).collect();
    let out = benchmark_dir().join("results").join("repeatability.json");
    std::fs::create_dir_all(out.parent().expect("results directory"))?;
    std::fs::write(
        &out,
        format!(
            "{{\"summary\":[\n{}\n],\n\"runs\":[\n{}\n]}}\n",
            summary.join(",\n"),
            runs.join(",\n")
        ),
    )?;
    println!("raw sets written to {}", out.display());
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(set: u32, workload: &str, cg: f64) -> String {
        format!(
            "{{\"set\":{set},\"workload\":\"{workload}\",\"seed\":1,\"result\":{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"cg_solve_s\":{{\"value\":{cg:?},\"unit\":\"s\"}}}}}}}}"
        )
    }

    #[test]
    fn rows_group_by_workload_and_metric_and_compare_against_the_bound() {
        let raw = [
            line(1, "krylov", 0.100),
            line(1, "spmv", 0.002),
            line(2, "krylov", 0.104),
            line(2, "spmv", 0.003),
        ]
        .join("\n");
        let bounds = BTreeMap::from([("cg_solve_s".to_owned(), 0.10)]);
        let rows = rows(&raw, &bounds).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].workload, "krylov");
        assert_eq!(rows[0].values, vec![0.100, 0.104]);
        assert!((rows[0].range() - 0.04).abs() < 1e-12);
        assert!(rows[0].within_bound());
        assert!(!rows[1].within_bound(), "0.002 and 0.003 spread 60 %");
        let setup = Row {
            metric: "setup_s".to_owned(),
            ..rows[1].clone()
        };
        assert!(setup.within_bound(), "setup_s is printed, not judged");
    }

    #[test]
    fn a_metric_without_a_bound_is_an_error() {
        let raw = line(1, "krylov", 0.1);
        assert!(rows(&raw, &BTreeMap::new()).is_err());
    }
}
