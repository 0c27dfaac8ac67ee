//! What a run reports, and the result line the driver reads.

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run reports on its last line.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The metrics of the run kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations whose call errored, did not converge, or missed the oracle.
    pub failed: u64,
}

impl Report {
    /// Counts one operation and whether it was correct.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Formats a number so that it parses as JSON and keeps every digit.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no NaN or infinity; a metric that could not be measured
        // must not look like a measurement.
        "null".to_owned()
    }
}

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.metrics.iter().all(|m| m.value.is_finite()),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let report = Report {
            metrics: vec![
                Metric::new("cg_solve_s", 0.25, "s"),
                Metric::new("setup_s", 1.5e-7, "s"),
            ],
            attempted: 12,
            failed: 0,
        };
        let line = result_line(&report);
        let json = gko::config::Config::from_json(&line).expect("valid JSON");
        assert_eq!(json.get("attempted").and_then(|v| v.as_int()), Some(12));
        assert_eq!(json.get("failed").and_then(|v| v.as_int()), Some(0));
        let cg = json
            .get("metrics")
            .and_then(|m| m.get("cg_solve_s"))
            .unwrap();
        assert_eq!(cg.get("value").and_then(|v| v.as_float()), Some(0.25));
        assert_eq!(cg.get("unit").and_then(|v| v.as_str()), Some("s"));
        assert!(line.contains("\"correct\": true"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_failed_operation_or_unmeasured_metric_is_not_correct() {
        let mut report = Report {
            metrics: vec![Metric::new("setup_s", 1.0, "s")],
            attempted: 3,
            failed: 1,
        };
        assert!(result_line(&report).contains("\"correct\": false"));
        report.failed = 0;
        report.metrics[0].value = f64::NAN;
        let line = result_line(&report);
        assert!(line.contains("\"correct\": false") && line.contains("null"));
    }
}
