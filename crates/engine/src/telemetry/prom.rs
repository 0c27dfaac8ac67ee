//! Strict validator for the Prometheus text exposition format (0.0.4).
//!
//! Used by the concurrent-scrape tests and the `observe_probe` bench bin to
//! prove every `/metrics` response is well-formed — in particular that a
//! scrape racing live kernels never observes a torn snapshot. "Strict"
//! means structural rules beyond what most scrapers enforce:
//!
//! * every sample must belong to a family declared by a preceding `# TYPE`
//!   line (histogram families cover their `_bucket`/`_sum`/`_count` series);
//! * `# HELP`/`# TYPE` appear at most once per family, before its samples;
//! * metric and label names match the spec charset, label values use only
//!   the legal escapes (`\\`, `\"`, `\n`);
//! * counter samples are finite and non-negative;
//! * histogram buckets are cumulative (non-decreasing in `le` order), carry
//!   an `le="+Inf"` bucket, and that bucket equals the family's `_count`.

use std::collections::BTreeMap;

/// Validates `text` against the rules above. Returns the first violation as
/// a human-readable message naming the offending line.
pub fn validate(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helped: Vec<String> = Vec::new();
    let mut sampled: Vec<String> = Vec::new();
    let mut histograms: BTreeMap<String, HistogramCheck> = BTreeMap::new();

    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _help) = rest
                .split_once(' ')
                .map(|(a, b)| (a, Some(b)))
                .unwrap_or((rest, None));
            check_metric_name(name, n)?;
            if helped.iter().any(|h| h == name) {
                return Err(format!("line {n}: duplicate HELP for `{name}`"));
            }
            if sampled.iter().any(|s| s == name) {
                return Err(format!("line {n}: HELP for `{name}` after its samples"));
            }
            helped.push(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {n}: TYPE without a kind"))?;
            check_metric_name(name, n)?;
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(format!("line {n}: unknown metric type `{kind}`"));
            }
            if types.contains_key(name) {
                return Err(format!("line {n}: duplicate TYPE for `{name}`"));
            }
            if sampled.iter().any(|s| s == name) {
                return Err(format!("line {n}: TYPE for `{name}` after its samples"));
            }
            types.insert(name.to_string(), kind.to_string());
        } else if line.starts_with('#') {
            return Err(format!("line {n}: comment is neither HELP nor TYPE"));
        } else {
            let sample = parse_sample(line, n)?;
            let (family, suffix) = resolve_family(&sample.name, &types)
                .ok_or_else(|| format!("line {n}: sample `{}` has no TYPE", sample.name))?;
            if !sampled.iter().any(|s| s == &family) {
                sampled.push(family.clone());
            }
            let kind = types.get(&family).map(String::as_str).unwrap_or("untyped");
            if kind == "counter" && !(sample.value.is_finite() && sample.value >= 0.0) {
                return Err(format!(
                    "line {n}: counter `{}` has non-finite or negative value {}",
                    sample.name, sample.value
                ));
            }
            if kind == "histogram" {
                check_histogram_sample(&mut histograms, &family, &suffix, &sample, n)?;
            }
        }
    }
    for (group, check) in &histograms {
        if check.buckets_seen {
            let inf = check
                .inf_bucket
                .ok_or_else(|| format!("histogram series `{group}` lacks an le=\"+Inf\" bucket"))?;
            if let Some(count) = check.count {
                if (inf - count).abs() > f64::EPSILON * inf.abs().max(1.0) {
                    return Err(format!(
                        "histogram series `{group}`: le=\"+Inf\" bucket {inf} != _count {count}"
                    ));
                }
            }
        }
    }
    Ok(())
}

struct Sample {
    name: String,
    /// Label pairs in order of appearance.
    labels: Vec<(String, String)>,
    value: f64,
}

#[derive(Default)]
struct HistogramCheck {
    buckets_seen: bool,
    last_cumulative: f64,
    inf_bucket: Option<f64>,
    count: Option<f64>,
}

fn check_metric_name(name: &str, line: usize) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    let ok_rest = name
        .chars()
        .skip(1)
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    if ok_first && ok_rest {
        Ok(())
    } else {
        Err(format!("line {line}: invalid metric name `{name}`"))
    }
}

fn check_label_name(name: &str, line: usize) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    let ok_rest = name
        .chars()
        .skip(1)
        .all(|c| c.is_ascii_alphanumeric() || c == '_');
    if ok_first && ok_rest {
        Ok(())
    } else {
        Err(format!("line {line}: invalid label name `{name}`"))
    }
}

/// Splits a sample line into name, labels, and value, validating escapes.
fn parse_sample(line: &str, n: usize) -> Result<Sample, String> {
    let (name, rest) = match line.find(['{', ' ']) {
        Some(pos) => (&line[..pos], &line[pos..]),
        None => return Err(format!("line {n}: sample without a value")),
    };
    check_metric_name(name, n)?;
    let (labels, value_part) = if let Some(body) = rest.strip_prefix('{') {
        let close =
            find_label_end(body).ok_or_else(|| format!("line {n}: unterminated label block"))?;
        let labels = parse_labels(&body[..close], n)?;
        (labels, body[close + 1..].trim_start())
    } else {
        (Vec::new(), rest.trim_start())
    };
    // An optional timestamp may follow the value.
    let value_text = value_part.split_whitespace().next().unwrap_or("");
    let value = parse_value(value_text)
        .ok_or_else(|| format!("line {n}: unparsable sample value `{value_text}`"))?;
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Index of the closing `}` of a label block, honoring quoted values.
fn find_label_end(body: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
        } else if in_quotes && c == '\\' {
            escaped = true;
        } else if c == '"' {
            in_quotes = !in_quotes;
        } else if !in_quotes && c == '}' {
            return Some(i);
        }
    }
    None
}

fn parse_labels(body: &str, n: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {n}: label without `=`"))?;
        let name = &rest[..eq];
        check_label_name(name, n)?;
        let after = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("line {n}: label value must be quoted"))?;
        let (value, remaining) = take_quoted(after, n)?;
        labels.push((name.to_string(), value));
        rest = match remaining.strip_prefix(',') {
            Some(r) => r,
            None if remaining.is_empty() => remaining,
            None => {
                return Err(format!(
                    "line {n}: expected `,` between labels, found `{remaining}`"
                ))
            }
        };
    }
    Ok(labels)
}

/// Consumes a quoted label value (after the opening quote), validating that
/// only `\\`, `\"`, and `\n` escapes appear. Returns (unescaped value,
/// remainder after the closing quote).
fn take_quoted(body: &str, n: usize) -> Result<(String, &str), String> {
    let mut value = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((value, &body[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '\\')) => value.push('\\'),
                Some((_, '"')) => value.push('"'),
                Some((_, 'n')) => value.push('\n'),
                Some((_, other)) => {
                    return Err(format!(
                        "line {n}: illegal escape `\\{other}` in label value"
                    ))
                }
                None => return Err(format!("line {n}: dangling backslash in label value")),
            },
            '\n' => return Err(format!("line {n}: raw newline in label value")),
            c => value.push(c),
        }
    }
    Err(format!("line {n}: unterminated label value"))
}

fn parse_value(text: &str) -> Option<f64> {
    match text {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        t => t.parse::<f64>().ok().filter(|_| !t.is_empty()),
    }
}

/// Resolves a sample name to its declared family: an exact TYPE match, or a
/// histogram family covering the `_bucket`/`_sum`/`_count` suffixes.
fn resolve_family(name: &str, types: &BTreeMap<String, String>) -> Option<(String, String)> {
    if types.contains_key(name) {
        return Some((name.to_string(), String::new()));
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return Some((base.to_string(), suffix.to_string()));
            }
        }
    }
    None
}

fn check_histogram_sample(
    histograms: &mut BTreeMap<String, HistogramCheck>,
    family: &str,
    suffix: &str,
    sample: &Sample,
    n: usize,
) -> Result<(), String> {
    // Group by the family plus every label except `le`, so each labelled
    // series (e.g. one per kernel) is checked independently.
    let mut group = family.to_string();
    for (k, v) in &sample.labels {
        if k != "le" {
            group.push_str(&format!("|{k}={v}"));
        }
    }
    let check = histograms.entry(group).or_default();
    match suffix {
        "_bucket" => {
            let le = sample
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("line {n}: histogram bucket without an `le` label"))?;
            if check.buckets_seen && sample.value < check.last_cumulative {
                return Err(format!(
                    "line {n}: histogram bucket le=\"{le}\" not cumulative \
                     ({} after {})",
                    sample.value, check.last_cumulative
                ));
            }
            check.buckets_seen = true;
            check.last_cumulative = sample.value;
            if le == "+Inf" {
                check.inf_bucket = Some(sample.value);
            }
        }
        "_count" => check.count = Some(sample.value),
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_exposition() {
        let text = "\
# HELP gko_events_total Events observed.\n\
# TYPE gko_events_total counter\n\
gko_events_total 12\n\
# TYPE gko_kernel_wall_ns histogram\n\
gko_kernel_wall_ns_bucket{op=\"csr\",le=\"127\"} 1\n\
gko_kernel_wall_ns_bucket{op=\"csr\",le=\"+Inf\"} 2\n\
gko_kernel_wall_ns_sum{op=\"csr\"} 300\n\
gko_kernel_wall_ns_count{op=\"csr\"} 2\n";
        assert_eq!(validate(text), Ok(()));
    }

    #[test]
    fn rejects_sample_without_type() {
        let err = validate("orphan_metric 1\n").unwrap_err();
        assert!(err.contains("no TYPE"), "{err}");
    }

    #[test]
    fn rejects_type_after_samples() {
        let text = "# TYPE a counter\na 1\n# TYPE a gauge\n";
        assert!(validate(text).unwrap_err().contains("duplicate TYPE"));
        let text = "# TYPE a counter\na 1\n# HELP a late\n";
        assert!(validate(text).unwrap_err().contains("after its samples"));
    }

    #[test]
    fn rejects_illegal_escape_and_negative_counter() {
        let bad_escape = "# TYPE a counter\na{l=\"x\\t\"} 1\n";
        assert!(validate(bad_escape).unwrap_err().contains("illegal escape"));
        let negative = "# TYPE a counter\na -4\n";
        assert!(validate(negative).unwrap_err().contains("negative"));
        let legal = "# TYPE a counter\na{l=\"x\\\\y\\\"z\\n\"} 4\n";
        assert_eq!(validate(legal), Ok(()));
    }

    #[test]
    fn rejects_torn_histograms() {
        let non_cumulative = "\
# TYPE h histogram\n\
h_bucket{le=\"1\"} 5\n\
h_bucket{le=\"+Inf\"} 3\n";
        assert!(validate(non_cumulative)
            .unwrap_err()
            .contains("not cumulative"));
        let inf_mismatch = "\
# TYPE h histogram\n\
h_bucket{le=\"+Inf\"} 3\n\
h_count 4\n";
        assert!(validate(inf_mismatch).unwrap_err().contains("!= _count"));
        let missing_inf = "\
# TYPE h histogram\n\
h_bucket{le=\"1\"} 5\n";
        assert!(validate(missing_inf).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn histogram_groups_are_per_labelset() {
        // Two kernels interleaved: cumulative within each, not across.
        let text = "\
# TYPE h histogram\n\
h_bucket{op=\"a\",le=\"1\"} 100\n\
h_bucket{op=\"a\",le=\"+Inf\"} 100\n\
h_bucket{op=\"b\",le=\"1\"} 2\n\
h_bucket{op=\"b\",le=\"+Inf\"} 2\n";
        assert_eq!(validate(text), Ok(()));
    }
}
