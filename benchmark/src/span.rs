//! Harness-side spans: one per call into the library, recorded from outside.
//!
//! Spans are kept in memory and written when the benchmark ends. A disabled
//! [`Tracer`] runs the closure and records nothing, so the untraced run pays
//! one branch per call. In-program tracing is a later change; nothing here
//! touches `Executor::enable_*` or `Solver::with_*`.

use std::collections::BTreeMap;
use std::time::Instant;

/// Structural span names: their self time is harness glue (tensor set-up,
/// loop control, the gaps between library calls) and is reported as
/// `unattributed`, never as a layer.
pub const STRUCTURAL: [&str; 3] = ["workload", "setup", "operation"];

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary crossed (`read`, `apply`, ...) or a structural name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one operation (0 outside any).
    pub op: u64,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on the harness thread.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: u64,
    current_op: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            ops: 0,
            current_op: 0,
        }
    }

    /// Runs `f` inside a span called `name`, child of the innermost open one.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.current_op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Runs `f` as one operation: an `operation` span with a fresh id that
    /// every span opened inside it shares.
    pub fn operation<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.ops += 1;
        let outer = std::mem::replace(&mut self.current_op, self.ops);
        let out = self.scope("operation", f);
        self.current_op = outer;
        out
    }

    /// The finished spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover. Children are clipped to the parent, so a child can
/// never take more than the parent has.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per-layer account of a trace that closes by construction:
/// `sum(layers) + unattributed == total`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTable {
    /// Layer name -> (calls, self time in ns).
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// Self time of the structural spans: time inside no library call.
    pub unattributed_ns: u64,
    /// Summed duration of the root spans.
    pub total_ns: u64,
}

impl LayerTable {
    /// Folds spans into the table; `roots` restricts it to the subtrees under
    /// spans of that name (all root spans when `None`).
    pub fn build(spans: &[Span], roots: Option<&'static str>) -> Self {
        let selfs = self_times(spans);
        // A span is inside the selection when it or an ancestor is a root.
        let mut inside = vec![false; spans.len()];
        let mut table = LayerTable::default();
        for (i, span) in spans.iter().enumerate() {
            let is_root = match roots {
                Some(name) => span.name == name,
                None => span.parent.is_none(),
            };
            let parent_inside = span.parent.is_some_and(|p| inside[p]);
            inside[i] = is_root || parent_inside;
            if is_root && !parent_inside {
                table.total_ns += span.duration_ns();
            }
            if !inside[i] {
                continue;
            }
            if STRUCTURAL.contains(&span.name) {
                table.unattributed_ns += selfs[i];
            } else {
                let entry = table.layers.entry(span.name).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += selfs[i];
            }
        }
        table
    }

    /// Self time attributed to named layers.
    pub fn attributed_ns(&self) -> u64 {
        self.layers.values().map(|&(_, ns)| ns).sum()
    }

    /// Whether the account closes exactly.
    pub fn closes(&self) -> bool {
        self.attributed_ns() + self.unattributed_ns == self.total_ns
    }

    /// Human-readable table, one layer per line plus the remainder.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        let pct = |ns: u64| 100.0 * ns as f64 / self.total_ns.max(1) as f64;
        for (name, &(calls, ns)) in &self.layers {
            out.push_str(&format!(
                "  {name:<14} calls {calls:>6}  self {:>12.3} ms  {:>6.2} %\n",
                ns as f64 / 1e6,
                pct(ns)
            ));
        }
        out.push_str(&format!(
            "  {:<14} {:>12}  self {:>12.3} ms  {:>6.2} %\n",
            "unattributed",
            "",
            self.unattributed_ns as f64 / 1e6,
            pct(self.unattributed_ns)
        ));
        out.push_str(&format!(
            "  {:<14} {:>12}       {:>12.3} ms  closes: {}\n",
            "total",
            "",
            self.total_ns as f64 / 1e6,
            self.closes()
        ));
        out
    }
}

/// Serialises spans as Chrome trace events (`chrome://tracing`, Perfetto):
/// complete events (`ph: "X"`) with microsecond timestamps, the operation id
/// and parent index in `args`.
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.op
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("operation", 0, 100, None),
            span("read", 10, 40, Some(0)),
            span("apply", 50, 90, Some(0)),
            span("inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn children_never_take_more_than_the_parent_has() {
        // A child that (through clock trouble) sticks out of its parent is
        // clipped, so the parent's self time cannot go negative.
        let spans = [
            span("operation", 10, 20, None),
            span("apply", 5, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn layer_table_closes_and_separates_structural_self_time() {
        let spans = [
            span("workload", 0, 1000, None),
            span("operation", 100, 500, Some(0)),
            span("read", 110, 200, Some(1)),
            span("apply", 250, 480, Some(1)),
            span("operation", 600, 900, Some(0)),
            span("apply", 610, 890, Some(4)),
        ];
        let table = LayerTable::build(&spans, None);
        assert_eq!(table.total_ns, 1000);
        assert_eq!(table.layers["read"], (1, 90));
        assert_eq!(table.layers["apply"], (2, 230 + 280));
        // workload self 300 + operation selfs 80 and 20.
        assert_eq!(table.unattributed_ns, 400);
        assert!(table.closes());

        let ops = LayerTable::build(&spans, Some("operation"));
        assert_eq!(ops.total_ns, 400 + 300);
        assert_eq!(ops.unattributed_ns, 100);
        assert!(ops.closes());
    }

    #[test]
    fn tracer_nests_scopes_and_shares_operation_ids() {
        let mut tr = Tracer::on();
        tr.scope("workload", |tr| {
            tr.operation(|tr| {
                tr.scope("read", |_| ());
                tr.scope("apply", |_| ());
            });
            tr.operation(|tr| tr.scope("apply", |_| ()));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[1].op, spans[2].op, spans[3].op), (1, 1, 1));
        assert_eq!((spans[4].op, spans[5].op), (2, 2));
        assert_eq!(spans[0].op, 0);
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                assert!(s.start_ns >= spans[p].start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        assert!(LayerTable::build(spans, None).closes());
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_closure() {
        let mut tr = Tracer::off();
        let v = tr.operation(|tr| tr.scope("apply", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = [
            span("operation", 0, 2000, None),
            span("apply", 500, 1500, Some(0)),
        ];
        let json = to_chrome_trace(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"apply\""));
        assert!(json.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(json.contains("\"parent\":0"));
        gko::config::Config::from_json(&json).expect("valid JSON");
    }
}
