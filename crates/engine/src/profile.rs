//! Continuous profiling plane: flame aggregation over the span stream.
//!
//! The observer assembles one span tree per solve ([`crate::trace`]); while
//! [`crate::ObserveConfig::profile`] is set its end-of-solve fold adds
//! *every* completed tree — including the ones tail sampling drops — to a
//! `FlameTree` of aggregated `FlameNode` trees keyed by span path
//! (`solve → iteration → kernel_apply → plan_build → pool_dispatch →
//! chunk`). Each node accumulates wall total time, per-lane busy-time
//! attribution, and a [`Log2Histogram`] of self time per call, so call
//! counts, self-time sums, `p50` and `p99` per path come for free.
//!
//! Memory is bounded by a hard node cap, [`MAX_FLAME_NODES`]: once the
//! tree is full, spans whose path would create a new node are dropped
//! (arrival order decides survival, deterministically; drops are counted in
//! the evicted counter, never silent), while known paths keep accumulating.
//!
//! Snapshots render three ways, matching the `/profile` endpoints:
//!
//! * [`ProfileSnapshot::to_config`] — a nested JSON flame tree;
//! * [`ProfileSnapshot::folded`] — inferno / `flamegraph.pl` folded-stacks
//!   text (`path;path;... <self_wall_ns>` per line);
//! * `diff` — a differential profile against a named committed baseline
//!   (per-path delta of self-time and calls), served by `/profile/diff` to
//!   *attribute* a regression to span paths instead of reporting a bare
//!   ratio.

use crate::config::Config;
use crate::metrics::Log2Histogram;
use crate::trace::{SpanRecord, OWNER_LANE};
use std::collections::BTreeMap;

/// Hard cap on flame nodes. Once reached, spans whose path would create a
/// new node are counted as evicted instead (existing nodes keep
/// accumulating).
pub const MAX_FLAME_NODES: usize = 512;

/// One aggregated flame-tree node: every span whose root-to-self name path
/// matches this node's path folds into it.
#[derive(Clone, Debug)]
struct FlameNode {
    /// Span name of this path segment (`"solver::Cg"`, `"iteration"`,
    /// `"csr"`, `"pool_dispatch"`, `"chunk"`, ...).
    name: &'static str,
    /// Span kind name of the first span folded here (`"solve"`,
    /// `"kernel_apply"`, ...), kept for the JSON tree.
    kind: &'static str,
    /// Total wall time (span durations), nanoseconds.
    wall_ns: u64,
    /// Self wall time per call (duration minus the folded children's):
    /// `count` is the spans folded here, `sum` the node's self time.
    self_ns: Log2Histogram,
    /// Per-lane busy time for chunk spans (`lane -> ns`); empty elsewhere.
    lane_ns: BTreeMap<u32, u64>,
    /// Children keyed by span name (deterministic order).
    children: BTreeMap<&'static str, FlameNode>,
}

impl FlameNode {
    fn new(name: &'static str, kind: &'static str) -> Self {
        FlameNode {
            name,
            kind,
            wall_ns: 0,
            self_ns: Log2Histogram::new(),
            lane_ns: BTreeMap::new(),
            children: BTreeMap::new(),
        }
    }

    fn record(&mut self, wall_ns: u64, self_ns: u64, lane: Option<u32>) {
        self.wall_ns += wall_ns;
        self.self_ns.record(self_ns);
        if let Some(lane) = lane {
            *self.lane_ns.entry(lane).or_insert(0) += wall_ns;
        }
    }

    /// Appends this subtree to `out` in pre-order and returns the subtree's
    /// total lane-busy (virtual) time.
    fn flatten(&self, prefix: &str, depth: usize, out: &mut Vec<FlameStat>) -> u64 {
        let path = if prefix.is_empty() {
            self.name.to_string()
        } else {
            format!("{prefix};{}", self.name)
        };
        let self_virtual: u64 = self.lane_ns.values().sum();
        let slot = out.len();
        out.push(FlameStat {
            path: path.clone(),
            name: self.name.to_string(),
            kind: self.kind.to_string(),
            depth,
            calls: self.self_ns.count,
            wall_ns: self.wall_ns,
            self_wall_ns: self.self_ns.sum,
            virtual_ns: 0, // filled below once the subtree is summed
            self_virtual_ns: self_virtual,
            p50_ns: self.self_ns.p50(),
            p99_ns: self.self_ns.p99(),
            lanes: self.lane_ns.iter().map(|(&l, &ns)| (l, ns)).collect(),
        });
        let mut subtree_virtual = self_virtual;
        for child in self.children.values() {
            subtree_virtual += child.flatten(&path, depth + 1, out);
        }
        out[slot].virtual_ns = subtree_virtual;
        subtree_virtual
    }
}

/// One flame-tree node in a [`ProfileSnapshot`], flattened in pre-order.
#[derive(Clone, Debug, PartialEq)]
pub struct FlameStat {
    /// Root-to-self span names joined with `;` (the folded-stacks path).
    pub path: String,
    /// Span name of this segment.
    pub name: String,
    /// Span kind name (`"solve"`, `"iteration"`, `"kernel_apply"`, ...).
    pub kind: String,
    /// Tree depth (roots at 0).
    pub depth: usize,
    /// Spans folded into this node.
    pub calls: u64,
    /// Total wall time, nanoseconds.
    pub wall_ns: u64,
    /// Wall time not attributed to any child path, nanoseconds.
    pub self_wall_ns: u64,
    /// Subtree lane-busy time, nanoseconds (work done by pool lanes under
    /// this path; exceeds wall time when lanes run in parallel).
    pub virtual_ns: u64,
    /// Lane-busy time of this node alone (nonzero only for chunk nodes).
    pub self_virtual_ns: u64,
    /// Median self time per call, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile self time per call, nanoseconds.
    pub p99_ns: u64,
    /// Per-lane busy time `(lane, ns)`, ascending by lane.
    pub lanes: Vec<(u32, u64)>,
}

/// Immutable snapshot of the flame aggregate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileSnapshot {
    /// Solves folded so far.
    pub solves: u64,
    /// Spans dropped because [`MAX_FLAME_NODES`] was reached.
    pub evicted_nodes: u64,
    /// Flame nodes in pre-order (children follow their parent, depth +1).
    pub nodes: Vec<FlameStat>,
}

impl ProfileSnapshot {
    /// Looks a node up by its `;`-joined path.
    pub fn find(&self, path: &str) -> Option<&FlameStat> {
        self.nodes.iter().find(|n| n.path == path)
    }

    /// Inferno / `flamegraph.pl` folded-stacks text: one line per node,
    /// `path;path;... <self_wall_ns>`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            out.push_str(&n.path);
            out.push(' ');
            out.push_str(&n.self_wall_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// The JSON flame-tree document served by `GET /profile`.
    pub fn to_config(&self) -> Config {
        Config::map()
            .with("solves", self.solves as i64)
            .with("evicted_nodes", self.evicted_nodes as i64)
            .with("max_nodes", MAX_FLAME_NODES)
            .with("roots", nest(&self.nodes, 0, 0).0)
    }
}

/// Builds the nested children arrays for `nodes[from..]` at `depth`;
/// returns `(children, next_index)`.
fn nest(nodes: &[FlameStat], mut from: usize, depth: usize) -> (Vec<Config>, usize) {
    let mut out = Vec::new();
    while from < nodes.len() && nodes[from].depth == depth {
        let n = &nodes[from];
        let (children, next) = nest(nodes, from + 1, depth + 1);
        let lanes: Vec<Config> = n
            .lanes
            .iter()
            .map(|&(lane, ns)| {
                Config::map()
                    .with("lane", lane as i64)
                    .with("busy_ns", ns as i64)
            })
            .collect();
        let mut c = Config::map()
            .with("name", n.name.as_str())
            .with("kind", n.kind.as_str())
            .with("path", n.path.as_str())
            .with("calls", n.calls as i64)
            .with("wall_ns", n.wall_ns as i64)
            .with("self_wall_ns", n.self_wall_ns as i64)
            .with("virtual_ns", n.virtual_ns as i64)
            .with("self_virtual_ns", n.self_virtual_ns as i64)
            .with("p50_ns", n.p50_ns as i64)
            .with("p99_ns", n.p99_ns as i64)
            .with("children", children);
        if !lanes.is_empty() {
            c = c.with("lanes", lanes);
        }
        out.push(c);
        from = next;
    }
    (out, from)
}

/// One path's delta in a [`ProfileDiff`].
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct DiffRow {
    /// The `;`-joined span path.
    pub path: String,
    /// Baseline self wall time, nanoseconds.
    pub base_self_ns: u64,
    /// Current self wall time, nanoseconds.
    pub self_ns: u64,
    /// Baseline calls.
    pub base_calls: u64,
    /// Current calls.
    pub calls: u64,
    /// Self-time delta as a percentage of the baseline
    /// (`+41.0` = 41% slower). Paths absent from the baseline report
    /// `f64::INFINITY`.
    pub delta_pct: f64,
}

/// A differential profile: the current tree vs a committed baseline, sorted
/// worst regression first.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct ProfileDiff {
    /// Per-path deltas, sorted by `delta_pct` descending (ties broken by
    /// absolute self-time growth, then path).
    pub rows: Vec<DiffRow>,
}

impl ProfileDiff {
    /// The `GET /profile/diff` JSON document.
    pub fn to_config(&self, base_name: &str) -> Config {
        let rows: Vec<Config> = self
            .rows
            .iter()
            .map(|r| {
                let mut c = Config::map()
                    .with("path", r.path.as_str())
                    .with("base_self_wall_ns", r.base_self_ns as i64)
                    .with("self_wall_ns", r.self_ns as i64)
                    .with("base_calls", r.base_calls as i64)
                    .with("calls", r.calls as i64);
                c = if r.delta_pct.is_finite() {
                    c.with("delta_pct", r.delta_pct)
                } else {
                    c.with("delta_pct", "new")
                };
                c
            })
            .collect();
        Config::map().with("base", base_name).with("rows", rows)
    }
}

/// Differential profile of `current` against `base`: one row per path seen
/// in either snapshot, sorted worst self-time regression first.
pub(crate) fn diff(base: &ProfileSnapshot, current: &ProfileSnapshot) -> ProfileDiff {
    let mut rows: Vec<DiffRow> = Vec::new();
    for n in &current.nodes {
        let b = base.find(&n.path);
        let base_self = b.map(|b| b.self_wall_ns).unwrap_or(0);
        let delta_pct = if base_self == 0 {
            if n.self_wall_ns == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (n.self_wall_ns as f64 - base_self as f64) / base_self as f64 * 100.0
        };
        rows.push(DiffRow {
            path: n.path.clone(),
            base_self_ns: base_self,
            self_ns: n.self_wall_ns,
            base_calls: b.map(|b| b.calls).unwrap_or(0),
            calls: n.calls,
            delta_pct,
        });
    }
    for b in &base.nodes {
        if current.find(&b.path).is_none() {
            rows.push(DiffRow {
                path: b.path.clone(),
                base_self_ns: b.self_wall_ns,
                self_ns: 0,
                base_calls: b.calls,
                calls: 0,
                delta_pct: -100.0,
            });
        }
    }
    rows.sort_by(|a, b| {
        b.delta_pct
            .partial_cmp(&a.delta_pct)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                let ga = a.self_ns as i128 - a.base_self_ns as i128;
                let gb = b.self_ns as i128 - b.base_self_ns as i128;
                gb.cmp(&ga)
            })
            .then_with(|| a.path.cmp(&b.path))
    });
    ProfileDiff { rows }
}

/// The child of `level` that `seg` folds into, created unless the node cap
/// is reached (`None` then: the span is evicted).
fn admit<'a>(
    level: &'a mut BTreeMap<&'static str, FlameNode>,
    seg: &SpanRecord,
    node_count: &mut usize,
) -> Option<&'a mut FlameNode> {
    if !level.contains_key(seg.name) {
        if *node_count >= MAX_FLAME_NODES {
            return None;
        }
        *node_count += 1;
    }
    Some(
        level
            .entry(seg.name)
            .or_insert_with(|| FlameNode::new(seg.name, seg.kind.name())),
    )
}

/// The profile plane's state: the flame tree and the committed baselines.
/// Plain data inside the observer's state, so the observer's one lock guards
/// it.
#[derive(Debug, Default)]
pub(crate) struct FlameTree {
    /// Root flame nodes keyed by solve annotation (`"solver::Cg"`, ...).
    roots: BTreeMap<&'static str, FlameNode>,
    /// Nodes currently allocated across all roots.
    pub(crate) node_count: usize,
    /// Solves folded since the executor was built.
    pub(crate) solves: u64,
    /// Spans dropped because the node cap was reached.
    pub(crate) evicted: u64,
    /// Committed baselines by name.
    pub(crate) baselines: BTreeMap<String, ProfileSnapshot>,
}

impl FlameTree {
    /// Snapshots the flame tree and commits it as baseline `name`,
    /// replacing any previous baseline of that name.
    pub(crate) fn commit_baseline(&mut self, name: &str) -> ProfileSnapshot {
        let snap = self.snapshot();
        self.baselines.insert(name.to_string(), snap.clone());
        snap
    }

    /// Snapshot of the flame tree (empty while nothing has been folded).
    pub(crate) fn snapshot(&self) -> ProfileSnapshot {
        let mut nodes = Vec::with_capacity(self.node_count);
        for root in self.roots.values() {
            root.flatten("", 0, &mut nodes);
        }
        ProfileSnapshot {
            solves: self.solves,
            evicted_nodes: self.evicted,
            nodes,
        }
    }

    /// Folds one completed span tree. Called for every finished trace
    /// whatever its tail-sampling verdict, so profiles aggregate all solves,
    /// not just the retained ones.
    pub(crate) fn fold(&mut self, spans: &[SpanRecord]) {
        if spans.is_empty() {
            return;
        }
        // Per-trace shape: children wall time per parent id (for self time)
        // and the spans by id (for each span's root-to-self name path).
        let mut by_id: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans {
            by_id.insert(s.id, s);
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_insert(0) += s.dur_ns;
            }
        }
        let mut path: Vec<&SpanRecord> = Vec::new();
        'spans: for s in spans {
            // Spans with unresolvable parents (possible under span-cap
            // truncation) are skipped; the trace already counts them.
            path.clear();
            path.push(s);
            let mut cursor = s.parent;
            while cursor != 0 {
                match by_id.get(&cursor) {
                    Some(p) => {
                        path.push(p);
                        cursor = p.parent;
                    }
                    None => continue 'spans,
                }
            }
            let mut segments = path.iter().rev();
            let mut node = segments
                .next()
                .and_then(|seg| admit(&mut self.roots, seg, &mut self.node_count));
            for seg in segments {
                node = node.and_then(|n| admit(&mut n.children, seg, &mut self.node_count));
            }
            match node {
                Some(node) => {
                    let children = child_ns.get(&s.id).copied().unwrap_or(0);
                    let lane = (s.lane != OWNER_LANE).then_some(s.lane);
                    node.record(s.dur_ns, s.dur_ns.saturating_sub(children), lane);
                }
                None => self.evicted += 1,
            }
        }
        self.solves += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{Event, Logger};
    use crate::observe::{ObserveConfig, Observer};
    use crate::trace::{SpanKind, TraceConfig};

    fn span(
        id: u64,
        parent: u64,
        kind: SpanKind,
        name: &'static str,
        lane: u32,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind,
            name,
            lane,
            steal: false,
            index: 0,
            start_ns,
            dur_ns,
        }
    }

    /// A synthetic CG-shaped span tree under root span `root`: solve ->
    /// iteration -> csr -> pool_dispatch -> 2 chunks on lanes 0/1.
    fn rooted_spans(root: &'static str, scale: u64) -> Vec<SpanRecord> {
        vec![
            span(5, 4, SpanKind::Chunk, "chunk", 0, 10, 20 * scale),
            span(6, 4, SpanKind::Chunk, "chunk", 1, 10, 25 * scale),
            span(
                4,
                3,
                SpanKind::Dispatch,
                "pool_dispatch",
                OWNER_LANE,
                8,
                30 * scale,
            ),
            span(3, 2, SpanKind::Kernel, "csr", OWNER_LANE, 5, 40 * scale),
            span(
                2,
                1,
                SpanKind::Iteration,
                "iteration",
                OWNER_LANE,
                2,
                60 * scale,
            ),
            span(1, 0, SpanKind::Solve, root, OWNER_LANE, 0, 100 * scale),
        ]
    }

    /// The CG-shaped tree of [`rooted_spans`] under `solver::Cg`.
    fn cg_spans(scale: u64) -> Vec<SpanRecord> {
        rooted_spans("solver::Cg", scale)
    }

    /// A flame tree with `spans` folded into it, one fold per entry.
    fn folded(traces: &[Vec<SpanRecord>]) -> FlameTree {
        let mut tree = FlameTree::default();
        for spans in traces {
            tree.fold(spans);
        }
        tree
    }

    /// With the trace plane on and the profile plane off, a finished solve
    /// is traced but never folded.
    #[test]
    fn disarmed_fold_is_inert() {
        let obs = Observer::detached(ObserveConfig {
            trace: Some(TraceConfig {
                sample_n: 1,
                ..TraceConfig::default()
            }),
            ..ObserveConfig::default()
        });
        obs.on_event(&Event::LinOpApplyStarted { op: "solver::Cg" });
        obs.on_event(&Event::LinOpApplyCompleted {
            op: "solver::Cg",
            wall_ns: 100,
            virtual_ns: 0,
        });
        assert_eq!(obs.traces().len(), 1, "the solve was traced");
        assert_eq!(obs.profile().nodes.len(), 0);
        assert_eq!(obs.status().profile_solves, 0);
    }

    #[test]
    fn fold_builds_rooted_flame_tree_with_self_times() {
        let snap = folded(&[cg_spans(1)]).snapshot();
        assert_eq!(snap.solves, 1);

        let root = snap.find("solver::Cg").expect("root node");
        assert_eq!(root.depth, 0);
        assert_eq!(root.calls, 1);
        assert_eq!(root.wall_ns, 100);
        assert_eq!(root.self_wall_ns, 40, "100 minus the iteration's 60");
        assert_eq!(root.kind, "solve");

        let csr = snap.find("solver::Cg;iteration;csr").expect("csr node");
        assert_eq!(csr.wall_ns, 40);
        assert_eq!(csr.self_wall_ns, 10, "40 minus the dispatch's 30");

        let chunk = snap
            .find("solver::Cg;iteration;csr;pool_dispatch;chunk")
            .expect("chunk node");
        assert_eq!(chunk.calls, 2);
        assert_eq!(chunk.lanes, vec![(0, 20), (1, 25)]);
        assert_eq!(chunk.self_virtual_ns, 45);

        // Virtual time rolls the lane-busy 45ns up the whole path.
        assert_eq!(root.virtual_ns, 45);
        assert_eq!(csr.virtual_ns, 45);

        // Pre-order: parents precede children.
        let p = |path: &str| snap.nodes.iter().position(|n| n.path == path).unwrap();
        assert!(p("solver::Cg") < p("solver::Cg;iteration"));
        assert!(p("solver::Cg;iteration") < p("solver::Cg;iteration;csr"));
    }

    #[test]
    fn merge_is_deterministic_and_accumulative() {
        let traces: Vec<_> = (1..=5u64).map(cg_spans).collect();
        let (a, b) = (folded(&traces), folded(&traces));
        assert_eq!(a.snapshot(), b.snapshot(), "same folds, same snapshot");

        let snap = a.snapshot();
        let root = snap.find("solver::Cg").unwrap();
        assert_eq!(root.calls, 5);
        assert_eq!(root.wall_ns, 100 * (1 + 2 + 3 + 4 + 5));
        assert!(root.p50_ns <= root.p99_ns);
        assert!(root.p99_ns <= root.self_wall_ns);
    }

    #[test]
    fn node_cap_drops_new_paths_deterministically() {
        // 102 five-node trees under distinct roots fill 510 of the 512
        // nodes; one more new root needs 5 and only its root and iteration
        // nodes fit, so its csr, dispatch and two chunk spans are evicted.
        let roots: Vec<&'static str> = (0..103)
            .map(|i| &*Box::leak(format!("solver::S{i}").into_boxed_str()))
            .collect();
        let traces: Vec<_> = roots.iter().map(|&r| rooted_spans(r, 1)).collect();
        let mut tree = folded(&traces[..102]);
        assert_eq!(tree.node_count, 510);
        assert_eq!(tree.evicted, 0);
        tree.fold(&traces[102]);
        assert_eq!(tree.node_count, MAX_FLAME_NODES, "cap respected");
        assert_eq!(tree.evicted, 4, "four spans had no room");

        // Re-running the same sequence reproduces the same retained set.
        assert_eq!(tree.snapshot(), folded(&traces).snapshot());

        // Existing paths keep accumulating even while the cap holds.
        tree.fold(&traces[0]);
        assert_eq!(tree.snapshot().find(roots[0]).unwrap().calls, 2);
        assert_eq!(tree.evicted, 4, "no new evictions for known paths");
    }

    #[test]
    fn folded_output_matches_grammar() {
        let text = folded(&[cg_spans(3)]).snapshot().folded();
        assert!(!text.is_empty());
        for line in text.lines() {
            let (path, count) = line.rsplit_once(' ').expect("path <count>");
            assert!(!path.is_empty());
            assert!(path.split(';').all(|seg| !seg.is_empty()), "{line}");
            count.parse::<u64>().expect("integer count");
        }
        assert!(text.contains("solver::Cg;iteration;csr "));
    }

    #[test]
    fn diff_ranks_regressions_and_handles_new_paths() {
        let mut tree = folded(&[cg_spans(1)]);
        let base = tree.commit_baseline("t0");
        assert_eq!(tree.baselines.keys().collect::<Vec<_>>(), vec!["t0"]);

        // Second fold doubles every accumulated figure except the csr node,
        // which gets 10x the work.
        let mut slow = cg_spans(1);
        for s in &mut slow {
            if s.name == "csr" {
                s.dur_ns *= 10;
            }
        }
        tree.fold(&slow);
        let d = diff(&base, &tree.snapshot());
        assert_eq!(
            d.rows.first().map(|r| r.path.as_str()),
            Some("solver::Cg;iteration;csr"),
            "10x kernel must rank first: {:?}",
            d.rows
                .iter()
                .map(|r| (&r.path, r.delta_pct))
                .collect::<Vec<_>>()
        );
        let top = &d.rows[0];
        assert!(top.delta_pct > 100.0, "{}", top.delta_pct);

        // A path only in the current tree reports as new (infinite pct);
        // a path only in the baseline reports -100%.
        let disjoint = ProfileSnapshot::default();
        let d2 = diff(&tree.snapshot(), &disjoint);
        assert!(d2.rows.iter().all(|r| r.delta_pct == -100.0));
        let d3 = diff(&disjoint, &tree.snapshot());
        assert!(d3
            .rows
            .iter()
            .all(|r| r.delta_pct.is_infinite() || r.self_ns == 0));
    }

    #[test]
    fn json_tree_nests_children_under_parents() {
        let doc = folded(&[cg_spans(1)]).snapshot().to_config();
        let roots = doc.get("roots").and_then(Config::as_array).expect("roots");
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(
            root.get("name").and_then(Config::as_str),
            Some("solver::Cg")
        );
        let children = root
            .get("children")
            .and_then(Config::as_array)
            .expect("children");
        assert_eq!(
            children[0].get("name").and_then(Config::as_str),
            Some("iteration")
        );
        // The document round-trips through the engine's own JSON.
        let text = crate::config::json::to_string_pretty(&doc);
        let back = Config::from_json(&text).expect("parse back");
        assert_eq!(back.get("solves").and_then(Config::as_int), Some(1));
    }
}
