//! Continuous profiling plane: flame aggregation over the span stream.
//!
//! The observer assembles one span tree per solve ([`crate::trace`]); while
//! [`crate::ObserveConfig::profile`] is set its end-of-solve fold adds
//! *every* completed tree — including the ones tail sampling drops — to a
//! `FlameWindow` of aggregated `FlameNode` trees keyed by span path
//! (`solve → iteration → kernel_apply → plan_build → pool_dispatch →
//! chunk`). Each node accumulates wall total time, per-lane busy-time
//! attribution, and a [`Log2Histogram`] of self time per call, so call
//! counts, self-time sums, `p50` and `p99` per path come for free.
//!
//! The aggregation is *windowed*: after
//! [`ProfileConfig::window_solves`] folded solves the tree rotates (the
//! finished window stays readable as the last window) so a long-lived
//! process converges on recent behaviour instead of its whole history.
//! Memory is bounded twice over — a hard node cap
//! ([`ProfileConfig::max_nodes`]) drops *new* paths once the tree is full
//! (arrival order decides survival, deterministically; drops are counted in
//! the evicted counter, never silent) and the per-window rotation bounds
//! bucket growth.
//!
//! Snapshots render three ways, matching the `/profile` endpoints:
//!
//! * [`ProfileSnapshot::to_config`] — a nested JSON flame tree;
//! * [`ProfileSnapshot::folded`] — inferno / `flamegraph.pl` folded-stacks
//!   text (`path;path;... <self_wall_ns>` per line);
//! * [`diff`] — a differential profile against a named committed baseline
//!   (per-path delta of self-time and calls), served by `/profile/diff` to
//!   *attribute* a regression to span paths instead of reporting a bare
//!   ratio.

use crate::config::Config;
use crate::metrics::Log2Histogram;
use crate::trace::{SpanRecord, TraceReport, OWNER_LANE};
use std::collections::BTreeMap;

/// Profiling policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct ProfileConfig {
    /// Hard cap on flame nodes per window. Once reached, spans whose path
    /// would create a new node are counted as evicted instead (existing
    /// nodes keep accumulating).
    pub max_nodes: usize,
    /// Solves per aggregation window; the tree resets (and the finished
    /// window becomes the last window) every `window_solves` folds. `0`
    /// means a single unbounded window.
    pub window_solves: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            max_nodes: 512,
            window_solves: 1 << 20,
        }
    }
}

impl ProfileConfig {
    pub(crate) fn normalized(mut self) -> Self {
        self.max_nodes = self.max_nodes.max(8);
        self
    }
}

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

/// Immutable snapshot of one aggregation window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileSnapshot {
    /// Solves folded into this window.
    pub solves: u64,
    /// Solves folded since arming (across all windows).
    pub solves_total: u64,
    /// Windows completed (rotated out) before this one.
    pub windows_completed: u64,
    /// Spans dropped because the node cap was reached (cumulative).
    pub evicted_nodes: u64,
    /// The node cap in force.
    pub max_nodes: usize,
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
            .with("solves_total", self.solves_total as i64)
            .with("windows_completed", self.windows_completed as i64)
            .with("evicted_nodes", self.evicted_nodes as i64)
            .with("max_nodes", self.max_nodes)
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
pub struct DiffRow {
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

/// A differential profile: current window vs a committed baseline, sorted
/// worst regression first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileDiff {
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
pub fn diff(base: &ProfileSnapshot, current: &ProfileSnapshot) -> ProfileDiff {
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
    max_nodes: usize,
) -> Option<&'a mut FlameNode> {
    if !level.contains_key(seg.name) {
        if *node_count >= max_nodes {
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

/// The profile plane's state: the live flame window, its rotation counters
/// and the committed baselines. Plain data inside the observer's state, so
/// the observer's one lock guards it.
#[derive(Debug, Default)]
pub(crate) struct FlameWindow {
    /// Root flame nodes keyed by solve annotation (`"solver::Cg"`, ...).
    roots: BTreeMap<&'static str, FlameNode>,
    /// Nodes currently allocated across all roots.
    pub(crate) node_count: usize,
    solves: u64,
    /// Solves folded since the executor was built (across all windows).
    pub(crate) solves_total: u64,
    windows_completed: u64,
    /// Spans dropped because the node cap was reached.
    pub(crate) evicted: u64,
    /// The most recently completed (rotated-out) window, if any.
    pub(crate) last_window: Option<ProfileSnapshot>,
    /// Committed baselines by name.
    pub(crate) baselines: BTreeMap<String, ProfileSnapshot>,
}

impl FlameWindow {
    /// Clears the live window (counters and baselines are kept).
    pub(crate) fn reset(&mut self) {
        self.roots.clear();
        self.node_count = 0;
        self.solves = 0;
    }

    /// Snapshots the live window and commits it as baseline `name`,
    /// replacing any previous baseline of that name.
    pub(crate) fn commit_baseline(&mut self, name: &str, max_nodes: usize) -> ProfileSnapshot {
        let snap = self.snapshot(max_nodes);
        self.baselines.insert(name.to_string(), snap.clone());
        snap
    }

    /// Snapshot of the live window (empty while nothing has been folded),
    /// stamped with the node cap in force.
    pub(crate) fn snapshot(&self, max_nodes: usize) -> ProfileSnapshot {
        let mut nodes = Vec::with_capacity(self.node_count);
        for root in self.roots.values() {
            root.flatten("", 0, &mut nodes);
        }
        ProfileSnapshot {
            solves: self.solves,
            solves_total: self.solves_total,
            windows_completed: self.windows_completed,
            evicted_nodes: self.evicted,
            max_nodes,
            nodes,
        }
    }

    /// Folds one completed span tree into the live window under `config`.
    /// Called for every finished trace whatever its tail-sampling verdict,
    /// so profiles aggregate all solves, not just the retained ones.
    pub(crate) fn fold(&mut self, report: &TraceReport, config: &ProfileConfig) {
        if report.spans.is_empty() {
            return;
        }
        // Per-trace shape: children wall time per parent id (for self time)
        // and the spans by id (for each span's root-to-self name path).
        let mut by_id: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &report.spans {
            by_id.insert(s.id, s);
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_insert(0) += s.dur_ns;
            }
        }
        let mut path: Vec<&SpanRecord> = Vec::new();
        'spans: for s in &report.spans {
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
            let cap = config.max_nodes;
            let mut segments = path.iter().rev();
            let mut node = segments
                .next()
                .and_then(|seg| admit(&mut self.roots, seg, &mut self.node_count, cap));
            for seg in segments {
                node = node.and_then(|n| admit(&mut n.children, seg, &mut self.node_count, cap));
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
        self.solves_total += 1;
        if config.window_solves > 0 && self.solves >= config.window_solves {
            // Rotate: the finished window stays readable, the live tree
            // restarts empty (baselines and eviction counters persist).
            self.last_window = Some(self.snapshot(config.max_nodes));
            self.windows_completed += 1;
            self.reset();
        }
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

    /// A synthetic CG-shaped trace: solve -> iteration -> csr ->
    /// pool_dispatch -> 2 chunks on lanes 0/1.
    fn cg_trace(trace_id: u64, scale: u64) -> TraceReport {
        TraceReport {
            trace_id,
            seq: trace_id,
            annotation: "solver::Cg".to_string(),
            root: 1,
            duration_ns: 100 * scale,
            retained: "sampled",
            anomalies: Vec::new(),
            iterations: 1,
            converged: true,
            stop_reason: "residual_reduction".to_string(),
            truncated_spans: 0,
            spans: vec![
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
                span(
                    1,
                    0,
                    SpanKind::Solve,
                    "solver::Cg",
                    OWNER_LANE,
                    0,
                    100 * scale,
                ),
            ],
        }
    }

    /// A flame window folding under one fixed policy.
    struct Store {
        window: FlameWindow,
        config: ProfileConfig,
    }

    impl Store {
        fn fold(&mut self, report: &TraceReport) {
            self.window.fold(report, &self.config);
        }

        fn snapshot(&self) -> ProfileSnapshot {
            self.window.snapshot(self.config.max_nodes)
        }

        fn commit_baseline(&mut self, name: &str) -> ProfileSnapshot {
            self.window.commit_baseline(name, self.config.max_nodes)
        }
    }

    fn armed_store(config: ProfileConfig) -> Store {
        Store {
            window: FlameWindow::default(),
            config: config.normalized(),
        }
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
        let mut store = armed_store(ProfileConfig::default());
        store.fold(&cg_trace(1, 1));
        let snap = store.snapshot();
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
        let mut a = armed_store(ProfileConfig::default());
        let mut b = armed_store(ProfileConfig::default());
        for t in 1..=5u64 {
            a.fold(&cg_trace(t, t));
            b.fold(&cg_trace(t, t));
        }
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
        // Cap of 8 (the normalized floor): the first trace's 5-node path
        // fits; a second trace with a different solver root needs 5 more
        // nodes and only 3 fit, so its deeper spans are evicted.
        let mut store = armed_store(ProfileConfig {
            max_nodes: 8,
            window_solves: 0,
        });
        store.fold(&cg_trace(1, 1));
        assert_eq!(store.window.node_count, 5);
        assert_eq!(store.window.evicted, 0);

        let mut other = cg_trace(2, 1);
        other.annotation = "solver::BiCgStab".to_string();
        for s in &mut other.spans {
            if s.name == "solver::Cg" {
                s.name = "solver::BiCgStab";
            }
        }
        store.fold(&other);
        assert_eq!(store.window.node_count, 8, "cap respected");
        assert_eq!(store.window.evicted, 3, "three spans had no room");

        // Re-running the same sequence reproduces the same retained set.
        let mut replay = armed_store(ProfileConfig {
            max_nodes: 8,
            window_solves: 0,
        });
        replay.fold(&cg_trace(1, 1));
        replay.fold(&other);
        assert_eq!(store.snapshot(), replay.snapshot());

        // Existing paths keep accumulating even while the cap holds.
        store.fold(&cg_trace(3, 1));
        assert_eq!(store.snapshot().find("solver::Cg").unwrap().calls, 2);
        assert_eq!(store.window.evicted, 3, "no new evictions for known paths");
    }

    #[test]
    fn window_rotation_bounds_history() {
        let mut store = armed_store(ProfileConfig {
            max_nodes: 64,
            window_solves: 2,
        });
        store.fold(&cg_trace(1, 1));
        store.fold(&cg_trace(2, 1));
        // Window of 2 complete: live tree restarts.
        assert_eq!(store.snapshot().solves, 0);
        assert_eq!(store.snapshot().windows_completed, 1);
        let last = store.window.last_window.clone().expect("rotated window");
        assert_eq!(last.solves, 2);
        assert_eq!(last.find("solver::Cg").unwrap().calls, 2);

        store.fold(&cg_trace(3, 7));
        let snap = store.snapshot();
        assert_eq!(snap.solves, 1);
        assert_eq!(snap.solves_total, 3);
        assert_eq!(snap.find("solver::Cg").unwrap().calls, 1);
    }

    #[test]
    fn folded_output_matches_grammar() {
        let mut store = armed_store(ProfileConfig::default());
        store.fold(&cg_trace(1, 3));
        let folded = store.snapshot().folded();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (path, count) = line.rsplit_once(' ').expect("path <count>");
            assert!(!path.is_empty());
            assert!(path.split(';').all(|seg| !seg.is_empty()), "{line}");
            count.parse::<u64>().expect("integer count");
        }
        assert!(folded.contains("solver::Cg;iteration;csr "));
    }

    #[test]
    fn diff_ranks_regressions_and_handles_new_paths() {
        let mut store = armed_store(ProfileConfig::default());
        store.fold(&cg_trace(1, 1));
        let base = store.commit_baseline("t0");
        assert_eq!(
            store.window.baselines.keys().collect::<Vec<_>>(),
            vec!["t0"]
        );

        // Second fold doubles every accumulated figure except the csr node,
        // which gets 10x the work.
        let mut slow = cg_trace(2, 1);
        for s in &mut slow.spans {
            if s.name == "csr" {
                s.dur_ns *= 10;
            }
        }
        store.fold(&slow);
        let d = diff(&base, &store.snapshot());
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

        // A path only in the current window reports as new (infinite pct);
        // a path only in the baseline reports -100%.
        let disjoint = ProfileSnapshot::default();
        let d2 = diff(&store.snapshot(), &disjoint);
        assert!(d2.rows.iter().all(|r| r.delta_pct == -100.0));
        let d3 = diff(&disjoint, &store.snapshot());
        assert!(d3
            .rows
            .iter()
            .all(|r| r.delta_pct.is_infinite() || r.self_ns == 0));
    }

    #[test]
    fn json_tree_nests_children_under_parents() {
        let mut store = armed_store(ProfileConfig::default());
        store.fold(&cg_trace(1, 1));
        let doc = store.snapshot().to_config();
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

    #[test]
    fn reset_clears_live_window_but_keeps_baselines() {
        let mut store = armed_store(ProfileConfig::default());
        store.fold(&cg_trace(1, 1));
        store.commit_baseline("keep");
        store.window.reset();
        assert_eq!(store.snapshot().nodes.len(), 0);
        assert!(store.window.baselines.contains_key("keep"));
    }
}
