//! Golden test for the semantic analyses over a small fixture tree.
//!
//! The fixture is a miniature workspace (an "engine" crate with two modules
//! plus an out-of-crate caller) exercising every resolution shape the call
//! graph supports — same-file free calls, cross-module free calls, inherent
//! methods through `self` and through typed receivers — and each semantic
//! rule end to end through the public [`pygko_analysis::lint_sources`]
//! entry point.

use pygko_analysis::callgraph::{CallGraph, CallKind};
use pygko_analysis::model::{crate_of, FileModel, Workspace};
use pygko_analysis::tokenizer::LintSource;
use pygko_analysis::{lint_sources, RULE_ATOMIC_ORDERING, RULE_LOCK_ORDER, RULE_PANIC_REACH};
use std::collections::BTreeMap;

const STORE_RS: &str = r#"
use std::sync::Mutex;

pub struct Store {
    slot: Mutex<Option<usize>>, // lock: store.slot
    journal: Mutex<Vec<usize>>, // lock: store.journal
}

impl Store {
    pub fn publish(&self, v: usize) {
        let mut slot = self.slot.lock().unwrap_or_default();
        crate::journal::append(self, v);
        *slot = Some(v);
    }

    pub fn record(&self, v: usize) {
        let mut j = self.journal.lock().unwrap_or_default();
        j.push(v);
    }
}
"#;

const JOURNAL_RS: &str = r#"
pub fn append(store: &crate::store::Store, v: usize) {
    store.record(v);
}
"#;

const FACADE_RS: &str = r#"
pub fn publish_twice(store: &gko_fixture::store::Store) {
    store.publish(1);
    store.publish(2);
}
"#;

fn fixture() -> Vec<(&'static str, &'static str)> {
    vec![
        ("crates/engine/src/store.rs", STORE_RS),
        ("crates/engine/src/journal.rs", JOURNAL_RS),
        ("crates/core/src/facade.rs", FACADE_RS),
    ]
}

fn workspace() -> Workspace {
    let models = fixture()
        .into_iter()
        .map(|(p, s)| FileModel {
            path: p.to_string(),
            krate: crate_of(p),
            source: LintSource::parse(s),
        })
        .collect();
    let mut deps: BTreeMap<String, Vec<String>> = BTreeMap::new();
    deps.insert("core".into(), vec!["engine".into()]);
    deps.insert("engine".into(), vec![]);
    Workspace::build(models, &deps)
}

fn fn_id(ws: &Workspace, label: &str) -> usize {
    ws.functions
        .iter()
        .position(|f| f.label() == label)
        .unwrap_or_else(|| panic!("fixture function `{label}` not found"))
}

#[test]
fn cross_module_free_call_resolves() {
    let ws = workspace();
    let graph = CallGraph::build(&ws);
    let publish = fn_id(&ws, "Store::publish");
    let append = fn_id(&ws, "append");
    let site = graph.calls[publish]
        .iter()
        .find(|c| c.name == "append")
        .expect("publish calls append");
    assert_eq!(site.kind, CallKind::Free);
    assert_eq!(site.targets, vec![append]);
}

#[test]
fn method_call_through_typed_receiver_resolves() {
    let ws = workspace();
    let graph = CallGraph::build(&ws);
    let append = fn_id(&ws, "append");
    let record = fn_id(&ws, "Store::record");
    let site = graph.calls[append]
        .iter()
        .find(|c| c.name == "record")
        .expect("append calls record");
    assert_eq!(site.kind, CallKind::Method);
    assert_eq!(site.targets, vec![record]);
}

#[test]
fn cross_crate_method_call_respects_dependency_direction() {
    let ws = workspace();
    let graph = CallGraph::build(&ws);
    let caller = fn_id(&ws, "publish_twice");
    let publish = fn_id(&ws, "Store::publish");
    // core depends on engine, so the facade's `store.publish(..)` resolves
    // into the engine crate.
    let sites: Vec<_> = graph.calls[caller]
        .iter()
        .filter(|c| c.name == "publish")
        .collect();
    assert_eq!(sites.len(), 2);
    for site in sites {
        assert_eq!(site.targets, vec![publish]);
    }
}

#[test]
fn interprocedural_lock_cycle_is_reported_with_chain() {
    // `publish` holds store.slot and calls (via journal::append) `record`,
    // which takes store.journal — and a second entry point takes them in
    // the opposite order. The cycle witness must name both hops.
    let mut files = fixture();
    files.push((
        "crates/engine/src/reorder.rs",
        r#"
pub fn drain(store: &crate::store::Store) {
    let j = store.journal.lock().unwrap_or_default();
    let s = store.slot.lock().unwrap_or_default();
    let _ = (j, s);
}
"#,
    ));
    let diags = lint_sources(&files);
    let cycle: Vec<_> = diags.iter().filter(|d| d.rule == RULE_LOCK_ORDER).collect();
    assert!(
        cycle.iter().any(|d| d.message.contains("lock-order cycle")
            && d.message.contains("store.slot")
            && d.message.contains("store.journal")
            && d.message.contains("crates/engine/src/")),
        "expected a cycle naming both locks with file:line witnesses, got: {diags:?}"
    );
}

#[test]
fn clean_fixture_has_no_semantic_diagnostics() {
    // Without the reordered acquisition the fixture is consistent:
    // slot -> journal only.
    let diags = lint_sources(&fixture());
    let semantic: Vec<_> = diags
        .iter()
        .filter(|d| {
            d.rule == RULE_LOCK_ORDER
                || d.rule == RULE_ATOMIC_ORDERING
                || d.rule == RULE_PANIC_REACH
        })
        .collect();
    assert!(
        semantic.is_empty(),
        "expected clean fixture, got: {semantic:?}"
    );
}

#[test]
fn panic_reach_crosses_modules_with_witness_chain() {
    let files = vec![
        (
            "crates/engine/src/matrix/kernel.rs",
            "pub fn spmv() {\n    crate::helpers::checked_div(1, 0);\n}\n",
        ),
        (
            "crates/engine/src/helpers.rs",
            "pub fn checked_div(a: usize, b: usize) -> usize {\n    a.checked_div(b).unwrap()\n}\n",
        ),
    ];
    let diags = lint_sources(&files);
    let reach: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == RULE_PANIC_REACH)
        .collect();
    assert_eq!(reach.len(), 1, "got: {diags:?}");
    assert_eq!(reach[0].path, "crates/engine/src/matrix/kernel.rs");
    assert!(
        reach[0].message.contains("checked_div")
            && reach[0].message.contains("crates/engine/src/helpers.rs:2"),
        "witness chain should name the panic site file:line, got: {}",
        reach[0].message
    );
}
