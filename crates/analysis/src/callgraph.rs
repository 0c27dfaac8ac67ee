//! Workspace call graph and the interprocedural `panic-reach` rule.
//!
//! Call resolution is name-based and deliberately over-approximate, with
//! three honesty valves that keep the approximation useful:
//!
//! * **crate direction** — a call in crate `X` only resolves to functions in
//!   `X` or its (transitive) dependencies, so the facade crate's deliberately
//!   Python-like panicking API can never be attributed to engine kernels;
//! * **receiver shape** — `self.m(..)` prefers methods on the enclosing
//!   `impl` type, `Type::m(..)` resolves by type + name, free `f(..)` prefers
//!   same-file then same-crate definitions;
//! * **a deny-list** — `expr.m(..)` method calls with ubiquitous names
//!   (`len`, `get`, `clone`, …) are left unresolved rather than linked to
//!   every impl in the workspace.
//!
//! `panic-reach` closes the blind spot of the line-local `panic` rule: a
//! panic-free-zone function calling *out* of the zone into a function that
//! transitively reaches an unjustified `unwrap()`/`panic!` is flagged at the
//! boundary call site, with the full call chain in the diagnostic. Panic
//! sites already justified by `// lint: allow(panic): ...` do not propagate
//! (the justification argues the site cannot fire, which covers every
//! caller); boundary call sites can be blessed with
//! `// lint: allow(panic-reach): ...`.

use crate::model::{FnId, Workspace};
use crate::{macro_invoked, Diagnostic, RULE_PANIC_REACH};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq)]
pub enum CallKind {
    /// `self.name(..)`.
    SelfMethod,
    /// `Type::name(..)`.
    TypeMethod(String),
    /// `name(..)` with no receiver.
    Free,
    /// `expr.name(..)`.
    Method,
}

/// One syntactic call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Receiver shape.
    pub kind: CallKind,
    /// Byte offset of the callee name in the file's masked full code.
    pub offset: usize,
    /// Resolved candidate definitions (empty when unresolvable).
    pub targets: Vec<FnId>,
}

/// The resolved workspace call graph.
pub struct CallGraph {
    /// Per-function call sites, indexed by `FnId`.
    pub calls: Vec<Vec<CallSite>>,
}

/// Method names too ubiquitous to resolve by name alone: linking these to
/// every same-named impl in the workspace would drown the analysis in false
/// edges. Calls through them are treated as opaque.
const METHOD_DENY_LIST: &[&str] = &[
    "new",
    "default",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "fmt",
    "to_string",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "lock",
    "read",
    "write",
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "drain",
    "extend",
    "contains",
    "contains_key",
    "clear",
    "with",
    "min",
    "max",
    "abs",
    "sqrt",
    "collect",
    "filter",
    "fold",
    "sum",
    "rev",
    "zip",
    "enumerate",
    "take",
    "skip",
    "chain",
    "flat_map",
    "flatten",
    "any",
    "all",
    "find",
    "position",
    "count",
    "sort",
    "sort_by",
    "sort_by_key",
    "split_at",
    "chunks",
    "windows",
    "join",
    "split",
    "trim",
    "starts_with",
    "ends_with",
    "parse",
    "from",
    "into",
    "try_into",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
    "send",
    "recv",
    "wait",
    "notify_one",
    "notify_all",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "ok",
    "err",
    "expect",
    "unwrap",
    "take_while",
    "copied",
    "cloned",
    "entry",
    "or_insert_with",
    "keys",
    "values",
    "last",
    "first",
    "resize",
    "reserve",
    "truncate",
    "to_vec",
    "to_owned",
    "into_inner",
    "get_or_insert_with",
    "replace",
    "finish",
    "write_str",
    "write_fmt",
    "push_str",
    "floor",
    "ceil",
    "round",
    "powi",
    "powf",
    "exp",
    "ln",
    "log2",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "wrapping_sub",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "min_by_key",
    "max_by_key",
    "retain",
    "snapshot",
    "state",
    "stats",
    "name",
    "reset",
    "init",
    "run",
    "get_ref",
    "handle",
];

impl CallGraph {
    /// Extracts and resolves every call site in the workspace.
    pub fn build(ws: &Workspace) -> CallGraph {
        // Name-indexed candidate tables.
        let mut methods: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut free_fns: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (id, f) in ws.functions.iter().enumerate() {
            if f.self_ty.is_some() {
                methods.entry(f.name.as_str()).or_default().push(id);
            } else {
                free_fns.entry(f.name.as_str()).or_default().push(id);
            }
        }
        let mut calls = Vec::with_capacity(ws.functions.len());
        for id in 0..ws.functions.len() {
            calls.push(extract_and_resolve(ws, id, &methods, &free_fns));
        }
        CallGraph { calls }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn extract_and_resolve(
    ws: &Workspace,
    id: FnId,
    methods: &BTreeMap<&str, Vec<FnId>>,
    free_fns: &BTreeMap<&str, Vec<FnId>>,
) -> Vec<CallSite> {
    let f = &ws.functions[id];
    let full = ws.files[f.file].source.full_code();
    let bytes = full.as_bytes();
    let skip = ws.nested_fn_ranges(id);
    let mut out = Vec::new();
    let mut i = f.body_start;
    while i < f.body_end {
        if let Some((s, e)) = skip.iter().find(|(s, e)| *s <= i && i < *e) {
            i = *e;
            let _ = s;
            continue;
        }
        let b = bytes[i];
        if !is_ident_byte(b) || b.is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < f.body_end && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let name = &full[start..i];
        // A call is `name(`: the open paren must follow directly (macro
        // invocations have `!` in between and are not calls).
        if i >= f.body_end || bytes[i] != b'(' {
            continue;
        }
        let kind = classify_site(full, start);
        let Some(kind) = kind else { continue };
        let targets = resolve(ws, f, name, &kind, methods, free_fns);
        out.push(CallSite {
            name: name.to_string(),
            kind,
            offset: start,
            targets,
        });
    }
    out
}

/// Classifies `name(` at `start` by what precedes the name. Returns `None`
/// for non-call positions (declarations, `|x|` closure params, etc.).
fn classify_site(full: &str, start: usize) -> Option<CallKind> {
    let before = full[..start].trim_end();
    if before.ends_with("fn") {
        return None; // a declaration, not a call
    }
    if let Some(prev) = before.strip_suffix('.') {
        let recv = prev.trim_end();
        if recv.ends_with("self")
            && !recv[..recv.len() - 4].ends_with(|c: char| is_ident_byte(c as u8) || c == '.')
        {
            return Some(CallKind::SelfMethod);
        }
        return Some(CallKind::Method);
    }
    if let Some(prev) = before.strip_suffix("::") {
        // Read the path segment before `::`.
        let seg_end = prev.len();
        let seg_start = prev
            .rfind(|c: char| !is_ident_byte(c as u8))
            .map_or(0, |p| p + 1);
        let seg = &prev[seg_start..seg_end];
        if seg.chars().next().is_some_and(|c| c.is_uppercase()) {
            return Some(CallKind::TypeMethod(seg.to_string()));
        }
        // Module-qualified free call (`plan::merge_segments(`).
        return Some(CallKind::Free);
    }
    Some(CallKind::Free)
}

fn resolve(
    ws: &Workspace,
    caller: &crate::model::Function,
    name: &str,
    kind: &CallKind,
    methods: &BTreeMap<&str, Vec<FnId>>,
    free_fns: &BTreeMap<&str, Vec<FnId>>,
) -> Vec<FnId> {
    let caller_krate = ws.files[caller.file].krate.clone();
    let visible = |id: &FnId| {
        let g = &ws.functions[*id];
        ws.sees(&caller_krate, &ws.files[g.file].krate) && (caller.in_test || !g.in_test)
    };
    match kind {
        CallKind::SelfMethod => {
            if let Some(self_ty) = &caller.self_ty {
                let same_type: Vec<FnId> = methods
                    .get(name)
                    .into_iter()
                    .flatten()
                    .filter(|id| ws.functions[**id].self_ty.as_deref() == Some(self_ty))
                    .filter(|id| visible(id))
                    .copied()
                    .collect();
                if !same_type.is_empty() {
                    return same_type;
                }
            }
            // Trait-object / inherited method: fall back to by-name.
            resolve(ws, caller, name, &CallKind::Method, methods, free_fns)
        }
        CallKind::TypeMethod(ty) => methods
            .get(name)
            .into_iter()
            .flatten()
            .filter(|id| ws.functions[**id].self_ty.as_deref() == Some(ty.as_str()))
            .filter(|id| visible(id))
            .copied()
            .collect(),
        CallKind::Free => {
            let all: Vec<FnId> = free_fns
                .get(name)
                .into_iter()
                .flatten()
                .filter(|id| visible(id))
                .copied()
                .collect();
            let same_file: Vec<FnId> = all
                .iter()
                .filter(|id| ws.functions[**id].file == caller.file)
                .copied()
                .collect();
            if !same_file.is_empty() {
                return same_file;
            }
            let same_crate: Vec<FnId> = all
                .iter()
                .filter(|id| ws.files[ws.functions[**id].file].krate == caller_krate)
                .copied()
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            all
        }
        CallKind::Method => {
            if METHOD_DENY_LIST.contains(&name) {
                return Vec::new();
            }
            methods
                .get(name)
                .into_iter()
                .flatten()
                .filter(|id| visible(id))
                .copied()
                .collect()
        }
    }
}

// ---------------------------------------------------------------------------
// panic-reach
// ---------------------------------------------------------------------------

/// A direct panic site inside a function.
#[derive(Debug, Clone)]
pub(crate) struct PanicSite {
    /// 0-based line.
    pub line: usize,
    /// What panics (`unwrap()`, `panic!`, …).
    pub what: &'static str,
}

/// Per-function direct panic sites, excluding test code and sites justified
/// by `// lint: allow(panic): ...`.
pub(crate) fn direct_panic_sites(ws: &Workspace) -> Vec<Vec<PanicSite>> {
    let mut out = vec![Vec::new(); ws.functions.len()];
    for (id, f) in ws.functions.iter().enumerate() {
        if f.in_test || f.body_start == f.body_end {
            continue;
        }
        let src = &ws.files[f.file].source;
        let first = src.line_of_offset(f.body_start);
        let last = src.line_of_offset(f.body_end.saturating_sub(1));
        for line in first..=last.min(src.lines.len().saturating_sub(1)) {
            if src.in_test(line) {
                continue;
            }
            if src.allow_at(line).iter().any(|a| a.rule == "panic") {
                continue;
            }
            let code = src.code(line);
            let what: Option<&'static str> = if code.contains(".unwrap()") {
                Some("unwrap()")
            } else if code.contains(".expect(") {
                Some("expect(..)")
            } else if macro_invoked(code, "panic") {
                Some("panic!")
            } else if macro_invoked(code, "unreachable") {
                Some("unreachable!")
            } else if macro_invoked(code, "todo") || macro_invoked(code, "unimplemented") {
                Some("todo!/unimplemented!")
            } else {
                None
            };
            if let Some(what) = what {
                out[id].push(PanicSite { line, what });
            }
        }
    }
    out
}

/// Fixed point of "can this function transitively reach a panic site".
pub(crate) fn can_panic(ws: &Workspace, graph: &CallGraph, sites: &[Vec<PanicSite>]) -> Vec<bool> {
    let n = ws.functions.len();
    let mut can = vec![false; n];
    // Reverse edges for worklist propagation.
    let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); n];
    for (caller, calls) in graph.calls.iter().enumerate() {
        for c in calls {
            for t in &c.targets {
                rev[*t].push(caller);
            }
        }
    }
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for id in 0..n {
        if !sites[id].is_empty() {
            can[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for caller in &rev[id] {
            if !can[*caller] {
                can[*caller] = true;
                queue.push_back(*caller);
            }
        }
    }
    can
}

/// Shortest witness chain from `start` to a concrete panic site:
/// `[(fn, line-of-call-or-panic)]` ending at the panicking function.
fn witness_chain(
    ws: &Workspace,
    graph: &CallGraph,
    sites: &[Vec<PanicSite>],
    start: FnId,
) -> Vec<String> {
    // BFS over can-panic edges.
    let mut prev: BTreeMap<FnId, (FnId, usize)> = BTreeMap::new(); // node -> (pred, call line)
    let mut queue = VecDeque::new();
    let mut seen = BTreeSet::new();
    queue.push_back(start);
    seen.insert(start);
    let mut terminal = None;
    while let Some(id) = queue.pop_front() {
        if !sites[id].is_empty() {
            terminal = Some(id);
            break;
        }
        for c in &graph.calls[id] {
            for t in &c.targets {
                if (!sites[*t].is_empty() || has_panicking_succ(graph, sites, *t))
                    && seen.insert(*t)
                {
                    let line = ws.files[ws.functions[id].file]
                        .source
                        .line_of_offset(c.offset);
                    prev.insert(*t, (id, line));
                    queue.push_back(*t);
                }
            }
        }
    }
    let Some(mut at) = terminal else {
        return vec![format!("{} (chain truncated)", ws.functions[start].label())];
    };
    let mut chain = Vec::new();
    let site = &sites[at][0];
    let f = &ws.functions[at];
    chain.push(format!(
        "`{}` at {}:{} ({})",
        site.what,
        ws.files[f.file].path,
        site.line + 1,
        f.label()
    ));
    while let Some((pred, line)) = prev.get(&at).copied() {
        let p = &ws.functions[pred];
        chain.push(format!(
            "{} ({}:{})",
            p.label(),
            ws.files[p.file].path,
            line + 1
        ));
        at = pred;
    }
    chain.reverse();
    chain
}

fn has_panicking_succ(graph: &CallGraph, sites: &[Vec<PanicSite>], id: FnId) -> bool {
    // One-step lookahead is enough to keep BFS on productive edges; deeper
    // reachability is re-derived as the search advances.
    !sites[id].is_empty()
        || graph.calls[id]
            .iter()
            .any(|c| c.targets.iter().any(|t| !sites[*t].is_empty()))
        || graph.calls[id].iter().any(|c| !c.targets.is_empty())
}

/// The `panic-reach` rule: flags panic-free-zone functions whose calls cross
/// out of the zone into transitively-panicking code.
pub(crate) fn check_panic_reach(ws: &Workspace, graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    let sites = direct_panic_sites(ws);
    let can = can_panic(ws, graph, &sites);
    let in_zone = |file: usize| {
        let p = &ws.files[file].path;
        crate::PANIC_FREE_DIRS.iter().any(|d| p.starts_with(d))
    };
    for (id, f) in ws.functions.iter().enumerate() {
        if f.in_test || !in_zone(f.file) {
            continue;
        }
        let src = &ws.files[f.file].source;
        // One diagnostic per boundary line keeps chained calls readable.
        let mut flagged_lines = BTreeSet::new();
        for c in &graph.calls[id] {
            let Some(&worst) = c
                .targets
                .iter()
                .find(|t| !in_zone(ws.functions[**t].file) && can[**t])
            else {
                continue;
            };
            let line = src.line_of_offset(c.offset);
            if src.in_test(line) || !flagged_lines.insert(line) {
                continue;
            }
            if src
                .allow_at(line)
                .iter()
                .any(|a| a.rule == RULE_PANIC_REACH || a.rule == "panic")
            {
                continue;
            }
            let chain = witness_chain(ws, graph, &sites, worst);
            diags.push(Diagnostic {
                path: ws.files[f.file].path.clone(),
                line: line + 1,
                rule: RULE_PANIC_REACH,
                message: format!(
                    "panic-free-zone fn `{}` calls `{}` which can panic: {} — \
                     make the callee fallible, justify the panic at its site \
                     with `// lint: allow(panic): ...`, or bless this boundary \
                     with `// lint: allow(panic-reach): ...`",
                    f.label(),
                    c.name,
                    chain.join(" -> ")
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{crate_of, FileModel};
    use crate::tokenizer::LintSource;
    use std::collections::BTreeMap;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let models = files
            .iter()
            .map(|(p, s)| FileModel {
                path: p.to_string(),
                krate: crate_of(p),
                source: LintSource::parse(s),
            })
            .collect();
        Workspace::build(models, &BTreeMap::new())
    }

    fn fn_id(w: &Workspace, name: &str) -> FnId {
        w.functions.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn cross_module_free_call_resolves() {
        let w = ws(&[
            ("crates/engine/src/a.rs", "pub fn caller() { helper(1); }\n"),
            (
                "crates/engine/src/b.rs",
                "pub fn helper(x: u32) -> u32 { x }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        let caller = fn_id(&w, "caller");
        let helper = fn_id(&w, "helper");
        assert_eq!(g.calls[caller].len(), 1);
        assert_eq!(g.calls[caller][0].targets, vec![helper]);
    }

    #[test]
    fn same_file_free_call_shadows_other_crates() {
        let w = ws(&[
            (
                "crates/engine/src/a.rs",
                "pub fn caller() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/sim/src/b.rs", "pub fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&w);
        let caller = fn_id(&w, "caller");
        assert_eq!(g.calls[caller][0].targets.len(), 1);
        assert_eq!(w.functions[g.calls[caller][0].targets[0]].file, 0);
    }

    #[test]
    fn self_method_resolves_to_own_impl() {
        let src = "struct A; struct B;\n\
                   impl A {\n    fn go(&self) { self.step(); }\n    fn step(&self) {}\n}\n\
                   impl B {\n    fn step(&self) {}\n}\n";
        let w = ws(&[("crates/engine/src/a.rs", src)]);
        let g = CallGraph::build(&w);
        let go = fn_id(&w, "go");
        assert_eq!(g.calls[go].len(), 1);
        let t = g.calls[go][0].targets.clone();
        assert_eq!(t.len(), 1);
        assert_eq!(w.functions[t[0]].self_ty.as_deref(), Some("A"));
    }

    #[test]
    fn type_method_resolves_by_type() {
        let src = "struct A; struct B;\n\
                   impl A {\n    fn mk() -> A { A }\n}\n\
                   impl B {\n    fn mk() -> B { B }\n}\n\
                   fn f() { let _ = A::mk(); }\n";
        let w = ws(&[("crates/engine/src/a.rs", src)]);
        let g = CallGraph::build(&w);
        let f = fn_id(&w, "f");
        let call = g.calls[f].iter().find(|c| c.name == "mk").unwrap();
        assert_eq!(call.targets.len(), 1);
        assert_eq!(w.functions[call.targets[0]].self_ty.as_deref(), Some("A"));
    }

    #[test]
    fn method_call_resolves_across_modules_minus_deny_list() {
        let w = ws(&[
            (
                "crates/engine/src/a.rs",
                "struct K;\nimpl K {\n    fn apply_stage(&self) {}\n}\n",
            ),
            (
                "crates/engine/src/b.rs",
                "pub fn drive(k: &super::a::K) { k.apply_stage(); k.len(); }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        let drive = fn_id(&w, "drive");
        let apply = g.calls[drive]
            .iter()
            .find(|c| c.name == "apply_stage")
            .unwrap();
        assert_eq!(apply.targets.len(), 1);
        let len = g.calls[drive].iter().find(|c| c.name == "len").unwrap();
        assert!(len.targets.is_empty(), "deny-listed name stays opaque");
    }

    #[test]
    fn crate_direction_blocks_resolution() {
        let mut deps = BTreeMap::new();
        deps.insert("engine".to_string(), Vec::<String>::new());
        deps.insert("core".to_string(), vec!["engine".to_string()]);
        let models = vec![
            FileModel {
                path: "crates/engine/src/a.rs".into(),
                krate: "engine".into(),
                source: LintSource::parse("pub fn engine_fn() { facade_fn(); }\n"),
            },
            FileModel {
                path: "crates/core/src/b.rs".into(),
                krate: "core".into(),
                source: LintSource::parse("pub fn facade_fn() { engine_fn(); }\n"),
            },
        ];
        let w = Workspace::build(models, &deps);
        let g = CallGraph::build(&w);
        let engine_fn = fn_id(&w, "engine_fn");
        let facade_fn = fn_id(&w, "facade_fn");
        assert!(
            g.calls[engine_fn][0].targets.is_empty(),
            "engine cannot call up into the facade"
        );
        assert_eq!(g.calls[facade_fn][0].targets, vec![engine_fn]);
    }

    #[test]
    fn panic_reach_crosses_crate_boundary() {
        let w = ws(&[
            (
                "crates/engine/src/solver/cg.rs",
                "pub fn iterate() { out_of_zone_helper(); }\n",
            ),
            (
                "crates/engine/src/base/util.rs",
                "pub fn out_of_zone_helper() { deeper(); }\n\
                 fn deeper() { None::<u32>.unwrap(); }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        let mut diags = Vec::new();
        check_panic_reach(&w, &g, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_PANIC_REACH);
        assert_eq!(diags[0].path, "crates/engine/src/solver/cg.rs");
        assert!(diags[0].message.contains("deeper"), "{}", diags[0].message);
        assert!(diags[0].message.contains("unwrap()"));
    }

    #[test]
    fn allow_at_panic_site_stops_propagation() {
        let w = ws(&[
            (
                "crates/engine/src/solver/cg.rs",
                "pub fn iterate() { out_of_zone_helper(); }\n",
            ),
            (
                "crates/engine/src/base/util.rs",
                "pub fn out_of_zone_helper() {\n    // lint: allow(panic): provably non-empty.\n    Some(1u32).unwrap();\n}\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        let mut diags = Vec::new();
        check_panic_reach(&w, &g, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_panic_reach_at_boundary_site() {
        let w = ws(&[
            (
                "crates/engine/src/solver/cg.rs",
                "pub fn iterate() {\n    // lint: allow(panic-reach): validator aborts deliberately.\n    out_of_zone_helper();\n}\n",
            ),
            (
                "crates/engine/src/base/util.rs",
                "pub fn out_of_zone_helper() { panic!(\"boom\"); }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        let mut diags = Vec::new();
        check_panic_reach(&w, &g, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn in_zone_callee_is_not_reflagged() {
        // Zone-internal panics belong to the line-local `panic` rule.
        let w = ws(&[(
            "crates/engine/src/solver/cg.rs",
            "pub fn iterate() { zone_helper(); }\npub fn zone_helper() { panic!(\"x\"); }\n",
        )]);
        let g = CallGraph::build(&w);
        let mut diags = Vec::new();
        check_panic_reach(&w, &g, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
