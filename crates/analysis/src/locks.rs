//! Lock declarations, held-set propagation, and the `lock-order` rule.
//!
//! Every `Mutex`/`RwLock`/`ReentrantMutex` field or static in `crates/engine`
//! and `crates/core` must carry a `// lock: <name>` annotation; the analysis
//! then attributes each `.lock()` / `.read()` / `.write()` acquisition site
//! to a named lock, computes how long the guard is held (let-bound guards
//! live to the end of the enclosing block or an explicit `drop(guard)`;
//! temporaries to the end of the statement), propagates held-lock sets
//! through the call graph, and builds the lock-*acquisition-order* graph. A
//! cycle in that graph is a potential deadlock and fails the gate with the
//! offending acquisition chain; a lock held across a pool-dispatch boundary
//! (`parallel_chunks`) is flagged separately, since a
//! worker blocking on a lock held by the submitting thread stalls the whole
//! pool.
//!
//! Approximations (all deliberate, all under- rather than over-claiming):
//! unattributable receivers (locals, call results) are skipped; guards bound
//! in `if`/`while`/`match` heads are considered held only through the first
//! block; closures passed into the pool are opaque. `ReentrantMutex` locks
//! are exempt from the self-cycle check (recursion is their purpose); a
//! plain `Mutex` re-acquired downstream is a self-deadlock and is flagged.
//! An edge can be blessed with `// lint: allow(lock-order): ...` at its
//! acquisition site.

use crate::callgraph::CallGraph;
use crate::model::{valid_annotation_name, FnId, Workspace};
use crate::{Diagnostic, RULE_LOCK_ORDER};
use std::collections::{BTreeMap, BTreeSet};

/// Which lock type a declaration uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LockFlavor {
    /// `std::sync::Mutex`.
    Mutex,
    /// `std::sync::RwLock`.
    RwLock,
    /// The in-tree `ReentrantMutex` (same-thread re-acquisition is legal).
    Reentrant,
}

/// A declared (annotated) lock.
#[derive(Debug)]
pub(crate) struct LockDecl {
    /// The `// lock: <name>` name.
    pub name: String,
    /// Declaring struct, or `None` for a static.
    pub struct_name: Option<String>,
    /// Field / static identifier.
    pub field: String,
    /// Declaring file index.
    pub file: usize,
    /// 0-based declaration line.
    pub line: usize,
    /// Lock type.
    pub flavor: LockFlavor,
}

/// Index into the declared-locks table.
pub(crate) type LockId = usize;

fn lock_flavor(ty: &str) -> Option<LockFlavor> {
    // A borrowed lock (`&'a Mutex<T>` in a guard struct) is a reference to
    // a lock declared elsewhere, not a lock slot of its own.
    if ty.trim_start().starts_with('&') {
        return None;
    }
    if crate::contains_word(ty, "ReentrantMutex") {
        Some(LockFlavor::Reentrant)
    } else if crate::contains_word(ty, "Mutex") {
        Some(LockFlavor::Mutex)
    } else if crate::contains_word(ty, "RwLock") {
        Some(LockFlavor::RwLock)
    } else {
        None
    }
}

/// Crates whose locks and atomics must be declared.
fn must_declare(path: &str) -> bool {
    (path.starts_with("crates/engine/") || path.starts_with("crates/core/"))
        && !path.contains("/tests/")
        && !path.contains("/benches/")
}

/// Collects declared locks and emits declaration diagnostics (undeclared
/// engine/core locks, malformed names, duplicate names).
pub(crate) fn collect_locks(ws: &Workspace, diags: &mut Vec<Diagnostic>) -> Vec<LockDecl> {
    let mut decls: Vec<LockDecl> = Vec::new();
    let mut push_decl = |file: usize,
                         line: usize,
                         struct_name: Option<&str>,
                         field: &str,
                         ty: &str,
                         lock_name: &Option<String>,
                         in_test: bool,
                         diags: &mut Vec<Diagnostic>| {
        let Some(flavor) = lock_flavor(ty) else {
            if lock_name.is_some() && !in_test {
                diags.push(Diagnostic {
                    path: ws.files[file].path.clone(),
                    line: line + 1,
                    rule: RULE_LOCK_ORDER,
                    message: format!(
                        "`// lock:` annotation on `{field}`, whose type `{ty}` \
                         is not a Mutex/RwLock/ReentrantMutex"
                    ),
                });
            }
            return;
        };
        if in_test {
            return;
        }
        let path = &ws.files[file].path;
        match lock_name {
            Some(name) if valid_annotation_name(name) => decls.push(LockDecl {
                name: name.clone(),
                struct_name: struct_name.map(str::to_owned),
                field: field.to_owned(),
                file,
                line,
                flavor,
            }),
            Some(name) => diags.push(Diagnostic {
                path: path.clone(),
                line: line + 1,
                rule: RULE_LOCK_ORDER,
                message: format!(
                    "malformed lock name `{name}` — use `// lock: <name>` with \
                     `[A-Za-z0-9_.-]+`"
                ),
            }),
            None if must_declare(path) => {
                let src = &ws.files[file].source;
                if !src.allow_at(line).iter().any(|a| a.rule == RULE_LOCK_ORDER) {
                    diags.push(Diagnostic {
                        path: path.clone(),
                        line: line + 1,
                        rule: RULE_LOCK_ORDER,
                        message: format!(
                            "undeclared lock `{field}` — every engine/core \
                             Mutex/RwLock must carry a `// lock: <name>` \
                             annotation so the lock-order analysis can track it"
                        ),
                    });
                }
            }
            None => {}
        }
    };
    for s in &ws.structs {
        for field in &s.fields {
            push_decl(
                s.file,
                field.line,
                Some(&s.name),
                &field.name,
                &field.ty,
                &field.lock_name,
                s.in_test || ws.files[s.file].source.in_test(field.line),
                diags,
            );
        }
    }
    for st in &ws.statics {
        push_decl(
            st.file,
            st.line,
            None,
            &st.name,
            &st.ty,
            &st.lock_name,
            st.in_test,
            diags,
        );
    }
    // Duplicate names would merge unrelated locks into one graph node.
    let mut by_name: BTreeMap<&str, Vec<&LockDecl>> = BTreeMap::new();
    for d in &decls {
        by_name.entry(d.name.as_str()).or_default().push(d);
    }
    for (name, ds) in by_name {
        if ds.len() > 1 {
            let d = ds[1];
            diags.push(Diagnostic {
                path: ws.files[d.file].path.clone(),
                line: d.line + 1,
                rule: RULE_LOCK_ORDER,
                message: format!(
                    "duplicate lock name `{name}` (first declared at {}:{}) — \
                     lock names must be unique workspace-wide",
                    ws.files[ds[0].file].path,
                    ds[0].line + 1
                ),
            });
        }
    }
    decls
}

// ---------------------------------------------------------------------------
// Receivers and acquisition sites
// ---------------------------------------------------------------------------

/// One parsed postfix segment of a receiver chain.
pub(crate) struct ReceiverSegment {
    /// Segment identifier (`self`, a field name, or `0`/`1` tuple indices).
    pub name: String,
    /// True when the segment carried a call suffix (`helper()`).
    pub is_call: bool,
}

/// Public alias used by the atomics analysis.
pub(crate) fn receiver_segments(full: &str, dot: usize) -> Option<Vec<ReceiverSegment>> {
    parse_receiver(full, dot)
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn match_backward(bytes: &[u8], close: usize, open_b: u8, close_b: u8) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = close + 1;
    while k > 0 {
        k -= 1;
        if bytes[k] == close_b {
            depth += 1;
        } else if bytes[k] == open_b {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Parses the receiver chain ending at the `.` at `dot` (leftmost segment
/// first). Returns `None` for shapes the analysis cannot attribute.
fn parse_receiver(full: &str, dot: usize) -> Option<Vec<ReceiverSegment>> {
    let bytes = full.as_bytes();
    let mut segs: Vec<ReceiverSegment> = Vec::new();
    let mut k = dot; // position just past the current segment
    loop {
        while k > 0 && (bytes[k - 1] as char).is_whitespace() {
            k -= 1;
        }
        if k == 0 {
            break;
        }
        let mut is_call = false;
        // Trailing index / call suffixes.
        loop {
            match bytes[k - 1] {
                b']' => k = match_backward(bytes, k - 1, b'[', b']')?,
                b')' => {
                    k = match_backward(bytes, k - 1, b'(', b')')?;
                    is_call = true;
                }
                _ => break,
            }
            if k == 0 {
                return None;
            }
        }
        let end = k;
        while k > 0 && is_ident_byte(bytes[k - 1]) {
            k -= 1;
        }
        if k == end {
            return None; // parenthesized expression or literal receiver
        }
        segs.push(ReceiverSegment {
            name: full[k..end].to_string(),
            is_call,
        });
        while k > 0 && (bytes[k - 1] as char).is_whitespace() {
            k -= 1;
        }
        if k >= 1 && bytes[k - 1] == b'.' {
            k -= 1;
            continue;
        }
        if k >= 2 && bytes[k - 1] == b':' && bytes[k - 2] == b':' {
            k -= 2;
            continue;
        }
        break;
    }
    segs.reverse();
    if segs.is_empty() {
        None
    } else {
        Some(segs)
    }
}

/// Attributes a receiver chain to a declared lock.
fn attribute(
    decls: &[LockDecl],
    caller: &crate::model::Function,
    segs: &[ReceiverSegment],
) -> Option<LockId> {
    let last = segs.last()?;
    if last.is_call {
        return None; // method-result receivers are handled via the call graph
    }
    if segs.len() == 1 {
        // Bare identifier: a static lock, or an unattributable local.
        let name = &segs[0].name;
        let hits: Vec<LockId> = decls
            .iter()
            .enumerate()
            .filter(|(_, d)| d.struct_name.is_none() && &d.field == name)
            .map(|(i, _)| i)
            .collect();
        return if hits.len() == 1 { Some(hits[0]) } else { None };
    }
    // Dotted chain (possibly through `.0` tuple hops): attribute by the last
    // field segment's name, narrowing by enclosing impl type, then file.
    let fname = &last.name;
    let field_hits: Vec<LockId> = decls
        .iter()
        .enumerate()
        .filter(|(_, d)| d.struct_name.is_some() && &d.field == fname)
        .map(|(i, _)| i)
        .collect();
    match field_hits.len() {
        0 => None,
        1 => Some(field_hits[0]),
        _ => {
            if let Some(self_ty) = &caller.self_ty {
                let by_ty: Vec<LockId> = field_hits
                    .iter()
                    .filter(|i| decls[**i].struct_name.as_deref() == Some(self_ty))
                    .copied()
                    .collect();
                if by_ty.len() == 1 {
                    return Some(by_ty[0]);
                }
            }
            let by_file: Vec<LockId> = field_hits
                .iter()
                .filter(|i| decls[**i].file == caller.file)
                .copied()
                .collect();
            if by_file.len() == 1 {
                Some(by_file[0])
            } else {
                None
            }
        }
    }
}

/// One attributed lock acquisition with its hold region.
#[derive(Debug, Clone)]
pub(crate) struct Acquisition {
    /// Which declared lock.
    pub lock: LockId,
    /// Byte offset of the acquisition (the receiver's trailing `.`).
    pub offset: usize,
    /// 0-based line.
    pub line: usize,
    /// Byte offset where the guard is provably dropped.
    pub hold_end: usize,
}

const ACQ_METHODS: &[(&str, bool)] = &[(".lock(", false), (".read(", true), (".write(", true)];

/// Extracts attributed acquisitions from one function body.
fn acquisitions_in(
    ws: &Workspace,
    decls: &[LockDecl],
    id: FnId,
    graph: &CallGraph,
    guard_locks: &[BTreeSet<LockId>],
) -> Vec<Acquisition> {
    let f = &ws.functions[id];
    let src = &ws.files[f.file].source;
    let full = src.full_code();
    let skip = ws.nested_fn_ranges(id);
    let in_skip = |o: usize| skip.iter().any(|(s, e)| *s <= o && o < *e);
    let mut out = Vec::new();
    for (pat, needs_rwlock) in ACQ_METHODS {
        let mut i = f.body_start;
        while let Some(pos) = full[i..f.body_end].find(pat) {
            let dot = i + pos;
            i = dot + pat.len();
            if in_skip(dot) || src.in_test(src.line_of_offset(dot)) {
                continue;
            }
            let Some(segs) = parse_receiver(full, dot) else {
                continue;
            };
            let Some(lock) = attribute(decls, f, &segs) else {
                continue;
            };
            // `.read()`/`.write()` count only on RwLocks; `.lock()` only on
            // mutexes (a `.read()` on an io stream must not become a lock).
            let is_rw = decls[lock].flavor == LockFlavor::RwLock;
            if is_rw != *needs_rwlock {
                continue;
            }
            out.push(Acquisition {
                lock,
                offset: dot,
                line: src.line_of_offset(dot),
                hold_end: hold_region_end(full, f.body_start, f.body_end, dot),
            });
        }
    }
    // Calls to guard-returning helpers acquire the helper's locks here.
    for c in &graph.calls[id] {
        if in_skip(c.offset) || src.in_test(src.line_of_offset(c.offset)) {
            continue;
        }
        let mut locks: BTreeSet<LockId> = BTreeSet::new();
        for t in &c.targets {
            if is_guard_fn(ws, *t) {
                locks.extend(guard_locks[*t].iter().copied());
            }
        }
        for lock in locks {
            out.push(Acquisition {
                lock,
                offset: c.offset,
                line: src.line_of_offset(c.offset),
                hold_end: hold_region_end(full, f.body_start, f.body_end, c.offset),
            });
        }
    }
    out.sort_by_key(|a| a.offset);
    out
}

/// True when a function returns a lock guard (its acquisitions belong to the
/// caller's scope, not its own).
pub(crate) fn is_guard_fn(ws: &Workspace, id: FnId) -> bool {
    let sig = &ws.functions[id].signature;
    sig.find("->").is_some_and(|p| sig[p..].contains("Guard"))
}

/// Computes where the guard acquired at `site` is dropped.
fn hold_region_end(full: &str, body_start: usize, body_end: usize, site: usize) -> usize {
    let bytes = full.as_bytes();
    // Statement start: nearest `;`, `{` or `}` walking left.
    let mut s = site;
    while s > body_start {
        match bytes[s - 1] {
            b';' | b'{' | b'}' => break,
            _ => s -= 1,
        }
    }
    let head = full[s..site].trim_start();
    let binding = head.strip_prefix("let ").and_then(|rest| {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        let end = rest
            .find(|c: char| !is_ident_byte(c as u8))
            .unwrap_or(rest.len());
        let ident = &rest[..end];
        let after = rest[end..].trim_start();
        if !ident.is_empty() && ident != "_" && (after.starts_with('=') || after.starts_with(':')) {
            Some(ident.to_string())
        } else {
            None
        }
    });
    if let Some(ident) = binding {
        // Held to the end of the enclosing block, or an explicit drop.
        let mut depth = 0isize;
        let mut k = site;
        let mut end = body_end;
        while k < body_end {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    if depth == 0 {
                        end = k;
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            k += 1;
        }
        if let Some(rel) = find_drop_of(&full[site..end], &ident) {
            return site + rel;
        }
        return end;
    }
    // Temporary: held to the end of the statement — the next `;` at this
    // nesting level, or (for `if let`/`while let`/`match` heads) the close
    // of the first block the construct opens.
    let head_is_block_expr = ["if", "while", "match", "for"].iter().any(|kw| {
        head == *kw || head.starts_with(&format!("{kw} ")) || head.starts_with(&format!("{kw}("))
    });
    let mut depth = 0isize;
    let mut entered_block = false;
    let mut k = site;
    while k < body_end {
        match bytes[k] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' => {
                depth += 1;
                entered_block = true;
            }
            b'}' => {
                depth -= 1;
                if depth <= 0 && head_is_block_expr && entered_block {
                    return k;
                }
                if depth < 0 {
                    return k;
                }
            }
            b';' if depth <= 0 => return k,
            _ => {}
        }
        k += 1;
    }
    body_end
}

fn find_drop_of(text: &str, ident: &str) -> Option<usize> {
    let mut i = 0;
    while let Some(pos) = text[i..].find("drop(") {
        let at = i + pos;
        i = at + 5;
        let before_ok = at == 0 || !is_ident_byte(text.as_bytes()[at - 1]);
        let inner = text[at + 5..].trim_start();
        if before_ok && inner.starts_with(ident) {
            let after = &inner[ident.len()..];
            if after.trim_start().starts_with(')') {
                return Some(at);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Order graph and the rule
// ---------------------------------------------------------------------------

/// A lock-order edge `from -> to` with the acquisition that witnessed it.
#[derive(Debug)]
pub(crate) struct OrderEdge {
    /// Witness file index.
    pub file: usize,
    /// Witness 0-based line (the inner acquisition or the crossing call).
    pub line: usize,
    /// Human-readable witness.
    pub witness: String,
}

/// Functions that hand work to the pool: holding a lock across these blocks
/// every worker that needs it.
const POOL_BOUNDARIES: &[&str] = &["parallel_chunks"];

/// Runs the full lock-order analysis, appending diagnostics.
pub(crate) fn check_lock_order(ws: &Workspace, graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    let decls = collect_locks(ws, diags);
    let n = ws.functions.len();

    // Locks a guard-returning helper hands to its caller (direct only).
    let empty_guards: Vec<BTreeSet<LockId>> = vec![BTreeSet::new(); n];
    let guard_locks: Vec<BTreeSet<LockId>> = (0..n)
        .map(|id| {
            if is_guard_fn(ws, id) {
                acquisitions_in(ws, &decls, id, graph, &empty_guards)
                    .iter()
                    .map(|a| a.lock)
                    .collect()
            } else {
                BTreeSet::new()
            }
        })
        .collect();

    let acqs: Vec<Vec<Acquisition>> = (0..n)
        .map(|id| {
            if ws.functions[id].in_test {
                Vec::new()
            } else {
                acquisitions_in(ws, &decls, id, graph, &guard_locks)
            }
        })
        .collect();

    // acq_star: every lock a call into `f` may end up acquiring.
    let mut star: Vec<BTreeSet<LockId>> = acqs
        .iter()
        .map(|v| v.iter().map(|a| a.lock).collect())
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            let mut add: BTreeSet<LockId> = BTreeSet::new();
            for c in &graph.calls[id] {
                for t in &c.targets {
                    add.extend(star[*t].iter().copied());
                }
            }
            for l in add {
                if star[id].insert(l) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut edges: BTreeMap<(LockId, LockId), OrderEdge> = BTreeMap::new();
    let mut add_edge = |from: LockId, to: LockId, file: usize, line: usize, witness: String| {
        if from == to && decls[from].flavor == LockFlavor::Reentrant {
            return; // recursion is the reentrant lock's contract
        }
        let src = &ws.files[file].source;
        if src.allow_at(line).iter().any(|a| a.rule == RULE_LOCK_ORDER) {
            return;
        }
        edges.entry((from, to)).or_insert(OrderEdge {
            file,
            line,
            witness,
        });
    };

    for (id, f) in ws.functions.iter().enumerate() {
        if f.in_test || is_guard_fn(ws, id) {
            continue;
        }
        let src = &ws.files[f.file].source;
        // Nested direct acquisitions.
        for a in &acqs[id] {
            for b in &acqs[id] {
                if a.offset < b.offset && b.offset < a.hold_end {
                    add_edge(
                        a.lock,
                        b.lock,
                        f.file,
                        b.line,
                        format!(
                            "{} acquires `{}` at {}:{} while holding `{}` (taken at line {})",
                            f.label(),
                            decls[b.lock].name,
                            ws.files[f.file].path,
                            b.line + 1,
                            decls[a.lock].name,
                            a.line + 1
                        ),
                    );
                }
            }
        }
        // Calls made while holding a lock: edge to everything the callee may
        // acquire, and the pool-dispatch boundary check.
        for c in &graph.calls[id] {
            let call_line = src.line_of_offset(c.offset);
            for a in &acqs[id] {
                if !(a.offset < c.offset && c.offset < a.hold_end) {
                    continue;
                }
                // Guard-helper calls already became acquisitions above; the
                // edge from `a` to them is the nested-direct case.
                let targets: Vec<FnId> = c
                    .targets
                    .iter()
                    .filter(|t| !is_guard_fn(ws, **t))
                    .copied()
                    .collect();
                for t in &targets {
                    for m in &star[*t] {
                        add_edge(
                            a.lock,
                            *m,
                            f.file,
                            call_line,
                            format!(
                                "{} holds `{}` while calling {} at {}:{}, which \
                                 may acquire `{}`",
                                f.label(),
                                decls[a.lock].name,
                                ws.functions[*t].label(),
                                ws.files[f.file].path,
                                call_line + 1,
                                decls[*m].name
                            ),
                        );
                    }
                }
                if POOL_BOUNDARIES.contains(&c.name.as_str())
                    && !src
                        .allow_at(call_line)
                        .iter()
                        .any(|al| al.rule == RULE_LOCK_ORDER)
                {
                    diags.push(Diagnostic {
                        path: ws.files[f.file].path.clone(),
                        line: call_line + 1,
                        rule: RULE_LOCK_ORDER,
                        message: format!(
                            "{} holds `{}` (taken at line {}) across the pool \
                             dispatch boundary `{}` — a worker blocking on it \
                             would stall the pool; drop the guard first",
                            f.label(),
                            decls[a.lock].name,
                            a.line + 1,
                            c.name
                        ),
                    });
                }
            }
        }
    }

    report_cycles(ws, &decls, &edges, diags);
}

/// Finds strongly connected components of the order graph and reports each
/// cyclic one once, with the acquisition chain.
fn report_cycles(
    ws: &Workspace,
    decls: &[LockDecl],
    edges: &BTreeMap<(LockId, LockId), OrderEdge>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut adj: BTreeMap<LockId, Vec<LockId>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(*from).or_default().push(*to);
    }
    // Self-loops are immediate deadlocks.
    let mut in_reported_scc: BTreeSet<LockId> = BTreeSet::new();
    for ((from, to), e) in edges {
        if from == to {
            diags.push(Diagnostic {
                path: ws.files[e.file].path.clone(),
                line: e.line + 1,
                rule: RULE_LOCK_ORDER,
                message: format!(
                    "self-deadlock: `{}` is re-acquired while already held — {}",
                    decls[*from].name, e.witness
                ),
            });
            in_reported_scc.insert(*from);
        }
    }
    // Multi-lock cycles: find one concrete cycle per SCC via DFS.
    let nodes: Vec<LockId> = adj.keys().copied().collect();
    let mut reported: BTreeSet<BTreeSet<LockId>> = BTreeSet::new();
    for &start in &nodes {
        if in_reported_scc.contains(&start) {
            continue;
        }
        if let Some(cycle) = find_cycle_from(start, &adj) {
            let key: BTreeSet<LockId> = cycle.iter().copied().collect();
            if !reported.insert(key) {
                continue;
            }
            let names: Vec<&str> = cycle
                .iter()
                .chain(cycle.first())
                .map(|l| decls[*l].name.as_str())
                .collect();
            let mut witnesses = Vec::new();
            for w in cycle.windows(2) {
                if let Some(e) = edges.get(&(w[0], w[1])) {
                    witnesses.push(format!(
                        "{} ({}:{})",
                        e.witness,
                        ws.files[e.file].path,
                        e.line + 1
                    ));
                }
            }
            if let (Some(&last), Some(&first)) = (cycle.last(), cycle.first()) {
                if let Some(e) = edges.get(&(last, first)) {
                    witnesses.push(format!(
                        "{} ({}:{})",
                        e.witness,
                        ws.files[e.file].path,
                        e.line + 1
                    ));
                }
            }
            let anchor = edges.get(&(cycle[0], cycle[1 % cycle.len()]));
            let (path, line) = anchor
                .map(|e| (ws.files[e.file].path.clone(), e.line + 1))
                .unwrap_or_else(|| ("<workspace>".to_owned(), 0));
            diags.push(Diagnostic {
                path,
                line,
                rule: RULE_LOCK_ORDER,
                message: format!(
                    "lock-order cycle (potential deadlock): {} — acquisition \
                     chain: {}",
                    names.join(" -> "),
                    witnesses.join("; ")
                ),
            });
        }
    }
}

/// DFS for a cycle reachable from (and returning to) `start`.
fn find_cycle_from(start: LockId, adj: &BTreeMap<LockId, Vec<LockId>>) -> Option<Vec<LockId>> {
    let mut path = vec![start];
    let mut on_path: BTreeSet<LockId> = [start].into();
    let mut visited: BTreeSet<LockId> = BTreeSet::new();
    fn dfs(
        node: LockId,
        start: LockId,
        adj: &BTreeMap<LockId, Vec<LockId>>,
        path: &mut Vec<LockId>,
        on_path: &mut BTreeSet<LockId>,
        visited: &mut BTreeSet<LockId>,
    ) -> bool {
        for next in adj.get(&node).into_iter().flatten() {
            if *next == start && path.len() > 1 {
                return true;
            }
            if on_path.contains(next) || visited.contains(next) || *next == start {
                continue;
            }
            path.push(*next);
            on_path.insert(*next);
            if dfs(*next, start, adj, path, on_path, visited) {
                return true;
            }
            on_path.remove(next);
            visited.insert(*next);
            path.pop();
        }
        false
    }
    if dfs(start, start, adj, &mut path, &mut on_path, &mut visited) {
        Some(path)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{crate_of, FileModel};
    use crate::tokenizer::LintSource;
    use std::collections::BTreeMap;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let models = files
            .iter()
            .map(|(p, s)| FileModel {
                path: p.to_string(),
                krate: crate_of(p),
                source: LintSource::parse(s),
            })
            .collect();
        let ws = Workspace::build(models, &BTreeMap::new());
        let graph = CallGraph::build(&ws);
        let mut diags = Vec::new();
        check_lock_order(&ws, &graph, &mut diags);
        diags
    }

    const AB_CYCLE: &str = "use std::sync::Mutex;\n\
        pub struct S {\n\
            // lock: s.a\n\
            a: Mutex<u32>,\n\
            // lock: s.b\n\
            b: Mutex<u32>,\n\
        }\n\
        impl S {\n\
            pub fn ab(&self) {\n\
                let g = self.a.lock();\n\
                let h = self.b.lock();\n\
            }\n\
            pub(crate) fn ba(&self) {\n\
                let g = self.b.lock();\n\
                let h = self.a.lock();\n\
            }\n\
        }\n";

    #[test]
    fn ab_ba_cycle_is_flagged_with_chain() {
        let diags = run(&[("crates/engine/src/x.rs", AB_CYCLE)]);
        let cycle: Vec<_> = diags
            .iter()
            .filter(|d| d.message.contains("lock-order cycle"))
            .collect();
        assert_eq!(cycle.len(), 1, "{diags:?}");
        assert!(cycle[0].message.contains("s.a"));
        assert!(cycle[0].message.contains("s.b"));
        assert!(
            cycle[0].message.contains("acquisition chain"),
            "{}",
            cycle[0].message
        );
        assert!(cycle[0].message.contains(":"), "witness has file:line");
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = AB_CYCLE.replace(
            "let g = self.b.lock();\nlet h = self.a.lock();",
            "let g = self.a.lock();\nlet h = self.b.lock();",
        );
        assert!(!src.contains("let g = self.b.lock()"), "replace must apply");
        let diags = run(&[("crates/engine/src/x.rs", &src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn drop_releases_before_second_acquisition() {
        let src = "use std::sync::Mutex;\n\
            pub struct S {\n\
                // lock: s.a\n\
                a: Mutex<u32>,\n\
                // lock: s.b\n\
                b: Mutex<u32>,\n\
            }\n\
            impl S {\n\
                pub fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                pub(crate) fn ba(&self) {\n\
                    let g = self.b.lock();\n\
                    drop(g);\n\
                    let h = self.a.lock();\n\
                }\n\
            }\n";
        let diags = run(&[("crates/engine/src/x.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn undeclared_engine_lock_is_flagged() {
        let src = "use std::sync::Mutex;\npub struct S {\n    a: Mutex<u32>,\n}\n";
        let diags = run(&[("crates/engine/src/x.rs", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("undeclared lock `a`"));
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn undeclared_lock_outside_engine_core_is_fine() {
        let src = "use std::sync::Mutex;\npub struct S {\n    a: Mutex<u32>,\n}\n";
        assert!(run(&[("crates/bench/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn cross_function_cycle_through_calls() {
        let src = "use std::sync::Mutex;\n\
            pub struct S {\n\
                // lock: cf.a\n\
                a: Mutex<u32>,\n\
                // lock: cf.b\n\
                b: Mutex<u32>,\n\
            }\n\
            impl S {\n\
                pub fn outer_ab(&self) {\n\
                    let g = self.a.lock();\n\
                    self.take_b();\n\
                }\n\
                fn take_b(&self) { let h = self.b.lock(); }\n\
                pub fn outer_ba(&self) {\n\
                    let g = self.b.lock();\n\
                    self.take_a();\n\
                }\n\
                fn take_a(&self) { let h = self.a.lock(); }\n\
            }\n";
        let diags = run(&[("crates/engine/src/x.rs", src)]);
        assert!(
            diags.iter().any(|d| d.message.contains("lock-order cycle")),
            "{diags:?}"
        );
    }

    #[test]
    fn guard_helper_attributes_to_caller() {
        let src = "use std::sync::{Mutex, MutexGuard};\n\
            pub struct S {\n\
                // lock: gh.a\n\
                a: Mutex<u32>,\n\
                // lock: gh.b\n\
                b: Mutex<u32>,\n\
            }\n\
            impl S {\n\
                fn a_guard(&self) -> MutexGuard<'_, u32> { self.a.lock().unwrap() }\n\
                pub fn ab(&self) {\n\
                    let g = self.a_guard();\n\
                    let h = self.b.lock();\n\
                }\n\
                pub(crate) fn ba(&self) {\n\
                    let g = self.b.lock();\n\
                    let h = self.a_guard();\n\
                }\n\
            }\n";
        let diags = run(&[("crates/engine/src/x.rs", src)]);
        assert!(
            diags.iter().any(|d| d.message.contains("lock-order cycle")),
            "{diags:?}"
        );
    }

    #[test]
    fn reentrant_self_reacquisition_is_exempt() {
        let src = "pub struct R {\n\
                // lock: r.inner\n\
                inner: ReentrantMutex,\n\
            }\n\
            impl R {\n\
                pub fn outer(&self) {\n\
                    let g = self.inner.lock();\n\
                    self.also_locks();\n\
                }\n\
                pub fn also_locks(&self) { let g = self.inner.lock(); }\n\
            }\n";
        let diags = run(&[("crates/core/src/x.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn plain_mutex_self_reacquisition_is_flagged() {
        let src = "use std::sync::Mutex;\n\
            pub struct R {\n\
                // lock: sd.inner\n\
                inner: Mutex<u32>,\n\
            }\n\
            impl R {\n\
                pub fn outer(&self) {\n\
                    let g = self.inner.lock();\n\
                    self.also_locks();\n\
                }\n\
                pub fn also_locks(&self) { let g = self.inner.lock(); }\n\
            }\n";
        let diags = run(&[("crates/engine/src/x.rs", src)]);
        assert!(
            diags.iter().any(|d| d.message.contains("self-deadlock")),
            "{diags:?}"
        );
    }

    #[test]
    fn lock_held_across_pool_dispatch_is_flagged() {
        let src = "use std::sync::Mutex;\n\
            pub struct S {\n\
                // lock: pd.a\n\
                a: Mutex<u32>,\n\
            }\n\
            impl S {\n\
                pub fn bad(&self, exec: &E) {\n\
                    let g = self.a.lock();\n\
                    exec.parallel_chunks(4, |_| {});\n\
                }\n\
            }\n";
        let diags = run(&[("crates/engine/src/x.rs", src)]);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("pool dispatch boundary")),
            "{diags:?}"
        );
    }

    #[test]
    fn allow_blesses_an_edge() {
        let src = AB_CYCLE.replace(
            "let h = self.a.lock();",
            "// lint: allow(lock-order): shutdown path, pool already drained.\n                let h = self.a.lock();",
        );
        let diags = run(&[("crates/engine/src/x.rs", &src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn multiline_receiver_chain_attributes() {
        let src = "use std::sync::RwLock;\n\
            pub struct M {\n\
                // lock: m.kernels\n\
                kernels: RwLock<u32>,\n\
            }\n\
            impl M {\n\
                pub fn get(&self) -> u32 {\n\
                    *self.kernels\n\
                        .read()\n\
                        .unwrap()\n\
                }\n\
            }\n";
        // No diagnostics expected; the point is that attribution does not
        // misfire (an unattributed `.read()` would be silently skipped, so
        // assert via the declaration side staying clean).
        let diags = run(&[("crates/engine/src/x.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
