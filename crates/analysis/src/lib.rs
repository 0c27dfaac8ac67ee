//! In-tree static analysis for the pyGinkgo workspace.
//!
//! The workspace builds offline, so no clippy plugins or external sanitizers
//! are available; this crate implements the repo-specific rules the engine's
//! safety story depends on as a lightweight, dependency-free lint pass:
//!
//! * **`safety`** — every `unsafe` block, function, or impl must be
//!   justified by an adjacent `// SAFETY:` comment (or a `/// # Safety` doc
//!   section on `unsafe fn` declarations). The work-stealing pool's
//!   correctness rests entirely on these arguments; the rule keeps them from
//!   rotting into prose that silently falls out of sync with the code.
//! * **`panic`** — no `.unwrap()` / `.expect(..)` / `panic!` family macros
//!   in the engine's kernel and solver hot paths (`crates/engine/src/matrix`,
//!   `crates/engine/src/solver`, `crates/engine/src/executor`), the file
//!   parser (`crates/mtx/src`) and the facade (`crates/core/src`) outside
//!   `#[cfg(test)]`. Fallible paths must propagate the crate's typed error
//!   (`GkoError`, `MtxError`, `PyGinkgoError`); provably infallible ones
//!   carry an explicit, justified escape hatch.
//! * **`instrumentation`** — every `apply` / `apply_advanced` / SpMV entry
//!   point in a matrix format or solver must emit the `LinOpApply*` logging
//!   events (directly via `crate::log::OpTimer`, or by delegating to an
//!   instrumented sibling), so new kernels cannot silently dodge the
//!   observability layer.
//! * **`forbidden-api`** — no `std::process` use and no wall-clock reads
//!   (`Instant::now`, `SystemTime`) outside the logging, metrics, and
//!   benchmark layers. Kernels must charge the *virtual* timeline; a stray
//!   wall-clock read is how nondeterminism sneaks into "reproducible"
//!   results.
//!
//! On top of the per-line rules, a semantic pass builds a [`model`] of the
//! workspace (structs, impls, functions with brace-matched bodies) and a
//! [`callgraph`] with resolved intra-workspace calls, powering three
//! cross-function rules:
//!
//! * **`lock-order`** — every engine/core `Mutex`/`RwLock` carries a
//!   `// lock: <name>` declaration; held-lock sets are propagated along the
//!   call graph and a cycle in the acquisition-order graph (a potential
//!   deadlock) fails the gate with the offending chain. See [`locks`].
//! * **`atomic-ordering`** — every engine/core `Atomic*` carries a
//!   `// atomic: counter|flag|seqlock` role; Relaxed stores that publish
//!   flags and Acquire/Release fences on pure counters are flagged. See
//!   [`atomics`].
//! * **`panic-reach`** — can-panic facts are propagated over the call graph,
//!   so a panic-free-zone function transitively reaching an `unwrap()`
//!   outside the zone is flagged with the full call chain. See [`callgraph`].
//!
//! The escape hatch is uniform across rules: a comment of the form
//! `// lint: allow(<rule>): <justification>` on (or immediately above) the
//! offending line suppresses the diagnostic. The justification is mandatory;
//! an empty one is itself a diagnostic.
//!
//! Lexing is approximate but honest: the [`tokenizer`] masks out comments,
//! string/char literals, and raw strings so the rules only ever match real
//! code, and `#[cfg(test)]` items are tracked by brace matching.

pub mod atomics;
pub mod callgraph;
pub mod locks;
pub mod model;
pub mod tokenizer;

use model::{crate_of, FileModel, Workspace};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use tokenizer::LintSource;

/// Rule identifiers, as used both in diagnostics and in `lint: allow(...)`.
pub(crate) const RULE_SAFETY: &str = "safety";
/// Rule id for the no-panicking-shortcuts rule: `.unwrap()` / `.expect(..)`
/// and the `panic!` macro family are banned in engine hot paths outside
/// `#[cfg(test)]`.
pub(crate) const RULE_PANIC: &str = "panic";
/// Rule id for the instrumentation-coverage rule: `apply`/SpMV entry points
/// must emit `LinOpApply*` events (directly or by delegation).
pub(crate) const RULE_INSTRUMENTATION: &str = "instrumentation";
/// Rule id for the forbidden-API rule: no `std::process`, no wall-clock
/// reads outside the logging/metrics/bench layers.
pub(crate) const RULE_FORBIDDEN_API: &str = "forbidden-api";
/// Rule id for the escape-hatch hygiene rule: every `lint: allow(...)`
/// directive must carry a non-empty justification.
pub(crate) const RULE_ESCAPE_HATCH: &str = "escape-hatch";
/// Rule id for the lock-order analysis (declarations, acquisition-order
/// cycles, locks held across pool dispatch). See [`locks`].
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Rule id for the atomic role/ordering analysis. See [`atomics`].
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule id for interprocedural panic reachability. See [`callgraph`].
pub const RULE_PANIC_REACH: &str = "panic-reach";

/// One lint finding, addressable as `file:line`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Paths (relative, `/`-separated) whose hot paths must stay panic-free.
pub(crate) const PANIC_FREE_DIRS: &[&str] = &[
    "crates/engine/src/matrix/",
    "crates/engine/src/solver/",
    // Every hostile matrix passes through a factorization and a
    // preconditioner on its way from `pg::read` to a solve.
    "crates/engine/src/preconditioner/",
    "crates/engine/src/factorization/",
    "crates/engine/src/executor/",
    "crates/engine/src/telemetry/",
    "crates/engine/src/observe.rs",
    "crates/engine/src/trace.rs",
    "crates/engine/src/profile.rs",
    // The file-format parser reads bytes from outside the program.
    "crates/mtx/src/",
    // The facade is the boundary every dtype string, shape and config file
    // of a user crosses.
    "crates/core/src/",
];

/// Directories where `apply`/SpMV entry points must be instrumented.
const INSTRUMENTED_DIRS: &[&str] = &[
    "crates/engine/src/matrix/",
    "crates/engine/src/solver/",
    // A preconditioner application is a step of every iteration: without a
    // span of its own it hides in the solver's self time.
    "crates/engine/src/preconditioner/",
    "crates/engine/src/telemetry/",
    "crates/engine/src/observe.rs",
    "crates/engine/src/trace.rs",
    "crates/engine/src/profile.rs",
];

/// Files/trees allowed to read wall clocks or touch `std::process`: the
/// logging layer and the observer (whose whole job is real-time
/// observation), the benchmark harness, and this crate's own gate binary.
const FORBIDDEN_API_EXEMPT: &[&str] = &[
    "crates/engine/src/log.rs",
    "crates/engine/src/observe.rs",
    "crates/bench/",
    "crates/analysis/",
];

/// Entry-point function names rule `instrumentation` inspects.
/// `build_plan` is the SpMV inspector: it must carry its own `OpTimer` so
/// profilers can attribute plan-building cost separately from apply time.
const ENTRY_POINTS: &[&str] = &[
    "apply",
    "apply_advanced",
    "apply_batch",
    "spmv_into",
    "spmv",
    "build_plan",
];

/// Lints one source file. `rel_path` must be workspace-relative with `/`
/// separators (it selects which path-scoped rules apply).
pub(crate) fn lint_file(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let parsed = LintSource::parse(src);
    let mut diags = Vec::new();
    check_escape_hatches(rel_path, &parsed, &mut diags);
    check_safety(rel_path, &parsed, &mut diags);
    if PANIC_FREE_DIRS.iter().any(|d| rel_path.starts_with(d)) {
        check_panic(rel_path, &parsed, &mut diags);
    }
    if INSTRUMENTED_DIRS.iter().any(|d| rel_path.starts_with(d)) {
        check_instrumentation(rel_path, &parsed, &mut diags);
    }
    if !FORBIDDEN_API_EXEMPT.iter().any(|d| rel_path.starts_with(d)) {
        check_forbidden_api(rel_path, &parsed, &mut diags);
    }
    diags.sort_by_key(|d| d.line);
    diags
}

/// True when an `lint: allow(rule)` directive covers `line` (0-based).
fn allowed(parsed: &LintSource, line: usize, rule: &str) -> bool {
    parsed.allow_at(line).iter().any(|a| a.rule == rule)
}

fn push_unless_allowed(
    diags: &mut Vec<Diagnostic>,
    parsed: &LintSource,
    rel_path: &str,
    line: usize,
    rule: &'static str,
    message: String,
) {
    if !allowed(parsed, line, rule) {
        diags.push(Diagnostic {
            path: rel_path.to_owned(),
            line: line + 1,
            rule,
            message,
        });
    }
}

/// Escape hatches themselves must carry a justification.
fn check_escape_hatches(rel_path: &str, parsed: &LintSource, diags: &mut Vec<Diagnostic>) {
    for (line, allow) in parsed.all_allows() {
        if allow.justification.trim().is_empty() {
            diags.push(Diagnostic {
                path: rel_path.to_owned(),
                line: line + 1,
                rule: RULE_ESCAPE_HATCH,
                message: format!(
                    "lint: allow({}) without a justification — write \
                     `// lint: allow({}): <why this is sound>`",
                    allow.rule, allow.rule
                ),
            });
        }
    }
}

/// Rule `safety`: every `unsafe` keyword needs an adjacent SAFETY argument.
fn check_safety(rel_path: &str, parsed: &LintSource, diags: &mut Vec<Diagnostic>) {
    for line in 0..parsed.lines.len() {
        let code = parsed.code(line);
        if !contains_word(code, "unsafe") {
            continue;
        }
        if has_safety_argument(parsed, line) {
            continue;
        }
        push_unless_allowed(
            diags,
            parsed,
            rel_path,
            line,
            RULE_SAFETY,
            "`unsafe` without an immediately preceding `// SAFETY:` comment \
             (or `/// # Safety` doc section)"
                .to_owned(),
        );
    }
}

/// Walks upward from an `unsafe` site looking for its justification.
///
/// Lines that may sit between the comment and the keyword without breaking
/// adjacency: attributes, doc comments (searched for `# Safety`), further
/// comment lines of the same block, and earlier `unsafe impl` lines (one
/// SAFETY comment may cover a `Send`/`Sync` pair).
fn has_safety_argument(parsed: &LintSource, unsafe_line: usize) -> bool {
    // A SAFETY comment on the same line (before the code) also counts.
    if comment_is_safety(parsed, unsafe_line) {
        return true;
    }
    let mut line = unsafe_line;
    while line > 0 {
        line -= 1;
        let code = parsed.code(line).trim();
        let masked = &parsed.lines[line];
        if comment_is_safety(parsed, line) {
            return true;
        }
        if masked.doc
            && masked
                .comment
                .as_deref()
                .is_some_and(|c| c.contains("# Safety"))
        {
            return true;
        }
        let is_comment_only = code.is_empty() && masked.comment.is_some();
        let is_attribute = code.starts_with("#[") || code.starts_with("#!");
        let is_unsafe_impl = contains_word(code, "unsafe") && contains_word(code, "impl");
        if is_comment_only || is_attribute || is_unsafe_impl {
            continue;
        }
        return false;
    }
    false
}

fn comment_is_safety(parsed: &LintSource, line: usize) -> bool {
    parsed.lines[line]
        .comment
        .as_deref()
        .is_some_and(|c| c.trim_start().starts_with("SAFETY"))
}

/// Rule `panic`: hot paths must not contain panicking shortcuts.
fn check_panic(rel_path: &str, parsed: &LintSource, diags: &mut Vec<Diagnostic>) {
    const PANIC_MACROS: &[&str] = &["panic", "unimplemented", "todo", "unreachable"];
    for line in 0..parsed.lines.len() {
        if parsed.in_test(line) {
            continue;
        }
        let code = parsed.code(line);
        for (pattern, label) in [(".unwrap()", "unwrap()"), (".expect(", "expect(..)")] {
            if code.contains(pattern) {
                push_unless_allowed(
                    diags,
                    parsed,
                    rel_path,
                    line,
                    RULE_PANIC,
                    format!(
                        "`{label}` in an engine hot path — propagate a typed \
                         GkoError, or justify with `// lint: allow(panic): ...`"
                    ),
                );
            }
        }
        for mac in PANIC_MACROS {
            if macro_invoked(code, mac) {
                push_unless_allowed(
                    diags,
                    parsed,
                    rel_path,
                    line,
                    RULE_PANIC,
                    format!(
                        "`{mac}!` in an engine hot path — return a GkoError, \
                         or justify with `// lint: allow(panic): ...`"
                    ),
                );
            }
        }
    }
}

/// Rule `instrumentation`: `apply`/SpMV entry points must emit LinOpApply
/// events (directly or by delegating to an instrumented sibling).
fn check_instrumentation(rel_path: &str, parsed: &LintSource, diags: &mut Vec<Diagnostic>) {
    let functions = parsed.functions();
    // Cross-check against the log layer: `OpTimer` only counts if the file
    // really imports it from `crate::log`.
    let imports_op_timer = (0..parsed.lines.len()).any(|l| {
        let code = parsed.code(l);
        code.contains("use crate::log") && contains_word(code, "OpTimer")
    });
    let instrumented: Vec<&str> = functions
        .iter()
        .filter(|f| imports_op_timer && contains_word(&f.body, "OpTimer"))
        .map(|f| f.name.as_str())
        .collect();
    for f in &functions {
        if f.in_test || !ENTRY_POINTS.contains(&f.name.as_str()) {
            continue;
        }
        let directly = imports_op_timer && contains_word(&f.body, "OpTimer");
        let delegates_sibling = instrumented
            .iter()
            .any(|name| name != &f.name.as_str() && calls(&f.body, name));
        // Delegation to another object's `apply` family: that callee is
        // itself an entry point checked wherever it is defined.
        let delegates_apply = [
            ".apply(",
            ".apply_advanced(",
            ".apply_batch(",
            ".spmv_into(",
        ]
        .iter()
        .any(|p| f.body.contains(p));
        if !(directly || delegates_sibling || delegates_apply) {
            push_unless_allowed(
                diags,
                parsed,
                rel_path,
                f.line,
                RULE_INSTRUMENTATION,
                format!(
                    "entry point `{}` emits no LinOpApply events: wrap the \
                     body in `let _timer = OpTimer::new(exec, \"<op>\")` or \
                     delegate to an instrumented kernel",
                    f.name
                ),
            );
        }
    }
}

/// Rule `forbidden-api`: no process control, no wall clocks outside the
/// observation layers.
fn check_forbidden_api(rel_path: &str, parsed: &LintSource, diags: &mut Vec<Diagnostic>) {
    const FORBIDDEN: &[(&str, &str)] = &[
        (
            "std::process",
            "process control belongs in bench/analysis binaries",
        ),
        ("Instant::now", "wall-clock read outside log/metrics/bench"),
        ("SystemTime", "wall-clock read outside log/metrics/bench"),
    ];
    for line in 0..parsed.lines.len() {
        if parsed.in_test(line) {
            continue;
        }
        let code = parsed.code(line);
        for (pattern, why) in FORBIDDEN {
            if code.contains(pattern) {
                push_unless_allowed(
                    diags,
                    parsed,
                    rel_path,
                    line,
                    RULE_FORBIDDEN_API,
                    format!(
                        "`{pattern}` — {why}; kernels charge the virtual \
                         timeline instead (or justify with \
                         `// lint: allow(forbidden-api): ...`)"
                    ),
                );
            }
        }
    }
}

/// Whole-word containment (identifier boundaries on both sides).
pub(crate) fn contains_word(haystack: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = after >= haystack.len()
            || !haystack[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// True when `body` invokes `name(...)` (possibly as a method call).
fn calls(body: &str, name: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = body[start..].find(name) {
        let at = start + pos;
        let before_ok = at == 0
            || !body[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let rest = &body[at + name.len()..];
        if before_ok && rest.trim_start().starts_with('(') {
            return true;
        }
        start = at + name.len();
    }
    false
}

/// True when `code` invokes the macro `name!` (not merely mentions the word).
pub(crate) fn macro_invoked(code: &str, name: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(name) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let rest = &code[at + name.len()..];
        if before_ok && rest.starts_with('!') {
            return true;
        }
        start = at + name.len();
    }
    false
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Directories (workspace-relative) scanned by [`lint_workspace`].
pub(crate) const SCAN_ROOTS: &[&str] = &["crates", "examples", "tests"];

/// Runs the semantic (cross-function) rules over already-parsed sources.
fn lint_semantic(models: Vec<FileModel>, deps: &BTreeMap<String, Vec<String>>) -> Vec<Diagnostic> {
    let ws = Workspace::build(models, deps);
    let graph = callgraph::CallGraph::build(&ws);
    let mut diags = Vec::new();
    locks::check_lock_order(&ws, &graph, &mut diags);
    atomics::check_atomic_ordering(&ws, &mut diags);
    callgraph::check_panic_reach(&ws, &graph, &mut diags);
    diags
}

/// Lints a set of in-memory sources: per-file rules plus the semantic
/// cross-function rules, with every crate visible to every other. This is
/// the entry point for self-tests and fixture-tree tests; [`lint_workspace`]
/// is the on-disk equivalent with real crate dependency edges.
pub fn lint_sources(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut models = Vec::with_capacity(files.len());
    for (path, src) in files {
        diags.extend(lint_file(path, src));
        models.push(FileModel {
            path: (*path).to_owned(),
            krate: crate_of(path),
            source: LintSource::parse(src),
        });
    }
    diags.extend(lint_semantic(models, &BTreeMap::new()));
    sort_diagnostics(&mut diags);
    diags
}

/// Deterministic global order: path, then line, then rule, then message.
pub(crate) fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
}

/// Parses every workspace crate's `Cargo.toml` into `crate dir -> direct
/// path-dependency dirs`, so call resolution respects the real dependency
/// direction (the facade may call the engine; never the reverse).
fn crate_deps(root: &Path) -> BTreeMap<String, Vec<String>> {
    let crates_dir = root.join("crates");
    let mut pkg_to_dir: BTreeMap<String, String> = BTreeMap::new();
    let mut raw: Vec<(String, Vec<String>)> = Vec::new();
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return BTreeMap::new();
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let dir_name = entry.file_name().to_string_lossy().to_string();
        let mut pkg_name = dir_name.clone();
        let mut deps = Vec::new();
        let mut in_deps = false;
        for line in manifest.lines() {
            let t = line.trim();
            if t.starts_with('[') {
                in_deps = t == "[dependencies]";
                continue;
            }
            if !in_deps {
                if let Some(rest) = t.strip_prefix("name") {
                    if let Some(v) = rest.trim_start().strip_prefix('=') {
                        pkg_name = v.trim().trim_matches('"').to_owned();
                    }
                }
            } else if let Some(key) = t.split(['.', '=', ' ']).next() {
                if !key.is_empty() {
                    deps.push(key.to_owned());
                }
            }
        }
        pkg_to_dir.insert(pkg_name, dir_name.clone());
        raw.push((dir_name, deps));
    }
    raw.into_iter()
        .map(|(dir, deps)| {
            let mapped = deps
                .iter()
                .filter_map(|d| pkg_to_dir.get(d).cloned())
                .collect();
            (dir, mapped)
        })
        .collect()
}

/// Lints every `.rs` file under the workspace root's scan directories: the
/// per-file rules fan out across std threads (parse dominates the cost),
/// then the semantic rules run over the combined model. Returns
/// deterministically sorted diagnostics plus the file count, or an I/O
/// error description.
pub fn lint_workspace(root: &Path) -> Result<(Vec<Diagnostic>, usize), String> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, src));
    }

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(sources.len().max(1));
    // Interleaved assignment; results carry their index so the merge is
    // deterministic regardless of scheduling.
    let mut indexed: Vec<(usize, Vec<Diagnostic>, FileModel)> = std::thread::scope(|scope| {
        let sources = &sources;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for idx in (w..sources.len()).step_by(workers) {
                        let (rel, src) = &sources[idx];
                        let diags = lint_file(rel, src);
                        let model = FileModel {
                            path: rel.clone(),
                            krate: crate_of(rel),
                            source: LintSource::parse(src),
                        };
                        out.push((idx, diags, model));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("lint worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(idx, _, _)| *idx);

    let mut diags = Vec::new();
    let mut models = Vec::with_capacity(sources.len());
    for (_, d, model) in indexed {
        diags.extend(d);
        models.push(model);
    }
    diags.extend(lint_semantic(models, &crate_deps(root)));
    sort_diagnostics(&mut diags);
    Ok((diags, files.len()))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walking {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Self-test: prove the gate has teeth
// ---------------------------------------------------------------------------

/// One injected-violation case for the gate's self-test.
pub(crate) struct SelfTestCase {
    /// Short case name for the report.
    pub name: &'static str,
    /// Pretend workspace-relative path (selects path-scoped rules).
    pub path: &'static str,
    /// Source snippet to lint.
    pub src: &'static str,
    /// Rule expected to fire; `None` means the snippet must lint clean.
    pub expect: Option<&'static str>,
}

/// Built-in violation snippets: each must trip exactly the rule it targets,
/// and the clean variants must not. [`run_self_test`] executes them.
pub(crate) fn self_test_cases() -> Vec<SelfTestCase> {
    vec![
        SelfTestCase {
            name: "unsafe without SAFETY",
            path: "crates/engine/src/base/array.rs",
            src: "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
            expect: Some(RULE_SAFETY),
        },
        SelfTestCase {
            name: "unsafe with SAFETY passes",
            path: "crates/engine/src/base/array.rs",
            src: "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller promises p is valid.\n    unsafe { *p }\n}\n",
            expect: None,
        },
        SelfTestCase {
            name: "unwrap in kernel hot path",
            path: "crates/engine/src/matrix/injected.rs",
            src: "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
            expect: Some(RULE_PANIC),
        },
        SelfTestCase {
            name: "panic! in solver hot path",
            path: "crates/engine/src/solver/injected.rs",
            src: "pub fn f() {\n    panic!(\"boom\");\n}\n",
            expect: Some(RULE_PANIC),
        },
        SelfTestCase {
            name: "unwrap under cfg(test) passes",
            path: "crates/engine/src/matrix/injected.rs",
            src: "#[cfg(test)]\nmod tests {\n    fn f(v: Option<u32>) -> u32 { v.unwrap() }\n}\n",
            expect: None,
        },
        SelfTestCase {
            name: "justified allow passes",
            path: "crates/engine/src/matrix/injected.rs",
            src: "pub fn f(v: &[u32]) -> u32 {\n    // lint: allow(panic): v is non-empty by construction above.\n    *v.last().unwrap()\n}\n",
            expect: None,
        },
        SelfTestCase {
            name: "allow without justification is flagged",
            path: "crates/engine/src/matrix/injected.rs",
            src: "pub fn f(v: &[u32]) -> u32 {\n    // lint: allow(panic):\n    *v.last().unwrap()\n}\n",
            expect: Some(RULE_ESCAPE_HATCH),
        },
        SelfTestCase {
            name: "uninstrumented apply entry point",
            path: "crates/engine/src/matrix/injected.rs",
            src: "impl Foo {\n    pub fn apply(&self, b: &[f64], x: &mut [f64]) {\n        x.copy_from_slice(b);\n    }\n}\n",
            expect: Some(RULE_INSTRUMENTATION),
        },
        SelfTestCase {
            name: "instrumented apply passes",
            path: "crates/engine/src/matrix/injected.rs",
            src: "use crate::log::OpTimer;\nimpl Foo {\n    pub fn apply(&self, b: &[f64], x: &mut [f64]) {\n        let _timer = OpTimer::new(self.executor(), \"foo\");\n        x.copy_from_slice(b);\n    }\n}\n",
            expect: None,
        },
        // The iterative-solver shell (`solver/mod.rs`): a generic `apply`
        // that hands the iteration to a trait method is instrumented iff the
        // shell's own `apply` carries the `OpTimer` — delegating to
        // `iterate` is not delegating to an `apply`.
        SelfTestCase {
            name: "generic shell apply without OpTimer",
            path: "crates/engine/src/solver/mod.rs",
            src: "use crate::log::OpTimer;\nimpl<V: Value, M: Recurrence<V>> LinOp<V> for Iterative<V, M> {\n    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {\n        let mut work = self.method.seed(&self.core, b)?;\n        self.method.iterate(x, &mut work)\n    }\n}\n",
            expect: Some(RULE_INSTRUMENTATION),
        },
        SelfTestCase {
            name: "generic shell apply with OpTimer passes",
            path: "crates/engine/src/solver/mod.rs",
            src: "use crate::log::OpTimer;\nimpl<V: Value, M: Recurrence<V>> LinOp<V> for Iterative<V, M> {\n    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {\n        let _solve_timer = OpTimer::new(x.executor(), M::NAME);\n        let mut work = self.method.seed(&self.core, b)?;\n        self.method.iterate(x, &mut work)\n    }\n}\n",
            expect: None,
        },
        // A preconditioner whose `apply` is a private element loop is
        // invisible to a profile; one that hands the work to an instrumented
        // operator's `apply` is not.
        SelfTestCase {
            name: "preconditioner apply as a private loop",
            path: "crates/engine/src/preconditioner/injected.rs",
            src: "impl<V: Value> LinOp<V> for Scaling<V> {\n    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {\n        for (out, (d, v)) in x.as_mut_slice().iter_mut().zip(self.inverse.iter().zip(b.as_slice())) {\n            *out = *d * *v;\n        }\n        Ok(())\n    }\n}\n",
            expect: Some(RULE_INSTRUMENTATION),
        },
        SelfTestCase {
            name: "preconditioner apply delegating to an operator passes",
            path: "crates/engine/src/preconditioner/injected.rs",
            src: "impl<V: Value> LinOp<V> for Scaling<V> {\n    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {\n        self.inverse.apply(b, x)\n    }\n}\n",
            expect: None,
        },
        SelfTestCase {
            name: "uninstrumented build_plan inspector",
            path: "crates/engine/src/matrix/injected.rs",
            src: "pub fn build_plan(rows: usize) -> Vec<usize> {\n    vec![0, rows]\n}\n",
            expect: Some(RULE_INSTRUMENTATION),
        },
        SelfTestCase {
            name: "wall-clock read in a kernel",
            path: "crates/engine/src/matrix/injected.rs",
            src: "pub fn f() -> u64 {\n    let t = std::time::Instant::now();\n    t.elapsed().as_nanos() as u64\n}\n",
            expect: Some(RULE_FORBIDDEN_API),
        },
        SelfTestCase {
            name: "wall-clock in bench is exempt",
            path: "crates/bench/src/injected.rs",
            src: "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
            expect: None,
        },
        SelfTestCase {
            name: "pattern inside a string literal passes",
            path: "crates/engine/src/matrix/injected.rs",
            src: "pub fn f() -> &'static str {\n    \"call .unwrap() and panic!\"\n}\n",
            expect: None,
        },
    ]
}

/// One injected-violation case for the semantic rules' self-test: a small
/// multi-file workspace and the rule expected to fire across it.
pub(crate) struct SemSelfTestCase {
    /// Short case name for the report.
    pub name: &'static str,
    /// Pretend workspace files (path, source).
    pub files: &'static [(&'static str, &'static str)],
    /// Rule expected to fire; `None` means the fixture must lint clean.
    pub expect: Option<&'static str>,
}

/// Built-in semantic violation fixtures: known-bad/known-good twins for
/// `lock-order`, `atomic-ordering`, and `panic-reach`.
pub(crate) fn sem_self_test_cases() -> Vec<SemSelfTestCase> {
    const CYCLE_BAD: &str = "use std::sync::Mutex;\n\
        pub struct S {\n    // lock: selftest.a\n    a: Mutex<u32>,\n    // lock: selftest.b\n    b: Mutex<u32>,\n}\n\
        impl S {\n\
            pub fn ab(&self) {\n        let g = self.a.lock();\n        let h = self.b.lock();\n    }\n\
            pub(crate) fn ba(&self) {\n        let g = self.b.lock();\n        let h = self.a.lock();\n    }\n\
        }\n";
    const CYCLE_GOOD: &str = "use std::sync::Mutex;\n\
        pub struct S {\n    // lock: selftest.a\n    a: Mutex<u32>,\n    // lock: selftest.b\n    b: Mutex<u32>,\n}\n\
        impl S {\n\
            pub fn ab(&self) {\n        let g = self.a.lock();\n        let h = self.b.lock();\n    }\n\
            pub(crate) fn ab_again(&self) {\n        let g = self.a.lock();\n        let h = self.b.lock();\n    }\n\
        }\n";
    vec![
        SemSelfTestCase {
            name: "lock-order cycle (ab vs ba)",
            files: &[("crates/engine/src/x.rs", CYCLE_BAD)],
            expect: Some(RULE_LOCK_ORDER),
        },
        SemSelfTestCase {
            name: "consistent lock order passes",
            files: &[("crates/engine/src/x.rs", CYCLE_GOOD)],
            expect: None,
        },
        SemSelfTestCase {
            name: "undeclared engine lock",
            files: &[(
                "crates/engine/src/x.rs",
                "use std::sync::Mutex;\npub struct S {\n    a: Mutex<u32>,\n}\n",
            )],
            expect: Some(RULE_LOCK_ORDER),
        },
        SemSelfTestCase {
            name: "lock held across pool dispatch",
            files: &[(
                "crates/engine/src/x.rs",
                "use std::sync::Mutex;\npub struct S {\n    // lock: selftest.pd\n    a: Mutex<u32>,\n}\n\
                 impl S {\n    pub fn bad(&self, exec: &E) {\n        let g = self.a.lock();\n        exec.parallel_chunks(4, |_| {});\n    }\n}\n",
            )],
            expect: Some(RULE_LOCK_ORDER),
        },
        SemSelfTestCase {
            name: "Relaxed store publishing a flag",
            files: &[(
                "crates/engine/src/x.rs",
                "use std::sync::atomic::{AtomicBool, Ordering};\npub struct S {\n    // atomic: flag\n    armed: AtomicBool,\n}\n\
                 impl S {\n    pub fn arm(&self) { self.armed.store(true, Ordering::Relaxed); }\n}\n",
            )],
            expect: Some(RULE_ATOMIC_ORDERING),
        },
        SemSelfTestCase {
            name: "Release store on a flag passes",
            files: &[(
                "crates/engine/src/x.rs",
                "use std::sync::atomic::{AtomicBool, Ordering};\npub struct S {\n    // atomic: flag\n    armed: AtomicBool,\n}\n\
                 impl S {\n    pub fn arm(&self) { self.armed.store(true, Ordering::Release); }\n}\n",
            )],
            expect: None,
        },
        SemSelfTestCase {
            name: "SeqCst fence on a pure counter",
            files: &[(
                "crates/engine/src/x.rs",
                "use std::sync::atomic::{AtomicU64, Ordering};\npub struct S {\n    // atomic: counter\n    hits: AtomicU64,\n}\n\
                 impl S {\n    pub fn hit(&self) { self.hits.fetch_add(1, Ordering::SeqCst); }\n}\n",
            )],
            expect: Some(RULE_ATOMIC_ORDERING),
        },
        SemSelfTestCase {
            name: "unclassified engine atomic",
            files: &[(
                "crates/engine/src/x.rs",
                "use std::sync::atomic::AtomicUsize;\npub struct S {\n    n: AtomicUsize,\n}\n",
            )],
            expect: Some(RULE_ATOMIC_ORDERING),
        },
        SemSelfTestCase {
            name: "panic-reach across a module boundary",
            files: &[
                (
                    "crates/engine/src/solver/injected.rs",
                    "pub fn iterate() { helper(); }\n",
                ),
                (
                    "crates/engine/src/base/injected.rs",
                    "pub fn helper() { deeper(); }\nfn deeper() { None::<u32>.unwrap(); }\n",
                ),
            ],
            expect: Some(RULE_PANIC_REACH),
        },
        SemSelfTestCase {
            name: "justified panic site stops panic-reach",
            files: &[
                (
                    "crates/engine/src/solver/injected.rs",
                    "pub fn iterate() { helper(); }\n",
                ),
                (
                    "crates/engine/src/base/injected.rs",
                    "pub fn helper() {\n    // lint: allow(panic): value is Some by construction here.\n    Some(1u32).unwrap();\n}\n",
                ),
            ],
            expect: None,
        },
    ]
}

/// Runs the embedded self-test. Returns a per-case report; `Err` lists the
/// cases where the gate failed to behave (missing or spurious diagnostics).
pub fn run_self_test() -> Result<Vec<String>, Vec<String>> {
    let mut report = Vec::new();
    let mut failures = Vec::new();
    for case in sem_self_test_cases() {
        let diags = lint_sources(case.files);
        match case.expect {
            Some(rule) => {
                if diags.iter().any(|d| d.rule == rule) {
                    report.push(format!("self-test: {} -> fires [{rule}]", case.name));
                } else {
                    failures.push(format!(
                        "self-test: {} expected [{rule}] but got {:?}",
                        case.name, diags
                    ));
                }
            }
            None => {
                if diags.is_empty() {
                    report.push(format!("self-test: {} -> clean", case.name));
                } else {
                    failures.push(format!(
                        "self-test: {} expected clean but got {:?}",
                        case.name, diags
                    ));
                }
            }
        }
    }
    for case in self_test_cases() {
        let diags = lint_file(case.path, case.src);
        match case.expect {
            Some(rule) => {
                if diags.iter().any(|d| d.rule == rule) {
                    report.push(format!("self-test: {} -> fires [{rule}]", case.name));
                } else {
                    failures.push(format!(
                        "self-test: {} expected [{rule}] but got {:?}",
                        case.name, diags
                    ));
                }
            }
            None => {
                if diags.is_empty() {
                    report.push(format!("self-test: {} -> clean", case.name));
                } else {
                    failures.push(format!(
                        "self-test: {} expected clean but got {:?}",
                        case.name, diags
                    ));
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_is_green() {
        let report = run_self_test().expect("gate self-test");
        assert!(report.len() >= 10);
    }

    #[test]
    fn safety_accepts_multi_line_comment_blocks() {
        let src = "pub fn f(p: *const u8) -> u8 {\n\
                   // SAFETY: this spans\n\
                   // two comment lines.\n\
                   unsafe { *p }\n}\n";
        assert!(lint_file("crates/engine/src/base/x.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_covers_send_sync_pair() {
        let src = "// SAFETY: lanes are disjoint.\n\
                   unsafe impl Send for T {}\n\
                   unsafe impl Sync for T {}\n";
        assert!(lint_file("crates/engine/src/base/x.rs", src).is_empty());
    }

    #[test]
    fn safety_doc_section_covers_unsafe_fn() {
        let src = "impl T {\n\
                   /// Reads a piece.\n\
                   ///\n\
                   /// # Safety\n\
                   ///\n\
                   /// `i` must be in bounds.\n\
                   #[allow(clippy::mut_from_ref)]\n\
                   unsafe fn piece(&self, i: usize) -> *mut u8 { self.0.add(i) }\n\
                   }\n";
        assert!(lint_file("crates/engine/src/base/x.rs", src).is_empty());
    }

    #[test]
    fn safety_rule_fires_with_unrelated_comment() {
        let src = "pub fn f(p: *const u8) -> u8 {\n\
                   // fast path\n\
                   let x = 1;\n\
                   unsafe { *p }\n}\n";
        let diags = lint_file("crates/engine/src/base/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_SAFETY);
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn panic_rule_is_path_scoped() {
        let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        assert!(lint_file("crates/baselines/src/scipy_like.rs", src).is_empty());
        assert_eq!(lint_file("crates/core/src/solver.rs", src).len(), 1);
        assert_eq!(lint_file("crates/engine/src/executor/x.rs", src).len(), 1);
    }

    #[test]
    fn expect_err_is_not_expect() {
        let src = "pub fn f(v: Result<u32, u32>) -> u32 { v.expect_err(\"nope\") }\n";
        // expect_err never panics on the Err path being present; the rule
        // targets `.expect(` exactly.
        assert!(lint_file("crates/engine/src/matrix/x.rs", src)
            .iter()
            .all(|d| d.rule != RULE_PANIC || !d.message.contains("expect(..)")));
    }

    #[test]
    fn delegating_apply_is_accepted() {
        let src = "use crate::log::OpTimer;\n\
                   impl T {\n\
                   pub fn apply(&self, b: &[f64], x: &mut [f64]) { self.spmv_into(b, x) }\n\
                   fn spmv_into(&self, b: &[f64], x: &mut [f64]) {\n\
                   let _t = OpTimer::new(self.exec(), \"t\");\n\
                   }\n}\n";
        assert!(lint_file("crates/engine/src/matrix/x.rs", src).is_empty());
    }

    #[test]
    fn cross_object_delegation_is_accepted() {
        let src = "impl T {\n\
                   pub fn apply(&self, b: &[f64], x: &mut [f64]) { self.inner.apply(b, x) }\n\
                   }\n";
        assert!(lint_file("crates/engine/src/matrix/x.rs", src).is_empty());
    }

    #[test]
    fn uninstrumented_apply_batch_is_flagged() {
        let src = "impl T {\n\
                   pub fn apply_batch(&self, b: &B, x: &mut B) { self.kernel(b, x) }\n\
                   fn kernel(&self, b: &B, x: &mut B) {}\n\
                   }\n";
        let diags = lint_file("crates/engine/src/matrix/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_INSTRUMENTATION);
        assert!(diags[0].message.contains("apply_batch"));
    }

    #[test]
    fn delegation_to_apply_batch_is_accepted() {
        // A solver's apply_batch delegating to the operator's apply_batch is
        // instrumented wherever that callee is defined.
        let src = "impl T {\n\
                   pub fn apply_batch(&self, b: &B, x: &mut B) { self.op.apply_batch(b, x) }\n\
                   }\n";
        assert!(lint_file("crates/engine/src/solver/x.rs", src).is_empty());
    }

    #[test]
    fn trailing_allow_on_same_line_works() {
        let src = "pub fn f(v: &[u32]) -> u32 {\n\
                   *v.last().unwrap() // lint: allow(panic): non-empty by construction.\n\
                   }\n";
        assert!(lint_file("crates/engine/src/matrix/x.rs", src).is_empty());
    }

    #[test]
    fn diagnostics_render_file_line() {
        let d = Diagnostic {
            path: "crates/engine/src/matrix/x.rs".into(),
            line: 7,
            rule: RULE_PANIC,
            message: "boom".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/engine/src/matrix/x.rs:7: [panic] boom"
        );
    }
}
