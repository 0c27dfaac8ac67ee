//! A lightweight semantic model of the workspace.
//!
//! The per-line rules in `crate::lint_file` are deliberately local; the
//! concurrency rules (`lock-order`, `atomic-ordering`, `panic-reach`) need to
//! see *across* functions and files. This module parses every source file
//! into items — structs with their fields, `impl` blocks, `static`s, and
//! functions with brace-matched body spans — in the same "approximate but
//! honest" spirit as the tokenizer: no full type system, just enough
//! structure that lock fields can be named, atomics classified, and calls
//! resolved within the workspace.
//!
//! Declaration annotations are plain (non-doc) comments on the declaring
//! line or the line directly above it:
//!
//! * `// lock: <name>` — names a `Mutex`/`RwLock`/`ReentrantMutex` field or
//!   static for the lock-order analysis (`<name>` is `[A-Za-z0-9_.-]+`;
//!   prose may follow after whitespace).
//! * `// atomic: counter|flag|seqlock` — classifies an `Atomic*` field or
//!   static by role for the atomic-ordering analysis.

use crate::tokenizer::LintSource;
use std::collections::{BTreeMap, BTreeSet};

/// Roles an atomic declaration may take.
pub(crate) const ATOMIC_ROLES: &[&str] = &["counter", "flag", "seqlock"];

/// A field of a struct (tuple fields are named `"0"`, `"1"`, …).
#[derive(Debug)]
pub(crate) struct FieldInfo {
    /// Field name.
    pub name: String,
    /// Masked type text.
    pub ty: String,
    /// 0-based declaration line.
    pub line: usize,
    /// `// lock: <name>` annotation, if present.
    pub lock_name: Option<String>,
    /// `// atomic: <role>` annotation, if present.
    pub atomic_role: Option<String>,
}

/// A struct and its fields.
#[derive(Debug)]
pub(crate) struct StructInfo {
    /// Index of the declaring file in [`Workspace::files`].
    pub file: usize,
    /// Struct name.
    pub name: String,
    /// True when declared under `#[cfg(test)]`.
    pub in_test: bool,
    /// Parsed fields.
    pub fields: Vec<FieldInfo>,
}

/// A `static` item (named locks like a GIL live here).
#[derive(Debug)]
pub(crate) struct StaticInfo {
    /// Index of the declaring file in [`Workspace::files`].
    pub file: usize,
    /// Static name.
    pub name: String,
    /// Masked type text.
    pub ty: String,
    /// 0-based declaration line.
    pub line: usize,
    /// True when declared under `#[cfg(test)]`.
    pub in_test: bool,
    /// `// lock: <name>` annotation, if present.
    pub lock_name: Option<String>,
    /// `// atomic: <role>` annotation, if present.
    pub atomic_role: Option<String>,
}

/// A function or method with its brace-matched body span.
#[derive(Debug)]
pub struct Function {
    /// Index of the declaring file in [`Workspace::files`].
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, or `None` for free functions.
    pub self_ty: Option<String>,
    /// Masked text from after the name to the body `{` (params + return).
    pub signature: String,
    /// Byte offset (into the file's masked full code) just after the body's
    /// opening brace. `body_start == body_end` for bodyless declarations.
    pub body_start: usize,
    /// Byte offset of the body's closing brace.
    pub body_end: usize,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// True when inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: bool,
}

impl Function {
    /// Human-readable `Type::name` / `name` label for diagnostics.
    pub fn label(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed source file.
pub struct FileModel {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Crate directory name (`"engine"` for `crates/engine/...`), or `""`
    /// for sources outside `crates/` (tests, examples) which may see every
    /// crate.
    pub krate: String,
    /// The lexed source.
    pub source: LintSource,
}

/// The whole-workspace model: files, items, and crate visibility.
pub struct Workspace {
    /// Parsed files.
    pub files: Vec<FileModel>,
    /// All structs.
    pub(crate) structs: Vec<StructInfo>,
    /// All statics.
    pub(crate) statics: Vec<StaticInfo>,
    /// All functions, indexable by `FnId`.
    pub functions: Vec<Function>,
    /// crate dir -> set of crate dirs it may call into (transitive deps,
    /// including itself). Missing key means "sees everything".
    visible: BTreeMap<String, BTreeSet<String>>,
}

/// Index into [`Workspace::functions`].
pub(crate) type FnId = usize;

impl Workspace {
    /// Builds the model from pre-parsed sources and a crate dependency map
    /// (`crate dir -> direct dep dirs`; the closure is computed here). An
    /// empty map makes every crate visible to every other — convenient for
    /// tests and single-crate fixtures.
    pub fn build(files: Vec<FileModel>, deps: &BTreeMap<String, Vec<String>>) -> Workspace {
        let mut ws = Workspace {
            files,
            structs: Vec::new(),
            statics: Vec::new(),
            functions: Vec::new(),
            visible: transitive_closure(deps),
        };
        for idx in 0..ws.files.len() {
            let (structs, statics, functions) = parse_items(idx, &ws.files[idx]);
            ws.structs.extend(structs);
            ws.statics.extend(statics);
            ws.functions.extend(functions);
        }
        ws
    }

    /// True when code in `from_krate` may call into `to_krate`.
    pub fn sees(&self, from_krate: &str, to_krate: &str) -> bool {
        if from_krate == to_krate || from_krate.is_empty() {
            return true;
        }
        match self.visible.get(from_krate) {
            Some(set) => set.contains(to_krate),
            None => true,
        }
    }

    /// Byte ranges of *other* functions nested inside `f`'s body (nested
    /// `fn` items). Scans over `f`'s body should skip these.
    pub(crate) fn nested_fn_ranges(&self, id: FnId) -> Vec<(usize, usize)> {
        let f = &self.functions[id];
        self.functions
            .iter()
            .enumerate()
            .filter(|(other, g)| {
                *other != id
                    && g.file == f.file
                    && g.body_start > f.body_start
                    && g.body_end <= f.body_end
            })
            .map(|(_, g)| (g.body_start, g.body_end))
            .collect()
    }
}

fn transitive_closure(deps: &BTreeMap<String, Vec<String>>) -> BTreeMap<String, BTreeSet<String>> {
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (k, direct) in deps {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack: Vec<&String> = direct.iter().collect();
        seen.insert(k.clone());
        while let Some(d) = stack.pop() {
            if seen.insert(d.clone()) {
                if let Some(next) = deps.get(d) {
                    stack.extend(next.iter());
                }
            }
        }
        out.insert(k.clone(), seen);
    }
    out
}

/// Derives the crate dir name from a workspace-relative path.
pub fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
        .to_string()
}

// ---------------------------------------------------------------------------
// Item extraction
// ---------------------------------------------------------------------------

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn word_at(full: &str, at: usize, word: &str) -> bool {
    let bytes = full.as_bytes();
    let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
    let after = at + word.len();
    let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
    before_ok && after_ok
}

/// Finds every standalone occurrence of `word` in `full`.
fn word_positions(full: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = full[i..].find(word) {
        let at = i + pos;
        i = at + word.len();
        if word_at(full, at, word) {
            out.push(at);
        }
    }
    out
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

fn read_ident(full: &str, start: usize) -> (String, usize) {
    let bytes = full.as_bytes();
    let mut j = start;
    while j < bytes.len() && is_ident_byte(bytes[j]) {
        j += 1;
    }
    (full[start..j].to_string(), j)
}

/// Returns the index of the byte matching the opener at `open` (`{`/`(`/`<`),
/// or the end of input when unbalanced.
fn match_delim(bytes: &[u8], open: usize, close_b: u8, open_b: u8) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < bytes.len() {
        if bytes[k] == open_b {
            depth += 1;
        } else if bytes[k] == close_b {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    bytes.len()
}

/// The `// lock:` / `// atomic:` annotation governing `line`: the non-doc
/// comment on the line itself, or on the directly preceding line.
fn annotation(src: &LintSource, line: usize, key: &str) -> Option<String> {
    for l in [Some(line), line.checked_sub(1)].into_iter().flatten() {
        let masked = &src.lines[l];
        if masked.doc {
            continue;
        }
        // A trailing comment only annotates its own line; the line above
        // counts only when it is comment-only (otherwise `a: Mutex<_>, // lock: a`
        // would leak onto the next field).
        if l != line && !masked.code.trim().is_empty() {
            continue;
        }
        let Some(comment) = masked.comment.as_deref() else {
            continue;
        };
        let trimmed = comment.trim_start();
        if let Some(rest) = trimmed.strip_prefix(key) {
            let token = rest.split_whitespace().next().unwrap_or("").to_string();
            return Some(token);
        }
    }
    None
}

fn parse_items(
    file_idx: usize,
    file: &FileModel,
) -> (Vec<StructInfo>, Vec<StaticInfo>, Vec<Function>) {
    let src = &file.source;
    let full = src.full_code();
    let bytes = full.as_bytes();

    // impl / trait spans give methods their self type.
    let mut impl_spans: Vec<(usize, usize, String)> = Vec::new();
    for at in word_positions(full, "impl") {
        if let Some((start, end, ty)) = parse_impl_header(full, at) {
            impl_spans.push((start, end, ty));
        }
    }
    for at in word_positions(full, "trait") {
        let mut j = skip_ws(bytes, at + 5);
        let (name, after) = read_ident(full, j);
        if name.is_empty() {
            continue;
        }
        j = after;
        while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
            j += 1;
        }
        if j < bytes.len() && bytes[j] == b'{' {
            let end = match_delim(bytes, j, b'}', b'{');
            impl_spans.push((j, end, name));
        }
    }

    let mut structs = Vec::new();
    for at in word_positions(full, "struct") {
        if let Some(s) = parse_struct(file_idx, src, full, at) {
            structs.push(s);
        }
    }

    let mut statics = Vec::new();
    for at in word_positions(full, "static") {
        let mut j = skip_ws(bytes, at + 6);
        // `static mut` (none in-tree, but harmless to accept).
        if full[j..].starts_with("mut ") {
            j = skip_ws(bytes, j + 3);
        }
        let (name, after) = read_ident(full, j);
        if name.is_empty() {
            continue;
        }
        j = skip_ws(bytes, after);
        if j >= bytes.len() || bytes[j] != b':' {
            continue;
        }
        let ty_start = j + 1;
        let mut k = ty_start;
        while k < bytes.len() && bytes[k] != b'=' && bytes[k] != b';' {
            if bytes[k] == b'<' {
                k = match_delim(bytes, k, b'>', b'<');
            }
            k += 1;
        }
        let line = src.line_of_offset(at);
        statics.push(StaticInfo {
            file: file_idx,
            name,
            ty: full[ty_start..k.min(bytes.len())].trim().to_string(),
            line,
            in_test: src.in_test(line),
            lock_name: annotation(src, line, "lock:"),
            atomic_role: annotation(src, line, "atomic:"),
        });
    }

    let mut functions = Vec::new();
    for at in word_positions(full, "fn") {
        let mut j = skip_ws(bytes, at + 2);
        let (name, after) = read_ident(full, j);
        if name.is_empty() {
            continue; // `fn(..)` pointer type
        }
        j = after;
        // Signature runs to the body `{` or a `;`, skipping generic args,
        // parameter parens, and `where` bounds that may contain braces only
        // via closures (none in-tree).
        let sig_start = j;
        let mut k = j;
        while k < bytes.len() && bytes[k] != b'{' && bytes[k] != b';' {
            match bytes[k] {
                b'<' => k = match_delim(bytes, k, b'>', b'<'),
                b'(' => k = match_delim(bytes, k, b')', b'('),
                _ => {}
            }
            k += 1;
        }
        let signature = full[sig_start..k.min(bytes.len())].to_string();
        let line = src.line_of_offset(at);
        let (body_start, body_end) = if k < bytes.len() && bytes[k] == b'{' {
            (k + 1, match_delim(bytes, k, b'}', b'{'))
        } else {
            (k, k)
        };
        let self_ty = impl_spans
            .iter()
            .filter(|(s, e, _)| *s <= at && at < *e)
            .min_by_key(|(s, e, _)| e - s)
            .map(|(_, _, ty)| ty.clone());
        functions.push(Function {
            file: file_idx,
            name,
            self_ty,
            signature,
            body_start,
            body_end,
            line,
            in_test: src.in_test(line),
        });
    }

    (structs, statics, functions)
}

/// Parses `impl [<..>] [Trait for] Type [<..>] [where ..] {` returning the
/// body span and the self type's base name.
fn parse_impl_header(full: &str, at: usize) -> Option<(usize, usize, String)> {
    let bytes = full.as_bytes();
    let mut j = skip_ws(bytes, at + 4);
    if j < bytes.len() && bytes[j] == b'<' {
        j = match_delim(bytes, j, b'>', b'<') + 1;
    }
    // Header text up to the body brace.
    let mut k = j;
    while k < bytes.len() && bytes[k] != b'{' && bytes[k] != b';' {
        if bytes[k] == b'<' {
            k = match_delim(bytes, k, b'>', b'<');
        }
        k += 1;
    }
    if k >= bytes.len() || bytes[k] != b'{' {
        return None;
    }
    let header = &full[j..k];
    let header = header.split(" where ").next().unwrap_or(header);
    let ty_text = match header.find(" for ") {
        Some(pos) => &header[pos + 5..],
        None => header,
    };
    let ty = base_type_name(ty_text)?;
    let end = match_delim(bytes, k, b'}', b'{');
    Some((k, end, ty))
}

/// The base identifier of a type expression: last path segment before any
/// generics (`telemetry::FlightReport<T>` -> `FlightReport`).
fn base_type_name(ty: &str) -> Option<String> {
    let t = ty
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim_start_matches("dyn ")
        .trim();
    let before_generics = t.split('<').next().unwrap_or(t).trim();
    let seg = before_generics
        .rsplit("::")
        .next()
        .unwrap_or(before_generics);
    let seg: String = seg
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if seg.is_empty() {
        None
    } else {
        Some(seg)
    }
}

fn parse_struct(file_idx: usize, src: &LintSource, full: &str, at: usize) -> Option<StructInfo> {
    let bytes = full.as_bytes();
    let mut j = skip_ws(bytes, at + 6);
    let (name, after) = read_ident(full, j);
    if name.is_empty() {
        return None;
    }
    j = after;
    if j < bytes.len() && bytes[j] == b'<' {
        j = match_delim(bytes, j, b'>', b'<') + 1;
    }
    j = skip_ws(bytes, j);
    let line = src.line_of_offset(at);
    let in_test = src.in_test(line);
    let mut fields = Vec::new();
    if j < bytes.len() && bytes[j] == b'{' {
        let end = match_delim(bytes, j, b'}', b'{');
        for (fstart, field_text) in split_top_level(full, j + 1, end, b',') {
            if let Some((fname, fty)) = parse_named_field(&field_text) {
                let fline = src.line_of_offset(fstart + leading_ws(&field_text));
                fields.push(FieldInfo {
                    name: fname,
                    ty: fty,
                    line: fline,
                    lock_name: annotation(src, fline, "lock:"),
                    atomic_role: annotation(src, fline, "atomic:"),
                });
            }
        }
    } else if j < bytes.len() && bytes[j] == b'(' {
        let end = match_delim(bytes, j, b')', b'(');
        for (idx, (fstart, field_text)) in split_top_level(full, j + 1, end, b',')
            .into_iter()
            .enumerate()
        {
            let ty = strip_visibility(field_text.trim()).to_string();
            if ty.is_empty() {
                continue;
            }
            let fline = src.line_of_offset(fstart + leading_ws(&field_text));
            fields.push(FieldInfo {
                name: idx.to_string(),
                ty,
                line: fline,
                // Tuple fields carry the struct-line annotation.
                lock_name: annotation(src, line, "lock:")
                    .or_else(|| annotation(src, fline, "lock:")),
                atomic_role: annotation(src, line, "atomic:")
                    .or_else(|| annotation(src, fline, "atomic:")),
            });
        }
    }
    Some(StructInfo {
        file: file_idx,
        name,
        in_test,
        fields,
    })
}

fn leading_ws(s: &str) -> usize {
    s.len() - s.trim_start().len()
}

/// Splits `full[start..end]` on `sep` bytes at the top nesting level,
/// returning each piece with its absolute start offset.
fn split_top_level(full: &str, start: usize, end: usize, sep: u8) -> Vec<(usize, String)> {
    let bytes = full.as_bytes();
    let mut out = Vec::new();
    let mut piece_start = start;
    let mut depth = 0isize;
    let mut k = start;
    while k < end.min(bytes.len()) {
        match bytes[k] {
            b'(' | b'[' | b'{' | b'<' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            // Only close an angle bracket we opened (`->` has no `<`).
            b'>' if depth > 0 && k > 0 && bytes[k - 1] != b'-' => depth -= 1,
            b if b == sep && depth <= 0 => {
                out.push((piece_start, full[piece_start..k].to_string()));
                piece_start = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    if piece_start < end.min(bytes.len()) {
        out.push((
            piece_start,
            full[piece_start..end.min(bytes.len())].to_string(),
        ));
    }
    out
}

fn strip_visibility(s: &str) -> &str {
    let t = s.trim();
    if let Some(rest) = t.strip_prefix("pub") {
        let rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix('(') {
            if let Some(close) = after.find(')') {
                return after[close + 1..].trim_start();
            }
        }
        return rest;
    }
    t
}

fn parse_named_field(text: &str) -> Option<(String, String)> {
    let t = strip_visibility(text.trim());
    // Skip attribute lines glued onto the field text.
    let t = t
        .lines()
        .filter(|l| !l.trim_start().starts_with("#["))
        .collect::<Vec<_>>()
        .join("\n");
    let t = t.trim();
    let colon = t.find(':')?;
    let name = t[..colon].trim();
    if name.is_empty() || !name.bytes().all(is_ident_byte) {
        return None;
    }
    Some((name.to_string(), t[colon + 1..].trim().to_string()))
}

/// Validates a `// lock: <name>` / `// atomic: <role>` token's charset.
pub(crate) fn valid_annotation_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn struct_fields_and_annotations() {
        let src = "pub struct Inner {\n\
                   // lock: inner.metrics\n\
                   metrics: Mutex<Option<u32>>,\n\
                   pub flight: Mutex<u8>, // lock: inner.flight\n\
                   count: usize,\n\
                   }\n";
        let w = ws(&[("crates/engine/src/x.rs", src)]);
        assert_eq!(w.structs.len(), 1);
        let s = &w.structs[0];
        assert_eq!(s.name, "Inner");
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[0].name, "metrics");
        assert_eq!(s.fields[0].lock_name.as_deref(), Some("inner.metrics"));
        assert_eq!(s.fields[1].lock_name.as_deref(), Some("inner.flight"));
        assert!(s.fields[2].lock_name.is_none());
    }

    #[test]
    fn tuple_struct_fields_inherit_struct_annotation() {
        let src = "// atomic: counter\npub struct Padded(pub AtomicU64);\n";
        let w = ws(&[("crates/engine/src/x.rs", src)]);
        let s = &w.structs[0];
        assert_eq!(s.fields.len(), 1);
        assert_eq!(s.fields[0].name, "0");
        assert!(s.fields[0].ty.contains("AtomicU64"));
        assert_eq!(s.fields[0].atomic_role.as_deref(), Some("counter"));
    }

    #[test]
    fn statics_are_parsed() {
        let src = "// lock: gil\nstatic GIL: ReentrantMutex = ReentrantMutex::new();\n";
        let w = ws(&[("crates/core/src/gil.rs", src)]);
        assert_eq!(w.statics.len(), 1);
        assert_eq!(w.statics[0].name, "GIL");
        assert!(w.statics[0].ty.contains("ReentrantMutex"));
        assert_eq!(w.statics[0].lock_name.as_deref(), Some("gil"));
    }

    #[test]
    fn methods_get_self_type() {
        let src = "struct T;\nimpl T {\n    fn a(&self) { self.b(); }\n    fn b(&self) {}\n}\n\
                   impl fmt::Display for T {\n    fn fmt(&self) {}\n}\n\
                   fn free() {}\n";
        let w = ws(&[("crates/engine/src/x.rs", src)]);
        let names: Vec<_> = w
            .functions
            .iter()
            .map(|f| (f.self_ty.clone(), f.name.clone()))
            .collect();
        assert!(names.contains(&(Some("T".into()), "a".into())));
        assert!(names.contains(&(Some("T".into()), "fmt".into())));
        assert!(names.contains(&(None, "free".into())));
    }

    #[test]
    fn generic_impl_headers_resolve() {
        let src = "impl<T: Send> Queue<T> {\n    fn push_job(&self) {}\n}\n";
        let w = ws(&[("crates/engine/src/x.rs", src)]);
        assert_eq!(w.functions[0].self_ty.as_deref(), Some("Queue"));
    }

    #[test]
    fn crate_visibility_follows_deps() {
        let mut deps = BTreeMap::new();
        deps.insert("engine".to_string(), vec!["sim".to_string()]);
        deps.insert("core".to_string(), vec!["engine".to_string()]);
        deps.insert("sim".to_string(), vec![]);
        let w = Workspace::build(Vec::new(), &deps);
        assert!(w.sees("engine", "sim"));
        assert!(w.sees("core", "sim"), "transitive");
        assert!(!w.sees("engine", "core"), "no back edge");
        assert!(w.sees("", "core"), "tests see everything");
    }

    #[test]
    fn function_bodies_and_nesting() {
        let src = "fn outer() {\n    fn inner() { deep(); }\n    shallow();\n}\n";
        let w = ws(&[("crates/engine/src/x.rs", src)]);
        let outer = w.functions.iter().position(|f| f.name == "outer").unwrap();
        let ranges = w.nested_fn_ranges(outer);
        assert_eq!(ranges.len(), 1);
        let full = w.files[0].source.full_code();
        let deep_at = full.find("deep").unwrap();
        let inner = &w.functions[w.functions.iter().position(|f| f.name == "inner").unwrap()];
        assert_eq!(ranges[0], (inner.body_start, inner.body_end));
        assert!(ranges[0].0 <= deep_at && deep_at < ranges[0].1);
    }
}
