//! Atomic declarations by role and the `atomic-ordering` rule.
//!
//! Every `Atomic*` field or static in `crates/engine` / `crates/core` must be
//! classified with a `// atomic: <role>` annotation:
//!
//! * **`counter`** — a statistic nobody synchronizes on (event counts,
//!   byte totals). Correct ordering is `Relaxed` everywhere; an
//!   Acquire/Release/SeqCst access is a wasted fence on the hot path and is
//!   flagged.
//! * **`flag`** — a boolean/handshake other threads *act* on (shutdown,
//!   armed, rendezvous counts). A `Relaxed` store publishing a flag is
//!   flagged: writes that precede the store are not ordered before it for
//!   the observing thread, so the flag can be seen before the data it
//!   guards. Stores must use `Release` (or stronger), or be justified with
//!   `// lint: allow(atomic-ordering): ...` when an external happens-before
//!   edge (a mutex, a channel) already orders them.
//! * **`seqlock`** — part of a hand-rolled seqlock/versioning protocol with
//!   its own fence discipline; exempt from both checks.
//!
//! Attribution reuses the receiver-chain parser and cascade from the lock
//! analysis; unattributable receivers (locals, call results) are skipped.

use crate::model::{valid_annotation_name, Workspace, ATOMIC_ROLES};
use crate::{Diagnostic, RULE_ATOMIC_ORDERING};
use std::collections::BTreeMap;

/// A declared (annotated) atomic.
#[derive(Debug)]
pub(crate) struct AtomicDecl {
    /// Role: `counter`, `flag`, or `seqlock`.
    pub role: String,
    /// Declaring struct, or `None` for a static.
    pub struct_name: Option<String>,
    /// Field / static identifier.
    pub field: String,
    /// Declaring file index.
    pub file: usize,
}

fn is_atomic_type(ty: &str) -> bool {
    // `AtomicU64`, `AtomicUsize`, `AtomicBool`, … — an `Atomic`-prefixed
    // identifier anywhere in the type text (incl. `Arc<AtomicBool>`).
    let bytes = ty.as_bytes();
    let mut i = 0;
    while let Some(pos) = ty[i..].find("Atomic") {
        let at = i + pos;
        i = at + 6;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        if before_ok {
            return true;
        }
    }
    false
}

fn must_declare(path: &str) -> bool {
    (path.starts_with("crates/engine/") || path.starts_with("crates/core/"))
        && !path.contains("/tests/")
        && !path.contains("/benches/")
}

/// Collects declared atomics and emits declaration diagnostics.
pub(crate) fn collect_atomics(ws: &Workspace, diags: &mut Vec<Diagnostic>) -> Vec<AtomicDecl> {
    let mut decls = Vec::new();
    let mut push_decl = |file: usize,
                         line: usize,
                         struct_name: Option<&str>,
                         field: &str,
                         ty: &str,
                         role: &Option<String>,
                         in_test: bool,
                         diags: &mut Vec<Diagnostic>| {
        if !is_atomic_type(ty) {
            if role.is_some() && !in_test {
                diags.push(Diagnostic {
                    path: ws.files[file].path.clone(),
                    line: line + 1,
                    rule: RULE_ATOMIC_ORDERING,
                    message: format!(
                        "`// atomic:` annotation on `{field}`, whose type \
                         `{ty}` is not an Atomic*"
                    ),
                });
            }
            return;
        }
        if in_test {
            return;
        }
        let path = &ws.files[file].path;
        match role {
            Some(r) if ATOMIC_ROLES.contains(&r.as_str()) => decls.push(AtomicDecl {
                role: r.clone(),
                struct_name: struct_name.map(str::to_owned),
                field: field.to_owned(),
                file,
            }),
            Some(r) => diags.push(Diagnostic {
                path: path.clone(),
                line: line + 1,
                rule: RULE_ATOMIC_ORDERING,
                message: format!(
                    "unknown atomic role `{r}` on `{field}` — use \
                     `// atomic: counter|flag|seqlock`",
                ),
            }),
            None if must_declare(path) && valid_annotation_name(field) => {
                let src = &ws.files[file].source;
                if !src
                    .allow_at(line)
                    .iter()
                    .any(|a| a.rule == RULE_ATOMIC_ORDERING)
                {
                    diags.push(Diagnostic {
                        path: path.clone(),
                        line: line + 1,
                        rule: RULE_ATOMIC_ORDERING,
                        message: format!(
                            "unclassified atomic `{field}` — every engine/core \
                             Atomic* must carry `// atomic: counter|flag|seqlock` \
                             so ordering requirements are machine-checked"
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
                &field.atomic_role,
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
            &st.atomic_role,
            st.in_test,
            diags,
        );
    }
    decls
}

/// Atomic accessor methods and whether each is a store-side (publishing)
/// operation.
const ATOMIC_OPS: &[(&str, bool)] = &[
    (".store(", true),
    (".load(", false),
    (".swap(", true),
    (".fetch_add(", true),
    (".fetch_sub(", true),
    (".fetch_or(", true),
    (".fetch_and(", true),
    (".fetch_xor(", true),
    (".fetch_max(", true),
    (".fetch_min(", true),
];

/// Extracts the `Ordering::X` (or bare `Relaxed`/`Acquire`/…) tokens in the
/// call's argument list.
fn orderings_in_args(full: &str, open_paren: usize) -> Vec<String> {
    let bytes = full.as_bytes();
    let close = {
        let mut depth = 0usize;
        let mut k = open_paren;
        loop {
            if k >= bytes.len() {
                break k;
            }
            match bytes[k] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        break k;
                    }
                }
                _ => {}
            }
            k += 1;
        }
    };
    let args = &full[open_paren + 1..close.min(full.len())];
    let mut out = Vec::new();
    for name in ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"] {
        if crate::contains_word(args, name) {
            out.push(name.to_string());
        }
    }
    out
}

/// The `atomic-ordering` rule: role-checks every attributed atomic access.
pub(crate) fn check_atomic_ordering(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    let decls = collect_atomics(ws, diags);
    // Field-name cascade table (same scheme as lock attribution).
    let mut by_field: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in decls.iter().enumerate() {
        by_field.entry(d.field.as_str()).or_default().push(i);
    }
    for (id, f) in ws.functions.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let src = &ws.files[f.file].source;
        let full = src.full_code();
        let skip = ws.nested_fn_ranges(id);
        for (pat, is_store) in ATOMIC_OPS {
            let mut i = f.body_start;
            while let Some(pos) = full[i..f.body_end].find(pat) {
                let dot = i + pos;
                let open_paren = dot + pat.len() - 1;
                i = dot + pat.len();
                if skip.iter().any(|(s, e)| *s <= dot && dot < *e) {
                    continue;
                }
                let line = src.line_of_offset(dot);
                if src.in_test(line) {
                    continue;
                }
                let Some(segs) = crate::locks::receiver_segments(full, dot) else {
                    continue;
                };
                let Some(decl) = attribute_atomic(&decls, &by_field, f, &segs) else {
                    continue;
                };
                let orderings = orderings_in_args(full, open_paren);
                if orderings.is_empty() {
                    continue; // ordering passed through a variable — opaque
                }
                let allowed = || {
                    src.allow_at(line)
                        .iter()
                        .any(|a| a.rule == RULE_ATOMIC_ORDERING)
                };
                match decls[decl].role.as_str() {
                    "counter" if orderings.iter().any(|o| o != "Relaxed") && !allowed() => {
                        diags.push(Diagnostic {
                            path: ws.files[f.file].path.clone(),
                            line: line + 1,
                            rule: RULE_ATOMIC_ORDERING,
                            message: format!(
                                "{} ordering on counter `{}` — counters \
                                 synchronize nothing; use Relaxed (wasted \
                                 fence on the hot path), or reclassify the \
                                 atomic's role",
                                orderings.join("/"),
                                decls[decl].field
                            ),
                        });
                    }
                    "flag"
                        if *is_store && orderings.iter().any(|o| o == "Relaxed") && !allowed() =>
                    {
                        diags.push(Diagnostic {
                            path: ws.files[f.file].path.clone(),
                            line: line + 1,
                            rule: RULE_ATOMIC_ORDERING,
                            message: format!(
                                "Relaxed store publishes flag `{}` — \
                                 observers may see the flag before the data \
                                 it guards; store with Release, or justify \
                                 the external happens-before edge with \
                                 `// lint: allow(atomic-ordering): ...`",
                                decls[decl].field
                            ),
                        });
                    }
                    _ => {} // seqlock: exempt
                }
            }
        }
    }
}

fn attribute_atomic(
    decls: &[AtomicDecl],
    by_field: &BTreeMap<&str, Vec<usize>>,
    caller: &crate::model::Function,
    segs: &[crate::locks::ReceiverSegment],
) -> Option<usize> {
    let last = segs.last()?;
    if last.is_call {
        return None;
    }
    let hits = by_field.get(last.name.as_str())?;
    if segs.len() == 1 {
        // Bare ident: unique static, or a same-named field as a fallback
        // (atomics are often passed as `shutdown: &AtomicBool` parameters
        // named after their field).
        let statics: Vec<usize> = hits
            .iter()
            .filter(|i| decls[**i].struct_name.is_none())
            .copied()
            .collect();
        if statics.len() == 1 {
            return Some(statics[0]);
        }
        return if hits.len() == 1 { Some(hits[0]) } else { None };
    }
    match hits.len() {
        1 => Some(hits[0]),
        _ => {
            if let Some(self_ty) = &caller.self_ty {
                let by_ty: Vec<usize> = hits
                    .iter()
                    .filter(|i| decls[**i].struct_name.as_deref() == Some(self_ty))
                    .copied()
                    .collect();
                if by_ty.len() == 1 {
                    return Some(by_ty[0]);
                }
            }
            let by_file: Vec<usize> = hits
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
        let mut diags = Vec::new();
        check_atomic_ordering(&ws, &mut diags);
        diags
    }

    #[test]
    fn relaxed_store_on_flag_is_flagged() {
        let src = "use std::sync::atomic::{AtomicBool, Ordering};\n\
            pub struct S {\n\
                // atomic: flag\n\
                armed: AtomicBool,\n\
            }\n\
            impl S {\n\
                pub fn arm(&self) { self.armed.store(true, Ordering::Relaxed); }\n\
            }\n";
        let diags = run(&[("crates/engine/src/x.rs", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("Relaxed store publishes flag"));
    }

    #[test]
    fn release_store_on_flag_is_clean() {
        let src = "use std::sync::atomic::{AtomicBool, Ordering};\n\
            pub struct S {\n\
                // atomic: flag\n\
                armed: AtomicBool,\n\
            }\n\
            impl S {\n\
                pub fn arm(&self) { self.armed.store(true, Ordering::Release); }\n\
                pub fn check(&self) -> bool { self.armed.load(Ordering::Relaxed) }\n\
            }\n";
        assert!(run(&[("crates/engine/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn strong_ordering_on_counter_is_wasted_fence() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
            pub struct S {\n\
                // atomic: counter\n\
                hits: AtomicU64,\n\
            }\n\
            impl S {\n\
                pub fn hit(&self) { self.hits.fetch_add(1, Ordering::SeqCst); }\n\
            }\n";
        let diags = run(&[("crates/engine/src/x.rs", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("wasted fence"));
    }

    #[test]
    fn relaxed_counter_is_clean() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
            pub struct S {\n\
                // atomic: counter\n\
                hits: AtomicU64,\n\
            }\n\
            impl S {\n\
                pub fn hit(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
            }\n";
        assert!(run(&[("crates/engine/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn unclassified_engine_atomic_is_flagged() {
        let src = "use std::sync::atomic::AtomicUsize;\n\
            pub struct S {\n\
                n: AtomicUsize,\n\
            }\n";
        let diags = run(&[("crates/engine/src/x.rs", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("unclassified atomic `n`"));
    }

    #[test]
    fn seqlock_role_is_exempt() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
            pub struct S {\n\
                // atomic: seqlock\n\
                version: AtomicU64,\n\
            }\n\
            impl S {\n\
                pub fn bump(&self) { self.version.store(1, Ordering::Relaxed); }\n\
            }\n";
        assert!(run(&[("crates/engine/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn allow_blesses_relaxed_publish() {
        let src = "use std::sync::atomic::{AtomicBool, Ordering};\n\
            pub struct S {\n\
                // atomic: flag\n\
                shutdown: AtomicBool,\n\
            }\n\
            impl S {\n\
                pub fn stop(&self) {\n\
                    // lint: allow(atomic-ordering): ordered by the control mutex unlock below.\n\
                    self.shutdown.store(true, Ordering::Relaxed);\n\
                }\n\
            }\n";
        assert!(run(&[("crates/engine/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn bench_crate_atomics_need_no_annotation() {
        let src = "use std::sync::atomic::AtomicUsize;\npub struct S { n: AtomicUsize }\n";
        assert!(run(&[("crates/bench/src/x.rs", src)]).is_empty());
    }
}
