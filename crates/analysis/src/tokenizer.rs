//! A line-oriented approximate Rust lexer.
//!
//! The lint rules only need to know, per line, (a) what the *code* says with
//! comments and literal contents blanked out, (b) what the *comments* say,
//! and (c) whether the line sits inside a `#[cfg(test)]` item. A full parser
//! would be overkill for an in-tree gate; this state machine handles the
//! constructs that actually trip naive `grep`-style linting: line and nested
//! block comments, string/byte-string literals with escapes, raw strings
//! (`r#"…"#`), and the char-literal vs. lifetime ambiguity (`'a'` vs `'a`).
//!
//! Masking preserves line structure exactly: masked output has the same
//! number of lines as the input, with literal contents replaced by spaces
//! (delimiters kept) and comment text removed from the code channel, so
//! every diagnostic's `file:line` points at the real source.

/// One source line after lexing.
#[derive(Clone, Debug, Default)]
pub(crate) struct Masked {
    /// The line's code with comments removed and literal contents blanked.
    pub code: String,
    /// Concatenated comment text appearing on this line (markers stripped),
    /// or `None` if the line carries no comment.
    pub comment: Option<String>,
    /// True when the line's comment is a doc comment (`///`, `//!`, `/**`,
    /// `/*!`).
    pub doc: bool,
}

/// A parsed `// lint: allow(<rule>): <justification>` directive.
#[derive(Clone, Debug)]
pub(crate) struct Allow {
    /// The rule being suppressed.
    pub rule: String,
    /// The stated justification (may be empty — the lint flags that).
    pub justification: String,
}

/// A function item discovered in the masked code.
#[derive(Clone, Debug)]
pub(crate) struct FnInfo {
    /// The function's name.
    pub name: String,
    /// The masked text of the function body (between its outer braces);
    /// empty for bodyless trait-method declarations.
    pub body: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// True when the function sits inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: bool,
}

/// A lexed source file, ready for rule checks.
pub struct LintSource {
    /// Per-line lexing results.
    pub(crate) lines: Vec<Masked>,
    allows: Vec<Vec<Allow>>,
    in_test: Vec<bool>,
    /// All masked lines joined with `\n` (for multi-line scans).
    full: String,
    /// Byte offset of each line's start within `full`.
    line_starts: Vec<usize>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment { depth: usize },
    Str,
    RawStr { hashes: usize },
}

impl LintSource {
    /// Lexes a source file.
    pub fn parse(src: &str) -> Self {
        let lines = mask(src);
        // Doc comments never carry directives — prose describing the
        // allow syntax must not activate it.
        let allows: Vec<Vec<Allow>> = lines
            .iter()
            .map(|l| {
                if l.doc {
                    Vec::new()
                } else {
                    l.comment.as_deref().map_or_else(Vec::new, parse_allows)
                }
            })
            .collect();
        let mut full = String::new();
        let mut line_starts = Vec::with_capacity(lines.len());
        for l in &lines {
            line_starts.push(full.len());
            full.push_str(&l.code);
            full.push('\n');
        }
        let mut in_test = vec![false; lines.len()];
        mark_test_regions(&full, &line_starts, &mut in_test);
        LintSource {
            lines,
            allows,
            in_test,
            full,
            line_starts,
        }
    }

    /// The masked code of a line (comments stripped, literals blanked).
    pub fn code(&self, line: usize) -> &str {
        &self.lines[line].code
    }

    /// True when `line` (0-based) is inside a `#[cfg(test)]` item.
    pub(crate) fn in_test(&self, line: usize) -> bool {
        self.in_test.get(line).copied().unwrap_or(false)
    }

    /// The `lint: allow(...)` directives governing `line`: those written on
    /// the line itself plus any on an unbroken run of comment-only or blank
    /// lines immediately above it.
    pub(crate) fn allow_at(&self, line: usize) -> Vec<&Allow> {
        let mut out: Vec<&Allow> = self.allows[line].iter().collect();
        let mut l = line;
        while l > 0 {
            l -= 1;
            let code_empty = self.lines[l].code.trim().is_empty();
            if !code_empty {
                break;
            }
            out.extend(self.allows[l].iter());
        }
        out
    }

    /// Every allow directive in the file, with its 0-based line.
    pub(crate) fn all_allows(&self) -> impl Iterator<Item = (usize, &Allow)> {
        self.allows
            .iter()
            .enumerate()
            .flat_map(|(line, v)| v.iter().map(move |a| (line, a)))
    }

    /// Extracts `fn` items (free functions and methods) from the masked
    /// code by brace matching.
    pub(crate) fn functions(&self) -> Vec<FnInfo> {
        let bytes = self.full.as_bytes();
        let mut out = Vec::new();
        let mut i = 0usize;
        while let Some(pos) = self.full[i..].find("fn") {
            let at = i + pos;
            i = at + 2;
            let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
            let after_ok = at + 2 >= bytes.len() || !is_ident_byte(bytes[at + 2]);
            if !(before_ok && after_ok) {
                continue;
            }
            // Skip whitespace, read the name (absent for `fn(..)` types).
            let mut j = at + 2;
            while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                j += 1;
            }
            let name_start = j;
            while j < bytes.len() && is_ident_byte(bytes[j]) {
                j += 1;
            }
            if j == name_start {
                continue;
            }
            let name = self.full[name_start..j].to_string();
            // Find the body's opening brace — or a `;` for a bodyless decl.
            let mut k = j;
            while k < bytes.len() && bytes[k] != b'{' && bytes[k] != b';' {
                k += 1;
            }
            let line = self.line_of(at);
            if k >= bytes.len() || bytes[k] == b';' {
                out.push(FnInfo {
                    name,
                    body: String::new(),
                    line,
                    in_test: self.in_test(line),
                });
                continue;
            }
            let body_end = match_brace(bytes, k);
            out.push(FnInfo {
                name,
                body: self.full[k + 1..body_end].to_string(),
                line,
                in_test: self.in_test(line),
            });
        }
        out
    }

    fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset).max(1) - 1
    }

    /// The whole file's masked code joined with `\n` (literal contents
    /// blanked, comments stripped). Multi-line constructs — chained call
    /// receivers, signatures split across lines — can be matched here
    /// without comment/string false positives.
    pub(crate) fn full_code(&self) -> &str {
        &self.full
    }

    /// Maps a byte offset within [`full_code`](Self::full_code) back to its
    /// 0-based line, so semantic rules can report `file:line` diagnostics.
    pub(crate) fn line_of_offset(&self, offset: usize) -> usize {
        self.line_of(offset)
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Returns the index of the `}` matching the `{` at `open` (or the end of
/// input when unbalanced — truncated files must not hang the gate).
fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < bytes.len() {
        match bytes[k] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
        k += 1;
    }
    bytes.len()
}

/// Marks lines governed by `#[cfg(test)]` / `#[test]` attributes: from the
/// attribute through the matching close brace (or semicolon) of the item it
/// decorates.
fn mark_test_regions(full: &str, line_starts: &[usize], in_test: &mut [bool]) {
    let bytes = full.as_bytes();
    for pat in ["#[cfg(test)]", "#[test]"] {
        let mut i = 0usize;
        while let Some(pos) = full[i..].find(pat) {
            let at = i + pos;
            i = at + pat.len();
            let mut k = i;
            while k < bytes.len() && bytes[k] != b'{' && bytes[k] != b';' {
                k += 1;
            }
            let end = if k >= bytes.len() {
                bytes.len().saturating_sub(1)
            } else if bytes[k] == b';' {
                k
            } else {
                match_brace(bytes, k).min(bytes.len().saturating_sub(1))
            };
            let first = line_starts.partition_point(|&s| s <= at).max(1) - 1;
            let last = line_starts.partition_point(|&s| s <= end).max(1) - 1;
            for flag in in_test.iter_mut().take(last + 1).skip(first) {
                *flag = true;
            }
        }
    }
}

/// Parses all `lint: allow(<rule>)[: justification]` directives out of one
/// line's comment text.
fn parse_allows(comment: &str) -> Vec<Allow> {
    const MARKER: &str = "lint: allow(";
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find(MARKER) {
        let after = &rest[pos + MARKER.len()..];
        let Some(close) = after.find(')') else { break };
        let rule = after[..close].trim().to_string();
        let tail = &after[close + 1..];
        let justification = tail
            .strip_prefix(':')
            .map(|j| j.trim().to_string())
            .unwrap_or_default();
        out.push(Allow {
            rule,
            justification,
        });
        rest = tail;
    }
    out
}

/// The lexer proper: walks the source once, splitting every character into
/// the code channel (literal contents blanked) or the comment channel.
fn mask(src: &str) -> Vec<Masked> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = Masked::default();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! finish_line {
        () => {{
            if !comment.is_empty() {
                cur.comment = Some(std::mem::take(&mut comment));
            }
            lines.push(std::mem::take(&mut cur));
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            finish_line!();
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    if matches!(chars.get(i + 2), Some('/') | Some('!')) {
                        cur.doc = true;
                    }
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment { depth: 1 };
                    if matches!(chars.get(i + 2), Some('*') | Some('!'))
                        && chars.get(i + 3) != Some(&'/')
                    {
                        cur.doc = true;
                    }
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && (i == 0 || !chars[i - 1].is_alphanumeric() && chars[i - 1] != '_')
                {
                    // Possible raw/byte string prefix: r", r#", b", br", br#".
                    let mut j = i;
                    if c == 'b' {
                        j += 1;
                    }
                    if chars.get(j) == Some(&'r') {
                        j += 1;
                        let mut hashes = 0;
                        while chars.get(j + hashes) == Some(&'#') {
                            hashes += 1;
                        }
                        if chars.get(j + hashes) == Some(&'"') {
                            for _ in i..=(j + hashes) {
                                cur.code.push(' ');
                            }
                            cur.code.pop();
                            cur.code.push('"');
                            state = State::RawStr { hashes };
                            i = j + hashes + 1;
                            continue;
                        }
                    } else if c == 'b' && chars.get(j) == Some(&'"') {
                        cur.code.push('b');
                        cur.code.push('"');
                        state = State::Str;
                        i = j + 1;
                        continue;
                    }
                    cur.code.push(c);
                    i += 1;
                } else if c == '\'' {
                    // Char literal vs lifetime: `'\…'` and `'x'` are chars,
                    // `'ident` is a lifetime.
                    if next == Some('\\') || chars.get(i + 2) == Some(&'\'') {
                        cur.code.push('\'');
                        i += 1;
                        // Consume to the closing quote, blanking contents.
                        while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                            if chars[i] == '\\' {
                                cur.code.push(' ');
                                i += 1;
                            }
                            if i < chars.len() && chars[i] != '\n' {
                                cur.code.push(' ');
                                i += 1;
                            }
                        }
                        if chars.get(i) == Some(&'\'') {
                            cur.code.push('\'');
                            i += 1;
                        }
                    } else {
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment { depth } => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment { depth: depth + 1 };
                    comment.push_str("/*");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment { depth: depth - 1 };
                        comment.push_str("*/");
                    }
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    cur.code.push(' ');
                    if chars.get(i + 1) != Some(&'\n') {
                        cur.code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            State::RawStr { hashes } => {
                if c == '"' {
                    let closed = (0..hashes).all(|h| chars.get(i + 1 + h) == Some(&'#'));
                    if closed {
                        cur.code.push('"');
                        for _ in 0..hashes {
                            cur.code.push(' ');
                        }
                        state = State::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
                cur.code.push(' ');
                i += 1;
            }
        }
    }
    finish_line!();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_leave_code_channel() {
        let p = LintSource::parse("let x = 1; // trailing unwrap() note\n");
        assert!(p.code(0).contains("let x = 1;"));
        assert!(!p.code(0).contains("unwrap"));
        assert!(p.lines[0].comment.as_deref().unwrap().contains("unwrap"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let p = LintSource::parse("let s = \"call .unwrap() now\";\n");
        assert!(!p.code(0).contains("unwrap"));
        assert!(p.code(0).contains('"'));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let p = LintSource::parse("let s = \"a\\\"b.unwrap()\"; let y = 2;\n");
        assert!(!p.code(0).contains("unwrap"));
        assert!(p.code(0).contains("let y = 2;"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let p = LintSource::parse("let s = r#\"panic! \"inner\" unwrap()\"#; let z = 3;\n");
        assert!(!p.code(0).contains("unwrap"));
        assert!(!p.code(0).contains("panic"));
        assert!(p.code(0).contains("let z = 3;"));
    }

    #[test]
    fn lifetimes_survive_char_literals() {
        let p = LintSource::parse("fn f<'a>(x: &'a str, c: char) -> bool { c == 'x' }\n");
        assert!(p.code(0).contains("&'a str"));
        assert!(!p.code(0).contains("'x'") || p.code(0).contains("' '"));
    }

    #[test]
    fn char_literal_with_quote_escape() {
        let p = LintSource::parse("let q = '\\''; let w = 4;\n");
        assert!(p.code(0).contains("let w = 4;"));
    }

    #[test]
    fn nested_block_comments() {
        let p = LintSource::parse("/* outer /* inner */ still comment */ let a = 5;\n");
        assert!(p.code(0).contains("let a = 5;"));
        assert!(!p.code(0).contains("outer"));
    }

    #[test]
    fn multi_line_block_comment_keeps_line_count() {
        let p = LintSource::parse("/* one\ntwo\nthree */ let b = 6;\n");
        assert_eq!(p.lines.len(), 4);
        assert!(p.code(2).contains("let b = 6;"));
        assert!(p.lines[1].comment.as_deref().unwrap().contains("two"));
    }

    #[test]
    fn cfg_test_region_is_tracked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod2() {}\n";
        let p = LintSource::parse(src);
        assert!(!p.in_test(0));
        assert!(p.in_test(1));
        assert!(p.in_test(3));
        assert!(!p.in_test(5));
    }

    #[test]
    fn cfg_test_on_bodyless_item() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() {}\n";
        let p = LintSource::parse(src);
        assert!(p.in_test(1));
        assert!(!p.in_test(2));
    }

    #[test]
    fn functions_are_extracted_with_bodies() {
        let src = "impl T {\n    pub fn apply(&self) {\n        self.go();\n    }\n}\nfn free() { helper(); }\n";
        let p = LintSource::parse(src);
        let fns = p.functions();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "apply");
        assert!(fns[0].body.contains("self.go()"));
        assert_eq!(fns[1].name, "free");
        assert!(fns[1].body.contains("helper()"));
    }

    #[test]
    fn bodyless_trait_method_does_not_swallow_neighbors() {
        let src = "trait T {\n    fn decl(&self);\n    fn with_default(&self) { self.decl() }\n}\n";
        let p = LintSource::parse(src);
        let fns = p.functions();
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_empty());
        assert!(fns[1].body.contains("self.decl()"));
    }

    #[test]
    fn allow_directive_parses_rule_and_justification() {
        let p = LintSource::parse("x(); // lint: allow(panic): provably non-empty.\n");
        let allows = p.allow_at(0);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "panic");
        assert_eq!(allows[0].justification, "provably non-empty.");
    }

    #[test]
    fn allow_on_preceding_comment_line_covers_next_code_line() {
        let p = LintSource::parse("// lint: allow(panic): bounded above.\nx();\n");
        assert!(p.allow_at(1).iter().any(|a| a.rule == "panic"));
    }

    #[test]
    fn allow_does_not_leak_past_code() {
        let p = LintSource::parse("// lint: allow(panic): one.\nx();\ny();\n");
        assert!(p.allow_at(2).is_empty());
    }

    #[test]
    fn doc_comments_are_flagged() {
        let p = LintSource::parse("/// # Safety\n/// caller checks i.\nfn f() {}\n");
        assert!(p.lines[0].doc);
        assert!(p.lines[0].comment.as_deref().unwrap().contains("# Safety"));
    }
}
