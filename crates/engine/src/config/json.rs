//! From-scratch JSON parser and serializer for [`Config`] trees.
//!
//! Implements RFC 8259 minus arbitrary-precision numbers (integers that fit
//! `i64` stay integers; everything else becomes `f64`). Written here rather
//! than pulling a dependency because the config format is part of the system
//! under reproduction (paper §5 discusses the JSON entry point explicitly).

use crate::base::error::{GkoError, Result};
use crate::config::Config;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serializes a config tree to compact JSON.
pub fn to_string(config: &Config) -> String {
    let mut out = String::new();
    write_value(config, &mut out);
    out
}

/// Serializes a config tree to indented JSON (2-space indent), for
/// human-diffable committed artifacts like the benchmark result files.
pub fn to_string_pretty(config: &Config) -> String {
    let mut out = String::new();
    write_value_pretty(config, &mut out, 0);
    out.push('\n');
    out
}

fn write_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_value_pretty(config: &Config, out: &mut String, depth: usize) {
    match config {
        Config::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                write_indent(out, depth + 1);
                write_value_pretty(item, out, depth + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            write_indent(out, depth);
            out.push(']');
        }
        Config::Map(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in map.iter().enumerate() {
                write_indent(out, depth + 1);
                write_string(k, out);
                out.push_str(": ");
                write_value_pretty(v, out, depth + 1);
                if i + 1 < map.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            write_indent(out, depth);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn write_value(config: &Config, out: &mut String) {
    match config {
        Config::Null => out.push_str("null"),
        Config::Bool(true) => out.push_str("true"),
        Config::Bool(false) => out.push_str("false"),
        // Straight into `out`: writing to a `String` cannot fail.
        Config::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Config::Float(v) => {
            if v.is_finite() {
                // Debug always keeps a decimal point.
                let _ = write!(out, "{v:?}");
            } else {
                // JSON has no Inf/NaN; serialize as null like Python's
                // json.dumps(allow_nan=False) alternative behaviour.
                out.push_str("null");
            }
        }
        Config::Str(s) => write_string(s, out),
        Config::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Config::Map(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deep arrays and objects may nest. The parser recurses once per level,
/// so without a bound a few kilobytes of `[` overflow the stack; Listing 2
/// nests three deep.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a config tree.
pub fn parse(text: &str) -> Result<Config> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> GkoError {
        GkoError::InvalidConfig(format!("JSON error at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<()> {
        if self.bump() == Some(byte) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Config> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Config::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal(b"true", Config::Bool(true)),
            Some(b'f') => self.parse_literal(b"false", Config::Bool(false)),
            Some(b'n') => self.parse_literal(b"null", Config::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(&format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object, a level below the current one.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Config>) -> Result<Config> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn parse_literal(&mut self, lit: &[u8], value: Config) -> Result<Config> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn parse_object(&mut self) -> Result<Config> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Config::Map(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Config::Map(map)),
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Config> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Config::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Config::Array(items)),
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Surrogate pair handling.
                        if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.error("unpaired surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            out.push(
                                char::from_u32(combined)
                                    .ok_or_else(|| self.error("invalid code point"))?,
                            );
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.error("unexpected low surrogate"));
                        } else {
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.error("invalid code point"))?,
                            );
                        }
                    }
                    _ => return Err(self.error("invalid escape")),
                },
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(c) => {
                    // Reassemble UTF-8 multibyte sequences.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let len = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => return Err(self.error("invalid UTF-8")),
                        };
                        let start = self.pos - 1;
                        let end = start + len;
                        if end > self.bytes.len() {
                            return Err(self.error("truncated UTF-8"));
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.error("invalid UTF-8"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .bump()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit"))?;
            v = v * 16 + digit;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Config> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Config::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Config::Float)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing_2_style_document() {
        let doc = r#"{
            "type": "solver::Gmres",
            "krylov_dim": 30,
            "preconditioner": {"type": "preconditioner::Jacobi", "max_block_size": 1},
            "criteria": [
                {"type": "Iteration", "max_iters": 1000},
                {"type": "ResidualNorm", "reduction_factor": 1e-06}
            ]
        }"#;
        let cfg = parse(doc).unwrap();
        assert_eq!(cfg.get("type").unwrap().as_str(), Some("solver::Gmres"));
        assert_eq!(cfg.get("krylov_dim").unwrap().as_int(), Some(30));
        let crit = cfg.get("criteria").unwrap().as_array().unwrap();
        assert_eq!(
            crit[1].get("reduction_factor").unwrap().as_float(),
            Some(1e-6)
        );
    }

    #[test]
    fn pretty_roundtrip_preserves_structure() {
        let doc = r#"{"a":[1,2.5,true,null,"s"],"b":{"c":-7},"empty":[],"none":{}}"#;
        let cfg = parse(doc).unwrap();
        let pretty = to_string_pretty(&cfg);
        assert!(pretty.contains("\n  \"a\": [\n"), "{pretty}");
        assert_eq!(parse(&pretty).unwrap(), cfg);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let doc = r#"{"a":[1,2.5,true,false,null,"s"],"b":{"c":-7}}"#;
        let cfg = parse(doc).unwrap();
        let again = parse(&to_string(&cfg)).unwrap();
        assert_eq!(cfg, again);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let cfg = Config::Str("line\nquote\"back\\slash\ttab\u{1F600}".into());
        let json = to_string(&cfg);
        assert_eq!(parse(&json).unwrap(), cfg);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""é😀""#).unwrap(), Config::Str("é😀".into()));
    }

    #[test]
    fn integers_stay_integers() {
        assert_eq!(parse("42").unwrap(), Config::Int(42));
        assert_eq!(parse("-42").unwrap(), Config::Int(-42));
        assert_eq!(parse("42.0").unwrap(), Config::Float(42.0));
        assert_eq!(parse("1e3").unwrap(), Config::Float(1000.0));
        // Integer overflowing i64 degrades to float.
        assert!(matches!(
            parse("99999999999999999999").unwrap(),
            Config::Float(_)
        ));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "\"unterminated",
            "tru",
            "01x",
            "{\"a\":1} trailing",
            "\"bad \\q escape\"",
            "\"\\ud800\"", // unpaired surrogate
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nested_depth_and_empty_containers() {
        assert_eq!(parse("[]").unwrap(), Config::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Config::map());
        let deep = parse("[[[[[1]]]]]").unwrap();
        assert_eq!(to_string(&deep), "[[[[[1]]]]]");
    }

    /// `open` repeated `levels` times around `1`, closed again.
    fn nest(levels: usize, open: &str, close: &str) -> String {
        format!("{}1{}", open.repeat(levels), close.repeat(levels))
    }

    #[test]
    fn nesting_is_bounded_not_recursed_into_the_stack() {
        let shapes = [("[", "]"), ("{\"a\":", "}"), ("[{\"a\":", "}]")];
        for (open, close) in shapes {
            // `[{"a":` opens two levels at once.
            let per = open.matches(['[', '{']).count();
            assert!(
                parse(&nest(MAX_DEPTH / per, open, close)).is_ok(),
                "{open} at the limit"
            );
            for levels in [MAX_DEPTH / per + 1, 1_000_000] {
                // Unclosed, as a hostile file would be: the bound must trip
                // before the parser gets to find that out.
                for doc in [nest(levels, open, close), open.repeat(levels)] {
                    match parse(&doc) {
                        Err(GkoError::InvalidConfig(msg)) => {
                            assert!(msg.contains("JSON error at byte"), "{msg}");
                            assert!(msg.contains("nesting deeper than 128"), "{msg}");
                        }
                        other => panic!("{open} x {levels}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(to_string(&Config::Float(f64::NAN)), "null");
        assert_eq!(to_string(&Config::Float(f64::INFINITY)), "null");
    }
}
