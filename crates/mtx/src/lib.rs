//! Matrix Market (`.mtx`) file reader and writer.
//!
//! pyGinkgo's `read` function (Listing 1) loads SuiteSparse matrices from
//! Matrix Market files. This crate implements the format from the NIST
//! specification: `coordinate` and `array` layouts; `real`, `integer`, and
//! `pattern` fields; `general`, `symmetric`, and `skew-symmetric`
//! symmetries. (`complex`/`hermitian` are rejected with a clear error — the
//! reproduction's value types are real, per Table 1 of the paper.)
//!
//! The reader is a single pass over the document's bytes and the writer
//! formats into one reused block buffer: neither allocates per line or per
//! token (DESIGN.md, "Cold path: MTX I/O and triplet assembly"). Above a
//! size floor both cut their entry loop into line-aligned slices or entry
//! ranges that run on several threads, with the same bytes, entries and
//! errors as one pass ("Lanes" there).

#![warn(missing_docs)]

mod lemire;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod mutations;
mod shortest;

use lemire::eisel_lemire;
use shortest::{push_integer, push_shortest};
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::thread;

/// Storage layout declared in the header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MtxFormat {
    /// Sparse triplet list.
    Coordinate,
    /// Dense column-major values.
    Array,
}

/// Symmetry declared in the header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MtxSymmetry {
    /// All entries stored explicitly.
    General,
    /// Lower triangle stored; `(i, j)` implies `(j, i)` with equal value.
    Symmetric,
    /// Strictly lower triangle stored; `(i, j)` implies `(j, i)` negated.
    SkewSymmetric,
}

/// A parsed Matrix Market file: sorted, symmetry-expanded triplets.
#[derive(Clone, Debug, PartialEq)]
pub struct MtxData {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Expanded entries, sorted by (row, col); duplicates are NOT summed
    /// (consumers like `Csr::from_triplets` do that).
    pub entries: Vec<(usize, usize, f64)>,
    /// The symmetry the file declared (before expansion).
    pub declared_symmetry: MtxSymmetry,
    /// The layout the file declared.
    pub declared_format: MtxFormat,
}

/// Errors from reading or writing Matrix Market data.
#[derive(Debug)]
pub enum MtxError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// The file violates the format specification.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Valid Matrix Market, but a variant this crate does not support.
    Unsupported(String),
}

impl fmt::Display for MtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtxError::Io(e) => write!(f, "I/O error: {e}"),
            MtxError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            MtxError::Unsupported(what) => write!(f, "unsupported matrix market variant: {what}"),
        }
    }
}

impl std::error::Error for MtxError {}

impl From<std::io::Error> for MtxError {
    fn from(e: std::io::Error) -> Self {
        MtxError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> MtxError {
    MtxError::Parse {
        line,
        message: message.into(),
    }
}

/// Upper bound on entries reserved up front from header-declared sizes
/// (16M entries ≈ 384 MB of triplets). A malformed or hostile header can
/// declare an absurd nnz; capping the speculative reservation keeps the
/// parser from aborting on an over-large allocation before it has read a
/// single entry — oversized files instead fail with a line-numbered count
/// mismatch, and genuinely large files still grow geometrically past the
/// cap.
const RESERVE_CAP: usize = 1 << 24;

/// A token that is present but is not a number of the kind asked for.
struct Malformed;

/// Whitespace inside a line: every ASCII byte `char::is_whitespace` accepts
/// except the line terminator `\n`.
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | 0x0B | 0x0C | b'\r')
}

/// Cursor over the document's bytes. Lines end at `\n`, tokens are maximal
/// runs of non-whitespace bytes and never span lines.
struct Scanner<'a> {
    buf: &'a [u8],
    pos: usize,
    /// 1-based number of the line `pos` is on; 0 before the first line.
    line: usize,
}

impl<'a> Scanner<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Scanner {
            buf,
            pos: 0,
            line: 0,
        }
    }

    fn skip_blanks(&mut self) {
        while self.buf.get(self.pos).is_some_and(|&b| is_blank(b)) {
            self.pos += 1;
        }
    }

    /// From a line start, moves to the first non-blank byte of the next line
    /// that has one and returns that byte.
    fn next_line(&mut self) -> Option<u8> {
        while self.pos < self.buf.len() {
            self.line += 1;
            self.skip_blanks();
            match self.buf.get(self.pos) {
                Some(b'\n') => self.pos += 1,
                Some(&b) => return Some(b),
                None => {}
            }
        }
        None
    }

    /// Like [`Scanner::next_line`], also passing over `%` comment lines.
    fn next_record(&mut self) -> bool {
        while let Some(b) = self.next_line() {
            if b != b'%' {
                return true;
            }
            self.end_line();
        }
        false
    }

    /// Drops the rest of the current line, terminator included, so that
    /// trailing tokens are ignored.
    fn end_line(&mut self) {
        while let Some(&b) = self.buf.get(self.pos) {
            self.pos += 1;
            if b == b'\n' {
                break;
            }
        }
    }

    /// Moves to the end of the token `pos` is in, or stays put between tokens.
    fn end_token(&mut self) {
        while self
            .buf
            .get(self.pos)
            .is_some_and(|&b| !is_blank(b) && b != b'\n')
        {
            self.pos += 1;
        }
    }

    /// The next token on the current line, `None` at its end.
    fn token(&mut self) -> Option<&'a [u8]> {
        self.skip_blanks();
        let start = self.pos;
        self.end_token();
        self.buf.get(start..self.pos).filter(|tok| !tok.is_empty())
    }

    /// The next token on the current line as an index, parsed while it is
    /// scanned. Accepts what `usize::from_str` accepts: an optional `+` and
    /// at least one decimal digit, the value fitting in `usize`.
    fn index(&mut self) -> Option<Result<usize, Malformed>> {
        self.skip_blanks();
        let start = self.pos;
        if self.buf.get(self.pos) == Some(&b'+') {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut value = 0usize;
        let mut overflowed = false;
        while let Some(d) = self.buf.get(self.pos).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            let (scaled, past_mul) = value.overflowing_mul(10);
            let (next, past_add) = scaled.overflowing_add(usize::from(d));
            overflowed |= past_mul | past_add;
            value = next;
            self.pos += 1;
        }
        let digits_end = self.pos;
        self.end_token();
        if self.pos == start {
            return None;
        }
        // Digits are required, and nothing may follow them inside the token.
        let well_formed = digits_end > digits && digits_end == self.pos && !overflowed;
        Some(if well_formed {
            Ok(value)
        } else {
            Err(Malformed)
        })
    }

    /// The next token on the current line as a value: exactly the `f64`
    /// that `str::parse` returns for it.
    ///
    /// A token of the shape `[+-] digits [. digits] [e|E [+-] digits]` whose
    /// digits, read as one integer, are at most 2^53, and whose decimal
    /// exponent (written exponent minus fraction digits) is within ±22, is
    /// converted while it is scanned, by Clinger's fast path: mantissa and
    /// power of ten are both exact `f64`s, so the one IEEE multiply or divide
    /// rounds the exact decimal value once, which is the definition of the
    /// correctly rounded result. Every other token (longer mantissas, larger
    /// exponents, `inf`, `nan`, malformed text) goes to `str::parse::<f64>`.
    fn value(&mut self) -> Option<Result<f64, Malformed>> {
        self.skip_blanks();
        let start = self.pos;
        let fast = self.decimal();
        let decimal_end = self.pos;
        self.end_token();
        if self.pos == start {
            return None;
        }
        let parsed = fast.filter(|_| decimal_end == self.pos).or_else(|| {
            let tok = self.buf.get(start..self.pos)?;
            std::str::from_utf8(tok).ok()?.parse().ok()
        });
        Some(parsed.ok_or(Malformed))
    }

    /// Consumes a `+` or `-` at `pos`, if there is one; true for `-`.
    fn sign(&mut self) -> bool {
        let sign = self.buf.get(self.pos).copied();
        if let Some(b'+' | b'-') = sign {
            self.pos += 1;
        }
        sign == Some(b'-')
    }

    /// Consumes the longest decimal-literal prefix at `pos` and returns its
    /// value when the fast path of [`Scanner::value`] applies to it.
    fn decimal(&mut self) -> Option<f64> {
        let negative = self.sign();
        // Digits past the 19th would overflow the u64 (and 2^53 long before).
        let mut mantissa = 0u64;
        let mut digits = 0usize;
        let mut point = None;
        while let Some(&b) = self.buf.get(self.pos) {
            let d = b.wrapping_sub(b'0');
            if d <= 9 {
                mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(d));
                digits += 1;
            } else if b == b'.' && point.is_none() {
                point = Some(digits);
            } else {
                break;
            }
            self.pos += 1;
        }
        let mut exponent = 0i32;
        if let Some(b'e' | b'E') = self.buf.get(self.pos) {
            self.pos += 1;
            let exp_negative = self.sign();
            let exp_start = self.pos;
            while let Some(d) = self.buf.get(self.pos).map(|b| b.wrapping_sub(b'0')) {
                if d > 9 {
                    break;
                }
                exponent = exponent.saturating_mul(10).saturating_add(i32::from(d));
                self.pos += 1;
            }
            if self.pos == exp_start {
                return None;
            }
            if exp_negative {
                exponent = -exponent;
            }
        }
        let fraction_digits = point.map_or(0, |at| digits - at);
        let exponent = exponent.saturating_sub(i32::try_from(fraction_digits).ok()?);
        if digits == 0 || digits > 19 {
            return None;
        }
        let magnitude = match POW10.get(usize::try_from(exponent.unsigned_abs()).ok()?) {
            Some(&power) if mantissa <= 1 << 53 => {
                // Exact: `mantissa <= 2^53`.
                let magnitude = mantissa as f64;
                if exponent < 0 {
                    magnitude / power
                } else {
                    magnitude * power
                }
            }
            _ => eisel_lemire(mantissa, exponent)?,
        };
        Some(if negative { -magnitude } else { magnitude })
    }
}

/// `10^k` for `k <= 22`: every one is exactly representable in an `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Number of values an `array` document of this shape stores, `None` when it
/// does not fit in `usize`.
fn array_len(symmetry: MtxSymmetry, rows: usize, cols: usize) -> Option<usize> {
    // Widening: a product of two `usize` always fits in a `u128`.
    let (rows, cols) = (rows as u128, cols as u128);
    let len = match symmetry {
        MtxSymmetry::General => rows * cols,
        MtxSymmetry::Symmetric => cols * (cols + 1) / 2,
        MtxSymmetry::SkewSymmetric => cols * cols.saturating_sub(1) / 2,
    };
    usize::try_from(len).ok()
}

/// What the header and size line of a `coordinate` document fix for its
/// entry lines.
#[derive(Clone, Copy)]
struct Shape {
    rows: usize,
    cols: usize,
    pattern: bool,
    symmetry: MtxSymmetry,
}

/// What a run of entry lines held.
struct Tally {
    /// Entry lines.
    seen: usize,
    /// Lines of any kind: entries, comments and blank lines.
    lines: usize,
    /// Whether the entries pushed are in (row, col) order.
    sorted: bool,
}

/// Parses `buf`, a run of whole entry lines (comment and blank lines among
/// them), onto `entries`, checking each line as it comes. An error's line
/// number counts from `buf`'s first line, as line 1.
fn entry_lines(
    buf: &[u8],
    shape: Shape,
    entries: &mut Vec<(usize, usize, f64)>,
) -> Result<Tally, MtxError> {
    let Shape {
        rows,
        cols,
        pattern,
        symmetry,
    } = shape;
    let mut sc = Scanner::new(buf);
    let mut sorted = true;
    let mut last = (0usize, 0usize);
    let mut seen = 0usize;
    while sc.next_record() {
        let (i, j) = (sc.index(), sc.index());
        let v = if pattern { Some(Ok(1.0)) } else { sc.value() };
        sc.end_line();
        let (Some(i), Some(j), Some(v)) = (i, j, v) else {
            return Err(parse_err(sc.line, "too few values on entry line"));
        };
        let i = i.map_err(|_| parse_err(sc.line, "bad row index"))?;
        let j = j.map_err(|_| parse_err(sc.line, "bad col index"))?;
        if i == 0 || j == 0 || i > rows || j > cols {
            return Err(parse_err(
                sc.line,
                format!("entry ({i}, {j}) outside {rows}x{cols} (indices are 1-based)"),
            ));
        }
        let v = v.map_err(|_| parse_err(sc.line, "bad value"))?;
        let (i0, j0) = (i - 1, j - 1);
        match symmetry {
            MtxSymmetry::General => {
                sorted &= last <= (i0, j0);
                last = (i0, j0);
                entries.push((i0, j0, v));
            }
            MtxSymmetry::Symmetric => {
                if j0 > i0 {
                    return Err(parse_err(
                        sc.line,
                        "symmetric file stores only the lower triangle",
                    ));
                }
                sorted = false;
                entries.push((i0, j0, v));
                if i0 != j0 {
                    entries.push((j0, i0, v));
                }
            }
            MtxSymmetry::SkewSymmetric => {
                if j0 >= i0 {
                    return Err(parse_err(
                        sc.line,
                        "skew-symmetric file stores only the strict lower triangle",
                    ));
                }
                sorted = false;
                entries.push((i0, j0, v));
                entries.push((j0, i0, -v));
            }
        }
        seen += 1;
    }
    Ok(Tally {
        seen,
        lines: sc.line,
        sorted,
    })
}

/// `error` with its line number moved down by `lines`.
fn with_line_offset(error: MtxError, lines: usize) -> MtxError {
    match error {
        MtxError::Parse { line, message } => parse_err(line + lines, message),
        other => other,
    }
}

/// Document bytes of entry lines per read lane: a read runs on two lanes or
/// more only from twice this size (DESIGN.md §21, "Lanes").
const READ_FLOOR: usize = 512 << 10;
/// Entries per write lane, likewise.
const WRITE_FLOOR: usize = 16 << 10;

/// Lanes for `work` units of work at `floor` units per lane: 1 below two
/// floors, else as many floors as fit, at most the host's parallelism.
fn lanes_for(work: usize, floor: usize) -> usize {
    /// `available_parallelism` reads cgroup files on every call.
    static HOST: OnceLock<usize> = OnceLock::new();
    match work / floor {
        0 | 1 => 1,
        fit => fit.min(*HOST.get_or_init(|| {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })),
    }
}

/// `floor(value x part / whole)` for `part <= whole`: where lane `part` of
/// `whole` starts in `0..value`, or a slice's share of `value`.
fn scaled(value: usize, part: usize, whole: usize) -> usize {
    // Widening: the product of two `usize` always fits in a `u128`, and the
    // quotient is at most `value`.
    (value as u128 * part as u128 / whole.max(1) as u128) as usize
}

/// The first line start at or after `at` in `buf`, or its end.
fn line_start_from(buf: &[u8], at: usize) -> usize {
    if at == 0 || buf.get(at - 1) == Some(&b'\n') {
        return at.min(buf.len());
    }
    buf.get(at..)
        .and_then(|rest| rest.iter().position(|&b| b == b'\n'))
        .map_or(buf.len(), |newline| at + newline + 1)
}

/// Runs `first` on the caller's thread while `lane(1)`, ..., `lane(lanes -
/// 1)` run on threads of their own, and returns `first`'s result and the
/// lanes' in lane order. A lane no thread can be spawned for runs on the
/// caller's thread after `first`; a lane's panic is raised again there.
fn on_lanes<F, T: Send>(
    lanes: usize,
    lane: &(impl Fn(usize) -> T + Sync),
    first: impl FnOnce() -> F,
) -> (F, Vec<T>) {
    thread::scope(|scope| {
        let spawned: Vec<_> = (1..lanes)
            .map(|k| thread::Builder::new().spawn_scoped(scope, move || lane(k)))
            .collect();
        let first = first();
        let others = spawned
            .into_iter()
            .zip(1..)
            .map(|(handle, k)| match handle {
                Ok(handle) => handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
                Err(_) => lane(k),
            });
        (first, others.collect())
    })
}

/// Parses the entry section of a `coordinate` document onto `entries` on
/// `lanes` lanes, with [`entry_lines`]'s result and error lines.
///
/// The section is cut into `lanes` slices of about equal length, each cut
/// moved forward to the next line start, so every line lies whole in one
/// slice. The caller's thread parses the first slice into `entries`, which
/// it reserves `reserve` entries for; spawned lanes parse the others into
/// lists of their own, which are then appended in slice order. The merged
/// list is the one a single pass pushes, in the same order; the first slice
/// that fails gives the error, its line moved down by the lines before it;
/// and the list is in order when every slice is and so is each pair of
/// entries that meet at a cut.
fn read_entries(
    section: &[u8],
    shape: Shape,
    reserve: usize,
    lanes: usize,
    entries: &mut Vec<(usize, usize, f64)>,
) -> Result<Tally, MtxError> {
    entries.reserve(reserve);
    if lanes <= 1 {
        return entry_lines(section, shape, entries);
    }
    let slice = |k: usize| {
        let from = line_start_from(section, scaled(section.len(), k, lanes));
        let to = line_start_from(section, scaled(section.len(), k + 1, lanes));
        section.get(from..to).unwrap_or_default()
    };
    let lane = |k: usize| {
        let slice = slice(k);
        // Its byte share of the reservation, and an eighth more for a slice
        // whose lines run shorter than the document's average.
        let share = scaled(reserve, slice.len(), section.len());
        let mut own = Vec::with_capacity(share + share / 8);
        entry_lines(slice, shape, &mut own).map(|tally| (tally, own))
    };
    let (first, others) = on_lanes(lanes, &lane, || entry_lines(slice(0), shape, entries));
    let mut tally = first?;
    for outcome in others {
        let (part, mut own) = outcome.map_err(|e| with_line_offset(e, tally.lines))?;
        if let (Some(&(r0, c0, _)), Some(&(r1, c1, _))) = (entries.last(), own.first()) {
            tally.sorted &= (r0, c0) <= (r1, c1);
        }
        entries.append(&mut own);
        tally.seen += part.seen;
        tally.lines += part.lines;
        tally.sorted &= part.sorted;
    }
    Ok(tally)
}

/// Parses a whole Matrix Market document held in memory; the entry lines of
/// a `coordinate` document of `n` bytes of them run on `lanes(n)` lanes.
fn parse(buf: &[u8], lanes: &dyn Fn(usize) -> usize) -> Result<MtxData, MtxError> {
    let mut sc = Scanner::new(buf);

    // Header line: the first line that is not blank.
    if sc.next_line().is_none() {
        return Err(parse_err(sc.line, "empty file"));
    }
    let mut header: [&[u8]; 5] = [b""; 5];
    for slot in &mut header {
        *slot = sc.token().unwrap_or_default();
    }
    sc.end_line();
    let is = |tok: &[u8], word: &str| tok.eq_ignore_ascii_case(word.as_bytes());
    let shown = |tok: &[u8]| String::from_utf8_lossy(tok).to_ascii_lowercase();
    let [banner, object, format, field, symmetry] = header;
    if field.is_empty() || !is(banner, "%%matrixmarket") || !is(object, "matrix") {
        return Err(parse_err(
            sc.line,
            "header must start with '%%MatrixMarket matrix'",
        ));
    }
    let format = if is(format, "coordinate") {
        MtxFormat::Coordinate
    } else if is(format, "array") {
        MtxFormat::Array
    } else {
        return Err(parse_err(
            sc.line,
            format!("unknown format '{}'", shown(format)),
        ));
    };
    let pattern = is(field, "pattern");
    if is(field, "complex") || is(field, "hermitian") {
        return Err(MtxError::Unsupported(format!("field '{}'", shown(field))));
    }
    if !(pattern || is(field, "real") || is(field, "integer") || is(field, "double")) {
        return Err(parse_err(
            sc.line,
            format!("unknown field '{}'", shown(field)),
        ));
    }
    if pattern && format == MtxFormat::Array {
        return Err(parse_err(sc.line, "array format cannot be pattern"));
    }
    let symmetry = if symmetry.is_empty() || is(symmetry, "general") {
        MtxSymmetry::General
    } else if is(symmetry, "symmetric") {
        MtxSymmetry::Symmetric
    } else if is(symmetry, "skew-symmetric") {
        MtxSymmetry::SkewSymmetric
    } else if is(symmetry, "hermitian") {
        return Err(MtxError::Unsupported("hermitian symmetry".into()));
    } else {
        return Err(parse_err(
            sc.line,
            format!("unknown symmetry '{}'", shown(symmetry)),
        ));
    };

    // Size line (after comments): exactly `wanted` tokens.
    if !sc.next_record() {
        return Err(parse_err(sc.line, "missing size line"));
    }
    let wanted = match format {
        MtxFormat::Coordinate => 3,
        MtxFormat::Array => 2,
    };
    let mut sizes = [Ok(0usize), Ok(0), Ok(0)];
    let mut found = 0;
    while let Some(size) = sc.index() {
        if let Some(slot) = sizes.get_mut(found) {
            *slot = size;
        }
        found += 1;
    }
    sc.end_line();
    if found != wanted {
        return Err(parse_err(
            sc.line,
            match format {
                MtxFormat::Coordinate => "coordinate size line needs 'rows cols nnz'",
                MtxFormat::Array => "array size line needs 'rows cols'",
            },
        ));
    }
    let [rows, cols, declared_nnz] = sizes;
    let rows = rows.map_err(|_| parse_err(sc.line, "bad rows"))?;
    let cols = cols.map_err(|_| parse_err(sc.line, "bad cols"))?;
    let declared_nnz = declared_nnz.map_err(|_| parse_err(sc.line, "bad nnz"))?;
    // A mirrored entry of a non-square matrix can fall outside it.
    if symmetry != MtxSymmetry::General && rows != cols {
        return Err(parse_err(
            sc.line,
            format!("a symmetric or skew-symmetric matrix must be square, not {rows}x{cols}"),
        ));
    }

    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    // Whether `entries` is in (row, col) order, so that files written in
    // that order skip the final sort.
    let sorted;
    match format {
        MtxFormat::Coordinate => {
            let mirrored = if symmetry == MtxSymmetry::General {
                1
            } else {
                2
            };
            let shape = Shape {
                rows,
                cols,
                pattern,
                symmetry,
            };
            let reserve = declared_nnz.saturating_mul(mirrored).min(RESERVE_CAP);
            let section = buf.get(sc.pos..).unwrap_or_default();
            let lanes = lanes(section.len());
            let tally = read_entries(section, shape, reserve, lanes, &mut entries)
                .map_err(|e| with_line_offset(e, sc.line))?;
            sorted = tally.sorted;
            if tally.seen != declared_nnz {
                return Err(parse_err(
                    sc.line + tally.lines,
                    format!("declared {declared_nnz} entries but found {}", tally.seen),
                ));
            }
        }
        MtxFormat::Array => {
            // Column-major dense values, any number per line.
            let expected = array_len(symmetry, rows, cols).ok_or_else(|| {
                parse_err(
                    sc.line,
                    format!("array of {rows}x{cols} values does not fit in memory"),
                )
            })?;
            let mut values = Vec::with_capacity(expected.min(RESERVE_CAP));
            let mut found = 0usize;
            while sc.next_record() {
                while let Some(v) = sc.value() {
                    let v = v.map_err(|_| parse_err(sc.line, "bad value"))?;
                    if found < expected {
                        values.push(v);
                    }
                    found = found.saturating_add(1);
                }
                sc.end_line();
            }
            if found != expected {
                return Err(parse_err(
                    sc.line,
                    format!("expected {expected} array values, found {found}"),
                ));
            }
            sorted = false;
            // Rows stored of column `j`: all, from the diagonal, or below it.
            let first_row = |j: usize| match symmetry {
                MtxSymmetry::General => 0,
                MtxSymmetry::Symmetric => j,
                MtxSymmetry::SkewSymmetric => j + 1,
            };
            let stored = (0..cols).flat_map(|j| (first_row(j)..rows).map(move |i| (i, j)));
            for ((i, j), &v) in stored.zip(&values) {
                if v == 0.0 {
                    continue;
                }
                entries.push((i, j, v));
                match symmetry {
                    MtxSymmetry::General => {}
                    MtxSymmetry::Symmetric if i == j => {}
                    MtxSymmetry::Symmetric => entries.push((j, i, v)),
                    MtxSymmetry::SkewSymmetric => entries.push((j, i, -v)),
                }
            }
        }
    }

    if !sorted {
        entries.sort_by_key(|&(r, c, _)| (r, c));
    }
    Ok(MtxData {
        rows,
        cols,
        entries,
        declared_symmetry: symmetry,
        declared_format: format,
    })
}

/// Lanes for an entry section of `bytes` bytes.
fn read_lanes(bytes: usize) -> usize {
    lanes_for(bytes, READ_FLOOR)
}

/// Reads Matrix Market data from any reader: the whole document is read into
/// one buffer and parsed in a single pass over its bytes, split into slices
/// of whole lines that several threads parse when the document is large.
///
/// Accepted grammar: lines end at `\n`; tokens are separated by ASCII
/// whitespace (space, tab, `\r`, vertical tab, form feed); a line whose
/// first token starts with `%` is a comment and blank lines are skipped;
/// sizes and indices are decimal digits with an optional leading `+`; values
/// are whatever `str::parse::<f64>` accepts and parse to the same bits;
/// tokens after the ones an entry line needs are ignored. Non-UTF-8 bytes in
/// the header, size line or an entry yield a line-numbered
/// [`MtxError::Parse`] (inside a comment they are skipped like any other
/// byte); [`MtxError::Io`] is only ever the reader's own failure.
pub fn read_mtx<R: Read>(mut reader: R) -> Result<MtxData, MtxError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    parse(&buf, &read_lanes)
}

/// Reads a Matrix Market file from disk.
pub fn read_mtx_file(path: impl AsRef<Path>) -> Result<MtxData, MtxError> {
    parse(&std::fs::read(path)?, &read_lanes)
}

/// Bytes collected before the writer is handed a block.
const WRITE_BLOCK: usize = 64 << 10;

/// Appends `v` as `{v:?}` prints it. Integer-valued magnitudes below 1e15
/// (every one an exact `u64`) are `<int>.0` there and take the index
/// printer, Ryu's small-integer shortcut; every other value takes the
/// shortest-digits printer.
fn push_value(out: &mut Vec<u8>, v: f64) {
    let magnitude = v.abs();
    if magnitude < 1e15 && magnitude.trunc() == magnitude {
        if v.is_sign_negative() {
            out.push(b'-');
        }
        push_integer(out, magnitude as u64);
        out.extend_from_slice(b".0");
    } else {
        push_shortest(out, v);
    }
}

/// Appends one line per entry to `block`, handing it to `flush` each time it
/// passes [`WRITE_BLOCK`] bytes.
fn format_entries(
    block: &mut Vec<u8>,
    entries: &[(usize, usize, f64)],
    mut flush: impl FnMut(&mut Vec<u8>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    for &(r, c, v) in entries {
        // `usize` is at most 64 bits wide.
        push_integer(block, r as u64 + 1);
        block.push(b' ');
        push_integer(block, c as u64 + 1);
        block.push(b' ');
        push_value(block, v);
        block.push(b'\n');
        if block.len() >= WRITE_BLOCK {
            flush(block)?;
        }
    }
    Ok(())
}

/// Decimal digits of `v`.
fn digits(v: usize) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Writes triplets as a `coordinate real general` Matrix Market document,
/// handing `writer` blocks of about 64 KiB; a long list is formatted on
/// several threads, and each further thread's part is handed over whole.
pub fn write_mtx<W: Write>(
    writer: &mut W,
    rows: usize,
    cols: usize,
    entries: &[(usize, usize, f64)],
) -> Result<(), MtxError> {
    let lanes = lanes_for(entries.len(), WRITE_FLOOR);
    write_lanes(writer, rows, cols, entries, lanes)
}

/// [`write_mtx`] on `lanes` lanes. The entries are cut into `lanes` ranges
/// of about equal length. The caller's thread formats the first into the
/// block buffer and hands `writer` each full block, as a single lane does;
/// spawned lanes format the others into buffers of their own, which the
/// caller then writes in range order.
fn write_lanes(
    writer: &mut dyn Write,
    rows: usize,
    cols: usize,
    entries: &[(usize, usize, f64)],
    lanes: usize,
) -> Result<(), MtxError> {
    let mut block = Vec::with_capacity(WRITE_BLOCK + 128);
    writeln!(block, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(block, "% written by pygko-mtx")?;
    writeln!(block, "{rows} {cols} {}", entries.len())?;
    let mut stream = |block: &mut Vec<u8>| {
        writer.write_all(block)?;
        block.clear();
        Ok(())
    };
    if lanes <= 1 {
        format_entries(&mut block, entries, &mut stream)?;
        stream(&mut block)?;
        return Ok(());
    }
    let range = |k: usize| {
        let from = scaled(entries.len(), k, lanes);
        let to = scaled(entries.len(), k + 1, lanes);
        entries.get(from..to).unwrap_or_default()
    };
    let lane = |k: usize| {
        let range = range(k);
        // Room for the longest line: both indices, two blanks, the longest
        // value `{:?}` prints (`-2.2250738585072014e-308`) and `\n`.
        let mut own = Vec::with_capacity(range.len() * (digits(rows) + digits(cols) + 27));
        format_entries(&mut own, range, |_| Ok(())).map(|()| own)
    };
    let (first, others) = on_lanes(lanes, &lane, || {
        format_entries(&mut block, range(0), &mut stream)?;
        stream(&mut block)
    });
    first?;
    for own in others {
        stream(&mut own?)?;
    }
    Ok(())
}

/// Writes triplets to a file on disk.
pub fn write_mtx_file(
    path: impl AsRef<Path>,
    rows: usize,
    cols: usize,
    entries: &[(usize, usize, f64)],
) -> Result<(), MtxError> {
    write_mtx(&mut std::fs::File::create(path)?, rows, cols, entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_general_coordinate() {
        let doc = "%%MatrixMarket matrix coordinate real general\n\
                   % a comment\n\
                   3 3 2\n\
                   1 1 2.5\n\
                   3 2 -1.0\n";
        let m = read_mtx(doc.as_bytes()).unwrap();
        assert_eq!((m.rows, m.cols), (3, 3));
        assert_eq!(m.entries, vec![(0, 0, 2.5), (2, 1, -1.0)]);
        assert_eq!(m.declared_symmetry, MtxSymmetry::General);
    }

    #[test]
    fn expands_symmetric_storage() {
        let doc = "%%MatrixMarket matrix coordinate real symmetric\n\
                   2 2 2\n\
                   1 1 4.0\n\
                   2 1 -1.0\n";
        let m = read_mtx(doc.as_bytes()).unwrap();
        assert_eq!(m.entries, vec![(0, 0, 4.0), (0, 1, -1.0), (1, 0, -1.0)]);
    }

    #[test]
    fn expands_skew_symmetric_with_negation() {
        let doc = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                   2 2 1\n\
                   2 1 3.0\n";
        let m = read_mtx(doc.as_bytes()).unwrap();
        assert_eq!(m.entries, vec![(0, 1, -3.0), (1, 0, 3.0)]);
    }

    #[test]
    fn symmetric_diagonal_is_not_duplicated() {
        // Regression fixture: mirroring a symmetric file must not emit the
        // diagonal twice — a duplicated (i, i) entry silently doubles the
        // diagonal in assemblers that sum duplicates.
        let doc = "%%MatrixMarket matrix coordinate real symmetric\n\
                   3 3 4\n\
                   1 1 4.0\n\
                   2 2 5.0\n\
                   3 3 6.0\n\
                   3 1 -1.0\n";
        let m = read_mtx(doc.as_bytes()).unwrap();
        assert_eq!(
            m.entries,
            vec![
                (0, 0, 4.0),
                (0, 2, -1.0),
                (1, 1, 5.0),
                (2, 0, -1.0),
                (2, 2, 6.0)
            ]
        );
        for i in 0..3 {
            let diag = m.entries.iter().filter(|&&(r, c, _)| r == i && c == i);
            assert_eq!(diag.count(), 1, "diagonal {i} stored exactly once");
        }
    }

    #[test]
    fn skew_symmetric_diagonal_is_rejected() {
        // Regression fixture: a skew-symmetric matrix has a zero diagonal by
        // definition; a file storing (i, i) is malformed and must error, not
        // emit (i, i, v) and (i, i, -v).
        let doc = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                   2 2 2\n\
                   1 1 1.0\n\
                   2 1 3.0\n";
        let err = read_mtx(doc.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("strict lower triangle"),
            "got: {err}"
        );
    }

    #[test]
    fn pattern_symmetric_mirrors_without_doubling_diagonal() {
        // Regression fixture: pattern + symmetric composes both expansions —
        // implicit unit values and lower-triangle mirroring.
        let doc = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                   3 3 3\n\
                   1 1\n\
                   2 1\n\
                   3 3\n";
        let m = read_mtx(doc.as_bytes()).unwrap();
        assert_eq!(
            m.entries,
            vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)]
        );
    }

    #[test]
    fn pattern_entries_become_ones() {
        let doc = "%%MatrixMarket matrix coordinate pattern general\n\
                   2 2 2\n\
                   1 2\n\
                   2 1\n";
        let m = read_mtx(doc.as_bytes()).unwrap();
        assert_eq!(m.entries, vec![(0, 1, 1.0), (1, 0, 1.0)]);
    }

    #[test]
    fn reads_dense_array_column_major() {
        let doc = "%%MatrixMarket matrix array real general\n\
                   2 2\n\
                   1.0\n0.0\n3.0\n4.0\n";
        let m = read_mtx(doc.as_bytes()).unwrap();
        // Column-major: (0,0)=1, (1,0)=0 (dropped), (0,1)=3, (1,1)=4.
        assert_eq!(m.entries, vec![(0, 0, 1.0), (0, 1, 3.0), (1, 1, 4.0)]);
        assert_eq!(m.declared_format, MtxFormat::Array);
    }

    #[test]
    fn symmetric_array_reads_lower_triangle() {
        let doc = "%%MatrixMarket matrix array real symmetric\n\
                   2 2\n\
                   1.0\n2.0\n3.0\n";
        let m = read_mtx(doc.as_bytes()).unwrap();
        assert_eq!(
            m.entries,
            vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 3.0)]
        );
    }

    #[test]
    fn roundtrip_write_read() {
        let entries = vec![(0usize, 0usize, 1.5f64), (1, 2, -2.25), (4, 4, 1e-30)];
        let mut buf = Vec::new();
        write_mtx(&mut buf, 5, 5, &entries).unwrap();
        let m = read_mtx(buf.as_slice()).unwrap();
        assert_eq!((m.rows, m.cols), (5, 5));
        assert_eq!(m.entries, entries);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pygko_mtx_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m1.mtx");
        write_mtx_file(&path, 2, 2, &[(0, 1, 7.0)]).unwrap();
        let m = read_mtx_file(&path).unwrap();
        assert_eq!(m.entries, vec![(0, 1, 7.0)]);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn malformed_documents_are_rejected_with_context() {
        let cases: Vec<(&str, &str)> = vec![
            ("", "empty"),
            ("not a header\n1 1 0\n", "header"),
            ("%%MatrixMarket matrix coordinate real general\n", "size"),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n",
                "outside",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
                "declared 2 entries but found 1",
            ),
            (
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n",
                "lower triangle",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
                "bad value",
            ),
            (
                "%%MatrixMarket matrix array real general\n2 2\n1.0\n",
                "expected 4",
            ),
        ];
        for (doc, needle) in cases {
            let err = read_mtx(doc.as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.to_lowercase().contains(&needle.to_lowercase()),
                "error {msg:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn out_of_range_index_reports_its_line_number() {
        // The bad entry sits on line 4 (header, comment, size, entry).
        let doc = "%%MatrixMarket matrix coordinate real general\n\
                   % comment\n\
                   2 2 2\n\
                   3 1 1.0\n\
                   1 1 1.0\n";
        match read_mtx(doc.as_bytes()).unwrap_err() {
            MtxError::Parse { line, message } => {
                assert_eq!(line, 4, "{message}");
                assert!(message.contains("(3, 1)"), "{message}");
                assert!(message.contains("2x2"), "{message}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn too_few_tokens_on_entry_line_is_line_numbered() {
        let doc = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 1\n\
                   1 1\n";
        match read_mtx(doc.as_bytes()).unwrap_err() {
            MtxError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("too few"), "{message}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn index_overflowing_usize_is_a_bad_index_not_a_panic() {
        // 2^64 does not fit in usize: the parse itself must fail cleanly.
        let doc = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 1\n\
                   18446744073709551616 1 1.0\n";
        let msg = read_mtx(doc.as_bytes()).unwrap_err().to_string();
        assert!(msg.contains("bad row index"), "{msg}");
        assert!(msg.contains("line 3"), "{msg}");
    }

    #[test]
    fn absurd_declared_nnz_fails_without_allocating_it() {
        // Header declares ~2^63 entries; the capped reservation means this
        // must fail with a count mismatch, not abort on allocation.
        let doc = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 9223372036854775807\n\
                   1 1 1.0\n";
        let msg = read_mtx(doc.as_bytes()).unwrap_err().to_string();
        assert!(msg.contains("found 1"), "{msg}");

        // Same for the array layout's rows*cols reservation.
        let doc = "%%MatrixMarket matrix array real general\n\
                   4000000000 4000000000\n\
                   1.0\n";
        let msg = read_mtx(doc.as_bytes()).unwrap_err().to_string();
        assert!(msg.contains("found 1"), "{msg}");
    }

    #[test]
    fn complex_field_is_unsupported_not_a_parse_error() {
        let doc = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n";
        assert!(matches!(
            read_mtx(doc.as_bytes()),
            Err(MtxError::Unsupported(_))
        ));
    }

    #[test]
    fn header_is_case_insensitive() {
        let doc = "%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL\n1 1 1\n1 1 5.0\n";
        assert_eq!(read_mtx(doc.as_bytes()).unwrap().entries, vec![(0, 0, 5.0)]);
    }

    #[test]
    fn scientific_notation_values_parse() {
        let doc = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 -1.5e-10\n";
        assert_eq!(
            read_mtx(doc.as_bytes()).unwrap().entries,
            vec![(0, 0, -1.5e-10)]
        );
    }

    // -----------------------------------------------------------------
    // Differential tests: the byte-level tokenizer against `std`
    // -----------------------------------------------------------------

    use pygko_sim::rng::Xoshiro256pp;

    fn assert_value_matches_std(tok: &str) {
        let ours = Scanner::new(tok.as_bytes()).value().and_then(Result::ok);
        let std: Option<f64> = tok.parse().ok();
        assert_eq!(
            ours.map(f64::to_bits),
            std.map(f64::to_bits),
            "value token {tok:?}: ours {ours:?}, std {std:?}"
        );
    }

    fn assert_index_matches_std(tok: &str) {
        let ours = Scanner::new(tok.as_bytes()).index().and_then(Result::ok);
        let std: Option<usize> = tok.parse().ok();
        assert_eq!(ours, std, "index token {tok:?}");
    }

    #[test]
    fn value_tokens_parse_to_the_bits_std_parses() {
        for tok in [
            ".5",
            "5.",
            "+3.5",
            "1E5",
            "-0.0",
            "0",
            "-0",
            "9007199254740992",
            "9007199254740993",
            "9007199254740992e22",
            "9007199254740992e23",
            "1e22",
            "1e23",
            "1e-22",
            "1e-23",
            "123456789012345678",
            "0.000000000000000000001",
            "2.2250738585072014e-308",
            "4.9e-324",
            "1e400",
            "-1e400",
            "1e-400",
            "inf",
            "-inf",
            "+infinity",
            "nan",
            "NaN",
            "1e",
            "1e+",
            "e5",
            "-",
            "+",
            ".",
            "-.",
            "1.2.3",
            "1e5.0",
            "0x10",
            "1_0",
            "1e0005",
            "1e-0022",
            "00000000000000000000001",
            "1.0e١",
            "",
        ] {
            assert_value_matches_std(tok);
        }
    }

    #[test]
    fn a_million_printed_bit_patterns_parse_to_the_bits_std_parses() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        let mut tok = String::new();
        for k in 0..1_000_000u32 {
            // Half the patterns are raw bits (any exponent, NaNs, infinities);
            // the other half get an exponent near zero, where `{:.N}` prints
            // short decimals, the fast path's home ground.
            let mut bits = rng.next_u64();
            if k % 2 == 1 {
                let exponent = 1023 - 70 + rng.below(140);
                bits = (bits & !(0x7FF << 52)) | (exponent << 52);
            }
            let v = f64::from_bits(bits);
            tok.clear();
            use std::fmt::Write as _;
            match k % 23 {
                0 => write!(tok, "{v:?}"),
                1 => write!(tok, "{v:e}"),
                n => write!(tok, "{v:.*}", n as usize - 2),
            }
            .unwrap();
            assert_value_matches_std(&tok);
        }
    }

    #[test]
    fn decimal_tokens_around_the_fast_path_limits_parse_to_the_bits_std_parses() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x0123_4567_89AB_CDEF);
        let mut tok = String::new();
        for k in 0..300_000u32 {
            use std::fmt::Write as _;
            tok.clear();
            // A mantissa of 1..=20 digits, or one within 2 of 2^53.
            let mantissa = if k % 5 == 0 {
                ((1u64 << 53) - 2 + rng.below(5)).to_string()
            } else {
                let digits = 1 + rng.below(20) as usize;
                (0..digits)
                    .map(|_| char::from(b'0' + rng.below(10) as u8))
                    .collect()
            };
            if rng.below(2) == 0 {
                tok.push(if rng.below(2) == 0 { '-' } else { '+' });
            }
            match rng.below(3) {
                0 => tok.push_str(&mantissa),
                _ => {
                    let point = rng.below(mantissa.len() as u64 + 1) as usize;
                    write!(tok, "{}.{}", &mantissa[..point], &mantissa[point..]).unwrap();
                }
            }
            if rng.below(3) != 0 {
                let exponent = rng.below(61) as i64 - 30;
                let e = if rng.below(2) == 0 { 'e' } else { 'E' };
                match rng.below(3) {
                    0 => write!(tok, "{e}{exponent}"),
                    1 => write!(tok, "{e}{exponent:+}"),
                    _ => write!(tok, "{e}{exponent:03}"),
                }
                .unwrap();
            }
            assert_value_matches_std(&tok);
        }
    }

    #[test]
    fn index_tokens_parse_to_what_usize_from_str_parses() {
        for tok in [
            "0",
            "7",
            "+7",
            "-7",
            "+",
            "-",
            "",
            "007",
            "+007",
            "++7",
            "7+",
            "7.0",
            "1e3",
            "0x1F",
            "18446744073709551615",
            "18446744073709551616",
            "+18446744073709551615",
            "99999999999999999999",
            "000000000000000000000000000018446744073709551615",
            "184467440737095516150",
            "٧",
            "7\u{a0}",
        ] {
            assert_index_matches_std(tok);
        }
        let mut rng = Xoshiro256pp::seed_from_u64(0xFEED_FACE_CAFE_BEEF);
        for k in 0..200_000u32 {
            let v = rng.next_u64() >> rng.below(64);
            let tok = match k % 4 {
                0 => format!("{v}"),
                1 => format!("+{v}"),
                2 => format!("{v}{}", rng.below(10)),
                _ => format!("{v:025}"),
            };
            assert_index_matches_std(&tok);
        }
    }

    // -----------------------------------------------------------------
    // Writer: bytes against the `format!` reference, and round trips
    // -----------------------------------------------------------------

    fn reference_document(rows: usize, cols: usize, entries: &[(usize, usize, f64)]) -> String {
        let mut doc = format!(
            "%%MatrixMarket matrix coordinate real general\n% written by pygko-mtx\n{rows} {cols} {}\n",
            entries.len()
        );
        for &(r, c, v) in entries {
            doc.push_str(&format!("{} {} {v:?}\n", r + 1, c + 1));
        }
        doc
    }

    /// Values on which a shortest-digits printer goes wrong: exact ties
    /// between two shortest candidates, both ends of every binade, each power
    /// of ten and its neighbours (among them both switches between decimal
    /// and exponent notation, at `1e-4` and `1e16`), subnormals, and the
    /// values of a generated circuit matrix.
    pub(super) fn printer_edge_values() -> Vec<f64> {
        // The exact values are halfway between the two nearest 17-digit
        // decimals: `2^50 + 0.25` and `2^-25 = 2.98023223876953125e-8`.
        let two_50 = (1u64 << 50) as f64;
        let mut values = vec![two_50 + 0.25, 1.0 / (1u64 << 25) as f64];
        for j in 0..64u32 {
            let base = two_50 + f64::from(j * 977);
            values.extend([base + 0.25, base + 0.75, -(base + 0.25)]);
        }
        for exponent in 1..2047u64 {
            values.push(f64::from_bits(exponent << 52));
            values.push(f64::from_bits((exponent << 52) | ((1 << 52) - 1)));
        }
        for k in 0..52 {
            values.push(f64::from_bits(1 << k));
            values.push(f64::from_bits((2 << k) - 1));
        }
        let mut rng = Xoshiro256pp::seed_from_u64(0x5AB0_A75E_ED00_0001);
        for _ in 0..1_000 {
            values.push(f64::from_bits(rng.next_u64() & ((1 << 52) - 1)));
        }
        for k in -324..=308 {
            let power: f64 = format!("1e{k}").parse().unwrap();
            values.extend([power.next_down(), power, power.next_up()]);
        }
        let circuit = pygko_matgen::generators::circuit("c", 2_000, 6, 4, 7);
        values.extend(circuit.triplets.iter().map(|&(_, _, v)| v));
        values
    }

    #[test]
    fn writer_bytes_equal_the_format_reference() {
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.5,
            1e15,
            -1e15,
            999_999_999_999_999.0,
            1e16,
            1e17,
            1e21,
            1e-7,
            1e-5,
            1e-4,
            0.1,
            123456.789,
            4503599627370496.5,
            9007199254740992.0,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = Xoshiro256pp::seed_from_u64(0xDEAD_BEEF_0BAD_F00D);
        for k in 0..20_000 {
            let bits = rng.next_u64();
            values.push(match k % 3 {
                0 => f64::from_bits(bits),
                1 => (bits % 2_000_000_000_000_000) as f64 - 1e15,
                _ => (bits % 1_000_000) as f64 / 1024.0,
            });
        }
        values.extend(printer_edge_values());
        // Enough entries to cross several block boundaries.
        let entries: Vec<(usize, usize, f64)> = values
            .iter()
            .enumerate()
            .map(|(k, &v)| (k * 7919 % 100_003, k * 104_729 % 99_991, v))
            .collect();
        let reference = reference_document(100_003, 99_991, &entries).into_bytes();
        for lanes in [1, 2, 3, 7] {
            let mut bytes = Vec::new();
            write_lanes(&mut bytes, 100_003, 99_991, &entries, lanes).unwrap();
            assert!(bytes.len() > 4 * WRITE_BLOCK);
            assert!(bytes == reference, "{lanes} lanes");

            let mut empty = Vec::new();
            write_lanes(&mut empty, 0, 3, &[], lanes).unwrap();
            assert_eq!(
                String::from_utf8(empty).unwrap(),
                reference_document(0, 3, &[]),
                "{lanes} lanes"
            );
        }
    }

    #[test]
    fn every_document_kind_survives_write_then_read() {
        let docs = [
            "%%MatrixMarket matrix coordinate real general\n3 4 3\n1 4 2.5\n3 1 -1e-9\n2 2 7\n",
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 4\n3 1 -0.125\n3 3 6.02e23\n",
            "%%MatrixMarket matrix coordinate integer skew-symmetric\n3 3 2\n2 1 3\n3 2 -4\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n1 1\n2 1\n3 3\n",
            "%%MatrixMarket matrix array real general\n2 3\n1.5 0\n-3\n0.1\n5e-300 6\n",
            "%%MatrixMarket matrix array real symmetric\n3 3\n1 2 3\n4 5\n6\n",
            "%%MatrixMarket matrix array real skew-symmetric\n3 3\n1 2 3\n",
        ];
        for doc in docs {
            let first = read_mtx(doc.as_bytes()).unwrap();
            assert!(!first.entries.is_empty(), "{doc}");
            let mut written = Vec::new();
            write_mtx(&mut written, first.rows, first.cols, &first.entries).unwrap();
            let second = read_mtx(written.as_slice()).unwrap();
            assert_eq!(
                (second.rows, second.cols),
                (first.rows, first.cols),
                "{doc}"
            );
            assert_eq!(second.entries, first.entries, "{doc}");
            assert_eq!(second.declared_symmetry, MtxSymmetry::General);
        }
    }

    // -----------------------------------------------------------------
    // Hostile sizes and bytes
    // -----------------------------------------------------------------

    #[test]
    fn array_sizes_whose_product_overflows_are_a_parse_error() {
        // 2^32 * 2^32 wraps to 0 expected values in release arithmetic;
        // 5e9 * 5e9 overflows a checked multiply.
        for size_line in ["4294967296 4294967296", "5000000000 5000000000"] {
            let doc = format!("%%MatrixMarket matrix array real general\n{size_line}\n");
            match read_mtx(doc.as_bytes()).unwrap_err() {
                MtxError::Parse { line, message } => {
                    assert_eq!(line, 2, "{message}");
                    assert!(message.contains("does not fit"), "{message}");
                }
                other => panic!("expected Parse error, got {other:?}"),
            }
        }
        let doc = "%%MatrixMarket matrix array real symmetric\n18446744073709551615 18446744073709551615\n1.0\n";
        assert!(matches!(
            read_mtx(doc.as_bytes()),
            Err(MtxError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn non_square_symmetric_documents_are_rejected() {
        // The mirror image of entry (3, 1) of a 3x2 matrix is (1, 3): outside.
        for doc in [
            "%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n",
            "%%MatrixMarket matrix array real symmetric\n3 2\n1 2 3\n",
            "%%MatrixMarket matrix array real skew-symmetric\n2 3\n1 2 3\n",
        ] {
            match read_mtx(doc.as_bytes()).unwrap_err() {
                MtxError::Parse { line, message } => {
                    assert_eq!(line, 2, "{message}");
                    assert!(message.contains("must be square"), "{message}");
                }
                other => panic!("expected Parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_utf8_bytes_are_a_line_numbered_parse_error() {
        let mut doc = b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 ".to_vec();
        doc.extend_from_slice(b"\xff\xfe\n");
        match read_mtx(doc.as_slice()).unwrap_err() {
            MtxError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("bad value"), "{message}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
        // Inside a comment they are skipped like any other byte.
        let mut doc =
            b"%%MatrixMarket matrix coordinate real general\n% \xff\n1 1 1\n1 1 2\n".to_vec();
        assert_eq!(read_mtx(doc.as_slice()).unwrap().entries, vec![(0, 0, 2.0)]);
        doc.truncate(46);
        doc.extend_from_slice(b"\xc3\x28 1 1\n");
        assert!(matches!(
            read_mtx(doc.as_slice()),
            Err(MtxError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn whitespace_and_line_ends_follow_the_documented_grammar() {
        // CRLF, tabs, vertical tab, form feed, indented comments, blank
        // lines, `+` on integers, trailing tokens, no final newline.
        let doc =
            "\n  \r\n%%MatrixMarket\tmatrix coordinate real general\r\n \t% indented comment\r\n\
                   \x0b+2 \x0c+2\t2\r\n\r\n+1 1 1.5 ignored tokens\r\n  % another\n2\t+2\t-2.5e0";
        let m = read_mtx(doc.as_bytes()).unwrap();
        assert_eq!((m.rows, m.cols), (2, 2));
        assert_eq!(m.entries, vec![(0, 0, 1.5), (1, 1, -2.5)]);
    }

    #[test]
    fn unsorted_general_entries_come_back_sorted_with_duplicates_kept_in_file_order() {
        let doc =
            "%%MatrixMarket matrix coordinate real general\n2 2 4\n2 2 1\n1 1 2\n2 2 3\n1 2 4\n";
        assert_eq!(
            read_mtx(doc.as_bytes()).unwrap().entries,
            vec![(0, 0, 2.0), (0, 1, 4.0), (1, 1, 1.0), (1, 1, 3.0)]
        );
    }

    // -----------------------------------------------------------------
    // Lanes: every lane count reads and writes what one lane does
    // -----------------------------------------------------------------

    /// A parse's result with values as bits, or its error's line and message.
    type Outcome = Result<(usize, usize, Vec<(usize, usize, u64)>, String), (usize, String)>;

    fn outcome(doc: &[u8], lanes: usize) -> Outcome {
        match parse(doc, &|_| lanes) {
            Ok(m) => Ok((
                m.rows,
                m.cols,
                m.entries
                    .iter()
                    .map(|&(r, c, v)| (r, c, v.to_bits()))
                    .collect(),
                format!("{:?} {:?}", m.declared_symmetry, m.declared_format),
            )),
            Err(MtxError::Parse { line, message }) => Err((line, message)),
            Err(other) => Err((0, other.to_string())),
        }
    }

    fn assert_lanes_agree(doc: &[u8], lanes: impl IntoIterator<Item = usize>) {
        let one = outcome(doc, 1);
        for lanes in lanes {
            assert_eq!(
                outcome(doc, lanes),
                one,
                "{lanes} lanes on {:?}",
                String::from_utf8_lossy(doc)
            );
        }
    }

    #[test]
    fn mutated_documents_read_the_same_on_every_lane_count() {
        for case in 0..6_000 {
            assert_lanes_agree(&mutations::mutate(case), [2, 3, 4]);
        }
    }

    #[test]
    fn cuts_at_every_kind_of_line_read_the_same_on_every_lane_count() {
        let docs: &[&str] = &[
            // Comment and blank lines wherever a cut may fall.
            "%%MatrixMarket matrix coordinate real general\n3 3 5\n% c\n1 1 1\n\n  \n% c\n\
             1 2 2\n% c\n% c\n2 2 3\n\n3 1 4\n  % c\n3 3 5\n\n",
            // CRLF line ends, and no final newline.
            "%%MatrixMarket matrix coordinate real general\r\n3 3 4\r\n1 1 1.5\r\n\
             2 1 -2\r\n2 3 7e-3\r\n3 3 0.1",
            // Sorted on each side of the middle, not across it.
            "%%MatrixMarket matrix coordinate real general\n3 3 6\n2 1 1\n2 2 2\n3 3 3\n\
             1 1 4\n1 2 5\n2 2 6\n",
            // Duplicates on both sides of a cut keep their file order.
            "%%MatrixMarket matrix coordinate real general\n2 2 6\n1 1 1\n2 2 2\n1 1 3\n\
             2 2 4\n1 1 5\n2 2 6\n",
            // More lanes than lines: empty slices.
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2 1\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 0\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 0",
            "%%MatrixMarket matrix coordinate real symmetric\n4 4 5\n1 1 4\n2 1 -1\n\
             3 2 -1\n4 3 -1\n4 4 4\n",
            "%%MatrixMarket matrix coordinate integer skew-symmetric\n4 4 3\n2 1 3\n\
             3 2 -4\n4 1 12\n",
            "%%MatrixMarket matrix coordinate pattern general\n3 3 4\n1 2\n2 1\n3 3\n3 1\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n1 1\n2 1\n3 3\n",
            // Errors: the first in file order wins, wherever the cuts are.
            "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1\n% c\n2 2 x\n\
             \n3 3 1\n4 4 1\n",
            "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1\n2 2 2\n3 3 3\n\
             3 9 1\n",
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1\n2 1 2\n1 3 3\n",
            // Counts that do not match, short and long.
            "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1\n\n2 2 2\n3 3 3\n\n",
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n2 2 2\n3 3 3",
        ];
        for doc in docs {
            // Up to a lane per byte of the entry section: a cut at every
            // byte, hence at every line start.
            assert_lanes_agree(doc.as_bytes(), (2..8).chain([doc.len() / 2, doc.len()]));
        }
        // A generated document, whole and with a bad token in its last third.
        let circuit = pygko_matgen::generators::circuit("c", 2_000, 6, 4, 7);
        let mut doc = Vec::new();
        write_mtx(&mut doc, circuit.rows, circuit.cols, &circuit.triplets).unwrap();
        assert_lanes_agree(&doc, [2, 3, 4, 7]);
        doc.insert(doc.len() * 2 / 3, b'x');
        assert_lanes_agree(&doc, [2, 3, 4, 7]);
    }

    #[test]
    fn cuts_fall_on_line_starts() {
        let section = b"1 1 1\n% c\n\n22 2 2\r\n3 3 3";
        for at in 0..=section.len() {
            let cut = line_start_from(section, at);
            assert!(cut >= at && cut <= section.len(), "{at} -> {cut}");
            assert!(cut == 0 || cut == section.len() || section[cut - 1] == b'\n');
            assert!(
                section[at.min(cut)..cut]
                    .iter()
                    .filter(|&&b| b == b'\n')
                    .count()
                    <= 1
            );
        }
        assert_eq!(lanes_for(0, READ_FLOOR), 1);
        assert_eq!(lanes_for(2 * READ_FLOOR - 1, READ_FLOOR), 1);
        let host = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(lanes_for(2 * READ_FLOOR, READ_FLOOR), host.min(2));
        assert_eq!(lanes_for(64 * WRITE_FLOOR, WRITE_FLOOR), host.min(64));
    }
}
