//! Runtime sanitizer: machine-checks for invariants the engine otherwise
//! only asserts in prose.
//!
//! Three independent facilities, all zero-cost until switched on:
//!
//! * **Chunk-overlap detection** ([`ClaimLog`]). The worker pool's
//!   `PieceTable` is `Send + Sync` on the strength of one SAFETY sentence —
//!   "each piece index is delivered to exactly one lane". With
//!   [`Executor::enable_sanitizer`] on, every pool dispatch records which
//!   lane claimed which piece index and, after the drain, verifies that the
//!   claims form an exact partition of `0..n_chunks`: no overlap, nothing
//!   missing, nothing out of range. A violation means the chunk planner or
//!   the queue protocol is broken — i.e. undefined behavior was about to be
//!   possible — so it fails loudly (panic) rather than returning an error a
//!   caller could ignore.
//! * **Structural validation** (`validate()` on every matrix format, plus
//!   [`check_finite`]). The formats trust their invariants (monotone
//!   `row_ptrs`, in-bounds columns, consistent slice layouts) after
//!   construction; `validate()` re-derives them from scratch so corrupted
//!   or hand-built data is caught before a kernel walks off a slice.
//! * **Schedule perturbation** ([`stress_schedules`]). Reruns a chunked
//!   kernel under seeded forced execution orders (and once on the real
//!   pool) and compares results bitwise against the in-order serial run —
//!   shaking out kernels whose output depends on scheduling order, which
//!   the determinism story forbids.
//!
//! # Overhead model
//!
//! The sanitizer is designed so that the *disabled* path costs exactly one
//! relaxed atomic load per pool dispatch (the [`Sanitizer::is_enabled`]
//! check in `parallel_chunks`) — the same budget as the logging fast path.
//! When enabled, each dispatch pays one mutex push per executed chunk plus an
//! `O(chunks)` verification sweep; validation sweeps are `O(nnz)` per call
//! and only run where explicitly requested.
//!
//! [`Executor::enable_sanitizer`]: crate::executor::Executor::enable_sanitizer

use crate::base::error::{GkoError, Result};
use crate::base::types::Value;
use crate::executor::pool::parallel_chunks;
use crate::executor::Executor;
use crate::matrix::plan::SpmvPlan;
use pygko_sim::rng::Xoshiro256pp;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Chunk-overlap detection
// ---------------------------------------------------------------------------

/// Records which pool lane claimed which piece index during one job.
///
/// Lanes only ever push to their own slot, so the per-lane mutexes are
/// uncontended; the cross-lane view is only assembled by [`ClaimLog::verify`]
/// after the drain, when all lanes are quiescent.
pub struct ClaimLog {
    lanes: Vec<Mutex<Vec<usize>>>, // lock: sanitize.lanes
}

/// The ways a recorded claim set can fail to partition `0..n_pieces`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClaimViolation {
    /// A piece index was claimed by two lanes (or twice by one) — the exact
    /// condition under which `PieceTable` would hand out aliasing `&mut`s.
    Overlap {
        /// The doubly-claimed piece index.
        piece: usize,
        /// Lane that claimed it first.
        first_lane: usize,
        /// Lane that claimed it again.
        second_lane: usize,
    },
    /// A claimed index lies outside `0..n_pieces`.
    OutOfRange {
        /// The offending piece index.
        piece: usize,
        /// Lane that claimed it.
        lane: usize,
        /// Number of pieces in the job.
        n_pieces: usize,
    },
    /// A piece was never executed by any lane.
    Missing {
        /// The unclaimed piece index.
        piece: usize,
    },
}

impl fmt::Display for ClaimViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClaimViolation::Overlap {
                piece,
                first_lane,
                second_lane,
            } => write!(
                f,
                "piece {piece} claimed by lane {first_lane} and lane {second_lane} \
                 — disjointness of parallel chunks is violated"
            ),
            ClaimViolation::OutOfRange {
                piece,
                lane,
                n_pieces,
            } => write!(
                f,
                "lane {lane} claimed piece {piece}, outside the job's range 0..{n_pieces}"
            ),
            ClaimViolation::Missing { piece } => {
                write!(f, "piece {piece} was never claimed by any lane")
            }
        }
    }
}

/// Counters describing one verified job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClaimSummary {
    /// Pieces verified (equals the job's chunk count).
    pub pieces: usize,
    /// Lanes that executed at least one piece.
    pub lanes_used: usize,
}

impl ClaimLog {
    /// A log for a pool with `lanes` execution lanes.
    pub fn new(lanes: usize) -> Self {
        ClaimLog {
            lanes: (0..lanes.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Records that `lane` executed piece `piece`. Lanes outside the
    /// declared count are folded into the last slot so a miscounted lane id
    /// still surfaces as a verification failure rather than a panic here.
    pub fn record(&self, lane: usize, piece: usize) {
        let slot = lane.min(self.lanes.len() - 1);
        self.lanes[slot]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(piece);
    }

    /// Checks that the recorded claims are exactly a partition of
    /// `0..n_pieces`: every index claimed once, by one lane, in range.
    pub fn verify(&self, n_pieces: usize) -> std::result::Result<ClaimSummary, ClaimViolation> {
        const UNCLAIMED: usize = usize::MAX;
        let mut owner = vec![UNCLAIMED; n_pieces];
        let mut lanes_used = 0usize;
        for (lane, claims) in self.lanes.iter().enumerate() {
            let claims = claims.lock().unwrap_or_else(|e| e.into_inner());
            if !claims.is_empty() {
                lanes_used += 1;
            }
            for &piece in claims.iter() {
                if piece >= n_pieces {
                    return Err(ClaimViolation::OutOfRange {
                        piece,
                        lane,
                        n_pieces,
                    });
                }
                if owner[piece] != UNCLAIMED {
                    return Err(ClaimViolation::Overlap {
                        piece,
                        first_lane: owner[piece],
                        second_lane: lane,
                    });
                }
                owner[piece] = lane;
            }
        }
        if let Some(piece) = owner.iter().position(|&o| o == UNCLAIMED) {
            return Err(ClaimViolation::Missing { piece });
        }
        Ok(ClaimSummary {
            pieces: n_pieces,
            lanes_used,
        })
    }
}

/// Aborts the dispatch on a claim violation.
///
/// Called from `parallel_chunks` after the drain; a violated partition means
/// aliasing `&mut` slices were (or would have been) handed out, so
/// continuing is not an option and the error cannot be deferred to a
/// `Result` the kernel has no channel for.
pub(crate) fn report_claim_violation(v: &ClaimViolation) -> ! {
    // lint: allow(panic): a tripped overlap detector means aliasing `&mut`
    // slices; aborting the apply is the sanitizer's contract.
    panic!("sanitizer: chunk-overlap detector tripped: {v}");
}

// ---------------------------------------------------------------------------
// Merge-path segment validation
// ---------------------------------------------------------------------------

/// The ways a merge-path segment list can fail to partition the nonzeros.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeViolation {
    /// The segment list does not start at nonzero 0 or two neighbouring
    /// segments are not contiguous — some nonzeros would be skipped or
    /// accumulated twice.
    Gap {
        /// Segment whose `nnz_start` is wrong.
        segment: usize,
        /// Where the segment should have started.
        expected: usize,
        /// Where it actually starts.
        found: usize,
    },
    /// A segment owns no nonzeros; the planner promises to drop these.
    Empty {
        /// The offending segment index.
        segment: usize,
    },
    /// The last segment does not end exactly at the matrix's nonzero count.
    Tail {
        /// The matrix's total nonzero count.
        expected: usize,
        /// Where the last segment actually ends (0 if there are no
        /// segments at all).
        found: usize,
    },
    /// A segment's declared row span disagrees with the row pointers — the
    /// executing kernel would route partial sums to the wrong rows.
    RowSpan {
        /// The offending segment index.
        segment: usize,
        /// Rows the row pointers assign to the segment's nonzero range.
        expected: (usize, usize),
        /// Rows the segment declares.
        found: (usize, usize),
    },
}

impl fmt::Display for MergeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeViolation::Gap {
                segment,
                expected,
                found,
            } => write!(
                f,
                "segment {segment} starts at nonzero {found}, expected {expected} \
                 — the nonzero range is not claimed exactly once"
            ),
            MergeViolation::Empty { segment } => {
                write!(f, "segment {segment} owns no nonzeros")
            }
            MergeViolation::Tail { expected, found } => write!(
                f,
                "segments end at nonzero {found}, expected {expected} \
                 — trailing nonzeros would never be accumulated"
            ),
            MergeViolation::RowSpan {
                segment,
                expected,
                found,
            } => write!(
                f,
                "segment {segment} declares rows {}..={} but its nonzeros lie in \
                 rows {}..={}",
                found.0, found.1, expected.0, expected.1
            ),
        }
    }
}

/// Checks that a merge-path segment list is an exact, ordered partition of
/// the matrix's nonzeros and that every declared row span matches the row
/// pointers.
///
/// This is the structural guarantee the merge-path kernel's `unsafe`
/// direct writes rest on: contiguous non-overlapping nonzero ranges imply
/// every interior row belongs to exactly one segment.
pub fn verify_merge_segments<I: crate::base::types::Index>(
    row_ptrs: &[I],
    segments: &[crate::matrix::plan::MergeSegment],
) -> std::result::Result<(), MergeViolation> {
    let rows = row_ptrs.len().saturating_sub(1);
    let nnz = if rows == 0 {
        0
    } else {
        row_ptrs[rows].to_usize()
    };
    let row_of = |e: usize| row_ptrs.partition_point(|&p| p.to_usize() <= e) - 1;
    let mut cursor = 0usize;
    for (i, seg) in segments.iter().enumerate() {
        if seg.nnz_start != cursor {
            return Err(MergeViolation::Gap {
                segment: i,
                expected: cursor,
                found: seg.nnz_start,
            });
        }
        if seg.nnz_end <= seg.nnz_start {
            return Err(MergeViolation::Empty { segment: i });
        }
        let expected = (row_of(seg.nnz_start), row_of(seg.nnz_end - 1));
        if expected != (seg.row_first, seg.row_last) {
            return Err(MergeViolation::RowSpan {
                segment: i,
                expected,
                found: (seg.row_first, seg.row_last),
            });
        }
        cursor = seg.nnz_end;
    }
    if cursor != nnz {
        return Err(MergeViolation::Tail {
            expected: nnz,
            found: cursor,
        });
    }
    Ok(())
}

/// Aborts the apply on a merge-segment violation.
///
/// A broken segment partition means the merge-path kernel's direct interior
/// writes could alias (or nonzeros could be dropped/double-counted), so the
/// failure is a panic for the same reason [`report_claim_violation`] is.
pub(crate) fn report_merge_violation(v: &MergeViolation) -> ! {
    // lint: allow(panic): a broken segment partition would alias interior
    // writes; aborting the apply is the sanitizer's contract.
    panic!("sanitizer: merge-path segment validator tripped: {v}");
}

// ---------------------------------------------------------------------------
// Row-order validation
// ---------------------------------------------------------------------------

/// The ways a plan's row order can fail to visit each piece's rows once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RowOrderViolation {
    /// The order's spans do not tile it with one span per plan piece.
    Spans {
        /// Plan pieces.
        pieces: usize,
        /// Span boundaries the order holds (`pieces + 1` expected).
        bounds: usize,
    },
    /// A row is visited twice: its output would be written twice.
    Duplicate {
        /// The piece whose order repeats the row.
        piece: usize,
        /// The row, local to the piece.
        row: usize,
    },
    /// A row of the piece is never visited: its output would keep stale bits.
    Missing {
        /// The piece whose order lacks the row.
        piece: usize,
        /// The row, local to the piece.
        row: usize,
    },
    /// An entry names a row outside its piece.
    OutOfRange {
        /// The piece whose order holds the entry.
        piece: usize,
        /// The entry.
        row: usize,
        /// Rows of the piece.
        rows: usize,
    },
}

impl fmt::Display for RowOrderViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowOrderViolation::Spans { pieces, bounds } => write!(
                f,
                "row order has {bounds} span bounds for {pieces} pieces, or they do not tile it"
            ),
            RowOrderViolation::Duplicate { piece, row } => {
                write!(f, "piece {piece} visits its row {row} twice")
            }
            RowOrderViolation::Missing { piece, row } => {
                write!(f, "piece {piece} never visits its row {row}")
            }
            RowOrderViolation::OutOfRange { piece, row, rows } => write!(
                f,
                "piece {piece} visits row {row}, outside its rows 0..{rows}"
            ),
        }
    }
}

/// Checks that each piece's row order is a permutation of that piece's
/// local rows (a plan in row order passes trivially).
///
/// The row kernels write each row's output once, and the merge-path lane
/// updates interior rows in place through the segment sink: both rely on the
/// order delivering every row of the piece exactly once.
pub fn verify_row_order(plan: &SpmvPlan) -> std::result::Result<(), RowOrderViolation> {
    let order = &plan.row_order;
    if order.is_empty() {
        return Ok(());
    }
    let bounds = &plan.order_bounds;
    let pieces = plan.chunks();
    let tiles = bounds.len() == pieces + 1
        && bounds.first() == Some(&0)
        && bounds.last() == Some(&order.len())
        && bounds.windows(2).all(|w| w[0] <= w[1]);
    if !tiles {
        return Err(RowOrderViolation::Spans {
            pieces,
            bounds: bounds.len(),
        });
    }
    for (piece, (rows, span)) in plan.piece_rows().zip(bounds.windows(2)).enumerate() {
        let mut seen = vec![false; rows.len()];
        for &row in &order[span[0]..span[1]] {
            let row = row as usize;
            match seen.get_mut(row) {
                None => {
                    return Err(RowOrderViolation::OutOfRange {
                        piece,
                        row,
                        rows: rows.len(),
                    })
                }
                Some(true) => return Err(RowOrderViolation::Duplicate { piece, row }),
                Some(slot) => *slot = true,
            }
        }
        if let Some(row) = seen.iter().position(|&s| !s) {
            return Err(RowOrderViolation::Missing { piece, row });
        }
    }
    Ok(())
}

/// Aborts the apply on a row-order violation, for the reason
/// [`report_merge_violation`] does.
pub(crate) fn report_row_order_violation(v: &RowOrderViolation) -> ! {
    // lint: allow(panic): an order that repeats or skips a row would write
    // an output twice or leave it stale; aborting the apply is the
    // sanitizer's contract.
    panic!("sanitizer: row-order validator tripped: {v}");
}

// ---------------------------------------------------------------------------
// Level-order validation
// ---------------------------------------------------------------------------

/// The ways a triangular solver's visit order can fail to solve each row
/// once, from final unknowns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LevelOrderViolation {
    /// A row is never visited: its unknown would keep stale bits.
    Missing {
        /// The row.
        row: usize,
    },
    /// A row is visited twice: the second visit would start from a
    /// right-hand side that a sweep in place has overwritten.
    Duplicate {
        /// The row.
        row: usize,
    },
    /// A visit names a row outside the factor.
    OutOfRange {
        /// Position of the visit in the order.
        position: usize,
        /// The row it names.
        row: usize,
        /// Rows of the factor.
        rows: usize,
    },
    /// A row's span lies outside the column indices.
    Span {
        /// The row.
        row: usize,
        /// The span.
        span: (usize, usize),
        /// Column indices there are.
        nnz: usize,
    },
    /// A row is visited before a row its span reads: it would read an
    /// unknown that is not final.
    EarlyRead {
        /// The row.
        row: usize,
        /// The row it reads too early.
        reads: usize,
    },
}

impl fmt::Display for LevelOrderViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelOrderViolation::Missing { row } => write!(f, "row {row} is never visited"),
            LevelOrderViolation::Duplicate { row } => write!(f, "row {row} is visited twice"),
            LevelOrderViolation::OutOfRange {
                position,
                row,
                rows,
            } => write!(
                f,
                "visit {position} names row {row}, outside the factor's rows 0..{rows}"
            ),
            LevelOrderViolation::Span { row, span, nnz } => write!(
                f,
                "row {row}'s span {}..{} lies outside the {nnz} column indices",
                span.0, span.1
            ),
            LevelOrderViolation::EarlyRead { row, reads } => {
                write!(f, "row {row} is visited before row {reads}, which its span reads")
            }
        }
    }
}

/// Checks that a triangular solver's visit order, `(row, lo, hi)` per visit
/// with `[lo, hi)` the row's strict span in `col_idxs`, visits each of the
/// factor's `rows` exactly once and every row after all rows its span reads.
///
/// The sweep computes each row from the unknowns its span reads and, in
/// place, from the right-hand side in the row's own slot: both are right only
/// under such an order.
pub fn verify_level_order<I: crate::base::types::Index>(
    rows: usize,
    col_idxs: &[I],
    visits: &[(I, I, I)],
) -> std::result::Result<(), LevelOrderViolation> {
    let mut visited = vec![false; rows];
    for (position, &(row, lo, hi)) in visits.iter().enumerate() {
        let row = row.to_usize();
        match visited.get(row) {
            None => return Err(LevelOrderViolation::OutOfRange { position, row, rows }),
            Some(true) => return Err(LevelOrderViolation::Duplicate { row }),
            Some(false) => {}
        }
        let span = (lo.to_usize(), hi.to_usize());
        let Some(cols) = col_idxs.get(span.0..span.1) else {
            return Err(LevelOrderViolation::Span {
                row,
                span,
                nnz: col_idxs.len(),
            });
        };
        let early = cols.iter().map(|c| c.to_usize()).find(|&c| visited.get(c) != Some(&true));
        if let Some(reads) = early {
            return Err(LevelOrderViolation::EarlyRead { row, reads });
        }
        visited[row] = true;
    }
    match visited.iter().position(|&v| !v) {
        Some(row) => Err(LevelOrderViolation::Missing { row }),
        None => Ok(()),
    }
}

/// Aborts the solve on a level-order violation, for the reason
/// [`report_merge_violation`] does.
pub(crate) fn report_level_order_violation(v: &LevelOrderViolation) -> ! {
    // lint: allow(panic): an order that skips or repeats a row, or reads an
    // unknown before it is final, would return a wrong solution without a
    // sign; aborting the solve is the sanitizer's contract.
    panic!("sanitizer: level-order validator tripped: {v}");
}

// ---------------------------------------------------------------------------
// Per-executor sanitizer state
// ---------------------------------------------------------------------------

/// Per-executor sanitizer switch and counters.
///
/// Embedded directly in the executor (no allocation, no indirection) so the
/// disabled fast path is a single relaxed load — mirroring how the logging
/// registry keeps instrumented kernels free when nobody listens.
#[derive(Debug, Default)]
pub struct Sanitizer {
    enabled: AtomicBool,       // atomic: flag
    jobs_checked: AtomicU64,   // atomic: counter
    pieces_checked: AtomicU64, // atomic: counter
}

/// Snapshot of a [`Sanitizer`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Pool dispatches whose claim partition was verified.
    pub jobs_checked: u64,
    /// Total piece indices covered by those verifications.
    pub pieces_checked: u64,
}

impl Sanitizer {
    /// A disabled sanitizer (the executor's initial state).
    pub(crate) fn new() -> Self {
        Sanitizer::default()
    }

    /// Whether claim verification is currently on (one relaxed load).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Credits one verified job.
    pub(crate) fn note_job(&self, pieces: usize) {
        self.jobs_checked.fetch_add(1, Ordering::Relaxed);
        self.pieces_checked
            .fetch_add(pieces as u64, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn report(&self) -> SanitizerReport {
        SanitizerReport {
            jobs_checked: self.jobs_checked.load(Ordering::Relaxed),
            pieces_checked: self.pieces_checked.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Value poisoning checks
// ---------------------------------------------------------------------------

/// Rejects NaN/Inf entries: returns `GkoError::BadInput` naming the first
/// poisoned index. `what` labels the buffer in the error message (e.g.
/// `"solution"`, `"rhs"`).
pub fn check_finite<V: Value>(what: &str, values: &[V]) -> Result<()> {
    for (i, v) in values.iter().enumerate() {
        let x = v.to_f64();
        if !x.is_finite() {
            return Err(GkoError::BadInput(format!(
                "sanitizer: {what}[{i}] is {x} (non-finite)"
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Schedule-perturbation stress harness
// ---------------------------------------------------------------------------

/// Where a schedule-perturbed rerun diverged from the in-order serial run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleDivergence {
    /// The schedule that produced the divergent result.
    pub schedule: Schedule,
    /// First element index whose value differs from the reference.
    pub index: usize,
}

/// The execution schedule of one stress-harness rerun.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Chunks executed serially in a seeded random permutation.
    Permuted {
        /// Perturbation round (0-based).
        round: usize,
        /// The PRNG seed that generated the permutation.
        seed: u64,
    },
    /// Chunks executed concurrently on the executor's real worker pool.
    Pool,
}

impl fmt::Display for ScheduleDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.schedule {
            Schedule::Permuted { round, seed } => write!(
                f,
                "output[{}] diverged under permuted chunk order (round {round}, seed {seed})",
                self.index
            ),
            Schedule::Pool => write!(
                f,
                "output[{}] diverged between serial and pool execution",
                self.index
            ),
        }
    }
}

/// Reruns a chunked kernel under perturbed schedules and compares results
/// bitwise against the in-order serial execution.
///
/// The kernel `f(chunk_index, chunk_slice)` is applied to `init` split at
/// `bounds` (the same contract as `parallel_chunks`):
///
/// 1. once serially in order `0, 1, 2, …` — the reference;
/// 2. `rounds` times serially in seeded random chunk orders (each round
///    reseeds with `seed + round`, so failures name a reproducing seed);
/// 3. once on `exec`'s real worker pool, with stealing.
///
/// Any mismatch is reported as a [`ScheduleDivergence`]; a kernel that
/// writes only its own chunk and reads only immutable state cannot diverge,
/// so a failure localizes a scheduling-order dependence.
pub fn stress_schedules<T, F>(
    exec: &Executor,
    init: &[T],
    bounds: &[usize],
    rounds: usize,
    seed: u64,
    f: F,
) -> std::result::Result<(), ScheduleDivergence>
where
    T: Clone + PartialEq + Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunks = bounds.len().saturating_sub(1);
    let run_in_order = |order: &[usize]| -> Vec<T> {
        let mut data = init.to_vec();
        for &i in order {
            f(i, &mut data[bounds[i]..bounds[i + 1]]);
        }
        data
    };
    let in_order: Vec<usize> = (0..chunks).collect();
    let reference = run_in_order(&in_order);

    for round in 0..rounds {
        let round_seed = seed.wrapping_add(round as u64);
        let mut rng = Xoshiro256pp::seed_from_u64(round_seed);
        let mut order = in_order.clone();
        rng.shuffle(&mut order);
        let got = run_in_order(&order);
        if let Some(index) = first_mismatch(&reference, &got) {
            return Err(ScheduleDivergence {
                schedule: Schedule::Permuted {
                    round,
                    seed: round_seed,
                },
                index,
            });
        }
    }

    let mut pooled = init.to_vec();
    parallel_chunks(exec, &mut pooled, bounds, &f);
    if let Some(index) = first_mismatch(&reference, &pooled) {
        return Err(ScheduleDivergence {
            schedule: Schedule::Pool,
            index,
        });
    }
    Ok(())
}

fn first_mismatch<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    a.iter().zip(b.iter()).position(|(x, y)| x != y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_partition_verifies() {
        let log = ClaimLog::new(3);
        log.record(0, 0);
        log.record(0, 1);
        log.record(1, 2);
        log.record(2, 3);
        let summary = log.verify(4).expect("disjoint partition");
        assert_eq!(summary.pieces, 4);
        assert_eq!(summary.lanes_used, 3);
    }

    #[test]
    fn overlap_is_detected() {
        let log = ClaimLog::new(2);
        log.record(0, 0);
        log.record(0, 1);
        log.record(1, 1); // lane 1 re-claims piece 1
        log.record(1, 2);
        match log.verify(3) {
            Err(ClaimViolation::Overlap {
                piece,
                first_lane,
                second_lane,
            }) => {
                assert_eq!(piece, 1);
                assert_eq!(first_lane, 0);
                assert_eq!(second_lane, 1);
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn same_lane_double_execution_is_an_overlap() {
        let log = ClaimLog::new(2);
        log.record(0, 0);
        log.record(0, 0);
        assert!(matches!(
            log.verify(1),
            Err(ClaimViolation::Overlap { piece: 0, .. })
        ));
    }

    #[test]
    fn missing_piece_is_detected() {
        let log = ClaimLog::new(2);
        log.record(0, 0);
        log.record(1, 2);
        assert_eq!(log.verify(3), Err(ClaimViolation::Missing { piece: 1 }));
    }

    #[test]
    fn out_of_range_claim_is_detected() {
        let log = ClaimLog::new(2);
        log.record(0, 0);
        log.record(1, 7);
        assert_eq!(
            log.verify(2),
            Err(ClaimViolation::OutOfRange {
                piece: 7,
                lane: 1,
                n_pieces: 2
            })
        );
    }

    #[test]
    fn violations_render_diagnostics() {
        let v = ClaimViolation::Overlap {
            piece: 3,
            first_lane: 0,
            second_lane: 2,
        };
        let msg = v.to_string();
        assert!(msg.contains("piece 3"));
        assert!(msg.contains("lane 0"));
        assert!(msg.contains("lane 2"));
    }

    #[test]
    fn check_finite_accepts_and_rejects() {
        assert!(check_finite("x", &[1.0f64, -2.5, 0.0]).is_ok());
        let err = check_finite("solution", &[1.0f64, f64::NAN]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("solution[1]"), "got {msg}");
        assert!(check_finite("x", &[f64::INFINITY]).is_err());
    }

    #[test]
    fn stress_passes_for_disjoint_kernel() {
        let init = vec![0u64; 100];
        let bounds: Vec<usize> = (0..=10).map(|i| i * 10).collect();
        let result = stress_schedules(&Executor::omp(4), &init, &bounds, 5, 42, |i, s| {
            for (k, v) in s.iter_mut().enumerate() {
                *v = (i * 1000 + k) as u64;
            }
        });
        assert_eq!(result, Ok(()));
    }

    #[test]
    fn stress_catches_order_dependent_kernel() {
        use std::sync::atomic::AtomicU64;
        // A kernel that (wrongly) depends on global execution order: each
        // chunk writes a global ticket number instead of a pure function of
        // its index.
        let ticket = AtomicU64::new(0);
        let init = vec![0u64; 8];
        let bounds: Vec<usize> = (0..=8).collect();
        let result = stress_schedules(&Executor::reference(), &init, &bounds, 4, 7, |_, s| {
            s[0] = ticket.fetch_add(1, Ordering::Relaxed);
        });
        let err = result.expect_err("order dependence must be caught");
        assert!(matches!(err.schedule, Schedule::Permuted { .. }));
    }

    #[test]
    fn merge_segments_from_planner_verify() {
        use crate::matrix::plan::merge_segments;
        // Skewed matrix: one row holds most of the nonzeros.
        let mut rp = vec![0i32];
        let mut acc = 0i32;
        for r in 0..12 {
            acc += if r == 5 { 200 } else { 2 };
            rp.push(acc);
        }
        for chunks in [1usize, 2, 3, 7, 16] {
            let segs = merge_segments(12, &rp, chunks);
            assert_eq!(verify_merge_segments(&rp, &segs), Ok(()), "chunks={chunks}");
        }
        // Empty matrix: no segments, zero nonzeros, still a valid partition.
        assert_eq!(verify_merge_segments(&[0i32], &[]), Ok(()));
    }

    #[test]
    fn merge_violations_are_detected_and_render() {
        use crate::matrix::plan::MergeSegment;
        let rp = [0i32, 2, 4, 6];
        let seg = |s: usize, e: usize, rf: usize, rl: usize| MergeSegment {
            nnz_start: s,
            nnz_end: e,
            row_first: rf,
            row_last: rl,
        };
        // Gap between segments.
        let v = verify_merge_segments(&rp, &[seg(0, 2, 0, 0), seg(3, 6, 1, 2)]).unwrap_err();
        assert_eq!(
            v,
            MergeViolation::Gap {
                segment: 1,
                expected: 2,
                found: 3
            }
        );
        assert!(v.to_string().contains("segment 1"));
        // Overlap is also a Gap (cursor already past the claimed start).
        assert!(matches!(
            verify_merge_segments(&rp, &[seg(0, 3, 0, 1), seg(2, 6, 1, 2)]),
            Err(MergeViolation::Gap { segment: 1, .. })
        ));
        // Empty segment.
        assert!(matches!(
            verify_merge_segments(&rp, &[seg(0, 0, 0, 0)]),
            Err(MergeViolation::Empty { segment: 0 })
        ));
        // Missing tail.
        let v = verify_merge_segments(&rp, &[seg(0, 4, 0, 1)]).unwrap_err();
        assert_eq!(
            v,
            MergeViolation::Tail {
                expected: 6,
                found: 4
            }
        );
        assert!(v.to_string().contains("expected 6"));
        // Wrong row span.
        let v = verify_merge_segments(&rp, &[seg(0, 6, 0, 1)]).unwrap_err();
        assert_eq!(
            v,
            MergeViolation::RowSpan {
                segment: 0,
                expected: (0, 2),
                found: (0, 1)
            }
        );
        assert!(v.to_string().contains("rows 0..=2"));
    }

    #[test]
    fn merge_scratch_kernel_is_schedule_independent() {
        use crate::matrix::plan::merge_segments;
        // The merge-path kernel's scratch accumulation — each segment sums
        // its own nonzero range into its own scratch slot — must be
        // schedule-independent by construction. Model it over the stress
        // harness with a synthetic skewed matrix.
        let mut rp = vec![0i32];
        let mut acc = 0i32;
        for r in 0..20 {
            acc += if r == 7 { 111 } else { 3 };
            rp.push(acc);
        }
        let nnz = acc as usize;
        let vals: Vec<f64> = (0..nnz).map(|e| (e % 13) as f64 - 6.0).collect();
        let segs = merge_segments(20, &rp, 8);
        assert_eq!(verify_merge_segments(&rp, &segs), Ok(()));
        let init = vec![0.0f64; segs.len()];
        let bounds: Vec<usize> = (0..=segs.len()).collect();
        let result = stress_schedules(&Executor::omp(4), &init, &bounds, 6, 99, |s, sc| {
            let seg = segs[s];
            sc[0] = vals[seg.nnz_start..seg.nnz_end].iter().sum();
        });
        assert_eq!(result, Ok(()));
    }

    /// An ordered plan for rows of lengths 1, 3, 2, 1, 3, 2, ...: a new
    /// length on every row.
    fn ordered_plan(strategy: crate::matrix::SpmvStrategy) -> SpmvPlan {
        let rows = crate::matrix::plan::ORDER_MIN_ROWS;
        let mut rp = vec![0i32];
        for r in 0..rows {
            rp.push(rp[r] + [1, 3, 2][r % 3]);
        }
        let plan = crate::matrix::plan::build_plan(&Executor::omp(4), strategy, rows, &rp, 8);
        assert!(plan.ordered_rows() > 0);
        plan
    }

    #[test]
    fn planned_row_orders_verify() {
        use crate::matrix::SpmvStrategy;
        let strategies =
            [SpmvStrategy::Classical, SpmvStrategy::LoadBalance, SpmvStrategy::MergePath];
        for strategy in strategies {
            assert_eq!(verify_row_order(&ordered_plan(strategy)), Ok(()), "{strategy:?}");
        }
    }

    #[test]
    fn row_order_violations_are_detected_and_render() {
        let clean = ordered_plan(crate::matrix::SpmvStrategy::Classical);
        let piece = 2;
        let span = clean.order_bounds[piece]..clean.order_bounds[piece + 1];
        let first = clean.row_order[span.start];
        let corrupt = |entry: u32| {
            let mut plan = clean.clone();
            plan.row_order[span.start + 1] = entry;
            verify_row_order(&plan).unwrap_err()
        };
        // The piece's first row visited twice.
        let v = corrupt(first);
        assert_eq!(v, RowOrderViolation::Duplicate { piece, row: first as usize });
        assert!(v.to_string().contains("twice"), "{v}");
        // A row past the piece's end.
        let rows = span.len();
        let v = corrupt(rows as u32);
        assert_eq!(v, RowOrderViolation::OutOfRange { piece, row: rows, rows });
        assert!(v.to_string().contains("outside"), "{v}");
        // A row left out: the span loses its last entry to its neighbour.
        let mut plan = clean.clone();
        plan.order_bounds[piece + 1] -= 1;
        let last = clean.row_order[span.end - 1] as usize;
        let v = verify_row_order(&plan).unwrap_err();
        assert_eq!(v, RowOrderViolation::Missing { piece, row: last });
        assert!(v.to_string().contains("never visits"), "{v}");
        // Spans that do not match the pieces.
        let mut plan = clean.clone();
        plan.order_bounds.pop();
        assert!(matches!(verify_row_order(&plan), Err(RowOrderViolation::Spans { .. })));
    }

    /// Four rows, lower factor: rows 1 and 3 read rows 0 and 2, so the level
    /// order is 0, 2 (level 0), 1, 3 (level 1). Returns the column indices and
    /// the visits `(row, lo, hi)` of the strict spans.
    fn level_ordered() -> (Vec<i32>, Vec<(i32, i32, i32)>) {
        // Rows: [0], [0, 1], [2], [2, 3].
        let col_idxs = vec![0, 0, 1, 2, 2, 3];
        (col_idxs, vec![(0, 0, 0), (2, 3, 3), (1, 1, 2), (3, 4, 5)])
    }

    #[test]
    fn level_orders_verify() {
        let (ci, visits) = level_ordered();
        assert_eq!(verify_level_order(4, &ci, &visits), Ok(()));
        // Row order passes too: each row comes after every row it reads.
        let by_row = [visits[0], visits[2], visits[1], visits[3]];
        assert_eq!(verify_level_order(4, &ci, &by_row), Ok(()));
        assert_eq!(verify_level_order::<i32>(0, &[], &[]), Ok(()));
    }

    #[test]
    fn level_order_violations_are_detected_and_render() {
        let (ci, clean) = level_ordered();
        let check = |visits: &[(i32, i32, i32)]| verify_level_order(4, &ci, visits).unwrap_err();
        // The last row left out.
        let v = check(&clean[..3]);
        assert_eq!(v, LevelOrderViolation::Missing { row: 3 });
        assert!(v.to_string().contains("never visited"), "{v}");
        // The first row visited again in place of the last.
        let v = check(&[clean[0], clean[1], clean[2], clean[0]]);
        assert_eq!(v, LevelOrderViolation::Duplicate { row: 0 });
        assert!(v.to_string().contains("twice"), "{v}");
        // A row past the factor's end.
        let v = check(&[clean[0], clean[1], (7, 0, 0), clean[3]]);
        assert_eq!(v, LevelOrderViolation::OutOfRange { position: 2, row: 7, rows: 4 });
        assert!(v.to_string().contains("outside"), "{v}");
        // A span past the factor's entries.
        let v = check(&[clean[0], clean[1], clean[2], (3, 4, 9)]);
        assert_eq!(v, LevelOrderViolation::Span { row: 3, span: (4, 9), nnz: 6 });
        assert!(v.to_string().contains("column indices"), "{v}");
        // Row 1 before row 0, which it reads.
        let v = check(&[clean[2], clean[0], clean[1], clean[3]]);
        assert_eq!(v, LevelOrderViolation::EarlyRead { row: 1, reads: 0 });
        assert!(v.to_string().contains("before row 0"), "{v}");
    }

    #[test]
    fn sanitizer_counters_start_zero() {
        let s = Sanitizer::new();
        assert!(!s.is_enabled());
        assert_eq!(s.report(), SanitizerReport::default());
        s.set_enabled(true);
        assert!(s.is_enabled());
        s.note_job(16);
        assert_eq!(
            s.report(),
            SanitizerReport {
                jobs_checked: 1,
                pieces_checked: 16
            }
        );
    }
}
