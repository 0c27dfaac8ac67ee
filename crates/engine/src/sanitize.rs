//! Runtime sanitizer: machine-checks for invariants the engine otherwise
//! only asserts in prose.
//!
//! Three facilities, all zero-cost until the executor's [`Sanitizer`] is
//! switched on (or, for the last two, until called):
//!
//! * **Partition checks** (`verify_merge_segments` and the crate's
//!   visit-order check). Four structures are pieces that tile a range
//!   exactly once: a pool job's per-lane chunk runs tile its chunk indices
//!   (the one SAFETY sentence `PieceTable` is `Send + Sync` on: "each piece
//!   index is delivered to exactly one lane"), the merge-path segments tile the
//!   nonzeros, an ordered SpMV plan's pieces each visit their own rows, and a
//!   triangular sweep's levels together visit every row. With
//!   [`Executor::enable_sanitizer`] on, every pool dispatch, merge-path
//!   apply, ordered CSR apply and triangular solve runs one check over its
//!   pieces: bounds that start at 0, never decrease and end at the range's
//!   end; every item visited exactly once; and the caller's predicate (a
//!   segment's declared rows, a sweep row reading only rows of earlier
//!   levels). Any failure is one `PartitionViolation`. It means aliasing
//!   `&mut` slices or a wrong result without a sign, so it fails loudly
//!   (panic) rather than returning an error a caller could ignore.
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
//! When enabled, each dispatch logs every chunk (one push and two clock reads,
//! into the log the tracer reads too) and pays an `O(chunks)` verification
//! sweep; validation sweeps are `O(nnz)` per call and only run where
//! explicitly requested.
//!
//! [`Executor::enable_sanitizer`]: crate::executor::Executor::enable_sanitizer

use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::executor::pool::{parallel_chunks, ChunkLog};
use crate::executor::Executor;
use crate::matrix::order::VisitOrder;
use crate::matrix::plan::{row_of, MergeSegment};
use pygko_sim::rng::Xoshiro256pp;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Partition checks
// ---------------------------------------------------------------------------

/// The ways pieces can fail to tile a range of items exactly once. A piece
/// is a pool lane, a merge-path segment, an SpMV plan's piece or a sweep's
/// level; an item is a chunk index, a nonzero or a row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PartitionViolation {
    /// There are `found` pieces where the plan has `expected`.
    Pieces {
        /// Pieces planned.
        expected: usize,
        /// Pieces the bounds hold.
        found: usize,
    },
    /// A piece does not start where the one before it ends (the first at 0):
    /// the items between are skipped, or claimed twice.
    Gap {
        /// The piece.
        piece: usize,
        /// Where it should start.
        expected: usize,
        /// Where it starts.
        found: usize,
    },
    /// A piece ends before it starts, or owns no items where it must.
    Empty {
        /// The piece.
        piece: usize,
    },
    /// The last piece does not end at the range's end: trailing items are
    /// never visited.
    Tail {
        /// The range's end.
        expected: usize,
        /// Where the pieces end (0 if there are none).
        found: usize,
    },
    /// A piece visits an item outside the range.
    OutOfRange {
        /// The piece.
        piece: usize,
        /// The item.
        item: usize,
        /// The range's end.
        end: usize,
    },
    /// Two pieces, or one twice, visit an item: with claims, aliasing `&mut`
    /// slices; with rows, an output written twice, in place from an
    /// overwritten right-hand side.
    Duplicate {
        /// The item.
        item: usize,
        /// The piece that visited it first.
        first: usize,
        /// The piece that visited it again.
        second: usize,
    },
    /// An item is never visited: its output keeps stale bits.
    Missing {
        /// The piece that owns it, where each piece has its own items.
        piece: Option<usize>,
        /// The item.
        item: usize,
    },
    /// A sweep row's span lies outside the column indices.
    Span {
        /// The row.
        item: usize,
        /// The span.
        span: Range<usize>,
        /// Column indices there are.
        len: usize,
    },
    /// An item reads an item no earlier piece visited: a sweep row would
    /// read an unknown that is not final before its level starts.
    EarlyRead {
        /// The piece.
        piece: usize,
        /// The item.
        item: usize,
        /// The item it reads too early.
        reads: usize,
    },
    /// A merge segment's declared rows disagree with the row pointers: the
    /// kernel would route partial sums to the wrong rows.
    RowSpan {
        /// The segment.
        piece: usize,
        /// Rows the row pointers assign to its nonzeros.
        expected: (usize, usize),
        /// Rows it declares.
        found: (usize, usize),
    },
}

impl fmt::Display for PartitionViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use PartitionViolation::*;
        match self {
            Pieces { expected, found } => {
                write!(f, "the bounds hold {found} pieces, the plan has {expected}")
            }
            Gap {
                piece,
                expected,
                found,
            } => write!(
                f,
                "piece {piece} starts at {found}, expected {expected} \
                 — the range is not covered exactly once"
            ),
            Empty { piece } => write!(f, "piece {piece} owns no items, or ends before it starts"),
            Tail { expected, found } => write!(
                f,
                "the pieces end at {found}, expected {expected} \
                 — trailing items would never be visited"
            ),
            OutOfRange { piece, item, end } => {
                write!(
                    f,
                    "piece {piece} visits item {item}, outside the range 0..{end}"
                )
            }
            Duplicate {
                item,
                first,
                second,
            } => write!(
                f,
                "item {item} visited twice, by piece {first} and by piece {second} \
                 — the pieces do not visit it exactly once"
            ),
            Missing {
                piece: Some(piece),
                item,
            } => write!(f, "piece {piece} never visits its item {item}"),
            Missing { piece: None, item } => write!(f, "item {item} is never visited"),
            Span { item, span, len } => write!(
                f,
                "row {item}'s span {span:?} lies outside the {len} column indices"
            ),
            EarlyRead { piece, item, reads } => write!(
                f,
                "item {item} of piece {piece} reads item {reads}, which no earlier piece visits"
            ),
            RowSpan {
                piece,
                expected,
                found,
            } => write!(
                f,
                "segment {piece} declares rows {}..={} but its nonzeros lie in rows {}..={}",
                found.0, found.1, expected.0, expected.1
            ),
        }
    }
}

/// The items the pieces of a [`VisitOrder`] must visit.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Domain<'a> {
    /// Piece `p` visits its own items `0..items[p]`: an SpMV plan's pieces.
    Pieces(&'a [usize]),
    /// The pieces together visit `0..items`: a pool job's lanes, a sweep's
    /// levels.
    Items(usize),
}

/// Checks that `pieces` tile `0..end` in turn: each starts where the one
/// before ends (the first at 0), none ends before it starts (nor, when
/// `nonempty`, where it starts), and the last ends at `end`.
fn verify_tiling(
    pieces: impl Iterator<Item = Range<usize>>,
    end: usize,
    nonempty: bool,
) -> std::result::Result<(), PartitionViolation> {
    use PartitionViolation::*;
    let mut cursor = 0;
    for (piece, span) in pieces.enumerate() {
        if span.start != cursor {
            let (expected, found) = (cursor, span.start);
            return Err(Gap {
                piece,
                expected,
                found,
            });
        }
        if span.end < span.start + usize::from(nonempty) {
            return Err(Empty { piece });
        }
        cursor = span.end;
    }
    if cursor != end {
        let (expected, found) = (end, cursor);
        return Err(Tail { expected, found });
    }
    Ok(())
}

/// The one partition check: `order`'s bounds tile its visits, each item of
/// `domain` is visited exactly once, and every item a visit reads lies in an
/// earlier piece; `visit(v)` gives `v`'s item and the items it reads. Pool
/// lanes and SpMV row kernels read nothing; a sweep is right when every
/// unknown a level reads is final before the level starts, in whatever order
/// (or at once) its rows then run.
pub(crate) fn verify_order<T: Copy, R: IntoIterator<Item = usize>>(
    order: &VisitOrder<T>,
    domain: Domain<'_>,
    visit: impl Fn(T) -> std::result::Result<(usize, R), PartitionViolation>,
) -> std::result::Result<(), PartitionViolation> {
    use PartitionViolation::*;
    const UNVISITED: usize = usize::MAX;
    let VisitOrder { visits, bounds } = order;
    let found = bounds.len().saturating_sub(1);
    if let Domain::Pieces(items) = domain {
        if items.len() != found {
            let expected = items.len();
            return Err(Pieces { expected, found });
        }
    }
    verify_tiling(bounds.windows(2).map(|w| w[0]..w[1]), visits.len(), false)?;
    // Per item of the domain, the piece that visits it.
    let mut owner = match domain {
        Domain::Pieces(_) => Vec::new(),
        Domain::Items(items) => vec![UNVISITED; items],
    };
    let missing = |owner: &[usize], piece| match owner.iter().position(|&p| p == UNVISITED) {
        Some(item) => Err(Missing { piece, item }),
        None => Ok(()),
    };
    for (piece, span) in bounds.windows(2).enumerate() {
        if let Domain::Pieces(items) = domain {
            owner = vec![UNVISITED; items[piece]];
        }
        let end = owner.len();
        for &v in &visits[span[0]..span[1]] {
            let (item, reads) = visit(v)?;
            match owner.get(item) {
                None => return Err(OutOfRange { piece, item, end }),
                Some(&first) if first != UNVISITED => {
                    let second = piece;
                    return Err(Duplicate {
                        item,
                        first,
                        second,
                    });
                }
                Some(_) => {}
            }
            let earlier = |r: &usize| owner.get(*r).is_some_and(|&p| p < piece);
            if let Some(reads) = reads.into_iter().find(|r| !earlier(r)) {
                return Err(EarlyRead { piece, item, reads });
            }
            owner[item] = piece;
        }
        if let Domain::Pieces(_) = domain {
            missing(&owner, Some(piece))?;
        }
    }
    missing(&owner, None)
}

/// A sweep's visit `(row, lo, hi)` for [`verify_order`]: the row, and the
/// rows it reads, its span of `cols`.
pub(crate) fn span_reads<I: Index>(
    cols: &[I],
    (row, lo, hi): (I, I, I),
) -> std::result::Result<(usize, impl Iterator<Item = usize> + '_), PartitionViolation> {
    let (item, span) = (row.to_usize(), lo.to_usize()..hi.to_usize());
    match cols.get(span.clone()) {
        Some(cols) => Ok((item, cols.iter().map(|c| c.to_usize()))),
        None => Err(PartitionViolation::Span {
            item,
            span,
            len: cols.len(),
        }),
    }
}

/// Aborts the apply on a partition violation found by `detector`.
///
/// Called after a pool drain, or before a kernel walks its pieces: a broken
/// partition means aliasing `&mut` slices were (or would have been) handed
/// out, or a row skipped, repeated or read before it is final, so
/// continuing is not an option and the error cannot be deferred to a
/// `Result` the kernel has no channel for.
pub(crate) fn report_violation(detector: &str, v: &PartitionViolation) -> ! {
    // lint: allow(panic): a tripped partition check means aliasing `&mut`
    // slices or a wrong result without a sign; aborting the apply is the
    // sanitizer's contract.
    panic!("sanitizer: {detector} tripped: {v}");
}

/// Checks that a dispatch's chunk log partitions `0..chunks`, the lanes
/// being the partition's pieces: every chunk run once, by one lane, and in
/// range.
pub(crate) fn verify_chunks(
    log: &ChunkLog,
    chunks: usize,
) -> std::result::Result<(), PartitionViolation> {
    let mut order = VisitOrder::with_capacity(chunks);
    for runs in log.lanes() {
        order.visits.extend(runs.iter().map(|run| run.index));
        order.end_piece();
    }
    verify_order(&order, Domain::Items(chunks), |chunk| Ok((chunk, [])))
}

/// Checks that a merge-path segment list is an exact, ordered partition of
/// the matrix's nonzeros (contiguous, non-empty, ending at `nnz`) and that
/// every declared row span matches the row pointers.
///
/// This is the structural guarantee the merge-path kernel's `unsafe`
/// direct writes rest on: contiguous non-overlapping nonzero ranges imply
/// every interior row belongs to exactly one segment.
pub(crate) fn verify_merge_segments<I: Index>(
    row_ptrs: &[I],
    segments: &[MergeSegment],
) -> std::result::Result<(), PartitionViolation> {
    let nnz = row_ptrs.last().map_or(0, |p| p.to_usize());
    verify_tiling(segments.iter().map(|s| s.nnz_start..s.nnz_end), nnz, true)?;
    for (piece, seg) in segments.iter().enumerate() {
        let expected = (
            row_of(row_ptrs, seg.nnz_start),
            row_of(row_ptrs, seg.nnz_end - 1),
        );
        let found = (seg.row_first, seg.row_last);
        if expected != found {
            return Err(PartitionViolation::RowSpan {
                piece,
                expected,
                found,
            });
        }
    }
    Ok(())
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

    /// Checks a drained dispatch's chunk log against its `chunks` indices
    /// and credits the job; a violation aborts the apply.
    pub(crate) fn check_dispatch(&self, log: &ChunkLog, chunks: usize) {
        match verify_chunks(log, chunks) {
            Ok(()) => self.note_job(chunks),
            Err(v) => report_violation("chunk-overlap detector", &v),
        }
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
    use crate::executor::pool::ChunkRun;

    /// A log of one dispatch on `lanes` lanes, lane `l` having run `claims[l]`.
    fn log_of(lanes: usize, claims: &[(usize, usize)]) -> ChunkLog {
        let log = ChunkLog::new(lanes);
        for &(lane, index) in claims {
            log.lane(lane).1.push(ChunkRun {
                index,
                steal: false,
                start_ns: 0,
                dur_ns: 0,
            });
        }
        log
    }

    #[test]
    fn exact_partition_verifies() {
        let log = log_of(3, &[(0, 0), (0, 1), (1, 2), (2, 3)]);
        verify_chunks(&log, 4).expect("disjoint partition");
    }

    #[test]
    fn overlap_is_detected() {
        // lane 1 re-claims piece 1
        let log = log_of(2, &[(0, 0), (0, 1), (1, 1), (1, 2)]);
        match verify_chunks(&log, 3) {
            Err(PartitionViolation::Duplicate {
                item,
                first,
                second,
            }) => {
                assert_eq!(item, 1);
                assert_eq!(first, 0);
                assert_eq!(second, 1);
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn same_lane_double_execution_is_an_overlap() {
        let log = log_of(2, &[(0, 0), (0, 0)]);
        assert!(matches!(
            verify_chunks(&log, 1),
            Err(PartitionViolation::Duplicate { item: 0, .. })
        ));
    }

    #[test]
    fn missing_piece_is_detected() {
        let log = log_of(2, &[(0, 0), (1, 2)]);
        assert_eq!(
            verify_chunks(&log, 3),
            Err(PartitionViolation::Missing {
                piece: None,
                item: 1
            })
        );
    }

    #[test]
    fn out_of_range_claim_is_detected() {
        let log = log_of(2, &[(0, 0), (1, 7)]);
        assert_eq!(
            verify_chunks(&log, 2),
            Err(PartitionViolation::OutOfRange {
                piece: 1,
                item: 7,
                end: 2
            })
        );
    }

    /// An injected overlapping claim plan must trip the detector with the
    /// offending piece and both claiming lanes.
    #[test]
    fn injected_overlap_trips_detector() {
        // lane 2 re-claims piece 1: the injected overlap
        let log = log_of(3, &[(0, 0), (1, 1), (2, 1), (2, 2)]);
        match verify_chunks(&log, 3) {
            Err(PartitionViolation::Duplicate {
                item,
                first,
                second,
            }) => {
                assert_eq!(item, 1);
                assert_eq!((first, second), (1, 2));
            }
            other => panic!("expected Overlap, got {other:?}"),
        }
    }

    #[test]
    fn missing_and_out_of_range_claims_trip_detector() {
        let log = log_of(2, &[(0, 0), (1, 2)]);
        assert!(matches!(
            verify_chunks(&log, 4),
            Err(PartitionViolation::Missing {
                piece: None,
                item: 1
            })
        ));
        let log = log_of(2, &[(0, 0), (0, 9)]);
        assert!(matches!(
            verify_chunks(&log, 1),
            Err(PartitionViolation::OutOfRange { item: 9, .. })
        ));
    }

    #[test]
    fn violations_render_diagnostics() {
        let v = PartitionViolation::Duplicate {
            item: 3,
            first: 0,
            second: 2,
        };
        let msg = v.to_string();
        assert!(msg.contains("item 3"));
        assert!(msg.contains("piece 0"));
        assert!(msg.contains("piece 2"));
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
            PartitionViolation::Gap {
                piece: 1,
                expected: 2,
                found: 3
            }
        );
        assert!(v.to_string().contains("piece 1"));
        // Overlap is also a Gap (cursor already past the claimed start).
        assert!(matches!(
            verify_merge_segments(&rp, &[seg(0, 3, 0, 1), seg(2, 6, 1, 2)]),
            Err(PartitionViolation::Gap { piece: 1, .. })
        ));
        // Empty segment.
        assert!(matches!(
            verify_merge_segments(&rp, &[seg(0, 0, 0, 0)]),
            Err(PartitionViolation::Empty { piece: 0 })
        ));
        // Missing tail.
        let v = verify_merge_segments(&rp, &[seg(0, 4, 0, 1)]).unwrap_err();
        assert_eq!(
            v,
            PartitionViolation::Tail {
                expected: 6,
                found: 4
            }
        );
        assert!(v.to_string().contains("expected 6"));
        // Wrong row span.
        let v = verify_merge_segments(&rp, &[seg(0, 6, 0, 1)]).unwrap_err();
        assert_eq!(
            v,
            PartitionViolation::RowSpan {
                piece: 0,
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
    fn ordered_plan(strategy: crate::matrix::SpmvStrategy) -> crate::matrix::plan::SpmvPlan {
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
        let strategies = [
            SpmvStrategy::Classical,
            SpmvStrategy::LoadBalance,
            SpmvStrategy::MergePath,
        ];
        for strategy in strategies {
            assert_eq!(
                ordered_plan(strategy).verify_order(),
                Ok(()),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn row_order_violations_are_detected_and_render() {
        let clean = ordered_plan(crate::matrix::SpmvStrategy::Classical);
        let piece = 2;
        let order = clean.order.as_ref().unwrap();
        let span = order.bounds[piece]..order.bounds[piece + 1];
        let first = order.visits[span.start];
        let corrupt = |entry: u32| {
            let mut plan = clean.clone();
            plan.order.as_mut().unwrap().visits[span.start + 1] = entry;
            plan.verify_order().unwrap_err()
        };
        // The piece's first row visited twice.
        let v = corrupt(first);
        assert_eq!(
            v,
            PartitionViolation::Duplicate {
                item: first as usize,
                first: piece,
                second: piece
            }
        );
        assert!(v.to_string().contains("twice"), "{v}");
        // A row past the piece's end.
        let rows = span.len();
        let v = corrupt(rows as u32);
        assert_eq!(
            v,
            PartitionViolation::OutOfRange {
                piece,
                item: rows,
                end: rows
            }
        );
        assert!(v.to_string().contains("outside"), "{v}");
        // A row left out: the span loses its last entry to its neighbour.
        let mut plan = clean.clone();
        plan.order.as_mut().unwrap().bounds[piece + 1] -= 1;
        let last = order.visits[span.end - 1] as usize;
        let v = plan.verify_order().unwrap_err();
        assert_eq!(
            v,
            PartitionViolation::Missing {
                piece: Some(piece),
                item: last
            }
        );
        assert!(v.to_string().contains("never visits"), "{v}");
        // Spans that do not match the pieces.
        let mut plan = clean.clone();
        plan.order.as_mut().unwrap().bounds.pop();
        assert!(matches!(
            plan.verify_order(),
            Err(PartitionViolation::Pieces { .. })
        ));
    }

    /// Four rows, lower factor: rows 1 and 3 read rows 0 and 2, so the level
    /// order is 0, 2 (level 0), 1, 3 (level 1). Returns the column indices and
    /// the visits `(row, lo, hi)` of the strict spans.
    fn level_ordered() -> (Vec<i32>, Vec<(i32, i32, i32)>) {
        // Rows: [0], [0, 1], [2], [2, 3].
        let col_idxs = vec![0, 0, 1, 2, 2, 3];
        (col_idxs, vec![(0, 0, 0), (2, 3, 3), (1, 1, 2), (3, 4, 5)])
    }

    /// The sweeps' check of `visits` with levels starting at `bounds`, over
    /// `rows` rows.
    fn check_levels(
        rows: usize,
        col_idxs: &[i32],
        visits: &[(i32, i32, i32)],
        bounds: &[usize],
    ) -> std::result::Result<(), PartitionViolation> {
        let (visits, bounds) = (visits.to_vec(), bounds.to_vec());
        let order = VisitOrder { visits, bounds };
        verify_order(&order, Domain::Items(rows), |v| span_reads(col_idxs, v))
    }

    #[test]
    fn level_orders_verify() {
        let (ci, visits) = level_ordered();
        assert_eq!(check_levels(4, &ci, &visits, &[0, 2, 4]), Ok(()));
        // Row order, a row a level, passes too: each row comes after every
        // row it reads.
        let by_row = [visits[0], visits[2], visits[1], visits[3]];
        let each = [0, 1, 2, 3, 4];
        assert_eq!(check_levels(4, &ci, &by_row, &each), Ok(()));
        assert_eq!(check_levels(0, &[], &[], &[0]), Ok(()));
    }

    #[test]
    fn level_order_violations_are_detected_and_render() {
        let (ci, clean) = level_ordered();
        let check = |visits: &[(i32, i32, i32)]| {
            let bounds = [0, 2, visits.len()];
            check_levels(4, &ci, visits, &bounds).unwrap_err()
        };
        // The last row left out.
        let v = check(&clean[..3]);
        assert_eq!(
            v,
            PartitionViolation::Missing {
                piece: None,
                item: 3
            }
        );
        assert!(v.to_string().contains("never visited"), "{v}");
        // The first row visited again in place of the last.
        let v = check(&[clean[0], clean[1], clean[2], clean[0]]);
        assert_eq!(
            v,
            PartitionViolation::Duplicate {
                item: 0,
                first: 0,
                second: 1
            }
        );
        assert!(v.to_string().contains("twice"), "{v}");
        // A row past the factor's end.
        let v = check(&[clean[0], clean[1], (7, 0, 0), clean[3]]);
        assert_eq!(
            v,
            PartitionViolation::OutOfRange {
                piece: 1,
                item: 7,
                end: 4
            }
        );
        assert!(v.to_string().contains("outside"), "{v}");
        // A span past the factor's entries.
        let v = check(&[clean[0], clean[1], clean[2], (3, 4, 9)]);
        assert_eq!(
            v,
            PartitionViolation::Span {
                item: 3,
                span: 4..9,
                len: 6
            }
        );
        assert!(v.to_string().contains("column indices"), "{v}");
        // Row 1 before row 0, which it reads.
        let v = check(&[clean[2], clean[0], clean[1], clean[3]]);
        assert_eq!(
            v,
            PartitionViolation::EarlyRead {
                piece: 0,
                item: 1,
                reads: 0
            }
        );
        assert!(v.to_string().contains("reads item 0"), "{v}");
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
