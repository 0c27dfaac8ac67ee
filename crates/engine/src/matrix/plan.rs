//! Inspector–executor SpMV plans.
//!
//! Iterative solvers apply the *same* matrix thousands of times, yet until
//! this layer existed every apply re-derived its chunk partition from the
//! row pointers. Following Ginkgo's strategy machinery (and the classic
//! inspector–executor split), the partition work is now done once by an
//! *inspector* ([`build_plan`]) and the result — an [`SpmvPlan`] holding the
//! resolved strategy, precomputed split points, per-chunk cost descriptions,
//! and row-skew statistics — is cached on the matrix (`PlanCache`) and
//! reused by every subsequent apply until the matrix is mutated.
//!
//! Three partition shapes are produced:
//!
//! * **Classical** — equal-row-count chunks, oversubscribed 4× so the pool's
//!   work stealing can absorb moderate imbalance.
//! * **LoadBalance** — equal-nonzero-count row chunks. Balanced by
//!   construction, so the plan emits exactly one chunk per worker: the old
//!   per-apply path oversubscribed these too, paying 4× the modeled
//!   per-chunk overhead for balance the partition already had.
//! * **MergePath** — diagonal splits of the merged (rows + nnz) sequence
//!   (Merrill & Garland's merge-based CSR). Each segment owns a contiguous
//!   nonzero range and the rows it spans, so a single ultra-dense row is
//!   divided across workers instead of serializing one lane.
//!
//! [`SpmvStrategy::Auto`] resolves to one of the three from the inspected
//! skew statistics; the resolution is purely structural (row pointers only),
//! so it is deterministic and identical on every executor.
//!
//! When row lengths change unpredictably from row to row, the plan also
//! holds a **row order**: each piece's rows grouped by length inside windows
//! of `ORDER_WINDOW` rows (the σ-window sort of SELL-C-σ, applied to the
//! visiting order only). The `k == 1` CSR kernels walk it instead of
//! `0..rows`, so the row loop's exits become predictable; every row is
//! still written once, from the same sum (DESIGN.md §14, "Row order").

use crate::base::types::{Index, Value};
use crate::executor::pool::{parallel_chunks, uniform_bounds};
use crate::executor::Executor;
use crate::log::{Event, OpTimer};
use crate::matrix::csr::SpmvStrategy;
use crate::matrix::order::VisitOrder;
use crate::sanitize::{verify_order, Domain, PartitionViolation};
use pygko_sim::ChunkWork;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Classical chunks per worker: oversubscription lets stealing absorb the
/// row-length imbalance a uniform row split cannot see.
pub(crate) const CLASSICAL_OVERSUBSCRIPTION: usize = 4;

/// `Auto` picks [`SpmvStrategy::LoadBalance`] once the heaviest row exceeds
/// this multiple of the average row length.
pub(crate) const BALANCE_SKEW: f64 = 4.0;

/// `Auto` escalates to [`SpmvStrategy::MergePath`] once the heaviest row
/// exceeds this multiple of the average — at that point one row rivals a
/// whole worker's fair share and must itself be split.
pub(crate) const MERGE_SKEW: f64 = 32.0;

/// A plan visits rows grouped by length once the row length changes more
/// than once per this many stored entries: then a row exit the branch
/// predictor misses costs a visible share of the entries' own work. Circuit
/// matrices change length ~0.14 times per entry, a power-law matrix's longer
/// rows ~0.06, a stencil's ~0.002 (DESIGN.md §14, "Row order").
pub(crate) const ORDER_NNZ_PER_CHANGE: usize = 10;

/// Fewer rows than this are never reordered: across repeated applies the
/// branch predictor learns a small matrix's whole row-length sequence (a
/// loop of applies to a 4 000-row circuit reads ~0.7 ns/nnz in row order,
/// ~30 % faster than grouped), and the order would only add its bookkeeping.
/// Grouping wins from 6 000-8 000 rows on (DESIGN.md §14, "Row order").
pub(crate) const ORDER_MIN_ROWS: usize = 8_192;

/// Consecutive rows inside which an ordered plan groups rows by length:
/// wide enough to make runs of one length, narrow enough that the gathers
/// stay near each other (one sort of the whole matrix reads slower than no
/// order at all).
const ORDER_WINDOW: usize = 128;

// ---------------------------------------------------------------------------
// Row statistics (the inspector's measurements)
// ---------------------------------------------------------------------------

/// Row-length statistics derived from a CSR row-pointer array.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct RowStats {
    /// Matrix rows.
    pub rows: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Nonzeros in the heaviest row.
    pub max_row_nnz: usize,
    /// Rows with no stored entries.
    pub empty_rows: usize,
    /// Adjacent rows whose lengths differ.
    pub length_changes: usize,
}

impl RowStats {
    /// One streaming pass over the row pointers.
    pub(crate) fn inspect<I: Index>(rows: usize, row_ptrs: &[I]) -> Self {
        let mut max_row_nnz = 0usize;
        let mut empty_rows = 0usize;
        let mut length_changes = 0usize;
        let mut prev_len = row_ptrs
            .get(1)
            .map_or(0, |p| p.to_usize() - row_ptrs[0].to_usize());
        for r in 0..rows {
            let len = row_ptrs[r + 1].to_usize() - row_ptrs[r].to_usize();
            max_row_nnz = max_row_nnz.max(len);
            empty_rows += usize::from(len == 0);
            length_changes += usize::from(len != prev_len);
            prev_len = len;
        }
        let nnz = if rows == 0 {
            0
        } else {
            row_ptrs[rows].to_usize()
        };
        RowStats {
            rows,
            nnz,
            max_row_nnz,
            empty_rows,
            length_changes,
        }
    }

    /// Whether a plan visits these rows grouped by length: structural, so
    /// the same on every executor.
    pub(crate) fn orders_rows(&self) -> bool {
        self.length_changes * ORDER_NNZ_PER_CHANGE > self.nnz
            && self.rows >= ORDER_MIN_ROWS
            && u32::try_from(self.rows).is_ok()
    }

    /// Mean nonzeros per row (0 for an empty matrix).
    pub fn avg_row_nnz(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz as f64 / self.rows as f64
        }
    }

    /// Heaviest row relative to the mean (1.0 for uniform rows).
    pub fn skew(&self) -> f64 {
        let avg = self.avg_row_nnz();
        if avg > 0.0 {
            self.max_row_nnz as f64 / avg
        } else {
            1.0
        }
    }
}

/// Resolves `Auto` into a concrete strategy from the inspected statistics.
///
/// Purely structural, so the same matrix resolves identically on every
/// executor and every run.
pub(crate) fn resolve_strategy(requested: SpmvStrategy, stats: &RowStats) -> ResolvedStrategy {
    match requested {
        SpmvStrategy::Classical => ResolvedStrategy::Classical,
        SpmvStrategy::LoadBalance => ResolvedStrategy::LoadBalance,
        SpmvStrategy::MergePath => ResolvedStrategy::MergePath,
        SpmvStrategy::Auto => {
            let skew = stats.skew();
            if skew >= MERGE_SKEW {
                ResolvedStrategy::MergePath
            } else if skew >= BALANCE_SKEW {
                ResolvedStrategy::LoadBalance
            } else {
                ResolvedStrategy::Classical
            }
        }
    }
}

/// The concrete kernel a plan executes (`Auto` already resolved).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedStrategy {
    /// Equal-row-count chunks.
    Classical,
    /// Equal-nonzero-count row chunks.
    LoadBalance,
    /// Merge-path (rows + nnz) diagonal segments.
    MergePath,
}

impl ResolvedStrategy {
    /// Stable lowercase name (used in events and bench records).
    pub fn name(self) -> &'static str {
        match self {
            ResolvedStrategy::Classical => "classical",
            ResolvedStrategy::LoadBalance => "load_balance",
            ResolvedStrategy::MergePath => "merge_path",
        }
    }
}

// ---------------------------------------------------------------------------
// Partition helpers (pure functions over the row pointers)
// ---------------------------------------------------------------------------

/// Row boundaries with (approximately) equal nonzeros per chunk, deduplicated
/// so skewed matrices never produce empty chunks.
pub(crate) fn load_balance_bounds<I: Index>(
    rows: usize,
    row_ptrs: &[I],
    max_chunks: usize,
) -> Vec<usize> {
    let nnz = if rows == 0 {
        0
    } else {
        row_ptrs[rows].to_usize()
    };
    if nnz == 0 || rows == 0 {
        return uniform_bounds(rows, max_chunks);
    }
    let chunks = max_chunks.max(1).min(rows);
    let mut bounds = Vec::with_capacity(chunks + 1);
    bounds.push(0usize);
    let mut prev = 0usize;
    for c in 1..chunks {
        let target = c * nnz / chunks;
        // First row whose end passes the target.
        let row = row_ptrs.partition_point(|&p| p.to_usize() < target);
        // Skewed nnz distributions (e.g. one dense row holding most of the
        // matrix) make several targets resolve to the same row; duplicates
        // would be empty chunks inflating the modeled per-chunk overhead,
        // so boundaries are deduplicated as they are produced.
        let row = row.clamp(prev, rows);
        if row < rows && row != prev {
            bounds.push(row);
            prev = row;
        }
    }
    bounds.push(rows);
    bounds
}

/// One nonzero-range segment (CSR merge-path, and the COO kernel's nnz
/// partition): a contiguous nonzero range plus the rows it spans.
/// `row_first`/`row_last` are the rows of the first and last owned
/// nonzero; either may extend into neighbouring segments (a split row),
/// which is why `run_segments` routes their partial sums through
/// per-segment scratch instead of writing them directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeSegment {
    /// First owned nonzero index (inclusive).
    pub nnz_start: usize,
    /// One past the last owned nonzero index.
    pub nnz_end: usize,
    /// Row containing nonzero `nnz_start`.
    pub row_first: usize,
    /// Row containing nonzero `nnz_end - 1`.
    pub row_last: usize,
}

/// Row index of nonzero `e` (last row whose pointer is `<= e`).
pub(crate) fn row_of<I: Index>(row_ptrs: &[I], e: usize) -> usize {
    row_ptrs.partition_point(|&p| p.to_usize() <= e) - 1
}

/// Splits the merged (rows + nnz) decision sequence into `max_chunks`
/// balanced segments via diagonal binary searches.
///
/// For diagonal `d`, the split row is the largest `r` with
/// `row_ptrs[r] + r <= d` (the left side is strictly increasing in `r`) and
/// the nonzero cursor is `d - r`, which the same inequality pins inside
/// `row_ptrs[r] ..= row_ptrs[r + 1]`. Segments with no nonzeros (diagonals
/// advancing only through empty rows) are dropped — empty rows cost the
/// executing kernel nothing.
pub fn merge_segments<I: Index>(
    rows: usize,
    row_ptrs: &[I],
    max_chunks: usize,
) -> Vec<MergeSegment> {
    let nnz = if rows == 0 {
        0
    } else {
        row_ptrs[rows].to_usize()
    };
    if nnz == 0 {
        return Vec::new();
    }
    let total = rows + nnz;
    let chunks = max_chunks.max(1).min(total);
    let mut cuts: Vec<usize> = Vec::with_capacity(chunks + 1);
    cuts.push(0);
    let mut last_cut = 0usize;
    for c in 1..chunks {
        let d = c * total / chunks;
        // Largest r in [0, rows] with row_ptrs[r] + r <= d.
        let (mut lo, mut hi) = (0usize, rows);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if row_ptrs[mid].to_usize() + mid <= d {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let cut = d - lo;
        if cut > last_cut && cut < nnz {
            cuts.push(cut);
            last_cut = cut;
        }
    }
    cuts.push(nnz);
    cuts.windows(2)
        .map(|w| MergeSegment {
            nnz_start: w[0],
            nnz_end: w[1],
            row_first: row_of(row_ptrs, w[0]),
            row_last: row_of(row_ptrs, w[1] - 1),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The segment scaffold (shared by CSR merge-path and COO)
// ---------------------------------------------------------------------------

/// Raw output pointer shared across segment lanes for interior-row writes.
struct SharedOut<V>(*mut V);

// SAFETY: lanes only dereference offsets of rows strictly between their own
// segment's `row_first` and `row_last`; `run_segments` checks that those
// open row intervals are disjoint between segments before any lane starts.
unsafe impl<V: Send> Send for SharedOut<V> {}
unsafe impl<V: Send> Sync for SharedOut<V> {}

/// Where one segment lane delivers its finished row sums.
pub(crate) struct SegmentSink<'a, V> {
    row_first: usize,
    row_last: usize,
    k: usize,
    alpha: V,
    /// `k` slots for the segment's first row, then `k` for its last.
    boundary: &'a mut [f64],
    out: &'a SharedOut<V>,
}

impl<V: Value> SegmentSink<'_, V> {
    /// Delivers `sum`, the segment's whole contribution to output
    /// `(r, c)`: each `(r, c)` at most once per segment. The first and last
    /// row of the segment — which a boundary may split — are parked in
    /// scratch for the serial merge; a row strictly between them has every
    /// nonzero inside this segment and is updated in place.
    /// `inline(always)`: called once per row from the lanes' leaf kernels.
    #[inline(always)]
    pub(crate) fn put(&mut self, r: usize, c: usize, sum: f64) {
        assert!(c < self.k, "right-hand-side column out of range");
        if r <= self.row_first {
            self.boundary[c] = sum;
        } else if r >= self.row_last {
            self.boundary[self.k + c] = sum;
        } else {
            // SAFETY: `row_first < r < row_last` and `c < k`, so the offset
            // is below `row_last * k < x.len()` and belongs to a row no
            // other segment delivers in place (both checked by
            // `run_segments` before dispatch).
            unsafe {
                *self.out.0.add(r * self.k + c) += self.alpha * V::from_f64(sum);
            }
        }
    }

    /// [`SegmentSink::put`] for every right-hand side of row `r`, from a lane's
    /// accumulator block, which is left cleared for the lane's next row.
    #[inline(always)]
    pub(crate) fn put_block(&mut self, r: usize, acc: &mut [f64]) {
        for (c, a) in acc.iter_mut().enumerate() {
            self.put(r, c, std::mem::take(a));
        }
    }
}

/// Runs `lane` once per segment on `exec`'s pool and folds the results into
/// `x += alpha * (per-row sums)`, for `x` row-major with `k` columns.
///
/// Each lane receives its segment's index and the segment, a `k`-slot
/// accumulator block (reused across the segment's rows:
/// [`SegmentSink::put_block`] clears it) and a [`SegmentSink`]. Rows
/// interior to a segment are written through the sink directly; the first
/// and last row land in a per-segment scratch block that a serial pass
/// merges in segment order, so a row split across segments receives its
/// pieces in a fixed sequence. No atomics, and no heap allocation that
/// scales with rows or nonzeros: one scratch vector of `3 * k` slots per
/// segment.
///
/// # Panics
///
/// Panics if the segments' row spans are not ordered, or reach past `x`.
pub(crate) fn run_segments<V, F>(
    exec: &Executor,
    x: &mut [V],
    k: usize,
    alpha: V,
    segments: &[MergeSegment],
    lane: F,
) where
    V: Value,
    F: Fn(usize, MergeSegment, &mut [f64], SegmentSink<'_, V>) + Sync,
{
    if k == 0 || segments.is_empty() {
        return;
    }
    // The conditions `SegmentSink::put`'s in-place write rests on.
    let mut row_end = 0usize;
    for seg in segments {
        assert!(
            row_end <= seg.row_first && seg.row_first <= seg.row_last,
            "segment row spans must be ordered: {seg:?}"
        );
        row_end = seg.row_last;
    }
    assert!(row_end < x.len() / k, "segment rows exceed the output");

    let mut scratch = vec![0.0f64; segments.len() * 3 * k];
    let scratch_bounds: Vec<usize> = (0..=segments.len()).map(|s| s * 3 * k).collect();
    let out = SharedOut(x.as_mut_ptr());
    parallel_chunks(exec, scratch.as_mut_slice(), &scratch_bounds, |s, sc| {
        let seg = segments[s];
        let (acc, boundary) = sc.split_at_mut(k);
        let sink = SegmentSink {
            row_first: seg.row_first,
            row_last: seg.row_last,
            k,
            alpha,
            boundary,
            out: &out,
        };
        lane(s, seg, acc, sink);
    });
    for (seg, sc) in segments.iter().zip(scratch.chunks_exact(3 * k)) {
        for c in 0..k {
            x[seg.row_first * k + c] += alpha * V::from_f64(sc[k + c]);
        }
        if seg.row_last != seg.row_first {
            for c in 0..k {
                x[seg.row_last * k + c] += alpha * V::from_f64(sc[2 * k + c]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// A cached, per-matrix SpMV execution plan (the inspector's output).
#[derive(Clone, Debug)]
pub struct SpmvPlan {
    /// Strategy the matrix requested (cache key together with `workers`).
    pub requested: SpmvStrategy,
    /// Concrete strategy after `Auto` resolution.
    pub resolved: ResolvedStrategy,
    /// Worker count of the executor the plan was built for.
    pub workers: usize,
    /// Row chunk boundaries (Classical / LoadBalance; empty for MergePath).
    pub row_bounds: Vec<usize>,
    /// Merge-path segments (MergePath only; empty otherwise).
    pub segments: Vec<MergeSegment>,
    /// Per-chunk cost-model work, aligned with the partition above.
    pub work: Vec<ChunkWork>,
    /// Every piece's rows, local to the piece, in the order the `k == 1`
    /// kernels visit them; `None` when every piece runs in row order.
    pub(crate) order: Option<VisitOrder<u32>>,
}

impl SpmvPlan {
    /// Number of parallel pieces the plan dispatches.
    pub fn chunks(&self) -> usize {
        if self.segments.is_empty() {
            self.row_bounds.len().saturating_sub(1)
        } else {
            self.segments.len()
        }
    }

    /// Rows the plan visits grouped by length (0: row order throughout).
    pub fn ordered_rows(&self) -> usize {
        self.order.as_ref().map_or(0, |order| order.visits.len())
    }

    /// Each piece's rows, in dispatch order. A merge segment shares its first
    /// and last row with the segments that split them.
    pub(crate) fn piece_rows(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let chunks = self.row_bounds.windows(2).map(|w| w[0]..w[1]);
        chunks.chain(self.segments.iter().map(|s| s.row_first..s.row_last + 1))
    }

    /// Piece `p`'s rows in visiting order, or `None` for row order.
    #[inline]
    pub(crate) fn row_order(&self, p: usize) -> Option<&[u32]> {
        self.order.as_ref().map(|order| order.piece(p))
    }

    /// The sanitizer's check of the row order: each piece visits its own
    /// local rows once and reads no other (a plan in row order passes).
    pub(crate) fn verify_order(&self) -> Result<(), PartitionViolation> {
        let Some(order) = &self.order else {
            return Ok(());
        };
        let rows: Vec<usize> = self.piece_rows().map(|p| p.len()).collect();
        verify_order(order, Domain::Pieces(&rows), |r| Ok((r as usize, [])))
    }
}

/// Each piece's rows, local to the piece, grouped by length inside windows
/// of [`ORDER_WINDOW`] rows: one stable counting sort per window, so rows of
/// one length keep ascending order. Its buckets reach the window's longest
/// row, which the window's entries pay for.
fn length_order<I: Index>(
    row_ptrs: &[I],
    pieces: impl Iterator<Item = Range<usize>>,
) -> VisitOrder<u32> {
    let mut order = VisitOrder::with_capacity(row_ptrs.len());
    let mut lens = [0usize; ORDER_WINDOW];
    let mut starts = Vec::new();
    for piece in pieces {
        for w0 in piece.clone().step_by(ORDER_WINDOW) {
            let window = w0..(w0 + ORDER_WINDOW).min(piece.end);
            let lens = &mut lens[..window.len()];
            for (len, w) in lens
                .iter_mut()
                .zip(row_ptrs[window.start..=window.end].windows(2))
            {
                *len = w[1].to_usize() - w[0].to_usize();
            }
            let first = window.start - piece.start;
            let buckets = lens.iter().max().map_or(0, |&l| l + 1);
            order.push_sorted(lens, buckets, |i| (first + i) as u32, &mut starts);
        }
        order.end_piece();
    }
    order
}

/// Counters describing one matrix's plan-cache behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Inspector runs (first apply, and after each invalidation).
    pub builds: u64,
    /// Applies served by a cached plan.
    pub hits: u64,
}

impl PlanCacheStats {
    /// Fraction of plan lookups served from cache.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.builds + self.hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-matrix plan slot plus build/hit counters.
///
/// The slot invalidates itself when the lookup key (requested strategy,
/// executor worker count) changes; structural mutation must call
/// [`PlanCache::invalidate`] explicitly.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    slot: Mutex<Option<Arc<SpmvPlan>>>, // lock: plan.slot
    builds: AtomicU64,                  // atomic: counter
    hits: AtomicU64,                    // atomic: counter
}

/// Cloning a matrix must not share plan state: the clone starts with an
/// empty cache so later mutation of either copy cannot serve the other a
/// stale plan.
impl Clone for PlanCache {
    fn clone(&self) -> Self {
        PlanCache::default()
    }
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Drops the cached plan (the next apply re-runs the inspector).
    pub(crate) fn invalidate(&self) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Build/hit counters (monotone; survive invalidation).
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// Returns the cached plan for `(requested, workers)`, or builds one.
    ///
    /// The slot lock is held across `build`, so concurrent first applies of
    /// one matrix run the inspector exactly once.
    pub(crate) fn get_or_build<F>(
        &self,
        requested: SpmvStrategy,
        workers: usize,
        build: F,
    ) -> Arc<SpmvPlan>
    where
        F: FnOnce() -> SpmvPlan,
    {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(plan) = slot.as_ref() {
            if plan.requested == requested && plan.workers == workers {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return plan.clone();
            }
        }
        let plan = Arc::new(build());
        self.builds.fetch_add(1, Ordering::Relaxed);
        *slot = Some(plan.clone());
        plan
    }
}

// ---------------------------------------------------------------------------
// The inspector
// ---------------------------------------------------------------------------

/// Cost-model work of an SpMV chunk covering `rows` rows and `nnz` nonzeros
/// (shared by every CSR partition shape so all strategies are charged
/// identically per nonzero). `vb`/`ib` are the value/index byte widths.
pub(crate) fn spmv_chunk_work(rows: f64, nnz: f64, vb: usize, ib: usize) -> ChunkWork {
    ChunkWork::new(
        nnz * (vb + ib) as f64 + rows * (ib + vb) as f64,
        nnz * vb as f64, // x gathers
        2.0 * nnz,
    )
}

/// Runs the inspector: gathers row statistics, resolves the strategy,
/// computes the partition and its per-chunk work, charges the inspection
/// pass to the virtual timeline, and emits [`Event::PlanBuilt`].
///
/// The surrounding [`OpTimer`] publishes the inspector's wall/virtual cost
/// as the `csr::plan` kernel, so profilers attribute plan building
/// separately from apply time (it shows up as a child frame of the first
/// `csr` apply).
pub fn build_plan<I: Index>(
    exec: &Executor,
    requested: SpmvStrategy,
    rows: usize,
    row_ptrs: &[I],
    value_bytes: usize,
) -> SpmvPlan {
    let _timer = OpTimer::new(exec, "csr::plan");
    let workers = exec.spec().workers;
    let stats = RowStats::inspect(rows, row_ptrs);
    let resolved = resolve_strategy(requested, &stats);
    let (row_bounds, segments) = match resolved {
        ResolvedStrategy::Classical => (
            uniform_bounds(rows, workers * CLASSICAL_OVERSUBSCRIPTION),
            Vec::new(),
        ),
        // Balanced by construction: one chunk per worker, no
        // oversubscription overhead.
        ResolvedStrategy::LoadBalance => (load_balance_bounds(rows, row_ptrs, workers), Vec::new()),
        ResolvedStrategy::MergePath => (Vec::new(), merge_segments(rows, row_ptrs, workers)),
    };
    let work: Vec<ChunkWork> = if segments.is_empty() {
        row_bounds
            .windows(2)
            .map(|w| {
                let rows = (w[1] - w[0]) as f64;
                let nnz = (row_ptrs[w[1]].to_usize() - row_ptrs[w[0]].to_usize()) as f64;
                spmv_chunk_work(rows, nnz, value_bytes, I::BYTES)
            })
            .collect()
    } else {
        segments
            .iter()
            .map(|s| {
                spmv_chunk_work(
                    (s.row_last - s.row_first + 1) as f64,
                    (s.nnz_end - s.nnz_start) as f64,
                    value_bytes,
                    I::BYTES,
                )
            })
            .collect()
    };
    // Charge the inspector itself: one streaming pass over the row-pointer
    // array plus a comparison per row.
    exec.launch(&[ChunkWork::new(
        ((rows + 1) * I::BYTES) as f64,
        0.0,
        rows as f64,
    )]);
    let mut plan = SpmvPlan {
        requested,
        resolved,
        workers,
        row_bounds,
        segments,
        work,
        order: None,
    };
    // Not charged: the order is a schedule for the host's branch predictor,
    // which the modelled devices do not have.
    if stats.orders_rows() {
        plan.order = Some(length_order(row_ptrs, plan.piece_rows()));
    }
    exec.loggers().log(&Event::PlanBuilt {
        op: "csr",
        strategy: resolved.name(),
        chunks: plan.chunks() as u64,
        rows: rows as u64,
        nnz: stats.nnz as u64,
        ordered_rows: plan.ordered_rows() as u64,
    });
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row pointers of a matrix with rows of the given lengths.
    fn rp(lens: &[usize]) -> Vec<i32> {
        let mut out = vec![0i32];
        let mut acc = 0i32;
        for &l in lens {
            acc += l as i32;
            out.push(acc);
        }
        out
    }

    #[test]
    fn stats_capture_skew_and_empties() {
        let rp = rp(&[1, 0, 7, 0, 2]);
        let s = RowStats::inspect(5, &rp);
        assert_eq!(s.rows, 5);
        assert_eq!(s.nnz, 10);
        assert_eq!(s.max_row_nnz, 7);
        assert_eq!(s.empty_rows, 2);
        assert_eq!(s.avg_row_nnz(), 2.0);
        assert_eq!(s.skew(), 3.5);
    }

    #[test]
    fn auto_resolution_is_deterministic_and_structural() {
        // Uniform rows -> classical.
        let uniform = RowStats::inspect(4, &rp(&[2, 2, 2, 2]));
        assert_eq!(
            resolve_strategy(SpmvStrategy::Auto, &uniform),
            ResolvedStrategy::Classical
        );
        // Moderate skew (max 6 vs avg 1.5 = 4x) -> load balance.
        let skewed = RowStats::inspect(8, &rp(&[6, 1, 1, 1, 1, 1, 1, 0]));
        assert_eq!(
            resolve_strategy(SpmvStrategy::Auto, &skewed),
            ResolvedStrategy::LoadBalance
        );
        // One row holding nearly everything -> merge path.
        let extreme = RowStats::inspect(65, &{
            let mut lens = vec![1usize; 64];
            lens.push(640);
            rp(&lens)
        });
        assert_eq!(
            resolve_strategy(SpmvStrategy::Auto, &extreme),
            ResolvedStrategy::MergePath
        );
        // Explicit requests pass through untouched.
        assert_eq!(
            resolve_strategy(SpmvStrategy::MergePath, &uniform),
            ResolvedStrategy::MergePath
        );
        // Resolution repeated on identical stats never flips.
        for _ in 0..10 {
            assert_eq!(
                resolve_strategy(SpmvStrategy::Auto, &skewed),
                ResolvedStrategy::LoadBalance
            );
        }
    }

    /// Row pointers of a generated matrix, as `Csr::from_triplets` builds them.
    fn rp_of(gen: pygko_matgen::generators::GeneratedMatrix) -> Vec<i32> {
        let mut lens = vec![0usize; gen.rows];
        for &(r, ..) in &gen.triplets {
            lens[r] += 1;
        }
        rp(&lens)
    }

    #[test]
    fn length_changes_are_counted_between_neighbours() {
        let s = RowStats::inspect(6, &rp(&[2, 2, 5, 0, 0, 2]));
        assert_eq!(s.length_changes, 3);
        assert_eq!(RowStats::inspect(0, &[0i32]).length_changes, 0);
        assert_eq!(RowStats::inspect(1, &rp(&[7])).length_changes, 0);
    }

    /// Which bench-class matrices are ordered, and that the answer depends on
    /// the structure alone.
    #[test]
    fn row_order_decision_is_structural() {
        use pygko_matgen::generators::{circuit, poisson2d, poisson3d, power_law};
        let cases = [
            ("stencil 2d", rp_of(poisson2d("p", 100, 100)), false),
            ("stencil 3d", rp_of(poisson3d("p", 24, 24, 24)), false),
            ("circuit", rp_of(circuit("c", 12_000, 6, 4, 7)), true),
            (
                "circuit below the rows floor",
                rp_of(circuit("c", 4_000, 6, 4, 7)),
                false,
            ),
            (
                "power law",
                rp_of(power_law("pl", 12_000, 12, 0.5, 7)),
                false,
            ),
        ];
        for (name, rp, ordered) in cases {
            let rows = rp.len() - 1;
            assert_eq!(
                RowStats::inspect(rows, &rp).orders_rows(),
                ordered,
                "{name}"
            );
            for workers in [1, 2, 16] {
                for strategy in [
                    SpmvStrategy::Classical,
                    SpmvStrategy::LoadBalance,
                    SpmvStrategy::MergePath,
                    SpmvStrategy::Auto,
                ] {
                    let exec = Executor::omp(workers);
                    let plan = build_plan(&exec, strategy, rows, &rp, 8);
                    let ctx = format!("{name} {strategy:?} on {workers} workers");
                    assert_eq!(plan.ordered_rows() > 0, ordered, "{ctx}");
                    if ordered {
                        let covered: usize = plan.piece_rows().map(|p| p.len()).sum();
                        assert_eq!(plan.ordered_rows(), covered, "{ctx}");
                    }
                }
            }
        }
    }

    /// Inside each window of 128 rows of a piece, lengths ascend and rows of
    /// one length keep their order; windows never cross pieces.
    #[test]
    fn rows_are_grouped_by_length_inside_windows() {
        let lens: Vec<usize> = (0..700).map(|r| (r * 7 + r / 3) % 11).collect();
        let rp = rp(&lens);
        let pieces = [0..300, 300..301, 301..700];
        let order = length_order(&rp, pieces.iter().cloned());
        assert_eq!(order.bounds, [0, 300, 301, 700]);
        for (p, piece) in pieces.iter().enumerate() {
            let order = order.piece(p);
            for (w, window) in order.chunks(ORDER_WINDOW).enumerate() {
                let base = piece.start + w * ORDER_WINDOW;
                let mut rows: Vec<usize> =
                    window.iter().map(|&l| piece.start + l as usize).collect();
                let key = |r: &usize| (lens[*r], *r);
                assert!(
                    rows.windows(2).all(|p| key(&p[0]) < key(&p[1])),
                    "{piece:?} window {w}"
                );
                rows.sort_unstable();
                let want: Vec<usize> = (base..(base + ORDER_WINDOW).min(piece.end)).collect();
                assert_eq!(
                    rows, want,
                    "{piece:?} window {w} is a permutation of its rows"
                );
            }
        }
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let byte = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes().iter().fold(h, byte)
        })
    }

    /// The exact row orders the plans of `tests/spmv_bits.rs`'s irregular
    /// family visit (9 001 rows of seeded length 1..=12, one rail of 400).
    /// Bits alone cannot pin an order, and the order is the performance.
    #[test]
    fn irregular_row_orders_are_pinned() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut lens: Vec<usize> = (0..9_001)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                1 + (state >> 33) as usize % 12
            })
            .collect();
        lens[1_234] = 400;
        let rp = rp(&lens);
        let pinned = [
            (SpmvStrategy::Classical, 1, 0x1d1d_2a66_bbf1_30a2),
            (SpmvStrategy::Classical, 2, 0xa2d5_89c6_01bc_453f),
            (SpmvStrategy::Classical, 7, 0xfc7a_5bde_b1f1_1461),
            (SpmvStrategy::LoadBalance, 1, 0x9590_cbfe_4709_9f34),
            (SpmvStrategy::LoadBalance, 2, 0x3113_cd56_e186_6091),
            (SpmvStrategy::LoadBalance, 7, 0x50d2_af78_2ca6_ca71),
            (SpmvStrategy::MergePath, 1, 0x9590_cbfe_4709_9f34),
            (SpmvStrategy::MergePath, 2, 0x15e1_810d_5899_2a54),
            (SpmvStrategy::MergePath, 7, 0xeade_531b_64e5_5ada),
        ];
        for (strategy, workers, want) in pinned {
            let plan = build_plan(&Executor::omp(workers), strategy, lens.len(), &rp, 8);
            let order = plan.order.as_ref().unwrap();
            let bounds = order.bounds.iter().map(|&b| b as u64);
            let order = order.visits.iter().map(|&r| u64::from(r));
            let got = fnv1a(order.chain(bounds));
            assert!(plan.ordered_rows() > 0, "{strategy:?} on {workers} workers");
            assert_eq!(got, want, "{strategy:?} on {workers} workers");
        }
    }

    #[test]
    fn merge_segments_partition_all_nnz() {
        // One dense row inside light rows.
        let mut lens = vec![2usize; 10];
        lens[4] = 100;
        let rp = rp(&lens);
        for chunks in [1usize, 2, 3, 7, 16] {
            let segs = merge_segments(10, &rp, chunks);
            assert!(!segs.is_empty());
            assert_eq!(segs[0].nnz_start, 0);
            assert_eq!(segs.last().unwrap().nnz_end, 118);
            for w in segs.windows(2) {
                assert_eq!(w[0].nnz_end, w[1].nnz_start, "contiguous");
            }
            for s in &segs {
                assert!(s.nnz_start < s.nnz_end, "nonempty: {s:?}");
                assert!(s.row_first <= s.row_last);
            }
        }
        // The dense row is actually split across several segments.
        let segs = merge_segments(10, &rp, 8);
        let touching = segs
            .iter()
            .filter(|s| s.row_first <= 4 && 4 <= s.row_last)
            .count();
        assert!(touching >= 3, "dense row split across segments: {segs:?}");
    }

    #[test]
    fn merge_segments_handle_degenerate_shapes() {
        // Empty matrix.
        assert!(merge_segments(0, &[0i32], 8).is_empty());
        // All rows empty.
        assert!(merge_segments(3, &rp(&[0, 0, 0]), 8).is_empty());
        // Single dense row.
        let one_row = rp(&[33]);
        let segs = merge_segments(1, &one_row, 4);
        assert_eq!(segs[0].nnz_start, 0);
        assert_eq!(segs.last().unwrap().nnz_end, 33);
        assert!(segs.iter().all(|s| s.row_first == 0 && s.row_last == 0));
        assert!(segs.len() > 1, "dense row split: {segs:?}");
        // Column vector (N x 1, one nnz per row).
        let col = rp(&[1, 1, 1, 1, 1]);
        let segs = merge_segments(5, &col, 2);
        assert_eq!(
            segs.iter().map(|s| s.nnz_end - s.nnz_start).sum::<usize>(),
            5
        );
        // More chunks than merge items.
        let tiny = rp(&[1]);
        let segs = merge_segments(1, &tiny, 100);
        assert_eq!(segs.len(), 1);
    }

    /// The in-place write of interior rows is only sound for ordered,
    /// in-range row spans; `run_segments` must refuse anything else before
    /// a lane runs.
    fn run_on(segments: &[MergeSegment], x: &mut [f64]) {
        run_segments(&Executor::reference(), x, 1, 1.0, segments, |_, _, _, _| {
            panic!("lane must not run");
        });
    }

    #[test]
    #[should_panic(expected = "segment row spans must be ordered")]
    fn run_segments_rejects_overlapping_row_spans() {
        let seg = |row_first, row_last| MergeSegment {
            nnz_start: 0,
            nnz_end: 1,
            row_first,
            row_last,
        };
        run_on(&[seg(0, 3), seg(2, 4)], &mut [0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "segment rows exceed the output")]
    fn run_segments_rejects_rows_past_the_output() {
        let seg = MergeSegment {
            nnz_start: 0,
            nnz_end: 1,
            row_first: 0,
            row_last: 5,
        };
        run_on(&[seg], &mut [0.0; 5]);
    }

    #[test]
    fn load_balance_bounds_dedup_and_cover() {
        let mut lens = vec![1usize; 8];
        lens[0] = 64;
        let rp_arr = rp(&lens);
        let bounds = load_balance_bounds(8, &rp_arr, 4);
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), 8);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
    }

    #[test]
    fn cache_hits_and_invalidation_are_counted() {
        let cache = PlanCache::new();
        let build = || SpmvPlan {
            requested: SpmvStrategy::Auto,
            resolved: ResolvedStrategy::Classical,
            workers: 2,
            row_bounds: vec![0, 1],
            segments: Vec::new(),
            work: Vec::new(),
            order: None,
        };
        let p1 = cache.get_or_build(SpmvStrategy::Auto, 2, build);
        let p2 = cache.get_or_build(SpmvStrategy::Auto, 2, build);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats(), PlanCacheStats { builds: 1, hits: 1 });
        // Different key -> rebuild.
        let _ = cache.get_or_build(SpmvStrategy::Auto, 4, || SpmvPlan {
            workers: 4,
            ..build()
        });
        assert_eq!(cache.stats().builds, 2);
        // Invalidation -> rebuild on next lookup.
        cache.invalidate();
        let _ = cache.get_or_build(SpmvStrategy::Auto, 4, || SpmvPlan {
            workers: 4,
            ..build()
        });
        assert_eq!(cache.stats(), PlanCacheStats { builds: 3, hits: 1 });
        assert!(cache.stats().reuse_ratio() < 0.5);
        // A cloned cache starts empty.
        let fresh = cache.clone();
        assert_eq!(fresh.stats(), PlanCacheStats::default());
    }
}
