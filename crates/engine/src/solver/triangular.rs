//! Sparse triangular solvers (Ginkgo's `LowerTrs`/`UpperTrs`).
//!
//! Forward/backward substitution on a sparse triangular CSR factor, split the
//! way Ginkgo splits it: a solver is *generated* once per factor and applied
//! many times (an ILU-preconditioned Krylov loop applies two of them per
//! iteration).
//!
//! **What is generated.** The constructor validates the factor's structure
//! and walks its rows once, in sweep order. Per row it finds the *strict
//! span* of the entries left (lower) or right (upper) of the diagonal, the
//! reciprocal of the diagonal entry, and the row's *level*: 0 for a row whose
//! span is empty, else one more than the deepest level among the rows its
//! span reads. It records the first row in sweep order whose diagonal is zero
//! or not stored, which every apply reports as [`GkoError::Singular`]. One
//! counting sort then orders the rows by level, inside a level by span length
//! (`LENGTH_GROUPS`), in sweep order within that: a *visit order* with a
//! piece per level, holding per row the row and its span, moved onto a copy
//! of the spans' entries laid out in the same order. A full square matrix
//! may be handed to either solver: the spans cover only the solver's half,
//! so no apply reads the other one. Of the factor itself the solver keeps
//! only its shape, executor and entry count, so nothing generated can be
//! invalidated and a factor built for the solver alone (as `Ilu` and `Ic`
//! build theirs) is freed when generation ends. The diagonal is where it is
//! looked for only on sorted rows, and the sweeps index `x` with the stored
//! columns, so a matrix whose structure is corrupt (unsorted, repeated or
//! out-of-range columns, only constructible through
//! `Csr::from_raw_unchecked`) is refused at construction with the typed
//! `BadInput` of [`Csr::validate`], never solved wrongly.
//!
//! **Why the diagonal is inverted.** Row `r` of a sweep cannot start before
//! the unknowns its span reads are final (on a stencil, `x[r - 1]`), so what
//! bounds a sweep is the latency of the chain "load `x[r - 1]` ->
//! multiply-subtract -> scale by the diagonal -> store `x[r]`", not memory
//! traffic. A divide on that chain costs three times a multiply; with the
//! reciprocal stored, the apply is one slice walk per row (`acc -= v * x[c]`)
//! and one multiply. Under a unit diagonal there is no scale at all.
//!
//! **Why rows are visited in level order.** No row reads another row of its
//! own level, so consecutive rows of the visit order are independent chains
//! and the core overlaps them; in row order each row of a stencil waits for
//! the one before. Rows of one span length in a row run the entry loop
//! equally often, so its exit is predicted: on short rows of random length a
//! mispredicted exit per row cost more than the row's arithmetic. The copied
//! entries let the sweep stream its data in the order it visits it; spans
//! into the factor itself would be read a level's width apart. Every row
//! still computes the same expression from the same final unknowns, so the
//! order changes no bit: not of a result, not of an iteration count, not of
//! the row a `Singular` names.
//!
//! **Rounding contract.** Products accumulate in `f64` in stored column
//! order, starting from the right-hand side, exactly as the division form
//! `x[r] = (b[r] - sum) / d` does. A unit-diagonal sweep is therefore
//! bit-identical to that form. A scaled sweep computes
//! `(b[r] - sum) * (1 / d)`: two roundings where the division has one, so row
//! `r` alone is within 1.5 ulp (`f64`) of the correctly rounded quotient, and
//! the sweeps differ by what that per-row perturbation grows to through the
//! recurrence. Narrower value types round the `f64` result once more on
//! store.
//!
//! **Cost model.** The recurrence is inherently sequential across dependent
//! rows, which the cost model captures by scheduling the whole solve as a
//! single chunk: the structural reason triangular solves parallelize poorly
//! on GPUs (a point §6.2.1 makes about small Hessenberg systems). That holds
//! for the generated solve as much as for a naive one (generation shortens
//! the chain and the level order overlaps it on one core; neither cuts it),
//! so the charge is unchanged.

use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::executor::Executor;
use crate::linop::{check_operands, LinOp};
use crate::log::OpTimer;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use crate::matrix::order::VisitOrder;
use crate::sanitize::{report_violation, span_reads, verify_order, Domain};
use pygko_sim::ChunkWork;
use std::sync::Arc;

/// Which half of the matrix the solver reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Half {
    Lower,
    Upper,
}

/// Span lengths the rows of a level are grouped by. Rows of one length run
/// the entry loop equally often, so its exit is predicted; spans of
/// `LENGTH_GROUPS - 1` entries or more share the last group, where a
/// mispredicted exit is spread over that many entries.
const LENGTH_GROUPS: usize = 16;

/// Shared implementation of the two triangular solvers: what was generated
/// from the factor (module docs), and of the factor itself only its shape,
/// executor and entry count.
struct Trs<V: Value, I: Index> {
    size: Dim2,
    exec: Executor,
    nnz: usize,
    half: Half,
    /// Per row in visit order: the row and its strict span `[lo, hi)` in
    /// `cols` / `vals`; a piece per level.
    order: VisitOrder<(I, I, I)>,
    /// Per row in visit order, `1 / diagonal`; all ones under a unit diagonal.
    inv_diag: Vec<f64>,
    /// The strict spans' column indices and values, in visit order.
    cols: Vec<I>,
    vals: Vec<V>,
    unit_diagonal: bool,
    /// First row in sweep order whose diagonal is zero or missing.
    singular: Option<usize>,
}

impl<V: Value, I: Index> Trs<V, I> {
    fn new(matrix: Arc<Csr<V, I>>, half: Half) -> Result<Self> {
        if !matrix.size().is_square() {
            return Err(GkoError::BadInput(
                "triangular solve requires a square matrix".into(),
            ));
        }
        matrix.validate()?;
        let n = matrix.size().rows;
        let (rp, ci, vals) = (matrix.row_ptrs(), matrix.col_idxs(), matrix.values());
        // In sweep order: each row with its span and its group (below); by
        // row, its level and inverse diagonal.
        let mut swept = Vec::with_capacity(n);
        let mut groups = Vec::with_capacity(n);
        let mut level = vec![0usize; n];
        let mut inv = vec![0.0; n];
        let (mut levels, mut entries) = (0, 0);
        let mut singular = None;
        for step in 0..n {
            let r = match half {
                Half::Lower => step,
                Half::Upper => n - 1 - step,
            };
            let (lo, hi) = (rp[r].to_usize(), rp[r + 1].to_usize());
            // First entry at or right of the diagonal, found walking in over
            // the other half. On an exact factor there is no other half and
            // the walk ends where it starts, where a binary search leaves
            // every short row through a mispredicted exit.
            let row = &ci[lo..hi];
            let split = match half {
                Half::Lower => hi - row.iter().rev().take_while(|c| c.to_usize() >= r).count(),
                Half::Upper => lo + row.iter().take_while(|c| c.to_usize() < r).count(),
            };
            let stored = split < hi && ci[split].to_usize() == r;
            let diag = if stored { vals[split].to_f64() } else { 0.0 };
            if diag == 0.0 && singular.is_none() {
                singular = Some(r);
            }
            let (lo, hi) = match half {
                Half::Lower => (lo, split),
                Half::Upper => (split + usize::from(stored), hi),
            };
            // One level below the deepest row the span reads, all of which
            // the sweep has passed.
            level[r] = ci[lo..hi]
                .iter()
                .fold(0, |deepest, c| deepest.max(level[c.to_usize()] + 1));
            levels = levels.max(level[r] + 1);
            groups.push(level[r] * LENGTH_GROUPS + (hi - lo).min(LENGTH_GROUPS - 1));
            entries += hi - lo;
            swept.push((I::from_usize(r), I::from_usize(lo), I::from_usize(hi)));
            inv[r] = 1.0 / diag;
        }
        // Rows by level, inside a level by span length; stable, so in sweep
        // order within a group. A level ends where its last group does.
        let (mut order, mut starts) = (VisitOrder::with_capacity(n), Vec::new());
        let buckets = levels * LENGTH_GROUPS;
        order.push_sorted(&groups, buckets, |step| swept[step], &mut starts);
        for l in 1..=levels {
            order.bounds.push(starts[l * LENGTH_GROUPS - 1]);
        }
        // The spans' entries, copied in visit order, each span moved onto its
        // copy.
        let (mut cols, mut values) = (Vec::with_capacity(entries), Vec::with_capacity(entries));
        let mut inv_diag = Vec::with_capacity(n);
        for visit in &mut order.visits {
            let (r, lo, hi) = *visit;
            let (span, at) = (lo.to_usize()..hi.to_usize(), I::from_usize(cols.len()));
            // Entry by entry: on short spans a copy call per span cost more.
            for e in span {
                cols.push(ci[e]);
                values.push(vals[e]);
            }
            *visit = (r, at, I::from_usize(cols.len()));
            inv_diag.push(inv[r.to_usize()]);
        }
        Ok(Trs {
            size: matrix.size(),
            exec: matrix.executor().clone(),
            nnz: matrix.nnz(),
            half,
            order,
            inv_diag,
            cols,
            vals: values,
            unit_diagonal: false,
            singular,
        })
    }

    fn op_name(&self) -> &'static str {
        match self.half {
            Half::Lower => "solver::LowerTrs",
            Half::Upper => "solver::UpperTrs",
        }
    }

    /// Treats the diagonal as implicit ones, stored or not.
    fn with_unit_diagonal(mut self) -> Self {
        self.inv_diag.fill(1.0);
        self.unit_diagonal = true;
        self.singular = None;
        self
    }

    fn work(&self) -> Vec<ChunkWork> {
        // One sequential chunk: dependencies serialize the rows.
        let nnz = self.nnz as f64;
        let rows = self.size.rows as f64;
        vec![ChunkWork::new(
            nnz * (V::BYTES + I::BYTES) as f64 + rows * 2.0 * V::BYTES as f64,
            nnz * V::BYTES as f64,
            2.0 * nnz + rows,
        )]
    }

    /// Solves `T x = b`; with no `b`, the right-hand side is what `x` holds.
    /// Substitution is safe in place: row `r` reads `x[r]` before overwriting
    /// it, and besides that only entries of rows of earlier levels, which
    /// hold final values.
    fn solve(&self, b: Option<&Dense<V>>, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size, &self.exec, b.unwrap_or(x), x)?;
        let exec = &self.exec;
        let _timer = OpTimer::new(exec, self.op_name());
        if exec.sanitizer().is_enabled() {
            let rows = Domain::Items(self.size.rows);
            if let Err(v) = verify_order(&self.order, rows, |v| span_reads(&self.cols, v)) {
                report_violation("level-order validator", &v);
            }
        }
        if let Some(at) = self.singular {
            return Err(GkoError::Singular { at });
        }
        match b.map(Dense::as_slice) {
            Some(bv) => self.substitute(x, |_, i| bv[i]),
            None => self.substitute(x, |xs, i| xs[i]),
        }
        exec.launch(&self.work());
        Ok(())
    }

    /// One sweep into `x` in visit order; `rhs_at(xs, i)` is element `i` of
    /// the right-hand side, given the current `x`.
    fn substitute(&self, x: &mut Dense<V>, rhs_at: impl Fn(&[V], usize) -> V) {
        let k = x.size().cols;
        let (cols, vals) = (self.cols.as_slice(), self.vals.as_slice());
        let rows = self.order.visits.iter().zip(&self.inv_diag);
        let xs = x.as_mut_slice();
        if k != 1 {
            for (&(r, lo, hi), &inv) in rows {
                let (r, span) = (r.to_usize(), lo.to_usize()..hi.to_usize());
                let (cols, vals) = (&cols[span.clone()], &vals[span]);
                for c in 0..k {
                    let acc = eliminate(xs, rhs_at(xs, r * k + c), cols, vals, k, c);
                    xs[r * k + c] = V::from_f64(acc * inv);
                }
            }
        } else if self.unit_diagonal {
            for &(r, lo, hi) in &self.order.visits {
                let (r, span) = (r.to_usize(), lo.to_usize()..hi.to_usize());
                let acc = eliminate(xs, rhs_at(xs, r), &cols[span.clone()], &vals[span], 1, 0);
                xs[r] = V::from_f64(acc);
            }
        } else {
            for (&(r, lo, hi), &inv) in rows {
                let (r, span) = (r.to_usize(), lo.to_usize()..hi.to_usize());
                let acc = eliminate(xs, rhs_at(xs, r), &cols[span.clone()], &vals[span], 1, 0);
                xs[r] = V::from_f64(acc * inv);
            }
        }
    }
}

/// `rhs - sum` over one row's strict span (`cols`, `vals`), for column `c`
/// of `k`.
#[inline(always)]
fn eliminate<V: Value, I: Index>(
    xs: &[V],
    rhs: V,
    cols: &[I],
    vals: &[V],
    k: usize,
    c: usize,
) -> f64 {
    let mut acc = rhs.to_f64();
    for (v, col) in vals.iter().zip(cols) {
        acc -= v.to_f64() * xs[col.to_usize() * k + c].to_f64();
    }
    acc
}

/// Solves `L x = b` for lower-triangular `L`.
pub type LowerTrs<V, I = i32> = TriangularSolver<V, I, false>;

/// Solves `U x = b` for upper-triangular `U`.
pub type UpperTrs<V, I = i32> = TriangularSolver<V, I, true>;

/// A generated triangular solver (module docs), reading the lower triangle
/// of its matrix ([`LowerTrs`]) or with `UPPER` the upper one
/// ([`UpperTrs`]), including the diagonal.
pub struct TriangularSolver<V: Value, I: Index, const UPPER: bool> {
    inner: Trs<V, I>,
}

impl<V: Value, I: Index, const UPPER: bool> TriangularSolver<V, I, UPPER> {
    /// Generates a solver reading its triangle of `matrix`.
    pub fn new(matrix: Arc<Csr<V, I>>) -> Result<Self> {
        let half = if UPPER { Half::Upper } else { Half::Lower };
        let inner = Trs::new(matrix, half)?;
        Ok(TriangularSolver { inner })
    }

    /// Treats the diagonal as implicit ones (for ILU's L factor).
    pub fn with_unit_diagonal(self) -> Self {
        let inner = self.inner.with_unit_diagonal();
        TriangularSolver { inner }
    }

    /// Levels of the generated visit order (module docs): as many as rows on
    /// a chain, the longest path of dependencies plus one in general.
    pub fn levels(&self) -> usize {
        self.inner.order.pieces()
    }
}

impl<V: Value, I: Index> UpperTrs<V, I> {
    /// Solves `U x = x` in place: the second sweep of `Ilu` and `Ic`, whose
    /// first sweep left its result in `x`.
    pub(crate) fn apply_in_place(&self, x: &mut Dense<V>) -> Result<()> {
        self.inner.solve(None, x)
    }
}

impl<V: Value, I: Index, const UPPER: bool> LinOp<V> for TriangularSolver<V, I, UPPER> {
    fn size(&self) -> Dim2 {
        self.inner.size
    }
    fn executor(&self) -> &Executor {
        &self.inner.exec
    }
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.inner.solve(Some(b), x)
    }
    fn op_name(&self) -> &'static str {
        self.inner.op_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_solve_matches_hand_computation() {
        let exec = Executor::reference();
        // L = [2 0; 3 4]; b = [2; 11] -> x = [1; 2]
        let l = Arc::new(
            Csr::<f64, i32>::from_triplets(
                &exec,
                Dim2::square(2),
                &[(0, 0, 2.0), (1, 0, 3.0), (1, 1, 4.0)],
            )
            .unwrap(),
        );
        let solver = LowerTrs::new(l).unwrap();
        let b = Dense::from_rows(&exec, &[[2.0f64], [11.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn upper_solve_matches_hand_computation() {
        let exec = Executor::reference();
        // U = [2 1; 0 4]; b = [4; 8] -> x = [1; 2]
        let u = Arc::new(
            Csr::<f64, i32>::from_triplets(
                &exec,
                Dim2::square(2),
                &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 4.0)],
            )
            .unwrap(),
        );
        let solver = UpperTrs::new(u).unwrap();
        let b = Dense::from_rows(&exec, &[[4.0f64], [8.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn unit_diagonal_ignores_stored_diagonal() {
        let exec = Executor::reference();
        // Strictly lower entry only; unit diagonal implied.
        let l = Arc::new(
            Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(1, 0, 3.0)]).unwrap(),
        );
        let solver = LowerTrs::new(l).unwrap().with_unit_diagonal();
        let b = Dense::from_rows(&exec, &[[1.0f64], [5.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn zero_diagonal_is_singular() {
        let exec = Executor::reference();
        let l = Arc::new(
            Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 0, 1.0)]).unwrap(),
        );
        let solver = LowerTrs::new(l).unwrap();
        let b = Dense::<f64>::vector(&exec, 2, 1.0);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        assert_eq!(solver.apply(&b, &mut x), Err(GkoError::Singular { at: 1 }));
    }

    #[test]
    fn solve_inverts_matrix_vector_product() {
        let exec = Executor::reference();
        // Random-ish lower triangular system; verify L(Lx=b) round trip.
        let n = 20;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 2.0 + i as f64 * 0.1));
            if i >= 2 {
                t.push((i, i - 2, -0.3));
            }
        }
        let l = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let x_true = Dense::<f64>::vector(&exec, n, 1.5);
        let mut b = Dense::zeros(&exec, Dim2::new(n, 1));
        l.apply(&x_true, &mut b).unwrap();
        let solver = LowerTrs::new(l).unwrap();
        let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
        solver.apply(&b, &mut x).unwrap();
        for (a, b) in x.to_host_vec().iter().zip(x_true.to_host_vec()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// `x[i]` reads `x[i - 1]` and `x[i - 7]` below the diagonal and the
    /// mirror entries above it.
    fn two_chains(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            for j in [i.wrapping_sub(1), i.wrapping_sub(7), i + 1, i + 7] {
                if j < n {
                    t.push((i, j, -0.5));
                }
            }
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn generated_orders_are_level_orders_and_armed_solves_check_them() {
        let exec = Executor::reference();
        exec.enable_sanitizer();
        let n = 40;
        let a = two_chains(&exec, n);
        let b = Dense::<f64>::vector(&exec, n, 1.0);
        let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
        for half in [Half::Lower, Half::Upper] {
            let trs = Trs::new(a.clone(), half).unwrap();
            // The chain through `i - 1` is the longest path.
            assert_eq!(trs.order.pieces(), n, "{half:?}");
            let reads = |v| span_reads(&trs.cols, v);
            assert_eq!(verify_order(&trs.order, Domain::Items(n), reads), Ok(()));
            trs.solve(Some(&b), &mut x).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "level-order validator tripped")]
    fn an_armed_solve_refuses_a_corrupt_order() {
        let exec = Executor::reference();
        exec.enable_sanitizer();
        let a = two_chains(&exec, 12);
        let mut trs = Trs::new(a, Half::Lower).unwrap();
        trs.order.visits.swap(3, 4);
        let b = Dense::<f64>::vector(&exec, 12, 1.0);
        let _ = trs.solve(Some(&b), &mut Dense::zeros(&exec, Dim2::new(12, 1)));
    }

    /// Levels 0 and 1 of a chain merged into one: row 1 reads row 0 of its
    /// own level. It still comes after row 0, so a sweep in this order gets
    /// the bits right, but the rows of a level must not read one another.
    #[test]
    #[should_panic(expected = "item 1 of piece 0 reads item 0, which no earlier piece visits")]
    fn an_armed_solve_refuses_a_row_reading_its_own_level() {
        let exec = Executor::reference();
        exec.enable_sanitizer();
        let mut trs = Trs::new(two_chains(&exec, 12), Half::Lower).unwrap();
        trs.order.bounds.remove(1);
        let b = Dense::<f64>::vector(&exec, 12, 1.0);
        let _ = trs.solve(Some(&b), &mut Dense::zeros(&exec, Dim2::new(12, 1)));
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let byte = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes().iter().fold(h, byte)
        })
    }

    /// The exact visit orders (rows, spans, copied columns and level count)
    /// generated for ILU(0) and IC(0) of `tests/triangular.rs`'s stencil and
    /// circuit. Bits alone cannot pin an order, and the order is the
    /// performance.
    #[test]
    fn factor_visit_orders_are_pinned() {
        use crate::factorization::{ic0, ilu0};
        use pygko_matgen::generators::{circuit, poisson2d};
        let exec = Executor::reference();
        let matrices = [
            (
                poisson2d("poisson2d_37x23", 37, 23),
                [
                    0x3b39_caf1_7a00_8809,
                    0xcd36_1709_9cd8_53df,
                    0x3b39_caf1_7a00_8809,
                    0xcd36_1709_9cd8_53df,
                ],
            ),
            (
                circuit("circuit_3000", 3000, 6, 4, 0x7215_0150_1DE5_0001),
                [
                    0x0053_850b_c147_514e,
                    0xfc02_d593_9202_9dab,
                    0x0053_850b_c147_514e,
                    0x0655_4c58_83c9_4616,
                ],
            ),
        ];
        for (gen, want) in matrices {
            let dim = Dim2::new(gen.rows, gen.cols);
            let a = Csr::<f64, i32>::from_triplets(&exec, dim, &gen.triplets).unwrap();
            let (l, u) = ilu0(&a).unwrap();
            let c = ic0(&a).unwrap();
            let ct = c.transpose();
            let factors = [
                (l, Half::Lower),
                (u, Half::Upper),
                (c, Half::Lower),
                (ct, Half::Upper),
            ];
            for ((factor, half), want) in factors.into_iter().zip(want) {
                let trs = Trs::new(Arc::new(factor), half).unwrap();
                let word = |i: i32| i as u64;
                let visits = trs
                    .order
                    .visits
                    .iter()
                    .flat_map(|&(r, lo, hi)| [r, lo, hi].map(word));
                let cols = trs.cols.iter().map(|&c| word(c));
                let got = fnv1a(visits.chain(cols).chain([trs.order.pieces() as u64]));
                assert_eq!(got, want, "{} {half:?}", gen.name);
            }
        }
    }

    #[test]
    fn triangular_solve_is_one_sequential_chunk() {
        let exec = Executor::cuda(0);
        let l = Arc::new(
            Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 0, 1.0), (1, 1, 1.0)])
                .unwrap(),
        );
        let solver = LowerTrs::new(l).unwrap();
        let b = Dense::<f64>::vector(&exec, 2, 1.0);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        let before = exec.timeline().snapshot();
        solver.apply(&b, &mut x).unwrap();
        // Exactly one launch for the solve itself (fill kernels excluded by
        // construction order).
        assert_eq!(exec.timeline().snapshot().since(&before).kernels, 1);
    }
}
