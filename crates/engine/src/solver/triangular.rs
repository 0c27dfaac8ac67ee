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
//! counting pass then orders the rows by level, inside a level by span length
//! (`LENGTH_GROUPS`), in sweep order within that, and stores per row in that
//! *visit order* the row, its span (as positions, in the matrix's index type,
//! into a copy of the spans' column indices and values laid out in the same
//! order) and its reciprocal. A full
//! square matrix may be handed to either solver: the spans cover only the
//! solver's half, so no apply reads the other one. The factor sits behind an
//! `Arc` and cannot change afterwards, so nothing generated is ever
//! invalidated. The diagonal is where it is looked for only on sorted rows,
//! and the sweeps index `x` with the stored columns, so a matrix whose
//! structure is corrupt (unsorted, repeated or out-of-range columns, only
//! constructible through `Csr::from_raw_unchecked`) is refused at
//! construction with the typed `BadInput` of [`Csr::validate`], never solved
//! wrongly.
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
use crate::linop::{check_apply_dims, LinOp};
use crate::log::OpTimer;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use crate::sanitize::{report_level_order_violation, verify_level_order};
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

/// Shared implementation of the two triangular solvers: the factor and what
/// was generated from it (module docs).
struct Trs<V: Value, I: Index> {
    matrix: Arc<Csr<V, I>>,
    half: Half,
    /// Per row in visit order: the row and its strict span `[lo, hi)` in
    /// `cols` / `vals`.
    visits: Vec<(I, I, I)>,
    /// Per row in visit order, `1 / diagonal`; all ones under a unit diagonal.
    inv_diag: Vec<f64>,
    /// The strict spans' column indices and values, in visit order.
    cols: Vec<I>,
    vals: Vec<V>,
    /// Levels the visit order runs through.
    levels: usize,
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
        // In sweep order: each row with its span and inverse diagonal; by
        // row, its level.
        let mut swept = Vec::with_capacity(n);
        let mut inv_swept = Vec::with_capacity(n);
        let mut level = vec![0usize; n];
        let mut levels = 0;
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
            swept.push((I::from_usize(r), I::from_usize(lo), I::from_usize(hi)));
            inv_swept.push(1.0 / diag);
        }
        // Counting sort of the rows and of their spans' entries by level, and
        // inside a level by span length; stable, so sweep order within a
        // group.
        let group = |&(r, lo, hi): &(I, I, I)| {
            let len = hi.to_usize() - lo.to_usize();
            level[r.to_usize()] * LENGTH_GROUPS + len.min(LENGTH_GROUPS - 1)
        };
        let groups = levels * LENGTH_GROUPS;
        let mut start = vec![(0usize, 0usize); groups + 1];
        for visit @ &(_, lo, hi) in &swept {
            let next = &mut start[group(visit) + 1];
            next.0 += 1;
            next.1 += hi.to_usize() - lo.to_usize();
        }
        for g in 0..groups {
            start[g + 1].0 += start[g].0;
            start[g + 1].1 += start[g].1;
        }
        let entries = start[groups].1;
        let mut visits = vec![(I::zero(), I::zero(), I::zero()); n];
        let mut inv_diag = vec![0.0; n];
        let mut cols = vec![I::zero(); entries];
        let mut values = vec![V::zero(); entries];
        for (visit @ &(r, lo, hi), &inv) in swept.iter().zip(&inv_swept) {
            let (at, first) = &mut start[group(visit)];
            let span = lo.to_usize()..hi.to_usize();
            let to = *first..*first + span.len();
            visits[*at] = (r, I::from_usize(to.start), I::from_usize(to.end));
            inv_diag[*at] = inv;
            let dst = cols[to.clone()].iter_mut().zip(&mut values[to.clone()]);
            for ((c, v), e) in dst.zip(span) {
                *c = ci[e];
                *v = vals[e];
            }
            *at += 1;
            *first = to.end;
        }
        Ok(Trs {
            matrix,
            half,
            visits,
            inv_diag,
            cols,
            vals: values,
            levels,
            unit_diagonal: false,
            singular,
        })
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
        let nnz = self.matrix.nnz() as f64;
        let rows = self.matrix.size().rows as f64;
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
        check_apply_dims::<V>(self.matrix.size(), b.unwrap_or(x), x)?;
        let exec = self.matrix.executor();
        let _timer = OpTimer::new(
            exec,
            match self.half {
                Half::Lower => "solver::LowerTrs",
                Half::Upper => "solver::UpperTrs",
            },
        );
        if exec.sanitizer().is_enabled() {
            let rows = self.matrix.size().rows;
            if let Err(v) = verify_level_order(rows, &self.cols, &self.visits) {
                report_level_order_violation(&v);
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
        let rows = self.visits.iter().zip(&self.inv_diag);
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
            for &(r, lo, hi) in &self.visits {
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
pub struct LowerTrs<V: Value, I: Index = i32> {
    inner: Trs<V, I>,
}

impl<V: Value, I: Index> LowerTrs<V, I> {
    /// Generates a solver reading the lower triangle (including diagonal) of
    /// `matrix`.
    pub fn new(matrix: Arc<Csr<V, I>>) -> Result<Self> {
        Ok(LowerTrs {
            inner: Trs::new(matrix, Half::Lower)?,
        })
    }

    /// Treats the diagonal as implicit ones (for ILU's L factor).
    pub fn with_unit_diagonal(self) -> Self {
        LowerTrs {
            inner: self.inner.with_unit_diagonal(),
        }
    }

    /// Levels of the generated visit order (module docs): as many as rows on
    /// a chain, the longest path of dependencies plus one in general.
    pub fn levels(&self) -> usize {
        self.inner.levels
    }
}

impl<V: Value, I: Index> LinOp<V> for LowerTrs<V, I> {
    fn size(&self) -> Dim2 {
        self.inner.matrix.size()
    }
    fn executor(&self) -> &Executor {
        self.inner.matrix.executor()
    }
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.inner.solve(Some(b), x)
    }
    fn op_name(&self) -> &'static str {
        "solver::LowerTrs"
    }
}

/// Solves `U x = b` for upper-triangular `U`.
pub struct UpperTrs<V: Value, I: Index = i32> {
    inner: Trs<V, I>,
}

impl<V: Value, I: Index> UpperTrs<V, I> {
    /// Generates a solver reading the upper triangle (including diagonal) of
    /// `matrix`.
    pub fn new(matrix: Arc<Csr<V, I>>) -> Result<Self> {
        Ok(UpperTrs {
            inner: Trs::new(matrix, Half::Upper)?,
        })
    }

    /// Treats the diagonal as implicit ones.
    pub fn with_unit_diagonal(self) -> Self {
        UpperTrs {
            inner: self.inner.with_unit_diagonal(),
        }
    }

    /// Levels of the generated visit order (module docs).
    pub fn levels(&self) -> usize {
        self.inner.levels
    }

    /// Solves `U x = x` in place: the second sweep of `Ilu` and `Ic`, whose
    /// first sweep left its result in `x`.
    pub(crate) fn apply_in_place(&self, x: &mut Dense<V>) -> Result<()> {
        self.inner.solve(None, x)
    }
}

impl<V: Value, I: Index> LinOp<V> for UpperTrs<V, I> {
    fn size(&self) -> Dim2 {
        self.inner.matrix.size()
    }
    fn executor(&self) -> &Executor {
        self.inner.matrix.executor()
    }
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.inner.solve(Some(b), x)
    }
    fn op_name(&self) -> &'static str {
        "solver::UpperTrs"
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
        assert_eq!(
            solver.apply(&b, &mut x),
            Err(GkoError::Singular { at: 1 })
        );
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
            assert_eq!(trs.levels, n, "{half:?}");
            assert_eq!(verify_level_order(n, &trs.cols, &trs.visits), Ok(()));
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
        trs.visits.swap(3, 4);
        let b = Dense::<f64>::vector(&exec, 12, 1.0);
        let _ = trs.solve(Some(&b), &mut Dense::zeros(&exec, Dim2::new(12, 1)));
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
