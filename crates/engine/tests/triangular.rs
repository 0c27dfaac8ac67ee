//! Differential test of the generated triangular solves: `LowerTrs` and
//! `UpperTrs` against a naive dense substitution in division form
//! (`x[r] = (b[r] - sum) / d`, products accumulated in `f64` in column order),
//! for every value x index type, one and several right-hand sides, stored and
//! unit diagonals, and the inputs generation has to get right: an exact
//! factor, a full matrix whose other half must be ignored, rows whose strict
//! span is empty, 1 x 1 and 0 x 0.
//!
//! The bounds, per value type. A unit-diagonal sweep has no scale step, so it
//! equals the naive solve bit for bit in every type. A scaled sweep multiplies
//! by the stored reciprocal where the naive form divides: given the same
//! already-solved unknowns, row `r` computes `fl(acc * fl(1 / d))` against
//! `fl(acc / d)`, which differ by at most `3u |x[r]|` in `f64` (`u = 2^-53`):
//! within [`scaled_eps_per_row`] `= 2` units of `f64::EPSILON * |x[r]|`. In
//! `f32` and `Half` both forms round an `f64` quotient that close to the
//! stored type, so they land on the same or on neighbouring values: 1 unit.
//! The check is per row, each row against the division form *of the solver's
//! own earlier unknowns*, so it needs no assumption on conditioning.
//!
//! Every sweep is also pinned bit for bit against a row-order reference in
//! the generated form, `(rhs - sum) * (1 / d)`: each half of a full matrix
//! and the ILU(0) / IC(0) factors of a stencil on a non-square grid, a
//! circuit with rails, a banded matrix and a tridiagonal chain, plus the
//! random shapes above; unit and scaled, one and three columns, out of place
//! and in place through `Ilu` / `Ic`, in every type, on the reference
//! executor and on `omp(7)`. However a sweep orders its rows, each row has to
//! compute exactly this.
//!
//! Also pinned here: `Ilu::apply` / `Ic::apply` (second sweep in place) equal
//! "lower, then upper through a temporary" bit for bit; which row a singular
//! diagonal is reported at; and that a row with unsorted columns is refused
//! at construction rather than solved wrongly.

use gko::factorization::{ic0, ilu0};
use gko::linop::LinOp;
use gko::matrix::{Csr, Dense};
use gko::preconditioner::{Ic, Ilu};
use gko::solver::{LowerTrs, UpperTrs};
use gko::{Dim2, Executor, GkoError, Index, TripletValue, Value};
use pygko_half::Half;
use pygko_sim::rng::Xoshiro256pp;
use std::sync::Arc;

const SEED: u64 = 0x7215_0150_1DE5_0001;

/// Allowed distance of a scaled row from the division form, in units of
/// `V::eps() * |x[r]|` (module docs).
fn scaled_eps_per_row<V: Value>() -> f64 {
    if V::BYTES == 8 {
        2.0
    } else {
        1.0
    }
}

type Triplets = Vec<(usize, usize, f64)>;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Side {
    Lower,
    Upper,
}

impl Side {
    fn holds(self, r: usize, c: usize) -> bool {
        match self {
            Side::Lower => c < r,
            Side::Upper => c > r,
        }
    }
}

fn signed(rng: &mut Xoshiro256pp, lo: f64, hi: f64) -> f64 {
    let v = rng.range_f64(lo, hi);
    if rng.below(2) == 0 {
        v
    } else {
        -v
    }
}

/// A random sparse `n x n` system for `side`: about a third of the strict
/// half filled with entries of magnitude below 1/4, a diagonal of magnitude
/// 2..4 when `diagonal`, every `hollow`-th row with no strict entry at all,
/// and, when `full`, the other half filled with large entries that a correct
/// solve never reads.
fn system(
    rng: &mut Xoshiro256pp,
    n: usize,
    side: Side,
    diagonal: bool,
    full: bool,
    hollow: usize,
) -> Triplets {
    let mut t = Triplets::new();
    for r in 0..n {
        for c in 0..n {
            if r == c {
                if diagonal {
                    t.push((r, c, signed(rng, 2.0, 4.0)));
                }
            } else if side.holds(r, c) {
                if (r + 1) % hollow != 0 && rng.below(3) == 0 {
                    t.push((r, c, signed(rng, 0.01, 0.25)));
                }
            } else if full && rng.below(2) == 0 {
                t.push((r, c, signed(rng, 50.0, 90.0)));
            }
        }
    }
    t
}

/// The stored entries of `a` as a dense table; `None` where nothing is
/// stored.
fn table<V: Value, I: Index>(a: &Csr<V, I>) -> Vec<Vec<Option<f64>>> {
    let n = a.size().rows;
    let mut dense = vec![vec![None; n]; n];
    for (r, row) in dense.iter_mut().enumerate() {
        for at in a.row_ptrs()[r].to_usize()..a.row_ptrs()[r + 1].to_usize() {
            row[a.col_idxs()[at].to_usize()] = Some(a.values()[at].to_f64());
        }
    }
    dense
}

/// Row `r`, column `c` of the naive substitution in division form, reading
/// the other unknowns from `x` (row-major, `k` columns).
fn naive_row<V: Value>(
    a: &[Vec<Option<f64>>],
    side: Side,
    unit: bool,
    b: &[V],
    x: &[V],
    k: usize,
    (r, c): (usize, usize),
) -> V {
    let mut acc = b[r * k + c].to_f64();
    for (j, entry) in a[r].iter().enumerate() {
        if let (true, Some(v)) = (side.holds(r, j), entry) {
            acc -= v * x[j * k + c].to_f64();
        }
    }
    V::from_f64(if unit {
        acc
    } else {
        acc / a[r][r].expect("stored diagonal")
    })
}

/// The whole naive substitution.
fn naive_solve<V: Value>(
    a: &[Vec<Option<f64>>],
    side: Side,
    unit: bool,
    b: &[V],
    k: usize,
) -> Vec<V> {
    let n = a.len();
    let mut x = vec![V::zero(); n * k];
    for step in 0..n {
        let r = if side == Side::Lower {
            step
        } else {
            n - 1 - step
        };
        for c in 0..k {
            x[r * k + c] = naive_row(a, side, unit, b, &x, k, (r, c));
        }
    }
    x
}

fn bits<V: Value>(x: &[V]) -> Vec<u64> {
    x.iter().map(|v| v.to_f64().to_bits()).collect()
}

fn random_dense<V: Value>(
    exec: &Executor,
    rng: &mut Xoshiro256pp,
    rows: usize,
    cols: usize,
) -> Dense<V> {
    let values = (0..rows * cols)
        .map(|_| V::from_f64(signed(rng, 0.25, 1.0)))
        .collect();
    Dense::from_vec(exec, Dim2::new(rows, cols), values).unwrap()
}

fn solver<V: Value, I: Index>(a: Arc<Csr<V, I>>, side: Side, unit: bool) -> Box<dyn LinOp<V>> {
    match (side, unit) {
        (Side::Lower, false) => Box::new(LowerTrs::new(a).unwrap()),
        (Side::Lower, true) => Box::new(LowerTrs::new(a).unwrap().with_unit_diagonal()),
        (Side::Upper, false) => Box::new(UpperTrs::new(a).unwrap()),
        (Side::Upper, true) => Box::new(UpperTrs::new(a).unwrap().with_unit_diagonal()),
    }
}

/// The random shapes: (name, n, other half filled, stored diagonal, every how
/// many rows hollow).
const SHAPES: [(&str, usize, bool, bool, usize); 6] = [
    ("exact factor", 37, false, true, usize::MAX),
    (
        "strict factor, no diagonal stored",
        29,
        false,
        false,
        usize::MAX,
    ),
    ("full square matrix", 33, true, true, usize::MAX),
    ("rows with an empty strict span", 31, true, true, 3),
    ("1 x 1", 1, false, true, usize::MAX),
    ("0 x 0", 0, false, true, usize::MAX),
];

/// Every input shape x side x diagonal kind x right-hand-side count, for one
/// value and index type.
fn differential<V: Value, I: Index>()
where
    f64: TripletValue<V>,
{
    let exec = Executor::reference();
    let mut rng = Xoshiro256pp::seed_from_u64(SEED);
    for (name, n, full, diagonal, hollow) in SHAPES {
        for side in [Side::Lower, Side::Upper] {
            let t = system(&mut rng, n, side, diagonal, full, hollow);
            let a = Arc::new(Csr::<V, I>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
            let dense = table(&*a);
            for unit in [false, true] {
                if !unit && !diagonal {
                    continue;
                }
                let op = solver(a.clone(), side, unit);
                for k in [1usize, 3] {
                    let what = format!(
                        "{name}, {side:?}, unit = {unit}, k = {k}, {}/{}",
                        V::NAME,
                        I::NAME
                    );
                    let b = random_dense::<V>(&exec, &mut rng, n, k);
                    // Stale content the solve must overwrite, never read.
                    let mut x = Dense::filled(&exec, Dim2::new(n, k), V::from_f64(1.0e3));
                    op.apply(&b, &mut x).unwrap();
                    let got = x.as_slice();
                    if unit {
                        let want = naive_solve(&dense, side, true, b.as_slice(), k);
                        assert_eq!(bits(got), bits(&want), "{what}");
                        continue;
                    }
                    for r in 0..n {
                        for c in 0..k {
                            let g = got[r * k + c].to_f64();
                            let w = naive_row(&dense, side, false, b.as_slice(), got, k, (r, c))
                                .to_f64();
                            let bound = scaled_eps_per_row::<V>() * V::eps() * w.abs();
                            assert!(
                                (g - w).abs() <= bound,
                                "{what}: row {r}, column {c}: {g:e} vs division form {w:e}, \
                                 off by {:e} > {bound:e}",
                                (g - w).abs()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn generated_solves_match_naive_substitution() {
    differential::<Half, i32>();
    differential::<Half, i64>();
    differential::<f32, i32>();
    differential::<f32, i64>();
    differential::<f64, i32>();
    differential::<f64, i64>();
}

/// The scaled sweeps are not merely row-consistent: they solve the system.
#[test]
fn scaled_sweeps_agree_with_the_whole_naive_solve() {
    let exec = Executor::reference();
    let mut rng = Xoshiro256pp::seed_from_u64(SEED + 1);
    for side in [Side::Lower, Side::Upper] {
        let n = 40;
        let t = system(&mut rng, n, side, true, true, usize::MAX);
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let b = random_dense::<f64>(&exec, &mut rng, n, 1);
        let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
        solver(a.clone(), side, false).apply(&b, &mut x).unwrap();
        let want = naive_solve(&table(&*a), side, false, b.as_slice(), 1);
        for (got, want) in x.as_slice().iter().zip(&want) {
            assert!(
                (got - want).abs() <= 1e-13 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
    }
}

/// A symmetric, strictly diagonally dominant sparse matrix with a positive
/// diagonal: ILU(0) and IC(0) both exist.
fn spd(rng: &mut Xoshiro256pp, n: usize) -> Triplets {
    let mut t = Triplets::new();
    let mut row_sum = vec![0.0; n];
    for r in 0..n {
        for c in 0..r {
            if rng.below(4) == 0 {
                let v = signed(rng, 0.05, 0.5);
                t.push((r, c, v));
                t.push((c, r, v));
                row_sum[r] += v.abs();
                row_sum[c] += v.abs();
            }
        }
    }
    for (r, sum) in row_sum.iter().enumerate() {
        t.push((r, r, 1.0 + sum + rng.next_f64()));
    }
    t
}

/// `Ilu::apply` and `Ic::apply` run their second sweep in place on `x`; the
/// result must be what two sweeps through a temporary give.
fn preconditioners_match_two_sweeps<V: Value, I: Index>()
where
    f64: TripletValue<V>,
{
    let exec = Executor::reference();
    let mut rng = Xoshiro256pp::seed_from_u64(SEED + 2);
    let n = 45;
    let a = Csr::<V, I>::from_triplets(&exec, Dim2::square(n), &spd(&mut rng, n)).unwrap();

    let (l, u) = ilu0(&a).unwrap();
    let ilu_sweeps: (Box<dyn LinOp<V>>, Box<dyn LinOp<V>>) = (
        Box::new(LowerTrs::new(Arc::new(l)).unwrap().with_unit_diagonal()),
        Box::new(UpperTrs::new(Arc::new(u)).unwrap()),
    );
    let l = ic0(&a).unwrap();
    let lt = l.transpose();
    let ic_sweeps: (Box<dyn LinOp<V>>, Box<dyn LinOp<V>>) = (
        Box::new(LowerTrs::new(Arc::new(l)).unwrap()),
        Box::new(UpperTrs::new(Arc::new(lt)).unwrap()),
    );
    let cases: [(&str, Box<dyn LinOp<V>>, _); 2] = [
        ("ilu", Box::new(Ilu::new(&a).unwrap()), ilu_sweeps),
        ("ic", Box::new(Ic::new(&a).unwrap()), ic_sweeps),
    ];
    for (name, preconditioner, (lower, upper)) in cases {
        for k in [1usize, 3] {
            let b = random_dense::<V>(&exec, &mut rng, n, k);
            let mut y = Dense::zeros(&exec, Dim2::new(n, k));
            let mut want = Dense::zeros(&exec, Dim2::new(n, k));
            lower.apply(&b, &mut y).unwrap();
            upper.apply(&y, &mut want).unwrap();
            let mut got = Dense::filled(&exec, Dim2::new(n, k), V::from_f64(1.0e3));
            preconditioner.apply(&b, &mut got).unwrap();
            assert_eq!(
                bits(got.as_slice()),
                bits(want.as_slice()),
                "{name}, k = {k}, {}/{}",
                V::NAME,
                I::NAME
            );
        }
    }
}

#[test]
fn ilu_and_ic_apply_equal_lower_then_upper_through_a_temporary() {
    preconditioners_match_two_sweeps::<Half, i32>();
    preconditioners_match_two_sweeps::<f32, i64>();
    preconditioners_match_two_sweeps::<f64, i32>();
    preconditioners_match_two_sweeps::<f64, i64>();
}

/// One sweep in the generated form, in row order: `x[r] = (rhs[r] - sum) *
/// (1 / d)`, the sum over the row's entries inside `side`'s strict half,
/// accumulated in `f64` in stored column order from the right-hand side;
/// under `unit`, no scale at all.
fn generated_sweep<V: Value, I: Index>(
    a: &Csr<V, I>,
    side: Side,
    unit: bool,
    rhs: &[V],
    k: usize,
) -> Vec<V> {
    let n = a.size().rows;
    let (rp, ci, vals) = (a.row_ptrs(), a.col_idxs(), a.values());
    let mut x = vec![V::zero(); n * k];
    for step in 0..n {
        let r = if side == Side::Lower {
            step
        } else {
            n - 1 - step
        };
        let row = rp[r].to_usize()..rp[r + 1].to_usize();
        let d = row
            .clone()
            .find(|&e| ci[e].to_usize() == r)
            .map_or(0.0, |e| vals[e].to_f64());
        let inv = 1.0 / d;
        for c in 0..k {
            let mut acc = rhs[r * k + c].to_f64();
            for e in row.clone() {
                let j = ci[e].to_usize();
                if side.holds(r, j) {
                    acc -= vals[e].to_f64() * x[j * k + c].to_f64();
                }
            }
            x[r * k + c] = V::from_f64(if unit { acc } else { acc * inv });
        }
    }
    x
}

/// `side`'s solver of `factor`, one and three right-hand sides into a stale
/// `x`, against [`generated_sweep`] bit for bit.
fn pin_sweep<V: Value, I: Index>(
    what: &str,
    factor: &Arc<Csr<V, I>>,
    side: Side,
    unit: bool,
    rng: &mut Xoshiro256pp,
) {
    let exec = factor.executor();
    let n = factor.size().rows;
    let op = solver(factor.clone(), side, unit);
    for k in [1usize, 3] {
        let b = random_dense::<V>(exec, rng, n, k);
        let mut x = Dense::filled(exec, Dim2::new(n, k), V::from_f64(1.0e3));
        op.apply(&b, &mut x).unwrap();
        let want = generated_sweep(factor, side, unit, b.as_slice(), k);
        assert_eq!(
            bits(x.as_slice()),
            bits(&want),
            "{what}, {side:?}, unit = {unit}, k = {k}"
        );
    }
}

/// Every sweep of `a` itself (each half of the full matrix), of its ILU(0)
/// and of its IC(0) factors, and `Ilu::apply` / `Ic::apply` (the second
/// sweep in place), against the generated form in row order.
fn pin_matrix<V: Value, I: Index>(what: &str, a: &Arc<Csr<V, I>>, rng: &mut Xoshiro256pp) {
    let exec = a.executor();
    let n = a.size().rows;
    let (l, u) = ilu0(&**a).unwrap();
    let (l, u) = (Arc::new(l), Arc::new(u));
    let c = Arc::new(ic0(&**a).unwrap());
    let ct = Arc::new(c.transpose());
    for unit in [false, true] {
        for side in [Side::Lower, Side::Upper] {
            pin_sweep(&format!("{what}, the matrix"), a, side, unit, rng);
        }
        pin_sweep(&format!("{what}, IC(0) L"), &c, Side::Lower, unit, rng);
        pin_sweep(&format!("{what}, IC(0) L^T"), &ct, Side::Upper, unit, rng);
        pin_sweep(&format!("{what}, ILU(0) U"), &u, Side::Upper, unit, rng);
    }
    // ILU(0)'s `L` stores no diagonal: it is only ever unit.
    pin_sweep(&format!("{what}, ILU(0) L"), &l, Side::Lower, true, rng);
    let ilu: Box<dyn LinOp<V>> = Box::new(Ilu::new(&**a).unwrap());
    let ic: Box<dyn LinOp<V>> = Box::new(Ic::new(&**a).unwrap());
    let cases = [("Ilu", ilu, (&l, true), &u), ("Ic", ic, (&c, false), &ct)];
    for (name, preconditioner, (lower, unit_lower), upper) in cases {
        for k in [1usize, 3] {
            let b = random_dense::<V>(exec, rng, n, k);
            let y = generated_sweep(lower, Side::Lower, unit_lower, b.as_slice(), k);
            let want = generated_sweep(upper, Side::Upper, false, &y, k);
            let mut x = Dense::filled(exec, Dim2::new(n, k), V::from_f64(1.0e3));
            preconditioner.apply(&b, &mut x).unwrap();
            assert_eq!(
                bits(x.as_slice()),
                bits(&want),
                "{what}, {name}::apply, k = {k}"
            );
        }
    }
}

/// The pinned matrices: a stencil on a non-square grid (ragged levels), a
/// circuit with rails, a banded matrix, and a tridiagonal chain.
fn pinned_matrices() -> [pygko_matgen::GeneratedMatrix; 4] {
    use pygko_matgen::generators::{banded, circuit, convection_diffusion, poisson2d};
    [
        poisson2d("poisson2d_37x23", 37, 23),
        circuit("circuit_3000", 3000, 6, 4, SEED),
        banded("banded_1200", 1200, 8, 0.6, SEED),
        convection_diffusion("convdiff_600", 600, 0.3),
    ]
}

/// Every sweep, for one value and index type, on both executors.
fn sweeps_match_the_generated_form<V: Value, I: Index>()
where
    f64: TripletValue<V>,
{
    for (on, exec) in [
        ("reference", Executor::reference()),
        ("omp(7)", Executor::omp(7)),
    ] {
        let mut rng = Xoshiro256pp::seed_from_u64(SEED + 3);
        let types = format!("{}/{} on {on}", V::NAME, I::NAME);
        for gen in pinned_matrices() {
            let dim = Dim2::new(gen.rows, gen.cols);
            let a = Arc::new(Csr::<V, I>::from_triplets(&exec, dim, &gen.triplets).unwrap());
            pin_matrix(&format!("{}, {types}", gen.name), &a, &mut rng);
        }
        for (name, n, full, diagonal, hollow) in SHAPES {
            for side in [Side::Lower, Side::Upper] {
                let t = system(&mut rng, n, side, diagonal, full, hollow);
                let a = Arc::new(Csr::<V, I>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
                for unit in [false, true] {
                    if unit || diagonal {
                        pin_sweep(&format!("{name}, {types}"), &a, side, unit, &mut rng);
                    }
                }
            }
        }
    }
}

/// The pins above hold whatever order the sweeps visit rows in; this checks
/// that it is the level order. On a stencil rows of one level are
/// independent, so there are fewer levels than rows (an `nx x ny` grid's
/// ILU(0) factors have `nx + ny - 1`); on a chain every row waits for the
/// one before, so there are as many.
#[test]
fn sweeps_run_in_level_order() {
    let exec = Executor::reference();
    let [stencil, .., chain] = pinned_matrices();
    let (nx, ny) = (37, 23);
    let chain_rows = chain.rows;
    for (gen, levels) in [(stencil, nx + ny - 1), (chain, chain_rows)] {
        let dim = Dim2::new(gen.rows, gen.cols);
        let a = Csr::<f64, i32>::from_triplets(&exec, dim, &gen.triplets).unwrap();
        let (l, u) = ilu0(&a).unwrap();
        let lower = LowerTrs::new(Arc::new(l)).unwrap().with_unit_diagonal();
        let upper = UpperTrs::new(Arc::new(u)).unwrap();
        assert_eq!(
            (lower.levels(), upper.levels()),
            (levels, levels),
            "{}",
            gen.name
        );
    }
}

#[test]
fn every_sweep_equals_the_generated_form_in_row_order_bit_for_bit() {
    sweeps_match_the_generated_form::<Half, i32>();
    sweeps_match_the_generated_form::<Half, i64>();
    sweeps_match_the_generated_form::<f32, i32>();
    sweeps_match_the_generated_form::<f32, i64>();
    sweeps_match_the_generated_form::<f64, i32>();
    sweeps_match_the_generated_form::<f64, i64>();
}

/// Rows 2 and 5 of an 8 x 8 bidiagonal-plus-diagonal matrix have a stored
/// zero and no stored diagonal respectively. A sweep reports the first of
/// them it would reach: 2 going down, 5 going up, whichever of the two is the
/// explicit zero.
#[test]
fn singular_diagonals_are_reported_at_the_first_row_in_sweep_order() {
    let exec = Executor::reference();
    let n = 8;
    for (zero_at, missing_at) in [(2, 5), (5, 2)] {
        let (mut rp, mut ci, mut v) = (vec![0i32], vec![], vec![]);
        for r in 0..n {
            if r > 0 {
                ci.push(r as i32 - 1);
                v.push(0.5);
            }
            if r != missing_at {
                ci.push(r as i32);
                v.push(if r == zero_at { 0.0 } else { 2.0 });
            }
            if r + 1 < n {
                ci.push(r as i32 + 1);
                v.push(0.25);
            }
            rp.push(ci.len() as i32);
        }
        let a = Arc::new(Csr::<f64, i32>::from_raw(&exec, Dim2::square(n), rp, ci, v).unwrap());
        for k in [1usize, 3] {
            let b = Dense::filled(&exec, Dim2::new(n, k), 1.0);
            let mut x = Dense::zeros(&exec, Dim2::new(n, k));
            assert_eq!(
                LowerTrs::new(a.clone()).unwrap().apply(&b, &mut x),
                Err(GkoError::Singular { at: 2 })
            );
            assert_eq!(
                UpperTrs::new(a.clone()).unwrap().apply(&b, &mut x),
                Err(GkoError::Singular { at: 5 })
            );
            // An implied unit diagonal never looks at the stored one.
            let unit = LowerTrs::new(a.clone()).unwrap().with_unit_diagonal();
            assert_eq!(unit.apply(&b, &mut x), Ok(()));
        }
    }
}

/// Generation finds a row's strict span by walking in over the other half
/// from the row's end (lower) or start (upper), which is only right on a
/// sorted row. Such a row cannot come out of a checked constructor;
/// one built through `from_raw_unchecked` is refused with a typed error at
/// construction instead of being solved wrongly (or, with a column out of
/// range, panicking in the sweep).
#[test]
fn corrupt_structure_is_refused_at_construction() {
    let exec = Executor::reference();
    let corrupt = [
        ("unsorted row", vec![0, 1, 4, 6], vec![0, 2, 0, 1, 1, 2]),
        ("duplicate column", vec![0, 1, 3, 6], vec![0, 1, 1, 0, 1, 2]),
        (
            "column out of range",
            vec![0, 1, 3, 6],
            vec![0, 0, 1, 0, 2, 7],
        ),
    ];
    for (name, rp, ci) in corrupt {
        let values = vec![2.0f64; ci.len()];
        let a = Arc::new(Csr::<f64, i32>::from_raw_unchecked(
            &exec,
            Dim2::square(3),
            rp,
            ci,
            values,
        ));
        assert!(
            matches!(LowerTrs::new(a.clone()), Err(GkoError::BadInput(_))),
            "{name}: lower"
        );
        assert!(
            matches!(UpperTrs::new(a), Err(GkoError::BadInput(_))),
            "{name}: upper"
        );
    }
}
