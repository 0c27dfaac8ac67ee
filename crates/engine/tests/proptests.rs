//! Engine-level randomized property tests: SpMV agreement between formats
//! and strategies, operator algebra, factorization residuals, and config
//! JSON round trips on random inputs, driven by the deterministic in-tree
//! harness (`pygko_sim::testing`). The SpMV properties run the SpMV oracle
//! (`common/spmv.rs`) on their random matrices.

use common::spmv::{check_formats, FORMATS};
use gko::config::Config;
use gko::linop::LinOp;
use gko::matrix::{Csr, Dense};
use gko::{Dim2, Executor};
use pygko_sim::rng::Xoshiro256pp;
use pygko_sim::testing::{check, sparse_triplets};
use std::collections::BTreeMap;

mod common;

/// Random square sparse matrix as (n, unique sorted triplets).
fn sparse(rng: &mut Xoshiro256pp) -> (usize, Vec<(usize, usize, f64)>) {
    sparse_triplets(rng, 2, 20, 50, 5.0)
}

/// Random JSON-able config tree (depth-limited, mirrors the old proptest
/// generator including quote/backslash/non-ASCII string content).
fn config_tree(rng: &mut Xoshiro256pp, depth: usize) -> Config {
    const CHARS: &[char] = &[
        'a', 'Z', '0', '9', ' ', '_', '-', '.', '"', '\\', '/', '\u{e9}', '\u{4e16}',
    ];
    let leaf = depth == 0 || rng.below(3) == 0;
    if leaf {
        match rng.below(5) {
            0 => Config::Null,
            1 => Config::Bool(rng.below(2) == 0),
            2 => Config::Int(rng.next_u64() as i64),
            3 => Config::Float(rng.range_f64(-1.0e12, 1.0e12)),
            _ => {
                let len = rng.below_usize(12);
                Config::Str(
                    (0..len)
                        .map(|_| CHARS[rng.below_usize(CHARS.len())])
                        .collect(),
                )
            }
        }
    } else if rng.below(2) == 0 {
        let len = rng.below_usize(4);
        Config::Array((0..len).map(|_| config_tree(rng, depth - 1)).collect())
    } else {
        let len = rng.below_usize(4);
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let key: String = (0..1 + rng.below_usize(6))
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            map.insert(key, config_tree(rng, depth - 1));
        }
        Config::Map(map)
    }
}

/// Every format and CSR strategy agrees with the summation-order reference
/// bit for bit, and with the exact product within the bounded tier.
#[test]
fn all_formats_agree() {
    let exec = Executor::reference();
    check("all_formats_agree", |rng| {
        let (n, t) = sparse(rng);
        check_formats::<f64, i32>(&exec, "all_formats_agree", Dim2::square(n), &t, &FORMATS);
    });
    common::print_coverage("proptests::all_formats_agree");
}

/// The CSR strategies agree bit for bit on `omp(4)`: the partition changes
/// scheduling, not the per-row summation order, so Classical and
/// LoadBalance both equal the row-kernel reference (and every other format
/// its own reference, on this executor's partitions).
#[test]
fn strategies_agree() {
    let exec = Executor::omp(4);
    check("strategies_agree", |rng| {
        let (n, t) = sparse(rng);
        check_formats::<f64, i32>(&exec, "strategies_agree", Dim2::square(n), &t, &FORMATS);
    });
    common::print_coverage("proptests::strategies_agree");
}

/// Transpose is an involution.
#[test]
fn transpose_involution() {
    check("transpose_involution", |rng| {
        let (n, t) = sparse(rng);
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
        let tt = a.transpose().transpose();
        assert_eq!(tt.row_ptrs(), a.row_ptrs());
        assert_eq!(tt.col_idxs(), a.col_idxs());
        assert_eq!(tt.values(), a.values());
    });
}

/// <A b, c> == <b, A^T c> (adjoint identity).
#[test]
fn adjoint_identity() {
    check("adjoint_identity", |rng| {
        let (n, t) = sparse(rng);
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
        let at = a.transpose();
        let bvec: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let cvec: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let b = Dense::from_vec(&exec, Dim2::new(n, 1), bvec).unwrap();
        let c = Dense::from_vec(&exec, Dim2::new(n, 1), cvec).unwrap();

        let mut ab = Dense::zeros(&exec, Dim2::new(n, 1));
        a.apply(&b, &mut ab).unwrap();
        let mut atc = Dense::zeros(&exec, Dim2::new(n, 1));
        at.apply(&c, &mut atc).unwrap();
        let lhs = ab.compute_dot(&c).unwrap();
        let rhs = b.compute_dot(&atc).unwrap();
        assert!(
            (lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    });
}

/// ILU(0) on a diagonally dominant matrix: (I+L)U matches A exactly on
/// A's sparsity pattern.
#[test]
fn ilu0_matches_on_pattern() {
    check("ilu0_matches_on_pattern", |rng| {
        let (n, mut t) = sparse(rng);
        // Make diagonally dominant with full diagonal.
        let mut row_abs = vec![0.0f64; n];
        t.retain(|&(r, c, _)| r != c);
        for &(r, _, v) in &t {
            row_abs[r] += v.abs();
        }
        for (i, ra) in row_abs.iter().enumerate() {
            t.push((i, i, ra + 1.0));
        }
        t.sort_by_key(|&(r, c, _)| (r, c));
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
        let (l, u) = gko::factorization::ilu0(&a).unwrap();
        let (ld, ud, ad) = (l.to_dense(), u.to_dense(), a.to_dense());
        // Product on the pattern of A.
        for &(r, c, _) in &t {
            let mut acc = ud.at(r, c);
            for k in 0..n {
                acc += ld.at(r, k) * ud.at(k, c);
            }
            assert!(
                (acc - ad.at(r, c)).abs() < 1e-8 * (1.0 + ad.at(r, c).abs()),
                "({r},{c}): {acc} vs {}",
                ad.at(r, c)
            );
        }
    });
}

/// Triangular solve inverts the triangular product.
#[test]
fn triangular_solve_inverts() {
    use gko::solver::LowerTrs;
    use std::sync::Arc;
    check("triangular_solve_inverts", |rng| {
        let (n, t) = sparse(rng);
        let fill = rng.range_f64(1.0, 5.0);
        // Build a lower triangular matrix with a safe diagonal.
        let mut lt: Vec<(usize, usize, f64)> =
            t.iter().copied().filter(|&(r, c, _)| c < r).collect();
        for i in 0..n {
            lt.push((i, i, fill));
        }
        let exec = Executor::reference();
        let l = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &lt).unwrap());
        let x_true = Dense::<f64>::vector(&exec, n, 0.75);
        let mut b = Dense::zeros(&exec, Dim2::new(n, 1));
        l.apply(&x_true, &mut b).unwrap();
        let solver = LowerTrs::new(l).unwrap();
        let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
        solver.apply(&b, &mut x).unwrap();
        for (got, want) in x.to_host_vec().iter().zip(x_true.to_host_vec()) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    });
}

/// JSON print/parse round trip is the identity on arbitrary trees.
#[test]
fn json_roundtrip() {
    check("json_roundtrip", |rng| {
        let cfg = config_tree(rng, 3);
        let text = cfg.to_json();
        let back = Config::from_json(&text).unwrap();
        assert_eq!(back, cfg);
    });
}

/// Dense GEMV distributes over vector addition.
#[test]
fn gemv_distributes() {
    check("gemv_distributes", |rng| {
        let (n, t) = sparse(rng);
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t)
            .unwrap()
            .to_dense();
        let b1 = Dense::<f64>::vector(&exec, n, 0.5);
        let b2 = Dense::<f64>::vector(&exec, n, -1.5);
        let mut sum = b1.clone();
        sum.add_scaled(1.0, &b2).unwrap();

        let mut lhs = Dense::zeros(&exec, Dim2::new(n, 1));
        a.apply(&sum, &mut lhs).unwrap();
        let mut rhs = Dense::zeros(&exec, Dim2::new(n, 1));
        a.apply(&b1, &mut rhs).unwrap();
        let mut ab2 = Dense::zeros(&exec, Dim2::new(n, 1));
        a.apply(&b2, &mut ab2).unwrap();
        rhs.add_scaled(1.0, &ab2).unwrap();
        for (l, r) in lhs.to_host_vec().iter().zip(rhs.to_host_vec()) {
            assert!((l - r).abs() < 1e-9 * (1.0 + r.abs()));
        }
    });
}
