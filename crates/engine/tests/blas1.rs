//! The BLAS-1 vocabulary of `matrix::dense` against the calls it replaces
//! and against the reference executor.
//!
//! Every fused operation must be **bit-identical** to its unfused sequence:
//! the vectors it updates equal `copy_from` / `add_scaled` applied in order,
//! and the reduction it returns equals `compute_dot` on the result — on the
//! reference executor and on `omp(7)`, whose chunk boundaries fall inside
//! blocks of eight. That is what lets a recurrence swap one for the other
//! without its trajectory moving. The plain dot, norm and AXPY are rows of
//! the same table, against an equivalent call. Across executors an update
//! must be bit-identical too, while a reduction may differ by the
//! [`TOL_ULPS`] any reassociated sum may; on one executor it may not differ
//! at all from call to call.
//!
//! The elementwise product is pinned the same way against the element loop
//! `Jacobi::apply` ran before scalar Jacobi became an inverted `Diagonal`.

use gko::linop::LinOp;
use gko::matrix::{Csr, Dense, Diagonal};
use gko::preconditioner::Jacobi;
use gko::{Dim2, Executor, Value};
use pygko_half::Half;

mod common;

/// The ulps a reassociated reduction may move by across executors.
const TOL_ULPS: u64 = 4;

/// Lengths: empty, one, around a block of eight, shorter than `omp(7)`'s 14
/// chunks, a prime, powers of two and one past them, one past a multiple of
/// every chunk count in play (`8 * 7 * 16 * 3 + 1`), and one that streams
/// past L2.
const SIZES: [usize; 14] = [
    0, 1, 5, 7, 8, 9, 13, 64, 100, 257, 1_000, 1_023, 2_689, 13_824,
];

/// Four vectors of full mantissas and mixed signs, so that a changed
/// summation order or a fused multiply-add would show in the last bits.
fn vectors(exec: &Executor, n: usize) -> [Dense<f64>; 4] {
    [0.3, 1.1, 2.3, 3.7].map(|phase| {
        let values = (0..n)
            .map(|i| (i as f64 * 0.37 + phase).sin() * (1.0 + (i % 5) as f64))
            .collect();
        Dense::from_vec(exec, Dim2::new(n, 1), values).unwrap()
    })
}

fn bits(v: &Dense<f64>) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// One fused operation and the sequence it replaces, both run on copies of
/// the same vectors; each returns the vectors it wrote and its reductions.
type Outcome = (Vec<Vec<u64>>, Vec<u64>);

struct Case {
    name: &'static str,
    fused: fn([Dense<f64>; 4]) -> Outcome,
    unfused: fn([Dense<f64>; 4]) -> Outcome,
}

const ALPHA: f64 = 0.731_058_578_630_004_9;
const BETA: f64 = -1.324_717_957_244_746;

const CASES: [Case; 9] = [
    Case {
        name: "add_scaled_with_residual",
        fused: |[mut x, mut r, p, q]| {
            let rr = x
                .add_scaled_with_residual(ALPHA, &p, &mut r, BETA, &q)
                .unwrap();
            (vec![bits(&x), bits(&r)], vec![rr.to_bits()])
        },
        unfused: |[mut x, mut r, p, q]| {
            x.add_scaled(ALPHA, &p).unwrap();
            r.add_scaled(BETA, &q).unwrap();
            let rr = r.compute_dot(&r).unwrap();
            (vec![bits(&x), bits(&r)], vec![rr.to_bits()])
        },
    },
    Case {
        name: "assign_add_scaled",
        fused: |[mut s, r, v, _]| {
            let ss = s.assign_add_scaled(&r, BETA, &v).unwrap();
            (vec![bits(&s)], vec![ss.to_bits(), ss.sqrt().to_bits()])
        },
        unfused: |[mut s, r, v, _]| {
            s.copy_from(&r).unwrap();
            s.add_scaled(BETA, &v).unwrap();
            let ss = s.compute_dot(&s).unwrap();
            (
                vec![bits(&s)],
                vec![ss.to_bits(), s.compute_norm2().to_bits()],
            )
        },
    },
    Case {
        name: "add_scaled2",
        fused: |[mut x, p, q, _]| {
            x.add_scaled2(ALPHA, &p, BETA, &q).unwrap();
            (vec![bits(&x)], vec![])
        },
        unfused: |[mut x, p, q, _]| {
            x.add_scaled(ALPHA, &p).unwrap();
            x.add_scaled(BETA, &q).unwrap();
            (vec![bits(&x)], vec![])
        },
    },
    Case {
        name: "add_scaled_scale_add",
        fused: |[mut p, v, r, _]| {
            p.add_scaled_scale_add(ALPHA, &v, &r, BETA).unwrap();
            (vec![bits(&p)], vec![])
        },
        unfused: |[mut p, v, r, _]| {
            p.add_scaled(ALPHA, &v).unwrap();
            p.scale_add(1.0, &r, BETA).unwrap();
            (vec![bits(&p)], vec![])
        },
    },
    Case {
        name: "compute_dot2",
        fused: |[t, s, _, _]| {
            let (tt, ts) = t.compute_dot2(&s).unwrap();
            (vec![], vec![tt.to_bits(), ts.to_bits()])
        },
        unfused: |[t, s, _, _]| {
            let (tt, ts) = (t.compute_dot(&t).unwrap(), t.compute_dot(&s).unwrap());
            (vec![], vec![tt.to_bits(), ts.to_bits()])
        },
    },
    Case {
        name: "assign_scaled",
        fused: |[mut v, w, _, _]| {
            v.assign_scaled(ALPHA, &w).unwrap();
            (vec![bits(&v)], vec![])
        },
        unfused: |[_, w, _, _]| {
            let mut v = w.clone();
            v.scale(ALPHA);
            (vec![bits(&v)], vec![])
        },
    },
    Case {
        name: "compute_dot",
        fused: |[a, b, _, _]| (vec![], vec![a.compute_dot(&b).unwrap().to_bits()]),
        unfused: |[a, b, _, _]| (vec![], vec![b.compute_dot(&a).unwrap().to_bits()]),
    },
    Case {
        name: "compute_norm2",
        fused: |[a, _, _, _]| (vec![], vec![a.compute_norm2().to_bits()]),
        unfused: |[a, _, _, _]| (vec![], vec![a.compute_dot(&a).unwrap().sqrt().to_bits()]),
    },
    Case {
        name: "add_scaled",
        fused: |[mut x, p, _, _]| {
            x.add_scaled(ALPHA, &p).unwrap();
            (vec![bits(&x)], vec![])
        },
        unfused: |[mut x, p, _, _]| {
            x.scale_add(ALPHA, &p, 1.0).unwrap();
            (vec![bits(&x)], vec![])
        },
    },
];

/// The loop scalar `Jacobi::apply` was: row `i` of a block of `k` vectors
/// times entry `i` of the inverted diagonal.
fn element_loop<V: Value>(inv: &[V], b: &[V], k: usize) -> Vec<V> {
    let n = inv.len();
    let mut x = vec![V::zero(); n * k];
    for i in 0..n {
        for c in 0..k {
            x[i * k + c] = inv[i] * b[i * k + c];
        }
    }
    x
}

/// `Diagonal::apply` and scalar `Jacobi::apply` against [`element_loop`] on
/// one executor, for lengths around a block of eight and `k` = 1 (the
/// sweep) and 3 (the row loop).
fn check_products<V: Value>(exec_name: &str, exec: &Executor) {
    let wide = |v: &[V]| -> Vec<u64> { v.iter().map(|x| x.to_f64().to_bits()).collect() };
    for n in SIZES {
        for k in [1usize, 3] {
            let ctx = format!("{}/{exec_name}/n{n}/k{k}", V::NAME);
            let d: Vec<V> = (0..n)
                .map(|i| V::from_f64(1.3 + (i % 7) as f64 * 0.37))
                .collect();
            let b: Vec<V> = (0..n * k)
                .map(|i| V::from_f64((i as f64 * 0.37 + 0.3).sin() * (1.0 + (i % 5) as f64)))
                .collect();
            let b = Dense::from_vec(exec, Dim2::new(n, k), b).unwrap();
            let stale = || Dense::filled(exec, Dim2::new(n, k), V::from_f64(-7.0));

            let diagonal = Diagonal::new(exec, d.clone());
            let mut x = stale();
            diagonal.apply(&b, &mut x).unwrap();
            let want = element_loop(diagonal.values(), b.as_slice(), k);
            assert_eq!(wide(x.as_slice()), wide(&want), "diagonal/{ctx}");

            // The same diagonal inside a matrix with off-diagonal entries.
            let mut t: Vec<(usize, usize, V)> = Vec::new();
            for (i, &v) in d.iter().enumerate() {
                t.extend([(i, i, v), (i, (i + 3) % n, V::from_f64(-0.5))]);
            }
            let a = Csr::<V, i32>::from_triplets(exec, Dim2::square(n), &t).unwrap();
            let inverse = Diagonal::from_matrix(&a).inverse().unwrap();
            let (mut by_jacobi, mut by_inverse) = (stale(), stale());
            Jacobi::new(&a).unwrap().apply(&b, &mut by_jacobi).unwrap();
            inverse.apply(&b, &mut by_inverse).unwrap();
            let want = element_loop(inverse.values(), b.as_slice(), k);
            assert_eq!(wide(by_jacobi.as_slice()), wide(&want), "jacobi/{ctx}");
            assert_eq!(wide(by_inverse.as_slice()), wide(&want), "inverse/{ctx}");
        }
    }
}

#[test]
fn diagonal_and_jacobi_products_equal_the_element_loop_bit_for_bit() {
    for exec in common::executors() {
        let name = common::label(&exec);
        check_products::<Half>(&name, &exec);
        check_products::<f32>(&name, &exec);
        check_products::<f64>(&name, &exec);
    }
}

#[test]
fn fused_operations_equal_their_unfused_sequences_bit_for_bit() {
    for (exec_name, exec) in [
        ("reference", Executor::reference()),
        ("omp7", Executor::omp(7)),
    ] {
        for n in SIZES {
            for case in &CASES {
                assert_eq!(
                    (case.fused)(vectors(&exec, n)),
                    (case.unfused)(vectors(&exec, n)),
                    "{}/{exec_name}/n{n}",
                    case.name
                );
            }
        }
    }
}

#[test]
fn fused_operations_match_the_reference_executor() {
    let executors = common::executors();
    let (reference, omps) = executors.split_first().unwrap();
    for n in SIZES {
        for case in &CASES {
            let (want_vectors, want_sums) = (case.fused)(vectors(reference, n));
            for omp in omps {
                let (got_vectors, got_sums) = (case.fused)(vectors(omp, n));
                let ctx = format!("{}/n{n}/{}", case.name, common::label(omp));
                // Updates are elementwise: bitwise. Reductions combine
                // different chunk partials: the reassociation bound.
                assert_eq!(got_vectors, want_vectors, "{ctx}");
                for (got, want) in got_sums.iter().zip(&want_sums) {
                    let (got, want) = (f64::from_bits(*got), f64::from_bits(*want));
                    let off = common::ulps(got, want);
                    assert!(off <= TOL_ULPS, "{ctx}: {got} vs {want}");
                }
            }
        }
    }
}

#[test]
fn reductions_repeat_bit_for_bit_under_any_schedule() {
    let exec = Executor::omp(7);
    let inputs = vectors(&exec, 20_011);
    let first: Vec<Outcome> = CASES.iter().map(|c| (c.fused)(inputs.clone())).collect();
    for round in 0..50 {
        for (case, want) in CASES.iter().zip(&first) {
            let got = (case.fused)(inputs.clone());
            assert_eq!(got, *want, "{} round {round}", case.name);
        }
    }
}
