//! The fused BLAS-1 vocabulary of `matrix::dense` against the calls it
//! replaces.
//!
//! Every fused operation must be **bit-identical** to its unfused sequence:
//! the vectors it updates equal `copy_from` / `add_scaled` applied in order,
//! and the reduction it returns equals `compute_dot` on the result — on the
//! reference executor and on `omp(7)`, whose chunk boundaries fall inside
//! blocks of eight. That is what lets a recurrence swap one for the other
//! without its trajectory moving. Across executors a reduction may differ by
//! the few ulps `parity.rs` allows any reassociated sum, and on one executor
//! it may not differ at all from call to call.

use gko::matrix::Dense;
use gko::{Dim2, Executor};

/// Thread counts and ulp bound of `parity.rs`.
const THREADS: [usize; 4] = [1, 2, 7, 16];
const TOL_ULPS: u64 = 4;

/// Lengths: empty, shorter than a block, shorter than `omp(7)`'s 14 chunks,
/// a prime, and one past a multiple of every chunk count in play.
const SIZES: [usize; 6] = [0, 5, 13, 100, 1023, 8 * 7 * 16 * 3 + 1];

fn ulps(a: f64, b: f64) -> u64 {
    let ordered = |x: f64| {
        let b = x.to_bits() as i64;
        if b < 0 {
            i64::MIN - b
        } else {
            b
        }
    };
    ordered(a).wrapping_sub(ordered(b)).unsigned_abs()
}

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

const CASES: [Case; 5] = [
    Case {
        name: "add_scaled_with_residual",
        fused: |[mut x, mut r, p, q]| {
            let rr = x.add_scaled_with_residual(ALPHA, &p, &mut r, BETA, &q).unwrap();
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
            (vec![bits(&s)], vec![ss.to_bits(), s.compute_norm2().to_bits()])
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
];

#[test]
fn fused_operations_equal_their_unfused_sequences_bit_for_bit() {
    for (exec_name, exec) in [("reference", Executor::reference()), ("omp7", Executor::omp(7))] {
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
    let reference = Executor::reference();
    let omps = THREADS.map(|threads| (threads, Executor::omp(threads)));
    for n in SIZES {
        for case in &CASES {
            let (want_vectors, want_sums) = (case.fused)(vectors(&reference, n));
            for (threads, omp) in &omps {
                let (got_vectors, got_sums) = (case.fused)(vectors(omp, n));
                let ctx = format!("{}/n{n}/omp{threads}", case.name);
                // Updates are elementwise: bitwise. Reductions combine
                // different chunk partials: the parity bound.
                assert_eq!(got_vectors, want_vectors, "{ctx}");
                for (got, want) in got_sums.iter().zip(&want_sums) {
                    let (got, want) = (f64::from_bits(*got), f64::from_bits(*want));
                    assert!(ulps(got, want) <= TOL_ULPS, "{ctx}: {got} vs {want}");
                }
            }
        }
    }
}

#[test]
fn reductions_repeat_bit_for_bit_under_any_schedule() {
    let exec = Executor::omp(7);
    let n = 20_011;
    let first: Vec<Outcome> = CASES.iter().map(|c| (c.fused)(vectors(&exec, n))).collect();
    let [a, b, ..] = vectors(&exec, n);
    let dot = a.compute_dot(&b).unwrap().to_bits();
    let norm = a.compute_norm2().to_bits();
    for round in 0..50 {
        for (case, want) in CASES.iter().zip(&first) {
            assert_eq!((case.fused)(vectors(&exec, n)), *want, "{} round {round}", case.name);
        }
        assert_eq!(a.compute_dot(&b).unwrap().to_bits(), dot, "dot round {round}");
        assert_eq!(a.compute_norm2().to_bits(), norm, "norm round {round}");
    }
}
