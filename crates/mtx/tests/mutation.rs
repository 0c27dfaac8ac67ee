//! Fixed-seed byte-mutation loop over the Matrix Market reader: whatever the
//! bytes, `read_mtx` returns, never panics, and a document it accepts comes
//! back as in-bounds, sorted entries that keep what the header promised.
//!
//! Case `k` depends only on `k`, so a failure names a case that any machine
//! reproduces. The loop always runs `MIN_CASES` and then keeps going while it
//! is inside `BUDGET` (up to `MAX_CASES`), which keeps it well under two
//! seconds of `cargo test` on a slow host and lets a fast one cover more.

mod common;

use common::{mutate, SEEDS};
use pygko_mtx::{read_mtx, MtxData, MtxFormat, MtxSymmetry};
use std::time::{Duration, Instant};

const MIN_CASES: u64 = 20_000;
const MAX_CASES: u64 = 200_000;
const BUDGET: Duration = Duration::from_millis(1_000);

/// What an accepted document must look like, whatever its bytes were.
fn check(m: &MtxData) -> Result<(), String> {
    for pair in m.entries.windows(2) {
        if (pair[0].0, pair[0].1) > (pair[1].0, pair[1].1) {
            return Err(format!(
                "entries out of order: {:?} before {:?}",
                pair[0], pair[1]
            ));
        }
    }
    let has = |r: usize, c: usize, v: f64| {
        m.entries
            .iter()
            .any(|&(er, ec, ev)| (er, ec) == (r, c) && ev.to_bits() == v.to_bits())
    };
    for &(r, c, v) in &m.entries {
        if r >= m.rows || c >= m.cols {
            return Err(format!("entry ({r}, {c}) outside {}x{}", m.rows, m.cols));
        }
        if m.declared_format == MtxFormat::Array && v == 0.0 {
            return Err(format!(
                "array document kept an explicit zero at ({r}, {c})"
            ));
        }
        match m.declared_symmetry {
            MtxSymmetry::General => {}
            MtxSymmetry::Symmetric if has(c, r, v) => {}
            MtxSymmetry::SkewSymmetric if r != c && has(c, r, -v) => {}
            _ => return Err(format!("entry ({r}, {c}, {v:?}) has no mirror image")),
        }
    }
    if m.declared_symmetry != MtxSymmetry::General && m.rows != m.cols {
        return Err(format!("symmetric but {}x{}", m.rows, m.cols));
    }
    Ok(())
}

#[test]
fn mutated_documents_never_panic_and_accepted_ones_are_well_formed() {
    for seed in SEEDS {
        check(&read_mtx(seed.as_bytes()).expect("seed documents are valid")).unwrap();
    }
    let start = Instant::now();
    let (mut cases, mut accepted) = (0u64, 0u64);
    while cases < MIN_CASES || (cases < MAX_CASES && start.elapsed() < BUDGET) {
        let doc = mutate(cases);
        let outcome = std::panic::catch_unwind(|| read_mtx(doc.as_slice()));
        let shown = || String::from_utf8_lossy(&doc).into_owned();
        match outcome {
            Err(_) => panic!("case {cases}: reader panicked on {:?}", shown()),
            Ok(Ok(m)) => {
                accepted += 1;
                if let Err(why) = check(&m) {
                    panic!("case {cases}: {why} in {:?}", shown());
                }
            }
            Ok(Err(_)) => {}
        }
        cases += 1;
    }
    // The loop must exercise both outcomes, not reject everything.
    assert!(accepted > cases / 50, "{accepted} of {cases} accepted");
    assert!(accepted < cases, "every mutation accepted");
    println!("{cases} cases, {accepted} accepted, {:?}", start.elapsed());
}
