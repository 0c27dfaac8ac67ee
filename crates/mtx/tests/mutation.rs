//! Fixed-seed byte-mutation loop over the Matrix Market reader: whatever the
//! bytes, `read_mtx` returns, never panics, and a document it accepts comes
//! back as in-bounds, sorted entries that keep what the header promised.
//!
//! Case `k` depends only on `k`, so a failure names a case that any machine
//! reproduces. The loop always runs `MIN_CASES` and then keeps going while it
//! is inside `BUDGET` (up to `MAX_CASES`), which keeps it well under two
//! seconds of `cargo test` on a slow host and lets a fast one cover more.

use pygko_mtx::{read_mtx, MtxData, MtxFormat, MtxSymmetry};
use pygko_sim::rng::Xoshiro256pp;
use std::time::{Duration, Instant};

const MIN_CASES: u64 = 20_000;
const MAX_CASES: u64 = 200_000;
const BUDGET: Duration = Duration::from_millis(1_000);

const SEEDS: [&str; 6] = [
    "%%MatrixMarket matrix coordinate real general\n% comment\n4 5 6\n1 1 2.5\n2 2 -1.0e3\n3 1 7\n4 4 1e-3\n4 5 .5\n1 5 +3\n",
    "%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 4.0\n2 2 5.0\n3 3 6.0\n3 1 -1.0\n",
    "%%MatrixMarket matrix coordinate integer skew-symmetric\n4 4 3\n2 1 3\n3 2 -4\n4 1 12\n",
    "%%MatrixMarket matrix coordinate pattern general\n3 3 4\n1 2\n2 1\n3 3\n3 1\n",
    "%%MatrixMarket matrix array real general\n2 3\n1.0\n0.0\n3.0 4.0\n5\n6e0\n",
    "%%MatrixMarket matrix array real symmetric\n3 3\n1.0\n2.0\n3.0\n4 5 6\n",
];

/// Bytes an insertion or replacement draws from: what the grammar is made
/// of, plus bytes that are not UTF-8.
const ALPHABET: &[u8] = b"0123456789 \n\t\r.-+eE%snx\x0b\x0c\x00\xff\xc3\xa9";

fn mutate(case: u64) -> Vec<u8> {
    let mut rng = Xoshiro256pp::seed_from_u64(0x9E37_79B9_7F4A_7C15 ^ case);
    let mut doc = SEEDS[(case % SEEDS.len() as u64) as usize]
        .as_bytes()
        .to_vec();
    for _ in 0..1 + rng.below_usize(3) {
        if doc.is_empty() {
            break;
        }
        let at = rng.below_usize(doc.len());
        match rng.below_usize(5) {
            0 => doc[at] ^= 1 << rng.below_usize(8),
            1 => doc.insert(at, ALPHABET[rng.below_usize(ALPHABET.len())]),
            2 => {
                doc.remove(at);
            }
            3 => doc.truncate(at),
            _ => {
                let start = doc[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |p| p + 1);
                let end = doc[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(doc.len(), |p| at + p + 1);
                let line = doc[start..end].to_vec();
                doc.splice(start..start, line);
            }
        }
    }
    doc
}

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
