//! The seeded byte mutations of the Matrix Market reader's fuzz loop, shared
//! by `tests/mutation.rs` and the reader's lane tests in `src/lib.rs`.

use pygko_sim::rng::Xoshiro256pp;

/// Valid documents the mutations start from: every layout, field and
/// symmetry the reader accepts.
pub const SEEDS: [&str; 6] = [
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

/// Case `case`: one of [`SEEDS`] with one to three random edits, a function
/// of `case` alone.
pub fn mutate(case: u64) -> Vec<u8> {
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
