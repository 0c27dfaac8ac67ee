//! Seeded generators for each structural matrix class.

use pygko_sim::rng::Xoshiro256pp;
use std::collections::BTreeSet;

/// A generated sparse matrix as sorted, deduplicated triplets.
#[derive(Clone, Debug)]
pub struct GeneratedMatrix {
    /// Human-readable name.
    pub name: String,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Entries sorted by (row, col), unique.
    pub triplets: Vec<(usize, usize, f64)>,
    /// Structurally and numerically symmetric.
    pub symmetric: bool,
    /// Symmetric positive definite (safe for CG/IC).
    pub spd: bool,
}

impl GeneratedMatrix {
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.triplets.len()
    }

    /// Fraction of nonzero entries.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    fn finish(mut self) -> Self {
        self.triplets.sort_by_key(|&(r, c, _)| (r, c));
        self.triplets.dedup_by_key(|&mut (r, c, _)| (r, c));
        self
    }
}

/// Diagonal mass matrix (the `bcsstm37`/`bcsstm39` class): positive diagonal
/// entries, with only `fill_fraction` of the rows populated.
pub(crate) fn diagonal_mass(
    name: &str,
    n: usize,
    fill_fraction: f64,
    seed: u64,
) -> GeneratedMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for i in 0..n {
        if rng.next_f64() < fill_fraction {
            triplets.push((i, i, rng.range_f64(0.1, 10.0)));
        }
    }
    GeneratedMatrix {
        name: name.to_owned(),
        rows: n,
        cols: n,
        triplets,
        symmetric: true,
        spd: false, // semi-definite: zero rows are possible
    }
    .finish()
}

/// 2-D Poisson equation, 5-point stencil on an `nx` by `ny` grid. SPD.
pub fn poisson2d(name: &str, nx: usize, ny: usize) -> GeneratedMatrix {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut triplets = Vec::with_capacity(5 * n);
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            triplets.push((r, r, 4.0));
            if i > 0 {
                triplets.push((r, idx(i - 1, j), -1.0));
            }
            if i + 1 < nx {
                triplets.push((r, idx(i + 1, j), -1.0));
            }
            if j > 0 {
                triplets.push((r, idx(i, j - 1), -1.0));
            }
            if j + 1 < ny {
                triplets.push((r, idx(i, j + 1), -1.0));
            }
        }
    }
    GeneratedMatrix {
        name: name.to_owned(),
        rows: n,
        cols: n,
        triplets,
        symmetric: true,
        spd: true,
    }
    .finish()
}

/// 3-D Poisson equation, 7-point stencil. SPD.
pub fn poisson3d(name: &str, nx: usize, ny: usize, nz: usize) -> GeneratedMatrix {
    let n = nx * ny * nz;
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    let mut triplets = Vec::with_capacity(7 * n);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let r = idx(i, j, k);
                triplets.push((r, r, 6.0));
                if i > 0 {
                    triplets.push((r, idx(i - 1, j, k), -1.0));
                }
                if i + 1 < nx {
                    triplets.push((r, idx(i + 1, j, k), -1.0));
                }
                if j > 0 {
                    triplets.push((r, idx(i, j - 1, k), -1.0));
                }
                if j + 1 < ny {
                    triplets.push((r, idx(i, j + 1, k), -1.0));
                }
                if k > 0 {
                    triplets.push((r, idx(i, j, k - 1), -1.0));
                }
                if k + 1 < nz {
                    triplets.push((r, idx(i, j, k + 1), -1.0));
                }
            }
        }
    }
    GeneratedMatrix {
        name: name.to_owned(),
        rows: n,
        cols: n,
        triplets,
        symmetric: true,
        spd: true,
    }
    .finish()
}

/// Circuit-simulation matrix (the `mult_dcop`/`ASIC` class): diagonally
/// dominant, unsymmetric pattern, mostly short rows plus `power_rails`
/// nearly-dense rows/columns (supply nets touch a large fraction of nodes).
pub fn circuit(
    name: &str,
    n: usize,
    avg_row_nnz: usize,
    power_rails: usize,
    seed: u64,
) -> GeneratedMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity(n * avg_row_nnz);
    for i in 0..n {
        // Stamp conductances to a few random neighbours (locality-biased,
        // like node numbering in real netlists).
        let extras = 1 + rng.below_usize(2 * avg_row_nnz.saturating_sub(1).max(1));
        let mut row_sum = 0.0f64;
        let mut cols = BTreeSet::new();
        for _ in 0..extras {
            let span = 1 + rng.below_usize(n.min(2048));
            let j = if rng.next_f64() < 0.5 {
                i.saturating_sub(span)
            } else {
                (i + span).min(n - 1)
            };
            if j != i {
                cols.insert(j);
            }
        }
        for j in cols {
            let g = rng.range_f64(0.01, 1.0);
            triplets.push((i, j, -g));
            row_sum += g;
        }
        triplets.push((i, i, row_sum + rng.range_f64(0.1, 1.0)));
    }
    // Power rails: a handful of rows and columns touching many nodes.
    for rail in 0..power_rails {
        let r = rng.below_usize(n);
        let touches = n / 50; // 2% of the nodes
        for _ in 0..touches {
            let j = rng.below_usize(n);
            if j != r {
                triplets.push((r, j, -rng.range_f64(0.001, 0.1)));
                triplets.push((r, r, 0.2)); // keep dominance; deduped later sums? no—dedup keeps first
            }
        }
        let _ = rail;
    }
    // Deduplicate by keeping the first occurrence; re-add a strong diagonal
    // afterwards so dominance survives deduplication.
    let mut m = GeneratedMatrix {
        name: name.to_owned(),
        rows: n,
        cols: n,
        triplets,
        symmetric: false,
        spd: false,
    }
    .finish();
    // Strengthen diagonals to restore strict dominance.
    let mut row_abs = vec![0.0f64; n];
    for &(r, c, v) in &m.triplets {
        if r != c {
            row_abs[r] += v.abs();
        }
    }
    for t in &mut m.triplets {
        if t.0 == t.1 {
            t.2 = row_abs[t.0] + 1.0;
        }
    }
    m
}

/// Delaunay-mesh-like graph Laplacian (the `delaunay_n17` class): a planar
/// triangulated grid with randomly flipped diagonals; ~6 nonzeros per row,
/// symmetric, positive definite after diagonal shift.
pub(crate) fn delaunay(name: &str, side: usize, seed: u64) -> GeneratedMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let n = side * side;
    let idx = |i: usize, j: usize| i * side + j;
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(3 * n);
    for i in 0..side {
        for j in 0..side {
            if i + 1 < side {
                edges.push((idx(i, j), idx(i + 1, j)));
            }
            if j + 1 < side {
                edges.push((idx(i, j), idx(i, j + 1)));
            }
            // One diagonal per grid cell, direction chosen randomly — the
            // hallmark of a Delaunay triangulation of jittered grid points.
            if i + 1 < side && j + 1 < side {
                if rng.next_f64() < 0.5 {
                    edges.push((idx(i, j), idx(i + 1, j + 1)));
                } else {
                    edges.push((idx(i, j + 1), idx(i + 1, j)));
                }
            }
        }
    }
    let mut degree = vec![0usize; n];
    let mut triplets = Vec::with_capacity(7 * n);
    for &(a, b) in &edges {
        degree[a] += 1;
        degree[b] += 1;
        triplets.push((a, b, -1.0));
        triplets.push((b, a, -1.0));
    }
    for (i, &d) in degree.iter().enumerate() {
        triplets.push((i, i, d as f64 + 0.5)); // shifted Laplacian: SPD
    }
    GeneratedMatrix {
        name: name.to_owned(),
        rows: n,
        cols: n,
        triplets,
        symmetric: true,
        spd: true,
    }
    .finish()
}

/// High-density unstructured matrix (the `av41092` class): ~`row_nnz`
/// nonzeros per row scattered widely, strongly unsymmetric. Density above
/// 0.1% — the paper notes SpMV speedups drop for this class.
pub(crate) fn dense_rows(name: &str, n: usize, row_nnz: usize, seed: u64) -> GeneratedMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity(n * (row_nnz + 1));
    for i in 0..n {
        let mut cols = BTreeSet::new();
        // Row lengths vary by 4x around the mean — irregular on purpose.
        let len = row_nnz / 2 + rng.below_usize(row_nnz);
        while cols.len() < len.min(n - 1) {
            cols.insert(rng.below_usize(n));
        }
        cols.remove(&i);
        let mut row_sum = 0.0;
        for j in cols {
            let v = rng.range_f64(-1.0, 1.0);
            row_sum += v.abs();
            triplets.push((i, j, v));
        }
        triplets.push((i, i, row_sum + 1.0));
    }
    GeneratedMatrix {
        name: name.to_owned(),
        rows: n,
        cols: n,
        triplets,
        symmetric: false,
        spd: false,
    }
    .finish()
}

/// RMAT power-law graph adjacency (social/web graph class), symmetrized,
/// with a shifted-Laplacian diagonal so solver benchmarks stay solvable.
pub fn rmat(name: &str, scale: u32, edge_factor: usize, seed: u64) -> GeneratedMatrix {
    let n = 1usize << scale;
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let (a, b, c) = (0.57, 0.19, 0.19);
    let mut edges = BTreeSet::new();
    for _ in 0..n * edge_factor {
        let (mut r, mut col) = (0usize, 0usize);
        for bit in (0..scale).rev() {
            let p = rng.next_f64();
            let (ri, ci) = if p < a {
                (0, 0)
            } else if p < a + b {
                (0, 1)
            } else if p < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            r |= ri << bit;
            col |= ci << bit;
        }
        if r != col {
            edges.insert((r.min(col), r.max(col)));
        }
    }
    let mut degree = vec![0usize; n];
    let mut triplets = Vec::with_capacity(edges.len() * 2 + n);
    for &(r, c) in &edges {
        degree[r] += 1;
        degree[c] += 1;
        triplets.push((r, c, -1.0));
        triplets.push((c, r, -1.0));
    }
    for (i, &d) in degree.iter().enumerate() {
        triplets.push((i, i, d as f64 + 1.0));
    }
    GeneratedMatrix {
        name: name.to_owned(),
        rows: n,
        cols: n,
        triplets,
        symmetric: true,
        spd: true,
    }
    .finish()
}

/// Power-law row-length distribution plus one ultra-dense row (the extreme
/// scale-free class merge-path SpMV targets): most rows hold a couple of
/// entries, row lengths follow a heavy Pareto tail, and one designated row
/// touches `dense_row_fraction` of all columns. Row-parallel strategies
/// cannot split that row across workers, so it serializes one lane;
/// merge-path divides it by nonzero count instead.
pub fn power_law(
    name: &str,
    n: usize,
    avg_row_nnz: usize,
    dense_row_fraction: f64,
    seed: u64,
) -> GeneratedMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let dense_row = rng.below_usize(n);
    let mut triplets = Vec::with_capacity(n * avg_row_nnz);
    for i in 0..n {
        if i == dense_row {
            continue;
        }
        // Pareto-tailed row length: u^(-0.6) has finite mean but a heavy
        // tail, so a few rows are 10-100x the typical length.
        let u = rng.next_f64().max(1e-9);
        let len = ((avg_row_nnz as f64) * 0.5 * u.powf(-0.6)).min(n as f64 / 8.0) as usize;
        let mut cols = BTreeSet::new();
        cols.insert(i);
        while cols.len() < (1 + len).min(n) {
            cols.insert(rng.below_usize(n));
        }
        let mut row_sum = 0.0;
        for j in cols {
            if j == i {
                continue;
            }
            let v = rng.range_f64(-1.0, 1.0);
            row_sum += v.abs();
            triplets.push((i, j, v));
        }
        triplets.push((i, i, row_sum + 1.0));
    }
    // The ultra-dense row: an evenly spaced sweep across the columns keeps
    // the generator O(nnz) while still touching the requested fraction.
    let touches = ((n as f64 * dense_row_fraction) as usize).clamp(1, n);
    let stride = (n / touches).max(1);
    let mut row_sum = 0.0;
    for j in (0..n).step_by(stride) {
        if j == dense_row {
            continue;
        }
        let v = rng.range_f64(-1.0, 1.0);
        row_sum += v.abs();
        triplets.push((dense_row, j, v));
    }
    triplets.push((dense_row, dense_row, row_sum + 1.0));
    GeneratedMatrix {
        name: name.to_owned(),
        rows: n,
        cols: n,
        triplets,
        symmetric: false,
        spd: false,
    }
    .finish()
}

/// Banded matrix with partially filled band (generic structural class).
pub fn banded(name: &str, n: usize, bandwidth: usize, fill: f64, seed: u64) -> GeneratedMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for i in 0..n {
        let lo = i.saturating_sub(bandwidth);
        let hi = (i + bandwidth + 1).min(n);
        let mut row_sum = 0.0;
        for j in lo..hi {
            if j == i {
                continue;
            }
            if rng.next_f64() < fill {
                let v = rng.range_f64(-1.0, 1.0);
                row_sum += v.abs();
                triplets.push((i, j, v));
            }
        }
        triplets.push((i, i, row_sum + 1.0));
    }
    GeneratedMatrix {
        name: name.to_owned(),
        rows: n,
        cols: n,
        triplets,
        symmetric: false,
        spd: false,
    }
    .finish()
}

/// 1-D convection–diffusion (unsymmetric tridiagonal), solvable by all the
/// paper's Krylov methods.
pub fn convection_diffusion(name: &str, n: usize, convection: f64) -> GeneratedMatrix {
    let mut triplets = Vec::with_capacity(3 * n);
    for i in 0..n {
        triplets.push((i, i, 4.0));
        if i > 0 {
            triplets.push((i, i - 1, -1.0 - convection));
        }
        if i + 1 < n {
            triplets.push((i, i + 1, -1.0 + convection));
        }
    }
    GeneratedMatrix {
        name: name.to_owned(),
        rows: n,
        cols: n,
        triplets,
        symmetric: convection == 0.0,
        spd: false,
    }
    .finish()
}

/// A batch of matrices sharing one sparsity pattern: a prototype whose
/// triplets fix the structure, plus one value vector per system aligned
/// with the prototype's (sorted, unique) triplet order. This is the input
/// shape of shared-sparsity batched formats — many small independent
/// systems, one structure.
#[derive(Clone, Debug)]
pub struct GeneratedBatch {
    /// Structure and the first system's values.
    pub prototype: GeneratedMatrix,
    /// Per-system nonzero values, each of length `prototype.nnz()`.
    pub system_values: Vec<Vec<f64>>,
    /// Per-system right-hand sides, each of length `prototype.rows`.
    pub rhs: Vec<Vec<f64>>,
}

impl GeneratedBatch {
    /// Number of systems in the batch.
    pub fn num_systems(&self) -> usize {
        self.system_values.len()
    }

    /// System `s` on its own: the prototype's structure with that system's
    /// values.
    pub fn system_triplets(&self, s: usize) -> Vec<(usize, usize, f64)> {
        let entries = self.prototype.triplets.iter().zip(&self.system_values[s]);
        entries.map(|(&(r, c, _), &v)| (r, c, v)).collect()
    }
}

/// SPD tridiagonal batch (the batched-solver benchmark class): `num_systems`
/// matrices sharing one tridiagonal structure. Each system keeps the `-1`
/// off-diagonals and perturbs the diagonal by a seeded amount in
/// `[0, 1.5)`, so every member stays strictly diagonally dominant — hence
/// SPD and safe for batched CG. Right-hand sides are seeded in `[0.5, 1.5)`.
pub fn spd_tridiag_batch(name: &str, n: usize, num_systems: usize, seed: u64) -> GeneratedBatch {
    assert!(n > 0 && num_systems > 0, "batch needs rows and systems");
    let mut prototype = convection_diffusion(name, n, 0.0);
    // diag 4, off-diags -1: strictly diagonally dominant and symmetric.
    prototype.spd = true;
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut system_values = Vec::with_capacity(num_systems);
    let mut rhs = Vec::with_capacity(num_systems);
    for _ in 0..num_systems {
        let shift = rng.range_f64(0.0, 1.5);
        let values = prototype
            .triplets
            .iter()
            .map(|&(r, c, v)| if r == c { v + shift } else { v })
            .collect();
        system_values.push(values);
        rhs.push((0..n).map(|_| rng.range_f64(0.5, 1.5)).collect());
    }
    GeneratedBatch {
        prototype,
        system_values,
        rhs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = circuit("c", 500, 6, 2, 42);
        let b = circuit("c", 500, 6, 2, 42);
        assert_eq!(a.triplets, b.triplets);
        let c = circuit("c", 500, 6, 2, 43);
        assert_ne!(a.triplets, c.triplets);
    }

    #[test]
    fn triplets_are_sorted_and_unique() {
        for m in [
            diagonal_mass("d", 200, 0.6, 1),
            poisson2d("p", 10, 12),
            circuit("c", 300, 5, 1, 2),
            delaunay("de", 12, 3),
            dense_rows("dr", 100, 20, 4),
            rmat("r", 8, 8, 5),
            power_law("pl", 400, 3, 0.5, 7),
            banded("b", 150, 8, 0.5, 6),
            convection_diffusion("cd", 50, 0.3),
        ] {
            let mut prev = None;
            for &(r, c, _) in &m.triplets {
                assert!(r < m.rows && c < m.cols, "{}: entry out of range", m.name);
                if let Some(p) = prev {
                    assert!((r, c) > p, "{}: unsorted or duplicate", m.name);
                }
                prev = Some((r, c));
            }
        }
    }

    #[test]
    fn poisson_stencils_have_expected_nnz() {
        let p2 = poisson2d("p", 10, 10);
        // 5n - 2*(nx + ny) boundary deficit.
        assert_eq!(p2.nnz(), 5 * 100 - 2 * 10 - 2 * 10);
        let p3 = poisson3d("p", 5, 5, 5);
        assert_eq!(p3.nnz(), 7 * 125 - 2 * 25 * 3);
        assert!(p2.spd && p3.spd);
    }

    #[test]
    fn symmetric_generators_are_symmetric() {
        for m in [
            poisson2d("p", 8, 8),
            delaunay("d", 10, 7),
            rmat("r", 7, 6, 9),
        ] {
            let set: std::collections::BTreeMap<(usize, usize), f64> =
                m.triplets.iter().map(|&(r, c, v)| ((r, c), v)).collect();
            for (&(r, c), &v) in &set {
                let mirror = set.get(&(c, r));
                assert_eq!(mirror, Some(&v), "{}: ({r},{c}) not mirrored", m.name);
            }
        }
    }

    #[test]
    fn circuit_is_diagonally_dominant_and_skewed() {
        let m = circuit("c", 2000, 6, 3, 11);
        let mut row_abs = vec![0.0f64; m.rows];
        let mut diag = vec![0.0f64; m.rows];
        let mut row_len = vec![0usize; m.rows];
        for &(r, c, v) in &m.triplets {
            row_len[r] += 1;
            if r == c {
                diag[r] = v;
            } else {
                row_abs[r] += v.abs();
            }
        }
        for i in 0..m.rows {
            assert!(diag[i] > row_abs[i] - 1e-9, "row {i} not dominant");
        }
        let max_len = *row_len.iter().max().unwrap();
        let avg = m.nnz() as f64 / m.rows as f64;
        assert!(
            max_len as f64 > 4.0 * avg,
            "power rails should create skew: max {max_len}, avg {avg}"
        );
    }

    #[test]
    fn delaunay_has_planar_degree() {
        let m = delaunay("d", 50, 13);
        let avg = m.nnz() as f64 / m.rows as f64;
        assert!((5.0..8.5).contains(&avg), "avg row nnz {avg}");
    }

    #[test]
    fn rmat_degrees_are_skewed() {
        let m = rmat("r", 10, 8, 17);
        let mut deg = vec![0usize; m.rows];
        for &(r, c, _) in &m.triplets {
            if r != c {
                deg[r] += 1;
                let _ = c;
            }
        }
        deg.sort_unstable();
        let median = deg[m.rows / 2].max(1);
        let max = deg[m.rows - 1];
        assert!(
            max > 8 * median,
            "power-law skew expected: max {max}, median {median}"
        );
    }

    #[test]
    fn power_law_has_one_ultra_dense_row_and_heavy_tail() {
        let m = power_law("pl", 4000, 3, 0.9, 31);
        assert_eq!(m.triplets, power_law("pl", 4000, 3, 0.9, 31).triplets);
        let mut row_len = vec![0usize; m.rows];
        for &(r, _, _) in &m.triplets {
            row_len[r] += 1;
        }
        let max_len = *row_len.iter().max().unwrap();
        let avg = m.nnz() as f64 / m.rows as f64;
        // The dense row alone forces skew past the merge-path threshold.
        assert!(
            max_len as f64 >= 32.0 * avg,
            "ultra-dense row dominates: max {max_len}, avg {avg}"
        );
        assert!(
            max_len >= (0.9 * 4000.0 * 0.9) as usize,
            "row touches ~90% of columns"
        );
        // Every row has at least its diagonal.
        assert!(row_len.iter().all(|&l| l > 0));
    }

    #[test]
    fn dense_rows_density_exceeds_one_percent_when_configured() {
        let m = dense_rows("e", 600, 30, 23);
        assert!(m.density() > 0.01, "density {}", m.density());
    }

    #[test]
    fn diagonal_mass_fill_fraction_is_respected() {
        let m = diagonal_mass("a", 10_000, 0.6, 5);
        let frac = m.nnz() as f64 / 10_000.0;
        assert!((0.55..0.65).contains(&frac), "fill {frac}");
        assert!(m.triplets.iter().all(|&(r, c, v)| r == c && v > 0.0));
    }

    #[test]
    fn spd_tridiag_batch_shares_structure_and_stays_dominant() {
        let n = 64;
        let batch = spd_tridiag_batch("b", n, 8, 7);
        assert_eq!(batch.num_systems(), 8);
        assert_eq!(batch.rhs.len(), 8);
        let nnz = batch.prototype.nnz();
        assert!(batch.prototype.spd);
        for (s, vals) in batch.system_values.iter().enumerate() {
            assert_eq!(vals.len(), nnz, "system {s} values align with structure");
            // Strict diagonal dominance per row: diag >= 4, off-diags -1.
            for (&(r, c, _), &v) in batch.prototype.triplets.iter().zip(vals) {
                if r == c {
                    assert!(v >= 4.0, "system {s} diagonal {v}");
                } else {
                    assert_eq!(v, -1.0);
                }
            }
            assert_eq!(batch.rhs[s].len(), n);
            assert!(batch.rhs[s].iter().all(|&b| (0.5..1.5).contains(&b)));
        }
        // Systems differ (diagonal perturbation is per-system) but are
        // deterministic under the seed.
        assert_ne!(batch.system_values[0], batch.system_values[1]);
        let again = spd_tridiag_batch("b", n, 8, 7);
        assert_eq!(batch.system_values, again.system_values);
        assert_eq!(batch.rhs, again.rhs);
        assert_ne!(
            spd_tridiag_batch("b", n, 8, 8).system_values,
            batch.system_values
        );
    }
}
