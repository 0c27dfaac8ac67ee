//! Curated matrix suites with the shapes of the paper's benchmark sets.
//!
//! * [`spmv_suite`] — 30 matrices (the SpMV benchmarks of §6.1), nonzero
//!   counts spanning ~1.5e4 to ~7e6, densities below 1% except five.
//! * [`solver_suite`] — 40 square, solvable matrices (§6.2).
//! * [`overhead_suite`] — 45 matrices for the binding-overhead study (§6.3).
//! * [`representative`] — the six named matrices of Table 2, reproduced by
//!   class with matching dimension and nonzero count.
//!
//! Suites are returned as lazy [`MatrixInfo`] descriptors; call
//! [`MatrixInfo::generate`] to materialize one.

use crate::generators::{
    banded, circuit, convection_diffusion, delaunay, dense_rows, diagonal_mass, poisson2d,
    poisson3d, rmat, GeneratedMatrix,
};

/// Lazy descriptor of one collection matrix.
#[derive(Clone, Debug)]
pub struct MatrixInfo {
    /// Display name (representatives carry the Table 2 letter).
    pub name: &'static str,
    /// Structural class label.
    pub class: &'static str,
    spec: Spec,
}

#[derive(Clone, Debug)]
enum Spec {
    DiagonalMass {
        n: usize,
        fill: f64,
        seed: u64,
    },
    Poisson2d {
        nx: usize,
        ny: usize,
    },
    Poisson3d {
        nx: usize,
    },
    ConvDiff {
        n: usize,
        convection: f64,
    },
    Circuit {
        n: usize,
        avg: usize,
        rails: usize,
        seed: u64,
    },
    Delaunay {
        side: usize,
        seed: u64,
    },
    DenseRows {
        n: usize,
        row_nnz: usize,
        seed: u64,
    },
    Rmat {
        scale: u32,
        ef: usize,
        seed: u64,
    },
    Banded {
        n: usize,
        bw: usize,
        fill: f64,
        seed: u64,
    },
}

impl MatrixInfo {
    const fn new(name: &'static str, class: &'static str, spec: Spec) -> Self {
        MatrixInfo { name, class, spec }
    }

    /// Materializes the matrix (deterministic for a given descriptor).
    pub fn generate(&self) -> GeneratedMatrix {
        let mut m = match self.spec {
            Spec::DiagonalMass { n, fill, seed } => diagonal_mass(self.name, n, fill, seed),
            Spec::Poisson2d { nx, ny } => poisson2d(self.name, nx, ny),
            Spec::Poisson3d { nx } => poisson3d(self.name, nx, nx, nx),
            Spec::ConvDiff { n, convection } => convection_diffusion(self.name, n, convection),
            Spec::Circuit {
                n,
                avg,
                rails,
                seed,
            } => circuit(self.name, n, avg, rails, seed),
            Spec::Delaunay { side, seed } => delaunay(self.name, side, seed),
            Spec::DenseRows { n, row_nnz, seed } => dense_rows(self.name, n, row_nnz, seed),
            Spec::Rmat { scale, ef, seed } => rmat(self.name, scale, ef, seed),
            Spec::Banded { n, bw, fill, seed } => banded(self.name, n, bw, fill, seed),
        };
        m.name = self.name.to_owned();
        m
    }
}

/// The six representative matrices of Table 2, by structural class.
///
/// | Letter | Paper matrix | Class here |
/// |---|---|---|
/// | A | bcsstm37     | diagonal mass, 61% filled |
/// | B | bcsstm39     | diagonal mass, full |
/// | C | mult_dcop_01 | circuit |
/// | D | delaunay_n17 | Delaunay mesh Laplacian |
/// | E | av41092      | dense irregular rows |
/// | F | ASIC_320ks   | circuit with power rails |
pub fn representative() -> Vec<MatrixInfo> {
    vec![
        MatrixInfo::new(
            "A: bcsstm37 (synthetic)",
            "diagonal mass",
            Spec::DiagonalMass {
                n: 25_503,
                fill: 0.609,
                seed: 370,
            },
        ),
        MatrixInfo::new(
            "B: bcsstm39 (synthetic)",
            "diagonal mass",
            Spec::DiagonalMass {
                n: 46_772,
                fill: 1.0,
                seed: 390,
            },
        ),
        MatrixInfo::new(
            "C: mult_dcop_01 (synthetic)",
            "circuit",
            Spec::Circuit {
                n: 25_187,
                avg: 7,
                rails: 3,
                seed: 101,
            },
        ),
        MatrixInfo::new(
            "D: delaunay_n17 (synthetic)",
            "delaunay",
            Spec::Delaunay {
                side: 362,
                seed: 170,
            },
        ),
        MatrixInfo::new(
            "E: av41092 (synthetic)",
            "dense rows",
            Spec::DenseRows {
                n: 41_092,
                row_nnz: 41,
                seed: 410,
            },
        ),
        MatrixInfo::new(
            "F: ASIC_320ks (synthetic)",
            "circuit",
            Spec::Circuit {
                n: 321_671,
                avg: 5,
                rails: 6,
                seed: 320,
            },
        ),
    ]
}

/// 30 SpMV benchmark matrices spanning four decades of nonzero count.
/// Five (marked `dense rows`) exceed 1% density, matching the paper's set.
pub fn spmv_suite() -> Vec<MatrixInfo> {
    vec![
        MatrixInfo::new(
            "mass_25k",
            "diagonal mass",
            Spec::DiagonalMass {
                n: 25_503,
                fill: 0.609,
                seed: 370,
            },
        ),
        MatrixInfo::new(
            "poisson2d_50",
            "poisson 2d",
            Spec::Poisson2d { nx: 50, ny: 50 },
        ),
        MatrixInfo::new(
            "convdiff_10k",
            "convection-diffusion",
            Spec::ConvDiff {
                n: 10_000,
                convection: 0.4,
            },
        ),
        MatrixInfo::new(
            "mass_47k",
            "diagonal mass",
            Spec::DiagonalMass {
                n: 46_772,
                fill: 1.0,
                seed: 390,
            },
        ),
        MatrixInfo::new(
            "banded_5k",
            "banded",
            Spec::Banded {
                n: 5_000,
                bw: 16,
                fill: 0.5,
                seed: 51,
            },
        ),
        MatrixInfo::new(
            "dense_2k_60",
            "dense rows",
            Spec::DenseRows {
                n: 2_000,
                row_nnz: 60,
                seed: 52,
            },
        ),
        MatrixInfo::new(
            "delaunay_150",
            "delaunay",
            Spec::Delaunay {
                side: 150,
                seed: 53,
            },
        ),
        MatrixInfo::new(
            "circuit_25k",
            "circuit",
            Spec::Circuit {
                n: 25_187,
                avg: 7,
                rails: 3,
                seed: 101,
            },
        ),
        MatrixInfo::new(
            "poisson2d_200",
            "poisson 2d",
            Spec::Poisson2d { nx: 200, ny: 200 },
        ),
        MatrixInfo::new(
            "dense_4k_50",
            "dense rows",
            Spec::DenseRows {
                n: 4_000,
                row_nnz: 50,
                seed: 54,
            },
        ),
        MatrixInfo::new(
            "rmat_14",
            "power-law graph",
            Spec::Rmat {
                scale: 14,
                ef: 8,
                seed: 55,
            },
        ),
        MatrixInfo::new(
            "banded_20k",
            "banded",
            Spec::Banded {
                n: 20_000,
                bw: 24,
                fill: 0.4,
                seed: 56,
            },
        ),
        MatrixInfo::new("poisson3d_40", "poisson 3d", Spec::Poisson3d { nx: 40 }),
        MatrixInfo::new(
            "circuit_80k",
            "circuit",
            Spec::Circuit {
                n: 80_000,
                avg: 4,
                rails: 4,
                seed: 57,
            },
        ),
        MatrixInfo::new(
            "delaunay_300",
            "delaunay",
            Spec::Delaunay {
                side: 300,
                seed: 58,
            },
        ),
        MatrixInfo::new(
            "delaunay_362",
            "delaunay",
            Spec::Delaunay {
                side: 362,
                seed: 170,
            },
        ),
        MatrixInfo::new(
            "rmat_16",
            "power-law graph",
            Spec::Rmat {
                scale: 16,
                ef: 8,
                seed: 59,
            },
        ),
        MatrixInfo::new(
            "dense_20k_60",
            "dense rows",
            Spec::DenseRows {
                n: 20_000,
                row_nnz: 60,
                seed: 60,
            },
        ),
        MatrixInfo::new(
            "dense_41k_41",
            "dense rows",
            Spec::DenseRows {
                n: 41_092,
                row_nnz: 41,
                seed: 410,
            },
        ),
        MatrixInfo::new(
            "poisson2d_600",
            "poisson 2d",
            Spec::Poisson2d { nx: 600, ny: 600 },
        ),
        MatrixInfo::new(
            "circuit_321k",
            "circuit",
            Spec::Circuit {
                n: 321_671,
                avg: 5,
                rails: 6,
                seed: 320,
            },
        ),
        MatrixInfo::new(
            "banded_200k",
            "banded",
            Spec::Banded {
                n: 200_000,
                bw: 12,
                fill: 0.5,
                seed: 61,
            },
        ),
        MatrixInfo::new(
            "rmat_17",
            "power-law graph",
            Spec::Rmat {
                scale: 17,
                ef: 10,
                seed: 62,
            },
        ),
        MatrixInfo::new("poisson3d_80", "poisson 3d", Spec::Poisson3d { nx: 80 }),
        MatrixInfo::new(
            "delaunay_600",
            "delaunay",
            Spec::Delaunay {
                side: 600,
                seed: 63,
            },
        ),
        MatrixInfo::new(
            "dense_10k_300",
            "dense rows",
            Spec::DenseRows {
                n: 10_000,
                row_nnz: 300,
                seed: 64,
            },
        ),
        MatrixInfo::new(
            "circuit_1m",
            "circuit",
            Spec::Circuit {
                n: 1_000_000,
                avg: 3,
                rails: 8,
                seed: 65,
            },
        ),
        MatrixInfo::new("poisson3d_100", "poisson 3d", Spec::Poisson3d { nx: 100 }),
        MatrixInfo::new(
            "poisson2d_1200",
            "poisson 2d",
            Spec::Poisson2d { nx: 1200, ny: 1200 },
        ),
        MatrixInfo::new(
            "rmat_18",
            "power-law graph",
            Spec::Rmat {
                scale: 18,
                ef: 12,
                seed: 66,
            },
        ),
    ]
}

/// 40 solvable (square, diagonally dominant or SPD) matrices for the solver
/// benchmarks. Sizes are moderate — the solver benchmark runs hundreds of
/// iterations per matrix per library.
pub fn solver_suite() -> Vec<MatrixInfo> {
    let mut v = Vec::with_capacity(40);
    // 12 Poisson 2-D problems of growing size.
    for (i, side) in [30, 40, 50, 65, 80, 100, 125, 150, 180, 220, 260, 300]
        .into_iter()
        .enumerate()
    {
        let name: &'static str = Box::leak(format!("poisson2d_{side}").into_boxed_str());
        v.push(MatrixInfo::new(
            name,
            "poisson 2d",
            Spec::Poisson2d { nx: side, ny: side },
        ));
        let _ = i;
    }
    // 6 Poisson 3-D problems.
    for side in [10, 14, 18, 24, 30, 38] {
        let name: &'static str = Box::leak(format!("poisson3d_{side}").into_boxed_str());
        v.push(MatrixInfo::new(
            name,
            "poisson 3d",
            Spec::Poisson3d { nx: side },
        ));
    }
    // 8 convection-diffusion problems (unsymmetric).
    for (n, conv) in [
        (1_000, 0.2),
        (2_000, 0.4),
        (5_000, 0.1),
        (10_000, 0.3),
        (20_000, 0.5),
        (40_000, 0.2),
        (60_000, 0.4),
        (90_000, 0.1),
    ] {
        let name: &'static str = Box::leak(format!("convdiff_{n}").into_boxed_str());
        v.push(MatrixInfo::new(
            name,
            "convection-diffusion",
            Spec::ConvDiff {
                n,
                convection: conv,
            },
        ));
    }
    // 6 circuit matrices (unsymmetric, diagonally dominant).
    for (i, n) in [2_000, 5_000, 12_000, 25_000, 50_000, 80_000]
        .into_iter()
        .enumerate()
    {
        let name: &'static str = Box::leak(format!("circuit_{n}").into_boxed_str());
        v.push(MatrixInfo::new(
            name,
            "circuit",
            Spec::Circuit {
                n,
                avg: 4,
                rails: 2,
                seed: 700 + i as u64,
            },
        ));
    }
    // 4 Delaunay Laplacians (SPD).
    for (i, side) in [60, 110, 170, 240].into_iter().enumerate() {
        let name: &'static str = Box::leak(format!("delaunay_{side}").into_boxed_str());
        v.push(MatrixInfo::new(
            name,
            "delaunay",
            Spec::Delaunay {
                side,
                seed: 800 + i as u64,
            },
        ));
    }
    // 4 RMAT graph Laplacians (SPD, skewed degrees — the ill-conditioned end).
    for (i, scale) in [11, 12, 13, 14].into_iter().enumerate() {
        let name: &'static str = Box::leak(format!("rmat_{scale}").into_boxed_str());
        v.push(MatrixInfo::new(
            name,
            "power-law graph",
            Spec::Rmat {
                scale,
                ef: 8,
                seed: 900 + i as u64,
            },
        ));
    }
    assert_eq!(v.len(), 40);
    v
}

/// 45 matrices for the pyGinkgo-vs-Ginkgo binding overhead study: the SpMV
/// suite plus 15 additional small-to-mid problems, since overhead is most
/// visible at small sizes.
pub fn overhead_suite() -> Vec<MatrixInfo> {
    let mut v = spmv_suite();
    for (i, side) in [
        20, 28, 36, 44, 52, 60, 70, 85, 105, 130, 160, 190, 230, 280, 340,
    ]
    .into_iter()
    .enumerate()
    {
        let name: &'static str = Box::leak(format!("poisson2d_ov_{side}").into_boxed_str());
        v.push(MatrixInfo::new(
            name,
            "poisson 2d",
            Spec::Poisson2d { nx: side, ny: side },
        ));
        let _ = i;
    }
    assert_eq!(v.len(), 45);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_paper_cardinalities() {
        assert_eq!(spmv_suite().len(), 30);
        assert_eq!(solver_suite().len(), 40);
        assert_eq!(overhead_suite().len(), 45);
        assert_eq!(representative().len(), 6);
    }

    #[test]
    fn representative_matrices_match_table_2_shapes() {
        let reps = representative();
        // (dimension, approximate nnz) from Table 2.
        let expected: [(usize, f64); 6] = [
            (25_503, 1.55e4),
            (46_772, 4.68e4),
            (25_187, 1.93e5),
            (131_044, 7.86e5), // 362^2 grid ~ 2^17 nodes
            (41_092, 1.68e6),
            (321_671, 1.83e6),
        ];
        for (info, (dim, nnz)) in reps.iter().zip(expected) {
            let m = info.generate();
            assert_eq!(m.rows, dim, "{}", info.name);
            let ratio = m.nnz() as f64 / nnz;
            assert!(
                (0.4..2.5).contains(&ratio),
                "{}: nnz {} vs paper {nnz} (ratio {ratio})",
                info.name,
                m.nnz()
            );
        }
    }

    #[test]
    fn spmv_suite_small_members_have_expected_structure() {
        // Materialize only the small ones to keep test time bounded.
        for info in spmv_suite().into_iter().take(10) {
            let m = info.generate();
            assert!(m.nnz() > 0, "{}", info.name);
            assert_eq!(m.rows, m.cols, "{}", info.name);
        }
    }

    #[test]
    fn density_distribution_matches_paper_description() {
        // "densities below 1% in all cases except for five".
        let dense_count = spmv_suite()
            .iter()
            .filter(|i| i.class == "dense rows")
            .count();
        assert_eq!(dense_count, 5);
    }

    #[test]
    fn solver_suite_members_are_square_and_have_nonzero_diagonal() {
        for info in solver_suite().into_iter().step_by(7) {
            let m = info.generate();
            assert_eq!(m.rows, m.cols);
            let mut has_diag = vec![false; m.rows];
            for &(r, c, v) in &m.triplets {
                if r == c && v != 0.0 {
                    has_diag[r] = true;
                }
            }
            assert!(
                has_diag.iter().all(|&d| d),
                "{}: missing diagonal",
                info.name
            );
        }
    }

    #[test]
    fn generation_is_reproducible_across_calls() {
        let a = spmv_suite()[7].generate();
        let b = spmv_suite()[7].generate();
        assert_eq!(a.triplets, b.triplets);
    }
}
