//! Seeded inputs. `--seed` reaches every seeded `matgen` generator and every
//! seeded vector; the library only ever sees what is generated here.
//!
//! A system's inputs are either entirely seed-free (Poisson stencils with a
//! right-hand side of ones, as in Listing 1) or entirely seeded (circuit,
//! power-law, banded matrices with a seeded right-hand side), so iteration
//! counts on the seed-free systems repeat exactly under any seed. SpMV input
//! vectors are always seeded: they cannot change a count.

use crate::oracle::Triplet;
use pygko_matgen::generators as matgen;
use pygko_matgen::GeneratedMatrix;
use pygko_sim::rng::Xoshiro256pp;
use std::time::Instant;

/// Seed used when `--seed` is not given; recorded in `BENCHMARK.json`.
pub const DEFAULT_SEED: u64 = 20250911;

/// How large a workload's inputs are in this run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workload is defined at.
    Home,
    /// The same operations on inputs of a few thousand rows: what the other
    /// three workloads run beside their own, so every end-to-end metric has
    /// a value on every workload.
    Companion,
    /// Tiny inputs for the schema test.
    Quick,
}

/// The four workloads; each owns a group of cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Facade SpMV, CSR and COO, regular and skewed structure.
    Spmv,
    /// Time to solution through prebuilt Krylov solvers.
    Krylov,
    /// Many small `pg::solve` calls through the config path.
    Storm,
    /// MTX file to solution, cold every round.
    ColdPipeline,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Spmv,
        Workload::Krylov,
        Workload::Storm,
        Workload::ColdPipeline,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Spmv => "spmv",
            Workload::Krylov => "krylov",
            Workload::Storm => "storm",
            Workload::ColdPipeline => "cold_pipeline",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One linear system or SpMV input: a matrix and one vector.
#[derive(Clone, Debug)]
pub struct System {
    /// Generator and size, e.g. `poisson2d_300`.
    pub name: String,
    /// Rows (all systems are square).
    pub n: usize,
    /// Sorted, unique entries.
    pub triplets: Vec<Triplet>,
    /// Right-hand side of a solve, or the vector an SpMV multiplies.
    pub vector: Vec<f64>,
}

impl System {
    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.triplets.len()
    }
}

/// Everything one run feeds the library.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// `[regular, skewed]`.
    pub spmv: [System; 2],
    /// `[cg, gmres, bicgstab]`.
    pub krylov: [System; 3],
    /// The small systems of the storm.
    pub storm: Vec<System>,
    /// `[spd, unsym]`.
    pub pipeline: [System; 2],
    /// Seconds spent generating (excluded from `setup_s`).
    pub gen_s: f64,
}

fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    pygko_sim::rng::splitmix64(&mut state)
}

fn seeded_vector(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n).map(|_| rng.range_f64(lo, hi)).collect()
}

fn system(g: GeneratedMatrix, vector: Vec<f64>) -> System {
    System {
        name: g.name,
        n: g.rows,
        triplets: g.triplets,
        vector,
    }
}

/// Seed-free matrix, right-hand side of ones.
fn fixed(g: GeneratedMatrix) -> System {
    let n = g.rows;
    system(g, vec![1.0; n])
}

/// Seeded matrix, seeded right-hand side in `[0.5, 1.5)`.
fn seeded(g: GeneratedMatrix, seed: u64) -> System {
    let n = g.rows;
    system(g, seeded_vector(n, 0.5, 1.5, seed))
}

fn spmv_inputs(scale: Scale, seed: u64) -> [System; 2] {
    let (grid, n) = match scale {
        Scale::Home => (400, 60_000),
        Scale::Companion => (64, 20_000),
        Scale::Quick => (16, 400),
    };
    let regular = matgen::poisson2d(&format!("poisson2d_{grid}"), grid, grid);
    let skewed = matgen::power_law(&format!("power_law_{n}"), n, 12, 0.5, sub_seed(seed, 1));
    let (rn, sn) = (regular.rows, skewed.rows);
    [
        system(regular, seeded_vector(rn, -1.0, 1.0, sub_seed(seed, 2))),
        system(skewed, seeded_vector(sn, -1.0, 1.0, sub_seed(seed, 3))),
    ]
}

fn krylov_inputs(scale: Scale, seed: u64) -> [System; 3] {
    let (cg, gmres, bicgstab) = match scale {
        Scale::Home => (160, 24, 60_000),
        Scale::Companion => (48, 12, 2_000),
        Scale::Quick => (12, 5, 400),
    };
    [
        fixed(matgen::poisson2d(&format!("poisson2d_{cg}"), cg, cg)),
        fixed(matgen::poisson3d(
            &format!("poisson3d_{gmres}"),
            gmres,
            gmres,
            gmres,
        )),
        seeded(
            matgen::circuit(
                &format!("circuit_{bicgstab}"),
                bicgstab,
                6,
                4,
                sub_seed(seed, 4),
            ),
            sub_seed(seed, 5),
        ),
    ]
}

fn storm_inputs(scale: Scale, seed: u64) -> Vec<System> {
    let (count, div) = match scale {
        Scale::Home => (16, 1),
        Scale::Companion => (4, 1),
        Scale::Quick => (4, 4),
    };
    (0..count)
        .map(|k| {
            let s = sub_seed(seed, 100 + k as u64);
            match k % 4 {
                0 => {
                    let (nx, ny) = ((40 + k) / div, 40 / div);
                    fixed(matgen::poisson2d(&format!("poisson2d_{nx}x{ny}"), nx, ny))
                }
                1 => {
                    let n = (1600 + 40 * k) / div;
                    seeded(matgen::banded(&format!("banded_{n}"), n, 4, 0.6, s), s ^ 1)
                }
                2 => {
                    let n = (1800 + 25 * k) / div;
                    fixed(matgen::convection_diffusion(
                        &format!("convdiff_{n}"),
                        n,
                        0.3,
                    ))
                }
                _ => {
                    let n = (1600 + 40 * k) / div;
                    seeded(matgen::circuit(&format!("circuit_{n}"), n, 5, 1, s), s ^ 1)
                }
            }
        })
        .collect()
}

fn pipeline_inputs(scale: Scale, seed: u64) -> [System; 2] {
    let (grid, n) = match scale {
        Scale::Home => (120, 25_000),
        Scale::Companion => (48, 2_000),
        Scale::Quick => (12, 400),
    };
    [
        fixed(matgen::poisson2d(&format!("poisson2d_{grid}"), grid, grid)),
        seeded(
            matgen::circuit(&format!("circuit_{n}"), n, 6, 4, sub_seed(seed, 6)),
            sub_seed(seed, 7),
        ),
    ]
}

impl Inputs {
    /// Generates the inputs of a run; `scale_of` gives each group its size.
    pub fn generate(seed: u64, scale_of: impl Fn(Workload) -> Scale) -> Inputs {
        let t0 = Instant::now();
        let spmv = spmv_inputs(scale_of(Workload::Spmv), seed);
        let krylov = krylov_inputs(scale_of(Workload::Krylov), seed);
        let storm = storm_inputs(scale_of(Workload::Storm), seed);
        let pipeline = pipeline_inputs(scale_of(Workload::ColdPipeline), seed);
        Inputs {
            spmv,
            krylov,
            storm,
            pipeline,
            gen_s: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_inputs_and_another_seed_differs_only_where_seeded() {
        let a = Inputs::generate(7, |_| Scale::Quick);
        let b = Inputs::generate(7, |_| Scale::Quick);
        let c = Inputs::generate(8, |_| Scale::Quick);
        assert_eq!(a.spmv[1].triplets, b.spmv[1].triplets);
        assert_eq!(a.krylov[2].vector, b.krylov[2].vector);
        // Seeded generators and vectors move with the seed ...
        assert_ne!(a.spmv[1].triplets, c.spmv[1].triplets);
        assert_ne!(a.spmv[0].vector, c.spmv[0].vector);
        assert_ne!(a.krylov[2].triplets, c.krylov[2].triplets);
        assert_ne!(a.storm[1].vector, c.storm[1].vector);
        assert_ne!(a.pipeline[1].triplets, c.pipeline[1].triplets);
        // ... the Poisson systems do not, right-hand side included.
        assert_eq!(a.krylov[0].triplets, c.krylov[0].triplets);
        assert_eq!(a.krylov[1].vector, c.krylov[1].vector);
        assert_eq!(a.storm[0].triplets, c.storm[0].triplets);
        assert_eq!(a.pipeline[0].vector, c.pipeline[0].vector);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
