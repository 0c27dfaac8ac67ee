//! Synthetic SuiteSparse-like sparse matrix collection.
//!
//! The paper benchmarks on 30 (SpMV), 40 (solver), and 45 (binding-overhead)
//! matrices from the SuiteSparse collection, plus six named representatives
//! (Table 2). The real collection cannot ship with this reproduction, so
//! this crate generates matrices *by structural class* — diagonal mass
//! matrices, discretized PDEs, circuit matrices with power-rail rows,
//! Delaunay-mesh Laplacians, power-law graphs — with the dimensions and
//! nonzero counts of the paper's sets. SpMV and solver behaviour depend on
//! exactly the properties the generators control (row-length distribution,
//! bandwidth, symmetry, diagonal dominance), which is what makes the
//! benchmark shapes transfer. Every generator is seeded and deterministic.

#![warn(missing_docs)]

mod collection;
pub mod generators;

pub use collection::{overhead_suite, representative, solver_suite, spmv_suite, MatrixInfo};
pub use generators::GeneratedMatrix;
