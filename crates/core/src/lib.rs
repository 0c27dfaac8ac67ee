//! pyGinkgo-in-Rust: a Pythonic, dynamically typed operator facade over the
//! `gko` engine — the reproduction of the paper's primary contribution.
//!
//! The real pyGinkgo wraps Ginkgo's C++ templates with pybind11 and exposes
//! a NumPy/PyTorch-flavoured API. This crate reproduces that architecture
//! faithfully (paper §3–§5):
//!
//! * **Dynamic typing at the boundary.** Users pass dtype *strings*
//!   (`"double"`, `"float32"`, ...) and get type-erased [`Tensor`]s and
//!   [`SparseMatrix`]es; one table of pre-instantiated engine types is
//!   looked up at construction and one dtype dispatch opens the handles
//!   after it ([`dispatch`], §5.1's `funcxx_int`/`funcxx_float` scheme).
//! * **A GIL analog.** Every facade call acquires a global lock and charges
//!   a calibrated per-call binding cost to the device timeline ([`gil`]),
//!   reproducing the overhead the paper measures in §6.3.
//! * **The Listing 1 API.** [`device()`], [`read()`], [`as_tensor`],
//!   [`solver::gmres`] + preconditioners, and `apply` returning
//!   `(logger, result)`.
//! * **The Listing 2 config path.** [`solve`] builds a config dictionary,
//!   serializes it to JSON, and hands it to the engine's generic
//!   config-solver entry point — no temporary files.
//! * **Pure-"Python" algorithms.** [`algorithms`] implements Rayleigh–Ritz
//!   (plus power iteration and Lanczos) entirely in facade-level operations,
//!   demonstrating the extensibility story of §3.4.
//!
//! # Quickstart (Listing 1 analog)
//!
//! ```
//! use pyginkgo as pg;
//!
//! let dev = pg::device("reference").unwrap();
//! // A tiny SPD system instead of the paper's m1.mtx download.
//! let mtx = pg::SparseMatrix::from_triplets(
//!     &dev, (2, 2), &[(0, 0, 4.0), (1, 1, 2.0)], "double", "int32", "Csr",
//! ).unwrap();
//! let b = pg::as_tensor_fill(&dev, (2, 1), "double", 1.0).unwrap();
//! let mut x = pg::as_tensor_fill(&dev, (2, 1), "double", 0.0).unwrap();
//!
//! let pre = pg::preconditioner::jacobi(&dev, &mtx).unwrap();
//! let solver = pg::solver::gmres(&dev, &mtx, Some(pre), 1000, 30, 1e-6).unwrap();
//! let logger = solver.apply(&b, &mut x).unwrap();
//! assert!(logger.converged());
//! assert!((x.get(0, 0).unwrap() - 0.25).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod config_solver;
pub mod conv;
pub mod device;
pub mod dispatch;
pub mod dtype;
pub mod error;
pub mod gil;
pub mod logger;
pub mod matrix;
pub mod preconditioner;
pub mod read;
pub mod reentrant;
pub mod solver;
pub mod tensor;

pub use config_solver::{solve, solve_from_config_file};
pub use conv::conv2d;
pub use device::{device, device_with_id, Device};
pub use dtype::DType;
pub use error::{PyGinkgoError, PyResult};
pub use gko::{HistogramSnapshot, MetricsSnapshot};
pub use logger::Logger;
pub use matrix::{MatrixFormat, SparseMatrix};
pub use read::{read, write};
pub use solver::Observe;
pub use tensor::{as_tensor, as_tensor_fill, Tensor};
