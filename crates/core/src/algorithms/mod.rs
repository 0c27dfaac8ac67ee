//! Algorithms implemented purely at the facade level (paper §3.4).
//!
//! These are the "pure Python" algorithms of the paper: built exclusively
//! from public facade operations (SpMV, dots, axpys) so they run on any
//! device and any dtype without touching the engine internals — the
//! extensibility proof-of-concept. Provided:
//!
//! * [`rayleigh_ritz()`] — the Rayleigh–Ritz subspace eigensolver the paper
//!   names explicitly;
//! * [`power_iteration()`] — dominant eigenpair;
//! * [`lanczos()`] — Lanczos tridiagonalization eigensolver;
//! * `eig` — the small dense symmetric (cyclic Jacobi) eigensolver the
//!   others reduce to.

mod eig;
pub mod lanczos;
pub mod power_iteration;
pub mod rayleigh_ritz;

pub use lanczos::lanczos;
pub use power_iteration::power_iteration;
pub use rayleigh_ritz::rayleigh_ritz;
