//! Wall-clock benchmark of the pyGinkgo-in-Rust stack.
//!
//! Drives the library only through public functions of `pyginkgo`, `gko`,
//! `pygko_mtx` and `pygko_matgen`, times them from outside, and checks every
//! result against its own oracle. See `README.md` for the metric dictionary.

#![warn(missing_docs)]

pub mod cells;
pub mod inputs;
pub mod model;
pub mod oracle;
pub mod probes;
pub mod repeat;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;
pub mod trace;
