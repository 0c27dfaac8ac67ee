//! `pg.device(...)` — the facade's executor factory (paper §4.1).
//!
//! pyGinkgo calls Ginkgo executors "devices" for consistency with the Python
//! ecosystem (`torch.device("cuda")`). Device name strings are parsed
//! case-insensitively; an optional integer id selects among multiple
//! accelerators.

use crate::error::{PyGinkgoError, PyResult};
use gko::Executor;

/// A handle to an execution device (wraps an engine executor).
#[derive(Clone, Debug, PartialEq)]
pub struct Device {
    exec: Executor,
}

impl Device {
    /// The underlying engine executor.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Lower-case backend name (`"cuda"`, `"hip"`, `"omp"`, `"reference"`).
    pub fn backend_name(&self) -> &'static str {
        self.exec.backend().name()
    }

    /// Marketing name of the simulated hardware (e.g. `"NVIDIA A100"`).
    pub fn hardware_name(&self) -> &str {
        self.exec.name()
    }

    /// True for host (CPU) devices.
    pub fn is_cpu(&self) -> bool {
        self.exec.is_host()
    }

    /// Blocks until device work completes (API-shape parity; see
    /// [`Executor::synchronize`]).
    pub fn synchronize(&self) {
        self.exec.synchronize()
    }
}

/// Creates a device from its name: `"cuda"`, `"hip"`, `"omp"`,
/// `"reference"`/`"cpu"`. Equivalent to `pg.device(name)` in Listing 1.
pub fn device(name: &str) -> PyResult<Device> {
    device_with_id(name, 0)
}

/// Creates a device with an explicit id — `pg.device(name, id)` (§4.1's
/// `pyGinkgo.device(name, id=0)` factory).
///
/// For `"omp"` the id selects the *thread count*, mirroring how the paper's
/// CPU benchmarks sweep threads; 0 models the paper's full 38-core socket.
/// The count is the cost model's: the executor runs at most as many OS
/// threads as the host has cores.
pub fn device_with_id(name: &str, id: usize) -> PyResult<Device> {
    let exec = match name.to_ascii_lowercase().as_str() {
        "cuda" => Executor::cuda(id),
        "hip" | "rocm" => Executor::hip(id),
        "omp" | "openmp" => Executor::omp(if id == 0 { 38 } else { id }),
        "reference" | "cpu" => Executor::reference(),
        other => {
            return Err(PyGinkgoError::Value(format!(
                "unknown device '{other}' (expected cuda, hip, omp, or reference)"
            )))
        }
    };
    Ok(Device { exec })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_1_device_call_works() {
        let dev = device("cuda").unwrap();
        assert_eq!(dev.backend_name(), "cuda");
        assert_eq!(dev.hardware_name(), "NVIDIA A100");
        assert!(!dev.is_cpu());
        dev.synchronize();
    }

    #[test]
    fn names_are_case_insensitive_with_aliases() {
        assert_eq!(device("CUDA").unwrap().backend_name(), "cuda");
        assert_eq!(device("ROCm").unwrap().backend_name(), "hip");
        assert_eq!(device("OpenMP").unwrap().backend_name(), "omp");
        assert_eq!(device("cpu").unwrap().backend_name(), "reference");
    }

    #[test]
    fn omp_id_selects_thread_count() {
        let d = device_with_id("omp", 16).unwrap();
        assert_eq!(d.executor().spec().workers, 16);
        let d = device("omp").unwrap();
        assert_eq!(d.executor().spec().workers, 38, "defaults to full socket");
    }

    #[test]
    fn unknown_device_is_a_value_error() {
        let err = device("tpu").unwrap_err();
        assert!(err.to_string().contains("ValueError"));
        assert!(err.to_string().contains("tpu"));
    }
}
