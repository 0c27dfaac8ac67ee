//! Preconditioner bindings: `pg.preconditioner.Ilu(dev, mtx)` and friends
//! (Listing 1 line 17, Fig. 2).

use crate::device::Device;
use crate::dispatch::{Generate, OpImpl};
use crate::error::{PyGinkgoError, PyResult};
use crate::matrix::SparseMatrix;

/// A generated preconditioner, ready to attach to a solver.
#[derive(Clone)]
pub struct Preconditioner {
    pub(crate) inner: OpImpl,
    kind: &'static str,
    device: Device,
}

impl Preconditioner {
    /// Preconditioner kind (`"jacobi"`, `"ilu"`, `"ic"`).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The device the factors live on.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

/// Factorizations work on CSR; COO inputs convert transparently, exactly
/// like Ginkgo's factory `generate()` would.
fn generate(
    device: &Device,
    matrix: &SparseMatrix,
    kind: &'static str,
    what: Generate,
) -> PyResult<Preconditioner> {
    Ok(Preconditioner {
        inner: matrix.generate(device, what)?,
        kind,
        device: device.clone(),
    })
}

/// Scalar Jacobi preconditioner.
pub fn jacobi(device: &Device, matrix: &SparseMatrix) -> PyResult<Preconditioner> {
    jacobi_with_block_size(device, matrix, 1)
}

/// Block Jacobi with the given block size (Listing 2's `max_block_size`).
pub fn jacobi_with_block_size(
    device: &Device,
    matrix: &SparseMatrix,
    block_size: usize,
) -> PyResult<Preconditioner> {
    if block_size == 0 {
        return Err(PyGinkgoError::Value("block size must be positive".into()));
    }
    generate(device, matrix, "jacobi", Generate::Jacobi { block_size })
}

/// ILU(0) preconditioner (Listing 1's `pg.preconditioner.Ilu(dev, mtx)`).
pub fn ilu(device: &Device, matrix: &SparseMatrix) -> PyResult<Preconditioner> {
    generate(device, matrix, "ilu", Generate::Ilu)
}

/// IC(0) preconditioner for SPD systems.
pub fn ic(device: &Device, matrix: &SparseMatrix) -> PyResult<Preconditioner> {
    generate(device, matrix, "ic", Generate::Ic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::device;

    fn spd(dev: &Device, format: &str, dtype: &str) -> SparseMatrix {
        let n = 10;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        SparseMatrix::from_triplets(dev, (n, n), &t, dtype, "int32", format).unwrap()
    }

    #[test]
    fn all_kinds_generate_on_csr() {
        let dev = device("reference").unwrap();
        let m = spd(&dev, "Csr", "double");
        assert_eq!(jacobi(&dev, &m).unwrap().kind(), "jacobi");
        assert_eq!(ilu(&dev, &m).unwrap().kind(), "ilu");
        assert_eq!(ic(&dev, &m).unwrap().kind(), "ic");
        assert_eq!(
            jacobi_with_block_size(&dev, &m, 2).unwrap().kind(),
            "jacobi"
        );
    }

    #[test]
    fn coo_matrices_are_converted_transparently() {
        let dev = device("reference").unwrap();
        let m = spd(&dev, "Coo", "float");
        assert!(ilu(&dev, &m).is_ok());
    }

    #[test]
    fn half_precision_preconditioners_exist() {
        let dev = device("reference").unwrap();
        let m = spd(&dev, "Csr", "half");
        assert!(jacobi(&dev, &m).is_ok());
    }

    #[test]
    fn singular_matrix_raises_runtime_error() {
        let dev = device("reference").unwrap();
        let m = SparseMatrix::from_triplets(
            &dev,
            (2, 2),
            &[(0, 1, 1.0), (1, 0, 1.0)],
            "double",
            "int32",
            "Csr",
        )
        .unwrap();
        assert!(matches!(ilu(&dev, &m), Err(PyGinkgoError::Runtime(_))));
    }

    #[test]
    fn zero_block_size_is_a_value_error() {
        let dev = device("reference").unwrap();
        let m = spd(&dev, "Csr", "double");
        assert!(matches!(
            jacobi_with_block_size(&dev, &m, 0),
            Err(PyGinkgoError::Value(_))
        ));
    }
}
