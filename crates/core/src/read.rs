//! `pg.read` / `pg.write` — Matrix Market IO (Listing 1 lines 4–7).

use crate::device::Device;
use crate::error::{PyGinkgoError, PyResult};
use crate::matrix::SparseMatrix;
use std::path::Path;

/// Reads a Matrix Market file into a [`SparseMatrix`]:
/// `pg.read(device=dev, path="m1.mtx", dtype="double", format="Csr")`.
pub fn read(
    device: &Device,
    path: impl AsRef<Path>,
    dtype: &str,
    format: &str,
) -> PyResult<SparseMatrix> {
    read_with_index_type(device, path, dtype, "int32", format)
}

/// Like [`read`] with an explicit index type.
pub fn read_with_index_type(
    device: &Device,
    path: impl AsRef<Path>,
    dtype: &str,
    index_type: &str,
    format: &str,
) -> PyResult<SparseMatrix> {
    let data = pygko_mtx::read_mtx_file(path.as_ref()).map_err(|e| match e {
        pygko_mtx::MtxError::Io(io) => PyGinkgoError::Os(io.to_string()),
        other => PyGinkgoError::Value(other.to_string()),
    })?;
    SparseMatrix::from_triplets(
        device,
        (data.rows, data.cols),
        &data.entries,
        dtype,
        index_type,
        format,
    )
}

/// Writes a matrix to a Matrix Market file.
pub fn write(matrix: &SparseMatrix, path: impl AsRef<Path>) -> PyResult<()> {
    let (rows, cols) = matrix.shape();
    let triplets = matrix.to_triplets();
    pygko_mtx::write_mtx_file(path, rows, cols, &triplets)
        .map_err(|e| PyGinkgoError::Os(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::device;
    use crate::tensor::as_tensor;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pyginkgo_read_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn listing_1_read_flow() {
        let path = temp_path("m1.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 4.0\n1 2 1.0\n2 2 2.0\n",
        )
        .unwrap();
        let dev = device("reference").unwrap();
        let mtx = read(&dev, &path, "double", "Csr").unwrap();
        assert_eq!(mtx.shape(), (2, 2));
        assert_eq!(mtx.nnz(), 3);
        let b = as_tensor(vec![1.0, 1.0], &dev, (2, 1), "double").unwrap();
        assert_eq!(mtx.spmv(&b).unwrap().to_vec(), vec![5.0, 2.0]);
    }

    #[test]
    fn write_read_roundtrip() {
        let dev = device("reference").unwrap();
        let m = SparseMatrix::from_triplets(
            &dev,
            (3, 3),
            &[(0, 1, 1.5), (2, 2, -2.0)],
            "double",
            "int32",
            "Coo",
        )
        .unwrap();
        let path = temp_path("rt.mtx");
        write(&m, &path).unwrap();
        let back = read(&dev, &path, "double", "Coo").unwrap();
        assert_eq!(back.to_dense().to_vec(), m.to_dense().to_vec());
    }

    /// 200 000 x 200 000 with ~3 nonzeros a row: 320 GB as a dense array, a
    /// few MB as stored entries — `write` must never densify.
    #[test]
    fn large_sparse_matrix_roundtrips_without_densifying() {
        let n = 200_000usize;
        let mut entries = Vec::with_capacity(3 * n);
        for i in 0..n {
            entries.push((i, i, 4.0 + (i % 7) as f64));
            if i > 0 {
                entries.push((i, i - 1, -1.0));
            }
            entries.push((i, (i * 31 + 17) % n, 0.25));
        }
        let dev = device("reference").unwrap();
        let m =
            SparseMatrix::from_triplets(&dev, (n, n), &entries, "double", "int32", "Csr").unwrap();
        let path = temp_path("large.mtx");
        write(&m, &path).unwrap();
        let back = read(&dev, &path, "double", "Csr").unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.shape(), (n, n));
        assert_eq!(back.nnz(), m.nnz());
        assert!(
            m.nnz() > 2 * n && m.nnz() < 3 * n,
            "{} stored entries",
            m.nnz()
        );
        assert_eq!(back.to_triplets(), m.to_triplets());
    }

    #[test]
    fn missing_file_is_os_error() {
        let dev = device("reference").unwrap();
        let err = read(&dev, "/definitely/not/here.mtx", "double", "Csr").unwrap_err();
        assert!(matches!(err, PyGinkgoError::Os(_)), "{err}");
    }

    #[test]
    fn malformed_file_is_value_error() {
        let path = temp_path("bad.mtx");
        std::fs::write(&path, "this is not matrix market\n").unwrap();
        let dev = device("reference").unwrap();
        let err = read(&dev, &path, "double", "Csr").unwrap_err();
        assert!(matches!(err, PyGinkgoError::Value(_)), "{err}");
    }
}
