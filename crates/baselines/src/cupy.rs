//! CuPy analog.
//!
//! SpMV: the cuSPARSE-style *vector* CSR kernel — one warp per row. Short
//! rows waste warp lanes, which is the structural reason the paper measures
//! CuPy 3–4x behind pyGinkgo's nnz-balanced kernel on typical sparse
//! matrices while remaining competitive on long-row matrices.
//!
//! GMRES: implements the three differences §6.2.1 enumerates relative to
//! Ginkgo: (1) the Hessenberg least-squares problem is solved on the *CPU*
//! (charging a device-to-host transfer per inner step instead of Ginkgo's
//! small device kernels), (2) via orthonormal-projection normal equations
//! rather than incremental Givens rotations, and (3) the residual is checked
//! only after the full restart cycle, saving `restart - 1` checks.

use crate::overhead::CUPY_NS;
use crate::{Library, LibraryCsr};
use gko::base::dim::Dim2;
use gko::base::error::Result;
use gko::base::types::{Index, Value};
use gko::linop::LinOp;
use gko::log::ConvergenceLogger;
use gko::matrix::{Csr, Dense};
use gko::stop::{Criteria, StopReason};
use gko::Executor;
use pygko_sim::ChunkWork;
use std::sync::Arc;

/// Effective-bandwidth efficiency of the generic cuSPARSE vector kernel
/// relative to a matrix-tuned SpMV (published A100 cuSPARSE measurements
/// reach ~70-80% of a tuned kernel's throughput even on long rows).
const CUSPARSE_INEFFICIENCY: f64 = 1.3;

/// cuSPARSE-style CSR SpMV: one warp per row.
pub type CupyCsr<V, I = i32> = LibraryCsr<V, I, Cupy>;

/// CuPy's cost model (the library slot of [`CupyCsr`]).
pub struct Cupy;

impl Library for Cupy {
    const NAME: &'static str = "cupy::csr";
    const OVERHEAD_NS: f64 = CUPY_NS;

    /// Warp-per-row cost: each row occupies a whole warp, so its effective
    /// element count is padded up to the warp width; rows are batched into
    /// thread-block-sized chunks.
    fn work<V: Value, I: Index>(matrix: &Csr<V, I>) -> Vec<ChunkWork> {
        let spec = matrix.executor().spec();
        let warp = spec.simd_width.max(1);
        let rp = matrix.row_ptrs();
        let rows = matrix.size().rows;
        let rows_per_block = 8; // 8 warps per thread block
        let mut chunks = Vec::with_capacity(rows.div_ceil(rows_per_block));
        let mut r = 0usize;
        while r < rows {
            let hi = (r + rows_per_block).min(rows);
            let mut w = ChunkWork::default();
            for row in r..hi {
                let nnz = rp[row + 1].to_usize() - rp[row].to_usize();
                // One warp per row, lanes in lockstep: a row shorter than
                // the warp still occupies the full warp for every memory
                // round — the vector kernel's short-row tax (the reason the
                // paper measures CuPy 3-4x behind on typical sparse rows).
                let padded = nnz.div_ceil(warp).max(1) * warp;
                w.absorb(&ChunkWork::new(
                    (padded as f64 * (V::BYTES + I::BYTES) as f64 + (I::BYTES + V::BYTES) as f64)
                        * CUSPARSE_INEFFICIENCY,
                    padded as f64 * V::BYTES as f64 * CUSPARSE_INEFFICIENCY,
                    2.0 * nnz as f64,
                ));
            }
            chunks.push(w);
            r = hi;
        }
        chunks
    }
}

/// CuPy's restarted GMRES (no preconditioning — CuPy has none natively).
pub struct CupyGmres<V: Value, I: Index = i32> {
    system: Arc<CupyCsr<V, I>>,
    krylov_dim: usize,
    criteria: Criteria,
    logger: ConvergenceLogger,
}

impl<V: Value, I: Index> CupyGmres<V, I> {
    /// Builds the solver with restart length `krylov_dim`.
    pub fn new(matrix: Arc<Csr<V, I>>, krylov_dim: usize, criteria: Criteria) -> Self {
        CupyGmres {
            system: Arc::new(CupyCsr::new(matrix)),
            krylov_dim: krylov_dim.max(1),
            criteria,
            logger: ConvergenceLogger::new(),
        }
    }

    /// The convergence logger.
    pub fn logger(&self) -> &ConvergenceLogger {
        &self.logger
    }

    /// Device-to-host transfer of one Hessenberg column (the per-step CPU
    /// synchronization CuPy pays for its host-side least squares).
    fn charge_host_sync(&self, exec: &Executor, column_len: usize) {
        let bytes = column_len * 8;
        let t = exec.spec().copy_time_ns(bytes);
        exec.timeline().charge_copy(t, bytes);
    }

    /// Fused GEMV-style orthogonalization charge: CuPy performs `V^T w` and
    /// `w -= V h` as two cuBLAS calls, not 2(j+1) vector kernels.
    fn charge_fused_gs(&self, exec: &Executor, n: usize, cols: usize) {
        let spec = exec.spec();
        let chunks = spec.workers.min(n.max(1));
        let bytes = (cols * n * V::BYTES + n * V::BYTES) as f64;
        let flops = (2 * cols * n) as f64;
        let work: Vec<ChunkWork> = (0..chunks)
            .map(|_| ChunkWork::new(bytes / chunks as f64, 0.0, flops / chunks as f64))
            .collect();
        exec.launch(&work);
        exec.launch(&work);
    }
}

/// Virtual cost of CuPy's eager Python iteration loop: each solver iteration
/// makes `python_calls` CuPy API calls (dispatch + descriptor handling) and
/// `host_syncs` device-to-host scalar reads (the `rho`/`alpha` values the
/// Python control flow branches on). Ginkgo's C++ iteration has neither —
/// the structural source of the paper's Fig. 3c speedups at low NNZ.
pub(crate) fn iteration_tax_ns(exec: &Executor, python_calls: usize, host_syncs: usize) -> f64 {
    python_calls as f64 * CUPY_NS + host_syncs as f64 * exec.spec().copy_time_ns(8)
}

/// An engine Krylov solver run "from CuPy": the algorithm and kernels are
/// identical, but every iteration additionally pays the Python-loop tax.
pub struct CupyKrylov<V: Value> {
    inner: Arc<dyn LinOp<V>>,
    logger: ConvergenceLogger,
    python_calls: usize,
    host_syncs: usize,
}

impl<V: Value> CupyKrylov<V> {
    /// CuPy's `cupyx.scipy.sparse.linalg.cg` (~20 API calls and 4 scalar
    /// reads per iteration, counting the dispatch inside fused helpers).
    pub fn cg<I: Index>(matrix: Arc<Csr<V, I>>, criteria: Criteria) -> Result<Self> {
        let system: Arc<dyn LinOp<V>> = Arc::new(CupyCsr::new(matrix));
        let s = gko::solver::Cg::new(system)?.with_criteria(criteria);
        let logger = s.logger().clone();
        Ok(CupyKrylov {
            inner: Arc::new(s),
            logger,
            python_calls: 20,
            host_syncs: 4,
        })
    }

    /// CuPy's CGS: the most Python-heavy of the three loops — roughly three
    /// times CG's array operations plus per-iteration scalar branches
    /// (~60 API crossings, 8 scalar reads) — the reason the paper measures
    /// the largest speedups for CGS, up to 4x at low NNZ.
    pub fn cgs<I: Index>(matrix: Arc<Csr<V, I>>, criteria: Criteria) -> Result<Self> {
        let system: Arc<dyn LinOp<V>> = Arc::new(CupyCsr::new(matrix));
        let s = gko::solver::Cgs::new(system)?.with_criteria(criteria);
        let logger = s.logger().clone();
        Ok(CupyKrylov {
            inner: Arc::new(s),
            logger,
            python_calls: 60,
            host_syncs: 8,
        })
    }

    /// The convergence logger.
    pub fn logger(&self) -> &ConvergenceLogger {
        &self.logger
    }
}

impl<V: Value> LinOp<V> for CupyKrylov<V> {
    fn size(&self) -> Dim2 {
        self.inner.size()
    }
    fn executor(&self) -> &Executor {
        self.inner.executor()
    }
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.inner.apply(b, x)?;
        let iters = self.logger.snapshot().iterations;
        let exec = self.inner.executor();
        exec.timeline()
            .advance_ns(iteration_tax_ns(exec, self.python_calls, self.host_syncs) * iters as f64);
        Ok(())
    }
    fn op_name(&self) -> &'static str {
        "cupy::krylov"
    }
}

impl<V: Value, I: Index> LinOp<V> for CupyGmres<V, I> {
    fn size(&self) -> Dim2 {
        self.system.size()
    }

    fn executor(&self) -> &Executor {
        self.system.executor()
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        let exec = x.executor().clone();
        let n = self.size().rows;
        let dim = Dim2::new(n, 1);
        let m = self.krylov_dim;

        let mut r = Dense::zeros(&exec, dim);
        r.copy_from(b)?;
        self.system
            .apply_advanced(V::from_f64(-1.0), x, V::one(), &mut r)?;
        let baseline = r.compute_norm2();
        self.logger.begin(baseline);
        if let Some(reason) = self.criteria.check(0, baseline, baseline) {
            self.logger.finish(0, reason);
            return Ok(());
        }

        let mut total_iters = 0usize;
        loop {
            r.copy_from(b)?;
            self.system
                .apply_advanced(V::from_f64(-1.0), x, V::one(), &mut r)?;
            let beta = r.compute_norm2();
            if let Some(reason) = self.criteria.check(total_iters, beta, baseline) {
                self.logger.finish(total_iters, reason);
                return Ok(());
            }
            if beta == 0.0 || !beta.is_finite() {
                self.logger.finish(total_iters, StopReason::Breakdown);
                return Ok(());
            }

            let mut basis: Vec<Dense<V>> = Vec::with_capacity(m + 1);
            let mut v0 = r.clone();
            v0.scale(V::from_f64(1.0 / beta));
            basis.push(v0);
            // Hessenberg held on the host (CPU-side least squares).
            let mut h: Vec<Vec<f64>> = Vec::with_capacity(m);
            let mut w = Dense::zeros(&exec, dim);
            let mut steps = 0usize;

            for j in 0..m {
                total_iters += 1;
                steps = j + 1;
                self.system.apply(&basis[j], &mut w)?;
                // Fused GEMV-style Gram-Schmidt (two cuBLAS calls) instead
                // of per-vector kernels.
                let mut col = vec![0.0f64; j + 2];
                {
                    let ws = w.as_mut_slice();
                    for (i, vi) in basis.iter().enumerate().take(j + 1) {
                        let vs = vi.as_slice();
                        let mut hij = 0.0f64;
                        for (wk, vk) in ws.iter().zip(vs) {
                            hij += wk.to_f64() * vk.to_f64();
                        }
                        col[i] = hij;
                        let coeff = V::from_f64(-hij);
                        for (wk, &vk) in ws.iter_mut().zip(vs) {
                            *wk += coeff * vk;
                        }
                    }
                }
                self.charge_fused_gs(&exec, n, j + 1);
                let h_next = w.compute_norm2();
                col[j + 1] = h_next;
                // Ship the column to the CPU (difference 1 of §6.2.1)
                // and pay the Python loop for this iteration.
                self.charge_host_sync(&exec, j + 2);
                exec.timeline().advance_ns(iteration_tax_ns(&exec, 6, 0));
                h.push(col);
                if h_next == 0.0 {
                    break;
                }
                let mut v_next = w.clone();
                v_next.scale(V::from_f64(1.0 / h_next));
                basis.push(v_next);
                if total_iters >= self.criteria.max_iters {
                    break;
                }
            }

            // CPU-side least squares via normal equations of the projection
            // (difference 2: no incremental Givens, re-solved per cycle).
            let y = host_least_squares(&h, beta, steps);
            let mut update = Dense::zeros(&exec, dim);
            for (yi, vi) in y.iter().zip(basis.iter()).take(steps) {
                update.add_scaled(V::from_f64(*yi), vi)?;
            }
            x.add_scaled(V::one(), &update)?;

            // Residual checked only now, after the full cycle (difference 3).
            r.copy_from(b)?;
            self.system
                .apply_advanced(V::from_f64(-1.0), x, V::one(), &mut r)?;
            let res = r.compute_norm2();
            self.logger.record_residual(total_iters, res);
            if let Some(reason) = self.criteria.check(total_iters, res, baseline) {
                self.logger.finish(total_iters, reason);
                return Ok(());
            }
            if total_iters >= self.criteria.max_iters {
                self.logger.finish(total_iters, StopReason::MaxIterations);
                return Ok(());
            }
        }
    }

    fn op_name(&self) -> &'static str {
        "cupy::gmres"
    }
}

/// Solves `min || H y - beta e1 ||` on the host for the (steps+1) x steps
/// Hessenberg column set, via normal equations (CuPy's projection approach).
fn host_least_squares(h: &[Vec<f64>], beta: f64, steps: usize) -> Vec<f64> {
    let rows = steps + 1;
    // Dense H (rows x steps) from the column list.
    let mut hd = vec![0.0f64; rows * steps];
    for (j, col) in h.iter().enumerate().take(steps) {
        for (i, &v) in col.iter().enumerate() {
            if i < rows {
                hd[i * steps + j] = v;
            }
        }
    }
    // Normal equations: (H^T H) y = H^T (beta e1).
    let mut hth = vec![0.0f64; steps * steps];
    let mut rhs = vec![0.0f64; steps];
    for a in 0..steps {
        rhs[a] = hd[a] * beta; // H^T e1 row 0 only
        for bcol in 0..steps {
            let mut acc = 0.0;
            for i in 0..rows {
                acc += hd[i * steps + a] * hd[i * steps + bcol];
            }
            hth[a * steps + bcol] = acc;
        }
    }
    // Gaussian elimination with partial pivoting on the small host system.
    match gko::factorization::DenseLu::factor(steps, &hth).and_then(|lu| lu.solve(&rhs)) {
        Ok(y) => y,
        Err(_) => vec![0.0; steps],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_executor;

    fn system(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.5));
            }
            if i + 1 < n {
                t.push((i, i + 1, -0.5));
            }
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn cupy_spmv_matches_engine_numerics() {
        let exec = gpu_executor("CuPy");
        let a = system(&exec, 64);
        let cupy = CupyCsr::new(a.clone());
        let b = Dense::<f64>::vector(&exec, 64, 1.0);
        let mut x1 = Dense::zeros(&exec, Dim2::new(64, 1));
        let mut x2 = Dense::zeros(&exec, Dim2::new(64, 1));
        cupy.apply(&b, &mut x1).unwrap();
        a.apply(&b, &mut x2).unwrap();
        assert_eq!(x1.to_host_vec(), x2.to_host_vec());
    }

    #[test]
    fn warp_padding_makes_short_rows_expensive() {
        // A short-row matrix (3 nnz/row) should cost much more per nnz on
        // the warp-per-row kernel than on the engine's nnz-balanced kernel.
        let exec = gpu_executor("CuPy");
        let a = system(&exec, 50_000);
        let cupy = CupyCsr::new(a.clone());
        let b = Dense::<f64>::vector(&exec, 50_000, 1.0);
        let mut x = Dense::zeros(&exec, Dim2::new(50_000, 1));

        let t0 = exec.timeline().snapshot();
        cupy.apply(&b, &mut x).unwrap();
        let cupy_ns = exec.timeline().snapshot().since(&t0).ns;

        let gk = Executor::cuda(0);
        let a2 = a.clone_to(&gk);
        let b2 = Dense::<f64>::vector(&gk, 50_000, 1.0);
        let mut x2 = Dense::zeros(&gk, Dim2::new(50_000, 1));
        // Warm up so the engine's one-time plan build stays outside the
        // timed window — the paper compares steady-state SpMV.
        a2.apply(&b2, &mut x2).unwrap();
        let t0 = gk.timeline().snapshot();
        a2.apply(&b2, &mut x2).unwrap();
        let gko_ns = gk.timeline().snapshot().since(&t0).ns;

        let ratio = cupy_ns as f64 / gko_ns as f64;
        assert!(
            (2.0..20.0).contains(&ratio),
            "paper: CuPy 3-4x slower; modeled ratio {ratio}"
        );
    }

    #[test]
    fn cupy_gmres_converges_and_checks_once_per_cycle() {
        let exec = gpu_executor("CuPy");
        let a = system(&exec, 60);
        let solver = CupyGmres::new(a.clone(), 30, Criteria::iterations_and_reduction(300, 1e-8));
        let b = Dense::<f64>::vector(&exec, 60, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 60, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(rec.converged(), "{:?}", rec.stop_reason);
        // Residual history has ~one entry per restart cycle, not per
        // iteration (difference 3 of §6.2.1).
        assert!(
            rec.residual_history.len() <= rec.iterations / 15 + 2,
            "history {} vs iterations {}",
            rec.residual_history.len(),
            rec.iterations
        );
        // True residual is small.
        let mut r = Dense::zeros(&exec, Dim2::new(60, 1));
        r.copy_from(&b).unwrap();
        a.apply_advanced(-1.0, &x, 1.0, &mut r).unwrap();
        assert!(r.compute_norm2() < 1e-5, "residual {}", r.compute_norm2());
    }

    #[test]
    fn cupy_gmres_fixed_iterations_is_cheaper_per_iteration_than_ginkgo() {
        // §6.2.1: with a fixed iteration count CuPy's GMRES is slightly
        // faster than Ginkgo's (CPU Hessenberg beats device kernels at
        // small sizes; no per-iteration residual checks).
        let iters = 60;
        let exec = gpu_executor("CuPy");
        let a = system(&exec, 1000);
        let solver = CupyGmres::new(a.clone(), 30, Criteria::iterations(iters));
        let b = Dense::<f64>::vector(&exec, 1000, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 1000, 0.0);
        let t0 = exec.timeline().snapshot();
        solver.apply(&b, &mut x).unwrap();
        let cupy_ns = exec.timeline().snapshot().since(&t0).ns;

        let gk = Executor::cuda(0);
        let a2 = Arc::new(a.clone_to(&gk));
        let g = gko::solver::Gmres::new(a2 as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_krylov_dim(30)
            .with_criteria(Criteria::iterations(iters));
        let b2 = Dense::<f64>::vector(&gk, 1000, 1.0);
        let mut x2 = Dense::<f64>::vector(&gk, 1000, 0.0);
        let t0 = gk.timeline().snapshot();
        g.apply(&b2, &mut x2).unwrap();
        let gko_ns = gk.timeline().snapshot().since(&t0).ns;

        let ratio = gko_ns as f64 / cupy_ns as f64;
        assert!(
            (0.9..2.0).contains(&ratio),
            "Ginkgo/CuPy GMRES time ratio {ratio} should be slightly above 1"
        );
    }
}
