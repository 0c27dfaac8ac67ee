//! 2-D convolution operator (the paper's "Outlook" feature).
//!
//! The paper's conclusion names "the integration of a convolution kernel,
//! which would allow Ginkgo and pyGinkgo to support key operations required
//! in image processing and convolutional neural networks" as future work on
//! the Ginkgo side. This module implements it: [`Conv2d`] is a [`LinOp`]
//! performing same-size zero-padded 2-D cross-correlation of a `kh x kw`
//! filter over an `h x w` image stored row-major in a column vector — so it
//! composes with every solver and preconditioner like any other operator
//! (a convolution *is* a highly structured sparse matrix).

use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::Value;
use crate::executor::pool::{parallel_chunks, uniform_bounds};
use crate::executor::Executor;
use crate::linop::{check_operands, LinOp};
use crate::log::OpTimer;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use pygko_sim::ChunkWork;

/// Same-size zero-padded 2-D cross-correlation as a linear operator on
/// flattened `h x w` images.
#[derive(Debug, Clone)]
pub struct Conv2d<V: Value> {
    exec: Executor,
    height: usize,
    width: usize,
    kh: usize,
    kw: usize,
    /// Row-major `kh x kw` filter taps.
    kernel: Vec<V>,
}

impl<V: Value> Conv2d<V> {
    /// Creates the operator for an `height x width` image and a row-major
    /// `kh x kw` filter. Kernel dimensions must be odd (centered filter).
    pub fn new(
        exec: &Executor,
        (height, width): (usize, usize),
        (kh, kw): (usize, usize),
        kernel: Vec<V>,
    ) -> Result<Self> {
        if height == 0 || width == 0 {
            return Err(GkoError::BadInput("image must be non-empty".into()));
        }
        if kh.is_multiple_of(2) || kw.is_multiple_of(2) {
            return Err(GkoError::BadInput(format!(
                "kernel dimensions must be odd, got {kh} x {kw}"
            )));
        }
        if kernel.len() != kh * kw {
            return Err(GkoError::BadInput(format!(
                "kernel buffer has {} taps, expected {}",
                kernel.len(),
                kh * kw
            )));
        }
        Ok(Conv2d {
            exec: exec.clone(),
            height,
            width,
            kh,
            kw,
            kernel,
        })
    }

    /// Image dimensions.
    pub fn image_size(&self) -> (usize, usize) {
        (self.height, self.width)
    }

    /// Filter dimensions.
    pub fn kernel_size(&self) -> (usize, usize) {
        (self.kh, self.kw)
    }

    /// Materializes the equivalent sparse matrix (for testing and for
    /// feeding convolutions into solver pipelines that need explicit CSR).
    pub fn to_csr(&self) -> Csr<V, i32> {
        let (h, w) = (self.height, self.width);
        let (rh, rw) = (self.kh / 2, self.kw / 2);
        let mut triplets = Vec::with_capacity(h * w * self.kh * self.kw);
        for oy in 0..h {
            for ox in 0..w {
                let row = oy * w + ox;
                for ky in 0..self.kh {
                    for kx in 0..self.kw {
                        let iy = oy as isize + ky as isize - rh as isize;
                        let ix = ox as isize + kx as isize - rw as isize;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        let v = self.kernel[ky * self.kw + kx];
                        if v != V::zero() {
                            triplets.push((row, iy as usize * w + ix as usize, v));
                        }
                    }
                }
            }
        }
        Csr::from_triplets(&self.exec, Dim2::square(h * w), &triplets)
            // lint: allow(panic): triplets are built from in-range stencil
            // offsets, so the CSR constructor cannot reject them.
            .expect("stencil triplets are valid")
    }

    fn work(&self) -> Vec<ChunkWork> {
        let n = self.height * self.width;
        let taps = (self.kh * self.kw) as f64;
        let spec = self.exec.spec();
        let bounds = uniform_bounds(n, spec.workers * 2);
        bounds
            .windows(2)
            .map(|win| {
                let rows = (win[1] - win[0]) as f64;
                // Stencils stream the input with high locality: the taps
                // re-read cached neighbours, so charge one streamed read per
                // output plus a per-tap cache-resident cost.
                ChunkWork::new(
                    rows * (2.0 * V::BYTES as f64) + rows * taps * 0.5,
                    0.0,
                    rows * 2.0 * taps,
                )
            })
            .collect()
    }
}

impl<V: Value> LinOp<V> for Conv2d<V> {
    fn size(&self) -> Dim2 {
        Dim2::square(self.height * self.width)
    }

    fn executor(&self) -> &Executor {
        &self.exec
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size(), &self.exec, b, x)?;
        let _timer = OpTimer::new(&self.exec, "conv2d");
        let (h, w) = (self.height, self.width);
        let k = b.size().cols;
        let (rh, rw) = (self.kh / 2, self.kw / 2);
        let bv = b.as_slice();
        let kernel: Vec<f64> = self.kernel.iter().map(|v| v.to_f64()).collect();
        let (kh, kw) = (self.kh, self.kw);

        let work = self.work();
        let bounds = uniform_bounds(h * w, work.len());
        let elem_bounds: Vec<usize> = bounds.iter().map(|&r| r * k).collect();
        parallel_chunks(&self.exec, x.as_mut_slice(), &elem_bounds, |chunk, xs| {
            let out0 = bounds[chunk];
            for (local, xrow) in xs.chunks_mut(k).enumerate() {
                let out = out0 + local;
                let (oy, ox) = (out / w, out % w);
                for (c, slot) in xrow.iter_mut().enumerate() {
                    let mut acc = 0.0f64;
                    for ky in 0..kh {
                        let iy = oy as isize + ky as isize - rh as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = ox as isize + kx as isize - rw as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let pix = iy as usize * w + ix as usize;
                            acc += kernel[ky * kw + kx] * bv[pix * k + c].to_f64();
                        }
                    }
                    *slot = V::from_f64(acc);
                }
            }
        });
        self.exec.launch(&work);
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(exec: &Executor, h: usize, w: usize) -> Dense<f64> {
        let data: Vec<f64> = (0..h * w).map(|i| (i % 7) as f64 - 3.0).collect();
        Dense::from_vec(exec, Dim2::new(h * w, 1), data).unwrap()
    }

    #[test]
    fn identity_kernel_is_identity() {
        let exec = Executor::reference();
        let conv = Conv2d::new(&exec, (5, 6), (3, 3), {
            let mut k = vec![0.0; 9];
            k[4] = 1.0;
            k
        })
        .unwrap();
        let img = image(&exec, 5, 6);
        let mut out = Dense::zeros(&exec, Dim2::new(30, 1));
        conv.apply(&img, &mut out).unwrap();
        assert_eq!(out.to_host_vec(), img.to_host_vec());
    }

    #[test]
    fn shift_kernel_translates_with_zero_padding() {
        let exec = Executor::reference();
        // Tap at (0, 1) of a 3x3 kernel: output(y, x) = input(y-1, x).
        let mut k = vec![0.0; 9];
        k[1] = 1.0;
        let conv = Conv2d::new(&exec, (3, 3), (3, 3), k).unwrap();
        let data: Vec<f64> = (1..=9).map(|v| v as f64).collect();
        let img = Dense::from_vec(&exec, Dim2::new(9, 1), data).unwrap();
        let mut out = Dense::zeros(&exec, Dim2::new(9, 1));
        conv.apply(&img, &mut out).unwrap();
        assert_eq!(
            out.to_host_vec(),
            vec![0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
    }

    #[test]
    fn matches_explicit_sparse_matrix() {
        let exec = Executor::reference();
        // Laplacian stencil.
        let k = vec![0.0, -1.0, 0.0, -1.0, 4.0, -1.0, 0.0, -1.0, 0.0];
        let conv = Conv2d::new(&exec, (8, 7), (3, 3), k).unwrap();
        let csr = conv.to_csr();
        let img = image(&exec, 8, 7);
        let mut direct = Dense::zeros(&exec, Dim2::new(56, 1));
        let mut via_csr = Dense::zeros(&exec, Dim2::new(56, 1));
        conv.apply(&img, &mut direct).unwrap();
        csr.apply(&img, &mut via_csr).unwrap();
        for (a, b) in direct.to_host_vec().iter().zip(via_csr.to_host_vec()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn box_blur_preserves_constant_interior() {
        let exec = Executor::reference();
        let k = vec![1.0 / 9.0; 9];
        let conv = Conv2d::new(&exec, (6, 6), (3, 3), k).unwrap();
        let img = Dense::<f64>::vector(&exec, 36, 9.0);
        let mut out = Dense::zeros(&exec, Dim2::new(36, 1));
        conv.apply(&img, &mut out).unwrap();
        // Interior pixels average nine 9s; border pixels lose padding mass.
        assert!((out.at(7, 0) - 9.0).abs() < 1e-12);
        assert!(out.at(0, 0) < 9.0);
    }

    #[test]
    fn composes_with_solvers_as_a_linop() {
        // Solve (conv) x = b for the (diagonally dominant) blur operator —
        // deconvolution via BiCGStab, entirely through the LinOp interface.
        use crate::solver::BiCgStab;
        use crate::stop::Criteria;
        use std::sync::Arc;
        let exec = Executor::reference();
        let k = vec![0.0, 0.05, 0.0, 0.05, 0.8, 0.05, 0.0, 0.05, 0.0];
        let conv = Arc::new(Conv2d::new(&exec, (10, 10), (3, 3), k).unwrap());
        let x_true = image(&exec, 10, 10);
        let mut b = Dense::zeros(&exec, Dim2::new(100, 1));
        conv.apply(&x_true, &mut b).unwrap();
        let solver = BiCgStab::new(conv.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-12));
        let mut x = Dense::zeros(&exec, Dim2::new(100, 1));
        solver.apply(&b, &mut x).unwrap();
        for (got, want) in x.to_host_vec().iter().zip(x_true.to_host_vec()) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn invalid_kernels_are_rejected() {
        let exec = Executor::reference();
        assert!(Conv2d::<f64>::new(&exec, (4, 4), (2, 3), vec![0.0; 6]).is_err());
        assert!(Conv2d::<f64>::new(&exec, (4, 4), (3, 3), vec![0.0; 8]).is_err());
        assert!(Conv2d::<f64>::new(&exec, (0, 4), (3, 3), vec![0.0; 9]).is_err());
    }

    #[test]
    fn parallel_omp_matches_reference() {
        let exec_r = Executor::reference();
        let exec_o = Executor::omp(4);
        let k = vec![1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0];
        let conv_r = Conv2d::new(&exec_r, (9, 11), (3, 3), k.clone()).unwrap();
        let conv_o = Conv2d::new(&exec_o, (9, 11), (3, 3), k).unwrap();
        let img_r = image(&exec_r, 9, 11);
        let img_o = image(&exec_o, 9, 11);
        let mut out_r = Dense::zeros(&exec_r, Dim2::new(99, 1));
        let mut out_o = Dense::zeros(&exec_o, Dim2::new(99, 1));
        conv_r.apply(&img_r, &mut out_r).unwrap();
        conv_o.apply(&img_o, &mut out_o).unwrap();
        assert_eq!(out_r.to_host_vec(), out_o.to_host_vec());
    }
}
