//! Rodinia `srad`: speckle-reducing anisotropic diffusion.
//!
//! The real two-pass stencil: pass one computes the diffusion coefficient
//! from the local gradient, pass two updates the image. Each iteration
//! sweeps the whole grid, the classic stencil reuse pattern (Table II:
//! `Treuse ≈ 2.8 s`).

use crate::buffer::{AddressSpace, TracedBuffer};
use crate::spec::{paper_label, DeployScale, Scale, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wade_trace::AccessSink;

/// SRAD stencil kernel.
#[derive(Debug, Clone)]
pub(crate) struct Srad {
    threads: u8,
    scale: Scale,
    rows: usize,
    cols: usize,
    iterations: usize,
    lambda: f64,
}

impl Srad {
    const GAP: u64 = 4;

    /// Creates the kernel.
    pub(crate) fn new(threads: u8, scale: Scale) -> Self {
        match scale {
            Scale::Full => Self { threads, scale, rows: 448, cols: 448, iterations: 4, lambda: 0.5 },
            Scale::Test => Self { threads, scale, rows: 24, cols: 24, iterations: 3, lambda: 0.5 },
        }
    }

    fn at(&self, r: usize, c: usize) -> usize {
        r * self.cols + c
    }

    /// Runs diffusion; returns the final image mean for correctness checks.
    fn diffuse(&self, sink: &mut dyn AccessSink, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, cols) = (self.rows, self.cols);
        let mut space = AddressSpace::new();
        let mut image = TracedBuffer::zeroed(&mut space, rows * cols);
        let mut coeff = TracedBuffer::zeroed(&mut space, rows * cols);

        for i in 0..rows * cols {
            image.set_f64(sink, i, 100.0 + rng.gen_range(-20.0..20.0), 0);
            sink.on_instructions(1);
        }

        for _iter in 0..self.iterations {
            // Pass 1: diffusion coefficient from local statistics.
            for r in 0..rows {
                let tid = (r % self.threads as usize) as u8;
                for c in 0..cols {
                    let here = image.get_f64(sink, self.at(r, c), tid);
                    let north = image.get_f64(sink, self.at(r.saturating_sub(1), c), tid);
                    let south = image.get_f64(sink, self.at((r + 1).min(rows - 1), c), tid);
                    let west = image.get_f64(sink, self.at(r, c.saturating_sub(1)), tid);
                    let east = image.get_f64(sink, self.at(r, (c + 1).min(cols - 1)), tid);
                    let grad2 = ((north - here).powi(2)
                        + (south - here).powi(2)
                        + (west - here).powi(2)
                        + (east - here).powi(2))
                        / (here * here).max(1e-9);
                    let lap = (north + south + west + east - 4.0 * here) / here.max(1e-9);
                    let q = (0.5 * grad2 - 0.0625 * lap * lap) / (1.0 + 0.25 * lap).powi(2).max(1e-9);
                    let cval = 1.0 / (1.0 + q.max(0.0));
                    coeff.set_f64(sink, self.at(r, c), cval.clamp(0.0, 1.0), tid);
                    sink.on_instructions(Self::GAP * 2);
                }
            }
            // Pass 2: divergence update.
            for r in 0..rows {
                let tid = (r % self.threads as usize) as u8;
                for c in 0..cols {
                    let here = image.get_f64(sink, self.at(r, c), tid);
                    let cn = coeff.get_f64(sink, self.at(r.saturating_sub(1), c), tid);
                    let cs = coeff.get_f64(sink, self.at((r + 1).min(rows - 1), c), tid);
                    let cw = coeff.get_f64(sink, self.at(r, c.saturating_sub(1)), tid);
                    let ce = coeff.get_f64(sink, self.at(r, (c + 1).min(cols - 1)), tid);
                    let n = image.get_f64(sink, self.at(r.saturating_sub(1), c), tid);
                    let s = image.get_f64(sink, self.at((r + 1).min(rows - 1), c), tid);
                    let w = image.get_f64(sink, self.at(r, c.saturating_sub(1)), tid);
                    let e = image.get_f64(sink, self.at(r, (c + 1).min(cols - 1)), tid);
                    let div = cn * (n - here) + cs * (s - here) + cw * (w - here) + ce * (e - here);
                    image.set_f64(sink, self.at(r, c), here + 0.25 * self.lambda * div, tid);
                    sink.on_instructions(Self::GAP);
                }
            }
        }

        let mut sum = 0.0;
        for i in 0..rows * cols {
            sum += image.get_f64(sink, i, 0);
            sink.on_instructions(1);
        }
        sum / (rows * cols) as f64
    }
}

impl Workload for Srad {
    fn scale(&self) -> Scale {
        self.scale
    }

    fn name(&self) -> String {
        paper_label("srad", self.threads)
    }

    fn threads(&self) -> u8 {
        self.threads
    }

    fn run(&self, sink: &mut dyn AccessSink, seed: u64) {
        self.diffuse(sink, seed);
    }

    fn deploy_scale(&self) -> DeployScale {
        DeployScale::with_reuse_scale(if self.threads > 1 { 8.3 } else { 2.22 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_trace::{NullSink, Tracer};

    #[test]
    fn diffusion_preserves_mean_roughly() {
        let srad = Srad::new(1, Scale::Test);
        let mean = srad.diffuse(&mut NullSink, 5);
        // Diffusion smooths but does not shift the 100-level image much.
        assert!((mean - 100.0).abs() < 10.0, "mean {mean}");
    }

    #[test]
    fn diffusion_reduces_variance() {
        // Run the same image twice: once 0 iterations (just init+sum), once
        // with smoothing. Compare neighbouring-pixel deltas via entropy of
        // values is unreliable; instead check smoothing directly on a tiny
        // hand-rolled case through the public kernel with more iterations
        // producing a mean closer to 100.
        let rough = Srad { threads: 1, scale: Scale::Test, rows: 24, cols: 24, iterations: 1, lambda: 0.5 };
        let smooth = Srad { threads: 1, scale: Scale::Test, rows: 24, cols: 24, iterations: 6, lambda: 0.5 };
        let m1 = rough.diffuse(&mut NullSink, 9);
        let m2 = smooth.diffuse(&mut NullSink, 9);
        assert!((m2 - 100.0).abs() <= (m1 - 100.0).abs() + 0.5);
    }

    #[test]
    fn stencil_sweeps_whole_grid() {
        let srad = Srad::new(1, Scale::Test);
        let mut tracer = Tracer::new();
        srad.run(&mut tracer, 2);
        let r = tracer.report();
        assert!(r.unique_words >= (24 * 24 * 2) as u64);
        // 9+ touches per cell per iteration.
        assert!(r.mem_accesses > 9 * 24 * 24);
    }

    #[test]
    fn parallel_rows_use_threads() {
        let srad = Srad::new(8, Scale::Test);
        assert_eq!(srad.name(), "srad(par)");
        let mut tracer = Tracer::new();
        srad.run(&mut tracer, 2);
        assert!(tracer.report().mem_accesses > 0);
    }
}
