//! LULESH-like hydrodynamics proxy for the compiler-flag study (Fig. 13).
//!
//! A 3-D staggered-grid kernel: per step, element pressures are computed
//! from nodal state, forces gathered back to nodes, then positions
//! integrated. Two build variants model the paper's `-O2` vs `-F`
//! (aggressive) compilations: the aggressive build keeps re-used operands
//! in registers (fewer redundant loads) and schedules tighter code (fewer
//! non-memory instructions per access) — which *raises* its memory accesses
//! per cycle, the feature that drives WER up in the paper's model.

use crate::buffer::{AddressSpace, TracedBuffer};
use crate::spec::{DeployScale, Scale, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wade_trace::AccessSink;

/// Compiler-optimisation variant of the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LuleshOpt {
    /// Default optimisations (`-O2`): some operands re-loaded each use.
    O2,
    /// Aggressive optimisations (`-F`): register reuse, tighter schedule.
    Aggressive,
}

/// Hydrodynamics proxy kernel.
#[derive(Debug, Clone)]
pub(crate) struct Lulesh {
    threads: u8,
    scale: Scale,
    dim: usize,
    steps: usize,
    opt: LuleshOpt,
}

impl Lulesh {
    /// Creates the kernel with the given build variant.
    pub(crate) fn new(threads: u8, scale: Scale, opt: LuleshOpt) -> Self {
        match scale {
            Scale::Full => Self { threads, scale, dim: 28, steps: 5, opt },
            Scale::Test => Self { threads, scale, dim: 8, steps: 3, opt },
        }
    }

    fn gap(&self) -> u64 {
        match self.opt {
            LuleshOpt::O2 => 6,
            LuleshOpt::Aggressive => 2,
        }
    }

    fn at(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.dim + y) * self.dim + x
    }

    /// Runs the hydro steps; returns total energy (smoke value).
    fn hydro(&self, sink: &mut dyn AccessSink, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.dim * self.dim * self.dim;
        let mut space = AddressSpace::new();
        let mut energy = TracedBuffer::zeroed(&mut space, n);
        let mut pressure = TracedBuffer::zeroed(&mut space, n);
        let mut velocity = TracedBuffer::zeroed(&mut space, n);
        let mut position = TracedBuffer::zeroed(&mut space, n);

        for i in 0..n {
            energy.set_f64(sink, i, 1.0 + rng.gen_range(0.0..0.1), 0);
            position.set_f64(sink, i, i as f64, 0);
            sink.on_instructions(2);
        }
        // A hot spot in the corner drives the shock.
        energy.set_f64(sink, 0, 10.0, 0);

        let gap = self.gap();
        let redundant_loads = matches!(self.opt, LuleshOpt::O2);
        for _step in 0..self.steps {
            // EOS: pressure from energy.
            for z in 0..self.dim {
                let tid = (z % self.threads as usize) as u8;
                for y in 0..self.dim {
                    for x in 0..self.dim {
                        let i = self.at(x, y, z);
                        let e = energy.get_f64(sink, i, tid);
                        if redundant_loads {
                            // -O2: the compiler re-loads energy for the
                            // second use instead of keeping it live.
                            let _e2 = energy.get_f64(sink, i, tid);
                        }
                        pressure.set_f64(sink, i, (2.0 / 3.0) * e, tid);
                        sink.on_instructions(gap);
                    }
                }
            }
            // Force gather + integration (6-point stencil on pressure).
            for z in 0..self.dim {
                let tid = (z % self.threads as usize) as u8;
                for y in 0..self.dim {
                    for x in 0..self.dim {
                        let i = self.at(x, y, z);
                        let pc = pressure.get_f64(sink, i, tid);
                        let px = pressure.get_f64(sink, self.at(x.saturating_sub(1), y, z), tid);
                        let py = pressure.get_f64(sink, self.at(x, y.saturating_sub(1), z), tid);
                        let pz = pressure.get_f64(sink, self.at(x, y, z.saturating_sub(1)), tid);
                        let force = (px - pc) + (py - pc) + (pz - pc);
                        let v = velocity.get_f64(sink, i, tid);
                        let v_new = v + 0.01 * force;
                        velocity.set_f64(sink, i, v_new, tid);
                        if redundant_loads {
                            let _v2 = velocity.get_f64(sink, i, tid);
                        }
                        let p = position.get_f64(sink, i, tid);
                        position.set_f64(sink, i, p + 0.01 * v_new, tid);
                        // Energy update from work done.
                        let e = energy.get_f64(sink, i, tid);
                        energy.set_f64(sink, i, (e - 0.001 * pc * v_new).max(0.0), tid);
                        sink.on_instructions(gap * 2);
                    }
                }
            }
        }

        let mut total = 0.0;
        for i in 0..n {
            total += energy.get_f64(sink, i, 0);
            sink.on_instructions(1);
        }
        total
    }
}

impl Workload for Lulesh {
    fn scale(&self) -> Scale {
        self.scale
    }

    fn name(&self) -> String {
        match self.opt {
            LuleshOpt::O2 => "lulesh(O2)".to_string(),
            LuleshOpt::Aggressive => "lulesh(F)".to_string(),
        }
    }

    fn threads(&self) -> u8 {
        self.threads
    }

    fn run(&self, sink: &mut dyn AccessSink, seed: u64) {
        self.hydro(sink, seed);
    }

    fn deploy_scale(&self) -> DeployScale {
        DeployScale::with_reuse_scale(0.8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_trace::{NullSink, Tracer};

    #[test]
    fn energy_stays_finite_and_positive() {
        let l = Lulesh::new(1, Scale::Test, LuleshOpt::O2);
        let e = l.hydro(&mut NullSink, 3);
        assert!(e.is_finite());
        assert!(e > 0.0);
    }

    #[test]
    fn variants_compute_the_same_physics() {
        let o2 = Lulesh::new(1, Scale::Test, LuleshOpt::O2);
        let f = Lulesh::new(1, Scale::Test, LuleshOpt::Aggressive);
        let e1 = o2.hydro(&mut NullSink, 3);
        let e2 = f.hydro(&mut NullSink, 3);
        assert!((e1 - e2).abs() < 1e-9, "optimisation must not change results");
    }

    #[test]
    fn aggressive_build_is_memory_denser() {
        let o2 = Lulesh::new(1, Scale::Test, LuleshOpt::O2);
        let f = Lulesh::new(1, Scale::Test, LuleshOpt::Aggressive);
        let mut t1 = Tracer::new();
        o2.run(&mut t1, 1);
        let mut t2 = Tracer::new();
        f.run(&mut t2, 1);
        let r1 = t1.report();
        let r2 = t2.report();
        // -F: fewer instructions overall, fewer loads, higher intensity.
        assert!(r2.instructions < r1.instructions);
        assert!(r2.mem_accesses < r1.mem_accesses);
        assert!(r2.access_intensity() > r1.access_intensity());
    }

    #[test]
    fn labels_match_figure_13() {
        assert_eq!(Lulesh::new(8, Scale::Test, LuleshOpt::O2).name(), "lulesh(O2)");
        assert_eq!(Lulesh::new(8, Scale::Test, LuleshOpt::Aggressive).name(), "lulesh(F)");
    }
}
