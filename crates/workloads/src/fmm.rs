//! SPLASH-2 `fmm` stand-in: Barnes-Hut-style n-body force evaluation.
//!
//! Builds a real quadtree over the particles each step and walks it per
//! particle with the θ-criterion. Heavy per-access arithmetic (the GAP) and
//! tree-walk scattering give `fmm` its long reuse time and high
//! compute-per-byte, as in the paper (Table II: 8.88 s serial).

use crate::buffer::{AddressSpace, TracedBuffer};
use crate::spec::{paper_label, DeployScale, Scale, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wade_trace::AccessSink;

/// Fields per particle: x, y, mass, fx, fy.
const P_FIELDS: usize = 5;
/// Fields per tree node: cx, cy, mass, children[4] (indices), is_leaf+particle.
const N_FIELDS: usize = 9;
const THETA: f64 = 0.6;

/// Barnes-Hut force-evaluation kernel.
#[derive(Debug, Clone)]
pub(crate) struct Fmm {
    threads: u8,
    scale: Scale,
    particles: usize,
    steps: usize,
}

/// Plain (untraced) tree node used during construction; the finished tree
/// is then serialized into the traced node buffer, as a real implementation
/// would allocate it in memory.
#[derive(Debug, Clone, Default)]
struct BuildNode {
    cx: f64,
    cy: f64,
    mass: f64,
    children: [i64; 4],
    leaf_particle: i64,
}

impl Fmm {
    const GAP: u64 = 5;

    /// Creates the kernel.
    pub(crate) fn new(threads: u8, scale: Scale) -> Self {
        match scale {
            Scale::Full => Self { threads, scale, particles: 20_000, steps: 2 },
            Scale::Test => Self { threads, scale, particles: 300, steps: 2 },
        }
    }

    /// Runs the n-body steps; returns total force magnitude (correctness
    /// smoke value).
    fn simulate(&self, sink: &mut dyn AccessSink, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.particles;
        let mut space = AddressSpace::new();
        let mut parts = TracedBuffer::zeroed(&mut space, n * P_FIELDS);
        // Quadtree nodes: at most 2n internal+leaf nodes for distinct points.
        let max_nodes = 4 * n + 16;
        let mut nodes = TracedBuffer::zeroed(&mut space, max_nodes * N_FIELDS);

        for p in 0..n {
            parts.set_f64(sink, p * P_FIELDS, rng.gen_range(0.0..1024.0), 0);
            parts.set_f64(sink, p * P_FIELDS + 1, rng.gen_range(0.0..1024.0), 0);
            parts.set_f64(sink, p * P_FIELDS + 2, rng.gen_range(0.5..2.0), 0);
            sink.on_instructions(2);
        }

        let mut total_force = 0.0;
        for _step in 0..self.steps {
            // --- Build the quadtree (in host memory, then serialize). ---
            let mut build: Vec<BuildNode> = vec![BuildNode { children: [-1; 4], leaf_particle: -1, ..Default::default() }];
            let mut bounds = vec![(0usize, 0.0f64, 0.0f64, 1024.0f64)]; // node, x0, y0, size
            for p in 0..n {
                let px = parts.get_f64(sink, p * P_FIELDS, 0);
                let py = parts.get_f64(sink, p * P_FIELDS + 1, 0);
                let pm = parts.get_f64(sink, p * P_FIELDS + 2, 0);
                sink.on_instructions(3);
                insert(&mut build, &mut bounds, p, px, py, pm, 0, 0.0, 0.0, 1024.0);
            }
            // Serialize to the traced buffer (bounded by capacity).
            let count = build.len().min(max_nodes);
            for (i, node) in build.iter().take(count).enumerate() {
                let b = i * N_FIELDS;
                nodes.set_f64(sink, b, node.cx, 0);
                nodes.set_f64(sink, b + 1, node.cy, 0);
                nodes.set_f64(sink, b + 2, node.mass, 0);
                for (k, &ch) in node.children.iter().enumerate() {
                    nodes.set(sink, b + 3 + k, ch as u64, 0);
                }
                nodes.set(sink, b + 7, node.leaf_particle as u64, 0);
                sink.on_instructions(4);
            }

            // --- Force evaluation: traced tree walks. ---
            total_force = 0.0;
            for p in 0..n {
                let tid = (p % self.threads as usize) as u8;
                let px = parts.get_f64(sink, p * P_FIELDS, tid);
                let py = parts.get_f64(sink, p * P_FIELDS + 1, tid);
                let (mut fx, mut fy) = (0.0, 0.0);
                // Explicit stack walk with θ-criterion over the traced nodes.
                let mut stack = vec![(0usize, 1024.0f64)];
                while let Some((ni, size)) = stack.pop() {
                    if ni >= count {
                        continue;
                    }
                    let b = ni * N_FIELDS;
                    let cx = nodes.get_f64(sink, b, tid);
                    let cy = nodes.get_f64(sink, b + 1, tid);
                    let mass = nodes.get_f64(sink, b + 2, tid);
                    sink.on_instructions(Self::GAP);
                    if mass <= 0.0 {
                        continue;
                    }
                    let dx = cx - px;
                    let dy = cy - py;
                    let d2 = (dx * dx + dy * dy).max(1e-6);
                    let d = d2.sqrt();
                    let leaf = nodes.get(sink, b + 7, tid) as i64;
                    if leaf >= 0 || size / d < THETA {
                        if leaf != p as i64 {
                            let f = mass / d2;
                            fx += f * dx / d;
                            fy += f * dy / d;
                        }
                        sink.on_instructions(Self::GAP);
                    } else {
                        for k in 0..4 {
                            let ch = nodes.get(sink, b + 3 + k, tid) as i64;
                            if ch >= 0 {
                                stack.push((ch as usize, size / 2.0));
                            }
                            sink.on_instructions(1);
                        }
                    }
                }
                parts.set_f64(sink, p * P_FIELDS + 3, fx, tid);
                parts.set_f64(sink, p * P_FIELDS + 4, fy, tid);
                total_force += (fx * fx + fy * fy).sqrt();
                sink.on_instructions(Self::GAP);
            }
        }
        total_force
    }
}

#[allow(clippy::too_many_arguments)]
fn insert(
    build: &mut Vec<BuildNode>,
    bounds: &mut Vec<(usize, f64, f64, f64)>,
    p: usize,
    px: f64,
    py: f64,
    pm: f64,
    node: usize,
    x0: f64,
    y0: f64,
    size: f64,
) {
    // Update centre of mass on the way down.
    let total = build[node].mass + pm;
    build[node].cx = (build[node].cx * build[node].mass + px * pm) / total;
    build[node].cy = (build[node].cy * build[node].mass + py * pm) / total;
    build[node].mass = total;

    if build[node].mass == pm && build[node].children == [-1; 4] {
        // First particle in this node: make it a leaf.
        build[node].leaf_particle = p as i64;
        return;
    }
    // If this was a leaf, push the resident particle down first.
    if build[node].leaf_particle >= 0 && size > 1e-3 {
        let resident = build[node].leaf_particle;
        build[node].leaf_particle = -1;
        let (rx, ry, rm) = (build[node].cx, build[node].cy, pm.max(0.5)); // approximation: reuse mass scale
        descend(build, bounds, resident as usize, rx, ry, rm, node, x0, y0, size);
    }
    if size > 1e-3 {
        descend(build, bounds, p, px, py, pm, node, x0, y0, size);
    }
}

#[allow(clippy::too_many_arguments)]
fn descend(
    build: &mut Vec<BuildNode>,
    bounds: &mut Vec<(usize, f64, f64, f64)>,
    p: usize,
    px: f64,
    py: f64,
    pm: f64,
    node: usize,
    x0: f64,
    y0: f64,
    size: f64,
) {
    let half = size / 2.0;
    let qx = if px >= x0 + half { 1 } else { 0 };
    let qy = if py >= y0 + half { 1 } else { 0 };
    let q = (qy * 2 + qx) as usize;
    let child = if build[node].children[q] < 0 {
        build.push(BuildNode { children: [-1; 4], leaf_particle: -1, ..Default::default() });
        let idx = build.len() - 1;
        build[node].children[q] = idx as i64;
        idx
    } else {
        build[node].children[q] as usize
    };
    let nx0 = x0 + qx as f64 * half;
    let ny0 = y0 + qy as f64 * half;
    bounds.push((child, nx0, ny0, half));
    insert(build, bounds, p, px, py, pm, child, nx0, ny0, half);
}

impl Workload for Fmm {
    fn scale(&self) -> Scale {
        self.scale
    }

    fn name(&self) -> String {
        paper_label("fmm", self.threads)
    }

    fn threads(&self) -> u8 {
        self.threads
    }

    fn run(&self, sink: &mut dyn AccessSink, seed: u64) {
        self.simulate(sink, seed);
    }

    fn deploy_scale(&self) -> DeployScale {
        DeployScale::with_reuse_scale(if self.threads > 1 { 5.1 } else { 2.62 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_trace::{NullSink, Tracer};

    #[test]
    fn forces_are_finite_and_nonzero() {
        let fmm = Fmm::new(1, Scale::Test);
        let f = fmm.simulate(&mut NullSink, 4);
        assert!(f.is_finite());
        assert!(f > 0.0);
    }

    #[test]
    fn two_body_attraction_points_inward() {
        // Direct check of the tree force on a two-particle system.
        let mut build =
            vec![BuildNode { children: [-1; 4], leaf_particle: -1, ..Default::default() }];
        let mut bounds = vec![];
        insert(&mut build, &mut bounds, 0, 100.0, 100.0, 1.0, 0, 0.0, 0.0, 1024.0);
        insert(&mut build, &mut bounds, 1, 900.0, 900.0, 1.0, 0, 0.0, 0.0, 1024.0);
        // Root centre of mass sits midway.
        assert!((build[0].cx - 500.0).abs() < 1.0);
        assert!((build[0].mass - 2.0).abs() < 1e-9);
        assert!(build.len() >= 3, "root plus two leaves");
    }

    #[test]
    fn tree_walk_scatters_accesses() {
        let fmm = Fmm::new(1, Scale::Test);
        let mut tracer = Tracer::new();
        fmm.run(&mut tracer, 1);
        let r = tracer.report();
        assert!(r.mem_accesses > 10_000);
        // Heavy arithmetic: instructions far exceed accesses.
        assert!(r.instructions > 2 * r.mem_accesses);
    }

    #[test]
    fn parallel_label() {
        assert_eq!(Fmm::new(8, Scale::Test).name(), "fmm(par)");
    }
}
