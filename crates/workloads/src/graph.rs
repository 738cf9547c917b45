//! Analytics kernels: PageRank, BFS and betweenness centrality over a
//! shared CSR graph substrate (the paper runs these via Ligra/GraphGrind).

use crate::buffer::{AddressSpace, TracedBuffer};
use crate::spec::{DeployScale, Scale, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use wade_trace::AccessSink;

/// A synthetic power-law graph in compressed-sparse-row form, stored in
/// traced buffers (offsets + edge targets), as a graph framework would lay
/// it out in memory.
#[derive(Debug)]
pub(crate) struct CsrGraph {
    offsets: TracedBuffer,
    edges: TracedBuffer,
}

impl CsrGraph {
    /// Generates a power-law graph with `nodes` vertices and ~`edges_per_node`
    /// out-edges per vertex, preferentially attached to low-id hubs.
    pub(crate) fn power_law(
        space: &mut AddressSpace,
        sink: &mut dyn AccessSink,
        nodes: usize,
        edges_per_node: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        for (v, targets) in adj.iter_mut().enumerate() {
            for _ in 0..edges_per_node {
                // Zipf-ish target: low ids are hubs.
                let u: f64 = rng.gen_range(0.0f64..1.0);
                let t = ((nodes as f64).powf(u) - 1.0) as usize % nodes;
                if t != v {
                    targets.push(t as u32);
                }
            }
            targets.sort_unstable();
            targets.dedup();
        }
        let edge_count: usize = adj.iter().map(Vec::len).sum();
        let mut offsets = TracedBuffer::zeroed(space, nodes + 1);
        let mut edges = TracedBuffer::zeroed(space, edge_count.max(1));
        let mut cursor = 0usize;
        for (v, targets) in adj.iter().enumerate() {
            offsets.set(sink, v, cursor as u64, 0);
            for &t in targets {
                edges.set(sink, cursor, t as u64, 0);
                cursor += 1;
            }
            sink.on_instructions(2);
        }
        offsets.set(sink, nodes, cursor as u64, 0);
        Self { offsets, edges }
    }

    /// Instrumented iteration bounds of `v`'s adjacency list.
    pub(crate) fn neighbors_range(
        &self,
        sink: &mut dyn AccessSink,
        v: usize,
        tid: u8,
    ) -> (usize, usize) {
        let start = self.offsets.get(sink, v, tid) as usize;
        let end = self.offsets.get(sink, v + 1, tid) as usize;
        (start, end)
    }

    /// Instrumented read of edge-slot `i`.
    pub(crate) fn edge_target(&self, sink: &mut dyn AccessSink, i: usize, tid: u8) -> usize {
        self.edges.get(sink, i, tid) as usize
    }
}

fn graph_size(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (60_000, 10),
        Scale::Test => (400, 6),
    }
}

/// PageRank kernel (push-free, Jacobi iteration).
#[derive(Debug, Clone)]
pub(crate) struct Pagerank {
    threads: u8,
    scale: Scale,
    iterations: usize,
}

impl Pagerank {
    /// Creates the kernel.
    pub(crate) fn new(threads: u8, scale: Scale) -> Self {
        Self { threads, scale, iterations: 4 }
    }

    fn compute(&self, sink: &mut dyn AccessSink, seed: u64) -> f64 {
        let (nodes, epn) = graph_size(self.scale);
        let mut space = AddressSpace::new();
        let graph = CsrGraph::power_law(&mut space, sink, nodes, epn, seed);
        let mut rank = TracedBuffer::zeroed(&mut space, nodes);
        let mut next = TracedBuffer::zeroed(&mut space, nodes);
        let mut out_deg = TracedBuffer::zeroed(&mut space, nodes);

        for v in 0..nodes {
            rank.set_f64(sink, v, 1.0 / nodes as f64, 0);
            let (s, e) = graph.neighbors_range(sink, v, 0);
            out_deg.set_f64(sink, v, (e - s).max(1) as f64, 0);
            sink.on_instructions(2);
        }

        let damping = 0.85;
        for _iter in 0..self.iterations {
            for v in 0..nodes {
                next.set_f64(sink, v, (1.0 - damping) / nodes as f64, 0);
                sink.on_instructions(1);
            }
            // Push contributions along out-edges.
            for v in 0..nodes {
                let tid = (v % self.threads as usize) as u8;
                let r = rank.get_f64(sink, v, tid);
                let d = out_deg.get_f64(sink, v, tid);
                let contrib = damping * r / d;
                let (s, e) = graph.neighbors_range(sink, v, tid);
                for i in s..e {
                    let t = graph.edge_target(sink, i, tid);
                    let cur = next.get_f64(sink, t, tid);
                    next.set_f64(sink, t, cur + contrib, tid);
                    sink.on_instructions(1);
                }
                sink.on_instructions(2);
            }
            std::mem::swap(&mut rank, &mut next);
        }

        let mut sum = 0.0;
        for v in 0..nodes {
            sum += rank.get_f64(sink, v, 0);
            sink.on_instructions(1);
        }
        sum
    }
}

impl Workload for Pagerank {
    fn scale(&self) -> Scale {
        self.scale
    }

    fn name(&self) -> String {
        "pagerank".to_string()
    }

    fn threads(&self) -> u8 {
        self.threads
    }

    fn run(&self, sink: &mut dyn AccessSink, seed: u64) {
        self.compute(sink, seed);
    }

    fn deploy_scale(&self) -> DeployScale {
        DeployScale::with_reuse_scale(0.76)
    }
}

/// Breadth-first search from several sources.
#[derive(Debug, Clone)]
pub(crate) struct Bfs {
    threads: u8,
    scale: Scale,
    sources: usize,
}

impl Bfs {
    /// Creates the kernel.
    pub(crate) fn new(threads: u8, scale: Scale) -> Self {
        Self { threads, scale, sources: 6 }
    }

    fn search(&self, sink: &mut dyn AccessSink, seed: u64) -> u64 {
        let (nodes, epn) = graph_size(self.scale);
        let mut space = AddressSpace::new();
        let graph = CsrGraph::power_law(&mut space, sink, nodes, epn, seed);
        let mut dist = TracedBuffer::zeroed(&mut space, nodes);
        let mut reached_total = 0u64;

        for src_i in 0..self.sources {
            let tid = (src_i % self.threads as usize) as u8;
            for v in 0..nodes {
                dist.set(sink, v, u64::MAX, tid);
                sink.on_instructions(1);
            }
            let source = (src_i * 97) % nodes;
            dist.set(sink, source, 0, tid);
            let mut queue = VecDeque::from([source]);
            while let Some(v) = queue.pop_front() {
                let dv = dist.get(sink, v, tid);
                let (s, e) = graph.neighbors_range(sink, v, tid);
                for i in s..e {
                    let t = graph.edge_target(sink, i, tid);
                    if dist.get(sink, t, tid) == u64::MAX {
                        dist.set(sink, t, dv + 1, tid);
                        queue.push_back(t);
                        reached_total += 1;
                    }
                    sink.on_instructions(2);
                }
                sink.on_instructions(1);
            }
        }
        reached_total
    }
}

impl Workload for Bfs {
    fn scale(&self) -> Scale {
        self.scale
    }

    fn name(&self) -> String {
        "bfs".to_string()
    }

    fn threads(&self) -> u8 {
        self.threads
    }

    fn run(&self, sink: &mut dyn AccessSink, seed: u64) {
        self.search(sink, seed);
    }

    fn deploy_scale(&self) -> DeployScale {
        DeployScale::with_reuse_scale(0.76)
    }
}

/// Brandes-style betweenness centrality (unweighted).
#[derive(Debug, Clone)]
pub(crate) struct Bc {
    threads: u8,
    scale: Scale,
    sources: usize,
}

impl Bc {
    /// Creates the kernel.
    pub(crate) fn new(threads: u8, scale: Scale) -> Self {
        Self { threads, scale, sources: 4 }
    }

    fn centrality(&self, sink: &mut dyn AccessSink, seed: u64) -> f64 {
        let (nodes, epn) = graph_size(self.scale);
        let (nodes, epn) = (nodes / 2, epn); // BC is O(V·E); halve V.
        let mut space = AddressSpace::new();
        let graph = CsrGraph::power_law(&mut space, sink, nodes, epn, seed);
        let mut sigma = TracedBuffer::zeroed(&mut space, nodes);
        let mut dist = TracedBuffer::zeroed(&mut space, nodes);
        let mut delta = TracedBuffer::zeroed(&mut space, nodes);
        let mut bc = TracedBuffer::zeroed(&mut space, nodes);

        for src_i in 0..self.sources {
            let tid = (src_i % self.threads as usize) as u8;
            let source = (src_i * 131) % nodes;
            for v in 0..nodes {
                sigma.set_f64(sink, v, 0.0, tid);
                dist.set(sink, v, u64::MAX, tid);
                delta.set_f64(sink, v, 0.0, tid);
                sink.on_instructions(1);
            }
            sigma.set_f64(sink, source, 1.0, tid);
            dist.set(sink, source, 0, tid);
            let mut order: Vec<usize> = Vec::new();
            let mut queue = VecDeque::from([source]);
            while let Some(v) = queue.pop_front() {
                order.push(v);
                let dv = dist.get(sink, v, tid);
                let sv = sigma.get_f64(sink, v, tid);
                let (s, e) = graph.neighbors_range(sink, v, tid);
                for i in s..e {
                    let t = graph.edge_target(sink, i, tid);
                    let dt = dist.get(sink, t, tid);
                    if dt == u64::MAX {
                        dist.set(sink, t, dv + 1, tid);
                        queue.push_back(t);
                    }
                    if dist.get(sink, t, tid) == dv + 1 {
                        let st = sigma.get_f64(sink, t, tid);
                        sigma.set_f64(sink, t, st + sv, tid);
                    }
                    sink.on_instructions(3);
                }
            }
            // Dependency accumulation in reverse BFS order.
            for &v in order.iter().rev() {
                let dv = dist.get(sink, v, tid);
                let sv = sigma.get_f64(sink, v, tid);
                let (s, e) = graph.neighbors_range(sink, v, tid);
                let mut dv_acc = delta.get_f64(sink, v, tid);
                for i in s..e {
                    let t = graph.edge_target(sink, i, tid);
                    if dist.get(sink, t, tid) == dv + 1 {
                        let st = sigma.get_f64(sink, t, tid);
                        let dt = delta.get_f64(sink, t, tid);
                        if st > 0.0 {
                            dv_acc += sv / st * (1.0 + dt);
                        }
                    }
                    sink.on_instructions(3);
                }
                delta.set_f64(sink, v, dv_acc, tid);
                if v != source {
                    let cur = bc.get_f64(sink, v, tid);
                    bc.set_f64(sink, v, cur + dv_acc, tid);
                }
                sink.on_instructions(2);
            }
        }

        let mut max_bc: f64 = 0.0;
        for v in 0..nodes {
            max_bc = max_bc.max(bc.get_f64(sink, v, 0));
            sink.on_instructions(1);
        }
        max_bc
    }
}

impl Workload for Bc {
    fn scale(&self) -> Scale {
        self.scale
    }

    fn name(&self) -> String {
        "bc".to_string()
    }

    fn threads(&self) -> u8 {
        self.threads
    }

    fn run(&self, sink: &mut dyn AccessSink, seed: u64) {
        self.centrality(sink, seed);
    }

    fn deploy_scale(&self) -> DeployScale {
        DeployScale::with_reuse_scale(0.50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_trace::{NullSink, Tracer};

    #[test]
    fn pagerank_mass_is_conserved() {
        let pr = Pagerank::new(1, Scale::Test);
        let total = pr.compute(&mut NullSink, 5);
        assert!((total - 1.0).abs() < 0.05, "rank mass {total}");
    }

    #[test]
    fn bfs_reaches_many_nodes() {
        let bfs = Bfs::new(1, Scale::Test);
        let reached = bfs.search(&mut NullSink, 5);
        assert!(reached > 100, "reached {reached}");
    }

    #[test]
    fn bc_hubs_score_highest() {
        let bc = Bc::new(1, Scale::Test);
        let max_bc = bc.centrality(&mut NullSink, 5);
        assert!(max_bc > 0.0);
    }

    #[test]
    fn graph_construction_is_consistent() {
        let mut space = AddressSpace::new();
        let mut sink = NullSink;
        let g = CsrGraph::power_law(&mut space, &mut sink, 200, 5, 1);
        let mut total = 0;
        for v in 0..200 {
            let (s, e) = g.neighbors_range(&mut sink, v, 0);
            assert!(s <= e);
            for i in s..e {
                assert!(g.edge_target(&mut sink, i, 0) < 200);
            }
            total += e - s;
        }
        assert_eq!(total, g.edges.len());
    }

    #[test]
    fn hubs_attract_more_edges() {
        let mut space = AddressSpace::new();
        let mut sink = NullSink;
        let g = CsrGraph::power_law(&mut space, &mut sink, 500, 8, 2);
        let mut in_deg = vec![0u32; 500];
        for v in 0..500 {
            let (s, e) = g.neighbors_range(&mut sink, v, 0);
            for i in s..e {
                in_deg[g.edge_target(&mut sink, i, 0)] += 1;
            }
        }
        let head: u32 = in_deg[..25].iter().sum();
        let tail: u32 = in_deg[475..].iter().sum();
        assert!(head > 5 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn analytics_kernels_produce_traffic() {
        for wl in [
            Box::new(Pagerank::new(8, Scale::Test)) as Box<dyn Workload>,
            Box::new(Bfs::new(8, Scale::Test)),
            Box::new(Bc::new(8, Scale::Test)),
        ] {
            let mut tracer = Tracer::new();
            wl.run(&mut tracer, 3);
            assert!(tracer.report().mem_accesses > 1_000, "{}", wl.name());
        }
    }
}
