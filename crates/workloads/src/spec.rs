//! Workload identities, the `Workload` trait and deployment scaling.

use crate::backprop::Backprop;
use crate::fmm::Fmm;
use crate::graph::{Bc, Bfs, Pagerank};
use crate::kmeans::Kmeans;
use crate::lulesh::{Lulesh, LuleshOpt};
use crate::memcached::Memcached;
use crate::micro::DataPatternMicro;
use crate::nw::NeedlemanWunsch;
use crate::srad::Srad;
use wade_trace::{AccessSink, StagingSink};

/// Problem-size preset: full-size runs for campaigns/benches, reduced sizes
/// for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny inputs: kernels finish in milliseconds (CI/unit tests).
    Test,
    /// Standard inputs used by the characterization campaigns.
    Full,
}

/// Deployment-scale extrapolation constants (see ARCHITECTURE.md §7 "two-scale
/// simulation note").
///
/// The paper runs every benchmark with an 8 GB allocation for 2 hours; the
/// mini-kernels here run megabyte-scale footprints. Reuse *structure* comes
/// from the real mini execution; this struct records how to project it to
/// deployment scale: reuse distances of sweep-structured kernels grow
/// linearly with footprint, so
/// `Treuse(8 GB) ≈ D_reuse(mini) × (W_deploy / W_mini) × seconds-per-instr`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeployScale {
    /// Deployment footprint in 64-bit words (8 GB = 2³⁰ words).
    pub footprint_words: u64,
    /// Multiplier applied on top of the linear footprint projection.
    /// Captures how much of the kernel's reuse scales with the data size
    /// (1.0 = fully footprint-proportional, the sweep case) and absorbs
    /// residual calibration versus the paper's Table II.
    pub reuse_scale: f64,
}

impl DeployScale {
    /// The paper's 8 GB allocation with neutral reuse scaling.
    pub(crate) fn paper_default() -> Self {
        Self { footprint_words: 1 << 30, reuse_scale: 1.0 }
    }

    /// Same footprint with an explicit reuse multiplier.
    pub(crate) fn with_reuse_scale(reuse_scale: f64) -> Self {
        Self { reuse_scale, ..Self::paper_default() }
    }
}

/// A runnable, instrumented benchmark.
///
/// Implementors must be `Send + Sync` plain data (all kernels here are):
/// the profiling front-end fans a suite out across the shared rayon pool,
/// sharing the boxed workloads by reference (see [`BoxedWorkload`]).
pub trait Workload: Send + Sync {
    /// Display name matching the paper's labels (`"backprop"`,
    /// `"backprop(par)"`, …).
    fn name(&self) -> String;

    /// Logical threads used (1 or 8 in the paper).
    fn threads(&self) -> u8;

    /// The problem-size preset this instance was built with. Together with
    /// [`Workload::name`], [`Workload::threads`], the run seed,
    /// [`Workload::deploy_scale`] and [`Workload::cache_token`] this
    /// identifies a profiling run exactly — the profile-cache key one layer
    /// up is built from these.
    fn scale(&self) -> Scale;

    /// Extra discriminant for the profile-cache key. The built-in kernels
    /// are fully identified by (name, threads, scale, deploy scale), so the
    /// default is 0; a custom [`Workload`] whose behaviour varies beyond
    /// those fields (e.g. two parameterizations sharing one label) **must**
    /// override this with a value derived from its parameters, or campaigns
    /// in one process may serve it another instance's cached profile.
    fn cache_token(&self) -> u64 {
        0
    }

    /// Executes the kernel, reporting every access to `sink`.
    fn run(&self, sink: &mut dyn AccessSink, seed: u64);

    /// Executes the kernel through a reusable staging buffer: accesses are
    /// batched and delivered to `sink` in slices via
    /// [`AccessSink::on_accesses`] — one virtual-boundary call per batch
    /// instead of one per access, observationally identical to
    /// [`Workload::run`] (the staging contract preserves program order and
    /// instruction indexing exactly).
    fn run_buffered(&self, sink: &mut dyn AccessSink, seed: u64) {
        let mut staged = StagingSink::new(sink);
        self.run(&mut staged, seed);
        // Dropping the staging sink flushes the final partial batch and any
        // trailing instruction gap.
    }

    /// Deployment-scale extrapolation constants for this kernel.
    fn deploy_scale(&self) -> DeployScale {
        DeployScale::paper_default()
    }
}

/// A boxed, shareable workload: the unit suites are made of. `Send + Sync`
/// so a suite can be profiled in parallel on the shared rayon pool.
pub type BoxedWorkload = Box<dyn Workload>;

/// Enumeration of every benchmark family in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadId {
    /// Rodinia back-propagation (neural-network training).
    Backprop,
    /// Rodinia k-means clustering.
    Kmeans,
    /// Rodinia Needleman-Wunsch sequence alignment.
    Nw,
    /// Rodinia SRAD speckle-reducing stencil.
    Srad,
    /// PARSEC/SPLASH fast-multipole-style n-body.
    Fmm,
    /// memcached-style key-value caching.
    Memcached,
    /// PageRank over a power-law graph.
    Pagerank,
    /// Breadth-first search.
    Bfs,
    /// Betweenness centrality.
    Bc,
    /// LULESH-like hydrodynamics proxy, default `-O2` build.
    LuleshO2,
    /// LULESH-like proxy, aggressive `-F` build (fewer instructions per
    /// access — the compiler study of Fig. 13).
    LuleshF,
    /// Random data-pattern micro-benchmark (conventional retention
    /// profiling stressor).
    MicroRandom,
}

impl WorkloadId {
    /// Instantiates the workload with the given thread count and scale.
    ///
    /// # Panics
    /// Panics if `threads` is 0.
    pub fn instantiate(&self, threads: u8, scale: Scale) -> BoxedWorkload {
        assert!(threads > 0, "at least one thread required");
        match self {
            WorkloadId::Backprop => Box::new(Backprop::new(threads, scale)),
            WorkloadId::Kmeans => Box::new(Kmeans::new(threads, scale)),
            WorkloadId::Nw => Box::new(NeedlemanWunsch::new(threads, scale)),
            WorkloadId::Srad => Box::new(Srad::new(threads, scale)),
            WorkloadId::Fmm => Box::new(Fmm::new(threads, scale)),
            WorkloadId::Memcached => Box::new(Memcached::new(threads, scale)),
            WorkloadId::Pagerank => Box::new(Pagerank::new(threads, scale)),
            WorkloadId::Bfs => Box::new(Bfs::new(threads, scale)),
            WorkloadId::Bc => Box::new(Bc::new(threads, scale)),
            WorkloadId::LuleshO2 => Box::new(Lulesh::new(threads, scale, LuleshOpt::O2)),
            WorkloadId::LuleshF => Box::new(Lulesh::new(threads, scale, LuleshOpt::Aggressive)),
            WorkloadId::MicroRandom => Box::new(DataPatternMicro::new(scale)),
        }
    }
}

impl core::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            WorkloadId::Backprop => "backprop",
            WorkloadId::Kmeans => "kmeans",
            WorkloadId::Nw => "nw",
            WorkloadId::Srad => "srad",
            WorkloadId::Fmm => "fmm",
            WorkloadId::Memcached => "memcached",
            WorkloadId::Pagerank => "pagerank",
            WorkloadId::Bfs => "bfs",
            WorkloadId::Bc => "bc",
            WorkloadId::LuleshO2 => "lulesh(O2)",
            WorkloadId::LuleshF => "lulesh(F)",
            WorkloadId::MicroRandom => "data-pattern(random)",
        };
        f.write_str(s)
    }
}

/// Formats a benchmark label in the paper's style: `name` for 1 thread,
/// `name(par)` for the 8-thread variant.
pub(crate) fn paper_label(base: &str, threads: u8) -> String {
    if threads > 1 {
        format!("{base}(par)")
    } else {
        base.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(paper_label("srad", 1), "srad");
        assert_eq!(paper_label("srad", 8), "srad(par)");
        assert_eq!(WorkloadId::LuleshO2.to_string(), "lulesh(O2)");
    }

    #[test]
    fn every_id_instantiates_and_runs() {
        use wade_trace::Tracer;
        let all = [
            WorkloadId::Backprop,
            WorkloadId::Kmeans,
            WorkloadId::Nw,
            WorkloadId::Srad,
            WorkloadId::Fmm,
            WorkloadId::Memcached,
            WorkloadId::Pagerank,
            WorkloadId::Bfs,
            WorkloadId::Bc,
            WorkloadId::LuleshO2,
            WorkloadId::LuleshF,
            WorkloadId::MicroRandom,
        ];
        for id in all {
            let wl = id.instantiate(1, Scale::Test);
            let mut tracer = Tracer::new();
            wl.run(&mut tracer, 7);
            let r = tracer.report();
            assert!(r.mem_accesses > 0, "{id} produced no accesses");
            assert!(r.instructions >= r.mem_accesses, "{id} instruction accounting");
        }
    }

    #[test]
    fn deploy_scale_defaults_to_8gb() {
        assert_eq!(DeployScale::paper_default().footprint_words, 1 << 30);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        WorkloadId::Backprop.instantiate(0, Scale::Test);
    }
}
