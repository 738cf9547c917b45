//! # wade-workloads — the benchmark substrate
//!
//! The paper characterizes DRAM while running Rodinia/Parsec
//! compute-intensive kernels (`backprop`, `nw`, `srad`, `kmeans`, `fmm`,
//! each with 1 and 8 threads), a caching workload (`memcached`) and
//! analytics kernels (`pagerank`, `bfs`, `bc`), plus `lulesh` and a
//! random-data-pattern micro-benchmark for the model-vs-conventional study
//! (Fig. 13).
//!
//! None of those binaries can run here, so this crate implements **small
//! but real versions of each algorithm** — an actual back-propagation pass,
//! an actual Needleman-Wunsch table fill, an actual BFS, … — instrumented
//! through [`wade_trace::AccessSink`]. The kernels produce genuine access
//! streams and genuine written values, so reuse distances, data entropy and
//! cache behaviour all *emerge from execution* rather than being synthetic
//! constants. Per-kernel work-per-access parameters are calibrated so the
//! extrapolated 8 GB `Treuse` lands near the paper's Table II (see
//! [`spec::DeployScale`]).
//!
//! ```
//! use wade_trace::Tracer;
//! use wade_workloads::{Workload, WorkloadId};
//!
//! let wl = WorkloadId::Backprop.instantiate(1, wade_workloads::Scale::Test);
//! let mut tracer = Tracer::new();
//! wl.run(&mut tracer, 42);
//! assert!(tracer.report().mem_accesses > 0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

mod backprop;
mod buffer;
mod fmm;
mod graph;
mod kmeans;
mod lulesh;
mod memcached;
mod micro;
mod nw;
mod spec;
mod srad;
mod suite;

pub use spec::{BoxedWorkload, DeployScale, Scale, Workload, WorkloadId};
pub use suite::{paper_suite, full_suite};
