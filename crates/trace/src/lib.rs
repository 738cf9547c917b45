//! # wade-trace — memory-access instrumentation
//!
//! The paper extracts its two novel program features with DynamoRIO binary
//! instrumentation:
//!
//! * the **DRAM reuse time** `T_reuse = CPI × D_reuse` (eq. 4), where
//!   `D_reuse` is the number of instructions executed since the previous
//!   reference to the same 64-bit word, and
//! * the **data-pattern entropy** `H_DP` (eq. 5), the Shannon entropy of the
//!   32-bit values written to memory.
//!
//! This crate is the WADE equivalent of that instrumentation layer: workload
//! kernels emit their memory accesses into an [`AccessSink`], and the
//! [`Tracer`] computes reuse distances, reuse histograms, value entropy,
//! region-level access counts and footprint statistics. A [`TraceReport`]
//! summarises a run for the feature-extraction and DRAM-simulation layers.
//!
//! ```
//! use wade_trace::{AccessSink, MemAccess, Tracer};
//!
//! let mut tracer = Tracer::new();
//! for i in 0..4u64 {
//!     tracer.on_access(MemAccess::write(8 * i, i * 17, 0));
//!     tracer.on_instructions(10);
//! }
//! // Re-touch the first word: reuse distance is everything in between.
//! tracer.on_access(MemAccess::read(0, 0));
//! let report = tracer.report();
//! assert_eq!(report.unique_words, 4);
//! assert!(report.mean_reuse_distance > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

mod entropy;
mod event;
mod instrument;
mod region;
mod report;
mod reuse;
mod sink;
mod staging;
pub mod synthetic;

pub use event::{AccessKind, MemAccess, StagedAccess};
pub use instrument::Tracer;
pub use region::REGION_COUNT;
pub use report::TraceReport;
pub use reuse::ReuseHistogram;
pub use sink::{AccessSink, FanoutSink, NullSink};
pub use staging::StagingSink;
