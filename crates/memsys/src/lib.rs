//! # wade-memsys — the SoC substrate (X-Gene2 stand-in)
//!
//! The paper's experimental framework is an AppliedMicro X-Gene2: eight
//! 64-bit ARMv8 cores at 2.4 GHz, private L1 caches, L2 shared per two-core
//! module, and four DDR3 memory-controller units (MCUs). The 247
//! hardware-performance-counter features of the paper are read from this
//! machine with `perf`.
//!
//! This crate models that machine at the fidelity the prediction pipeline
//! needs: a trace-driven cache hierarchy with an in-order timing model and
//! MCU command accounting. It consumes the same instrumented executions as
//! [`wade_trace`] (via [`wade_trace::AccessSink`]) and produces a
//! [`SocReport`] holding every counter the feature schema reads.
//!
//! ```
//! use wade_memsys::{Soc, SocConfig};
//! use wade_trace::{AccessSink, MemAccess};
//!
//! let mut soc = Soc::new(SocConfig::x_gene2());
//! for i in 0..10_000u64 {
//!     soc.on_access(MemAccess::read((i * 64) % (1 << 20), (i % 8) as u8));
//!     soc.on_instructions(3);
//! }
//! let report = soc.report();
//! assert!(report.total_instructions() > 0);
//! assert!(report.ipc() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

mod cache;
mod config;
mod counters;
mod mcu;
mod soc;

pub use cache::CacheConfig;
pub use config::SocConfig;
pub use counters::{CoreCounters, McuCounters, SocReport};
pub use soc::Soc;
