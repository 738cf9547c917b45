//! # wade-features — the 249-feature program schema
//!
//! The paper extracts **249 program-inherent features** per workload: 247
//! hardware performance counters (per-core, per-MCU and SoC-wide events
//! read with `perf`) plus the two novel metrics computed with DynamoRIO —
//! the DRAM reuse time `Treuse` (eq. 4) and the data-pattern entropy `H_DP`
//! (eq. 5). It then ranks features by Spearman correlation against the
//! error metrics (Fig. 10) and trains models on three input sets
//! (Table III).
//!
//! This crate owns the schema (exactly 249 named features), the extraction
//! from a simulated execution ([`extract`]), Spearman rank correlation
//! ([`spearman`]) and the Table III feature sets ([`FeatureSet`]).
//!
//! ```
//! use wade_features::schema;
//! assert_eq!(schema::FEATURE_COUNT, 249);
//! assert_eq!(schema::name(schema::TREUSE), "treuse_s");
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

mod extract;
pub mod schema;
mod select;
mod spearman;
mod vector;

pub use extract::{extract, ExtractionContext};
pub use select::FeatureSet;
pub use spearman::spearman;
pub use vector::FeatureVector;
