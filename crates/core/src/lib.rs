//! # wade-core — workload-aware DRAM error prediction
//!
//! The primary contribution of the reproduced paper: a pipeline that
//!
//! 1. **profiles** workloads (program features: 247 counters + `Treuse` +
//!    `H_DP`) — the *profiling phase* of Fig. 3,
//! 2. **characterizes** DRAM error behaviour while running them under
//!    relaxed refresh period / lowered voltage / elevated temperature — the
//!    *DRAM characterization phase* (weak-cell populations are frozen once
//!    per (workload, temperature, voltage) via [`PreparedRun`] and replayed
//!    across refresh-period set-points and PUE repeats, byte-identically to
//!    the direct path),
//! 3. **trains** the error model `M(Ftrs, Dev, TREFP, VDD, TEMP) → WER, PUE`
//!    (eq. 1) with SVM / KNN / RDF learners, and
//! 4. **predicts** error rates for unseen workloads in microseconds instead
//!    of 2-hour characterization campaigns.
//!
//! ```no_run
//! use wade_core::{SimulatedServer, Campaign, CampaignConfig, MlKind};
//! use wade_features::FeatureSet;
//! use wade_workloads::{paper_suite, Scale};
//!
//! let server = SimulatedServer::with_seed(42);
//! let campaign = Campaign::new(server, CampaignConfig::quick());
//! let data = campaign.collect(&paper_suite(Scale::Test), 7);
//! let model = wade_core::train_error_model(&data, MlKind::Knn, FeatureSet::Set1);
//! let first = &data.rows[0];
//! let wer = model.predict_wer(&first.features, first.op, 0);
//! assert!(wer >= 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

mod campaign;
mod collect;
mod error;
mod model;
mod predictor;
mod profile_cache;
mod server;
mod thermal;

pub use campaign::{Campaign, CampaignConfig, CampaignData, CampaignRow, CharacterizationOutcome};
pub use collect::{
    build_pue_dataset, build_wer_dataset, op_augmented_row, CAMPAIGN_KIND, MIN_CE_COUNT,
};
pub use error::WadeError;
pub use model::{
    train_error_model, train_error_model_stored, AnyModel, ErrorModel, MlKind, Prediction,
    TRAINER_CONFIG_VERSION,
};
pub use predictor::{AccuracyReport, EvalGrid, MODEL_KIND};
pub use profile_cache::ProfileCache;
pub use server::{ProfiledWorkload, SimulatedServer};

/// The parallel-map runtime behind every fan-out here, re-exported so
/// dependants fan out on the same pool without a dependency of their own.
pub use rayon;
pub use wade_dram::{DramUsageProfile, LiveCellIndex, OperatingPoint, PreparedRun};
