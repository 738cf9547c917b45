//! # wade-ml — from-scratch supervised learning
//!
//! The paper trains three model families with scikit-learn: Support Vector
//! Machines, K-nearest neighbours and Random Decision Forests (§III-B),
//! evaluated with leave-one-workload-out cross-validation (§III-F). The
//! Rust ML ecosystem offers no stable equivalent, so this crate implements
//! the three learners from first principles:
//!
//! * [`KnnRegressor`] — z-scored features, inverse-distance-weighted
//!   k-nearest-neighbour regression (the paper's winner),
//! * [`SvrRegressor`] — ε-insensitive support vector regression with an RBF
//!   kernel, trained by kernel coordinate descent (simplified SMO),
//! * [`ForestRegressor`] — bootstrap-aggregated CART trees with per-split
//!   feature subsampling,
//!
//! plus the shared machinery: [`Dataset`] with group labels,
//! [`StandardScaler`], error metrics ([`metrics`]) and
//! [`leave_one_group_out`] cross-validation. The paper's whole
//! model-comparison grid is evaluated one layer up, by
//! `wade_core::EvalGrid`.
//!
//! Training and evaluation follow the workspace determinism contract:
//! forest trees and CV folds are independent units with derived seed
//! streams that fan out on the shared rayon pool and merge in input order,
//! so every result is byte-identical at any thread count.
//!
//! ```
//! use wade_ml::{Dataset, KnnTrainer, Trainer, Regressor};
//!
//! let mut data = Dataset::new(1);
//! for i in 0..20 {
//!     let x = i as f64;
//!     data.push(vec![x], 2.0 * x + 1.0, format!("g{}", i % 4));
//! }
//! let model = KnnTrainer::new(3).train(&data.features(), &data.targets());
//! let pred = model.predict(&[10.0]);
//! assert!((pred - 21.0).abs() < 2.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

mod baseline;
mod cv;
mod dataset;
mod forest;
mod knn;
pub mod metrics;
mod model;
mod scale;
mod svr;
mod tree;

pub use baseline::{ConstantModel, ConstantTrainer};
pub use cv::{leave_one_group_out, GroupCvOutcome};
pub use dataset::{Dataset, Sample};
pub use forest::{ForestRegressor, ForestTrainer, PointerForest};
pub use knn::{KnnRegressor, KnnTrainer};
pub use model::{Regressor, Trainer};
pub use scale::StandardScaler;
pub use svr::{SvrRegressor, SvrTrainer};
pub use tree::{DecisionTree, FeatureColumns, TreeParams};
