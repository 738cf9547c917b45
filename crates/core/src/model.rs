//! The error behavioural model `M` (eq. 1).

use crate::campaign::CampaignData;
use crate::collect::{build_pue_dataset, build_wer_dataset, op_augmented_row};
use crate::predictor::{dataset_id, fold_model, model_store_key, pue_key, wer_key};
use wade_dram::{OperatingPoint, RANK_COUNT};
use wade_features::{FeatureSet, FeatureVector};
use serde::{Deserialize, Serialize};
use wade_ml::{
    Dataset, ForestRegressor, ForestTrainer, KnnRegressor, KnnTrainer, Regressor, SvrRegressor,
    SvrTrainer, Trainer,
};
use wade_store::ArtifactStore;

/// Version of the paper-default trainer configurations
/// ([`wade_ml::KnnTrainer::paper_default`] and the SVR/forest siblings)
/// folded into persistent model-store keys. **Bump on any hyper-parameter
/// or training-algorithm change** (a re-baselining event for trained
/// models), so fold models persisted under the old configuration read as
/// misses instead of stale hits.
///
/// v2: forest models serialize their flat node arena
/// ([`wade_ml::ForestRegressor`]) instead of pointer trees, so v1 `model`
/// artifacts must read as misses and be re-trained (then re-published) in
/// arena form.
pub const TRAINER_CONFIG_VERSION: u32 = 2;

/// The three supervised learners compared in the paper (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MlKind {
    /// Support vector machine (ε-SVR, RBF kernel).
    Svm,
    /// K-nearest neighbours — the paper's most accurate model.
    Knn,
    /// Random decision forest.
    Rdf,
}

impl MlKind {
    /// All learners, in the paper's presentation order.
    pub const ALL: [MlKind; 3] = [MlKind::Svm, MlKind::Knn, MlKind::Rdf];

    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            MlKind::Svm => "SVM",
            MlKind::Knn => "KNN",
            MlKind::Rdf => "RDF",
        }
    }

    /// The trainer-configuration tag inside persistent model-store keys:
    /// the learner label plus [`TRAINER_CONFIG_VERSION`]. Together with the
    /// dataset fingerprint and the held-out fold it fully keys a trained
    /// fold model.
    pub(crate) fn store_tag(&self) -> String {
        format!("{}|cfg=v{TRAINER_CONFIG_VERSION}", self.label())
    }

    /// Trains a serializable regressor of this kind.
    pub fn train_any(&self, x: &[Vec<f64>], y: &[f64]) -> AnyModel {
        match self {
            MlKind::Svm => AnyModel::Svr(SvrTrainer::paper_default().train(x, y)),
            MlKind::Knn => AnyModel::Knn(KnnTrainer::paper_default().train(x, y)),
            MlKind::Rdf => AnyModel::Rdf(ForestTrainer::paper_default().train(x, y)),
        }
    }
}

impl core::fmt::Display for MlKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A trained regressor of any of the three families, serializable so the
/// model can be shipped — mirroring the paper's public release of its
/// trained KNN model ("we make the DRAM error behavioral model publicly
/// available", §I).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnyModel {
    /// K-nearest-neighbours model.
    Knn(KnnRegressor),
    /// ε-SVR model.
    Svr(SvrRegressor),
    /// Random-forest model.
    Rdf(ForestRegressor),
}

impl Regressor for AnyModel {
    fn predict(&self, features: &[f64]) -> f64 {
        match self {
            AnyModel::Knn(m) => m.predict(features),
            AnyModel::Svr(m) => m.predict(features),
            AnyModel::Rdf(m) => m.predict(features),
        }
    }

    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        // Delegate so batches reach the inner models' own fan-out policy
        // (the default trait impl would re-dispatch per row through the
        // enum match instead).
        match self {
            AnyModel::Knn(m) => m.predict_batch(rows),
            AnyModel::Svr(m) => m.predict_batch(rows),
            AnyModel::Rdf(m) => m.predict_batch(rows),
        }
    }
}

/// The trained prediction function
/// `M(Ftrs, Dev, TREFP, VDD, TEMP_DRAM) → (WER, P_UE)` of eq. 1.
///
/// The device dependence (`Dev`) is captured by training one WER model per
/// DIMM/rank of the characterized server, exactly as the paper trains and
/// reports per-DIMM accuracy (Fig. 11). The whole model serialises to JSON
/// for distribution ([`ErrorModel::to_json`]).
#[derive(Serialize, Deserialize)]
pub struct ErrorModel {
    kind: MlKind,
    set: FeatureSet,
    wer_models: Vec<Option<AnyModel>>,
    pue_model: Option<AnyModel>,
}

impl ErrorModel {
    /// The learner used.
    pub fn kind(&self) -> MlKind {
        self.kind
    }

    /// Ranks with a trained WER model (had measurable errors).
    pub fn trained_ranks(&self) -> Vec<usize> {
        self.wer_models
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|_| i))
            .collect()
    }

    /// Predicts the WER of one rank for a workload's features at an
    /// operating point. Returns 0 when the rank never produced trainable
    /// samples (an error-free rank).
    pub fn predict_wer(&self, features: &FeatureVector, op: OperatingPoint, rank: usize) -> f64 {
        match &self.wer_models[rank] {
            Some(model) => {
                let row = op_augmented_row(features, self.set, op);
                10f64.powf(model.predict(&row))
            }
            None => 0.0,
        }
    }

    /// Server-aggregate WER: sum of the per-rank predictions (per-rank WER
    /// shares the full-footprint denominator, so the sum is the total).
    pub fn predict_wer_total(&self, features: &FeatureVector, op: OperatingPoint) -> f64 {
        (0..RANK_COUNT).map(|r| self.predict_wer(features, op, r)).sum()
    }

    /// Predicts the probability of an uncorrectable error for a 2-hour run.
    pub fn predict_pue(&self, features: &FeatureVector, op: OperatingPoint) -> f64 {
        match &self.pue_model {
            Some(model) => {
                let row = op_augmented_row(features, self.set, op);
                model.predict(&row).clamp(0.0, 1.0)
            }
            None => 0.0,
        }
    }

    /// Predicts a whole batch of rows through [`Regressor::predict_batch`]
    /// (one batched call per trained rank model plus one for the PUE
    /// model), byte-identical to calling [`ErrorModel::predict_wer`] /
    /// [`ErrorModel::predict_pue`] row by row: rows are independent, and
    /// `predict_batch` is byte-identical to the serial per-row map
    /// (`tests/ml_parallel.rs`), so a row's prediction does not depend on
    /// which other rows share its batch — the contract the serving layer's
    /// micro-batching queue rests on.
    pub fn predict_rows(&self, rows: &[(FeatureVector, OperatingPoint)]) -> Vec<Prediction> {
        let augmented: Vec<Vec<f64>> =
            rows.iter().map(|(f, op)| op_augmented_row(f, self.set, *op)).collect();
        let per_rank: Vec<Option<Vec<f64>>> = self
            .wer_models
            .iter()
            .map(|m| {
                m.as_ref().map(|model| {
                    model.predict_batch(&augmented).iter().map(|p| 10f64.powf(*p)).collect()
                })
            })
            .collect();
        let pue: Option<Vec<f64>> = self
            .pue_model
            .as_ref()
            .map(|m| m.predict_batch(&augmented).iter().map(|p| p.clamp(0.0, 1.0)).collect());
        (0..rows.len())
            .map(|i| {
                let wer_per_rank: Vec<f64> = per_rank
                    .iter()
                    .map(|r| r.as_ref().map_or(0.0, |v| v[i]))
                    .collect();
                Prediction {
                    wer_total: wer_per_rank.iter().sum(),
                    wer_per_rank,
                    pue: pue.as_ref().map_or(0.0, |v| v[i]),
                }
            })
            .collect()
    }
}

/// One row's full prediction bundle, as produced by
/// [`ErrorModel::predict_rows`] — and, byte-for-byte, by the serving
/// layer's `POST /predict` (the golden contract of `tests/serving.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Per-rank WER (eq. 1), `0.0` for ranks without a trained model.
    pub wer_per_rank: Vec<f64>,
    /// Server-aggregate WER: the sum of the per-rank predictions.
    pub wer_total: f64,
    /// Probability of an uncorrectable error for a 2-hour run, in `[0, 1]`.
    pub pue: f64,
}

impl ErrorModel {
    /// Serialises the trained model to JSON (the distributable artifact).
    ///
    /// # Errors
    /// Returns [`crate::WadeError::Persistence`] if serialisation fails.
    pub fn to_json(&self) -> Result<String, crate::WadeError> {
        Ok(serde_json::to_string(self)?)
    }

    /// Restores a trained model from JSON.
    ///
    /// # Errors
    /// Returns [`crate::WadeError::Persistence`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, crate::WadeError> {
        Ok(serde_json::from_str(json)?)
    }
}

impl core::fmt::Debug for ErrorModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ErrorModel")
            .field("kind", &self.kind)
            .field("set", &self.set)
            .field("trained_ranks", &self.trained_ranks())
            .field("has_pue_model", &self.pue_model.is_some())
            .finish()
    }
}

/// Trains the full error model from campaign data: one WER regressor per
/// rank (log₁₀-space) plus one PUE regressor, with no persistence —
/// [`train_error_model_stored`] without a store.
pub fn train_error_model(data: &CampaignData, kind: MlKind, set: FeatureSet) -> ErrorModel {
    train_error_model_stored(None, data, kind, set)
}

/// Trains the full error model, through `store` when one is given: every
/// per-rank WER model and the PUE model is first looked up under its
/// canonical key (kind [`crate::MODEL_KIND`]; trainer config
/// [`TRAINER_CONFIG_VERSION`], dataset content fingerprint, fold `""` =
/// trained on all samples — the same scheme [`crate::EvalGrid`] uses for
/// fold models) and only trained on a miss, after which the trained model
/// is published best-effort. A degraded, faulty or absent store falls back
/// to in-process training, so the result is **always** byte-identical to
/// the store-free model (the store round-trips `f64` exactly);
/// `tests/serving.rs` asserts this cold and warm.
pub fn train_error_model_stored(
    store: Option<&ArtifactStore>,
    data: &CampaignData,
    kind: MlKind,
    set: FeatureSet,
) -> ErrorModel {
    let train_via_store = |slot: u64, ds: &Dataset| -> AnyModel {
        // `dataset_id` serializes the whole dataset: only paid with a store.
        let key = store.and_then(|_| dataset_id(slot, ds)).map(|id| model_store_key(kind, &id, ""));
        fold_model(store.zip(key.as_deref()), || kind.train_any(&ds.features(), &ds.targets())).0
    };
    let mut wer_models = Vec::with_capacity(RANK_COUNT);
    for rank in 0..RANK_COUNT {
        let ds = build_wer_dataset(data, set, rank);
        if ds.len() < 4 {
            wer_models.push(None);
        } else {
            wer_models.push(Some(train_via_store(wer_key(set, rank), &ds)));
        }
    }
    let pue_ds = build_pue_dataset(data, set);
    let pue_model =
        if pue_ds.len() < 4 { None } else { Some(train_via_store(pue_key(set), &pue_ds)) };
    ErrorModel { kind, set, wer_models, pue_model }
}

/// The canonical store keys (kind [`crate::MODEL_KIND`]) of the artifacts
/// a [`train_error_model_stored`] call reads and writes for this `(data,
/// kind, set)` combination: one per trainable rank (in rank order) plus
/// the PUE model, skipping targets whose dataset fails the training guard
/// or whose identity fails to serialize. The serving layer polls exactly
/// these entries (through the [`StoreFs`](wade_store::StoreFs) seam) to
/// detect model swaps and hot-reload.
pub fn serving_model_keys(data: &CampaignData, kind: MlKind, set: FeatureSet) -> Vec<String> {
    let mut keys = Vec::new();
    let mut push = |slot: u64, ds: &Dataset| {
        if ds.len() >= 4 {
            if let Some(id) = dataset_id(slot, ds) {
                keys.push(model_store_key(kind, &id, ""));
            }
        }
    };
    for rank in 0..RANK_COUNT {
        push(wer_key(set, rank), &build_wer_dataset(data, set, rank));
    }
    push(pue_key(set), &build_pue_dataset(data, set));
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::server::SimulatedServer;
    use wade_workloads::{Scale, WorkloadId};

    fn data() -> CampaignData {
        let suite = vec![
            WorkloadId::Backprop.instantiate(1, Scale::Test),
            WorkloadId::Nw.instantiate(1, Scale::Test),
            WorkloadId::Memcached.instantiate(8, Scale::Test),
            WorkloadId::Srad.instantiate(8, Scale::Test),
        ];
        Campaign::new(SimulatedServer::with_seed(11), CampaignConfig::quick()).collect(&suite, 4)
    }

    #[test]
    fn model_trains_and_predicts_positive_wer() {
        let d = data();
        let model = train_error_model(&d, MlKind::Knn, FeatureSet::Set1);
        assert!(!model.trained_ranks().is_empty(), "no rank had errors");
        let row = &d.rows[0];
        let total = model.predict_wer_total(&row.features, row.op);
        assert!(total > 0.0);
        assert!(total < 1.0);
    }

    #[test]
    fn pue_prediction_is_a_probability() {
        let d = data();
        let model = train_error_model(&d, MlKind::Rdf, FeatureSet::Set2);
        for row in &d.rows {
            let p = model.predict_pue(&row.features, row.op);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn trained_model_tracks_trefp_direction() {
        let d = data();
        let model = train_error_model(&d, MlKind::Knn, FeatureSet::Set2);
        let row = &d.rows[0];
        let low = model.predict_wer_total(&row.features, OperatingPoint::relaxed(1.173, 60.0));
        let high = model.predict_wer_total(&row.features, OperatingPoint::relaxed(2.283, 60.0));
        assert!(high > low, "WER prediction must grow with TREFP: {high} vs {low}");
    }

    #[test]
    fn trained_model_roundtrips_through_json() {
        let d = data();
        let model = train_error_model(&d, MlKind::Knn, FeatureSet::Set1);
        let json = model.to_json().expect("serialise");
        let restored = ErrorModel::from_json(&json).expect("restore");
        let row = &d.rows[0];
        assert_eq!(
            model.predict_wer_total(&row.features, row.op),
            restored.predict_wer_total(&row.features, row.op)
        );
        assert_eq!(
            model.predict_pue(&row.features, OperatingPoint::relaxed(2.283, 70.0)),
            restored.predict_pue(&row.features, OperatingPoint::relaxed(2.283, 70.0))
        );
        assert_eq!(restored.kind(), MlKind::Knn);
    }

    #[test]
    fn all_three_learners_train() {
        let d = data();
        for kind in MlKind::ALL {
            let model = train_error_model(&d, kind, FeatureSet::Set1);
            assert_eq!(model.kind(), kind);
            assert_eq!(model.kind().label().len(), 3);
        }
    }
}
