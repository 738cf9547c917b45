//! The error behavioural model `M` (eq. 1).

use crate::campaign::CampaignData;
use crate::collect::{build_pue_dataset, build_wer_dataset, op_augmented_row};
use crate::predictor::{dataset_id, fold_model, model_store_key, pue_key, wer_key};
use std::ops::Range;
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

impl AnyModel {
    /// Whether the model predicts rows of `width` features: the store's
    /// fit check on every model read ([`ArtifactStore::get_or_put`]).
    pub fn fits(&self, width: usize) -> bool {
        match self {
            AnyModel::Knn(m) => m.fits(width),
            AnyModel::Svr(m) => m.fits(width),
            AnyModel::Rdf(m) => m.fits(width),
        }
    }
}

impl Regressor for AnyModel {
    fn predict(&self, features: &[f64]) -> f64 {
        match self {
            AnyModel::Knn(m) => m.predict(features),
            AnyModel::Svr(m) => m.predict(features),
            AnyModel::Rdf(m) => m.predict(features),
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
        self.predict_row(features, op, rank..rank + 1, false).wer_per_rank[rank]
    }

    /// Server-aggregate WER: sum of the per-rank predictions (per-rank WER
    /// shares the full-footprint denominator, so the sum is the total).
    pub fn predict_wer_total(&self, features: &FeatureVector, op: OperatingPoint) -> f64 {
        self.predict_row(features, op, 0..RANK_COUNT, false).wer_total
    }

    /// Predicts the probability of an uncorrectable error for a 2-hour run.
    pub fn predict_pue(&self, features: &FeatureVector, op: OperatingPoint) -> f64 {
        self.predict_row(features, op, 0..0, true).pue
    }

    /// Predicts every rank's WER and the PUE of each row, in one serial
    /// pass on the calling thread. Rows are independent, so a row's
    /// prediction does not depend on which other rows share its batch and
    /// equals [`ErrorModel::predict_wer`] / [`ErrorModel::predict_pue`]
    /// bit for bit (`tests/ml_parallel.rs`).
    pub fn predict_rows(&self, rows: &[(FeatureVector, OperatingPoint)]) -> Vec<Prediction> {
        rows.iter()
            .map(|(features, op)| self.predict_row(features, *op, 0..RANK_COUNT, true))
            .collect()
    }

    /// The one per-row prediction: augments the row once, runs it through
    /// the trained rank models in `ranks` (de-logged; every other rank
    /// reads 0) and, when `with_pue`, the PUE model (clamped to `[0, 1]`;
    /// 0 otherwise), and sums the ranks.
    fn predict_row(
        &self,
        features: &FeatureVector,
        op: OperatingPoint,
        ranks: Range<usize>,
        with_pue: bool,
    ) -> Prediction {
        let row = op_augmented_row(features, self.set, op);
        let wer_per_rank: Vec<f64> = self
            .wer_models
            .iter()
            .enumerate()
            .map(|(rank, model)| match model {
                Some(model) if ranks.contains(&rank) => 10f64.powf(model.predict(&row)),
                _ => 0.0,
            })
            .collect();
        let pue = match &self.pue_model {
            Some(model) if with_pue => model.predict(&row).clamp(0.0, 1.0),
            _ => 0.0,
        };
        Prediction { wer_total: wer_per_rank.iter().sum(), wer_per_rank, pue }
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
    train_error_model_stored(None, data, kind, set).0
}

/// Trains the full error model, through `store` when one is given: every
/// per-rank WER model and the PUE model is first looked up under its
/// canonical key (kind [`crate::MODEL_KIND`]; trainer config
/// [`TRAINER_CONFIG_VERSION`], dataset content fingerprint, fold `""` =
/// trained on all samples — the same scheme [`crate::EvalGrid`] uses for
/// fold models) and only trained on a miss, after which the trained model
/// is published best-effort. A degraded, faulty or absent store falls back
/// to in-process training, so the model is **always** byte-identical to
/// the store-free one (the store round-trips `f64` exactly);
/// `tests/serving.rs` asserts this cold and warm.
///
/// Also returns the store keys it read and wrote: one per trainable rank
/// (in rank order) plus the PUE model, skipping targets whose dataset
/// fails the training guard. The serving layer polls exactly these
/// entries (through the `StoreFs` seam) to detect model swaps and
/// hot-reload. Each dataset is hashed for its key once; without a store
/// no key is computed and the list is empty.
pub fn train_error_model_stored(
    store: Option<&ArtifactStore>,
    data: &CampaignData,
    kind: MlKind,
    set: FeatureSet,
) -> (ErrorModel, Vec<String>) {
    let mut keys = Vec::new();
    let mut models: Vec<Option<AnyModel>> = targets(data, kind, set, store.is_some())
        .map(|target| {
            target.map(|(dataset, key)| {
                let train = || kind.train_any(&dataset.features(), &dataset.targets());
                let model = fold_model(store.zip(key.as_deref()), dataset.dim(), train).0;
                keys.extend(key);
                model
            })
        })
        .collect();
    let pue_model = models.pop().flatten();
    (ErrorModel { kind, set, wer_models: models, pue_model }, keys)
}

/// The error model's training targets in model order — the per-rank WER
/// datasets, then the PUE dataset — each `None` when its dataset has fewer
/// than 4 samples (the training guard), else with its canonical store key
/// when `keyed`. A key hashes the whole dataset (`dataset_id`), so it is
/// only computed with a store.
fn targets(
    data: &CampaignData,
    kind: MlKind,
    set: FeatureSet,
    keyed: bool,
) -> impl Iterator<Item = Option<(Dataset, Option<String>)>> + '_ {
    let wer =
        (0..RANK_COUNT).map(move |rank| (wer_key(set, rank), build_wer_dataset(data, set, rank)));
    let pue = std::iter::once_with(move || (pue_key(set), build_pue_dataset(data, set)));
    wer.chain(pue).map(move |(slot, dataset)| {
        (dataset.len() >= 4).then(|| {
            let key = keyed.then(|| model_store_key(kind, &dataset_id(slot, &dataset), ""));
            (dataset, key)
        })
    })
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
        let restored: ErrorModel = serde_json::from_str(&json).expect("restore");
        let row = &d.rows[0];
        assert_eq!(
            model.predict_wer_total(&row.features, row.op),
            restored.predict_wer_total(&row.features, row.op)
        );
        assert_eq!(
            model.predict_pue(&row.features, OperatingPoint::relaxed(2.283, 70.0)),
            restored.predict_pue(&row.features, OperatingPoint::relaxed(2.283, 70.0))
        );
        assert_eq!(restored.kind, MlKind::Knn);
    }

    #[test]
    fn models_fit_only_the_width_they_read() {
        // The signal sits in the last of three features, so every forest
        // split reads it.
        let x: Vec<Vec<f64>> = (0..24).map(|i| vec![0.0, 1.0, f64::from(i)]).collect();
        let y: Vec<f64> = (0..24).map(f64::from).collect();
        for kind in MlKind::ALL {
            let model = kind.train_any(&x, &y);
            assert!(model.fits(3), "{kind}");
            assert!(!model.fits(2), "{kind} reads past a 2-wide row");
        }
        // KNN and SVR scale exactly the trained width; a forest only
        // needs every split feature in range.
        assert!(!MlKind::Knn.train_any(&x, &y).fits(4));
        assert!(!MlKind::Svm.train_any(&x, &y).fits(4));
        assert!(MlKind::Rdf.train_any(&x, &y).fits(4));
    }

    #[test]
    fn all_three_learners_train() {
        let d = data();
        for kind in MlKind::ALL {
            let model = train_error_model(&d, kind, FeatureSet::Set1);
            assert_eq!(model.kind, kind);
            assert_eq!(model.kind.label().len(), 3);
        }
    }

    #[test]
    fn keyed_training_returns_the_serving_keys_and_none_without_a_store() {
        let d = data();
        let dir = std::env::temp_dir().join(format!("wade-core-keyed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir);
        let (kind, set) = (MlKind::Knn, FeatureSet::Set1);
        let (stored, mut keys) = train_error_model_stored(Some(&store), &d, kind, set);
        let (plain, no_keys) = train_error_model_stored(None, &d, kind, set);
        let mut listed: Vec<String> = store
            .ls()
            .into_iter()
            .filter(|meta| meta.kind == crate::MODEL_KIND)
            .filter_map(|meta| meta.key)
            .collect();
        listed.sort();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!keys.is_empty());
        keys.sort();
        assert_eq!(keys, listed);
        assert!(no_keys.is_empty());
        assert_eq!(stored.to_json().unwrap(), plain.to_json().unwrap());
    }
}
