//! Leave-one-workload-out accuracy evaluation (Figs. 11 and 12).
//!
//! The paper's accuracy results are a *grid*: every model family × input
//! feature set × target (per-rank WER, server PUE), each cell
//! cross-validated leave-one-workload-out. [`EvalGrid`] evaluates that
//! whole grid in **one dispatch** on the shared rayon pool (fold units fan
//! out through `wade_ml::EvalGrid`, trained models are memoized per
//! `(model, target dataset, held-out workload)` key) and serves every
//! consumer — `fig11_wer_accuracy`, `fig12_pue_accuracy`,
//! `table3_feature_sets`, `repro_all` — from the same evaluation instead
//! of three independent re-trainings. Results are byte-identical at any
//! thread count (`tests/ml_parallel.rs`), and a single-cell sub-grid
//! reproduces the full grid's cell bit for bit.

use crate::campaign::CampaignData;
use crate::collect::{build_pue_dataset, build_wer_dataset};
use crate::model::{AnyModel, MlKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wade_dram::RANK_COUNT;
use wade_features::FeatureSet;
use wade_ml::metrics::{mean_absolute_error_percent, mean_percentage_error};
use wade_ml::{Dataset, GroupCvOutcome, SharedModel};
use wade_store::ArtifactStore;

/// The artifact kind of persisted trained fold models in a
/// [`wade_store::ArtifactStore`].
pub const MODEL_KIND: &str = "model";

/// The canonical store key of one trained fold model: trainer
/// configuration ([`MlKind`] + [`crate::TRAINER_CONFIG_VERSION`]), the
/// content fingerprint of the training dataset (which folds in the
/// campaign data, the feature set, the target and every protocol filter),
/// and the held-out group of the fold (empty = trained on all samples).
pub(crate) fn model_store_key(kind: MlKind, dataset_id: &str, fold: &str) -> String {
    format!("model|trainer={}|dataset={}|fold={}", kind.store_tag(), dataset_id, fold)
}

/// Dataset identity inside model store keys. Unlike the campaign/profile
/// keys, the dataset is far too large to embed verbatim, so this is the
/// one key component that rests on hashing: the grid slot (feature set ×
/// rank/PUE target), sample count, group count and input dimension stay
/// verbatim, and the content itself is covered by two
/// independently-salted FxHash64 passes. A wrong hit therefore needs two
/// datasets agreeing on every verbatim discriminator *and* colliding
/// under both salted hashes — FxHash is not cryptographic, so this is a
/// practical bound, not a proof (ARCHITECTURE.md §11 states the caveat).
///
/// Returns `None` if the dataset fails to serialize; the affected cell
/// then trains in-process without store persistence instead of aborting
/// the whole grid.
pub(crate) fn dataset_id(slot: u64, ds: &Dataset) -> Option<String> {
    let json = serde_json::to_string(ds).ok()?;
    let lo = wade_store::fingerprint64_salted("wade-dataset-a|", &json);
    let hi = wade_store::fingerprint64_salted("wade-dataset-b|", &json);
    Some(format!(
        "slot{slot}:n{}:g{}:d{}@{hi:016x}{lo:016x}",
        ds.len(),
        ds.groups().len(),
        ds.dim(),
    ))
}

/// Accuracy summary of one (learner, feature set) combination.
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// Learner evaluated.
    pub kind: MlKind,
    /// Feature set used.
    pub set: FeatureSet,
    /// Mean percentage error per DIMM/rank (Fig. 11a–c bars). `None` for
    /// ranks without enough measurable samples.
    pub per_rank: Vec<Option<f64>>,
    /// Mean percentage error per application (Fig. 11d–f bars).
    pub per_workload: Vec<(String, f64)>,
    /// Grand average over ranks (the paper's headline numbers).
    pub average: f64,
}

/// The shared model-evaluation grid: every requested (learner × feature
/// set) cell for the WER and PUE targets, evaluated in one parallel
/// dispatch over the campaign data (module docs have the full contract).
pub struct EvalGrid {
    wer: HashMap<(MlKind, FeatureSet), AccuracyReport>,
    pue: HashMap<(MlKind, FeatureSet), f64>,
    trainings: usize,
    cache_hits: usize,
    store_hits: usize,
}

/// Dataset memo key of (set, rank) WER cells / the PUE cell, stable across
/// grids: 16 slots per feature set, slot 15 = PUE.
const _: () = assert!(RANK_COUNT <= 15, "rank keys would collide with the PUE slot");

pub(crate) fn wer_key(set: FeatureSet, rank: usize) -> u64 {
    set_index(set) * 16 + rank as u64
}

pub(crate) fn pue_key(set: FeatureSet) -> u64 {
    set_index(set) * 16 + 15
}

fn set_index(set: FeatureSet) -> u64 {
    FeatureSet::ALL.iter().position(|&s| s == set).expect("unknown feature set") as u64
}

impl EvalGrid {
    /// Evaluates a sub-grid — the requested learners × sets, WER and/or
    /// PUE targets — in one pool dispatch, persisting fold models through
    /// `store` (`None` = purely in-process). Trained fold models are
    /// keyed by (trainer config, dataset content fingerprint, held-out
    /// group); a store hit deserializes a bit-identically-predicting
    /// [`AnyModel`] instead of training, so a warm-store evaluation
    /// performs **zero** trainings
    /// ([`EvalGrid::trainings`] / [`EvalGrid::store_hits`] expose the
    /// split) while producing byte-identical reports — asserted by
    /// `tests/artifact_store.rs`.
    pub fn evaluate_targets_with(
        store: Option<Arc<ArtifactStore>>,
        data: &CampaignData,
        kinds: &[MlKind],
        sets: &[FeatureSet],
        wer: bool,
        pue: bool,
    ) -> Self {
        // Build the datasets first: the trainer closures need the complete
        // dataset-fingerprint table to address persisted models. Datasets
        // failing the guard are simply not registered; they surface as
        // absent fold entries, which the assembly below reads back as
        // `per_rank: None` / a `NaN` PUE error. The guards replicate the
        // historical evaluation protocol exactly: datasets need ≥ 6
        // samples over ≥ 3 workloads, folds need ≥ 4 training samples.
        let mut datasets: Vec<(u64, Dataset)> = Vec::new();
        for &set in sets {
            if wer {
                for rank in 0..RANK_COUNT {
                    let ds = build_wer_dataset(data, set, rank);
                    if ds.len() >= 6 && ds.groups().len() >= 3 {
                        datasets.push((wer_key(set, rank), ds));
                    }
                }
            }
            if pue {
                let ds = build_pue_dataset(data, set);
                if ds.len() >= 6 && ds.groups().len() >= 3 {
                    datasets.push((pue_key(set), ds));
                }
            }
        }
        // Dataset identities (slot key → verbatim discriminators + content
        // hash), only paid for when a store is in play.
        let fingerprints: Arc<HashMap<u64, String>> = Arc::new(if store.is_some() {
            datasets
                .iter()
                .filter_map(|(k, ds)| dataset_id(*k, ds).map(|id| (*k, id)))
                .collect()
        } else {
            HashMap::new()
        });

        let trainings = Arc::new(AtomicUsize::new(0));
        let store_hits = Arc::new(AtomicUsize::new(0));
        let mut grid = wade_ml::EvalGrid::with_min_train(4);
        for &kind in kinds {
            let store = store.clone();
            let fingerprints = fingerprints.clone();
            let trainings = trainings.clone();
            let store_hits = store_hits.clone();
            grid.add_trainer(
                kind.grid_key(),
                Box::new(
                    move |key: &wade_ml::ModelKey, x: &[Vec<f64>], y: &[f64]| {
                        let Some(store) = store.as_deref() else {
                            trainings.fetch_add(1, Ordering::Relaxed);
                            return kind.train_shared(x, y);
                        };
                        // A dataset without a registered fingerprint (its
                        // identity failed to serialize) trains in-process —
                        // graceful degradation, never a panic mid-grid.
                        let Some(ds_id) = fingerprints.get(&key.dataset) else {
                            trainings.fetch_add(1, Ordering::Relaxed);
                            return kind.train_shared(x, y);
                        };
                        let skey = model_store_key(kind, ds_id, &key.fold);
                        if let Some(model) = store.get::<AnyModel>(MODEL_KIND, &skey) {
                            store_hits.fetch_add(1, Ordering::Relaxed);
                            return Arc::new(model) as SharedModel;
                        }
                        trainings.fetch_add(1, Ordering::Relaxed);
                        let model = kind.train_any(x, y);
                        // Best effort: an unwritable store degrades to
                        // train-every-process, never to failure.
                        let _ = store.put(MODEL_KIND, &skey, &model);
                        Arc::new(model) as SharedModel
                    },
                ),
            );
        }
        for (key, ds) in datasets {
            grid.add_dataset(key, ds);
        }

        // One dispatch over every (learner, dataset, fold) unit.
        let cells = grid.evaluate();
        let mut folds: HashMap<(u64, u64), Vec<GroupCvOutcome>> = HashMap::new();
        for cell in cells {
            folds.insert((cell.trainer, cell.dataset), cell.folds);
        }

        let mut wer_reports = HashMap::new();
        let mut pue_errors = HashMap::new();
        for &kind in kinds {
            for &set in sets {
                if wer {
                    let report = assemble_wer_report(kind, set, &folds);
                    wer_reports.insert((kind, set), report);
                }
                if pue {
                    let err = match folds.get(&(kind.grid_key(), pue_key(set))) {
                        Some(pue_folds) => assemble_pue_error(pue_folds),
                        None => f64::NAN,
                    };
                    pue_errors.insert((kind, set), err);
                }
            }
        }
        Self {
            wer: wer_reports,
            pue: pue_errors,
            trainings: trainings.load(Ordering::Relaxed),
            cache_hits: grid.cache().hits(),
            store_hits: store_hits.load(Ordering::Relaxed),
        }
    }

    /// The WER accuracy report of one evaluated cell (Fig. 11's view).
    ///
    /// # Panics
    /// Panics if the cell was outside the evaluated sub-grid.
    pub fn wer_report(&self, kind: MlKind, set: FeatureSet) -> &AccuracyReport {
        self.wer
            .get(&(kind, set))
            .unwrap_or_else(|| panic!("WER cell {kind}/{set} not evaluated by this grid"))
    }

    /// The PUE error of one evaluated cell in percentage points (Fig. 12's
    /// axis); `NaN` when the campaign lacked trainable PUE samples.
    ///
    /// # Panics
    /// Panics if the cell was outside the evaluated sub-grid.
    pub fn pue_error(&self, kind: MlKind, set: FeatureSet) -> f64 {
        *self
            .pue
            .get(&(kind, set))
            .unwrap_or_else(|| panic!("PUE cell {kind}/{set} not evaluated by this grid"))
    }

    /// Number of fold models actually trained during the dispatch (store
    /// hits are not trainings; a fully warm store reports 0 here).
    pub fn trainings(&self) -> usize {
        self.trainings
    }

    /// Number of fold models served from the in-process memo instead of
    /// re-trained.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Number of fold models deserialized from the artifact store instead
    /// of trained.
    pub fn store_hits(&self) -> usize {
        self.store_hits
    }
}

/// Folds → Fig. 11 report, replicating the historical serial loop: rank
/// errors in (rank, held-out group) order, workload errors aggregated
/// rank-major in first-appearance order, linear-space MPE.
fn assemble_wer_report(
    kind: MlKind,
    set: FeatureSet,
    folds: &HashMap<(u64, u64), Vec<GroupCvOutcome>>,
) -> AccuracyReport {
    let mut per_rank: Vec<Option<f64>> = Vec::with_capacity(RANK_COUNT);
    let mut workload_errs: Vec<(String, Vec<f64>)> = Vec::new();
    for rank in 0..RANK_COUNT {
        let Some(rank_folds) = folds.get(&(kind.grid_key(), wer_key(set, rank))) else {
            per_rank.push(None);
            continue;
        };
        let mut rank_errs = Vec::new();
        for fold in rank_folds {
            // Predictions and targets are log₁₀(WER); the paper reports the
            // MPE of the *linear* rate.
            let preds: Vec<f64> = fold.predictions.iter().map(|p| 10f64.powf(*p)).collect();
            let actuals: Vec<f64> = fold.actuals.iter().map(|t| 10f64.powf(*t)).collect();
            let mpe = mean_percentage_error(&preds, &actuals);
            rank_errs.push(mpe);
            match workload_errs.iter_mut().find(|(w, _)| *w == fold.group) {
                Some((_, v)) => v.push(mpe),
                None => workload_errs.push((fold.group.clone(), vec![mpe])),
            }
        }
        per_rank.push(if rank_errs.is_empty() {
            None
        } else {
            Some(rank_errs.iter().sum::<f64>() / rank_errs.len() as f64)
        });
    }

    let trained: Vec<f64> = per_rank.iter().flatten().copied().collect();
    let average = if trained.is_empty() {
        f64::NAN
    } else {
        trained.iter().sum::<f64>() / trained.len() as f64
    };
    let per_workload = workload_errs
        .into_iter()
        .map(|(w, errs)| {
            let mean = errs.iter().sum::<f64>() / errs.len() as f64;
            (w, mean)
        })
        .collect();
    AccuracyReport { kind, set, per_rank, per_workload, average }
}

/// Folds → Fig. 12 number: per-fold MAE of the clamped probability, in
/// percentage points, averaged over folds.
fn assemble_pue_error(folds: &[GroupCvOutcome]) -> f64 {
    let errs: Vec<f64> = folds
        .iter()
        .map(|fold| {
            let preds: Vec<f64> =
                fold.predictions.iter().map(|p| p.clamp(0.0, 1.0)).collect();
            mean_absolute_error_percent(&preds, &fold.actuals)
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
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
            WorkloadId::Kmeans.instantiate(1, Scale::Test),
        ];
        Campaign::new(SimulatedServer::with_seed(11), CampaignConfig::quick()).collect(&suite, 4)
    }

    /// The store-free grid over `kinds` × `sets`.
    fn grid(
        d: &CampaignData,
        kinds: &[MlKind],
        sets: &[FeatureSet],
        wer: bool,
        pue: bool,
    ) -> EvalGrid {
        EvalGrid::evaluate_targets_with(None, d, kinds, sets, wer, pue)
    }

    fn full_grid(d: &CampaignData) -> EvalGrid {
        grid(d, &MlKind::ALL, &FeatureSet::ALL, true, true)
    }

    fn wer_cell(d: &CampaignData, kind: MlKind, set: FeatureSet) -> AccuracyReport {
        grid(d, &[kind], &[set], true, false).wer_report(kind, set).clone()
    }

    fn pue_cell(d: &CampaignData, kind: MlKind, set: FeatureSet) -> f64 {
        grid(d, &[kind], &[set], false, true).pue_error(kind, set)
    }

    #[test]
    fn wer_accuracy_report_is_well_formed() {
        let d = data();
        let report = wer_cell(&d, MlKind::Knn, FeatureSet::Set1);
        assert_eq!(report.per_rank.len(), RANK_COUNT);
        assert!(report.average.is_finite(), "no rank trained");
        assert!(report.average >= 0.0);
        assert!(!report.per_workload.is_empty());
    }

    #[test]
    fn pue_accuracy_is_bounded() {
        let d = data();
        let err = pue_cell(&d, MlKind::Knn, FeatureSet::Set2);
        if err.is_finite() {
            assert!((0.0..=100.0).contains(&err), "PUE error {err}");
        }
    }

    #[test]
    fn knn_beats_the_constant_baseline_shape() {
        // The workload-aware model must out-predict a workload-unaware
        // constant (per-op mean) by a clear margin — the §VI-C claim.
        let d = data();
        let knn = wer_cell(&d, MlKind::Knn, FeatureSet::Set1);
        assert!(knn.average < 200.0, "KNN average MPE {}", knn.average);
    }

    #[test]
    fn grid_cells_match_single_cell_grids() {
        // The shared grid and a grid of one cell must be the same numbers,
        // bit for bit.
        let d = data();
        let grid = full_grid(&d);
        for kind in [MlKind::Knn, MlKind::Rdf] {
            let solo = wer_cell(&d, kind, FeatureSet::Set1);
            let cell = grid.wer_report(kind, FeatureSet::Set1);
            assert_eq!(solo.average.to_bits(), cell.average.to_bits());
            assert_eq!(solo.per_workload, cell.per_workload);
            let pue_solo = pue_cell(&d, kind, FeatureSet::Set2);
            let pue_cell = grid.pue_error(kind, FeatureSet::Set2);
            assert_eq!(pue_solo.to_bits(), pue_cell.to_bits());
        }
    }

    #[test]
    fn warm_store_evaluation_trains_nothing_and_matches_bitwise() {
        let dir = std::env::temp_dir()
            .join(format!("wade-model-store-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir));
        let d = data();
        let reference = full_grid(&d); // no store
        let cold = EvalGrid::evaluate_targets_with(
            Some(store.clone()),
            &d,
            &MlKind::ALL,
            &FeatureSet::ALL,
            true,
            true,
        );
        assert!(cold.trainings() > 0);
        assert_eq!(cold.store_hits(), 0);
        let warm = EvalGrid::evaluate_targets_with(
            Some(store),
            &d,
            &MlKind::ALL,
            &FeatureSet::ALL,
            true,
            true,
        );
        assert_eq!(warm.trainings(), 0, "a warm store must serve every fold model");
        assert_eq!(warm.store_hits(), cold.trainings());
        for kind in MlKind::ALL {
            for set in FeatureSet::ALL {
                for grid in [&cold, &warm] {
                    let a = reference.wer_report(kind, set);
                    let b = grid.wer_report(kind, set);
                    assert_eq!(a.average.to_bits(), b.average.to_bits());
                    assert_eq!(a.per_workload, b.per_workload);
                    assert_eq!(
                        reference.pue_error(kind, set).to_bits(),
                        grid.pue_error(kind, set).to_bits()
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_counts_one_training_per_fold_unit() {
        let d = data();
        let grid = full_grid(&d);
        assert!(grid.trainings() > 0);
        // One dispatch covers every unit exactly once: the memo never pays
        // a redundant training inside a single evaluation.
        assert_eq!(grid.cache_hits(), 0);
    }
}
