//! Leave-one-workload-out accuracy evaluation (Figs. 11 and 12).
//!
//! The paper's accuracy results are a *grid*: every model family × input
//! feature set × target (per-rank WER, server PUE), each cell
//! cross-validated leave-one-workload-out. [`EvalGrid`] evaluates that
//! whole grid in **one dispatch** on the shared rayon pool, one unit per
//! (target dataset, held-out workload): the unit trains every requested
//! learner on that fold and drops each model once its held-out rows are
//! predicted. The one evaluation serves every consumer
//! (`fig11_wer_accuracy`, `fig12_pue_accuracy`, `table3_feature_sets`,
//! `repro_all`) instead of three independent re-trainings. Results are
//! byte-identical at any thread count (`tests/ml_parallel.rs`), and a
//! single-cell sub-grid reproduces the full grid's cell bit for bit.

use crate::campaign::CampaignData;
use crate::collect::{build_pue_dataset, build_wer_dataset};
use crate::model::{AnyModel, MlKind};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use wade_dram::RANK_COUNT;
use wade_features::FeatureSet;
use wade_ml::metrics::{mean_absolute_error_percent, mean_percentage_error};
use wade_ml::{Dataset, GroupCvOutcome, Regressor};
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
/// independently-salted FxHash64 passes over its bits
/// ([`dataset_fingerprint`]). A wrong hit therefore needs two datasets
/// agreeing on every verbatim discriminator *and* colliding under both
/// salted hashes — FxHash is not cryptographic, so this is a practical
/// bound, not a proof (ARCHITECTURE.md §11 states the caveat).
pub(crate) fn dataset_id(slot: u64, ds: &Dataset) -> String {
    let lo = dataset_fingerprint("wade-dataset-a|", ds);
    let hi = dataset_fingerprint("wade-dataset-b|", ds);
    format!("slot{slot}:n{}:g{}:d{}@{hi:016x}{lo:016x}", ds.len(), ds.groups().len(), ds.dim())
}

/// FxHash64 of `ds`'s content, domain-separated by `salt`: the dimension
/// and sample count, then per sample in order its feature bits, its
/// target bits and its group label, length-prefixed so that no two
/// different label sequences feed the same words. Hashing bit patterns
/// distinguishes every value a sample can hold (`0.0` from `-0.0`
/// included) without formatting a single number.
fn dataset_fingerprint(salt: &str, ds: &Dataset) -> u64 {
    use std::hash::Hasher as _;
    let mut hasher = rustc_hash::FxHasher::default();
    hasher.write(salt.as_bytes());
    hasher.write_usize(ds.dim());
    hasher.write_usize(ds.len());
    for sample in ds.samples() {
        for value in &sample.features {
            hasher.write_u64(value.to_bits());
        }
        hasher.write_u64(sample.target.to_bits());
        hasher.write_usize(sample.group.len());
        hasher.write(sample.group.as_bytes());
    }
    hasher.finish()
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
    /// [`AnyModel`] instead of training (every fold model is trained or
    /// read exactly once per call), so a warm-store evaluation performs
    /// **zero** trainings
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
        // Datasets failing the guard are simply not registered; they
        // surface as absent fold entries, which the assembly below reads
        // back as `per_rank: None` / a `NaN` PUE error. The guards
        // replicate the historical evaluation protocol exactly: datasets
        // need ≥ 6 samples over ≥ 3 workloads, folds need ≥ 4 training
        // samples.
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
        let (folds, trainings, store_hits) = evaluate_folds(store.as_deref(), &datasets, kinds);

        let mut wer_reports = HashMap::new();
        let mut pue_errors = HashMap::new();
        for &kind in kinds {
            for &set in sets {
                if wer {
                    wer_reports.insert((kind, set), assemble_wer_report(kind, set, &folds));
                }
                if pue {
                    pue_errors.insert((kind, set), assemble_pue_error(kind, set, &folds));
                }
            }
        }
        Self { wer: wer_reports, pue: pue_errors, trainings, store_hits }
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

    /// Number of fold models deserialized from the artifact store instead
    /// of trained.
    pub fn store_hits(&self) -> usize {
        self.store_hits
    }
}

/// Fold outcomes per (learner, dataset slot), in held-out group order.
type Folds = HashMap<(MlKind, u64), Vec<GroupCvOutcome>>;

/// The fewest training samples a fold may have and still be evaluated.
const MIN_FOLD_TRAIN: usize = 4;

/// Every (learner × dataset × held-out group) fold of `datasets`, in one
/// pool dispatch, plus the number of fold models trained and served from
/// `store`. The parallel unit is a (dataset, held-out group) pair: the
/// split is materialized once and shared by every learner, which run in
/// `kinds` order. Units merge back in input order, so each slot's folds
/// come out in group order, byte-identical at any thread count.
fn evaluate_folds(
    store: Option<&ArtifactStore>,
    datasets: &[(u64, Dataset)],
    kinds: &[MlKind],
) -> (Folds, usize, usize) {
    // Dataset identities (verbatim discriminators + content hash), only
    // computed when a store is in play.
    let ids: Vec<Option<String>> = datasets
        .iter()
        .map(|(slot, ds)| store.map(|_| dataset_id(*slot, ds)))
        .collect();
    let units: Vec<(usize, String)> = datasets
        .iter()
        .enumerate()
        .flat_map(|(di, (_, ds))| ds.groups().into_iter().map(move |group| (di, group)))
        .collect();
    let outcomes: Vec<(Vec<GroupCvOutcome>, usize, usize)> = units
        .par_iter()
        .map(|(di, group)| {
            let (train_x, train_y, test_x, actuals) =
                datasets[*di].1.split_xy_leave_group_out(group);
            if train_x.len() < MIN_FOLD_TRAIN {
                return (Vec::new(), 0, 0);
            }
            let (mut trainings, mut store_hits) = (0, 0);
            let folds = kinds
                .iter()
                .map(|&kind| {
                    let key = ids[*di].as_deref().map(|id| model_store_key(kind, id, group));
                    let (model, hit) = fold_model(store.zip(key.as_deref()), || {
                        kind.train_any(&train_x, &train_y)
                    });
                    if hit {
                        store_hits += 1;
                    } else {
                        trainings += 1;
                    }
                    GroupCvOutcome {
                        group: group.clone(),
                        predictions: test_x.iter().map(|row| model.predict(row)).collect(),
                        actuals: actuals.clone(),
                    }
                })
                .collect();
            (folds, trainings, store_hits)
        })
        .collect();

    let mut folds = Folds::new();
    let (mut trainings, mut store_hits) = (0, 0);
    for ((di, _), (unit, unit_trainings, unit_hits)) in units.iter().zip(outcomes) {
        trainings += unit_trainings;
        store_hits += unit_hits;
        for (&kind, fold) in kinds.iter().zip(unit) {
            folds.entry((kind, datasets[*di].0)).or_default().push(fold);
        }
    }
    (folds, trainings, store_hits)
}

/// One model: read from the store under the given key when it holds one
/// (the flag is then `true`), else produced by `train` and published
/// best-effort — an unwritable store degrades to train-every-process,
/// never to failure. `None` trains without persistence.
pub(crate) fn fold_model(
    store: Option<(&ArtifactStore, &str)>,
    train: impl FnOnce() -> AnyModel,
) -> (AnyModel, bool) {
    let Some((store, key)) = store else { return (train(), false) };
    if let Some(model) = store.get::<AnyModel>(MODEL_KIND, key) {
        return (model, true);
    }
    let model = train();
    let _ = store.put(MODEL_KIND, key, &model);
    (model, false)
}

/// Folds → Fig. 11 report, replicating the historical serial loop: rank
/// errors in (rank, held-out group) order, workload errors aggregated
/// rank-major in first-appearance order, linear-space MPE.
fn assemble_wer_report(
    kind: MlKind,
    set: FeatureSet,
    folds: &Folds,
) -> AccuracyReport {
    let mut per_rank: Vec<Option<f64>> = Vec::with_capacity(RANK_COUNT);
    let mut workload_errs: Vec<(String, Vec<f64>)> = Vec::new();
    for rank in 0..RANK_COUNT {
        let Some(rank_folds) = folds.get(&(kind, wer_key(set, rank))) else {
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
/// percentage points, averaged over folds; `NaN` without folds.
fn assemble_pue_error(kind: MlKind, set: FeatureSet, folds: &Folds) -> f64 {
    let errs: Vec<f64> = folds
        .get(&(kind, pue_key(set)))
        .map_or(&[][..], Vec::as_slice)
        .iter()
        .map(|fold| {
            let preds: Vec<f64> =
                fold.predictions.iter().map(|p| p.clamp(0.0, 1.0)).collect();
            mean_absolute_error_percent(&preds, &fold.actuals)
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::server::SimulatedServer;
    use wade_ml::{leave_one_group_out, ForestTrainer, KnnTrainer, SvrTrainer};
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

    /// Every number of a report as bit patterns, so NaN compares equal.
    #[allow(clippy::type_complexity)]
    fn report_bits(r: &AccuracyReport) -> (Vec<Option<u64>>, Vec<(String, u64)>, u64) {
        (
            r.per_rank.iter().map(|e| e.map(f64::to_bits)).collect(),
            r.per_workload.iter().map(|(w, e)| (w.clone(), e.to_bits())).collect(),
            r.average.to_bits(),
        )
    }

    /// The registered datasets of a full grid — (slot, dataset) pairs of
    /// every target with ≥ 6 samples over ≥ 3 workloads — built straight
    /// from the dataset builders.
    fn registered_datasets(d: &CampaignData) -> Vec<(u64, Dataset)> {
        let mut datasets = Vec::new();
        for set in FeatureSet::ALL {
            for rank in 0..RANK_COUNT {
                datasets.push((wer_key(set, rank), build_wer_dataset(d, set, rank)));
            }
            datasets.push((pue_key(set), build_pue_dataset(d, set)));
        }
        datasets.retain(|(_, ds)| ds.len() >= 6 && ds.groups().len() >= 3);
        datasets
    }

    /// Folds of the registered datasets whose training split keeps at
    /// least 4 samples.
    fn floor_passing_folds(d: &CampaignData) -> usize {
        registered_datasets(d)
            .iter()
            .map(|(_, ds)| {
                ds.groups().iter().filter(|g| ds.split_leave_group_out(g).0.len() >= 4).count()
            })
            .sum()
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
        assert_eq!(warm.store_hits(), MlKind::ALL.len() * floor_passing_folds(&d));
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
        let folds = floor_passing_folds(&d);
        assert!(folds > 0);
        // One dispatch trains every learner exactly once per fold.
        assert_eq!(grid.trainings(), MlKind::ALL.len() * folds);
        assert_eq!(grid.store_hits(), 0);
    }

    #[test]
    fn grid_cells_match_fold_at_a_time_cv() {
        // Every cell's folds are `leave_one_group_out` with the learner's
        // paper-default trainer, minus folds below the training floor.
        let d = data();
        let grid = full_grid(&d);
        for kind in MlKind::ALL {
            let mut reference = Folds::new();
            for (slot, ds) in registered_datasets(&d) {
                let folds = match kind {
                    MlKind::Svm => leave_one_group_out(&ds, &SvrTrainer::paper_default()),
                    MlKind::Knn => leave_one_group_out(&ds, &KnnTrainer::paper_default()),
                    MlKind::Rdf => leave_one_group_out(&ds, &ForestTrainer::paper_default()),
                };
                let kept = folds.into_iter().filter(|f| ds.len() - f.actuals.len() >= 4);
                reference.insert((kind, slot), kept.collect());
            }
            for set in FeatureSet::ALL {
                assert_eq!(
                    report_bits(grid.wer_report(kind, set)),
                    report_bits(&assemble_wer_report(kind, set, &reference)),
                    "{kind}/{set}"
                );
                assert_eq!(
                    grid.pue_error(kind, set).to_bits(),
                    assemble_pue_error(kind, set, &reference).to_bits(),
                    "{kind}/{set}"
                );
            }
        }
    }

    #[test]
    fn folds_below_the_training_floor_are_skipped() {
        let set = FeatureSet::Set1;
        // Three workloads of one sample each: every fold trains on 2 < 4.
        let mut thin = Dataset::new(1);
        // Workloads a and b leave 4 training samples each, c leaves 2.
        let mut edge = Dataset::new(1);
        for (i, workload) in ["a", "b", "c"].into_iter().enumerate() {
            thin.push(vec![i as f64], i as f64, workload.to_string());
        }
        for (i, workload) in ["a", "b", "c", "c", "c"].into_iter().enumerate() {
            edge.push(vec![i as f64], i as f64, workload.to_string());
        }
        let datasets =
            vec![(wer_key(set, 0), thin.clone()), (pue_key(set), thin), (wer_key(set, 1), edge)];
        let (folds, trainings, store_hits) = evaluate_folds(None, &datasets, &MlKind::ALL);
        assert_eq!((trainings, store_hits), (MlKind::ALL.len() * 2, 0));
        for kind in MlKind::ALL {
            let report = assemble_wer_report(kind, set, &folds);
            assert_eq!(report.per_rank[0], None);
            assert!(report.per_rank[1].is_some());
            assert!(assemble_pue_error(kind, set, &folds).is_nan());
            let groups: Vec<&str> =
                folds[&(kind, wer_key(set, 1))].iter().map(|f| f.group.as_str()).collect();
            assert_eq!(groups, ["a", "b"]);
        }
    }

    #[test]
    fn dataset_id_tracks_every_bit_label_boundary_and_order() {
        type Rows = Vec<(Vec<f64>, f64, &'static str)>;
        let dataset = |rows: &Rows| {
            let mut ds = Dataset::new(2);
            for (features, target, group) in rows {
                ds.push(features.clone(), *target, group.to_string());
            }
            ds
        };
        let base: Rows = vec![(vec![1.5, 0.0], 2.0, "ab"), (vec![3.0, -1.0], 4.0, "c")];
        let flip = |f: f64| f64::from_bits(f.to_bits() ^ 1);
        let mut variants: Vec<(&str, Rows)> = Vec::new();
        let mut edit = |what, change: &dyn Fn(&mut Rows)| {
            let mut rows = base.clone();
            change(&mut rows);
            variants.push((what, rows));
        };
        edit("one feature bit", &|r| r[0].0[0] = flip(r[0].0[0]));
        edit("0.0 vs -0.0", &|r| r[0].0[1] = -0.0);
        edit("target bits", &|r| r[1].1 = flip(r[1].1));
        edit("group label", &|r| r[0].2 = "ax");
        edit("group boundary", &|r| (r[0].2, r[1].2) = ("a", "bc"));
        edit("sample order", &|r| r.swap(0, 1));

        let id = dataset_id(3, &dataset(&base));
        assert_eq!(id, dataset_id(3, &dataset(&base)), "the id must be stable across calls");
        assert!(id.starts_with("slot3:n2:g2:d2@"), "{id}");
        let mut seen = std::collections::HashSet::from([id]);
        for (what, rows) in &variants {
            let changed = dataset_id(3, &dataset(rows));
            assert!(seen.insert(changed), "changing the {what} must change the id");
        }
    }
}
