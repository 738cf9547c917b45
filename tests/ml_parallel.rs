//! Thread-count byte-identity of the ML training/evaluation engine: forest
//! training, LOGO cross-validation, `ErrorModel::predict_rows` and the full
//! `EvalGrid` must produce bit-identical results on 1 and 8 threads — the
//! same determinism contract the simulator, campaign and profiling layers
//! already carry (`sim.rs` module docs, ARCHITECTURE.md §3/§10).

use wade::core::{
    train_error_model, AccuracyReport, Campaign, CampaignConfig, EvalGrid, MlKind, Prediction,
    SimulatedServer,
};
use wade::dram::{OperatingPoint, RANK_COUNT};
use wade::features::{FeatureSet, FeatureVector};
use wade::ml::{leave_one_group_out, Dataset, ForestTrainer, KnnTrainer, Regressor, Trainer};
use wade::workloads::{Scale, WorkloadId};

/// Runs `f` on a bounded pool of `threads` workers.
fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

fn synthetic(n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<f64> =
            (0..dim).map(|j| (((i * 31 + j * 17) % 97) as f64) / 9.7).collect();
        let t = row[0] - 0.4 * row[1 % dim] + ((i % 5) as f64);
        x.push(row);
        y.push(t);
    }
    (x, y)
}

#[test]
fn forest_training_is_byte_identical_across_thread_counts() {
    let (x, y) = synthetic(80, 6);
    let a = on_pool(1, || ForestTrainer::new(40).train(&x, &y));
    let b = on_pool(8, || ForestTrainer::new(40).train(&x, &y));
    // The serialized ensembles (every split, every leaf) must match, not
    // just the predictions.
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "forest structure diverged between 1 and 8 threads"
    );
    for q in x.iter().take(10) {
        assert_eq!(a.predict(q).to_bits(), b.predict(q).to_bits());
    }
}

#[test]
fn logo_cv_is_byte_identical_across_thread_counts() {
    let (x, y) = synthetic(60, 4);
    let mut ds = Dataset::new(4);
    for (i, (row, t)) in x.into_iter().zip(y).enumerate() {
        ds.push(row, t, format!("g{}", i % 6));
    }
    // One distance-based and one randomized learner.
    let knn_a = on_pool(1, || leave_one_group_out(&ds, &KnnTrainer::new(3)));
    let knn_b = on_pool(8, || leave_one_group_out(&ds, &KnnTrainer::new(3)));
    assert_eq!(knn_a, knn_b);
    let rdf_a = on_pool(1, || leave_one_group_out(&ds, &ForestTrainer::new(15)));
    let rdf_b = on_pool(8, || leave_one_group_out(&ds, &ForestTrainer::new(15)));
    assert_eq!(rdf_a, rdf_b);
}

/// `(workload, bit pattern)` of each per-workload error: f64 `==` would
/// let −0.0 match 0.0 and never match NaN.
fn workload_bits(report: &AccuracyReport) -> Vec<(&str, u64)> {
    report.per_workload.iter().map(|(name, mpe)| (name.as_str(), mpe.to_bits())).collect()
}

fn small_campaign() -> wade::core::CampaignData {
    let suite = vec![
        WorkloadId::Backprop.instantiate(1, Scale::Test),
        WorkloadId::Nw.instantiate(1, Scale::Test),
        WorkloadId::Memcached.instantiate(8, Scale::Test),
        WorkloadId::Srad.instantiate(8, Scale::Test),
        WorkloadId::Kmeans.instantiate(1, Scale::Test),
    ];
    Campaign::new(SimulatedServer::with_seed(11), CampaignConfig::quick()).collect(&suite, 4)
}

#[test]
fn eval_grid_is_byte_identical_across_thread_counts() {
    let data = small_campaign();
    let evaluate = || {
        EvalGrid::evaluate_targets_with(None, &data, &MlKind::ALL, &FeatureSet::ALL, true, true)
    };
    let a = on_pool(1, evaluate);
    let b = on_pool(8, evaluate);
    for kind in MlKind::ALL {
        for set in FeatureSet::ALL {
            let (ra, rb) = (a.wer_report(kind, set), b.wer_report(kind, set));
            assert_eq!(ra.average.to_bits(), rb.average.to_bits(), "{kind}/{set} average");
            assert_eq!(ra.per_rank.len(), rb.per_rank.len());
            for (x, y) in ra.per_rank.iter().zip(rb.per_rank.iter()) {
                match (x, y) {
                    (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    (None, None) => {}
                    other => panic!("{kind}/{set} rank divergence: {other:?}"),
                }
            }
            assert_eq!(workload_bits(ra), workload_bits(rb), "{kind}/{set} per-workload");
            assert_eq!(
                a.pue_error(kind, set).to_bits(),
                b.pue_error(kind, set).to_bits(),
                "{kind}/{set} PUE"
            );
        }
    }
}

/// One row's prediction bundle as bit patterns — per-rank WERs, total WER,
/// PUE: f64 `==` would let −0.0 match 0.0 and never match NaN.
type PredictionBits = (Vec<u64>, u64, u64);

fn prediction_bits(p: &Prediction) -> PredictionBits {
    (p.wer_per_rank.iter().map(|w| w.to_bits()).collect(), p.wer_total.to_bits(), p.pue.to_bits())
}

#[test]
fn predict_rows_equals_per_row_prediction_across_thread_counts() {
    // A row's prediction does not depend on the batch it shares or on the
    // pool's width.
    let data = small_campaign();
    let rows: Vec<(FeatureVector, OperatingPoint)> =
        data.rows.iter().map(|r| (r.features.clone(), r.op)).collect();
    for kind in MlKind::ALL {
        let model = train_error_model(&data, kind, FeatureSet::Set1);
        assert!(!model.trained_ranks().is_empty(), "{kind}: no rank model to compare");
        let per_row: Vec<PredictionBits> = rows
            .iter()
            .map(|(features, op)| {
                let ranks = (0..RANK_COUNT)
                    .map(|r| model.predict_wer(features, *op, r).to_bits())
                    .collect();
                let total = model.predict_wer_total(features, *op).to_bits();
                (ranks, total, model.predict_pue(features, *op).to_bits())
            })
            .collect();
        for threads in [1, 8] {
            let batched = |size: usize| -> Vec<PredictionBits> {
                on_pool(threads, || {
                    rows.chunks(size)
                        .flat_map(|batch| model.predict_rows(batch))
                        .collect::<Vec<_>>()
                })
                .iter()
                .map(prediction_bits)
                .collect()
            };
            assert!(on_pool(threads, || model.predict_rows(&[])).is_empty(), "{kind}: empty batch");
            for size in [1, 2, rows.len()] {
                assert_eq!(batched(size), per_row, "{kind}, {threads} threads, batches of {size}");
            }
        }
    }
}

#[test]
fn trained_error_model_is_byte_identical_across_thread_counts() {
    // The shipped artifact (train_error_model → JSON) must also be
    // thread-count independent — it embeds forest models.
    let data = small_campaign();
    let a = on_pool(1, || {
        wade::core::train_error_model(&data, MlKind::Rdf, FeatureSet::Set1).to_json().unwrap()
    });
    let b = on_pool(8, || {
        wade::core::train_error_model(&data, MlKind::Rdf, FeatureSet::Set1).to_json().unwrap()
    });
    assert_eq!(a, b);
}
