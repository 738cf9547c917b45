//! The ML hot path's byte-identity contracts (ARCHITECTURE.md §14): the
//! flat-arena forest must predict bit-identically to the pointer trees it
//! was flattened from, the axis-pruned KNN search must match the
//! exhaustive reference scan, both across seeded random datasets and the
//! `Scale::Test` campaign grid at 1 and 8 threads; the pruned split search
//! must grow the trees the exhaustive scan grows, byte for byte — and the
//! `TRAINER_CONFIG_VERSION` bump must make legacy pointer-tree `model`
//! artifacts read as misses so they are re-published in arena form.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use wade::core::{
    build_pue_dataset, build_wer_dataset, train_error_model, train_error_model_stored, AnyModel,
    Campaign, CampaignConfig, CampaignData, MlKind, SimulatedServer, MODEL_KIND,
};
use wade::features::FeatureSet;
use wade::ml::{
    Dataset, DecisionTree, FeatureColumns, ForestTrainer, KnnTrainer, PointerForest, Regressor,
    Trainer, TreeParams,
};
use wade::store::ArtifactStore;
use wade::workloads::{Scale, WorkloadId};

/// Runs `f` on a bounded pool of `threads` workers.
fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random regression problem: features in [0, 10), target a
/// noisy linear blend so both learners have structure to fit.
fn seeded_matrix(seed: u64, n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut s = seed;
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..dim).map(|_| (splitmix(&mut s) % 10_000) as f64 / 1000.0).collect();
        let noise = (splitmix(&mut s) % 100) as f64 / 100.0;
        let t = row[0] - 0.7 * row[dim / 2] + 0.2 * row[dim - 1] + noise;
        x.push(row);
        y.push(t);
    }
    (x, y)
}

#[test]
fn arena_forest_is_byte_identical_to_pointer_trees() {
    for seed in [3u64, 17, 91] {
        let (x, y) = seeded_matrix(seed, 90, 6);
        let (queries, _) = seeded_matrix(seed ^ 0xABCD, 64, 6);
        let trainer = ForestTrainer::new(30);
        let pointer: PointerForest = trainer.train_pointer(&x, &y);
        let arena = trainer.train(&x, &y);
        let reference: Vec<u64> = queries.iter().map(|q| pointer.predict(q).to_bits()).collect();
        let bits: Vec<u64> = queries.iter().map(|q| arena.predict(q).to_bits()).collect();
        assert_eq!(bits, reference, "seed {seed}: arena diverged");
        // The arena itself must be thread-invariant, not just its output.
        let a = serde_json::to_string(&on_pool(1, || trainer.train(&x, &y))).unwrap();
        let b = serde_json::to_string(&on_pool(8, || trainer.train(&x, &y))).unwrap();
        assert_eq!(a, b, "seed {seed}: serialized arena diverged across thread counts");
    }
}

#[test]
fn pruned_knn_is_byte_identical_to_exhaustive() {
    for seed in [5u64, 29, 73] {
        let (x, y) = seeded_matrix(seed, 120, 5);
        let (mut queries, _) = seeded_matrix(seed ^ 0x5EED, 50, 5);
        // Include exact training rows so the exact-hit short-circuit and
        // zero-distance ties are exercised through both search paths.
        queries.extend(x.iter().take(10).cloned());
        for k in [1usize, 4, 9] {
            let model = KnnTrainer::new(k).train(&x, &y);
            for q in &queries {
                assert_eq!(
                    model.predict(q).to_bits(),
                    model.predict_exhaustive(q).to_bits(),
                    "seed {seed}, k={k}: pruned search diverged from exhaustive"
                );
            }
        }
    }
}

/// Grows one tree per seed both ways — the same seeded rng, the same
/// bootstrap of `bootstrap` rows, on one set of columns built over all
/// of `x`, so each tree's rows repeat some rows, miss others and leave
/// rank codes unused — asserts the serialized trees are byte-identical,
/// and returns the number of nodes compared.
fn grow_both_ways(
    x: &[Vec<f64>],
    y: &[f64],
    bootstrap: usize,
    params: TreeParams,
    seeds: std::ops::Range<u64>,
) -> usize {
    let columns = FeatureColumns::new(x);
    let mut nodes = 0;
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let idx: Vec<usize> = (0..bootstrap).map(|_| rng.gen_range(0..x.len())).collect();
        let pruned = DecisionTree::grow(&columns, y, &idx, params, &mut rng.clone());
        let exhaustive = DecisionTree::grow_exhaustive(&columns, y, &idx, params, &mut rng);
        let a = serde_json::to_string(&pruned).unwrap();
        let b = serde_json::to_string(&exhaustive).unwrap();
        assert_eq!(a, b, "seed {seed}: pruned split search diverged from the exhaustive scan");
        nodes += a.matches("\"Split\"").count() + a.matches("\"Leaf\"").count();
    }
    nodes
}

#[test]
fn pruned_split_search_is_byte_identical_to_exhaustive() {
    let params = TreeParams { mtry: 3, ..TreeParams::default() };
    let mut nodes = 0;

    // Plain seeded data, and the same with two duplicated columns: every
    // candidate on a twin ties its original's gain exactly.
    let (x, y) = seeded_matrix(41, 80, 6);
    nodes += grow_both_ways(&x, &y, 80, params, 0..20);
    let twins: Vec<Vec<f64>> = x.iter().map(|r| [r.as_slice(), &r[..2]].concat()).collect();
    nodes += grow_both_ways(&twins, &y, 80, TreeParams { mtry: 0, ..params }, 0..20);

    // Heavily repeated values, a constant column, and a ±0.0 mix.
    let mut s = 7u64;
    let lumpy: Vec<Vec<f64>> = (0..90)
        .map(|_| {
            let zero = if splitmix(&mut s).is_multiple_of(2) { 0.0 } else { -0.0 };
            let signed = [-1.0, zero, 1.0][(splitmix(&mut s) % 3) as usize];
            vec![(splitmix(&mut s) % 3) as f64, 4.5, signed, (splitmix(&mut s) % 40) as f64 / 8.0]
        })
        .collect();
    let lumpy_y: Vec<f64> = lumpy.iter().map(|r| r[0] * 2.0 - r[2] + r[3] % 1.0).collect();
    nodes += grow_both_ways(&lumpy, &lumpy_y, 90, TreeParams { mtry: 0, ..params }, 0..20);
    let zero_y: Vec<f64> = lumpy.iter().map(|r| if r[2] == 0.0 { 1.0 } else { 0.0 }).collect();
    nodes += grow_both_ways(&lumpy, &zero_y, 90, TreeParams { mtry: 0, ..params }, 0..10);

    // Targets with a large common offset, so the error bound is wide
    // against the gains. At 1e6 + 1e-9·k and −7 ± 1e-12 the node SSE or
    // every gain falls under the split thresholds; at 1e6 + 1e-3·y every
    // candidate lies inside the window; at 1e3 + y the window prunes some
    // candidates and must keep the winner.
    let offsets: [Vec<f64>; 4] = [
        (0..80).map(|k| 1e6 + 1e-9 * (k % 17) as f64).collect(),
        (0..80).map(|k| -7.0 + if (k * 7) % 3 == 0 { 1e-12 } else { -1e-12 }).collect(),
        y.iter().map(|t| 1e6 + 1e-3 * t).collect(),
        y.iter().map(|t| 1e3 + t).collect(),
    ];
    for targets in &offsets {
        nodes += grow_both_ways(&x, targets, 80, params, 0..20);
    }

    // Nodes of exactly `min_split` rows.
    let small = TreeParams { min_split: 4, ..params };
    nodes += grow_both_ways(&x, &y, small.min_split, small, 0..200);

    // Set 3's shape: 252 features, 16 per split.
    let (wide, wide_y) = seeded_matrix(43, 60, 252);
    nodes += grow_both_ways(&wide, &wide_y, 60, TreeParams { mtry: 16, ..params }, 0..20);

    assert!(nodes >= 2_000, "only {nodes} nodes compared");
}

fn small_campaign() -> CampaignData {
    let suite = vec![
        WorkloadId::Backprop.instantiate(1, Scale::Test),
        WorkloadId::Nw.instantiate(1, Scale::Test),
        WorkloadId::Memcached.instantiate(8, Scale::Test),
        WorkloadId::Srad.instantiate(8, Scale::Test),
    ];
    Campaign::new(SimulatedServer::with_seed(11), CampaignConfig::quick()).collect(&suite, 4)
}

#[test]
fn hot_path_is_byte_identical_on_the_test_scale_grid() {
    let data = small_campaign();
    // Whole-model byte-identity across thread counts for both rewritten
    // learners on real campaign datasets.
    for kind in [MlKind::Knn, MlKind::Rdf] {
        let one = on_pool(1, || train_error_model(&data, kind, FeatureSet::Set1));
        let eight = on_pool(8, || train_error_model(&data, kind, FeatureSet::Set1));
        let rows: Vec<_> = data.rows.iter().map(|r| (r.features.clone(), r.op)).collect();
        assert_eq!(one.predict_rows(&rows), eight.predict_rows(&rows), "{kind} diverged");
    }
    // Arena forests vs the pointer-tree reference on every trainable
    // dataset the grid actually produces.
    let trainer = ForestTrainer::paper_default();
    let mut datasets: Vec<Dataset> = (0..wade::dram::RANK_COUNT)
        .map(|rank| build_wer_dataset(&data, FeatureSet::Set1, rank))
        .collect();
    datasets.push(build_pue_dataset(&data, FeatureSet::Set1));
    let mut checked = 0;
    for ds in datasets.iter().filter(|ds| ds.len() >= 4) {
        let (x, y) = (ds.features(), ds.targets());
        let pointer = trainer.train_pointer(&x, &y);
        let arena = trainer.train(&x, &y);
        for q in &x {
            assert_eq!(arena.predict(q).to_bits(), pointer.predict(q).to_bits());
        }
        checked += 1;
    }
    assert!(checked > 0, "grid produced no trainable dataset");
}

/// The legacy (pre-arena) serialized model shape: `ForestRegressor` used
/// to hold pointer trees, exactly what [`PointerForest`] still serializes.
#[derive(Serialize)]
enum LegacyAnyModel {
    #[allow(dead_code)] // the variant tag is what the payload shape needs
    Rdf(PointerForest),
}

/// A unique scratch directory per test run and `name`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("wade-hot-path-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn legacy_pointer_model_artifacts_miss_and_republish_in_arena_form() {
    let scratch = Scratch::new("legacy");
    let store = Arc::new(ArtifactStore::open(&scratch.0));
    let data = small_campaign();
    // The keys come from a cold call against a throwaway store, before
    // this test's store is poisoned.
    let key_scratch = Scratch::new("keys");
    let key_store = ArtifactStore::open(&key_scratch.0);
    let keys = train_error_model_stored(Some(&key_store), &data, MlKind::Rdf, FeatureSet::Set1).1;
    assert!(!keys.is_empty(), "no trainable model targets");
    assert!(keys.iter().all(|k| k.contains("cfg=v2")), "keys must carry the bumped version");

    // Publish pointer-shaped artifacts both under the old v1 keys (what a
    // pre-bump process left behind) and under the new v2 keys (a worst
    // case: an old shape surviving at the new address must still read as
    // a miss, because the arena form no longer deserializes from it).
    let (x, y) = seeded_matrix(7, 40, 4);
    let legacy = LegacyAnyModel::Rdf(ForestTrainer::new(5).train_pointer(&x, &y));
    for key in &keys {
        let v1_key = key.replace("cfg=v2", "cfg=v1");
        store.put(MODEL_KIND, &v1_key, &legacy).expect("publish legacy artifact");
        store.put(MODEL_KIND, key, &legacy).expect("publish legacy shape at v2 key");
        assert!(
            store.get::<AnyModel>(MODEL_KIND, key).is_none(),
            "pointer-shaped payload must read as a miss under the arena schema"
        );
    }

    // Training through the store must ignore every legacy artifact and
    // produce exactly the in-process result...
    let stored = train_error_model_stored(Some(&store), &data, MlKind::Rdf, FeatureSet::Set1).0;
    let reference = train_error_model(&data, MlKind::Rdf, FeatureSet::Set1);
    let rows: Vec<_> = data.rows.iter().map(|r| (r.features.clone(), r.op)).collect();
    assert_eq!(stored.predict_rows(&rows), reference.predict_rows(&rows));

    // ...and re-publish each model at its v2 key in arena form.
    for key in &keys {
        let model = store
            .get::<AnyModel>(MODEL_KIND, key)
            .expect("model must be re-published after the legacy miss");
        assert!(matches!(model, AnyModel::Rdf(_)));
        let json = serde_json::to_string(&model).unwrap();
        assert!(json.contains("node_features"), "republished model is not in arena form");
        assert!(!json.contains("\"trees\""), "republished model still carries pointer trees");
    }

    // A second stored training now runs fully warm off the arena entries.
    let hits_before = store.hits();
    let warm = train_error_model_stored(Some(&store), &data, MlKind::Rdf, FeatureSet::Set1).0;
    assert_eq!(warm.predict_rows(&rows), reference.predict_rows(&rows));
    assert!(store.hits() > hits_before, "warm pass read nothing from the store");
}
