//! The artifact-store contract end to end (ARCHITECTURE.md §11): separate
//! "processes" — emulated as fresh in-memory caches sharing one store
//! directory — must reuse each other's profiles, campaign data and trained
//! fold models **byte-identically**, a fully warm store must eliminate all
//! profiling and training work, and poisoned entries of every artifact
//! kind must read as misses and be atomically rewritten.
//!
//! Extends the `tests/profiling_frontend.rs` pattern (cached vs reference
//! byte-identity) across the process boundary.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wade_core::{
    AccuracyReport, Campaign, CampaignConfig, EvalGrid, MlKind, ProfileCache, SimulatedServer,
};
use wade_features::FeatureSet;
use wade_store::ArtifactStore;
use wade_workloads::{BoxedWorkload, Scale, WorkloadId};

/// A unique scratch directory per test (removed at entry so reruns start
/// cold; removed again by the guard on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("wade-artifact-store-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Self(dir)
    }

    fn store(&self) -> Arc<ArtifactStore> {
        Arc::new(ArtifactStore::open(&self.0))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn suite() -> Vec<BoxedWorkload> {
    vec![
        WorkloadId::Backprop.instantiate(1, Scale::Test),
        WorkloadId::Nw.instantiate(1, Scale::Test),
        WorkloadId::Memcached.instantiate(8, Scale::Test),
        WorkloadId::Srad.instantiate(8, Scale::Test),
        WorkloadId::Kmeans.instantiate(1, Scale::Test),
    ]
}

/// One emulated process: a fresh in-memory profile cache over `store`.
fn campaign(store: &Arc<ArtifactStore>) -> (Campaign, Arc<ProfileCache>) {
    let cache = Arc::new(ProfileCache::with_store(store.clone()));
    let campaign = Campaign::new(SimulatedServer::with_seed(11), CampaignConfig::quick())
        .with_profile_cache(cache.clone());
    (campaign, cache)
}

fn evaluate(store: &Arc<ArtifactStore>, data: &wade_core::CampaignData) -> EvalGrid {
    EvalGrid::evaluate_targets_with(
        Some(store.clone()),
        data,
        &MlKind::ALL,
        &FeatureSet::ALL,
        true,
        true,
    )
}

/// `(workload, bit pattern)` of each per-workload error: f64 `==` would
/// let −0.0 match 0.0 and never match NaN.
fn workload_bits(report: &AccuracyReport) -> Vec<(&str, u64)> {
    report.per_workload.iter().map(|(name, mpe)| (name.as_str(), mpe.to_bits())).collect()
}

/// Bitwise equality of two evaluated grids over the full cell range.
fn assert_grids_identical(a: &EvalGrid, b: &EvalGrid) {
    for kind in MlKind::ALL {
        for set in FeatureSet::ALL {
            let (ra, rb) = (a.wer_report(kind, set), b.wer_report(kind, set));
            assert_eq!(ra.average.to_bits(), rb.average.to_bits(), "{kind}/{set} average");
            assert_eq!(workload_bits(ra), workload_bits(rb), "{kind}/{set} per-workload");
            assert_eq!(ra.per_rank.len(), rb.per_rank.len());
            for (x, y) in ra.per_rank.iter().zip(rb.per_rank.iter()) {
                assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits), "{kind}/{set} rank");
            }
            assert_eq!(
                a.pue_error(kind, set).to_bits(),
                b.pue_error(kind, set).to_bits(),
                "{kind}/{set} PUE"
            );
        }
    }
}

#[test]
fn cold_and_warm_processes_are_byte_identical_and_warm_does_zero_work() {
    let scratch = Scratch::new("cold-warm");
    let suite = suite();

    // Reference: no store and no profile cache anywhere.
    let ref_data = Campaign::new(SimulatedServer::with_seed(11), CampaignConfig::quick())
        .collect(&suite, 4);
    let ref_grid = EvalGrid::evaluate_targets_with(
        None,
        &ref_data,
        &MlKind::ALL,
        &FeatureSet::ALL,
        true,
        true,
    );

    // "Process" 1 — cold store: profiles, collects and trains, publishing
    // every artifact.
    let store = scratch.store();
    let (cold_campaign, cold_cache) = campaign(&store);
    let cold_data = cold_campaign.collect_stored(&store, &suite, 4);
    let cold_grid = evaluate(&store, &cold_data);
    assert_eq!(cold_cache.misses(), suite.len() as u64, "cold run profiles everything");
    assert_eq!(cold_cache.disk_hits(), 0);
    assert!(cold_grid.trainings() > 0, "cold run trains fold models");
    assert_eq!(cold_grid.store_hits(), 0);
    assert_eq!(cold_data.to_json().unwrap(), ref_data.to_json().unwrap());
    assert_grids_identical(&cold_grid, &ref_grid);

    // "Process" 2 — warm store, fresh in-memory caches: zero profiling
    // runs, zero campaign collection, zero fold-model trainings.
    let warm_store = scratch.store();
    let (warm_campaign, warm_cache) = campaign(&warm_store);
    let warm_data = warm_campaign.collect_stored(&warm_store, &suite, 4);
    assert_eq!(
        warm_store.hits(),
        1,
        "warm collection must be one campaign-artifact hit"
    );
    assert_eq!(warm_cache.misses(), 0, "warm campaign hit must skip profiling entirely");
    let warm_grid = evaluate(&warm_store, &warm_data);
    assert_eq!(warm_grid.trainings(), 0, "warm evaluation must train nothing");
    assert_eq!(warm_grid.store_hits(), cold_grid.trainings());

    // The acceptance contract: warm outputs are byte-identical to cold
    // (and therefore to the store-free reference).
    assert_eq!(warm_data.to_json().unwrap(), cold_data.to_json().unwrap());
    assert_grids_identical(&warm_grid, &cold_grid);
}

#[test]
fn warm_profiles_match_fresh_profiles_bitwise() {
    let scratch = Scratch::new("profiles");
    let suite = suite();
    let server = SimulatedServer::with_seed(11);

    let store = scratch.store();
    let cold = ProfileCache::with_store(store.clone());
    let cold_profiles: Vec<_> =
        suite.iter().map(|w| cold.profile(&server, w.as_ref(), 4)).collect();

    let warm = ProfileCache::with_store(scratch.store());
    for (w, cold_profile) in suite.iter().zip(&cold_profiles) {
        let warm_profile = warm.profile(&server, w.as_ref(), 4);
        let fresh = server.profile_workload(w.as_ref(), 4);
        assert_eq!(**cold_profile, fresh, "{}: cold diverged", w.name());
        assert_eq!(*warm_profile, fresh, "{}: warm diverged", w.name());
    }
    assert_eq!(warm.disk_hits(), suite.len() as u64);
    assert_eq!(warm.misses(), 0);
}

/// Poisons `path` with `mutate` and returns the original bytes.
fn poison(path: &Path, mutate: impl FnOnce(Vec<u8>) -> Vec<u8>) {
    let bytes = fs::read(path).expect("read entry");
    fs::write(path, mutate(bytes)).expect("poison entry");
}

/// First store entry of an artifact kind.
fn entry_of(store: &ArtifactStore, kind: &str) -> PathBuf {
    store
        .ls()
        .into_iter()
        .find(|m| m.kind == kind)
        .unwrap_or_else(|| panic!("no {kind} entry"))
        .path
}

#[test]
fn poisoned_profile_entries_are_recomputed_and_rewritten() {
    let scratch = Scratch::new("poison-profile");
    let server = SimulatedServer::with_seed(11);
    let wl = WorkloadId::Backprop.instantiate(1, Scale::Test);

    let store = scratch.store();
    ProfileCache::with_store(store.clone()).profile(&server, wl.as_ref(), 4);
    let path = entry_of(&store, "profile");

    // Truncation, garbage and a foreign schema version must each read as a
    // miss, trigger a re-profile, and be atomically rewritten.
    let poisons: [&dyn Fn(Vec<u8>) -> Vec<u8>; 3] = [
        &|b: Vec<u8>| b[..b.len() / 2].to_vec(),
        &|_| b"total garbage".to_vec(),
        &|b: Vec<u8>| {
            let current = format!("\"schema\":{}", wade_store::SCHEMA_VERSION);
            String::from_utf8(b).unwrap().replacen(&current, "\"schema\":999", 1).into_bytes()
        },
    ];
    for (i, poisoner) in poisons.iter().enumerate() {
        poison(&path, poisoner);
        let cache = ProfileCache::with_store(store.clone());
        let recomputed = cache.profile(&server, wl.as_ref(), 4);
        assert_eq!(cache.misses(), 1, "poison #{i} must force a re-profile");
        assert_eq!(*recomputed, server.profile_workload(wl.as_ref(), 4));
        // The rewrite restored a valid entry: a fresh cache now hits disk.
        let rechecked = ProfileCache::with_store(store.clone());
        rechecked.profile(&server, wl.as_ref(), 4);
        assert_eq!(rechecked.disk_hits(), 1, "poison #{i} entry was not rewritten");
    }
    assert!(store.corrupt() >= 2, "truncation and garbage count as corruption");
}

#[test]
fn poisoned_campaign_entry_is_recollected_byte_identically() {
    let scratch = Scratch::new("poison-campaign");
    let suite = &suite()[..2];

    let store = scratch.store();
    let (c1, _) = campaign(&store);
    let original = c1.collect_stored(&store, suite, 4);
    poison(&entry_of(&store, wade_core::CAMPAIGN_KIND), |b| b[..b.len() - 7].to_vec());

    let (c2, _) = campaign(&store);
    let writes_before = store.writes();
    let recollected = c2.collect_stored(&store, suite, 4);
    assert!(store.writes() > writes_before, "recollection must rewrite the entry");
    assert_eq!(recollected.to_json().unwrap(), original.to_json().unwrap());

    // Rewritten entry serves the next consumer from disk.
    let (c3, cache3) = campaign(&store);
    let served = c3.collect_stored(&store, suite, 4);
    assert_eq!(cache3.misses(), 0);
    assert_eq!(served.to_json().unwrap(), original.to_json().unwrap());
}

#[test]
fn poisoned_model_entry_is_retrained_byte_identically() {
    let scratch = Scratch::new("poison-model");
    let suite = suite();
    let store = scratch.store();
    let (c, _) = campaign(&store);
    let data = c.collect_stored(&store, &suite, 4);
    let cold = evaluate(&store, &data);

    poison(&entry_of(&store, wade_core::MODEL_KIND), |b| {
        let mut b = b;
        let n = b.len();
        b[n - 3] ^= 0x20; // garble in place: length-preserving corruption
        b
    });

    let warm = evaluate(&store, &data);
    assert_eq!(warm.trainings(), 1, "exactly the poisoned fold model is retrained");
    assert_eq!(warm.store_hits(), cold.trainings() - 1);
    assert_grids_identical(&warm, &cold);

    // The retraining rewrote the entry: a third pass trains nothing.
    let healed = evaluate(&store, &data);
    assert_eq!(healed.trainings(), 0);
}

/// An entry as schema 1 wrote it: decimal floats under a `"schema":1`
/// header that is otherwise valid for `(kind, key)`.
fn schema1_entry(kind: &str, key: &str, decimal_payload: &str) -> String {
    use wade_store::fingerprint64;
    format!(
        "{{\"schema\":1,\"kind\":{},\"key\":{},\"fingerprint\":{},\
         \"payload_len\":{},\"payload_hash\":{}}}\n{decimal_payload}",
        serde_json::to_string(&kind).unwrap(),
        serde_json::to_string(&key).unwrap(),
        fingerprint64(key),
        decimal_payload.len(),
        fingerprint64(decimal_payload),
    )
}

#[test]
fn schema1_decimal_entries_miss_are_rewritten_and_collected() {
    let scratch = Scratch::new("schema1");
    let server = SimulatedServer::with_seed(11);
    let wl = WorkloadId::Backprop.instantiate(1, Scale::Test);
    let store = scratch.store();
    let fresh = ProfileCache::with_store(store.clone()).profile(&server, wl.as_ref(), 4);
    let meta = store.ls().into_iter().find(|m| m.kind == "profile").expect("profile entry");
    let key = meta.key.expect("valid entry has a key");
    let old = schema1_entry("profile", &key, &serde_json::to_string(&*fresh).unwrap());

    // Read as a miss through the foreign-version path, recomputed, and
    // rewritten in the current schema.
    fs::write(&meta.path, &old).unwrap();
    let listed = store.ls().into_iter().find(|m| m.path == meta.path).expect("listed");
    assert_eq!(listed.key.as_deref(), Some(key.as_str()), "the schema-1 header must parse");
    assert!(!listed.ok, "a schema-1 entry must not verify");
    match store.try_get::<wade_core::ProfiledWorkload>("profile", &key) {
        Err(wade_store::StoreError::Corrupt {
            reason: wade_store::CorruptReason::Integrity, ..
        }) => {}
        other => panic!("a schema-1 entry must fail the version check, got {other:?}"),
    }
    let cache = ProfileCache::with_store(store.clone());
    assert_eq!(*cache.profile(&server, wl.as_ref(), 4), *fresh);
    assert_eq!(cache.misses(), 1, "the schema-1 entry must force a re-profile");
    assert_ne!(fs::read_to_string(&meta.path).unwrap(), old, "the entry was not rewritten");
    let rechecked = ProfileCache::with_store(store.clone());
    assert_eq!(*rechecked.profile(&server, wl.as_ref(), 4), *fresh);
    assert_eq!(rechecked.disk_hits(), 1, "the rewritten entry must serve from disk");

    // Left in place, `gc` reclaims it.
    fs::write(&meta.path, &old).unwrap();
    let gc = store.gc();
    assert_eq!((gc.kept, gc.removed), (0, 1));
    assert!(!meta.path.exists());
}

#[test]
fn non_finite_payloads_roundtrip_bit_exactly() {
    let scratch = Scratch::new("non-finite");
    let store = scratch.store();
    let values = vec![
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN
        f64::from_bits(0xFFF8_0000_0000_BEEF), // negative quiet NaN, payload
        -0.0,
        5e-324,
    ];
    let payload = (values.clone(), values[0], Some(values[2]), [values[1], values[3]]);
    store.put("non_finite", "k", &payload).unwrap();
    let back: (Vec<f64>, f64, Option<f64>, [f64; 2]) =
        store.get("non_finite", "k").expect("hit");
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&back.0), bits(&values));
    assert_eq!(back.1.to_bits(), values[0].to_bits());
    assert_eq!(back.2.map(f64::to_bits), Some(values[2].to_bits()));
    assert_eq!(bits(&back.3), bits(&payload.3));
    assert_eq!(store.corrupt(), 0);
}

#[test]
fn every_stored_kind_hits_warm_without_corruption() {
    use wade_core::{train_error_model_stored, MODEL_KIND};
    use wade_fleet::{transfer_matrix, FleetSpec, FleetSweep};

    let scratch = Scratch::new("every-kind");
    let suite = suite();
    let server = SimulatedServer::with_seed(11);
    let mut spec = FleetSpec::test_default();
    (spec.devices, spec.shards, spec.epochs, spec.max_workloads) = (12, 2, 2, 2);
    let profile_all = |store: &Arc<ArtifactStore>| {
        let cache = ProfileCache::with_store(store.clone());
        let profiles: Vec<_> =
            suite.iter().map(|w| cache.profile(&server, w.as_ref(), 4)).collect();
        (profiles, cache.disk_hits())
    };
    let serve_all = |store: &ArtifactStore, data| {
        MlKind::ALL.map(|kind| {
            let (model, keys) = train_error_model_stored(Some(store), data, kind, FeatureSet::Set1);
            (model.to_json().unwrap(), keys)
        })
    };
    let fleet_all = |store: &ArtifactStore| {
        let sweep = FleetSweep::new(spec, 3);
        let outcome = sweep.sweep_stored(store);
        let matrix = transfer_matrix(&sweep, &outcome, MlKind::Rdf, FeatureSet::Set1, Some(store));
        let mpe: Vec<u64> = matrix.cells.iter().map(|c| c.mpe.to_bits()).collect();
        (outcome.devices_json(), mpe, sweep.simulations())
    };

    // Cold: every kind is computed and published.
    let store = scratch.store();
    let (cold_profiles, _) = profile_all(&store);
    let (c, _) = campaign(&store);
    let cold_data = c.collect_stored(&store, &suite, 4);
    let cold_grid = evaluate(&store, &cold_data);
    let cold_serving = serve_all(&store, &cold_data);
    let cold_fleet = fleet_all(&store);
    let kinds: std::collections::BTreeSet<String> =
        store.ls().into_iter().map(|m| m.kind).collect();
    for kind in ["profile", wade_core::CAMPAIGN_KIND, MODEL_KIND, "fleet_slice", "fleet_model"] {
        assert!(kinds.contains(kind), "cold run stored no {kind} entry");
    }
    let serving_keys: usize = cold_serving.iter().map(|(_, keys)| keys.len()).sum();
    assert!(serving_keys > 0, "the fixture must train serving models");
    assert_eq!(store.corrupt(), 0);

    // Warm, through a fresh handle: every read hits, none is corrupt.
    let warm = scratch.store();
    let (warm_profiles, profile_hits) = profile_all(&warm);
    assert_eq!(profile_hits, suite.len() as u64, "profiles must hit");
    assert_eq!(warm_profiles, cold_profiles);
    let (c, warm_cache) = campaign(&warm);
    let warm_data = c.collect_stored(&warm, &suite, 4);
    assert_eq!(warm_cache.misses(), 0, "the campaign must hit");
    assert_eq!(warm_data.to_json().unwrap(), cold_data.to_json().unwrap());
    let warm_grid = evaluate(&warm, &warm_data);
    assert_eq!(warm_grid.trainings(), 0, "fold models must hit");
    assert_grids_identical(&warm_grid, &cold_grid);
    let hits = warm.hits();
    assert_eq!(serve_all(&warm, &warm_data), cold_serving);
    assert_eq!(warm.hits() - hits, serving_keys as u64, "serving models must hit");
    let warm_fleet = fleet_all(&warm);
    assert_eq!(warm_fleet.2, 0, "fleet slices must hit");
    assert_eq!((&warm_fleet.0, &warm_fleet.1), (&cold_fleet.0, &cold_fleet.1));
    assert_eq!(warm.writes(), 0, "a warm run must publish nothing");
    assert_eq!(warm.corrupt(), 0, "a packed shape some reader rejects reads as corrupt");
}

#[test]
fn every_stored_fold_model_re_encodes_to_its_payload_byte_for_byte() {
    use wade_core::{AnyModel, MODEL_KIND};

    let scratch = Scratch::new("re-encode");
    let store = scratch.store();
    let (c, _) = campaign(&store);
    let data = c.collect_stored(&store, &suite(), 4);
    let grid = evaluate(&store, &data);
    let mut learners = std::collections::BTreeSet::new();
    let mut models = 0;
    for meta in store.ls().into_iter().filter(|m| m.kind == MODEL_KIND) {
        let key = meta.key.expect("a stored model's header parses");
        let text = fs::read_to_string(&meta.path).expect("read entry");
        let (_, payload) = text.split_once('\n').expect("header line");
        let fast: AnyModel = serde_json::from_str_exact(payload).expect("decode");
        let reference: AnyModel =
            serde_json::from_str_exact_per_element(payload).expect("reference decode");
        let encoded = serde_json::to_string_exact(&fast).unwrap();
        assert!(encoded == payload, "{key}: re-encoding changed the payload");
        assert!(
            serde_json::to_string_exact_per_element(&reference).unwrap() == payload,
            "{key}: the per-element reference disagrees"
        );
        learners.insert(key.split('|').nth(1).unwrap_or_default().to_string());
        models += 1;
    }
    assert_eq!(models, grid.trainings(), "every trained fold model must be checked");
    assert_eq!(learners.len(), MlKind::ALL.len(), "every learner must be covered: {learners:?}");
}
