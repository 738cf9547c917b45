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
use wade_core::{Campaign, CampaignConfig, EvalGrid, MlKind, ProfileCache, SimulatedServer};
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

/// Bitwise equality of two evaluated grids over the full cell range.
fn assert_grids_identical(a: &EvalGrid, b: &EvalGrid) {
    for kind in MlKind::ALL {
        for set in FeatureSet::ALL {
            let (ra, rb) = (a.wer_report(kind, set), b.wer_report(kind, set));
            assert_eq!(ra.average.to_bits(), rb.average.to_bits(), "{kind}/{set} average");
            assert_eq!(ra.per_workload, rb.per_workload, "{kind}/{set} per-workload");
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
            String::from_utf8(b).unwrap().replacen("\"schema\":1", "\"schema\":999", 1).into_bytes()
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
