//! Artifact-store round-trip cost per artifact kind: one `put`
//! (serialize, fingerprint, atomic write) and one verified `get` (read,
//! length/hash/key checks, deserialize), so store overhead is tracked in
//! `target/wade-bench/*.jsonl` alongside the paths it accelerates.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use wade_core::{train_error_model, AnyModel, Campaign, CampaignConfig, MlKind, SimulatedServer};
use wade_features::FeatureSet;
use wade_store::ArtifactStore;
use wade_workloads::{Scale, WorkloadId};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("wade-store-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Round-trips each artifact kind's representative payload: a profiled
/// workload, a quick Test-scale campaign, and a trained fold model.
fn bench_store_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("artifact_store");

    let server = SimulatedServer::with_seed(5);
    let wl = WorkloadId::Backprop.instantiate(1, Scale::Test);
    let profile = server.profile_workload(wl.as_ref(), 3);

    let suite = vec![
        WorkloadId::Backprop.instantiate(1, Scale::Test),
        WorkloadId::Memcached.instantiate(8, Scale::Test),
        WorkloadId::Nw.instantiate(1, Scale::Test),
    ];
    let data = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
        .collect(&suite, 3);
    let model = train_error_model(&data, MlKind::Knn, FeatureSet::Set1);

    let dir = scratch("round-trip");
    let store = ArtifactStore::open(&dir);
    // (label, put closure, get closure) per artifact kind.
    group.bench_function("profile/put", |b| {
        b.iter(|| black_box(store.put("profile", "bench-profile", &profile).unwrap()))
    });
    group.bench_function("profile/get_verified", |b| {
        b.iter(|| {
            black_box(
                store
                    .get::<wade_core::ProfiledWorkload>("profile", "bench-profile")
                    .expect("hit"),
            )
        })
    });
    group.bench_function("campaign/put", |b| {
        b.iter(|| black_box(store.put("campaign", "bench-campaign", &data).unwrap()))
    });
    group.bench_function("campaign/get_verified", |b| {
        b.iter(|| {
            black_box(
                store
                    .get::<wade_core::CampaignData>("campaign", "bench-campaign")
                    .expect("hit"),
            )
        })
    });
    group.bench_function("model/put", |b| {
        b.iter(|| black_box(store.put("model", "bench-model", &model).unwrap()))
    });
    group.bench_function("model/get_verified", |b| {
        b.iter(|| {
            black_box(store.get::<wade_core::ErrorModel>("model", "bench-model").expect("hit"))
        })
    });
    // Decimal deserialization head to head: the streaming slice-cursor
    // path vs the tree-building reference (parse to a `Value`, then
    // convert). `get` runs the same cursor on the exact codec; `bench`'s
    // `prediction_hot_path` compares the two codecs.
    let payload = serde_json::to_string(&model).unwrap();
    group.bench_function("model/deserialize_streaming", |b| {
        b.iter(|| {
            black_box(serde_json::from_str::<wade_core::ErrorModel>(&payload).unwrap())
        })
    });
    group.bench_function("model/deserialize_tree_reference", |b| {
        b.iter(|| {
            black_box(serde_json::from_str_value::<wade_core::ErrorModel>(&payload).unwrap())
        })
    });
    // A corrupt read (the integrity-check failure path) must stay cheap:
    // it is paid on every poisoned or foreign entry before recompute.
    let poisoned = store.put("model", "bench-poisoned", &model).unwrap();
    let mut bytes = std::fs::read(&poisoned).unwrap();
    let n = bytes.len();
    bytes[n - 2] ^= 1;
    std::fs::write(&poisoned, &bytes).unwrap();
    group.bench_function("model/get_corrupt_miss", |b| {
        b.iter(|| black_box(store.get::<AnyModel>("model", "bench-poisoned").is_none()))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_store_round_trip);
criterion_main!(benches);
