//! Fault injection across the store and pipeline (ARCHITECTURE.md §12):
//! under any deterministic fault schedule — partial writes, torn renames,
//! `ENOSPC`/`EACCES`, garbled reads, or a full disk-tier outage — the
//! pipeline's outputs must stay **byte-identical** to the store-free
//! reference, on 1 and on 8 threads. Faults may cost recomputation
//! (retries, degradation to the in-memory path); they must never change a
//! result or serve a wrong value.
//!
//! Also pins the concurrency contract of the healthy store: two writers
//! racing one key leave exactly one intact artifact, and a reader racing a
//! writer observes old-complete, new-complete, or a miss — never a torn
//! value.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use wade_core::{
    AccuracyReport, Campaign, CampaignConfig, EvalGrid, MlKind, ProfileCache, SimulatedServer,
};
use wade_features::FeatureSet;
use wade_store::torture::{self, TortureConfig};
use wade_store::{ArtifactStore, FaultPlan, FaultyFs, RealFs};
use wade_workloads::{BoxedWorkload, Scale, WorkloadId};

/// The evaluated sub-grid: KNN (the paper's most accurate learner) over
/// every feature set — enough to exercise the model-store path across all
/// dataset slots without paying for forest/SVM training in every schedule.
const KINDS: [MlKind; 1] = [MlKind::Knn];
const SETS: [FeatureSet; 3] = FeatureSet::ALL;

/// A unique scratch directory per test (removed at entry so reruns start
/// cold; removed again by the guard on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("wade-fault-inj-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs `f` on a bounded pool of `threads` workers.
fn on_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

fn suite() -> Vec<BoxedWorkload> {
    vec![
        WorkloadId::Backprop.instantiate(1, Scale::Test),
        WorkloadId::Srad.instantiate(8, Scale::Test),
        WorkloadId::Kmeans.instantiate(1, Scale::Test),
    ]
}

fn evaluate(store: Option<Arc<ArtifactStore>>, data: &wade_core::CampaignData) -> EvalGrid {
    EvalGrid::evaluate_targets_with(store, data, &KINDS, &SETS, true, true)
}

/// `(workload, bit pattern)` of each per-workload error: f64 `==` would
/// let −0.0 match 0.0 and never match NaN.
fn workload_bits(report: &AccuracyReport) -> Vec<(&str, u64)> {
    report.per_workload.iter().map(|(name, mpe)| (name.as_str(), mpe.to_bits())).collect()
}

/// Bitwise equality of two evaluated grids over the tested sub-grid.
fn assert_grids_identical(a: &EvalGrid, b: &EvalGrid, ctx: &str) {
    for kind in KINDS {
        for set in SETS {
            let (ra, rb) = (a.wer_report(kind, set), b.wer_report(kind, set));
            assert_eq!(ra.average.to_bits(), rb.average.to_bits(), "{ctx}: {kind}/{set} avg");
            assert_eq!(workload_bits(ra), workload_bits(rb), "{ctx}: {kind}/{set} per-workload");
            for (x, y) in ra.per_rank.iter().zip(rb.per_rank.iter()) {
                assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits), "{ctx}: {kind}/{set} rank");
            }
            assert_eq!(
                a.pue_error(kind, set).to_bits(),
                b.pue_error(kind, set).to_bits(),
                "{ctx}: {kind}/{set} PUE"
            );
        }
    }
}

/// One pipeline pass (campaign collection + sub-grid evaluation) over a
/// given store.
fn pipeline(store: &Arc<ArtifactStore>, suite: &[BoxedWorkload]) -> (wade_core::CampaignData, EvalGrid) {
    let cache = Arc::new(ProfileCache::with_store(store.clone()));
    let data = Campaign::new(SimulatedServer::with_seed(11), CampaignConfig::quick())
        .with_profile_cache(cache)
        .collect_stored(store, suite, 4);
    let grid = evaluate(Some(store.clone()), &data);
    (data, grid)
}

/// The tentpole acceptance test: every fault schedule — including a full
/// outage — yields byte-identical campaign data and evaluation grids on 1
/// and 8 threads, and the store a faulty run leaves behind never serves a
/// wrong value to a later healthy process.
#[test]
fn pipeline_is_byte_identical_under_fault_schedules() {
    let suite = suite();

    // Reference: no store and no profile cache anywhere.
    let ref_data = Campaign::new(SimulatedServer::with_seed(11), CampaignConfig::quick())
        .collect(&suite, 4);
    let ref_grid = evaluate(None, &ref_data);

    let schedules: [(&str, FaultPlan); 3] = [
        // The standard chaos mix: all fault classes at 10 %, half transient.
        ("uniform-10", FaultPlan::uniform(23, 0.10)),
        // Pure transient noise at 25 %: the bounded-retry path.
        ("transient-25", FaultPlan::transient_only(29, 0.25)),
        // Total persistent outage: pure degradation to the in-memory path.
        ("outage", FaultPlan::outage(31)),
    ];
    for (name, plan) in schedules {
        for threads in [1usize, 8] {
            let ctx = format!("{name}/{threads}t");
            let scratch = Scratch::new(&ctx.replace('/', "-"));
            let store =
                Arc::new(ArtifactStore::open_with_fs(&scratch.0, FaultyFs::new(RealFs, plan)));
            let (data, grid) = on_pool(threads, || pipeline(&store, &suite));
            assert_eq!(
                data.to_json().unwrap(),
                ref_data.to_json().unwrap(),
                "{ctx}: campaign data diverged under faults"
            );
            assert_grids_identical(&grid, &ref_grid, &ctx);
            assert!(
                store.faults_injected() > 0,
                "{ctx}: schedule injected nothing — the run proved nothing"
            );
            if name == "outage" {
                assert!(
                    store.io_errors() > 0,
                    "{ctx}: an outage must surface hard I/O errors"
                );
            }

            // Whatever the faulty run managed to publish must serve a later
            // healthy process correctly: old-complete entries hit, torn or
            // garbled leftovers read as misses and recompute — never a
            // wrong value.
            let healthy = Arc::new(ArtifactStore::open(&scratch.0));
            let (after_data, after_grid) = pipeline(&healthy, &suite);
            assert_eq!(
                after_data.to_json().unwrap(),
                ref_data.to_json().unwrap(),
                "{ctx}: healthy process read a wrong value from the survivor store"
            );
            assert_grids_identical(&after_grid, &ref_grid, &format!("{ctx}/healthy-after"));
        }
    }
}

/// The torture harness's no-corruption invariant holds single-threaded and
/// under 8-way concurrency (the same harness `bench store torture` and the
/// CI chaos job drive).
#[test]
fn torture_run_has_no_wrong_reads_at_1_and_8_threads() {
    for threads in [1usize, 8] {
        let scratch = Scratch::new(&format!("torture-{threads}t"));
        let report = torture::run(
            &scratch.0,
            &TortureConfig { seed: 97, ops: 1_200, threads, fault_rate: 0.12 },
        );
        assert!(
            report.ok(),
            "{threads} threads: {} wrong-value reads",
            report.wrong_reads
        );
        assert!(report.faults.total() > 0, "{threads} threads: no faults injected");
        assert!(report.puts > 0 && report.gets > 0, "{threads} threads: degenerate op mix");
        assert!(report.hits > 0, "{threads} threads: mix never exercised a real hit");
    }
}

/// Two writers racing the same key: the atomic tmp-file + rename publish
/// protocol must leave exactly one intact artifact holding one of the two
/// written values in full — and no stranded tmp files.
#[test]
fn racing_writers_leave_exactly_one_intact_artifact() {
    let scratch = Scratch::new("race-writers");
    let store = Arc::new(ArtifactStore::open(&scratch.0));
    for round in 0..24u64 {
        let key = format!("race-key-{round}");
        let a: Vec<u64> = vec![round * 2 + 1; 128];
        let b: Vec<u64> = vec![round * 2 + 2; 128];
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for value in [&a, &b] {
                let (store, key, barrier) = (&store, &key, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    store.put("race", key, value).unwrap();
                });
            }
        });
        let entries: Vec<_> = store
            .ls()
            .into_iter()
            .filter(|m| m.kind == "race" && m.key.as_deref() == Some(key.as_str()))
            .collect();
        assert_eq!(entries.len(), 1, "round {round}: want exactly one artifact");
        assert!(entries[0].ok, "round {round}: surviving artifact is corrupt");
        let read: Vec<u64> = store.get("race", &key).expect("round winner must be readable");
        assert!(read == a || read == b, "round {round}: survivor is neither written value");
    }
    let tmps = fs::read_dir(store.root())
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
        .count();
    assert_eq!(tmps, 0, "racing writers stranded tmp files");
}

/// A reader racing a writer on one key sees only complete states: the old
/// value, the new value, or a miss. Values never tear, and — renames being
/// atomic replacements — observed versions never go backwards.
#[test]
fn reader_racing_writer_sees_old_complete_new_complete_or_miss() {
    const VERSIONS: u64 = 200;
    let scratch = Scratch::new("race-reader");
    let store = Arc::new(ArtifactStore::open(&scratch.0));
    let payload = |v: u64| -> Vec<u64> { vec![v; 96] };
    store.put("race", "rw-key", &payload(0)).unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (store_w, done_w) = (&store, &done);
        s.spawn(move || {
            for v in 1..=VERSIONS {
                store_w.put("race", "rw-key", &payload(v)).unwrap();
            }
            done_w.store(true, Ordering::Release);
        });
        let (store_r, done_r) = (&store, &done);
        s.spawn(move || {
            let mut last_seen = 0u64;
            let mut observations = 0u64;
            while !done_r.load(Ordering::Acquire) {
                // A miss is legal (reader between unlink-free atomic swaps
                // never actually sees one on this platform, but the
                // contract allows it); a torn or stale-after-new value is
                // not.
                if let Some(value) = store_r.get::<Vec<u64>>("race", "rw-key") {
                    observations += 1;
                    let version = value[0];
                    assert!(
                        value.iter().all(|&x| x == version),
                        "torn payload observed: {value:?}"
                    );
                    assert!(version <= VERSIONS, "phantom version {version}");
                    assert!(
                        version >= last_seen,
                        "version went backwards: {version} after {last_seen}"
                    );
                    last_seen = version;
                }
            }
            assert!(observations > 0, "reader never observed a value");
        });
    });

    // The final state is the last write, intact.
    let final_value: Vec<u64> = store.get("race", "rw-key").expect("final value readable");
    assert_eq!(final_value, payload(VERSIONS));
}
