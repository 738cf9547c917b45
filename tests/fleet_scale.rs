//! The fleet test pyramid (ARCHITECTURE.md §15): a swept device fleet must
//! be byte-identical across thread counts, across the cold/warm store
//! boundary (with the warm path counter-asserted to perform **zero**
//! simulations), under per-device isolation replay, and under a faulty
//! filesystem — and a fleet-swept campaign must feed the serving registry
//! with no fleet-specific code.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;
use wade::core::{Campaign, CampaignConfig, MlKind, SimulatedServer};
use wade::features::FeatureSet;
use wade::fleet::{fleet_campaign_data, FleetOutcome, FleetSpec, FleetSweep, FLEET_SLICE_KIND};
use wade::serve::ModelRegistry;
use wade::store::{ArtifactStore, FaultPlan, FaultyFs, RealFs};

const FLEET_SEED: u64 = 7;

/// The pyramid's fleet: 48 devices over 6 shards, 3 vintages, 4 epochs —
/// small enough to sweep cold in seconds, large enough that every shard
/// holds every vintage and ~a quarter of one vintage fails in the field.
fn fixture_spec() -> FleetSpec {
    let mut spec = FleetSpec::test_default();
    spec.devices = 48;
    spec.shards = 6;
    spec.epochs = 4;
    spec.max_workloads = 4;
    spec
}

/// The device-major reference fleet — every device replayed in isolation
/// through `device_history`, in index order — shared across this file's
/// tests (it is deterministic, so sharing cannot couple them).
fn fixture() -> &'static (FleetSweep, FleetOutcome, String) {
    static FX: OnceLock<(FleetSweep, FleetOutcome, String)> = OnceLock::new();
    FX.get_or_init(|| {
        let spec = fixture_spec();
        let sweep = FleetSweep::new(spec, FLEET_SEED);
        let devices = (0..spec.devices).map(|k| sweep.device_history(k)).collect();
        let outcome = FleetOutcome { spec, seed: FLEET_SEED, devices };
        let json = outcome.devices_json();
        (sweep, outcome, json)
    })
}

/// A unique scratch directory per test (removed at entry so reruns start
/// cold; removed again by the guard on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("wade-fleet-{}-{tag}", std::process::id()));
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

#[test]
fn shard_merge_is_byte_identical_at_1_and_8_threads() {
    let (_, _, reference) = fixture();
    let cold_sweep = |threads: usize| {
        let scratch = Scratch::new(&format!("threads-{threads}"));
        let store = ArtifactStore::open(&scratch.0);
        on_pool(threads, || {
            FleetSweep::new(fixture_spec(), FLEET_SEED).sweep_stored(&store).devices_json()
        })
    };
    let one = cold_sweep(1);
    let eight = cold_sweep(8);
    assert_eq!(one, eight, "1-thread vs 8-thread sweeps diverged");
    assert_eq!(&one, reference, "pool sweeps diverged from the device-major reference");
}

#[test]
fn warm_store_sweep_is_byte_identical_and_simulation_free() {
    let (_, _, reference) = fixture();
    let scratch = Scratch::new("warm");
    let store = ArtifactStore::open(&scratch.0);

    let cold_engine = FleetSweep::new(fixture_spec(), FLEET_SEED);
    let cold = cold_engine.sweep_stored(&store);
    assert!(cold_engine.simulations() > 0, "cold sweep must simulate");
    assert!(store.writes() >= fixture_spec().shards as u64, "each shard's slices persist");
    assert_eq!(&cold.devices_json(), reference);

    // A fresh engine against the now-warm store: pure reads, no profiling.
    let warm_engine = FleetSweep::new(fixture_spec(), FLEET_SEED);
    let warm = warm_engine.sweep_stored(&store);
    assert_eq!(warm_engine.simulations(), 0, "warm sweep must not simulate");
    assert_eq!(warm_engine.profilings(), 0, "warm sweep must not profile");
    assert_eq!(warm.devices_json(), cold.devices_json(), "warm diverged from cold");
    assert!(store.hits() >= fixture_spec().shards as u64);

    // The slice artifacts live under the fleet slice kind and are re-keyed
    // by seed: a different fleet seed misses every slice — including via
    // prefix enumeration.
    let other = FleetSweep::new(fixture_spec(), FLEET_SEED + 1);
    assert!(store
        .get::<wade::fleet::FleetSlice>(FLEET_SLICE_KIND, &other.slice_key(0, 0))
        .is_none());
    assert!(store.keys_with_prefix(FLEET_SLICE_KIND, &other.slice_key_prefix()).is_empty());
    assert!(
        !store.keys_with_prefix(FLEET_SLICE_KIND, &warm_engine.slice_key_prefix()).is_empty(),
        "the warm engine's own slices must enumerate"
    );
}

#[test]
fn single_device_replay_reproduces_its_fleet_slice() {
    let scratch = Scratch::new("replay");
    let outcome =
        FleetSweep::new(fixture_spec(), FLEET_SEED).sweep_stored(&ArtifactStore::open(&scratch.0));
    // A fresh engine re-manufactures single devices in isolation; each
    // history must equal the sharded sweep's slice bit for bit.
    let solo = FleetSweep::new(fixture_spec(), FLEET_SEED);
    for index in [0u32, 17, 47] {
        let replay = solo.device_history(index);
        assert_eq!(
            replay, outcome.devices[index as usize],
            "device {index} replayed differently in isolation"
        );
    }
}

#[test]
fn faulty_store_degrades_to_recompute_with_identical_output() {
    let (_, _, reference) = fixture();
    let scratch = Scratch::new("faulty");

    // Warm the store through a healthy filesystem first.
    let healthy = ArtifactStore::open_with_fs(&scratch.0, RealFs);
    let cold_engine = FleetSweep::new(fixture_spec(), FLEET_SEED);
    let _ = cold_engine.sweep_stored(&healthy);

    // Re-open through uniform-10 % fault schedules: shard reads and writes
    // fail at random, forcing recomputes — the merged fleet must not
    // change under any schedule. A fleet sweep touches only a handful of
    // store ops, so a single 10 % draw can legitimately inject nothing;
    // several seeded schedules run, and at least one must actually fire.
    let mut injected_total = 0;
    for fault_seed in 0..6 {
        let faulty = ArtifactStore::open_with_fs(
            &scratch.0,
            FaultyFs::new(RealFs, FaultPlan::uniform(fault_seed, 0.10)),
        );
        let engine = FleetSweep::new(fixture_spec(), FLEET_SEED);
        let outcome = engine.sweep_stored(&faulty);
        assert_eq!(
            &outcome.devices_json(),
            reference,
            "fault schedule {fault_seed} changed the swept fleet"
        );
        injected_total += faulty.faults_injected();
    }
    assert!(injected_total > 0, "no uniform-10 % schedule injected anything");
}

#[test]
fn serving_registry_loads_fleet_trained_models() {
    let (sweep, outcome, _) = fixture();
    let data = fleet_campaign_data(sweep, outcome);
    assert_eq!(
        data.rows.len(),
        outcome.devices.iter().map(|d| d.epochs.len()).sum::<usize>(),
        "one campaign row per simulated epoch"
    );
    // The registry consumes fleet campaigns exactly like characterization
    // campaigns — no fleet-specific serving code.
    let registry = ModelRegistry::new(data, FeatureSet::Set1, None);
    let model = registry.model(MlKind::Knn);
    let probe = &sweep.profiles()[0];
    let op = wade::dram::OperatingPoint::relaxed(fixture_spec().trefp_s, 60.0);
    let wer = model.predict_wer_total(&probe.features, op);
    let pue = model.predict_pue(&probe.features, op);
    assert!(wer.is_finite() && wer >= 0.0, "fleet-trained WER prediction: {wer}");
    assert!((0.0..=1.0).contains(&pue), "fleet-trained PUE prediction: {pue}");
}

#[test]
fn fleet_devices_drill_down_into_single_server_campaigns() {
    // Any fleet device can be pulled out of the population and put on the
    // full single-server characterization bench: vintage heterogeneity
    // must survive the hand-off (different vintages, different campaigns).
    let spec = fixture_spec();
    let suite = &wade::workloads::paper_suite(wade::workloads::Scale::Test)[..2];
    let campaign = |index: u32| {
        let server = SimulatedServer::with_device(spec.manufacture(FLEET_SEED, index));
        Campaign::new(server, CampaignConfig::quick()).collect(suite, 5)
    };
    let a = campaign(0); // vintage 0
    let b = campaign(2); // vintage 2: denser node, weaker cells
    assert_eq!(a.rows.len(), b.rows.len());
    let total_wer = |data: &wade::core::CampaignData| {
        data.rows.iter().filter_map(|r| r.wer_run.as_ref()).map(|w| w.wer).sum::<f64>()
    };
    assert!(
        total_wer(&b) > total_wer(&a),
        "later vintage should err more: {} vs {}",
        total_wer(&b),
        total_wer(&a)
    );
}
