//! The incremental-sweep test pyramid (ARCHITECTURE.md §15): extending a
//! fleet spec's epoch count must reuse the persisted prefix — zero prefix
//! simulations, zero profiling, counter-asserted — and the extended fleet
//! must be byte-identical to a cold sweep at the target epoch count, at
//! 1 and 8 threads, against warm and cold stores, and under a faulty
//! filesystem. The two-pointer evaluator is pinned bit-identical to a
//! naive window rescan.

use std::fs;
use std::path::PathBuf;
use wade::fleet::{
    DeviceHistory, EpochOutcome, FleetEval, FleetEvalConfig, FleetOutcome, FleetSpec, FleetSweep,
};
use wade::store::{ArtifactStore, FaultPlan, FaultyFs, RealFs};

const FLEET_SEED: u64 = 7;
const BASE_EPOCHS: u32 = 4;
const EXTENDED_EPOCHS: u32 = 6;

/// A fleet small enough to sweep cold in about a second, sharded enough
/// to exercise the per-shard slice fold.
fn spec_at(epochs: u32) -> FleetSpec {
    let mut spec = FleetSpec::test_default();
    spec.devices = 24;
    spec.shards = 3;
    spec.epochs = epochs;
    spec.max_workloads = 3;
    spec
}

/// A unique scratch directory per test (removed at entry so reruns start
/// cold; removed again by the guard on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("wade-fleet-inc-{}-{tag}", std::process::id()));
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

/// The device-major reference fleet: every device replayed in isolation
/// through `device_history`, in index order.
fn reference_json(epochs: u32) -> String {
    let spec = spec_at(epochs);
    let sweep = FleetSweep::new(spec, FLEET_SEED);
    let devices = (0..spec.devices).map(|k| sweep.device_history(k)).collect();
    FleetOutcome { spec, seed: FLEET_SEED, devices }.devices_json()
}

/// Device-epochs of `outcome` at or past epoch `from` — the simulation
/// budget an extension from `from` is allowed.
fn delta_epochs(outcome: &FleetOutcome, from: u32) -> u64 {
    outcome
        .devices
        .iter()
        .map(|d| d.epochs.iter().filter(|e| e.epoch >= from).count() as u64)
        .sum()
}

#[test]
fn extension_roundtrips_byte_identically_at_1_and_8_threads() {
    let reference = reference_json(EXTENDED_EPOCHS);
    let base_reference = reference_json(BASE_EPOCHS);
    for threads in [1usize, 8] {
        on_pool(threads, || {

            // Cold store: the extended spec against an empty store is just
            // a cold sweep.
            let scratch = Scratch::new(&format!("roundtrip-{threads}"));
            let store = ArtifactStore::open(&scratch.0);
            let cold = FleetSweep::new(spec_at(EXTENDED_EPOCHS), FLEET_SEED);
            assert_eq!(
                cold.sweep_stored(&store).devices_json(),
                reference,
                "{threads} threads: cold stored sweep diverged"
            );

            // Warm store: re-warm from the base epoch count, then extend.
            let scratch2 = Scratch::new(&format!("roundtrip-warm-{threads}"));
            let store2 = ArtifactStore::open(&scratch2.0);
            let _ = FleetSweep::new(spec_at(BASE_EPOCHS), FLEET_SEED).sweep_stored(&store2);
            let extended = FleetSweep::new(spec_at(EXTENDED_EPOCHS), FLEET_SEED);
            assert_eq!(
                extended.sweep_stored(&store2).devices_json(),
                reference,
                "{threads} threads: extension diverged from the cold sweep"
            );

            // Truncation: sweeping the *base* spec against the store warmed
            // at the extended count reads the shared prefix and stops.
            let truncated = FleetSweep::new(spec_at(BASE_EPOCHS), FLEET_SEED);
            assert_eq!(
                truncated.sweep_stored(&store2).devices_json(),
                base_reference,
                "{threads} threads: truncation diverged from the base sweep"
            );
            assert_eq!(truncated.simulations(), 0, "truncation must be fully warm");
            assert_eq!(truncated.profilings(), 0, "truncation must not profile");
        });
    }
}

#[test]
fn extension_simulates_exactly_the_delta_and_never_the_prefix() {
    let scratch = Scratch::new("delta");
    let store = ArtifactStore::open(&scratch.0);
    let base = FleetSweep::new(spec_at(BASE_EPOCHS), FLEET_SEED);
    let _ = base.sweep_stored(&store);
    assert!(base.simulations() > 0);

    let extended = FleetSweep::new(spec_at(EXTENDED_EPOCHS), FLEET_SEED);
    let outcome = extended.sweep_stored(&store);
    let delta = delta_epochs(&outcome, BASE_EPOCHS);
    assert!(delta > 0, "fixture must actually extend");
    assert_eq!(
        extended.simulations(),
        delta,
        "extension must simulate exactly the new epochs' alive device-epochs"
    );
    assert_eq!(extended.profilings(), 1, "the delta profiles the suite once");

    // A second engine at the extended count is now fully warm.
    let warm = FleetSweep::new(spec_at(EXTENDED_EPOCHS), FLEET_SEED);
    let again = warm.sweep_stored(&store);
    assert_eq!(warm.simulations(), 0, "re-extension must be fully warm");
    assert_eq!(warm.profilings(), 0, "re-extension must not profile");
    assert_eq!(again.devices_json(), outcome.devices_json());
}

#[test]
fn faulty_store_extension_degrades_to_recompute_with_identical_output() {
    let reference = reference_json(EXTENDED_EPOCHS);
    let scratch = Scratch::new("faulty");

    // Warm the base prefix through a healthy filesystem first.
    let healthy = ArtifactStore::open_with_fs(&scratch.0, RealFs);
    let _ = FleetSweep::new(spec_at(BASE_EPOCHS), FLEET_SEED).sweep_stored(&healthy);

    // Extend through uniform-10 % fault schedules: slice reads and writes
    // fail at random, forcing recomputes — the extended fleet must not
    // change under any schedule. A single 10 % draw can legitimately
    // inject nothing; several seeded schedules run, and at least one must
    // actually fire.
    let mut injected_total = 0;
    for fault_seed in 0..6 {
        let faulty = ArtifactStore::open_with_fs(
            &scratch.0,
            FaultyFs::new(RealFs, FaultPlan::uniform(fault_seed, 0.10)),
        );
        let engine = FleetSweep::new(spec_at(EXTENDED_EPOCHS), FLEET_SEED);
        let outcome = engine.sweep_stored(&faulty);
        assert_eq!(
            outcome.devices_json(),
            reference,
            "fault schedule {fault_seed} changed the extended fleet"
        );
        injected_total += faulty.faults_injected();
    }
    assert!(injected_total > 0, "no uniform-10 % schedule injected anything");
}

// --- two-pointer vs naive rescan over synthetic fleets -------------------

/// SplitMix64 — the repo's standard test-side generator.
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (split_mix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A random synthetic fleet (no simulation cost): random size, epoch
/// count, heavy-tailed WER magnitudes and crash times.
fn synthetic_outcome(seed: u64) -> FleetOutcome {
    let mut st = seed;
    let devices = 4 + (split_mix(&mut st) % 16) as u32;
    let epochs = 2 + (split_mix(&mut st) % 12) as u32;
    let epoch_s = 100.0;
    let mut spec = FleetSpec::test_default();
    spec.devices = devices;
    spec.shards = 1;
    spec.epochs = epochs;
    spec.epoch_s = epoch_s;
    let mut histories = Vec::new();
    for index in 0..devices {
        let mut eps = Vec::new();
        let mut failed_at_s = None;
        for e in 0..epochs {
            let crashed = unit(&mut st) < 0.08;
            let wer = if unit(&mut st) < 0.3 { 0.0 } else { unit(&mut st).powi(3) * 1e-4 };
            let ue_t_s = crashed.then(|| unit(&mut st) * epoch_s);
            eps.push(EpochOutcome {
                epoch: e,
                workload: "synthetic".into(),
                temp_c: 40.0 + 40.0 * unit(&mut st),
                utilization: 0.4 + 0.6 * unit(&mut st),
                ce_count: (wer * 1e9) as u64,
                wer,
                wer_per_rank: [wer / 8.0; 8],
                crashed,
                ue_t_s,
                ue_rank: crashed.then_some(0),
            });
            if crashed {
                failed_at_s = Some(e as f64 * epoch_s + ue_t_s.unwrap());
                break;
            }
        }
        histories.push(DeviceHistory {
            index,
            seed: split_mix(&mut st),
            vintage: index % spec.vintages,
            fingerprint: split_mix(&mut st),
            epochs: eps,
            failed_at_s,
        });
    }
    FleetOutcome { spec, seed, devices: histories }
}

#[test]
fn two_pointer_decisions_match_a_naive_rescan_on_synthetic_fleets() {
    for seed in 0..60u64 {
        let outcome = synthetic_outcome(seed);
        let epoch_s = outcome.spec.epoch_s;
        // Window widths off the epoch grid, on it, zero and unbounded.
        for observation_s in [0.0, 0.5 * epoch_s, 2.0 * epoch_s, 2.7 * epoch_s, 1e12] {
            let config = FleetEvalConfig {
                observation_s,
                score_threshold: f64::MIN_POSITIVE,
                lead_times_s: vec![],
            };
            let eval = FleetEval::evaluate(&outcome, config);
            assert_eq!(eval.failures(), outcome.failures().as_slice(), "seed {seed}");
            assert_eq!(eval.devices(), outcome.devices.len(), "seed {seed}");
            let mut naive = Vec::new();
            for device in &outcome.devices {
                for (e, epoch) in device.epochs.iter().enumerate() {
                    if epoch.crashed {
                        continue;
                    }
                    let t_s = (e + 1) as f64 * epoch_s;
                    let window_start = t_s - observation_s;
                    let mut sum = 0.0;
                    let mut n = 0u32;
                    for (e2, past) in device.epochs.iter().take(e + 1).enumerate() {
                        if (e2 + 1) as f64 * epoch_s > window_start {
                            sum += past.wer;
                            n += 1;
                        }
                    }
                    let score = if n == 0 { 0.0 } else { sum / n as f64 };
                    naive.push((device.index, t_s, score));
                }
            }
            let got: Vec<(u32, f64, f64)> =
                eval.decisions().iter().map(|d| (d.device, d.t_s, d.score)).collect();
            // Bit-level comparison: the two-pointer fold performs the very
            // same additions, so even the f64 bits must agree.
            assert_eq!(got.len(), naive.len(), "seed {seed}, obs {observation_s}");
            for (g, n) in got.iter().zip(naive.iter()) {
                assert_eq!(g.0, n.0);
                assert_eq!(g.1.to_bits(), n.1.to_bits(), "seed {seed}, obs {observation_s}");
                assert_eq!(g.2.to_bits(), n.2.to_bits(), "seed {seed}, obs {observation_s}");
            }
        }
    }
}
