//! The epoch-sliced fleet sweep: simulate every device's field schedule,
//! persist each `(shard, epoch)` slice as a store artifact, assemble
//! shards by folding slices in epoch order, under the slicing/keying/merge
//! contract of the crate docs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::spec::{FleetSpec, FLEET_SLICE_KIND, PROFILE_SALT, RUN_SALT};
use serde::{Deserialize, Serialize};
use wade_core::rayon::prelude::*;
use wade_core::{ProfiledWorkload, SimulatedServer};
use wade_dram::{DramDevice, DramUsageProfile, ErrorSim, OperatingPoint, RANK_COUNT};
use wade_fault::mix64;
use wade_store::ArtifactStore;
use wade_workloads::full_suite;

/// One simulated field epoch of one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochOutcome {
    /// Epoch index within the device's schedule.
    pub epoch: u32,
    /// Workload that ran during the epoch.
    pub workload: String,
    /// DIMM temperature during the epoch (°C).
    pub temp_c: f64,
    /// Utilization factor applied to the workload's DRAM rates.
    pub utilization: f64,
    /// Unique corrected-error words observed.
    pub ce_count: u64,
    /// Word error rate of the epoch run (eq. 2).
    pub wer: f64,
    /// Per-rank WER split.
    pub wer_per_rank: [f64; RANK_COUNT],
    /// Whether the epoch ended in an uncorrectable error (device failure).
    pub crashed: bool,
    /// Seconds into the epoch at which the UE fired, if it did.
    pub ue_t_s: Option<f64>,
    /// Rank blamed for the UE, if one fired.
    pub ue_rank: Option<usize>,
}

/// The full simulated field history of one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceHistory {
    /// Fleet-wide device index.
    pub index: u32,
    /// Derived manufacturing seed.
    pub seed: u64,
    /// Generation the device belongs to.
    pub vintage: u32,
    /// The device's manufacturing fingerprint (seed + geometry + physics
    /// + simulator determinism contract).
    pub fingerprint: u64,
    /// Epoch outcomes, ending early at the failing epoch.
    pub epochs: Vec<EpochOutcome>,
    /// Absolute failure time from field start (s), if the device failed.
    pub failed_at_s: Option<f64>,
}

/// One device's outcome within a persisted epoch slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceRow {
    /// Fleet-wide device index.
    pub index: u32,
    /// The device's outcome for the slice's epoch.
    pub outcome: EpochOutcome,
}

/// One persisted `(shard, epoch)` slice: the epoch outcomes of every
/// device of the shard that was still alive entering the epoch, in fleet
/// index order. The unit of store persistence (kind [`FLEET_SLICE_KIND`]);
/// see the crate docs for the keying contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSlice {
    /// Shard index.
    pub shard: u32,
    /// Epoch index.
    pub epoch: u32,
    /// Alive devices' outcomes, in fleet index order.
    pub rows: Vec<SliceRow>,
}

/// The merged result of a fleet sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The spec the fleet was manufactured from.
    pub spec: FleetSpec,
    /// The fleet seed.
    pub seed: u64,
    /// Every device's history, in index order.
    pub devices: Vec<DeviceHistory>,
}

impl FleetOutcome {
    /// `(device index, absolute failure time)` of every failed device.
    pub fn failures(&self) -> Vec<(u32, f64)> {
        self.devices.iter().filter_map(|d| d.failed_at_s.map(|t| (d.index, t))).collect()
    }

    /// Devices that survived the whole observation span.
    pub fn survivors(&self) -> usize {
        self.devices.iter().filter(|d| d.failed_at_s.is_none()).count()
    }

    /// Canonical JSON of the device histories — the byte-identity currency
    /// of the fleet test pyramid (the spec itself is keyed, not stored).
    ///
    /// # Panics
    /// Panics if serialization fails (it cannot for these types).
    pub fn devices_json(&self) -> String {
        serde_json::to_string(&self.devices).expect("device histories serialize")
    }
}

/// A reusable sweep engine: owns the profiling server, the lazily
/// profiled workload suite and the simulation/profiling counters.
///
/// The counters are how tests *counter-assert* the warm path: a warm
/// [`FleetSweep::sweep_stored`] must leave both [`FleetSweep::simulations`]
/// and [`FleetSweep::profilings`] untouched — and an epoch-count extension
/// must leave exactly `simulations == alive device-epochs of the delta`
/// (zero prefix simulations).
pub struct FleetSweep {
    spec: FleetSpec,
    seed: u64,
    server: SimulatedServer,
    profiles: OnceLock<Vec<ProfiledWorkload>>,
    simulations: AtomicU64,
    profilings: AtomicU64,
}

impl FleetSweep {
    /// Builds a sweep engine for `spec` under `seed`.
    ///
    /// # Panics
    /// Panics if the spec fails [`FleetSpec::validate`].
    pub fn new(spec: FleetSpec, seed: u64) -> Self {
        spec.validate().expect("invalid fleet spec");
        Self {
            spec,
            seed,
            server: SimulatedServer::with_seed(seed),
            profiles: OnceLock::new(),
            simulations: AtomicU64::new(0),
            profilings: AtomicU64::new(0),
        }
    }

    /// The spec in force.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Number of `ErrorSim` runs performed so far by this engine. Zero
    /// after a fully warm [`FleetSweep::sweep_stored`]; exactly the
    /// delta's alive device-epochs after a prefix-warm extension.
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Number of workload-suite profiling passes performed (0 or 1; the
    /// suite is profiled at most once per engine). Zero after a fully warm
    /// [`FleetSweep::sweep_stored`].
    pub fn profilings(&self) -> u64 {
        self.profilings.load(Ordering::Relaxed)
    }

    /// The profiled workload suite the schedules draw from, profiling it
    /// on first use. Profiling happens at most once per engine and not at
    /// all on a fully warm stored sweep.
    ///
    /// Forced *before* any pool fan-out so the one-time initialisation
    /// (itself parallel) never runs under a worker blocked by another
    /// worker's `OnceLock` wait.
    pub fn profiles(&self) -> &[ProfiledWorkload] {
        self.profiles.get_or_init(|| {
            self.profilings.fetch_add(1, Ordering::Relaxed);
            let suite: Vec<_> = full_suite(self.spec.scale)
                .into_iter()
                .take(self.spec.max_workloads as usize)
                .enumerate()
                .collect();
            let profile_seed = mix64(self.seed, PROFILE_SALT);
            suite
                .into_par_iter()
                .map(|(i, w)| {
                    self.server.profile_workload(w.as_ref(), mix64(profile_seed, i as u64))
                })
                .collect()
        })
    }

    /// Simulates one epoch of one (already manufactured) device — the
    /// replay unit behind both device-major isolation replay
    /// ([`FleetSweep::device_history`]) and the epoch-major slice path;
    /// both produce bit-identical outcomes because all randomness is keyed
    /// by `(spec, seed, index, epoch)`.
    fn simulate_epoch(
        &self,
        device: &DramDevice,
        index: u32,
        epoch: u32,
        profiles: &[ProfiledWorkload],
    ) -> EpochOutcome {
        let plan = self.spec.epoch_plan(self.seed, index, epoch, profiles.len());
        let profiled = &profiles[plan.workload];
        let profile = scaled_profile(&profiled.profile, plan.utilization);
        let op = OperatingPoint::relaxed(self.spec.trefp_s, plan.temp_c);
        let run_seed = mix64(mix64(self.seed ^ RUN_SALT, device.seed()), epoch as u64);
        self.simulations.fetch_add(1, Ordering::Relaxed);
        let run = ErrorSim::new(device).run(&profile, op, self.spec.epoch_s, run_seed);
        EpochOutcome {
            epoch,
            workload: profiled.name.clone(),
            temp_c: plan.temp_c,
            utilization: plan.utilization,
            ce_count: run.ce_events.len() as u64,
            wer: run.wer(),
            wer_per_rank: run.wer_per_rank(),
            crashed: run.crashed(),
            ue_t_s: run.ue.map(|ue| ue.t_s),
            ue_rank: run.ue.map(|ue| ue.rank.index()),
        }
    }

    /// An empty history skeleton for device `index`: derived seed, vintage
    /// and manufacturing fingerprint, no epochs. Cheap (no profiling, no
    /// simulation) — the slice fold fills in the epochs.
    fn skeleton(&self, index: u32) -> DeviceHistory {
        let device = self.spec.manufacture(self.seed, index);
        DeviceHistory {
            index,
            seed: device.seed(),
            vintage: self.spec.vintage_of(index),
            fingerprint: device.fingerprint(),
            epochs: Vec::new(),
            failed_at_s: None,
        }
    }

    /// Folds one slice row into its accumulating history, returning
    /// whether the device survived the epoch. `failed_at_s` reconstructs
    /// exactly the simulation-time rule: a UE at `t` inside `epoch` fails
    /// the device at `epoch · epoch_s + min(t, epoch_s)`.
    fn fold_row(&self, history: &mut DeviceHistory, epoch: u32, outcome: EpochOutcome) -> bool {
        if let Some(t) = outcome.ue_t_s {
            history.failed_at_s =
                Some(epoch as f64 * self.spec.epoch_s + t.min(self.spec.epoch_s));
        }
        let alive = !outcome.crashed;
        history.epochs.push(outcome);
        alive
    }

    /// Simulates the full field history of device `index` — the isolation
    /// drill-down: the result is byte-identical to the same device's slice
    /// of a full sweep.
    pub fn device_history(&self, index: u32) -> DeviceHistory {
        let profiles = self.profiles();
        let device = self.spec.manufacture(self.seed, index);
        let mut history = self.skeleton(index);
        for epoch in 0..self.spec.epochs {
            let outcome = self.simulate_epoch(&device, index, epoch, profiles);
            if !self.fold_row(&mut history, epoch, outcome) {
                break;
            }
        }
        history
    }

    /// Store key of the `(shard, epoch)` slice — seed, determinism
    /// version, profiling SoC fingerprint, **epoch-invariant** spec
    /// prefix, shard and epoch indices. See the crate docs for why each
    /// component is load-bearing, and why `spec.epochs` must not appear.
    pub fn slice_key(&self, shard: u32, epoch: u32) -> String {
        format!("{}{shard}|epoch={epoch}", self.slice_key_prefix())
    }

    /// The shared prefix of every slice key of this `(spec prefix, seed)`
    /// — the enumeration handle for
    /// [`wade_store::ArtifactStore::keys_with_prefix`] (e.g. to count how
    /// many slices of a spec are already persisted, at *any* epoch count).
    pub fn slice_key_prefix(&self) -> String {
        format!(
            "fleet|seed={}|det={}|soc={:016x}|spec={}|shard=",
            self.seed,
            wade_dram::DETERMINISM_VERSION,
            self.server.soc_fingerprint(),
            self.spec.describe_prefix(),
        )
    }

    /// Simulates the `(shard, epoch)` slice for the given alive devices
    /// (epoch-major: devices fan out over the pool, order-stable).
    fn simulate_slice(&self, shard: u32, epoch: u32, alive: &[u32]) -> FleetSlice {
        let profiles = self.profiles();
        let rows = alive
            .par_iter()
            .map(|&index| {
                let device = self.spec.manufacture(self.seed, index);
                SliceRow { index, outcome: self.simulate_epoch(&device, index, epoch, profiles) }
            })
            .collect();
        FleetSlice { shard, epoch, rows }
    }

    /// Assembles shard `shard` through `store` into its devices' histories,
    /// in fleet index order (an in-memory fold of its epoch slices; shards
    /// themselves are not persisted — the slice is the artifact). Slices
    /// are read in epoch order; warm slices fold straight in (zero
    /// simulation, zero profiling), missing ones — cold, evicted, or
    /// unreadable under a degraded store — are simulated for exactly the
    /// devices still alive and republished. A stored slice whose shard, epoch or rows disagree
    /// with the alive set (a mis-keyed artifact) fails the fit check of
    /// [`ArtifactStore::get_or_put`] and is recomputed the same way. The
    /// fold stops early once every device of the shard has failed.
    pub(crate) fn shard_stored(&self, store: &ArtifactStore, shard: u32) -> Vec<DeviceHistory> {
        let range = self.spec.shard_range(shard);
        let start = range.start;
        let mut devices: Vec<DeviceHistory> = range.map(|k| self.skeleton(k)).collect();
        let mut alive: Vec<u32> = devices.iter().map(|d| d.index).collect();
        for epoch in 0..self.spec.epochs {
            if alive.is_empty() {
                break;
            }
            let fits = |slice: &FleetSlice| {
                (slice.shard, slice.epoch) == (shard, epoch)
                    && slice.rows.iter().map(|r| r.index).eq(alive.iter().copied())
            };
            let simulate = || self.simulate_slice(shard, epoch, &alive);
            let key = self.slice_key(shard, epoch);
            let (slice, _) = store.get_or_put(FLEET_SLICE_KIND, &key, fits, simulate);
            alive.clear();
            for row in slice.rows {
                let history = &mut devices[(row.index - start) as usize];
                if self.fold_row(history, epoch, row.outcome) {
                    alive.push(row.index);
                }
            }
        }
        devices
    }

    /// Sweeps through `store`, assembling shards in shard order (see
    /// `FleetSweep::shard_stored`) and concatenating their histories: warm
    /// slices are read back (zero simulation, zero profiling), cold slices
    /// are simulated and persisted. A store running degraded (see
    /// `wade-fault`) simply yields more recomputes — the merged outcome is
    /// byte-identical either way.
    pub fn sweep_stored(&self, store: &ArtifactStore) -> FleetOutcome {
        let mut devices = Vec::with_capacity(self.spec.devices as usize);
        for shard in 0..self.spec.shards {
            devices.extend(self.shard_stored(store, shard));
        }
        assert_eq!(devices.len() as u32, self.spec.devices, "sweep lost devices");
        for (i, d) in devices.iter().enumerate() {
            assert_eq!(d.index, i as u32, "sweep broke device order");
        }
        FleetOutcome { spec: self.spec, seed: self.seed, devices }
    }
}

/// A profile at reduced utilization: the DRAM traffic rates scale with the
/// utilization factor; footprint and content statistics stay those of the
/// profiled workload.
fn scaled_profile(profile: &DramUsageProfile, utilization: f64) -> DramUsageProfile {
    let mut scaled = profile.clone();
    scaled.dram_read_rate_hz *= utilization;
    scaled.dram_write_rate_hz *= utilization;
    scaled.row_activation_rate_hz *= utilization;
    scaled
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> FleetSpec {
        let mut spec = FleetSpec::test_default();
        spec.devices = 6;
        spec.shards = 3;
        spec.epochs = 2;
        spec.max_workloads = 2;
        spec
    }

    /// A unique scratch store directory per test, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("wade-fleet-unit-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }

        fn store(&self) -> ArtifactStore {
            ArtifactStore::open(&self.0)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// `sweep` through a fresh, empty store.
    fn cold_sweep(sweep: &FleetSweep, tag: &str) -> FleetOutcome {
        sweep.sweep_stored(&Scratch::new(tag).store())
    }

    #[test]
    fn sweep_is_reproducible_and_ordered() {
        let a = cold_sweep(&FleetSweep::new(tiny_spec(), 42), "repro-a");
        let b = cold_sweep(&FleetSweep::new(tiny_spec(), 42), "repro-b");
        assert_eq!(a.devices_json(), b.devices_json());
        assert_eq!(a.devices.len(), 6);
        let other = cold_sweep(&FleetSweep::new(tiny_spec(), 43), "repro-other");
        assert_ne!(a.devices_json(), other.devices_json(), "seed must matter");
    }

    #[test]
    fn device_histories_are_shard_independent() {
        let sweep = FleetSweep::new(tiny_spec(), 7);
        let full = cold_sweep(&sweep, "independent");
        let solo = sweep.device_history(4);
        assert_eq!(solo, full.devices[4]);
    }

    #[test]
    fn simulations_and_profilings_are_counted() {
        let sweep = FleetSweep::new(tiny_spec(), 7);
        assert_eq!((sweep.simulations(), sweep.profilings()), (0, 0));
        let outcome = cold_sweep(&sweep, "counted");
        let epochs: u64 = outcome.devices.iter().map(|d| d.epochs.len() as u64).sum();
        assert_eq!(sweep.simulations(), epochs);
        assert_eq!(sweep.profilings(), 1, "the suite is profiled exactly once");
    }

    #[test]
    fn mis_keyed_slice_is_recomputed_and_republished() {
        let spec = tiny_spec();
        let reference = FleetSweep::new(spec, 7);
        let devices: Vec<DeviceHistory> =
            (0..spec.devices).map(|k| reference.device_history(k)).collect();
        let scratch = Scratch::new("mis-keyed");
        let store = scratch.store();
        let cold = FleetSweep::new(spec, 7);
        let _ = cold.sweep_stored(&store);

        // Shard 0's epoch-1 slice, planted under shard 1's key.
        let planted: FleetSlice =
            store.get(FLEET_SLICE_KIND, &cold.slice_key(0, 1)).expect("cold slice persisted");
        store.put(FLEET_SLICE_KIND, &cold.slice_key(1, 1), &planted).expect("plant slice");
        let alive = spec
            .shard_range(1)
            .filter(|&k| devices[k as usize].epochs.len() > 1)
            .count() as u64;
        assert!(alive > 0, "fixture: shard 1 must reach epoch 1");

        let healed = FleetSweep::new(spec, 7);
        let outcome = healed.sweep_stored(&store);
        assert_eq!(outcome.devices, devices, "a mis-keyed slice leaked into the sweep");
        assert_eq!(healed.simulations(), alive, "only the mis-keyed slice is recomputed");
        assert_eq!((store.unfit(), store.corrupt()), (1, 0), "a mis-keyed slice is unfit");

        let warm = FleetSweep::new(spec, 7);
        assert_eq!(warm.sweep_stored(&store).devices, devices);
        assert_eq!(warm.simulations(), 0, "the recomputed slice must be republished");
    }

    #[test]
    fn slice_keys_separate_shards_epochs_seeds_and_specs() {
        let sweep = FleetSweep::new(tiny_spec(), 7);
        assert_ne!(sweep.slice_key(0, 0), sweep.slice_key(1, 0));
        assert_ne!(sweep.slice_key(0, 0), sweep.slice_key(0, 1));
        assert_ne!(sweep.slice_key(0, 0), FleetSweep::new(tiny_spec(), 8).slice_key(0, 0));
        let mut wider = tiny_spec();
        wider.devices += 1;
        assert_ne!(sweep.slice_key(0, 0), FleetSweep::new(wider, 7).slice_key(0, 0));
        // The load-bearing sharing: a spec differing only in epoch count
        // addresses the *same* slices — that is what prefix reuse is.
        let mut grown = tiny_spec();
        grown.epochs += 3;
        assert_eq!(sweep.slice_key(0, 0), FleetSweep::new(grown, 7).slice_key(0, 0));
        assert_eq!(sweep.slice_key_prefix(), FleetSweep::new(grown, 7).slice_key_prefix());
    }
}
