//! The fleet specification: how N heterogeneous devices are manufactured
//! from one seed.
//!
//! Everything a device is — its geometry variant, its vintage-skewed
//! physics, its thermal/utilization trace — derives from
//! `mix64(fleet_seed, device_index)` through salted domain streams, the
//! same keyed-not-streamed discipline as the simulator's seeding contract:
//! device `k` is a pure function of `(spec, fleet_seed, k)`, independent of
//! every other device, of shard boundaries and of thread count — and its
//! epoch `e` re-keys its own run randomness, independent of the spec's
//! total epoch count. That is what makes per-`(shard, epoch)` slice
//! artifacts replayable at every epoch boundary and lets a single device
//! be re-manufactured in isolation (asserted by `tests/fleet_scale.rs`
//! and `tests/fleet_incremental.rs`).

use wade_dram::{DramDevice, ErrorPhysics, ServerGeometry};
use wade_fault::mix64;
use wade_workloads::Scale;

/// Artifact kind of persisted per-`(shard, epoch)` fleet slices in a
/// [`wade_store::ArtifactStore`].
pub const FLEET_SLICE_KIND: &str = "fleet_slice";

/// Version of the fleet keying/stream contract, embedded in every store
/// key via the spec's key prefix. v2 re-domained the seasonal
/// thermal term from "one period per spec lifetime" to the fixed
/// [`SEASON_PERIOD_EPOCHS`] period so every per-device stream is a pure
/// function of `(spec prefix, fleet_seed, index, epoch)` — the property
/// that makes epoch-slice boundaries replay points. Bump again whenever a
/// stream must be re-domained; old artifacts then read as misses, never
/// as stale hits.
pub(crate) const FLEET_KEY_VERSION: u32 = 2;

/// Fixed period of the seasonal thermal sine, in epochs. Deliberately
/// **not** derived from [`FleetSpec::epochs`]: extending a spec's epoch
/// count must not re-plan the epochs already simulated, or per-epoch
/// slices could never be reused across extensions.
pub(crate) const SEASON_PERIOD_EPOCHS: f64 = 8.0;

/// Domain salts for the per-device derived streams. Part of the fleet
/// determinism contract: changing any of them re-manufactures the fleet,
/// so they are folded into every slice key's spec prefix.
const PHYSICS_SALT: u64 = 0xF1EE_7000_0000_0001;
const PLAN_SALT: u64 = 0xF1EE_7000_0000_0002;
const PHASE_SALT: u64 = 0xF1EE_7000_0000_0003;
const DEVICE_SALT: u64 = 0xF1EE_7000_0000_0004;
pub(crate) const RUN_SALT: u64 = 0xF1EE_7000_0000_0005;
pub(crate) const PROFILE_SALT: u64 = 0xF1EE_7000_0000_0006;

/// Uniform `[0, 1)` from 64 mixed bits (SplitMix64 output convention).
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// One epoch of a device's field schedule: which workload runs, at what
/// DIMM temperature, at what utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EpochPlan {
    /// Index into the sweep's profiled workload list.
    pub workload: usize,
    /// DIMM temperature during the epoch (°C).
    pub temp_c: f64,
    /// Utilization factor in `(0, 1]`, scaling the profile's DRAM rates.
    pub utilization: f64,
}

/// Specification of a simulated device fleet.
///
/// Every field but `epochs` is embedded **verbatim** in every slice store
/// key, so two specs can never alias an artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Number of devices manufactured.
    pub devices: u32,
    /// Number of store-addressable shards the fleet is split into.
    pub shards: u32,
    /// Number of device generations (vintages) in the population.
    pub vintages: u32,
    /// Field epochs simulated per device (until the device fails).
    pub epochs: u32,
    /// Simulated duration of one epoch (s).
    pub epoch_s: f64,
    /// Relaxed refresh period every device runs at (s).
    pub trefp_s: f64,
    /// Fleet-wide mean DIMM temperature (°C).
    pub base_temp_c: f64,
    /// Seasonal swing amplitude of each device's thermal trace (°C).
    pub temp_swing_c: f64,
    /// Lower bound of the per-epoch utilization draw, in `(0, 1]`.
    pub utilization_floor: f64,
    /// Number of workloads taken from the front of the suite for the
    /// per-device schedules (bounds profiling cost in CI-sized fleets).
    pub max_workloads: u32,
    /// Problem-size preset of the workload suite the traces are built from.
    pub scale: Scale,
}

impl FleetSpec {
    /// A CI-sized fleet: hundreds of devices across 3 vintages, small
    /// enough to sweep cold in seconds at [`Scale::Test`].
    pub fn test_default() -> Self {
        Self {
            devices: 192,
            shards: 8,
            vintages: 3,
            epochs: 6,
            epoch_s: 900.0,
            trefp_s: 2.283,
            base_temp_c: 58.0,
            temp_swing_c: 12.0,
            utilization_floor: 0.35,
            max_workloads: 8,
            scale: Scale::Test,
        }
    }

    /// Validates the spec against the simulator's modelled ranges.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("fleet needs at least one device".into());
        }
        if self.shards == 0 || self.shards > self.devices {
            return Err(format!("shards {} outside 1..=devices", self.shards));
        }
        if self.vintages == 0 {
            return Err("fleet needs at least one vintage".into());
        }
        if self.epochs == 0 || self.epoch_s.is_nan() || self.epoch_s <= 0.0 {
            return Err("epochs and epoch_s must be positive".into());
        }
        if !(self.trefp_s > 0.0 && self.trefp_s <= 10.0) {
            return Err(format!("refresh period {} s out of modelled range", self.trefp_s));
        }
        // The thermal trace adds the swing, ±5 °C of per-device base skew
        // and ±1.5 °C of epoch jitter on top of the base; every draw must
        // stay inside the operating-point model's 0–110 °C.
        let excursion = self.temp_swing_c.abs() + 6.5;
        if !(self.base_temp_c - excursion >= 0.0 && self.base_temp_c + excursion <= 110.0) {
            return Err(format!(
                "thermal trace {} ± {excursion} °C leaves the modelled 0–110 °C range",
                self.base_temp_c
            ));
        }
        if !(self.utilization_floor > 0.0 && self.utilization_floor <= 1.0) {
            return Err(format!("utilization floor {} outside (0, 1]", self.utilization_floor));
        }
        if self.max_workloads == 0 {
            return Err("fleet needs at least one workload".into());
        }
        Ok(())
    }

    /// The **epoch-invariant** verbatim key component: the key version,
    /// every field except `epochs` (in declaration order), and the
    /// device-stream salts (the fleet analogue of the simulator's salt
    /// fingerprint — changing a stream re-manufactures the fleet, so it
    /// must re-key every slice). Two specs differing only in `epochs`
    /// share this prefix by construction — that sharing is what lets an
    /// epoch-count extension load its prefix slices warm.
    pub(crate) fn describe_prefix(&self) -> String {
        format!(
            "fleetv={FLEET_KEY_VERSION};devices={};shards={};vintages={};epoch_s={:016x};\
             trefp={:016x};base_c={:016x};swing_c={:016x};util_floor={:016x};workloads={};\
             scale={:?};salts={:016x}",
            self.devices,
            self.shards,
            self.vintages,
            self.epoch_s.to_bits(),
            self.trefp_s.to_bits(),
            self.base_temp_c.to_bits(),
            self.temp_swing_c.to_bits(),
            self.utilization_floor.to_bits(),
            self.max_workloads,
            self.scale,
            PHYSICS_SALT ^ PLAN_SALT.rotate_left(13) ^ PHASE_SALT.rotate_left(29)
                ^ DEVICE_SALT.rotate_left(43) ^ RUN_SALT.rotate_left(53),
        )
    }

    /// Manufacturing seed of device `index` under `fleet_seed`.
    pub(crate) fn device_seed(&self, fleet_seed: u64, index: u32) -> u64 {
        mix64(fleet_seed ^ DEVICE_SALT, index as u64)
    }

    /// The generation device `index` belongs to. Vintages stripe across
    /// the index space so every shard holds a balanced mix.
    pub(crate) fn vintage_of(&self, index: u32) -> u32 {
        index % self.vintages
    }

    /// Geometry variant of a vintage. All variants keep the simulator's
    /// fixed 8-rank address space (`RANK_COUNT`) and vary the DIMM
    /// arrangement, capacity and row size — the axes field populations
    /// actually differ on.
    pub(crate) fn geometry_for(&self, vintage: u32) -> ServerGeometry {
        match vintage % 3 {
            0 => ServerGeometry::x_gene2(),
            1 => ServerGeometry {
                dimms: 2,
                ranks_per_dimm: 4,
                data_chips_per_dimm: 32,
                ecc_chips_per_dimm: 4,
                dimm_bytes: 16 << 30,
                row_bytes: 8 << 10,
            },
            _ => ServerGeometry {
                dimms: 8,
                ranks_per_dimm: 1,
                data_chips_per_dimm: 8,
                ecc_chips_per_dimm: 1,
                dimm_bytes: 4 << 30,
                row_bytes: 16 << 10,
            },
        }
    }

    /// Vintage-skewed, per-device-jittered physics. Newer generations
    /// (higher vintage index modulo 3) model denser process nodes: more
    /// weak cells, steeper temperature sensitivity and a larger
    /// uncorrectable-burst coefficient — the generation gap the
    /// cross-vintage transfer matrix exists to expose. On top of the
    /// generation skew each device draws ±20 % manufacturing jitter from
    /// its own seed stream.
    pub(crate) fn physics_for(&self, vintage: u32, device_seed: u64) -> ErrorPhysics {
        let mut physics = ErrorPhysics::calibrated();
        let generation = (vintage % 3) as usize;
        let gen_lambda = [1.0, 1.9, 3.4][generation];
        let gen_beta = [0.33, 0.31, 0.35][generation];
        let gen_burst = [1.0, 1.7, 2.8][generation];
        let jitter = |salt: u64| 0.8 + 0.4 * unit(mix64(device_seed, PHYSICS_SALT ^ salt));
        physics.lambda0_per_bit *= gen_lambda * jitter(1);
        physics.beta_per_c = gen_beta;
        physics.ue_burst_coeff *= gen_burst * jitter(2);
        physics
    }

    /// Manufactures device `index`: derived seed, vintage geometry,
    /// vintage-skewed jittered physics.
    pub fn manufacture(&self, fleet_seed: u64, index: u32) -> DramDevice {
        let seed = self.device_seed(fleet_seed, index);
        let vintage = self.vintage_of(index);
        DramDevice::with_parts(seed, self.geometry_for(vintage), self.physics_for(vintage, seed))
    }

    /// The field schedule of device `index` at `epoch`: workload pick,
    /// thermal-trace temperature (per-device base skew + seasonal sine +
    /// epoch jitter) and utilization draw, all from salted device streams.
    /// `workload_count` is the length of the profiled workload list the
    /// pick indexes into.
    ///
    /// The plan is a pure function of `(describe_prefix(), fleet_seed,
    /// index, epoch)` — nothing here may read [`FleetSpec::epochs`], or
    /// per-epoch slice artifacts would silently stop being reusable across
    /// epoch-count extensions (the seasonal sine therefore runs on the
    /// fixed [`SEASON_PERIOD_EPOCHS`] period, not the spec lifetime).
    pub(crate) fn epoch_plan(
        &self,
        fleet_seed: u64,
        index: u32,
        epoch: u32,
        workload_count: usize,
    ) -> EpochPlan {
        let seed = self.device_seed(fleet_seed, index);
        let draw = |salt: u64| unit(mix64(seed ^ PLAN_SALT, (epoch as u64) << 3 | salt));
        let base_skew = 10.0 * (unit(mix64(seed, PHASE_SALT ^ 1)) - 0.5);
        let phase = std::f64::consts::TAU * unit(mix64(seed, PHASE_SALT ^ 2));
        let season = std::f64::consts::TAU * epoch as f64 / SEASON_PERIOD_EPOCHS;
        let temp_c = (self.base_temp_c
            + base_skew / 2.0
            + self.temp_swing_c * (season + phase).sin()
            + 3.0 * (draw(1) - 0.5))
            .clamp(1.0, 109.0);
        let utilization =
            self.utilization_floor + (1.0 - self.utilization_floor) * draw(2);
        let workload = (draw(0) * workload_count as f64) as usize % workload_count.max(1);
        EpochPlan { workload, temp_c, utilization }
    }

    /// Device-index range of shard `shard` (contiguous blocks; the last
    /// shard absorbs the remainder).
    pub(crate) fn shard_range(&self, shard: u32) -> std::ops::Range<u32> {
        let per = self.devices.div_ceil(self.shards);
        let start = (shard * per).min(self.devices);
        let end = ((shard + 1) * per).min(self.devices);
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full spec: the key prefix plus the epoch count.
    fn describe(spec: &FleetSpec) -> String {
        format!("{};epochs={}", spec.describe_prefix(), spec.epochs)
    }

    #[test]
    fn test_default_validates() {
        assert!(FleetSpec::test_default().validate().is_ok());
    }

    #[test]
    fn shard_ranges_cover_every_device_exactly_once() {
        let mut spec = FleetSpec::test_default();
        spec.devices = 101;
        spec.shards = 7;
        let mut covered = Vec::new();
        for s in 0..spec.shards {
            covered.extend(spec.shard_range(s));
        }
        assert_eq!(covered, (0..101).collect::<Vec<_>>());
    }

    #[test]
    fn devices_are_heterogeneous_and_deterministic() {
        let spec = FleetSpec::test_default();
        let a = spec.manufacture(7, 3);
        let b = spec.manufacture(7, 3);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same device twice");
        let c = spec.manufacture(7, 4);
        assert_ne!(a.fingerprint(), c.fingerprint(), "distinct devices");
        // Distinct vintages get distinct geometries, same 8-rank space.
        let g0 = spec.geometry_for(0);
        let g1 = spec.geometry_for(1);
        assert_ne!(g0, g1);
        assert_eq!(g0.total_ranks(), g1.total_ranks());
    }

    #[test]
    fn epoch_plans_stay_in_modelled_ranges() {
        let spec = FleetSpec::test_default();
        for index in 0..64 {
            for epoch in 0..spec.epochs {
                let plan = spec.epoch_plan(11, index, epoch, 8);
                assert!(plan.workload < 8);
                assert!((1.0..=109.0).contains(&plan.temp_c), "{}", plan.temp_c);
                assert!(plan.utilization > 0.0 && plan.utilization <= 1.0);
            }
        }
    }

    #[test]
    fn describe_distinguishes_specs() {
        let fingerprint = |spec: &FleetSpec| wade_store::fingerprint64(&describe(spec));
        let a = FleetSpec::test_default();
        let mut b = a;
        b.devices += 1;
        assert_ne!(describe(&a), describe(&b));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn epoch_extension_preserves_the_prefix_and_every_planned_epoch() {
        // The slice-reuse contract: specs differing only in epoch count
        // share the key prefix, and every epoch inside the shorter span is
        // planned identically — otherwise slice boundaries would not be
        // replay points and extensions could never load the prefix warm.
        let a = FleetSpec::test_default();
        let mut b = a;
        b.epochs += 4;
        assert_eq!(a.describe_prefix(), b.describe_prefix());
        assert_ne!(describe(&a), describe(&b), "the full spec still keys the epoch count");
        for index in 0..16 {
            for epoch in 0..a.epochs {
                assert_eq!(
                    a.epoch_plan(7, index, epoch, 8),
                    b.epoch_plan(7, index, epoch, 8),
                    "device {index} epoch {epoch} re-planned under extension"
                );
            }
        }
    }
}
