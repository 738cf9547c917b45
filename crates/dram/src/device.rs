//! The simulated DRAM device (one server's worth of DIMMs).

use crate::config::ErrorPhysics;
use crate::geometry::ServerGeometry;
use crate::retention::RetentionLaw;
use crate::variation::RankVariation;
use serde::{Deserialize, Serialize};

/// One manufactured device instance: geometry + physics + the per-rank
/// variation frozen at "manufacturing time" by the seed.
///
/// Different seeds model different servers; the paper's per-DIMM models are
/// trained per rank of a fixed device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramDevice {
    seed: u64,
    geometry: ServerGeometry,
    physics: ErrorPhysics,
    variation: RankVariation,
}

impl DramDevice {
    /// Manufactures a device from a seed with the calibrated physics and
    /// X-Gene2 geometry.
    pub fn with_seed(seed: u64) -> Self {
        Self::with_parts(seed, ServerGeometry::x_gene2(), ErrorPhysics::calibrated())
    }

    /// Manufactures a device with explicit geometry and physics (used by
    /// ablations and tests).
    pub fn with_parts(seed: u64, geometry: ServerGeometry, physics: ErrorPhysics) -> Self {
        let variation = RankVariation::from_seed(seed, &physics);
        Self { seed, geometry, physics, variation }
    }

    /// The manufacturing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The server geometry.
    pub fn geometry(&self) -> &ServerGeometry {
        &self.geometry
    }

    /// The physics constants in force.
    pub fn physics(&self) -> &ErrorPhysics {
        &self.physics
    }

    /// The frozen per-rank variation.
    pub fn variation(&self) -> &RankVariation {
        &self.variation
    }

    /// The retention sampling law implied by the physics.
    pub fn retention_law(&self) -> RetentionLaw {
        RetentionLaw::from_physics(&self.physics)
    }

    /// Order-stable fingerprint of everything that determines this device's
    /// simulated populations and runs: the manufacturing seed, the geometry
    /// and physics, and the simulator's determinism contract (segment
    /// count, PRNG, stream domains — see `sim`'s module docs, which are
    /// normative). Disk-store keys for campaign data fold this in, so a
    /// re-baselining event (which re-manufactures every device) turns
    /// persisted artifacts into misses instead of stale hits.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut hasher = rustc_hash::FxHasher::default();
        hasher.write_u64(crate::sim::determinism_fingerprint());
        hasher.write_u64(self.seed);
        let parts = serde_json::to_string(&(&self.geometry, &self.physics))
            .expect("geometry/physics serialize");
        hasher.write(parts.as_bytes());
        hasher.finish()
    }

    /// Expected number of weak cells within the retention window on rank
    /// `rank_index` for a footprint of `footprint_words` interleaved words,
    /// at the given temperature and voltage.
    pub fn expected_weak_cells(
        &self,
        rank_index: usize,
        footprint_words: u64,
        temp_c: f64,
        vdd_v: f64,
    ) -> f64 {
        let words_on_rank = footprint_words as f64 / self.geometry.total_ranks() as f64;
        let bits = words_on_rank * 72.0;
        self.physics.weak_density(temp_c, vdd_v) * self.variation.factor(rank_index) * bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_are_reproducible() {
        assert_eq!(DramDevice::with_seed(9), DramDevice::with_seed(9));
        assert_ne!(
            DramDevice::with_seed(9).variation().factors(),
            DramDevice::with_seed(10).variation().factors()
        );
    }

    #[test]
    fn fingerprint_is_stable_and_separates_manufacturing_inputs() {
        let a = DramDevice::with_seed(1);
        assert_eq!(a.fingerprint(), DramDevice::with_seed(1).fingerprint());
        assert_ne!(a.fingerprint(), DramDevice::with_seed(2).fingerprint());
        // Geometry/physics enter the fingerprint too, not just the seed.
        let mut geometry = ServerGeometry::x_gene2();
        geometry.dimms += 1;
        let grown = DramDevice::with_parts(1, geometry, ErrorPhysics::calibrated());
        assert_ne!(a.fingerprint(), grown.fingerprint());
    }

    #[test]
    fn weak_cell_expectation_scales_with_footprint() {
        let d = DramDevice::with_seed(1);
        let small = d.expected_weak_cells(0, 1 << 20, 50.0, 1.428);
        let large = d.expected_weak_cells(0, 1 << 24, 50.0, 1.428);
        assert!((large / small - 16.0).abs() < 1e-9);
    }

    #[test]
    fn weak_cell_expectation_scales_with_rank_factor() {
        let d = DramDevice::with_seed(2);
        let base = 1 << 26;
        let e0 = d.expected_weak_cells(0, base, 60.0, 1.428);
        let e1 = d.expected_weak_cells(1, base, 60.0, 1.428);
        let f0 = d.variation().factor(0);
        let f1 = d.variation().factor(1);
        assert!(((e0 / e1) - (f0 / f1)).abs() < 1e-9);
    }

    #[test]
    fn hotter_is_weaker() {
        let d = DramDevice::with_seed(3);
        assert!(
            d.expected_weak_cells(0, 1 << 26, 70.0, 1.428)
                > 100.0 * d.expected_weak_cells(0, 1 << 26, 50.0, 1.428)
        );
    }
}
