//! Region-level access accounting.
//!
//! The DRAM error simulation needs to know *where* a workload concentrates
//! its accesses: a word that is re-read every few milliseconds is implicitly
//! refreshed, while a cold word relies entirely on auto-refresh. We split the
//! workload's address range into [`REGION_COUNT`] equal regions and count
//! accesses and distinct words per region.

use serde::{Deserialize, Serialize};

/// Number of address-space regions tracked per workload.
pub const REGION_COUNT: usize = 64;

/// Per-region usage summary.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub(crate) struct RegionUse {
    /// Accesses that fell into this region.
    pub accesses: u64,
    /// Writes among those accesses.
    pub writes: u64,
}

/// Counts accesses per address region; the region span adapts to the highest
/// address seen (power-of-two growth) so the counter needs no a-priori
/// footprint knowledge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RegionCounter {
    regions: Vec<RegionUse>,
    /// log2 of bytes per region.
    shift: u32,
}

impl RegionCounter {
    /// Creates a counter with an initial region span of 64 KiB.
    pub(crate) fn new() -> Self {
        Self { regions: vec![RegionUse::default(); REGION_COUNT], shift: 16 }
    }

    fn grow_to_cover(&mut self, addr: u64) {
        while (addr >> self.shift) as usize >= REGION_COUNT {
            // Double the region span, folding pairs of buckets together.
            let mut folded = vec![RegionUse::default(); REGION_COUNT];
            for (i, r) in self.regions.iter().enumerate() {
                folded[i / 2].accesses += r.accesses;
                folded[i / 2].writes += r.writes;
            }
            self.regions = folded;
            self.shift += 1;
        }
    }

    /// Records an access at byte address `addr`.
    pub(crate) fn record(&mut self, addr: u64, is_write: bool) {
        self.grow_to_cover(addr);
        let idx = (addr >> self.shift) as usize;
        self.regions[idx].accesses += 1;
        if is_write {
            self.regions[idx].writes += 1;
        }
    }

    /// Normalised access share per region (sums to 1 when any access was
    /// recorded). This is the spatial access distribution handed to the DRAM
    /// simulator.
    pub(crate) fn access_shares(&self) -> Vec<f64> {
        let total: u64 = self.regions.iter().map(|r| r.accesses).sum();
        if total == 0 {
            return vec![0.0; REGION_COUNT];
        }
        self.regions.iter().map(|r| r.accesses as f64 / total as f64).collect()
    }

    /// Shannon entropy (bits) of the spatial access distribution; a
    /// uniform sweep approaches `log2(REGION_COUNT)`, a hot-spot workload
    /// approaches zero. Exported as a program feature.
    pub(crate) fn spatial_entropy(&self) -> f64 {
        self.access_shares()
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.log2())
            .sum()
    }
}

impl Default for RegionCounter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_regions() {
        let mut c = RegionCounter::new();
        c.record(0, false);
        c.record(65536, true);
        assert_eq!(c.regions[0].accesses, 1);
        assert_eq!(c.regions[1].accesses, 1);
        assert_eq!(c.regions[1].writes, 1);
    }

    #[test]
    fn growth_preserves_totals() {
        let mut c = RegionCounter::new();
        for i in 0..1000u64 {
            c.record(i * 4096, i % 3 == 0);
        }
        // Force growth far beyond the initial span.
        c.record(1 << 30, false);
        let total: u64 = c.regions.iter().map(|r| r.accesses).sum();
        assert_eq!(total, 1001);
    }

    #[test]
    fn shares_sum_to_one() {
        let mut c = RegionCounter::new();
        for i in 0..512u64 {
            c.record(i * 100_000, false);
        }
        let sum: f64 = c.access_shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_spread_maximises_entropy() {
        let mut uniform = RegionCounter::new();
        let mut hot = RegionCounter::new();
        for i in 0..(REGION_COUNT as u64 * 16) {
            uniform.record(i * 65536 % (REGION_COUNT as u64 * 65536), false);
            hot.record(0, false);
        }
        assert!(uniform.spatial_entropy() > 4.0);
        assert_eq!(hot.spatial_entropy(), 0.0);
    }

    #[test]
    fn empty_counter_entropy_zero() {
        assert_eq!(RegionCounter::new().spatial_entropy(), 0.0);
    }
}
