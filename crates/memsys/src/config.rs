//! SoC configuration (defaults model the X-Gene2 used in the paper).

use crate::cache::CacheConfig;
use serde::{Deserialize, Serialize};

/// Full SoC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SocConfig {
    /// Number of cores (the X-Gene2 has 8).
    pub cores: usize,
    /// Core clock in Hz (2.4 GHz on the X-Gene2).
    pub clock_hz: f64,
    /// Private L1 data cache per core.
    pub l1d: CacheConfig,
    /// L2 cache shared by each two-core module (PMD).
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub l3: CacheConfig,
    /// Extra stall cycles for an L1 miss that hits L2.
    pub l2_latency: u64,
    /// Extra stall cycles for an L2 miss that hits L3.
    pub l3_latency: u64,
    /// Extra stall cycles for an L3 miss served by DRAM.
    pub dram_latency: u64,
    /// Fraction of a miss penalty actually exposed as stall on the in-order
    /// pipeline (models limited memory-level parallelism; 1.0 = fully
    /// exposed).
    pub stall_exposure: f64,
}

impl SocConfig {
    /// The X-Gene2-like default: 8 cores @ 2.4 GHz, 32 KiB L1D, 256 KiB L2
    /// per two-core PMD, 8 MiB shared L3, DDR3-1866 latencies.
    pub fn x_gene2() -> Self {
        Self {
            cores: 8,
            clock_hz: 2.4e9,
            l1d: CacheConfig { capacity_bytes: 32 << 10, ways: 8, line_bytes: 64 },
            l2: CacheConfig { capacity_bytes: 256 << 10, ways: 8, line_bytes: 64 },
            l3: CacheConfig { capacity_bytes: 8 << 20, ways: 16, line_bytes: 64 },
            l2_latency: 10,
            l3_latency: 35,
            dram_latency: 150,
            stall_exposure: 0.7,
        }
    }

    /// A scaled-down configuration for fast unit tests: same shape, tiny
    /// caches so misses are easy to provoke.
    #[cfg(test)]
    pub(crate) fn tiny_for_tests() -> Self {
        Self {
            l1d: CacheConfig { capacity_bytes: 1 << 10, ways: 2, line_bytes: 64 },
            l2: CacheConfig { capacity_bytes: 4 << 10, ways: 4, line_bytes: 64 },
            l3: CacheConfig { capacity_bytes: 16 << 10, ways: 4, line_bytes: 64 },
            ..Self::x_gene2()
        }
    }

    /// Number of two-core modules (PMDs) sharing an L2.
    pub(crate) fn pmds(&self) -> usize {
        self.cores.div_ceil(2)
    }
}

impl Default for SocConfig {
    fn default() -> Self {
        Self::x_gene2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_x_gene2() {
        let c = SocConfig::default();
        assert_eq!(c.cores, 8);
        assert_eq!(c.pmds(), 4);
        assert_eq!(c.l1d.sets(), 64);
    }

    #[test]
    fn tiny_config_is_valid() {
        let c = SocConfig::tiny_for_tests();
        assert!(c.l1d.sets() > 0);
        assert!(c.l2.sets() > 0);
        assert!(c.l3.sets() > 0);
    }
}
