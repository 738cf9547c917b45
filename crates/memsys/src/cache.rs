//! Set-associative, write-back, write-allocate cache with LRU replacement.

use serde::{Deserialize, Serialize};

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Cache-line size in bytes.
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways/line, capacity not a
    /// multiple of `ways × line_bytes`, or a non-power-of-two set count).
    pub(crate) fn sets(&self) -> u64 {
        assert!(self.ways > 0 && self.line_bytes > 0, "degenerate cache geometry");
        let way_bytes = self.ways as u64 * self.line_bytes as u64;
        assert!(
            self.capacity_bytes.is_multiple_of(way_bytes),
            "capacity {} not a multiple of ways×line {}",
            self.capacity_bytes,
            way_bytes
        );
        let sets = self.capacity_bytes / way_bytes;
        assert!(sets.is_power_of_two(), "set count {sets} must be a power of two");
        sets
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessResult {
    /// The line was present.
    Hit,
    /// The line was filled; if a dirty victim was evicted its line-aligned
    /// byte address is reported so callers can forward the writeback.
    Miss {
        /// Dirty victim evicted by this fill, if any.
        writeback: Option<u64>,
    },
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// A single cache level.
///
/// The model tracks tags, dirtiness and LRU age only — no data payload, as
/// the simulator never needs stored bytes (values flow through
/// [`wade_trace`] instead).
#[derive(Debug, Clone)]
pub(crate) struct Cache {
    config: CacheConfig,
    sets: u64,
    set_shift: u32,
    lines: Vec<Line>,
    clock: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    pub(crate) fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            config,
            sets,
            set_shift: config.line_bytes.trailing_zeros(),
            lines: vec![Line::default(); (sets * config.ways as u64) as usize],
            clock: 0,
        }
    }

    fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.set_shift) & (self.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> (self.set_shift + self.sets.trailing_zeros())
    }

    /// Accesses `addr`; `is_write` marks the line dirty on hit/fill.
    pub(crate) fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        self.clock += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = (set * self.config.ways as u64) as usize;
        let ways = self.config.ways as usize;

        for way in 0..ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.lru = self.clock;
                line.dirty |= is_write;
                return AccessResult::Hit;
            }
        }

        // Victim: invalid line first, else LRU.
        let mut victim = 0usize;
        let mut oldest = u64::MAX;
        for way in 0..ways {
            let line = &self.lines[base + way];
            if !line.valid {
                victim = way;
                break;
            }
            if line.lru < oldest {
                oldest = line.lru;
                victim = way;
            }
        }
        let line = &mut self.lines[base + victim];
        let writeback = if line.valid && line.dirty {
            // Reconstruct the victim's line address.
            let victim_addr =
                (line.tag << (self.set_shift + self.sets.trailing_zeros())) | (set << self.set_shift);
            Some(victim_addr)
        } else {
            None
        };
        *line = Line { tag, valid: true, dirty: is_write, lru: self.clock };
        AccessResult::Miss { writeback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(CacheConfig { capacity_bytes: 512, ways: 2, line_bytes: 64 })
    }

    fn is_hit(result: AccessResult) -> bool {
        matches!(result, AccessResult::Hit)
    }

    /// Reads `addrs` in order; returns the share that missed.
    fn miss_rate(c: &mut Cache, addrs: impl IntoIterator<Item = u64>) -> f64 {
        let results: Vec<bool> = addrs.into_iter().map(|a| is_hit(c.access(a, false))).collect();
        results.iter().filter(|&&hit| !hit).count() as f64 / results.len() as f64
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!is_hit(c.access(0, false)));
        assert!(is_hit(c.access(0, false)));
        assert!(is_hit(c.access(63, false)), "same line");
        assert!(!is_hit(c.access(64, false)), "next line");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Set 0 holds lines with addr bits [8..] as tag; 4 sets × 64 B.
        let a = 0u64; // set 0
        let b = 4 * 64; // set 0, different tag
        let d = 8 * 64; // set 0, third tag
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // refresh a
        c.access(d, false); // evicts b
        assert!(is_hit(c.access(a, false)));
        assert!(!is_hit(c.access(b, false)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        // A dirty line in set 0, a clean one beside it, then a third fill.
        let results = [c.access(0, true), c.access(4 * 64, false), c.access(8 * 64, false)];
        match &results[2] {
            AccessResult::Miss { writeback: Some(addr) } => assert_eq!(*addr, 0),
            other => panic!("expected writeback of line 0, got {other:?}"),
        }
        let writebacks =
            results.iter().filter(|r| matches!(r, AccessResult::Miss { writeback: Some(_) }));
        assert_eq!(writebacks.count(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(4 * 64, false);
        match c.access(8 * 64, false) {
            AccessResult::Miss { writeback } => assert!(writeback.is_none()),
            AccessResult::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn miss_rate_tracks_ratio() {
        let mut c = tiny();
        assert!((miss_rate(&mut c, [0; 4]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny();
        // 64 distinct lines (4 KiB) in a 512 B cache, repeated sweeps: LRU on
        // a sweep pattern yields ~100 % misses.
        let sweeps = (0..4).flat_map(|_| (0..64u64).map(|i| i * 64));
        assert!(miss_rate(&mut c, sweeps) > 0.95);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig { capacity_bytes: 768, ways: 2, line_bytes: 64 }).access(0, false);
    }
}
