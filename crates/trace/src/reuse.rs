//! Reuse-distance tracking (the `D_reuse` of eq. 4).

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// Number of logarithmic reuse-distance buckets (bucket `i` holds distances
/// in `[2^i, 2^(i+1))` instructions; bucket 0 holds `{0, 1}`).
pub(crate) const REUSE_BUCKETS: usize = 48;

/// Log2-bucketed histogram of reuse distances, in instructions.
///
/// The DRAM simulator consumes this to decide which fraction of a footprint
/// is implicitly refreshed faster than a candidate refresh period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReuseHistogram {
    counts: Vec<u64>,
}

impl ReuseHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Self { counts: vec![0; REUSE_BUCKETS] }
    }

    /// Records one reuse distance (in instructions).
    pub(crate) fn record(&mut self, distance: u64) {
        let bucket = (64 - distance.leading_zeros()).saturating_sub(1) as usize;
        let bucket = bucket.min(REUSE_BUCKETS - 1);
        self.counts[bucket] += 1;
    }

    /// Total recorded reuses.
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The q-th quantile (0..=1) of the distribution, in instructions
    /// (geometric-midpoint approximation).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return 2f64.powi(i as i32) * 1.5;
            }
        }
        2f64.powi(REUSE_BUCKETS as i32 - 1) * 1.5
    }
}

impl Default for ReuseHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Tracks, per 64-bit word, the instruction index of the last reference and
/// accumulates reuse-distance statistics over an execution.
#[derive(Debug)]
pub(crate) struct ReuseTracker {
    /// word → (last touch instruction, has been re-referenced at least
    /// once). FxHash: keys are word indices the kernels generated
    /// themselves, so the SipHash DoS guarantee buys nothing on this
    /// one-lookup-per-access path.
    last_touch: FxHashMap<u64, (u64, bool)>,
    histogram: ReuseHistogram,
    sum_distance: f64,
    reuse_count: u64,
    reused_words: u64,
}

impl Default for ReuseTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl ReuseTracker {
    /// An empty tracker, pre-sized so typical mini-kernel footprints
    /// (tens of thousands of words) avoid the early rehash cascade.
    /// (`Default` — what `Tracer::new` reaches through — builds this too.)
    pub(crate) fn new() -> Self {
        Self {
            last_touch: FxHashMap::with_capacity_and_hasher(1 << 15, Default::default()),
            histogram: ReuseHistogram::new(),
            sum_distance: 0.0,
            reuse_count: 0,
            reused_words: 0,
        }
    }

    /// Records a reference to `word` at instruction index `instr_now`,
    /// returning the reuse distance if the word was seen before.
    pub(crate) fn touch(&mut self, word: u64, instr_now: u64) -> Option<u64> {
        // One entry lookup for both the first-touch and the re-reference
        // case (the old insert-then-insert cost two hashes per new word).
        match self.last_touch.entry(word) {
            Entry::Occupied(mut slot) => {
                let (prev, was_reused) = *slot.get();
                slot.insert((instr_now, true));
                if !was_reused {
                    self.reused_words += 1;
                }
                let d = instr_now.saturating_sub(prev);
                self.histogram.record(d);
                self.sum_distance += d as f64;
                self.reuse_count += 1;
                Some(d)
            }
            Entry::Vacant(slot) => {
                // First touch: mark as not-yet-reused.
                slot.insert((instr_now, false));
                None
            }
        }
    }

    /// Number of distinct words referenced so far.
    pub(crate) fn unique_words(&self) -> u64 {
        self.last_touch.len() as u64
    }

    /// Mean reuse distance in instructions (`D_reuse` averaged over all
    /// re-references, as in eq. 4's outer average). Zero if nothing reused.
    pub(crate) fn mean_distance(&self) -> f64 {
        if self.reuse_count == 0 {
            0.0
        } else {
            self.sum_distance / self.reuse_count as f64
        }
    }

    /// Fraction of referenced words that were *never* re-referenced; these
    /// words see no implicit refresh at all.
    pub(crate) fn never_reused_fraction(&self) -> f64 {
        let unique = self.unique_words();
        if unique == 0 {
            return 0.0;
        }
        1.0 - self.reused_words as f64 / unique as f64
    }

    /// The accumulated reuse-distance histogram.
    pub(crate) fn histogram(&self) -> &ReuseHistogram {
        &self.histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of reuses with distance strictly below `threshold`
    /// instructions (bucket-resolution approximation: a bucket is counted
    /// when its geometric midpoint is below the threshold).
    fn fraction_below(h: &ReuseHistogram, threshold: f64) -> f64 {
        let total = h.total();
        if total == 0 {
            return 0.0;
        }
        let mut below = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            let midpoint = 2f64.powi(i as i32) * 1.5;
            if midpoint < threshold {
                below += c;
            }
        }
        below as f64 / total as f64
    }

    #[test]
    fn first_touch_has_no_distance() {
        let mut t = ReuseTracker::new();
        assert_eq!(t.touch(5, 100), None);
        assert_eq!(t.unique_words(), 1);
        assert_eq!(t.mean_distance(), 0.0);
    }

    #[test]
    fn distance_counts_intervening_instructions() {
        let mut t = ReuseTracker::new();
        t.touch(5, 100);
        assert_eq!(t.touch(5, 150), Some(50));
        assert_eq!(t.mean_distance(), 50.0);
        assert_eq!(t.reuse_count, 1);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = ReuseHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.counts[0], 2); // 0 and 1
        assert_eq!(h.counts[1], 2); // 2 and 3
        assert_eq!(h.counts[10], 1); // 1024
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn fraction_below_splits_distribution() {
        let mut h = ReuseHistogram::new();
        for _ in 0..90 {
            h.record(8);
        }
        for _ in 0..10 {
            h.record(1 << 20);
        }
        let f = fraction_below(&h, 1000.0);
        assert!((f - 0.9).abs() < 1e-9, "{f}");
    }

    #[test]
    fn quantile_is_monotone() {
        let mut h = ReuseHistogram::new();
        for d in [4u64, 16, 64, 256, 1024, 4096] {
            for _ in 0..10 {
                h.record(d);
            }
        }
        assert!(h.quantile(0.1) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.9));
    }

    #[test]
    fn never_reused_fraction_bounds() {
        let mut t = ReuseTracker::new();
        for w in 0..10 {
            t.touch(w, w * 10);
        }
        assert_eq!(t.never_reused_fraction(), 1.0);
        for w in 0..5 {
            t.touch(w, 1000 + w * 10);
        }
        assert!((t.never_reused_fraction() - 0.5).abs() < 1e-9);
    }
}
