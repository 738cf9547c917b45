//! Data-pattern entropy `H_DP` (paper eq. 5).

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// Estimates the Shannon entropy of the 32-bit values a program writes to
/// memory, following eq. 5 of the paper:
///
/// `H_DP = − Σ_i P(x_i) · log2 P(x_i)`, `P(x_i) = N_WR(x_i) / N_WR_total`
///
/// where the sum ranges over observed 32-bit write values. Each 64-bit store
/// contributes its two 32-bit halves, matching the paper's word sampling.
/// The estimator also tracks the stored-bit "one" density, which the DRAM
/// layer needs for true-/anti-cell vulnerability.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct EntropyEstimator {
    /// FxHash: two entry updates per store is the estimator's whole cost,
    /// and [`EntropyEstimator::entropy_bits`] accumulates over *sorted*
    /// counts, so the summary is independent of the hasher's iteration
    /// order (the swap from SipHash cannot move any seeded baseline).
    counts: FxHashMap<u32, u64>,
    samples: u64,
    one_bits: u64,
}

impl EntropyEstimator {
    /// Records one 64-bit stored value (sampled as two 32-bit words).
    pub(crate) fn record(&mut self, value: u64) {
        let lo = value as u32;
        let hi = (value >> 32) as u32;
        *self.counts.entry(lo).or_insert(0) += 1;
        *self.counts.entry(hi).or_insert(0) += 1;
        self.samples += 2;
        self.one_bits += value.count_ones() as u64;
    }

    /// `H_DP` in bits (0 ≤ H ≤ 32). Zero when nothing was recorded.
    pub(crate) fn entropy_bits(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let n = self.samples as f64;
        // Sum in sorted order: float addition is not associative, and the
        // hash map's iteration order would otherwise make reports
        // non-deterministic at the last ulp.
        let mut counts: Vec<u64> = self.counts.values().copied().collect();
        counts.sort_unstable();
        let mut h = 0.0;
        for c in counts {
            let p = c as f64 / n;
            h -= p * p.log2();
        }
        h
    }

    /// Fraction of stored bits equal to one (0.5 for random data, ~0 for
    /// zero-fill). Drives the true-/anti-cell vulnerability model.
    pub(crate) fn one_density(&self) -> f64 {
        if self.samples == 0 {
            return 0.5;
        }
        self.one_bits as f64 / (self.samples as f64 * 32.0)
    }

    /// Number of distinct 32-bit values observed.
    pub(crate) fn distinct_values(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimator_is_neutral() {
        let e = EntropyEstimator::default();
        assert_eq!(e.entropy_bits(), 0.0);
        assert_eq!(e.one_density(), 0.5);
    }

    #[test]
    fn constant_data_has_zero_entropy() {
        let mut e = EntropyEstimator::default();
        for _ in 0..100 {
            e.record(0);
        }
        assert_eq!(e.entropy_bits(), 0.0);
        assert_eq!(e.one_density(), 0.0);
    }

    #[test]
    fn two_equiprobable_values_give_one_bit() {
        let mut e = EntropyEstimator::default();
        for i in 0..100u64 {
            // Both halves identical per store; alternate between two values.
            let v = if i % 2 == 0 { 0 } else { 0xFFFF_FFFF_FFFF_FFFF };
            e.record(v);
        }
        assert!((e.entropy_bits() - 1.0).abs() < 1e-9);
        assert!((e.one_density() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distinct_values_increase_entropy() {
        let mut low = EntropyEstimator::default();
        let mut high = EntropyEstimator::default();
        for i in 0..1000u64 {
            low.record(i % 4);
            high.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        assert!(high.entropy_bits() > low.entropy_bits());
        assert!(high.distinct_values() > low.distinct_values());
    }

    #[test]
    fn all_ones_density() {
        let mut e = EntropyEstimator::default();
        e.record(u64::MAX);
        assert_eq!(e.one_density(), 1.0);
    }
}
