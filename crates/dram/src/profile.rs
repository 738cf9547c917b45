//! The compact workload-to-DRAM coupling profile.

use serde::{Deserialize, Serialize};

/// Number of interpolation points in [`ReuseQuantiles`].
const QUANTILE_POINTS: usize = 16;

/// Compact quantile representation of a workload's per-word reuse-time
/// distribution *in seconds at deployment scale*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReuseQuantiles {
    /// `values[i]` = reuse time (s) at quantile `(i + 0.5) / 16`.
    values: Vec<f64>,
}

impl ReuseQuantiles {
    /// Builds from exactly [`struct@ReuseQuantiles`]' 16 ascending quantile
    /// values.
    ///
    /// # Panics
    /// Panics if `values` is not 16 ascending non-negative numbers.
    pub fn new(values: Vec<f64>) -> Self {
        assert_eq!(values.len(), QUANTILE_POINTS, "need {QUANTILE_POINTS} quantiles");
        assert!(values.windows(2).all(|w| w[0] <= w[1]), "quantiles must ascend");
        assert!(values.iter().all(|&v| v >= 0.0), "reuse times must be non-negative");
        Self { values }
    }

    /// A degenerate distribution: every word reused every `t` seconds.
    pub(crate) fn constant(t: f64) -> Self {
        Self { values: vec![t; QUANTILE_POINTS] }
    }

    /// Samples a reuse time by inverse-CDF lookup at `u ∈ [0,1)`.
    pub(crate) fn sample_at(&self, u: f64) -> f64 {
        let idx = ((u.clamp(0.0, 0.999_999) * QUANTILE_POINTS as f64) as usize)
            .min(QUANTILE_POINTS - 1);
        self.values[idx]
    }

    /// Mean of the quantile values (≈ distribution mean).
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / QUANTILE_POINTS as f64
    }
}

/// Everything the DRAM error simulator needs to know about a running
/// workload. Built by the data-collection layer from the instrumentation
/// (`wade_trace::TraceReport`) and SoC counters, extrapolated to
/// deployment scale (the paper allocates 8 GB per benchmark).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramUsageProfile {
    /// Allocated footprint in 64-bit words (8 GB → 2³⁰).
    pub footprint_words: u64,
    /// DRAM read-command rate (Hz) — accesses that actually reach memory.
    pub dram_read_rate_hz: f64,
    /// DRAM write-command rate (Hz).
    pub dram_write_rate_hz: f64,
    /// Row-activation rate (Hz) — drives disturbance.
    pub row_activation_rate_hz: f64,
    /// Fraction of program-level accesses that reach DRAM (cache filter).
    pub dram_filter: f64,
    /// Per-word reuse-time distribution at deployment scale (s).
    pub reuse: ReuseQuantiles,
    /// Fraction of words never re-referenced after initialisation.
    pub never_reused_fraction: f64,
    /// Stored-bit one-density (0.5 = random data).
    pub one_density: f64,
    /// Data-pattern entropy `H_DP` in bits (0..=32).
    pub entropy_bits: f64,
    /// Normalised spatial access shares over 64 equal regions.
    pub region_shares: Vec<f64>,
}

impl DramUsageProfile {
    /// A synthetic profile with uniform spatial access, random data and
    /// moderate rates — handy for tests and examples.
    pub fn uniform_synthetic(footprint_words: u64) -> Self {
        Self {
            footprint_words,
            dram_read_rate_hz: 2.0e6,
            dram_write_rate_hz: 1.0e6,
            row_activation_rate_hz: 1.5e6,
            dram_filter: 0.3,
            reuse: ReuseQuantiles::constant(5.0),
            never_reused_fraction: 0.3,
            one_density: 0.5,
            entropy_bits: 28.0,
            region_shares: vec![1.0 / 64.0; 64],
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.footprint_words == 0 {
            return Err("footprint must be non-empty".into());
        }
        if self.region_shares.len() != 64 {
            return Err(format!("expected 64 region shares, got {}", self.region_shares.len()));
        }
        let share_sum: f64 = self.region_shares.iter().sum();
        if share_sum > 0.0 && (share_sum - 1.0).abs() > 1e-6 {
            return Err(format!("region shares sum to {share_sum}, expected 1"));
        }
        if !(0.0..=1.0).contains(&self.never_reused_fraction) {
            return Err("never_reused_fraction out of [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.one_density) {
            return Err("one_density out of [0,1]".into());
        }
        if !(0.0..=32.0).contains(&self.entropy_bits) {
            return Err("entropy_bits out of [0,32]".into());
        }
        if !(0.0..=1.0).contains(&self.dram_filter) {
            return Err("dram_filter out of [0,1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_profile_is_valid() {
        assert!(DramUsageProfile::uniform_synthetic(1 << 20).validate().is_ok());
    }

    #[test]
    fn quantile_sampling_interpolates() {
        let q = ReuseQuantiles::new((0..16).map(|i| i as f64).collect());
        assert_eq!(q.sample_at(0.0), 0.0);
        assert_eq!(q.sample_at(0.99), 15.0);
        assert_eq!(q.sample_at(0.5), 8.0);
        assert!((q.mean() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn constant_quantiles() {
        let q = ReuseQuantiles::constant(3.5);
        for i in 0..10 {
            assert_eq!(q.sample_at(i as f64 / 10.0), 3.5);
        }
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn descending_quantiles_panic() {
        let mut v: Vec<f64> = (0..16).map(|i| i as f64).collect();
        v.swap(3, 4);
        ReuseQuantiles::new(v);
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        let mut p = DramUsageProfile::uniform_synthetic(1024);
        p.one_density = 1.5;
        assert!(p.validate().is_err());

        let mut p = DramUsageProfile::uniform_synthetic(1024);
        p.region_shares = vec![0.5; 2];
        assert!(p.validate().is_err());

        let mut p = DramUsageProfile::uniform_synthetic(1024);
        p.footprint_words = 0;
        assert!(p.validate().is_err());

        let mut p = DramUsageProfile::uniform_synthetic(1024);
        p.region_shares = vec![1.0; 64];
        assert!(p.validate().is_err());
    }
}
