//! The retention-time tail law.

use crate::config::ErrorPhysics;
use serde::{Deserialize, Serialize};

/// Samples retention times for weak cells.
///
/// The model: within the tracked window `[0, W]` (where
/// `W = retention_window_s`), the CDF of cell retention times follows
/// `P(retention < t) ∝ exp(alpha·t)` — the empirical consequence is the
/// paper's observation that WER grows exponentially with `TREFP`
/// (Fig. 7f). Sampling uses exact inverse-CDF transformation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionLaw {
    /// Tail slope (1/s).
    pub alpha_per_s: f64,
    /// Window upper bound (s).
    pub window_s: f64,
}

impl RetentionLaw {
    /// Builds the law from the physics constants.
    pub fn from_physics(physics: &ErrorPhysics) -> Self {
        Self { alpha_per_s: physics.alpha_per_s, window_s: physics.retention_window_s }
    }

    /// Fraction of window-weak cells whose retention is below `t` seconds.
    pub fn fraction_below(&self, t: f64) -> f64 {
        if t >= self.window_s {
            1.0
        } else {
            (self.alpha_per_s * (t - self.window_s)).exp()
        }
    }

    /// Inverse of [`RetentionLaw::fraction_below`]: the retention time at
    /// population quantile `q ∈ (0, 1]` — `t = W + ln(q)/alpha`. This is
    /// what lets the simulator realize weak cells *ordered by retention*
    /// and skip the `1 − fraction_below` tail of the population outright.
    pub fn retention_at_fraction(&self, q: f64) -> f64 {
        self.window_s + q.max(f64::MIN_POSITIVE).ln() / self.alpha_per_s
    }

    /// A quantile bracket `(lo, hi)` that decides the refresh-gate test
    /// `retention_at_fraction(q) * coupling < t` without the `ln`: the
    /// test holds for every `q < lo` and fails for every `q ≥ hi`, so only
    /// `q` in `[lo, hi)` needs the exact comparison.
    ///
    /// The edges are the quantiles of the threshold retention `t /
    /// coupling` moved by a margin of 10⁻⁹ × (`|W|` + `|t / coupling|` +
    /// `1/alpha`) seconds either way. The rounding of the exact test (the
    /// `ln`, the division, the sum and the product) and of the edges
    /// themselves stays below 10⁻¹⁵ of that sum, so on each side of the
    /// bracket the test's outcome is that of the exact arithmetic, which
    /// is monotone in `q`. Where that argument does not apply — a
    /// non-positive or non-finite coupling, threshold or law — the bracket
    /// is `(0, ∞)` and decides nothing.
    pub fn quantile_bracket(&self, coupling: f64, t: f64) -> (f64, f64) {
        let (w, alpha) = (self.window_s, self.alpha_per_s);
        let threshold = t / coupling;
        let monotone = coupling > 0.0 && alpha > 0.0 && alpha.is_finite() && w.is_finite();
        if !monotone || !threshold.is_finite() {
            return (0.0, f64::INFINITY);
        }
        let margin = 1e-9 * (w.abs() + threshold.abs() + 1.0 / alpha);
        let lo = (alpha * (threshold - margin - w)).exp();
        let hi = (alpha * (threshold + margin - w)).exp();
        // Below `MIN_POSITIVE`, `retention_at_fraction` clamps `q` up, so a
        // subnormal `lo` would not bound the clamped quantiles under it.
        (if lo < f64::MIN_POSITIVE { 0.0 } else { lo }, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn law() -> RetentionLaw {
        RetentionLaw::from_physics(&ErrorPhysics::calibrated())
    }

    /// One retention time by inverse CDF: with `u ~ U(0,1)`,
    /// `r = W + ln(u)/alpha` satisfies `P(r < t) = exp(alpha·(t − W))`.
    fn sample(law: &RetentionLaw, rng: &mut StdRng) -> f64 {
        law.retention_at_fraction(rng.gen_range(f64::MIN_POSITIVE..1.0))
    }

    #[test]
    fn samples_stay_below_window() {
        let law = law();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(sample(&law, &mut rng) <= law.window_s);
        }
    }

    #[test]
    fn empirical_cdf_matches_exponential_tail() {
        let law = law();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let t = 1.5;
        let below = (0..n).filter(|_| sample(&law, &mut rng) < t).count();
        let expected = law.fraction_below(t);
        let got = below as f64 / n as f64;
        assert!(
            (got - expected).abs() < 0.01,
            "empirical {got} vs analytic {expected}"
        );
    }

    #[test]
    fn fraction_below_is_monotone_and_bounded() {
        let law = law();
        let mut prev = 0.0;
        for i in 0..30 {
            let t = i as f64 * 0.1;
            let f = law.fraction_below(t);
            assert!(f >= prev);
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        assert_eq!(law.fraction_below(10.0), 1.0);
    }

    #[test]
    fn shorter_refresh_catches_exponentially_fewer_cells() {
        let law = law();
        let r1 = law.fraction_below(0.618);
        let r2 = law.fraction_below(1.173);
        let r3 = law.fraction_below(1.727);
        // Equal TREFP steps → equal multiplicative WER steps.
        let ratio_a = r2 / r1;
        let ratio_b = r3 / r2;
        assert!((ratio_a / ratio_b - 1.0).abs() < 0.05);
        assert!(ratio_a > 5.0, "growth per 0.555 s step: {ratio_a}");
    }
}
