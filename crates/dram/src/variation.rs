//! Rank-to-rank manufacturing variation (§II-D).

use crate::config::ErrorPhysics;
use crate::geometry::RANK_COUNT;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// Per-rank reliability multipliers, fixed at "manufacturing time" by the
/// device seed.
///
/// The paper finds WER varying up to 188× across DIMM/rank pairs (Fig. 8)
/// and UEs concentrating on two ranks (Fig. 9b). Both are reproduced by
/// giving each rank a log-normal weak-cell density multiplier: pair-collision
/// UEs scale with the *square* of the density, so UE probability
/// concentrates on the weakest ranks automatically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankVariation {
    factors: [f64; RANK_COUNT],
}

impl RankVariation {
    /// Draws per-rank factors from `LogNormal(0, σ)`, normalised so their
    /// mean is 1 (keeping the server-average WER calibrated).
    pub(crate) fn from_seed(seed: u64, physics: &ErrorPhysics) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ RANK_SEED_SALT);
        let dist = LogNormal::new(0.0, physics.rank_sigma).expect("valid sigma");
        let mut factors = [0.0; RANK_COUNT];
        for f in &mut factors {
            *f = dist.sample(&mut rng);
        }
        let mean: f64 = factors.iter().sum::<f64>() / RANK_COUNT as f64;
        for f in &mut factors {
            *f /= mean;
        }
        Self { factors }
    }

    /// The weak-cell density multiplier of rank `index` (`0..8`).
    pub(crate) fn factor(&self, index: usize) -> f64 {
        self.factors[index]
    }

    /// All factors in rank order.
    pub fn factors(&self) -> &[f64; RANK_COUNT] {
        &self.factors
    }

    /// Max/min factor ratio — the headline "188×" spread.
    pub fn spread(&self) -> f64 {
        let max = self.factors.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.factors.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    }
}

/// Domain-separation salt so rank factors decorrelate from other uses of the
/// device seed.
const RANK_SEED_SALT: u64 = 0x5EED_0F0F_7A6B_C01D;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_deterministic_per_seed() {
        let p = ErrorPhysics::calibrated();
        assert_eq!(RankVariation::from_seed(3, &p), RankVariation::from_seed(3, &p));
        assert_ne!(RankVariation::from_seed(3, &p), RankVariation::from_seed(4, &p));
    }

    #[test]
    fn factors_average_to_one() {
        let p = ErrorPhysics::calibrated();
        let v = RankVariation::from_seed(11, &p);
        let mean: f64 = v.factors().iter().sum::<f64>() / RANK_COUNT as f64;
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn typical_spread_is_large() {
        let p = ErrorPhysics::calibrated();
        // Median spread across many devices should be in the paper's decade.
        let mut spreads: Vec<f64> = (0..200).map(|s| RankVariation::from_seed(s, &p).spread()).collect();
        spreads.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = spreads[spreads.len() / 2];
        assert!(median > 30.0 && median < 10_000.0, "median spread {median}");
    }

    #[test]
    fn all_factors_positive() {
        let p = ErrorPhysics::calibrated();
        for seed in 0..50 {
            for &f in RankVariation::from_seed(seed, &p).factors() {
                assert!(f > 0.0);
            }
        }
    }
}
