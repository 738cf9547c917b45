//! Error-physics constants.
//!
//! Every constant of the statistical DRAM model lives here, with the
//! calibration rationale documented. Absolute values are calibrated so the
//! simulated server lands in the same WER/PUE decades as the paper's
//! device; the *relationships* (exponential slopes, workload couplings)
//! come from the mechanisms described in the paper's §II.

use serde::{Deserialize, Serialize};

/// Tunable constants of the DRAM error physics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorPhysics {
    /// Per-bit density of weak cells with retention below
    /// [`ErrorPhysics::retention_window_s`] at the reference condition
    /// (50 °C, lowered VDD). Calibrated so that an un-refreshed 8 GiB
    /// footprint at `TREFP = 2.283 s` / 50 °C shows `WER ≈ 2×10⁻⁷`
    /// (Fig. 7b's decade).
    pub lambda0_per_bit: f64,
    /// Exponential slope of the retention-time tail CDF (1/s): the number
    /// of cells with retention < t grows as `exp(alpha·t)`. Calibrated to
    /// Fig. 7f's growth of WER with `TREFP` (~5–10× per 0.55 s step).
    pub alpha_per_s: f64,
    /// Temperature acceleration (1/°C): weak-cell density scales as
    /// `exp(beta·(T−50))`. `beta = 0.33` gives ≈27× per 10 °C, matching the
    /// paper's 50→60 °C jump (Fig. 7b vs 7d) and the exponential
    /// retention-temperature law of §II-B.
    pub beta_per_c: f64,
    /// Voltage sensitivity: density scales as
    /// `exp(kappa·(VDD_nom−VDD)/VDD_nom)`. Small, because the paper found
    /// the 5 % VDD reduction alone caused almost no errors (§V).
    pub kappa_vdd: f64,
    /// Retention window (s) within which weak cells are tracked. Must
    /// exceed the largest refresh period of interest (2.283 s).
    pub retention_window_s: f64,
    /// Log-normal σ of per-rank weak-cell density multipliers. `σ = 1.9`
    /// yields max/min ratios in the 100–200× range over 8 ranks (the paper
    /// observed 188×, Fig. 8).
    pub rank_sigma: f64,
    /// Data-coupling strength: effective retention shrinks by up to this
    /// fraction at maximum data-pattern entropy (bit-line coupling grows
    /// with transition density, §II-C and the random-pattern micro).
    pub entropy_coupling: f64,
    /// Fraction of cells that are true-cells (store "1" as charge); the
    /// rest are anti-cells. Vendors mix orientations (§II-D).
    pub true_cell_fraction: f64,
    /// Expected *single-bit disturbance flips* per row activation at the
    /// 50 °C / 2.283 s reference point. Cell-to-cell interference grows
    /// with the row-activation rate — this additive error channel is what
    /// makes the memory access rate the paper's top-correlated feature.
    pub disturb_flips_per_activation: f64,
    /// TREFP slope (1/s) of the disturbance channel (a longer window lets
    /// hammering accumulate before the victim row is restored). Slightly
    /// shallower than the retention slope, which is why the worst-WER
    /// benchmark changes with TREFP/temperature (§V-A observation 2).
    pub disturb_alpha_per_s: f64,
    /// Words of OS/kernel-resident memory outside the benchmark's
    /// allocation. These pages are mostly cold (auto-refresh only) and any
    /// multi-bit word among them crashes the machine — the reason *every*
    /// benchmark crashes at the maximum refresh period at 70 °C (Fig. 9a).
    pub os_resident_words: u64,
    /// Spatial-correlation boost for *companion* weak bits: defects cluster
    /// (shared peripheral circuitry — the multi-bit faults of field studies
    /// \[71\]), so the probability that a manifesting cell's 71 word-mates
    /// contain another below-threshold cell is the independent-cell rate
    /// times this factor. A companion makes the word uncorrectable; this is
    /// what crashes *every* workload at 2.283 s / 70 °C (Fig. 9a) while
    /// leaving 50/60 °C campaigns crash-free.
    pub multi_bit_correlation: f64,
    /// Poisson rate coefficient for *uncorrectable* disturbance bursts:
    /// `λ_burst = c_ue · act_rate² · duration · temp/trefp factors`.
    /// Calibrated so `fmm(par)`-class activation rates give `PUE ≈ 0.8` at
    /// `TREFP = 1.45 s` / 70 °C (Fig. 9a).
    pub ue_burst_coeff: f64,
    /// Temperature slope (1/°C) of the UE-burst rate; strong enough that
    /// bursts effectively vanish below 70 °C (the paper saw no UEs at
    /// 50/60 °C).
    pub ue_burst_beta_per_c: f64,
    /// `TREFP` slope (1/s) of the UE-burst rate (longer windows accumulate
    /// more hammering between refreshes).
    pub ue_burst_alpha_per_s: f64,
    /// Patrol-scrub rate (1/s): background ECC sweep that eventually
    /// discovers errors in words the workload never reads.
    pub scrub_rate_hz: f64,
    /// Failure-onset rate (1/s): a weak cell's first actual decay event is
    /// stochastic (retention fluctuates around its tail value — the VRT
    /// phenomenology of \[65\]). An exponential onset with mean 1800 s makes
    /// 2-hour WER timelines converge with <3 % change over the last
    /// 10 minutes, matching §V-A / Figs. 2 and 4.
    pub onset_rate_hz: f64,
    /// Probability that a weak cell's VRT state is leaky at any instant
    /// (two-state telegraph model; §V-A, \[65\]).
    pub vrt_active_fraction: f64,
    /// VRT toggle rate (1/s).
    pub vrt_toggle_rate_hz: f64,
}

impl ErrorPhysics {
    /// The calibrated default physics (see field docs for rationale).
    pub fn calibrated() -> Self {
        Self {
            lambda0_per_bit: 1.1e-8,
            alpha_per_s: 3.5,
            beta_per_c: 0.33,
            kappa_vdd: 2.0,
            retention_window_s: 3.0,
            rank_sigma: 1.9,
            entropy_coupling: 0.30,
            true_cell_fraction: 0.5,
            disturb_flips_per_activation: 2.0e-10,
            disturb_alpha_per_s: 4.5,
            os_resident_words: 1 << 26, // 512 MiB of kernel/daemon pages
            multi_bit_correlation: 0.05,
            ue_burst_coeff: 6.0e-22,
            ue_burst_beta_per_c: 0.45,
            ue_burst_alpha_per_s: 2.2,
            scrub_rate_hz: 1.0 / 2400.0,
            onset_rate_hz: 1.0 / 1800.0,
            vrt_active_fraction: 0.85,
            vrt_toggle_rate_hz: 1.0 / 3000.0,
        }
    }

    /// Physics with the disturbance (cell-to-cell interference) terms
    /// disabled — the ablation called out in ARCHITECTURE.md §5.
    pub fn without_disturbance(mut self) -> Self {
        self.disturb_flips_per_activation = 0.0;
        self.ue_burst_coeff = 0.0;
        self
    }

    /// Expected weak-cell density per bit within the retention window at
    /// the given temperature (°C) and supply voltage (V).
    pub(crate) fn weak_density(&self, temp_c: f64, vdd_v: f64) -> f64 {
        let temp_factor = (self.beta_per_c * (temp_c - 50.0)).exp();
        let vdd_factor =
            (self.kappa_vdd * (crate::OperatingPoint::VDD_NOMINAL - vdd_v).max(0.0) / crate::OperatingPoint::VDD_NOMINAL).exp();
        self.lambda0_per_bit * temp_factor * vdd_factor
    }
}

impl Default for ErrorPhysics {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_grows_with_temperature() {
        let p = ErrorPhysics::calibrated();
        let d50 = p.weak_density(50.0, 1.428);
        let d60 = p.weak_density(60.0, 1.428);
        let d70 = p.weak_density(70.0, 1.428);
        assert!(d60 / d50 > 10.0 && d60 / d50 < 100.0, "10°C ratio {}", d60 / d50);
        assert!((d70 / d60 - d60 / d50).abs() < 1e-6, "exponential in T");
    }

    #[test]
    fn voltage_effect_is_mild() {
        let p = ErrorPhysics::calibrated();
        let nominal = p.weak_density(50.0, 1.5);
        let lowered = p.weak_density(50.0, 1.428);
        let ratio = lowered / nominal;
        assert!(ratio > 1.0 && ratio < 1.5, "5% VDD drop must be mild, got {ratio}");
    }

    #[test]
    fn disturbance_ablation_zeroes_terms() {
        let p = ErrorPhysics::calibrated().without_disturbance();
        assert_eq!(p.disturb_flips_per_activation, 0.0);
        assert_eq!(p.ue_burst_coeff, 0.0);
    }

    #[test]
    fn window_covers_max_trefp() {
        let p = ErrorPhysics::calibrated();
        assert!(p.retention_window_s > crate::OperatingPoint::TREFP_MAX);
    }
}
