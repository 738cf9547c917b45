//! DRAM operating points: refresh period, supply voltage, temperature.

use serde::{Deserialize, Serialize};

/// One DRAM operating point of the characterization space.
///
/// The paper sweeps `TREFP ∈ {0.618, 1.173, 1.450, 1.727, 2.283} s` (the
/// X-Gene2 maximum is 2.283 s; nominal DDR3 is 64 ms), fixes
/// `VDD = 1.428 V` (the experimentally-determined minimum; nominal 1.5 V)
/// and heats DIMMs to 50/60/70 °C.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Refresh period in seconds.
    pub trefp_s: f64,
    /// Supply voltage in volts.
    pub vdd_v: f64,
    /// DIMM temperature in °C.
    pub temp_c: f64,
}

impl OperatingPoint {
    /// Nominal DDR3 operation: 64 ms refresh, 1.5 V, 50 °C.
    pub(crate) fn nominal() -> Self {
        Self { trefp_s: 0.064, vdd_v: Self::VDD_NOMINAL, temp_c: 50.0 }
    }

    /// Nominal DDR3 supply voltage (V).
    pub const VDD_NOMINAL: f64 = 1.5;

    /// The paper's lowered supply voltage (V).
    pub const VDD_MIN: f64 = 1.428;

    /// The X-Gene2's maximum refresh period (s).
    pub const TREFP_MAX: f64 = 2.283;

    /// The refresh periods used for the WER sweeps (Fig. 7).
    pub const WER_TREFP_SWEEP: [f64; 4] = [0.618, 1.173, 1.727, 2.283];

    /// The refresh periods used for the PUE study (Fig. 9).
    pub const PUE_TREFP_SWEEP: [f64; 3] = [1.450, 1.727, 2.283];

    /// The characterization temperatures (°C).
    pub const TEMPERATURES: [f64; 3] = [50.0, 60.0, 70.0];

    /// Relaxed operating point at the given refresh period and temperature
    /// with the paper's lowered VDD.
    pub fn relaxed(trefp_s: f64, temp_c: f64) -> Self {
        Self { trefp_s, vdd_v: Self::VDD_MIN, temp_c }
    }

    /// Validates physical plausibility.
    ///
    /// # Errors
    /// Returns a description when the point is outside the modelled range
    /// (non-positive refresh, voltage below the functional minimum, or
    /// temperature outside 0–110 °C).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.trefp_s > 0.0 && self.trefp_s <= 10.0) {
            return Err(format!("refresh period {} s out of modelled range", self.trefp_s));
        }
        if self.vdd_v < Self::VDD_MIN - 1e-9 || self.vdd_v > 2.0 {
            return Err(format!("vdd {} V outside functional range", self.vdd_v));
        }
        if !(0.0..=110.0).contains(&self.temp_c) {
            return Err(format!("temperature {} °C outside modelled range", self.temp_c));
        }
        Ok(())
    }
}

impl Default for OperatingPoint {
    fn default() -> Self {
        Self::nominal()
    }
}

impl core::fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "TREFP={:.3}s VDD={:.3}V {:.0}°C", self.trefp_s, self.vdd_v, self.temp_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_valid() {
        assert!(OperatingPoint::nominal().validate().is_ok());
    }

    #[test]
    fn paper_sweep_points_are_valid() {
        for &t in &OperatingPoint::WER_TREFP_SWEEP {
            for &c in &OperatingPoint::TEMPERATURES {
                assert!(OperatingPoint::relaxed(t, c).validate().is_ok());
            }
        }
    }

    #[test]
    fn out_of_range_points_rejected() {
        assert!(OperatingPoint { trefp_s: 0.0, ..OperatingPoint::nominal() }.validate().is_err());
        assert!(OperatingPoint { vdd_v: 1.0, ..OperatingPoint::nominal() }.validate().is_err());
        assert!(OperatingPoint { temp_c: 200.0, ..OperatingPoint::nominal() }.validate().is_err());
    }

    #[test]
    fn display_is_informative() {
        let op = OperatingPoint::relaxed(2.283, 70.0);
        assert_eq!(op.to_string(), "TREFP=2.283s VDD=1.428V 70°C");
    }
}
