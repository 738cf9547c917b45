//! The per-run instrumentation summary.

use crate::reuse::ReuseHistogram;
use serde::{Deserialize, Serialize};

/// Summary of one instrumented workload execution.
///
/// Produced by [`crate::Tracer::report`]; consumed by the feature-extraction
/// layer (for `Treuse`, `H_DP` and access-mix features) and the DRAM usage
/// profile builder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Total instructions executed (memory + non-memory).
    pub instructions: u64,
    /// Total memory accesses.
    pub mem_accesses: u64,
    /// Loads.
    pub reads: u64,
    /// Stores.
    pub writes: u64,
    /// Distinct 64-bit words referenced.
    pub unique_words: u64,
    /// Footprint in bytes (unique words × 8).
    pub footprint_bytes: u64,
    /// Mean reuse distance in instructions (eq. 4's `D_reuse` average).
    pub mean_reuse_distance: f64,
    /// Log2-bucketed reuse-distance histogram.
    pub reuse_histogram: ReuseHistogram,
    /// Fraction of referenced words never re-referenced.
    pub never_reused_fraction: f64,
    /// Data-pattern entropy `H_DP` in bits (eq. 5).
    pub entropy_bits: f64,
    /// Fraction of stored bits equal to one.
    pub one_density: f64,
    /// Distinct 32-bit values written.
    pub distinct_write_values: usize,
    /// Spatial entropy (bits) of the per-region access distribution.
    pub spatial_entropy: f64,
    /// Normalised per-region access shares.
    pub region_shares: Vec<f64>,
}

impl TraceReport {
    /// Accesses per instruction (memory intensity at the program level).
    pub fn access_intensity(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem_accesses as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::ReuseHistogram;

    /// Store fraction among all accesses.
    fn write_fraction(r: &TraceReport) -> f64 {
        if r.mem_accesses == 0 {
            0.0
        } else {
            r.writes as f64 / r.mem_accesses as f64
        }
    }

    fn dummy() -> TraceReport {
        TraceReport {
            instructions: 1000,
            mem_accesses: 250,
            reads: 200,
            writes: 50,
            unique_words: 100,
            footprint_bytes: 800,
            mean_reuse_distance: 40.0,
            reuse_histogram: ReuseHistogram::new(),
            never_reused_fraction: 0.2,
            entropy_bits: 8.0,
            one_density: 0.5,
            distinct_write_values: 12,
            spatial_entropy: 3.0,
            region_shares: vec![],
        }
    }

    #[test]
    fn intensity_and_mix() {
        let r = dummy();
        assert!((r.access_intensity() - 0.25).abs() < 1e-12);
        assert!((write_fraction(&r) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let mut r = dummy();
        r.instructions = 0;
        r.mem_accesses = 0;
        assert_eq!(r.access_intensity(), 0.0);
        assert_eq!(write_fraction(&r), 0.0);
    }

    #[test]
    fn report_clones_and_compares() {
        let r = dummy();
        assert_eq!(r.clone(), r);
    }
}
