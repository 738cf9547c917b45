//! Data-pattern micro-benchmarks.
//!
//! Conventional retention-profiling studies stress DRAM with fixed data
//! patterns (random, zeros, checkerboard) swept at maximum rate. The paper
//! uses the random-pattern micro as the "conventional" comparison point in
//! Figs. 2 and 13 — and shows real workloads can both exceed and undercut
//! it, which is the motivating observation for workload-aware modelling.

use crate::spec::{DeployScale, Scale, Workload};
use wade_trace::synthetic::{StridedSweep, ValuePattern};
use wade_trace::AccessSink;

/// Which stored pattern the micro-benchmark writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroPattern {
    /// Uniformly random words (the paper's `random` micro).
    Random,
    /// All zeros.
    Zeros,
    /// 0xAA / 0x55 checkerboard.
    Checkerboard,
}

/// Data-pattern sweep micro-benchmark.
#[derive(Debug, Clone)]
pub struct DataPatternMicro {
    pattern: MicroPattern,
    scale: Scale,
    words: u64,
    passes: u32,
}

impl DataPatternMicro {
    /// Creates the micro-benchmark.
    pub(crate) fn new(pattern: MicroPattern, scale: Scale) -> Self {
        match scale {
            Scale::Full => Self { pattern, scale, words: 1 << 20, passes: 3 },
            Scale::Test => Self { pattern, scale, words: 1 << 10, passes: 2 },
        }
    }

    /// Idle instructions modelled between accesses: retention-profiling
    /// micros write the pattern, *wait out a refresh period*, then read it
    /// back ([39]'s methodology) — they deliberately avoid refreshing the
    /// array through their own accesses. The large gap keeps the projected
    /// reuse time beyond any candidate `TREFP`.
    const IDLE_GAP: u64 = 64;

    fn value_pattern(&self) -> ValuePattern {
        match self.pattern {
            MicroPattern::Random => ValuePattern::Random,
            MicroPattern::Zeros => ValuePattern::Zeros,
            MicroPattern::Checkerboard => ValuePattern::Checkerboard,
        }
    }
}

impl Workload for DataPatternMicro {
    fn scale(&self) -> Scale {
        self.scale
    }

    fn name(&self) -> String {
        match self.pattern {
            MicroPattern::Random => "data-pattern(random)".to_string(),
            MicroPattern::Zeros => "data-pattern(zeros)".to_string(),
            MicroPattern::Checkerboard => "data-pattern(checker)".to_string(),
        }
    }

    fn threads(&self) -> u8 {
        1
    }

    fn run(&self, sink: &mut dyn AccessSink, seed: u64) {
        StridedSweep {
            words: self.words,
            passes: self.passes,
            stride: 1,
            pattern: self.value_pattern(),
            gap: Self::IDLE_GAP,
        }
        .run(&mut SinkAdapter(sink), seed);
    }

    fn deploy_scale(&self) -> DeployScale {
        DeployScale::with_reuse_scale(1.0)
    }
}

/// Adapts `&mut dyn AccessSink` to the generic generator API.
struct SinkAdapter<'a>(&'a mut dyn AccessSink);

impl AccessSink for SinkAdapter<'_> {
    fn on_access(&mut self, access: wade_trace::MemAccess) {
        self.0.on_access(access);
    }

    fn on_instructions(&mut self, count: u64) {
        self.0.on_instructions(count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_trace::Tracer;

    #[test]
    fn random_micro_maximises_entropy() {
        let micro = DataPatternMicro::new(MicroPattern::Random, Scale::Test);
        let mut tracer = Tracer::new();
        micro.run(&mut tracer, 1);
        assert!(tracer.report().entropy_bits > 9.0);
    }

    #[test]
    fn zeros_micro_minimises_entropy() {
        let micro = DataPatternMicro::new(MicroPattern::Zeros, Scale::Test);
        let mut tracer = Tracer::new();
        micro.run(&mut tracer, 1);
        let r = tracer.report();
        assert_eq!(r.entropy_bits, 0.0);
        assert_eq!(r.one_density, 0.0);
    }

    #[test]
    fn sweep_reuse_equals_footprint_scale() {
        let micro = DataPatternMicro::new(MicroPattern::Checkerboard, Scale::Test);
        let mut tracer = Tracer::new();
        micro.run(&mut tracer, 1);
        let r = tracer.report();
        // Sweep: every word re-touched once per pass; reuse distance ≈
        // footprint × instructions-per-access.
        assert!(r.mean_reuse_distance > r.unique_words as f64);
    }
}
