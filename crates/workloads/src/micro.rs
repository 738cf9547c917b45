//! The random data-pattern micro-benchmark.
//!
//! Conventional retention-profiling studies stress DRAM with fixed data
//! patterns swept at maximum rate. The paper uses the random-pattern micro
//! as the "conventional" comparison point in Figs. 2 and 13 — and shows
//! real workloads can both exceed and undercut it, which is the motivating
//! observation for workload-aware modelling.

use crate::spec::{DeployScale, Scale, Workload};
use wade_trace::synthetic::StridedSweep;
use wade_trace::AccessSink;

/// Random data-pattern sweep micro-benchmark (the paper's `random` micro).
#[derive(Debug, Clone)]
pub(crate) struct DataPatternMicro {
    scale: Scale,
    words: u64,
    passes: u32,
}

impl DataPatternMicro {
    /// Creates the micro-benchmark.
    pub(crate) fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self { scale, words: 1 << 20, passes: 3 },
            Scale::Test => Self { scale, words: 1 << 10, passes: 2 },
        }
    }

    /// Idle instructions modelled between accesses: retention-profiling
    /// micros write the pattern, *wait out a refresh period*, then read it
    /// back ([39]'s methodology) — they deliberately avoid refreshing the
    /// array through their own accesses. The large gap keeps the projected
    /// reuse time beyond any candidate `TREFP`.
    const IDLE_GAP: u64 = 64;
}

impl Workload for DataPatternMicro {
    fn scale(&self) -> Scale {
        self.scale
    }

    fn name(&self) -> String {
        "data-pattern(random)".to_string()
    }

    fn threads(&self) -> u8 {
        1
    }

    fn run(&self, sink: &mut dyn AccessSink, seed: u64) {
        StridedSweep { words: self.words, passes: self.passes, stride: 1, gap: Self::IDLE_GAP }
            .run(sink, seed);
    }

    fn deploy_scale(&self) -> DeployScale {
        DeployScale::with_reuse_scale(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_trace::Tracer;

    #[test]
    fn random_micro_maximises_entropy() {
        let micro = DataPatternMicro::new(Scale::Test);
        let mut tracer = Tracer::new();
        micro.run(&mut tracer, 1);
        assert!(tracer.report().entropy_bits > 9.0);
    }

    #[test]
    fn sweep_reuse_equals_footprint_scale() {
        let micro = DataPatternMicro::new(Scale::Test);
        let mut tracer = Tracer::new();
        micro.run(&mut tracer, 1);
        let r = tracer.report();
        // Sweep: every word re-touched once per pass; reuse distance ≈
        // footprint × instructions-per-access.
        assert!(r.mean_reuse_distance > r.unique_words as f64);
    }

    /// 64-bit FNV-1a over every access (address, kind, value, thread) and
    /// every instruction gap a run delivers, in order.
    struct StreamDigest(u64);

    impl StreamDigest {
        fn eat(&mut self, word: u64) {
            for b in word.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    impl AccessSink for StreamDigest {
        fn on_access(&mut self, a: wade_trace::MemAccess) {
            for word in [0, a.addr, a.is_write() as u64, a.value, a.tid as u64] {
                self.eat(word);
            }
        }

        fn on_instructions(&mut self, count: u64) {
            self.eat(1);
            self.eat(count);
        }
    }

    /// The test-scale access stream, recorded when the sweep still chose
    /// among several value patterns: the micro writes exactly the values
    /// and gaps it did then.
    #[test]
    fn access_stream_matches_the_recorded_digest() {
        let micro = DataPatternMicro::new(Scale::Test);
        let digests: Vec<String> = [1u64, 0x5eed]
            .iter()
            .map(|&seed| {
                let mut d = StreamDigest(0xcbf2_9ce4_8422_2325);
                micro.run(&mut d, seed);
                format!("{:016x}", d.0)
            })
            .collect();
        assert_eq!(digests, ["67955f0c10a0eb60", "342a830638d6a5ab"]);
    }
}
