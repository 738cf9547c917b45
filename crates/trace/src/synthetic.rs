//! The synthetic access stream behind the data-pattern micro-benchmarks.
//!
//! [`StridedSweep`] is the classic retention-test kernel: write a
//! [`ValuePattern`] across a buffer, then read it back. The
//! `wade-workloads` data-pattern micros (the paper's `random`
//! micro-benchmark that conventional retention-profiling studies rely on)
//! run it, and the `wade-memsys` unit tests drive the cache hierarchy
//! with it. It emits [`MemAccess`]es into an [`AccessSink`].

use crate::event::MemAccess;
use crate::sink::AccessSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Value patterns for generated stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValuePattern {
    /// Every store writes zero (minimum entropy).
    Zeros,
    /// Every store writes all-ones.
    Ones,
    /// Alternating 0xAA…/0x55… checkerboard.
    Checkerboard,
    /// Uniformly random 64-bit values (maximum entropy) — the paper's
    /// "random data pattern micro-benchmark".
    Random,
}

impl ValuePattern {
    /// Produces the `i`-th value of the pattern using `rng` when random.
    fn value(&self, i: u64, rng: &mut StdRng) -> u64 {
        match self {
            ValuePattern::Zeros => 0,
            ValuePattern::Ones => u64::MAX,
            ValuePattern::Checkerboard => {
                if i.is_multiple_of(2) {
                    0xAAAA_AAAA_AAAA_AAAA
                } else {
                    0x5555_5555_5555_5555
                }
            }
            ValuePattern::Random => rng.gen(),
        }
    }
}

/// Sequential sweep over `words` 64-bit words, `passes` times, writing the
/// given pattern then reading it back (classic retention-test kernel).
#[derive(Debug, Clone)]
pub struct StridedSweep {
    /// Number of 64-bit words in the buffer.
    pub words: u64,
    /// Sweep passes (each pass = one write sweep + one read sweep).
    pub passes: u32,
    /// Stride between consecutive accesses, in words.
    pub stride: u64,
    /// Value pattern for the write sweeps.
    pub pattern: ValuePattern,
    /// Non-memory instructions between accesses (controls access rate).
    pub gap: u64,
}

impl StridedSweep {
    /// Runs the sweep into `sink` with deterministic randomness from `seed`.
    pub fn run<S: AccessSink>(&self, sink: &mut S, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..self.passes {
            let mut i = 0u64;
            let mut visited = 0u64;
            while visited < self.words {
                let v = self.pattern.value(i, &mut rng);
                sink.on_access(MemAccess::write(i * 8, v, 0));
                sink.on_instructions(self.gap);
                i = (i + self.stride) % self.words.max(1);
                visited += 1;
            }
            let mut i = 0u64;
            let mut visited = 0u64;
            while visited < self.words {
                sink.on_access(MemAccess::read(i * 8, 0));
                sink.on_instructions(self.gap);
                i = (i + self.stride) % self.words.max(1);
                visited += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    #[test]
    fn sweep_touches_every_word_once_per_pass() {
        let mut t = Tracer::new();
        StridedSweep { words: 100, passes: 1, stride: 1, pattern: ValuePattern::Zeros, gap: 2 }
            .run(&mut t, 1);
        let r = t.report();
        assert_eq!(r.unique_words, 100);
        assert_eq!(r.mem_accesses, 200); // write sweep + read sweep
        assert_eq!(r.writes, 100);
    }

    #[test]
    fn prime_stride_still_covers_buffer() {
        let mut t = Tracer::new();
        StridedSweep { words: 64, passes: 1, stride: 7, pattern: ValuePattern::Ones, gap: 0 }
            .run(&mut t, 1);
        assert_eq!(t.report().unique_words, 64);
    }

    #[test]
    fn random_pattern_has_high_entropy() {
        let mut t = Tracer::new();
        StridedSweep { words: 4096, passes: 1, stride: 1, pattern: ValuePattern::Random, gap: 1 }
            .run(&mut t, 7);
        assert!(t.report().entropy_bits > 10.0);
    }

    #[test]
    fn zeros_pattern_has_zero_entropy() {
        let mut t = Tracer::new();
        StridedSweep { words: 4096, passes: 1, stride: 1, pattern: ValuePattern::Zeros, gap: 1 }
            .run(&mut t, 7);
        assert_eq!(t.report().entropy_bits, 0.0);
        assert_eq!(t.report().one_density, 0.0);
    }

    #[test]
    fn checkerboard_is_one_bit_of_entropy() {
        let mut t = Tracer::new();
        StridedSweep { words: 256, passes: 1, stride: 1, pattern: ValuePattern::Checkerboard, gap: 0 }
            .run(&mut t, 1);
        assert!((t.report().entropy_bits - 1.0).abs() < 1e-6);
        assert!((t.report().one_density - 0.5).abs() < 1e-6);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = Tracer::new();
        let mut b = Tracer::new();
        let gen = StridedSweep {
            words: 512,
            passes: 2,
            stride: 3,
            pattern: ValuePattern::Random,
            gap: 2,
        };
        gen.run(&mut a, 42);
        gen.run(&mut b, 42);
        assert_eq!(a.report(), b.report());
    }
}
