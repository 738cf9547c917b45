//! The synthetic access stream behind the data-pattern micro-benchmark.
//!
//! [`StridedSweep`] is the classic retention-test kernel: write uniformly
//! random 64-bit values across a buffer, then read them back. The
//! `wade-workloads` data-pattern micro (the paper's `random`
//! micro-benchmark that conventional retention-profiling studies rely on)
//! runs it, and the `wade-memsys` unit tests drive the cache hierarchy
//! with it. It emits [`MemAccess`]es into an [`AccessSink`].

use crate::event::MemAccess;
use crate::sink::AccessSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sequential sweep over `words` 64-bit words, `passes` times, writing
/// uniformly random values (maximum entropy) then reading them back.
#[derive(Debug, Clone)]
pub struct StridedSweep {
    /// Number of 64-bit words in the buffer.
    pub words: u64,
    /// Sweep passes (each pass = one write sweep + one read sweep).
    pub passes: u32,
    /// Stride between consecutive accesses, in words.
    pub stride: u64,
    /// Non-memory instructions between accesses (controls access rate).
    pub gap: u64,
}

impl StridedSweep {
    /// Runs the sweep into `sink` with deterministic randomness from `seed`.
    pub fn run<S: AccessSink + ?Sized>(&self, sink: &mut S, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..self.passes {
            let mut i = 0u64;
            let mut visited = 0u64;
            while visited < self.words {
                sink.on_access(MemAccess::write(i * 8, rng.gen(), 0));
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
        StridedSweep { words: 100, passes: 1, stride: 1, gap: 2 }.run(&mut t, 1);
        let r = t.report();
        assert_eq!(r.unique_words, 100);
        assert_eq!(r.mem_accesses, 200); // write sweep + read sweep
        assert_eq!(r.writes, 100);
    }

    #[test]
    fn prime_stride_still_covers_buffer() {
        let mut t = Tracer::new();
        StridedSweep { words: 64, passes: 1, stride: 7, gap: 0 }.run(&mut t, 1);
        assert_eq!(t.report().unique_words, 64);
    }

    #[test]
    fn random_pattern_has_high_entropy() {
        let mut t = Tracer::new();
        StridedSweep { words: 4096, passes: 1, stride: 1, gap: 1 }.run(&mut t, 7);
        assert!(t.report().entropy_bits > 10.0);
        assert!((t.report().one_density - 0.5).abs() < 0.01, "{}", t.report().one_density);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = Tracer::new();
        let mut b = Tracer::new();
        let gen = StridedSweep { words: 512, passes: 2, stride: 3, gap: 2 };
        gen.run(&mut a, 42);
        gen.run(&mut b, 42);
        assert_eq!(a.report(), b.report());
    }
}
