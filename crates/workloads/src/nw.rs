//! Rodinia `nw`: Needleman-Wunsch global sequence alignment.
//!
//! Fills the full dynamic-programming table (the real recurrence with match
//! /mismatch/gap scores), then traces back the optimal alignment. The table
//! is re-filled for several sequence pairs, giving the long full-table
//! reuse distances behind the paper's largest `Treuse` (10.93 s, Table II).

use crate::buffer::{AddressSpace, TracedBuffer};
use crate::spec::{paper_label, DeployScale, Scale, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wade_trace::AccessSink;

const MATCH: i64 = 3;
const MISMATCH: i64 = -1;
const GAP_PENALTY: i64 = -2;

/// Needleman-Wunsch alignment kernel.
#[derive(Debug, Clone)]
pub(crate) struct NeedlemanWunsch {
    threads: u8,
    scale: Scale,
    seq_len: usize,
    pairs: usize,
}

impl NeedlemanWunsch {
    const GAP: u64 = 3;

    /// Creates the kernel.
    pub(crate) fn new(threads: u8, scale: Scale) -> Self {
        match scale {
            Scale::Full => Self { threads, scale, seq_len: 700, pairs: 2 },
            Scale::Test => Self { threads, scale, seq_len: 48, pairs: 2 },
        }
    }

    /// Aligns `pairs` random sequence pairs; returns the final alignment
    /// score of the last pair.
    fn align(&self, sink: &mut dyn AccessSink, seed: u64) -> i64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.seq_len;
        let mut space = AddressSpace::new();
        let mut table = TracedBuffer::zeroed(&mut space, (n + 1) * (n + 1));
        let mut seq_a = TracedBuffer::zeroed(&mut space, n);
        let mut seq_b = TracedBuffer::zeroed(&mut space, n);

        let mut final_score = 0;
        for _pair in 0..self.pairs {
            for i in 0..n {
                seq_a.set(sink, i, rng.gen_range(0..4u64), 0);
                seq_b.set(sink, i, rng.gen_range(0..4u64), 0);
                sink.on_instructions(1);
            }
            // Boundary conditions.
            for i in 0..=n {
                table.set(sink, i, (i as i64 * GAP_PENALTY) as u64, 0);
                table.set(sink, i * (n + 1), (i as i64 * GAP_PENALTY) as u64, 0);
                sink.on_instructions(2);
            }
            // Fill. Rows are distributed across threads in the wavefront
            // style of the Rodinia OpenMP version (block-cyclic rows; the
            // dependence pattern is preserved because we model access
            // traffic, not lock timing).
            for i in 1..=n {
                let tid = ((i - 1) % self.threads as usize) as u8;
                for j in 1..=n {
                    let a = seq_a.get(sink, i - 1, tid) as i64;
                    let b = seq_b.get(sink, j - 1, tid) as i64;
                    let diag = table.get(sink, (i - 1) * (n + 1) + (j - 1), tid) as i64;
                    let up = table.get(sink, (i - 1) * (n + 1) + j, tid) as i64;
                    let left = table.get(sink, i * (n + 1) + (j - 1), tid) as i64;
                    let score = if a == b { MATCH } else { MISMATCH };
                    let best = (diag + score).max(up + GAP_PENALTY).max(left + GAP_PENALTY);
                    table.set(sink, i * (n + 1) + j, best as u64, tid);
                    sink.on_instructions(Self::GAP);
                }
            }
            final_score = table.get(sink, n * (n + 1) + n, 0) as i64;

            // Traceback.
            let (mut i, mut j) = (n, n);
            while i > 0 && j > 0 {
                let here = table.get(sink, i * (n + 1) + j, 0) as i64;
                let diag = table.get(sink, (i - 1) * (n + 1) + (j - 1), 0) as i64;
                let a = seq_a.get(sink, i - 1, 0) as i64;
                let b = seq_b.get(sink, j - 1, 0) as i64;
                let score = if a == b { MATCH } else { MISMATCH };
                sink.on_instructions(4);
                if here == diag + score {
                    i -= 1;
                    j -= 1;
                } else if here == table.get(sink, (i - 1) * (n + 1) + j, 0) as i64 + GAP_PENALTY {
                    i -= 1;
                } else {
                    j -= 1;
                }
            }
        }
        final_score
    }
}

impl Workload for NeedlemanWunsch {
    fn scale(&self) -> Scale {
        self.scale
    }

    fn name(&self) -> String {
        paper_label("nw", self.threads)
    }

    fn threads(&self) -> u8 {
        self.threads
    }

    fn run(&self, sink: &mut dyn AccessSink, seed: u64) {
        self.align(sink, seed);
    }

    fn deploy_scale(&self) -> DeployScale {
        DeployScale::with_reuse_scale(if self.threads > 1 { 51.4 } else { 19.6 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_trace::{NullSink, Tracer};

    #[test]
    fn identical_sequences_score_perfectly() {
        // Direct recurrence check on a tiny fixed case: aligning a sequence
        // with itself scores len × MATCH.
        let n = 8;
        let mut space = AddressSpace::new();
        let mut table = TracedBuffer::zeroed(&mut space, (n + 1) * (n + 1));
        let seq: Vec<i64> = (0..n as i64).map(|i| i % 4).collect();
        let mut sink = NullSink;
        for i in 0..=n {
            table.set(&mut sink, i, (i as i64 * GAP_PENALTY) as u64, 0);
            table.set(&mut sink, i * (n + 1), (i as i64 * GAP_PENALTY) as u64, 0);
        }
        for i in 1..=n {
            for j in 1..=n {
                let score = if seq[i - 1] == seq[j - 1] { MATCH } else { MISMATCH };
                let diag = table.get(&mut sink, (i - 1) * (n + 1) + (j - 1), 0) as i64;
                let up = table.get(&mut sink, (i - 1) * (n + 1) + j, 0) as i64;
                let left = table.get(&mut sink, i * (n + 1) + (j - 1), 0) as i64;
                let best = (diag + score).max(up + GAP_PENALTY).max(left + GAP_PENALTY);
                table.set(&mut sink, i * (n + 1) + j, best as u64, 0);
            }
        }
        assert_eq!(table.get(&mut sink, n * (n + 1) + n, 0) as i64, n as i64 * MATCH);
    }

    #[test]
    fn alignment_score_is_bounded() {
        let nw = NeedlemanWunsch::new(1, Scale::Test);
        let score = nw.align(&mut NullSink, 3);
        let n = 48i64;
        assert!(score <= n * MATCH);
        assert!(score >= 2 * n * GAP_PENALTY);
    }

    #[test]
    fn table_dominates_footprint_with_long_reuse() {
        let nw = NeedlemanWunsch::new(1, Scale::Test);
        let mut tracer = Tracer::new();
        nw.run(&mut tracer, 1);
        let r = tracer.report();
        // With 2 pairs the table is re-filled once: the mean reuse distance
        // must be a large fraction of the per-pair work.
        assert!(r.mean_reuse_distance > r.instructions as f64 / 100.0);
        assert!(r.unique_words as usize >= 49 * 49);
    }

    #[test]
    fn low_entropy_integer_data() {
        let nw = NeedlemanWunsch::new(1, Scale::Test);
        let mut tracer = Tracer::new();
        nw.run(&mut tracer, 1);
        // Scores and 2-bit bases: far lower value entropy than float kernels.
        assert!(tracer.report().entropy_bits < 12.0);
    }
}
