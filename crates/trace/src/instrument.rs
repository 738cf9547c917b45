//! The tracer: an [`AccessSink`] that builds a [`TraceReport`].

use crate::entropy::EntropyEstimator;
use crate::event::{MemAccess, StagedAccess};
use crate::region::RegionCounter;
use crate::report::TraceReport;
use crate::reuse::ReuseTracker;
use crate::sink::AccessSink;

/// Instrumentation backend: observes an execution and accumulates the
/// statistics the paper derives with DynamoRIO (reuse distances, write-value
/// entropy) plus region-level spatial usage.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Default)]
pub struct Tracer {
    reuse: ReuseTracker,
    entropy: EntropyEstimator,
    regions: RegionCounter,
    instructions: u64,
    mem_accesses: u64,
    reads: u64,
    writes: u64,
}

impl Tracer {
    /// Creates an idle tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared per-access accounting of both sink paths.
    #[inline]
    fn record(&mut self, access: MemAccess) {
        // A memory access is itself one instruction.
        self.instructions += 1;
        self.mem_accesses += 1;
        if access.is_write() {
            self.writes += 1;
            self.entropy.record(access.value);
        } else {
            self.reads += 1;
        }
        self.reuse.touch(access.word_index(), self.instructions);
        self.regions.record(access.addr, access.is_write());
    }

    /// Produces the summary report for everything observed so far.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            instructions: self.instructions,
            mem_accesses: self.mem_accesses,
            reads: self.reads,
            writes: self.writes,
            unique_words: self.reuse.unique_words(),
            footprint_bytes: self.reuse.unique_words() * 8,
            mean_reuse_distance: self.reuse.mean_distance(),
            reuse_histogram: self.reuse.histogram().clone(),
            never_reused_fraction: self.reuse.never_reused_fraction(),
            entropy_bits: self.entropy.entropy_bits(),
            one_density: self.entropy.one_density(),
            distinct_write_values: self.entropy.distinct_values(),
            spatial_entropy: self.regions.spatial_entropy(),
            region_shares: self.regions.access_shares(),
        }
    }
}

impl AccessSink for Tracer {
    fn on_access(&mut self, access: MemAccess) {
        self.record(access);
    }

    fn on_instructions(&mut self, count: u64) {
        self.instructions += count;
    }

    fn on_accesses(&mut self, batch: &[StagedAccess]) {
        // One virtual boundary for the whole slice; the gap lands on the
        // instruction counter before its access, exactly like the
        // interleaved call stream.
        for staged in batch {
            self.instructions += staged.gap_before;
            self.record(staged.access);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MemAccess;

    #[test]
    fn counts_accesses_and_instructions() {
        let mut t = Tracer::new();
        t.on_instructions(10);
        t.on_access(MemAccess::read(0, 0));
        t.on_access(MemAccess::write(8, 3, 0));
        let r = t.report();
        assert_eq!(r.instructions, 12);
        assert_eq!(r.mem_accesses, 2);
        assert_eq!(r.reads, 1);
        assert_eq!(r.writes, 1);
        assert_eq!(r.unique_words, 2);
    }

    #[test]
    fn reuse_distance_spans_instruction_gap() {
        let mut t = Tracer::new();
        t.on_access(MemAccess::read(0, 0)); // instr 1
        t.on_instructions(98); // instr 99
        t.on_access(MemAccess::read(0, 0)); // instr 100; distance 99
        let r = t.report();
        assert!((r.mean_reuse_distance - 99.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_only_tracks_writes() {
        let mut t = Tracer::new();
        for _ in 0..10 {
            t.on_access(MemAccess::read(0, 0));
        }
        assert_eq!(t.report().entropy_bits, 0.0);
        t.on_access(MemAccess::write(8, 0xAAAA_BBBB_CCCC_DDDD, 0));
        assert!(t.report().distinct_write_values > 0);
    }

    #[test]
    fn footprint_is_words_times_eight() {
        let mut t = Tracer::new();
        for i in 0..5u64 {
            t.on_access(MemAccess::read(i * 8, 0));
        }
        let r = t.report();
        assert_eq!(r.unique_words, 5);
        assert_eq!(r.footprint_bytes, 40);
    }
}
