//! The reusable staging buffer between workload kernels and sinks.

use crate::event::{MemAccess, StagedAccess};
use crate::sink::AccessSink;

/// Default staging capacity (entries). 1024 × 40 B keeps the buffer inside
/// L2 while amortizing the virtual-boundary crossing ~1000×.
pub(crate) const DEFAULT_STAGING_CAPACITY: usize = 1024;

/// Stages an interleaved `on_access` / `on_instructions` call stream into
/// slices delivered through [`AccessSink::on_accesses`].
///
/// Workload kernels emit one virtual call per memory access (they run
/// against `&mut dyn AccessSink`); with a `StagingSink` in front, that call
/// lands on a plain buffer push, and the downstream pipeline (fanout →
/// tracer + SoC model) consumes the stream in batches with one virtual
/// boundary per `DEFAULT_STAGING_CAPACITY` accesses. Instruction gaps are
/// folded into each staged entry's `gap_before`, so delivery order — and
/// therefore every instruction index a consumer derives — is exactly the
/// original stream's.
///
/// The buffer flushes when full and on drop, so
/// a trailing gap with no following access is still delivered.
///
/// ```
/// use wade_trace::{AccessSink, MemAccess, StagingSink, Tracer};
/// let mut tracer = Tracer::new();
/// let mut staged = StagingSink::new(&mut tracer);
/// staged.on_access(MemAccess::write(0, 7, 0));
/// staged.on_instructions(9);
/// staged.on_access(MemAccess::read(0, 0));
/// drop(staged); // flushes the batch and the trailing gap
/// let report = tracer.report();
/// assert_eq!(report.instructions, 11); // 2 accesses + 9-instruction gap
/// assert_eq!(report.mem_accesses, 2);
/// ```
#[derive(Debug)]
pub struct StagingSink<S: AccessSink> {
    inner: S,
    staged: Vec<StagedAccess>,
    capacity: usize,
    pending_gap: u64,
}

impl<S: AccessSink> StagingSink<S> {
    /// Wraps `inner` with the default staging capacity.
    pub fn new(inner: S) -> Self {
        Self::with_capacity(inner, DEFAULT_STAGING_CAPACITY)
    }

    /// Wraps `inner` with an explicit staging capacity (≥ 1).
    pub(crate) fn with_capacity(inner: S, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { inner, staged: Vec::with_capacity(capacity), capacity, pending_gap: 0 }
    }

    /// Delivers everything staged so far: the buffered accesses as one
    /// batch, then any trailing instruction gap. Idempotent; called
    /// automatically on drop.
    pub(crate) fn finish(&mut self) {
        if !self.staged.is_empty() {
            self.inner.on_accesses(&self.staged);
            self.staged.clear();
        }
        if self.pending_gap > 0 {
            self.inner.on_instructions(self.pending_gap);
            self.pending_gap = 0;
        }
    }
}

impl<S: AccessSink> Drop for StagingSink<S> {
    fn drop(&mut self) {
        self.finish();
    }
}

impl<S: AccessSink> AccessSink for StagingSink<S> {
    fn on_access(&mut self, access: MemAccess) {
        self.staged
            .push(StagedAccess { gap_before: std::mem::take(&mut self.pending_gap), access });
        if self.staged.len() >= self.capacity {
            self.inner.on_accesses(&self.staged);
            self.staged.clear();
        }
    }

    fn on_instructions(&mut self, count: u64) {
        self.pending_gap += count;
    }

    fn on_accesses(&mut self, batch: &[StagedAccess]) {
        // Already-staged input: fold it into the buffer entry by entry so
        // gap accounting and capacity flushing stay uniform.
        for staged in batch {
            if staged.gap_before > 0 {
                self.on_instructions(staged.gap_before);
            }
            self.on_access(staged.access);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    /// Flushes and returns the wrapped sink.
    fn into_inner<S: AccessSink + Default>(mut staged: StagingSink<S>) -> S {
        staged.finish();
        std::mem::take(&mut staged.inner)
    }

    /// Feeds `n` accesses with per-access gaps through `sink`.
    fn feed(sink: &mut impl AccessSink, n: u64) {
        for i in 0..n {
            if i % 3 == 0 {
                sink.on_access(MemAccess::write(8 * (i % 17), i.wrapping_mul(0x9E37), 0));
            } else {
                sink.on_access(MemAccess::read(8 * (i % 17), 0));
            }
            sink.on_instructions(2 + i % 5);
        }
    }

    #[test]
    fn staged_report_is_identical_to_direct() {
        let mut direct = Tracer::new();
        feed(&mut direct, 10_000);

        let mut tracer = Tracer::new();
        let mut staged = StagingSink::with_capacity(&mut tracer, 64);
        feed(&mut staged, 10_000);
        staged.finish();
        drop(staged);
        assert_eq!(tracer.report(), direct.report());
    }

    #[test]
    fn drop_flushes_pending_events() {
        let mut tracer = Tracer::new();
        {
            let mut staged = StagingSink::new(&mut tracer);
            staged.on_access(MemAccess::read(0, 0));
            staged.on_instructions(41);
            // No explicit finish: drop must deliver both the access and the
            // trailing gap.
        }
        let report = tracer.report();
        assert_eq!(report.mem_accesses, 1);
        assert_eq!(report.instructions, 42);
    }

    #[test]
    fn capacity_one_still_preserves_gaps() {
        let mut direct = Tracer::new();
        feed(&mut direct, 100);
        let mut tracer = Tracer::new();
        let mut staged = StagingSink::with_capacity(&mut tracer, 1);
        feed(&mut staged, 100);
        drop(staged);
        assert_eq!(tracer.report(), direct.report());
    }

    #[test]
    fn staged_input_batches_are_refolded() {
        let batch = [
            StagedAccess { gap_before: 0, access: MemAccess::read(0, 0) },
            StagedAccess { gap_before: 7, access: MemAccess::write(8, 1, 0) },
        ];
        let mut direct = Tracer::new();
        direct.on_accesses(&batch);
        let mut tracer = Tracer::new();
        StagingSink::new(&mut tracer).on_accesses(&batch);
        assert_eq!(tracer.report(), direct.report());
    }

    #[test]
    fn into_inner_returns_a_flushed_sink() {
        let mut staged = StagingSink::new(Tracer::new());
        staged.on_access(MemAccess::read(0, 0));
        let tracer = into_inner(staged);
        assert_eq!(tracer.report().mem_accesses, 1);
    }
}
