//! Instrumented data buffers: the kernels' view of memory.

use wade_trace::{AccessSink, MemAccess};

/// Bump allocator handing out disjoint simulated address ranges, so that
/// multiple buffers of one workload occupy a realistic flat address space.
#[derive(Debug, Default)]
pub(crate) struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    /// A fresh, empty address space starting at address 0.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Reserves `words` 64-bit words, returning the base byte address
    /// (4 KiB aligned, like a page-grained allocator).
    pub(crate) fn alloc(&mut self, words: u64) -> u64 {
        let base = self.next;
        let bytes = words * 8;
        self.next = (base + bytes + 4095) & !4095;
        base
    }
}

/// A `Vec<u64>` whose every access is reported to an [`AccessSink`] — the
/// moral equivalent of running the kernel under DynamoRIO.
///
/// Floating-point helpers store IEEE-754 bit patterns, so written *values*
/// carry the true entropy of the computation (the paper's `H_DP` is
/// computed from exactly these stores).
#[derive(Debug, Clone)]
pub(crate) struct TracedBuffer {
    base: u64,
    data: Vec<u64>,
}

impl TracedBuffer {
    /// Allocates `words` zeroed words inside `space`.
    pub(crate) fn zeroed(space: &mut AddressSpace, words: usize) -> Self {
        let base = space.alloc(words as u64);
        Self { base, data: vec![0; words] }
    }

    /// Number of 64-bit words.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    fn addr(&self, index: usize) -> u64 {
        self.base + (index as u64) * 8
    }

    /// Instrumented load of word `index` on logical thread `tid`. The
    /// slice is indexed first, so an out-of-range `index` panics before
    /// its address reaches `sink`.
    pub(crate) fn get(&self, sink: &mut (impl AccessSink + ?Sized), index: usize, tid: u8) -> u64 {
        let value = self.data[index];
        sink.on_access(MemAccess::read(self.addr(index), tid));
        value
    }

    /// Instrumented store of `value` to word `index` on thread `tid`,
    /// bounds-checked like [`TracedBuffer::get`].
    pub(crate) fn set(
        &mut self,
        sink: &mut (impl AccessSink + ?Sized),
        index: usize,
        value: u64,
        tid: u8,
    ) {
        self.data[index] = value;
        sink.on_access(MemAccess::write(self.addr(index), value, tid));
    }

    /// Instrumented load interpreted as `f64`.
    pub(crate) fn get_f64(
        &self,
        sink: &mut (impl AccessSink + ?Sized),
        index: usize,
        tid: u8,
    ) -> f64 {
        f64::from_bits(self.get(sink, index, tid))
    }

    /// Instrumented store of an `f64` bit pattern.
    pub(crate) fn set_f64(
        &mut self,
        sink: &mut (impl AccessSink + ?Sized),
        index: usize,
        value: f64,
        tid: u8,
    ) {
        self.set(sink, index, value.to_bits(), tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_trace::Tracer;

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut space = AddressSpace::new();
        let a = space.alloc(100);
        let b = space.alloc(100);
        assert_eq!(a, 0);
        assert!(b >= 800);
        assert_eq!(b % 4096, 0);
        assert!(space.next >= 1600);
    }

    #[test]
    fn buffer_reads_and_writes_are_traced() {
        let mut space = AddressSpace::new();
        let mut buf = TracedBuffer::zeroed(&mut space, 16);
        let mut tracer = Tracer::new();
        buf.set(&mut tracer, 3, 99, 0);
        assert_eq!(buf.get(&mut tracer, 3, 0), 99);
        let report = tracer.report();
        assert_eq!(report.mem_accesses, 2);
        assert_eq!(report.writes, 1);
        assert_eq!(report.unique_words, 1);
    }

    #[test]
    fn float_roundtrip_preserves_bits() {
        let mut space = AddressSpace::new();
        let mut buf = TracedBuffer::zeroed(&mut space, 4);
        let mut tracer = Tracer::new();
        buf.set_f64(&mut tracer, 0, 1.234567, 0);
        assert_eq!(buf.get_f64(&mut tracer, 0, 0), 1.234567);
    }

    #[test]
    fn out_of_range_accesses_panic_before_reaching_the_sink() {
        let mut space = AddressSpace::new();
        let mut buf = TracedBuffer::zeroed(&mut space, 4);
        let mut tracer = Tracer::new();
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            buf.get(&mut tracer, 4, 0);
        }));
        let write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            buf.set(&mut tracer, 4, 1, 0);
        }));
        assert!(read.is_err() && write.is_err());
        assert_eq!(tracer.report().mem_accesses, 0);
    }

    #[test]
    fn distinct_buffers_have_distinct_addresses() {
        let mut space = AddressSpace::new();
        let a = TracedBuffer::zeroed(&mut space, 64);
        let b = TracedBuffer::zeroed(&mut space, 64);
        let mut tracer = Tracer::new();
        a.get(&mut tracer, 0, 0);
        b.get(&mut tracer, 0, 0);
        assert_eq!(tracer.report().unique_words, 2);
    }
}
