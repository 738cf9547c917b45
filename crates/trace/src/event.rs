//! Memory access events emitted by instrumented workloads.

use serde::{Deserialize, Serialize};

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load instruction.
    Read,
    /// A store instruction; carries the stored value for entropy tracking.
    Write,
}

/// One memory access executed by a workload.
///
/// Addresses are *virtual byte addresses* inside the workload's simulated
/// allocation; the memory-system layer maps them onto channels/ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemAccess {
    /// Byte address of the accessed 64-bit word (word aligned by
    /// convention; the tracer aligns defensively).
    pub addr: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Value stored (stores only; loads carry 0).
    pub value: u64,
    /// Logical thread id issuing the access (`0..8` on the modelled SoC).
    pub tid: u8,
}

impl MemAccess {
    /// Convenience constructor for a load.
    pub fn read(addr: u64, tid: u8) -> Self {
        Self { addr, kind: AccessKind::Read, value: 0, tid }
    }

    /// Convenience constructor for a store of `value`.
    pub fn write(addr: u64, value: u64, tid: u8) -> Self {
        Self { addr, kind: AccessKind::Write, value, tid }
    }

    /// The 64-bit-word index of this access (byte address / 8).
    pub(crate) fn word_index(&self) -> u64 {
        self.addr >> 3
    }

    /// True for stores.
    pub fn is_write(&self) -> bool {
        self.kind == AccessKind::Write
    }
}

/// One entry of a staged access batch: a memory access plus the non-memory
/// instructions retired immediately *before* it.
///
/// This is the unit of the batched sink contract
/// ([`crate::AccessSink::on_accesses`]): replaying a batch in order —
/// `gap_before` instructions, then the access — reproduces the original
/// interleaved `on_instructions` / `on_access` call stream exactly, so a
/// batched consumer is observationally identical to a per-access one. The
/// gap rides inside the batch element because workload kernels interleave
/// instruction gaps between nearly every access; batching only gap-free
/// runs would leave the batches one or two accesses long.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StagedAccess {
    /// Non-memory instructions executed since the previous staged event.
    pub gap_before: u64,
    /// The memory access itself.
    pub access: MemAccess,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_fields() {
        let r = MemAccess::read(128, 3);
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(r.addr, 128);
        assert_eq!(r.tid, 3);
        assert!(!r.is_write());
        let w = MemAccess::write(64, 42, 1);
        assert!(w.is_write());
        assert_eq!(w.value, 42);
    }

    #[test]
    fn word_index_divides_by_eight() {
        assert_eq!(MemAccess::read(0, 0).word_index(), 0);
        assert_eq!(MemAccess::read(8, 0).word_index(), 1);
        assert_eq!(MemAccess::read(809, 0).word_index(), 101);
    }
}
