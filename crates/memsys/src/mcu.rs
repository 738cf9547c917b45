//! Memory Controller Unit (MCU) model.
//!
//! The X-Gene2 has four DDR3 MCUs; cache lines interleave across them on
//! low-order line-address bits. Each MCU counts read/write commands and
//! tracks per-bank open rows to estimate row activations — the quantity
//! behind the disturbance (cell-to-cell interference) component of the DRAM
//! error model.

use serde::{Deserialize, Serialize};

/// Number of memory channels / MCUs on the modelled SoC.
pub(crate) const MCU_COUNT: usize = 4;

/// Bank-level parallelism tracked per MCU: 8 banks × 8 ranks' worth of
/// open rows. The index XOR-folds high address bits (bank hashing), as
/// real controllers do so that distinct working-set regions map to
/// distinct banks instead of conflicting.
const BANKS: usize = 64;

/// Row size in bytes used for open-row tracking (8 KiB row buffer).
const ROW_SHIFT: u32 = 13;

/// One memory-controller channel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Mcu {
    open_row: Vec<Option<u64>>,
    read_cmds: u64,
    write_cmds: u64,
    row_activations: u64,
    rowbuffer_hits: u64,
}

impl Mcu {
    /// A fresh channel with all banks closed.
    pub(crate) fn new() -> Self {
        Self {
            open_row: vec![None; BANKS],
            read_cmds: 0,
            write_cmds: 0,
            row_activations: 0,
            rowbuffer_hits: 0,
        }
    }

    /// Which MCU serves the cache line at `addr` (64-byte interleave).
    pub(crate) fn route(addr: u64) -> usize {
        ((addr >> 6) & (MCU_COUNT as u64 - 1)) as usize
    }

    /// Issues one DRAM command for the line at `addr`.
    pub(crate) fn command(&mut self, addr: u64, is_write: bool) {
        if is_write {
            self.write_cmds += 1;
        } else {
            self.read_cmds += 1;
        }
        // Row-major mapping with XOR bank hashing: sequential streams stay
        // in one bank per 8 KiB row (97% row-buffer hits), while working
        // sets at distinct megabyte-scale bases land in distinct banks.
        let bank = (((addr >> ROW_SHIFT) ^ (addr >> 19)) & (BANKS as u64 - 1)) as usize;
        let row = addr >> ROW_SHIFT;
        if self.open_row[bank] == Some(row) {
            self.rowbuffer_hits += 1;
        } else {
            self.row_activations += 1;
            self.open_row[bank] = Some(row);
        }
    }

    /// Read commands issued.
    pub(crate) fn read_cmds(&self) -> u64 {
        self.read_cmds
    }

    /// Write commands issued.
    pub(crate) fn write_cmds(&self) -> u64 {
        self.write_cmds
    }

    /// Total commands issued.
    pub(crate) fn total_cmds(&self) -> u64 {
        self.read_cmds + self.write_cmds
    }

    /// Row activations (row-buffer misses).
    pub(crate) fn row_activations(&self) -> u64 {
        self.row_activations
    }

    /// Row-buffer hit ratio (0 when idle).
    pub(crate) fn rowbuffer_hit_rate(&self) -> f64 {
        let total = self.total_cmds();
        if total == 0 {
            0.0
        } else {
            self.rowbuffer_hits as f64 / total as f64
        }
    }
}

impl Default for Mcu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_interleaves_lines() {
        assert_eq!(Mcu::route(0), 0);
        assert_eq!(Mcu::route(64), 1);
        assert_eq!(Mcu::route(128), 2);
        assert_eq!(Mcu::route(192), 3);
        assert_eq!(Mcu::route(256), 0);
    }

    #[test]
    fn commands_are_counted_by_kind() {
        let mut m = Mcu::new();
        m.command(0, false);
        m.command(0, false);
        m.command(0, true);
        assert_eq!(m.read_cmds(), 2);
        assert_eq!(m.write_cmds(), 1);
        assert_eq!(m.total_cmds(), 3);
    }

    #[test]
    fn same_row_hits_rowbuffer() {
        let mut m = Mcu::new();
        m.command(0, false); // activation
        m.command(64, false); // same bank (low bits 0), same row
        assert_eq!(m.row_activations(), 1);
        assert!(m.rowbuffer_hit_rate() > 0.0);
    }

    #[test]
    fn row_change_activates() {
        let mut m = Mcu::new();
        m.command(0, false); // bank 0, row 0
        // Row 65 also hashes to bank 0 (65 ^ 1 = 64 ≡ 0 mod 64): a genuine
        // same-bank row change.
        m.command(65 << ROW_SHIFT, false);
        assert_eq!(m.row_activations(), 2);
    }

    #[test]
    fn banks_have_independent_open_rows() {
        let mut m = Mcu::new();
        m.command(0, false); // bank 0
        m.command(1 << ROW_SHIFT, false); // bank 1
        m.command(0, false); // bank 0 again, still open
        assert_eq!(m.row_activations(), 2);
        assert_eq!(m.rowbuffer_hit_rate(), 1.0 / 3.0);
    }

    #[test]
    fn bank_hash_separates_thread_regions() {
        // Two sequential streams at megabyte-distant bases (distinct
        // threads' working sets) must keep their row-buffer locality
        // instead of thrashing one bank.
        let mut m = Mcu::new();
        for i in 0..64u64 {
            m.command(i * 256, false);
            m.command((1 << 20) + i * 256, false);
        }
        assert!(
            m.rowbuffer_hit_rate() > 0.8,
            "hashed banks must keep locality: {}",
            m.rowbuffer_hit_rate()
        );
    }
}
