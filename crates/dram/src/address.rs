//! Physical address mapping and scrambling (§II-D).
//!
//! Vendors scramble the mapping from logical to physical cell locations
//! (address scrambling, faulty-cell remapping [83], [28]), which is one of
//! the reasons DRAM reliability varies across DIMMs and why logical error
//! addresses don't reveal physical adjacency. WADE models the mapping so
//! that error locations reported by the simulator can be translated to
//! physical coordinates per DIMM, and so that tests can verify the
//! scrambler is a bijection (no two logical cells collide).

use crate::geometry::{RankId, ServerGeometry};
use serde::{Deserialize, Serialize};

/// Physical coordinates of a 64-bit word on the server's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramCoord {
    /// Rank holding the word.
    pub rank: RankId,
    /// Bank within the rank (0..8).
    pub bank: u8,
    /// Row within the bank.
    pub row: u32,
    /// 64-bit-word column within the row.
    pub column: u16,
}

/// Per-DIMM address scrambler: an invertible XOR/rotate mix keyed by the
/// device seed, applied between logical word indices and physical cells.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct AddressScrambler {
    key: u64,
}

impl AddressScrambler {
    /// Derives a scrambler from the manufacturing seed and DIMM index.
    pub(crate) fn new(device_seed: u64, dimm: u8) -> Self {
        let key = device_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((dimm as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        Self { key }
    }

    /// Scrambles a word index within a rank (bijective over any power-of-two
    /// domain `2^bits`).
    pub(crate) fn scramble(&self, word: u64, bits: u32) -> u64 {
        let mask = (1u64 << bits) - 1;
        let mut x = word & mask;
        // Two Feistel-ish XOR-rotate rounds confined to the domain.
        x ^= (self.key >> 7) & mask;
        x = x.rotate_left(bits / 2) & mask | (x >> (bits - bits / 2));
        x &= mask;
        x ^= (self.key >> 23) & mask;
        x & mask
    }
}

/// Maps a logical word index of an allocation to physical DRAM coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddressMap {
    geometry: ServerGeometry,
    scramblers: Vec<AddressScrambler>,
}

impl AddressMap {
    /// Builds the map for a device seed.
    pub fn new(geometry: ServerGeometry, device_seed: u64) -> Self {
        let scramblers =
            (0..geometry.dimms).map(|d| AddressScrambler::new(device_seed, d)).collect();
        Self { geometry, scramblers }
    }

    /// Physical coordinates of logical `word` within a `footprint_words`
    /// allocation.
    pub fn locate(&self, word: u64, footprint_words: u64) -> DramCoord {
        let rank = self.geometry.rank_of_word(word);
        let words_per_rank = (footprint_words / self.geometry.total_ranks() as u64).max(1);
        let bits = 64 - (words_per_rank - 1).leading_zeros().max(1);
        let line = word / 8;
        let word_on_rank =
            (line / self.geometry.total_ranks() as u64) * 8 + (word % 8);
        let scrambled = self.scramblers[rank.dimm as usize].scramble(word_on_rank, bits);

        // Row-major split: 1024 words per 8 KiB row, 8 banks.
        let column = (scrambled % 1024) as u16;
        let row_global = scrambled / 1024;
        let bank = (row_global % 8) as u8;
        let row = (row_global / 8) as u32;
        DramCoord { rank, bank, row, column }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrambler_is_a_bijection() {
        let s = AddressScrambler::new(39, 2);
        let bits = 16;
        let mut seen = vec![false; 1 << bits];
        for w in 0..(1u64 << bits) {
            let out = s.scramble(w, bits) as usize;
            assert!(!seen[out], "collision at {w}");
            seen[out] = true;
        }
    }

    /// Inverts [`AddressScrambler::scramble`].
    fn unscramble(s: &AddressScrambler, word: u64, bits: u32) -> u64 {
        let mask = (1u64 << bits) - 1;
        let mut x = word & mask;
        x ^= (s.key >> 23) & mask;
        // Invert the rotate-merge: reconstruct the pre-rotation value.
        let low_bits = bits / 2;
        let high = (x & ((1 << (bits - low_bits)) - 1)) << low_bits;
        let low = x >> (bits - low_bits);
        x = (high | low) & mask;
        x ^= (s.key >> 7) & mask;
        x & mask
    }

    #[test]
    fn unscramble_inverts_scramble() {
        let s = AddressScrambler::new(1234, 0);
        for bits in [10u32, 16, 20] {
            for w in (0..(1u64 << bits)).step_by(97) {
                assert_eq!(unscramble(&s, s.scramble(w, bits), bits), w, "bits {bits} word {w}");
            }
        }
    }

    #[test]
    fn different_dimms_scramble_differently() {
        let a = AddressScrambler::new(39, 0);
        let b = AddressScrambler::new(39, 1);
        let differing =
            (0..1000u64).filter(|&w| a.scramble(w, 16) != b.scramble(w, 16)).count();
        assert!(differing > 900);
    }

    #[test]
    fn locate_is_consistent_with_interleave() {
        let map = AddressMap::new(ServerGeometry::x_gene2(), 39);
        let footprint = 1u64 << 27;
        for w in (0..footprint).step_by(1_048_571) {
            let coord = map.locate(w, footprint);
            assert_eq!(coord.rank, ServerGeometry::x_gene2().rank_of_word(w));
            assert!(coord.bank < 8);
            assert!(coord.column < 1024);
        }
    }

    #[test]
    fn distinct_words_map_to_distinct_cells() {
        let map = AddressMap::new(ServerGeometry::x_gene2(), 7);
        let footprint = 1u64 << 20;
        let mut seen = std::collections::HashSet::new();
        for w in 0..(1u64 << 14) {
            let c = map.locate(w, footprint);
            assert!(seen.insert((c.rank.index(), c.bank, c.row, c.column)), "collision at {w}");
        }
    }
}
