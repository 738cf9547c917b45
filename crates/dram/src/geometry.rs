//! Server memory geometry: DIMMs, ranks and chips.

use serde::{Deserialize, Serialize};

/// Total ranks on the modelled server (4 DIMMs × 2 ranks).
pub const RANK_COUNT: usize = 8;

/// Identifies one rank on the server, as the paper reports errors
/// ("DIMM2/rank0" etc. in Figs. 8 and 9b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RankId {
    /// DIMM slot, `0..4`.
    pub dimm: u8,
    /// Rank within the DIMM, `0..2`.
    pub rank: u8,
}

impl RankId {
    /// Flat index `0..8` (dimm-major).
    pub fn index(&self) -> usize {
        self.dimm as usize * 2 + self.rank as usize
    }

    /// Builds a rank id from a flat index.
    ///
    /// # Panics
    /// Panics if `index >= RANK_COUNT`.
    pub fn from_index(index: usize) -> Self {
        assert!(index < RANK_COUNT, "rank index {index} out of range");
        Self { dimm: (index / 2) as u8, rank: (index % 2) as u8 }
    }

    /// Iterates over all ranks in order.
    pub fn all() -> impl Iterator<Item = RankId> {
        (0..RANK_COUNT).map(RankId::from_index)
    }
}

impl core::fmt::Display for RankId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "DIMM{}/rank{}", self.dimm, self.rank)
    }
}

/// Physical organisation of the server's memory, mirroring the paper's
/// X-Gene2 setup (§IV-A): 4 Micron DDR3 8 GB DIMMs, one per MCU, each with
/// 2 ranks of 16 data + 2 ECC x8 chips.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerGeometry {
    /// DIMMs installed (one per MCU).
    pub dimms: u8,
    /// Ranks per DIMM.
    pub ranks_per_dimm: u8,
    /// Data chips per DIMM.
    pub data_chips_per_dimm: u8,
    /// ECC chips per DIMM.
    pub ecc_chips_per_dimm: u8,
    /// Capacity per DIMM in bytes.
    pub dimm_bytes: u64,
    /// DRAM row-buffer size in bytes (8 KiB for the modelled chips).
    pub row_bytes: u64,
}

impl ServerGeometry {
    /// The paper's configuration.
    pub fn x_gene2() -> Self {
        Self {
            dimms: 4,
            ranks_per_dimm: 2,
            data_chips_per_dimm: 16,
            ecc_chips_per_dimm: 2,
            dimm_bytes: 8 << 30,
            row_bytes: 8 << 10,
        }
    }

    /// Total characterized chips (the paper's "72 chips").
    pub fn total_chips(&self) -> u32 {
        self.dimms as u32 * (self.data_chips_per_dimm + self.ecc_chips_per_dimm) as u32
    }

    /// Total ranks.
    pub fn total_ranks(&self) -> usize {
        self.dimms as usize * self.ranks_per_dimm as usize
    }

    /// Which rank a 64-bit word of an allocation lands on. Cache lines
    /// interleave across channels (one DIMM per channel) and then across
    /// ranks, so consecutive lines round-robin the 8 ranks.
    pub fn rank_of_word(&self, word_index: u64) -> RankId {
        // 8 words per 64-byte line; lines round-robin ranks.
        let line = word_index / 8;
        RankId::from_index((line % self.total_ranks() as u64) as usize)
    }
}

impl Default for ServerGeometry {
    fn default() -> Self {
        Self::x_gene2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_has_72_chips() {
        let g = ServerGeometry::x_gene2();
        assert_eq!(g.total_chips(), 72);
        assert_eq!(g.total_ranks(), RANK_COUNT);
        assert_eq!(g.dimms as u64 * g.dimm_bytes, 32 << 30);
    }

    #[test]
    fn rank_ids_roundtrip() {
        for i in 0..RANK_COUNT {
            assert_eq!(RankId::from_index(i).index(), i);
        }
        assert_eq!(RankId::all().count(), RANK_COUNT);
    }

    #[test]
    fn rank_display_matches_paper_labels() {
        assert_eq!(RankId { dimm: 2, rank: 0 }.to_string(), "DIMM2/rank0");
    }

    #[test]
    fn words_interleave_across_ranks() {
        let g = ServerGeometry::x_gene2();
        // Words 0..8 share a cache line → same rank.
        assert_eq!(g.rank_of_word(0), g.rank_of_word(7));
        // Next line moves to the next rank.
        assert_eq!(g.rank_of_word(8).index(), 1);
        // Line 8 wraps back to rank 0.
        assert_eq!(g.rank_of_word(64).index(), 0);
    }

    #[test]
    fn interleave_is_uniform() {
        let g = ServerGeometry::x_gene2();
        let mut counts = [0u64; RANK_COUNT];
        for w in 0..64_000u64 {
            counts[g.rank_of_word(w).index()] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 8000);
        }
    }

    #[test]
    fn rows_for_words() {
        // Number of DRAM rows spanned by `words` 64-bit words.
        let rows = |g: &ServerGeometry, words: u64| (words * 8).div_ceil(g.row_bytes).max(1);
        let g = ServerGeometry::x_gene2();
        assert_eq!(rows(&g, 1024), 1); // 8 KiB exactly
        assert_eq!(rows(&g, 1025), 2);
        assert_eq!(rows(&g, 0), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rank_index_panics() {
        RankId::from_index(8);
    }
}
