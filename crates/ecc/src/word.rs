//! The 72-bit stored codeword type.

use serde::{Deserialize, Serialize};

/// A stored 72-bit ECC codeword: 64 data bits plus 8 check bits.
///
/// Bit indices `0..64` address the data lanes, `64..72` the check lanes.
/// The mapping from these *storage lanes* to Hamming code positions is owned
/// by `HammingLayout`; `Codeword` itself is a plain container so it
/// can model raw in-DRAM corruption (bit flips happen to stored lanes, the
/// decoder later interprets them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Codeword {
    data: u64,
    check: u8,
}

impl Codeword {
    /// Creates a codeword from raw data and check lanes.
    ///
    /// No validity check is performed: arbitrary (possibly corrupt) bit
    /// patterns are representable on purpose.
    pub(crate) fn from_raw(data: u64, check: u8) -> Self {
        Self { data, check }
    }

    /// The 64 data lanes as stored (possibly corrupt).
    pub(crate) fn data(&self) -> u64 {
        self.data
    }

    /// The 8 check lanes as stored (possibly corrupt).
    pub fn check(&self) -> u8 {
        self.check
    }

    /// Flips the stored bit at lane `lane` (`0..72`), modelling a DRAM cell
    /// losing (or spuriously gaining) charge.
    ///
    /// # Panics
    /// Panics if `lane >= 72`.
    pub fn flip_bit(&mut self, lane: u8) {
        assert!(lane < 72, "codeword lane {lane} out of range");
        if lane < 64 {
            self.data ^= 1u64 << lane;
        } else {
            self.check ^= 1u8 << (lane - 64);
        }
    }

    /// Returns a copy with the given lane flipped.
    #[must_use]
    pub fn with_flipped(mut self, lane: u8) -> Self {
        self.flip_bit(lane);
        self
    }
}

impl core::fmt::Display for Codeword {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:016x}+{:02x}", self.data, self.check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stored bit at lane `lane` (`0..72`); panics past lane 71.
    fn bit(w: &Codeword, lane: u8) -> bool {
        assert!(lane < 72, "codeword lane {lane} out of range");
        if lane < 64 {
            (w.data >> lane) & 1 == 1
        } else {
            (w.check >> (lane - 64)) & 1 == 1
        }
    }

    /// Number of lanes that differ (Hamming distance).
    fn distance(a: &Codeword, b: &Codeword) -> u32 {
        (a.data ^ b.data).count_ones() + (a.check ^ b.check).count_ones()
    }

    #[test]
    fn flip_roundtrip_every_lane() {
        let base = Codeword::from_raw(0x0123_4567_89AB_CDEF, 0x5A);
        for lane in 0..72 {
            let mut w = base;
            w.flip_bit(lane);
            assert_ne!(w, base);
            assert_eq!(distance(&w, &base), 1);
            w.flip_bit(lane);
            assert_eq!(w, base);
        }
    }

    #[test]
    fn bit_reads_match_flips() {
        let mut w = Codeword::default();
        for lane in (0..72).step_by(3) {
            assert!(!bit(&w, lane));
            w.flip_bit(lane);
            assert!(bit(&w, lane));
        }
    }

    #[test]
    fn distance_counts_both_fields() {
        let a = Codeword::from_raw(0, 0);
        let b = Codeword::from_raw(0b1011, 0b1);
        assert_eq!(distance(&a, &b), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        bit(&Codeword::default(), 72);
    }

    #[test]
    fn display_is_stable() {
        let w = Codeword::from_raw(0xDEAD, 0x3);
        assert_eq!(w.to_string(), "000000000000dead+03");
    }
}
