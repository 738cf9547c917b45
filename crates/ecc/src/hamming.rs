//! Extended-Hamming layout for the (72,64) SECDED code.
//!
//! We use the classical construction: code positions `1..=71` carry the
//! Hamming(71,64)-shortened code, with check bits at the seven power-of-two
//! positions and data bits at the remaining 64 positions; position 0 carries
//! the overall parity bit that upgrades single-error-correction to SECDED.

/// Number of data bits protected per codeword.
pub(crate) const DATA_BITS: usize = 64;

/// Total stored bits per codeword (data + check).
pub(crate) const CODE_BITS: usize = 72;

/// Number of Hamming check bits (excluding the overall parity bit).
const HAMMING_CHECKS: usize = 7;

/// Static mapping between storage lanes (how [`crate::Codeword`] stores
/// bits) and Hamming code positions (what the syndrome arithmetic uses).
///
/// The layout is deterministic and identical for every [`crate::Secded`]
/// instance, which mirrors real memory controllers where the H-matrix is
/// fixed in silicon.
#[derive(Debug, Clone)]
pub(crate) struct HammingLayout {
    /// `data_pos[i]` = Hamming position (1..=71, non-power-of-two) of data lane `i`.
    data_pos: [u8; DATA_BITS],
    /// `pos_kind[p]` for positions 0..72: what lives at Hamming position `p`.
    pos_to_lane: [u8; CODE_BITS],
}

impl HammingLayout {
    /// Builds the canonical layout.
    pub(crate) fn new() -> Self {
        let mut data_pos = [0u8; DATA_BITS];
        let mut pos_to_lane = [0u8; CODE_BITS];
        // Check lanes: lane 64 = overall parity at position 0,
        // lanes 65..=71 = Hamming checks at positions 1,2,4,...,64.
        pos_to_lane[0] = 64;
        for (k, lane) in (0..HAMMING_CHECKS).map(|k| (k, 65 + k as u8)) {
            pos_to_lane[1 << k] = lane;
        }
        let mut lane = 0usize;
        // `pos` is a Hamming code position, not a plain index: it drives
        // the power-of-two test and two tables at once.
        #[allow(clippy::needless_range_loop)]
        for pos in 1..CODE_BITS {
            if (pos & (pos - 1)) != 0 {
                // Non-power-of-two: data position.
                data_pos[lane] = pos as u8;
                pos_to_lane[pos] = lane as u8;
                lane += 1;
            }
        }
        assert_eq!(lane, DATA_BITS);
        Self { data_pos, pos_to_lane }
    }

    /// Storage lane (`0..72`) living at Hamming position `pos` (`0..72`).
    pub(crate) fn lane_at_position(&self, pos: usize) -> u8 {
        self.pos_to_lane[pos]
    }

    /// Computes the 7-bit Hamming syndrome contribution of the data lanes.
    ///
    /// Each set data bit at position `p` XORs `p` into the syndrome.
    pub(crate) fn data_syndrome(&self, data: u64) -> u8 {
        let mut syn = 0u8;
        let mut remaining = data;
        while remaining != 0 {
            let lane = remaining.trailing_zeros() as usize;
            syn ^= self.data_pos[lane];
            remaining &= remaining - 1;
        }
        syn
    }

    /// Number of Hamming check bits (excluding overall parity).
    pub(crate) fn check_count() -> usize {
        HAMMING_CHECKS
    }
}

impl Default for HammingLayout {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_positions_are_non_powers_in_range() {
        let layout = HammingLayout::new();
        for lane in 0..DATA_BITS {
            let p = layout.data_pos[lane] as usize;
            assert!((3..CODE_BITS).contains(&p));
            assert!(!p.is_power_of_two(), "lane {lane} at check pos {p}");
        }
    }

    #[test]
    fn data_positions_are_unique() {
        let layout = HammingLayout::new();
        let mut seen = [false; CODE_BITS];
        for lane in 0..DATA_BITS {
            let p = layout.data_pos[lane] as usize;
            assert!(!seen[p], "duplicate position {p}");
            seen[p] = true;
        }
    }

    #[test]
    fn position_lane_mapping_is_inverse() {
        let layout = HammingLayout::new();
        for lane in 0..DATA_BITS {
            let p = layout.data_pos[lane] as usize;
            assert_eq!(layout.lane_at_position(p) as usize, lane);
        }
        assert_eq!(layout.lane_at_position(0), 64);
        for k in 0..7 {
            assert_eq!(layout.lane_at_position(1 << k), 65 + k as u8);
        }
    }

    #[test]
    fn syndrome_of_single_bit_is_its_position() {
        let layout = HammingLayout::new();
        for lane in 0..DATA_BITS {
            let syn = layout.data_syndrome(1u64 << lane);
            assert_eq!(syn, layout.data_pos[lane]);
        }
    }

    #[test]
    fn syndrome_is_linear() {
        let layout = HammingLayout::new();
        let a = 0x0F0F_1234_5678_90AB;
        let b = 0xFFFF_0000_1111_2222;
        assert_eq!(
            layout.data_syndrome(a) ^ layout.data_syndrome(b),
            layout.data_syndrome(a ^ b)
        );
    }
}
