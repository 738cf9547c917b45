//! The SECDED codec: encode, syndrome decode and outcome reporting.

use crate::hamming::HammingLayout;
use crate::word::Codeword;
use serde::{Deserialize, Serialize};

/// Result of decoding a (possibly corrupted) stored codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecodeOutcome {
    /// Syndrome and parity clean: the stored data is returned as-is.
    Clean {
        /// Recovered 64-bit data word.
        data: u64,
    },
    /// A single-bit error was located and corrected (a *CE* in Table I).
    Corrected {
        /// Recovered 64-bit data word after correction.
        data: u64,
        /// Storage lane (`0..72`) that was corrected.
        lane: u8,
    },
    /// A double-bit error was detected but cannot be corrected (a *UE*).
    ///
    /// Real servers raise a machine-check here; in the paper's framework a
    /// detected UE crashes the system.
    DetectedUncorrectable,
    /// The decoder "corrected" the word but produced wrong data, or saw a
    /// clean syndrome on corrupt data. Only observable with oracle knowledge
    /// of the original data; see [`Secded::decode_with_oracle`].
    SilentCorruption {
        /// The (wrong) data the decoder would hand to the CPU.
        data: u64,
    },
}

impl DecodeOutcome {
    /// The data word handed to the consumer, if the decoder produced one.
    pub fn data(&self) -> Option<u64> {
        match self {
            DecodeOutcome::Clean { data }
            | DecodeOutcome::Corrected { data, .. }
            | DecodeOutcome::SilentCorruption { data } => Some(*data),
            DecodeOutcome::DetectedUncorrectable => None,
        }
    }
}

/// SECDED (72,64) codec.
///
/// ```
/// use wade_ecc::Secded;
/// let codec = Secded::new();
/// let stored = codec.encode(42);
/// assert_eq!(codec.decode(stored).data(), Some(42));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Secded {
    layout: HammingLayout,
}

impl Secded {
    /// Creates a codec with the canonical (72,64) extended-Hamming layout.
    pub fn new() -> Self {
        Self { layout: HammingLayout::new() }
    }

    /// Encodes a 64-bit data word into a 72-bit codeword.
    pub fn encode(&self, data: u64) -> Codeword {
        let syn = self.layout.data_syndrome(data);
        // Check bit k equals the parity of data positions with bit k set,
        // i.e. bit k of the data syndrome.
        let mut check = 0u8;
        for k in 0..HammingLayout::check_count() {
            if (syn >> k) & 1 == 1 {
                check |= 1 << (k + 1); // check lanes 65.. map to check bits 1..
            }
        }
        // Overall parity (lane 64, stored in check bit 0) makes the total
        // 72-bit weight even.
        let total = data.count_ones() + (check >> 1).count_ones();
        if total % 2 == 1 {
            check |= 1;
        }
        Codeword::from_raw(data, check)
    }

    /// Computes the 7-bit syndrome and the overall parity of a stored word.
    fn syndrome(&self, stored: Codeword) -> (u8, bool) {
        let mut syn = self.layout.data_syndrome(stored.data());
        for k in 0..HammingLayout::check_count() {
            if (stored.check() >> (k + 1)) & 1 == 1 {
                syn ^= 1 << k;
            }
        }
        let parity = (stored.data().count_ones() + stored.check().count_ones()) % 2 == 1;
        (syn, parity)
    }

    /// Decodes a stored codeword as the hardware would (no oracle).
    ///
    /// Triple-bit (and wider odd-weight) corruptions can alias to a valid
    /// single-bit syndrome; hardware cannot distinguish those from genuine
    /// CEs, so this function reports them as `Corrected` with wrong data.
    /// Use [`Secded::decode_with_oracle`] when the true data is known.
    pub fn decode(&self, stored: Codeword) -> DecodeOutcome {
        let (syn, parity) = self.syndrome(stored);
        match (syn, parity) {
            (0, false) => DecodeOutcome::Clean { data: stored.data() },
            (0, true) => {
                // Error in the overall parity bit itself; data is intact.
                DecodeOutcome::Corrected { data: stored.data(), lane: 64 }
            }
            (s, true) => {
                let pos = s as usize;
                if pos >= crate::hamming::CODE_BITS {
                    // Syndrome points outside the shortened code: detected.
                    return DecodeOutcome::DetectedUncorrectable;
                }
                let lane = self.layout.lane_at_position(pos);
                let corrected = stored.with_flipped(lane);
                DecodeOutcome::Corrected { data: corrected.data(), lane }
            }
            (_, false) => DecodeOutcome::DetectedUncorrectable,
        }
    }

    /// Decodes with knowledge of the originally written data, so that
    /// miscorrections and undetected corruptions are reported as
    /// [`DecodeOutcome::SilentCorruption`] (the paper's *SDC* class).
    pub fn decode_with_oracle(&self, stored: Codeword, original: u64) -> DecodeOutcome {
        match self.decode(stored) {
            DecodeOutcome::Clean { data } if data != original => {
                DecodeOutcome::SilentCorruption { data }
            }
            DecodeOutcome::Corrected { data, .. } if data != original => {
                DecodeOutcome::SilentCorruption { data }
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_roundtrip() {
        let codec = Secded::new();
        for data in [0u64, u64::MAX, 0xDEAD_BEEF_CAFE_F00D, 1, 1 << 63] {
            let w = codec.encode(data);
            assert_eq!(codec.decode(w), DecodeOutcome::Clean { data });
        }
    }

    #[test]
    fn every_single_flip_is_corrected() {
        let codec = Secded::new();
        let data = 0x0123_4567_89AB_CDEF;
        let w = codec.encode(data);
        for lane in 0..72 {
            let outcome = codec.decode(w.with_flipped(lane));
            match outcome {
                DecodeOutcome::Corrected { data: d, lane: l } => {
                    assert_eq!(d, data, "lane {lane} corrected to wrong data");
                    assert_eq!(l, lane, "wrong lane reported");
                }
                other => panic!("lane {lane}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_double_flip_is_detected() {
        let codec = Secded::new();
        let data = 0xFEED_FACE_DEAD_BEEF;
        let w = codec.encode(data);
        for a in 0..72u8 {
            for b in (a + 1)..72 {
                let corrupted = w.with_flipped(a).with_flipped(b);
                assert_eq!(
                    codec.decode(corrupted),
                    DecodeOutcome::DetectedUncorrectable,
                    "flips ({a},{b}) not detected"
                );
            }
        }
    }

    #[test]
    fn triple_flips_are_miscorrected_or_detected() {
        let codec = Secded::new();
        let data = 0x1111_2222_3333_4444;
        let w = codec.encode(data);
        let mut sdc = 0usize;
        let mut detected = 0usize;
        for a in 0..72u8 {
            for b in (a + 1)..72 {
                for c in (b + 1)..72 {
                    let corrupted = w.with_flipped(a).with_flipped(b).with_flipped(c);
                    match codec.decode_with_oracle(corrupted, data) {
                        DecodeOutcome::SilentCorruption { .. } => sdc += 1,
                        DecodeOutcome::DetectedUncorrectable => detected += 1,
                        DecodeOutcome::Corrected { .. } | DecodeOutcome::Clean { .. } => {
                            panic!("triple flip ({a},{b},{c}) decoded as correct data")
                        }
                    }
                }
            }
        }
        // Odd-weight corruptions look like single errors to the decoder, so a
        // large fraction must miscorrect (that is exactly why SDCs exist).
        assert!(sdc > 0, "no SDCs among triple flips");
        assert!(detected > 0, "no detected UEs among triple flips");
    }

    #[test]
    fn parity_lane_error_is_corrected_without_touching_data() {
        let codec = Secded::new();
        let data = 77;
        let w = codec.encode(data).with_flipped(64);
        assert_eq!(codec.decode(w), DecodeOutcome::Corrected { data, lane: 64 });
    }

    #[test]
    fn oracle_decode_matches_plain_decode_when_honest() {
        let codec = Secded::new();
        let data = 0xABCD;
        let w = codec.encode(data);
        assert_eq!(codec.decode_with_oracle(w, data), DecodeOutcome::Clean { data });
        let one = w.with_flipped(3);
        assert!(matches!(
            codec.decode_with_oracle(one, data),
            DecodeOutcome::Corrected { .. }
        ));
    }
}
