//! Error classification (paper Table I).

use serde::{Deserialize, Serialize};

/// DRAM error classes as seen through SECDED ECC (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ErrorClass {
    /// Single corrupted bit in a 64-bit word: corrected by ECC.
    Correctable,
    /// More than one corrupted bit: detected but uncorrectable.
    ///
    /// On the paper's X-Gene2 framework any detected UE crashes the system.
    Uncorrectable,
    /// Three or more corrupted bits that alias past SECDED: silent data
    /// corruption, invisible to hardware.
    SilentDataCorruption,
}

impl ErrorClass {
    /// Short abbreviation used throughout the paper (CE / UE / SDC).
    pub(crate) fn abbreviation(&self) -> &'static str {
        match self {
            ErrorClass::Correctable => "CE",
            ErrorClass::Uncorrectable => "UE",
            ErrorClass::SilentDataCorruption => "SDC",
        }
    }
}

impl core::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.abbreviation())
    }
}

/// Classifies a corruption by the number of flipped bits per 64-bit word,
/// following the paper's Table I. `flips == 0` returns `None`.
///
/// Note this is the *nominal* classification; whether a ≥3-bit corruption
/// actually manifests as an SDC or a detected UE depends on syndrome
/// aliasing, which [`crate::Secded::decode_with_oracle`] models exactly.
pub fn classify_flip_count(flips: u32) -> Option<ErrorClass> {
    match flips {
        0 => None,
        1 => Some(ErrorClass::Correctable),
        2 => Some(ErrorClass::Uncorrectable),
        _ => Some(ErrorClass::SilentDataCorruption),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_mapping() {
        assert_eq!(classify_flip_count(0), None);
        assert_eq!(classify_flip_count(1), Some(ErrorClass::Correctable));
        assert_eq!(classify_flip_count(2), Some(ErrorClass::Uncorrectable));
        assert_eq!(classify_flip_count(3), Some(ErrorClass::SilentDataCorruption));
        assert_eq!(classify_flip_count(9), Some(ErrorClass::SilentDataCorruption));
    }

    #[test]
    fn abbreviations() {
        assert_eq!(ErrorClass::Correctable.to_string(), "CE");
        assert_eq!(ErrorClass::Uncorrectable.to_string(), "UE");
        assert_eq!(ErrorClass::SilentDataCorruption.to_string(), "SDC");
    }

    #[test]
    fn ordering_matches_severity() {
        assert!(ErrorClass::Correctable < ErrorClass::Uncorrectable);
        assert!(ErrorClass::Uncorrectable < ErrorClass::SilentDataCorruption);
    }
}
