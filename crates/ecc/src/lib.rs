//! # wade-ecc — SECDED (72,64) error-correcting code
//!
//! Server-grade DIMMs protect every 64-bit word with 8 check bits forming a
//! *single-error-correct, double-error-detect* (SECDED) code. The paper
//! (Table I) classifies DRAM errors by how this code reacts:
//!
//! | corrupted bits | outcome               | class |
//! |----------------|-----------------------|-------|
//! | 1              | corrected             | CE    |
//! | 2              | detected, uncorrected | UE    |
//! | ≥3             | may be miscorrected   | SDC   |
//!
//! This crate implements the one codec the WADE workspace uses: an
//! extended-Hamming (72,64) code with syndrome decoding, plus the error
//! classification the rest of the workspace builds on. The CE/UE/SDC
//! taxonomy above depends only on how many bits a word lost, not on the
//! code's construction, so the pipeline, Table I and the benchmarks all
//! share this [`Secded`].
//!
//! ```
//! use wade_ecc::{Secded, DecodeOutcome};
//!
//! let codec = Secded::new();
//! let word = codec.encode(0xDEAD_BEEF_CAFE_F00D);
//! // Flip one stored bit: corrected, data recovered.
//! let mut stored = word;
//! stored.flip_bit(17);
//! match codec.decode(stored) {
//!     DecodeOutcome::Corrected { data, .. } => assert_eq!(data, 0xDEAD_BEEF_CAFE_F00D),
//!     other => panic!("expected correction, got {other:?}"),
//! }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod classify;
mod hamming;
mod secded;
mod word;

pub use classify::{classify_flip_count, ErrorClass};
pub use hamming::{HammingLayout, CODE_BITS, DATA_BITS};
pub use secded::{DecodeOutcome, Secded};
pub use word::Codeword;
