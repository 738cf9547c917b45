//! Table I — DRAM error classes under SECDED ECC.
//!
//! Exhaustively verifies the codec against the table: every 1-bit
//! corruption corrects, every 2-bit corruption detects, and ≥3-bit
//! corruptions split between detected UEs and silent corruptions.

use wade_ecc::{DecodeOutcome, Secded};

fn main() {
    let codec = Secded::new();
    let data = 0xDEAD_BEEF_0123_4567u64;
    let word = codec.encode(data);

    let mut corrected = 0u64;
    for lane in 0..72 {
        if matches!(codec.decode(word.with_flipped(lane)), DecodeOutcome::Corrected { data: d, .. } if d == data)
        {
            corrected += 1;
        }
    }

    let mut detected2 = 0u64;
    let mut total2 = 0u64;
    for a in 0..72u8 {
        for b in (a + 1)..72 {
            total2 += 1;
            if codec.decode(word.with_flipped(a).with_flipped(b))
                == DecodeOutcome::DetectedUncorrectable
            {
                detected2 += 1;
            }
        }
    }

    let mut detected3 = 0u64;
    let mut sdc3 = 0u64;
    let mut total3 = 0u64;
    for a in 0..72u8 {
        for b in (a + 1)..72 {
            for c in (b + 1)..72 {
                total3 += 1;
                match codec.decode_with_oracle(
                    word.with_flipped(a).with_flipped(b).with_flipped(c),
                    data,
                ) {
                    DecodeOutcome::DetectedUncorrectable => detected3 += 1,
                    DecodeOutcome::SilentCorruption { .. } => sdc3 += 1,
                    _ => {}
                }
            }
        }
    }

    println!("Table I: DRAM error types under ECC SECDED (72,64)");
    println!("num corrupted bits | outcome                  | abbreviation | exhaustive check");
    println!("-------------------+--------------------------+--------------+------------------------------");
    println!(
        "1                  | corrected                | CE           | {corrected}/72 corrected"
    );
    println!(
        "2                  | uncorrected/detected     | UE           | {detected2}/{total2} detected"
    );
    println!(
        ">2                 | uncorrected/undetected   | SDC          | {sdc3}/{total3} silent, {detected3}/{total3} detected"
    );
    assert_eq!(corrected, 72);
    assert_eq!(detected2, total2);
    assert!(sdc3 > 0);
    println!("\npaper: Table I semantics | measured: reproduced exactly (see counts above)");
}
