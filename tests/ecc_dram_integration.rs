//! Cross-crate integration: error events from the DRAM simulator flow
//! through the real SECDED codec and the physical address map, matching
//! the paper's SLIMpro reporting path (errors are corrected/detected by
//! ECC hardware and reported with DIMM/bank/row/column coordinates).

use wade::dram::{AddressMap, DramDevice, DramUsageProfile, ErrorSim, OperatingPoint, ServerGeometry};
use wade::ecc::{DecodeOutcome, ErrorClass, Secded, classify_flip_count};

fn sample_run() -> (DramDevice, wade::dram::RunResult) {
    let device = DramDevice::with_seed(39);
    let profile = DramUsageProfile::uniform_synthetic(1 << 27);
    let op = OperatingPoint::relaxed(2.283, 60.0);
    let run = ErrorSim::new(&device).run(&profile, op, 7200.0, 1);
    (device, run)
}

#[test]
fn every_simulated_ce_is_corrected_by_secded() {
    let (_, run) = sample_run();
    assert!(!run.ce_events.is_empty(), "need CE events for this test");
    let codec = Secded::new();
    for event in run.ce_events.iter().take(500) {
        // Reconstruct the stored word: pseudo-data keyed by the word index
        // (the simulator tracks locations, not payloads), with the event's
        // lane flipped — exactly what the memory controller would fetch.
        let data = event.word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let stored = codec.encode(data).with_flipped(event.lane);
        match codec.decode(stored) {
            DecodeOutcome::Corrected { data: d, lane } => {
                assert_eq!(d, data);
                assert_eq!(lane, event.lane);
            }
            other => panic!("SECDED failed to correct lane {}: {other:?}", event.lane),
        }
    }
}

#[test]
fn a_ue_word_is_detected_not_miscorrected() {
    // A UE in the simulator means two corrupted bits in one word; the codec
    // must flag it rather than hand corrupt data to the CPU.
    let codec = Secded::new();
    let data = 0xBAD0_BEEF_0000_CAFE;
    let stored = codec.encode(data).with_flipped(3).with_flipped(47);
    assert_eq!(codec.decode(stored), DecodeOutcome::DetectedUncorrectable);
    assert_eq!(classify_flip_count(2), Some(ErrorClass::Uncorrectable));
}

#[test]
fn ce_events_map_to_physical_coordinates() {
    let (device, run) = sample_run();
    let map = AddressMap::new(*device.geometry(), device.seed());
    let geometry = ServerGeometry::x_gene2();
    for event in run.ce_events.iter().take(500) {
        let coord = map.locate(event.word, run.footprint_words);
        // The physical rank must agree with the interleave the simulator
        // used to attribute the error.
        assert_eq!(coord.rank, event.rank, "word {}", event.word);
        assert_eq!(coord.rank, geometry.rank_of_word(event.word));
        assert!(coord.bank < 8);
    }
}

#[test]
fn error_classes_cover_the_simulated_event_kinds() {
    let (_, run) = sample_run();
    // Single-bit events → CE class; the run's UE (if any) → UE class.
    assert_eq!(classify_flip_count(1), Some(ErrorClass::Correctable));
    if run.ue.is_some() {
        assert_eq!(classify_flip_count(2), Some(ErrorClass::Uncorrectable));
    }
    // SDC class exists but the campaign never observed one — matching the
    // paper ("we have discovered no SDCs", §V-B).
    assert_eq!(classify_flip_count(3), Some(ErrorClass::SilentDataCorruption));
}
