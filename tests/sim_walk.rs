//! The simulator's weak-cell walk (ARCHITECTURE.md §3): `ErrorSim::run`
//! must produce exactly the results recorded before the blocked walk
//! replaced the per-cell one, and must stay bit-identical to the kept
//! per-cell reference, `ErrorSim::run_reference`, on any pool width.

use std::collections::BTreeSet;
use wade::dram::{
    DramDevice, DramUsageProfile, ErrorPhysics, ErrorSim, OperatingPoint, RetentionLaw,
    ReuseQuantiles, RunResult, ServerGeometry,
};
use wade::fleet::{FleetOutcome, FleetSpec, FleetSweep};

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Every field of a run as little-endian words: each CE's time bits, word,
/// lane and rank, the UE (or a marker for none), footprint and duration.
fn run_words(run: &RunResult) -> Vec<u64> {
    let mut words = vec![run.ce_events.len() as u64];
    for e in &run.ce_events {
        words.extend([e.t_s.to_bits(), e.word, e.lane as u64, e.rank.index() as u64]);
    }
    match run.ue {
        Some(ue) => words.extend([1, ue.t_s.to_bits(), ue.rank.index() as u64]),
        None => words.push(0),
    }
    words.extend([run.footprint_words, run.duration_s.to_bits()]);
    words
}

fn digest_runs<'a>(runs: impl IntoIterator<Item = &'a RunResult>) -> String {
    let bytes = runs.into_iter().flat_map(run_words).flat_map(u64::to_le_bytes);
    format!("{:016x}", fnv1a(bytes))
}

/// 1 GiB of uniformly accessed words with the synthetic profile's data.
fn uniform() -> DramUsageProfile {
    DramUsageProfile::uniform_synthetic(1 << 27)
}

/// Random data at full entropy: data coupling shortens retention enough
/// that at the longest refresh period the thinning cap reaches 1 and the
/// whole population is walked.
fn high_entropy() -> DramUsageProfile {
    let mut p = uniform();
    p.entropy_bits = 32.0;
    p
}

/// Reuse times spread from 0.15 to 2.4 s, all reaching DRAM: implicit
/// refresh decides a large share of the cells below the thinning cap, so
/// the refresh gate's quantile brackets fall inside the walked population.
/// (With the synthetic profile's 16.7 s reuse the gate's threshold is the
/// thinning cap itself.)
fn reused() -> DramUsageProfile {
    let mut p = uniform();
    p.reuse = ReuseQuantiles::new((1..=16).map(|i| 0.15 * i as f64).collect());
    p.dram_filter = 1.0;
    p
}

/// Reads so frequent that discovery follows failure onset almost at once:
/// cells whose onset falls just inside the run end are discovered, which
/// puts the early exit's onset floor to the test.
fn fast_reads() -> DramUsageProfile {
    let mut p = high_entropy();
    p.dram_read_rate_hz = 1.0e11;
    p
}

fn named_profile(name: &str) -> DramUsageProfile {
    match name {
        "uniform" => uniform(),
        "high_entropy" => high_entropy(),
        "reused" => reused(),
        _ => unreachable!("unknown profile {name}"),
    }
}

/// `ErrorSim::run` digests recorded with the per-cell walk, per (device,
/// profile, run length), each over 50/60/70 °C × TREFP 0.618/1.450/2.283 s
/// in that order (run seed 3).
const PINNED_RUNS: [(u64, &str, f64, &str); 12] = [
    (39, "uniform", 900.0, "c16b946fe4b11884"),
    (39, "uniform", 7200.0, "dfeeb9b3dd0fec40"),
    (39, "high_entropy", 900.0, "f5d0bb5b55b1de44"),
    (39, "high_entropy", 7200.0, "a24e680e35fc259b"),
    (42, "uniform", 900.0, "8af3e0a1e2aeb7a4"),
    (42, "uniform", 7200.0, "36422ecf7f3d2a24"),
    (42, "high_entropy", 900.0, "6f3751bb061ce6e1"),
    (42, "high_entropy", 7200.0, "1a1d9f3b41cc81ba"),
    (39, "reused", 900.0, "c8535829e8b8ac7c"),
    (39, "reused", 7200.0, "d155885dda975833"),
    (42, "reused", 900.0, "effa94d7bd9c7581"),
    (42, "reused", 7200.0, "e382afa1fb62ac05"),
];

/// `devices_json()` digest of the small fleet below, recorded with the
/// per-cell walk.
const PINNED_FLEET: &str = "cdaffc53b9063747";

#[test]
fn runs_match_the_digests_recorded_with_the_per_cell_walk() {
    let mut total_ces = 0;
    let mut digests = Vec::new();
    for (seed, name, duration_s, _) in PINNED_RUNS {
        let device = DramDevice::with_seed(seed);
        let sim = ErrorSim::new(&device);
        let profile = named_profile(name);
        let runs: Vec<RunResult> = [50.0, 60.0, 70.0]
            .into_iter()
            .flat_map(|temp| {
                [0.618, 1.450, 2.283].map(|t| OperatingPoint::relaxed(t, temp))
            })
            .map(|op| sim.run(&profile, op, duration_s, 3))
            .collect();
        total_ces += runs.iter().map(|r| r.ce_events.len()).sum::<usize>();
        digests.push(digest_runs(&runs));
    }
    // Compared as one list so a mismatch shows every cell of the grid.
    let expected: Vec<&str> = PINNED_RUNS.iter().map(|pin| pin.3).collect();
    assert_eq!(digests, expected);
    assert!(total_ces > 1000, "the pinned grid must manifest errors ({total_ces} CEs)");
}

#[test]
fn small_fleet_matches_the_digest_recorded_with_the_per_cell_walk() {
    let mut spec = FleetSpec::test_default();
    (spec.devices, spec.shards, spec.epochs, spec.max_workloads) = (24, 4, 4, 3);
    let sweep = FleetSweep::new(spec, 7);
    let devices = (0..spec.devices).map(|k| sweep.device_history(k)).collect();
    let json = FleetOutcome { spec, seed: 7, devices }.devices_json();
    assert_eq!(format!("{:016x}", fnv1a(json.bytes())), PINNED_FLEET);
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
}

/// The segments a run at `op` walks: those starting below the thinning cap
/// `fraction_below(TREFP / coupling)`.
fn walked_segments(device: &DramDevice, profile: &DramUsageProfile, op: OperatingPoint) -> usize {
    let coupling = 1.0
        - device.physics().entropy_coupling * (profile.entropy_bits / 32.0).clamp(0.0, 1.0);
    let q_cap = device.retention_law().fraction_below(op.trefp_s / coupling.max(1e-9));
    (0..32).take_while(|&s| (s as f64) / 32.0 < q_cap).count()
}

/// A full-entropy profile whose footprint puts `rank`'s expected
/// population at 256 cells per segment at `op`: one block exactly, so the
/// Poisson counts of its segments straddle the block size.
fn one_block_per_segment(device: &DramDevice, rank: usize, op: OperatingPoint) -> DramUsageProfile {
    let base = 1u64 << 27;
    let per_segment = device.expected_weak_cells(rank, base, op.temp_c, op.vdd_v) / 32.0;
    let mut p = high_entropy();
    p.footprint_words = ((base as f64 * 256.0 / per_segment).round() as u64).max(1 << 12);
    p
}

/// The blocked walk behind `ErrorSim::run` (and `PreparedRun`
/// realization) against the per-cell reference walk, on a 1- and an
/// 8-thread pool. The cases cover segments of 0, 1, 255, 256 and 257
/// cells (asserted from `segment_cell_counts`), entropy 0 and 32, reuse
/// times that put the refresh gate inside the population, reads fast
/// enough that onsets just inside the run are discovered, a device without
/// disturbance, a device whose cells never fail, thinning caps below and at
/// 1, and both run lengths. The direct walk tests the onset draw before the
/// data gate when the draw rejects more cells; the cases take both orders
/// at 900 s (a mostly-true-cell device holding all-zero data keeps the
/// data gate first) and the data gate first at 7,200 s.
#[test]
fn blocked_walk_matches_the_per_cell_reference_at_1_and_8_threads() {
    let (one, eight) = (pool(1), pool(8));
    let physics_with = |edit: fn(&mut ErrorPhysics)| {
        let mut physics = ErrorPhysics::calibrated();
        edit(&mut physics);
        physics
    };
    let devices = [
        DramDevice::with_seed(39),
        DramDevice::with_seed(42),
        DramDevice::with_parts(
            39,
            ServerGeometry::x_gene2(),
            ErrorPhysics::calibrated().without_disturbance(),
        ),
        DramDevice::with_parts(
            42,
            ServerGeometry::x_gene2(),
            physics_with(|p| p.true_cell_fraction = 0.9),
        ),
        DramDevice::with_parts(
            39,
            ServerGeometry::x_gene2(),
            physics_with(|p| p.onset_rate_hz = 0.0),
        ),
    ];
    let mut plain = uniform();
    plain.entropy_bits = 0.0;
    let mut zeros = high_entropy();
    zeros.one_density = 0.0;
    let mut cases = Vec::new();
    for device in &devices {
        for profile in [plain.clone(), high_entropy(), reused(), fast_reads(), zeros.clone()] {
            for temp in [50.0, 60.0, 70.0] {
                for trefp in [0.618, 2.283] {
                    for duration_s in [900.0, 7200.0] {
                        let op = OperatingPoint::relaxed(trefp, temp);
                        cases.push((device, profile.clone(), op, duration_s));
                    }
                }
            }
        }
    }
    let at_cap = OperatingPoint::relaxed(2.283, 60.0);
    for rank in 0..8 {
        let profile = one_block_per_segment(&devices[0], rank, at_cap);
        cases.push((&devices[0], profile, at_cap, 900.0));
    }

    let mut counts_walked = BTreeSet::new();
    let mut orders = BTreeSet::new();
    for (i, (device, profile, op, duration_s)) in cases.iter().enumerate() {
        let (op, duration_s, seed) = (*op, *duration_s, i as u64);
        let sim = ErrorSim::new(device);
        let reference = sim.run_reference(profile, op, duration_s, seed);
        let case = format!("case {i}: device {}, {op}, {duration_s} s", device.seed());
        assert_eq!(one.install(|| sim.run(profile, op, duration_s, seed)), reference, "{case}");
        assert_eq!(eight.install(|| sim.run(profile, op, duration_s, seed)), reference, "{case}");
        let prepared = sim.prepare(profile, &[op]);
        assert_eq!(prepared.run(op, duration_s, seed), reference, "{case}, prepared");
        let walked = walked_segments(device, profile, op);
        for counts in sim.segment_cell_counts(profile, op) {
            counts_walked.extend(counts[..walked].iter().copied());
        }
        let physics = device.physics();
        let (tcf, od) = (physics.true_cell_fraction, profile.one_density);
        // Without onsets there is no onset draw to take first.
        let rate = physics.onset_rate_hz;
        let onset_rejects = if rate > 0.0 { (-duration_s * rate).exp() } else { 0.0 };
        let onset_first = onset_rejects > tcf * (1.0 - od) + (1.0 - tcf) * od;
        orders.insert((duration_s as u64, onset_first));
    }
    let expected_orders = [(900, false), (900, true), (7200, false)];
    assert_eq!(orders, BTreeSet::from(expected_orders), "(run length, onset first) covered");
    for count in [0, 1, 255, 256, 257] {
        assert!(counts_walked.contains(&count), "no walked segment of {count} cells");
    }
    assert!(counts_walked.iter().any(|&c| c > 512), "no segment of three blocks");
}

/// The refresh gate's quantile bracket never decides against the exact
/// comparison: at each edge, its neighbouring floats, a window of quantiles
/// around both edges and a spread across `[0, 1)`, every `q < lo` passes
/// and every `q ≥ hi` fails. The bracket is narrow, and parameters outside
/// its monotone case decide nothing.
#[test]
fn quantile_bracket_agrees_with_the_exact_gate_on_and_around_its_edges() {
    let law = RetentionLaw::from_physics(&ErrorPhysics::calibrated());
    let ulps = |q: f64, k: i64| f64::from_bits((q.to_bits() as i64 + k).max(0) as u64);
    for coupling in [1.0, 0.886, 0.7, 0.3, 1e-12] {
        for t in [0.0, 1e-3, 0.05, 0.618, 1.45, 2.283, 2.999, 3.0, 3.5, 10.0] {
            let exact = |q: f64| law.retention_at_fraction(q) * coupling < t;
            let (lo, hi) = law.quantile_bracket(coupling, t);
            assert!(lo <= hi, "coupling {coupling}, t {t}: ({lo}, {hi})");
            let mut qs: Vec<f64> = (-300..=300).flat_map(|k| [ulps(lo, k), ulps(hi, k)]).collect();
            qs.extend([lo.next_down(), lo.next_up(), hi.next_down(), hi.next_up()]);
            qs.extend((0..=2000).map(|i| i as f64 / 2000.0));
            qs.extend([0.0, f64::MIN_POSITIVE, 1.0f64.next_down()]);
            for q in qs.into_iter().filter(|q| q.is_finite()) {
                if q < lo {
                    assert!(exact(q), "coupling {coupling}, t {t}: q {q} < lo {lo} must pass");
                }
                if q >= hi {
                    assert!(!exact(q), "coupling {coupling}, t {t}: q {q} >= hi {hi} must fail");
                }
            }
            if lo > 0.0 && hi < 1.0 {
                assert!(hi / lo - 1.0 < 1e-6, "coupling {coupling}, t {t}: ({lo}, {hi}) too wide");
            }
        }
    }
    for (coupling, t) in [(0.0, 1.0), (-0.5, 1.0), (f64::NAN, 1.0), (1.0, f64::NAN), (1.0, f64::INFINITY)] {
        assert_eq!(law.quantile_bracket(coupling, t), (0.0, f64::INFINITY), "({coupling}, {t})");
    }
}
