//! Seeded property tests for the fleet evaluation layer: lead-time
//! monotonicity, cost-curve bounds and the cross-vintage transfer
//! sanity. The evaluation properties run against *synthetic* random
//! fleets (hundreds of shapes, no simulation cost); the transfer property
//! runs against one real simulated fleet shared through a `OnceLock`.

use std::sync::OnceLock;
use wade::core::MlKind;
use wade::features::FeatureSet;
use wade::fleet::{
    transfer_matrix, DeviceHistory, EpochOutcome, FleetEval, FleetEvalConfig, FleetOutcome,
    FleetSpec, FleetSweep,
};

/// SplitMix64 — the repo's standard test-side generator.
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (split_mix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A random synthetic fleet: random size, epoch grid, WER magnitudes and
/// crash times. Exercises the evaluator's structure without paying for
/// simulation, so the properties can sweep many shapes.
fn synthetic_outcome(seed: u64) -> FleetOutcome {
    let mut st = seed;
    let devices = 8 + (split_mix(&mut st) % 32) as u32;
    let epochs = 3 + (split_mix(&mut st) % 6) as u32;
    let epoch_s = 100.0;
    let mut spec = FleetSpec::test_default();
    spec.devices = devices;
    spec.shards = 1;
    spec.epochs = epochs;
    spec.epoch_s = epoch_s;
    let mut histories = Vec::new();
    for index in 0..devices {
        let mut eps = Vec::new();
        let mut failed_at_s = None;
        for e in 0..epochs {
            let crashed = unit(&mut st) < 0.08;
            // Heavy-tailed WER, sometimes exactly zero (a clean epoch).
            let wer = if unit(&mut st) < 0.3 { 0.0 } else { unit(&mut st).powi(3) * 1e-4 };
            let ue_t_s = crashed.then(|| unit(&mut st) * epoch_s);
            eps.push(EpochOutcome {
                epoch: e,
                workload: "synthetic".into(),
                temp_c: 40.0 + 40.0 * unit(&mut st),
                utilization: 0.4 + 0.6 * unit(&mut st),
                ce_count: (wer * 1e9) as u64,
                wer,
                wer_per_rank: [wer / 8.0; 8],
                crashed,
                ue_t_s,
                ue_rank: crashed.then_some(0),
            });
            if crashed {
                failed_at_s = Some(e as f64 * epoch_s + ue_t_s.unwrap());
                break;
            }
        }
        histories.push(DeviceHistory {
            index,
            seed: split_mix(&mut st),
            vintage: index % spec.vintages,
            fingerprint: split_mix(&mut st),
            epochs: eps,
            failed_at_s,
        });
    }
    FleetOutcome { spec, seed, devices: histories }
}

fn eval_of(outcome: &FleetOutcome) -> FleetEval {
    FleetEval::evaluate(
        outcome,
        FleetEvalConfig {
            observation_s: 2.0 * outcome.spec.epoch_s,
            score_threshold: f64::MIN_POSITIVE,
            lead_times_s: vec![],
        },
    )
}

#[test]
fn recall_and_precision_never_drop_with_longer_lead_times() {
    for seed in 0..40u64 {
        let outcome = synthetic_outcome(seed);
        let eval = eval_of(&outcome);
        for threshold in
            [f64::MIN_POSITIVE, eval.score_quantile(0.5), eval.score_quantile(0.9)]
        {
            let mut last_recall = -1.0;
            let mut last_precision = -1.0;
            for lead in [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0] {
                let r = eval.report_at(lead, threshold);
                assert!(
                    r.recall >= last_recall,
                    "seed {seed}: recall dropped {last_recall} -> {} at lead {lead}, θ={threshold:e}",
                    r.recall
                );
                assert!(
                    r.precision >= last_precision,
                    "seed {seed}: precision dropped {last_precision} -> {} at lead {lead}, θ={threshold:e}",
                    r.precision
                );
                assert!((0.0..=1.0).contains(&r.recall) && (0.0..=1.0).contains(&r.precision));
                last_recall = r.recall;
                last_precision = r.precision;
            }
        }
    }
}

#[test]
fn cost_curves_are_bounded_with_exact_endpoints() {
    const MIGRATION: f64 = 1.0;
    const CRASH: f64 = 25.0;
    for seed in 40..80u64 {
        let outcome = synthetic_outcome(seed);
        let eval = eval_of(&outcome);
        let n = eval.devices() as f64;
        let failures = outcome.failures().len() as u64;
        let curve = eval.cost_curve(MIGRATION, CRASH);
        assert!(!curve.is_empty());
        let mut last_migrations = u64::MAX;
        for p in &curve {
            // Migrated and crashed device sets are disjoint subsets.
            assert!(p.migrations + p.crashes <= n as u64, "seed {seed}: overlap");
            assert!(p.crashes <= failures);
            assert!(p.cost >= 0.0 && p.cost <= n * MIGRATION.max(CRASH), "seed {seed}");
            assert!(
                p.migrations <= last_migrations,
                "seed {seed}: migrations rose as the threshold tightened"
            );
            last_migrations = p.migrations;
        }
        // θ = +∞: never migrate, eat every crash.
        let never = curve.last().unwrap();
        assert_eq!(never.threshold, f64::INFINITY);
        assert_eq!(never.migrations, 0);
        assert_eq!(never.crashes, failures);
        assert_eq!(never.cost, failures as f64 * CRASH);
    }
}

/// One real simulated fleet for the transfer property (shared; the sweep
/// is deterministic, so sharing cannot couple tests).
fn simulated() -> &'static (FleetSweep, FleetOutcome) {
    static FX: OnceLock<(FleetSweep, FleetOutcome)> = OnceLock::new();
    FX.get_or_init(|| {
        let mut spec = FleetSpec::test_default();
        spec.devices = 48;
        spec.shards = 6;
        spec.epochs = 4;
        spec.max_workloads = 4;
        let sweep = FleetSweep::new(spec, 21);
        let devices = (0..spec.devices).map(|k| sweep.device_history(k)).collect();
        let outcome = FleetOutcome { spec, seed: 21, devices };
        (sweep, outcome)
    })
}

#[test]
fn transfer_matrix_diagonal_beats_off_diagonal_on_self_transfer() {
    let (sweep, outcome) = simulated();
    for kind in [MlKind::Rdf, MlKind::Knn] {
        let matrix = transfer_matrix(sweep, outcome, kind, FeatureSet::Set1, None);
        for v in 0..outcome.spec.vintages {
            let cell = matrix.cell(v, v);
            assert!(cell.train_rows > 0, "{kind:?}: vintage {v} has no trainable rows");
            assert!(cell.mpe.is_finite());
        }
        assert!(
            matrix.mean_diagonal() < matrix.mean_off_diagonal(),
            "{kind:?}: in-vintage error {} not below cross-vintage {}",
            matrix.mean_diagonal(),
            matrix.mean_off_diagonal()
        );
    }
}

#[test]
fn lead_time_reports_are_monotone_on_a_real_fleet() {
    let (_, outcome) = simulated();
    let eval = eval_of(outcome);
    assert!(!eval.failures().is_empty(), "fixture fleet must contain failures");
    let mut last = -1.0;
    for lead in [900.0, 1800.0, 3600.0] {
        let r = eval.report_at(lead, f64::MIN_POSITIVE);
        assert!(r.recall >= last);
        last = r.recall;
    }
    assert!(last > 0.0, "a multi-epoch lead should catch at least one failure");
}
