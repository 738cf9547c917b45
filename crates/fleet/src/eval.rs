//! Field-style evaluation of a swept fleet: sliding-window failure
//! prediction, lead-time precision/recall, mitigation-cost curves and the
//! cross-vintage transfer matrix.
//!
//! The evaluation replays the fleet's timeline the way an operator would
//! see it: at the end of every *completed* epoch a device reports the mean
//! WER over its trailing observation window; a report at or above the
//! alert threshold is a migration alert. A failure is *caught at lead `L`*
//! if an alert fired within `[T_f − L, T_f)`; an alert is *justified at
//! lead `L`* if the device failed within `(t, t + L]`. Both notions are
//! monotone non-decreasing in `L` by construction — the property
//! `tests/fleet_properties.rs` pins.
//!
//! Decision extraction is linear: [`FleetEval::evaluate`] folds the swept
//! devices in fleet order, and the trailing observation window advances
//! with a two-pointer — O(epochs · window) per device, not O(epochs²) —
//! while summing each window ascending from zero so the scores stay
//! bit-identical to a naive rescan.

use std::hash::Hasher as _;

use crate::sweep::{FleetOutcome, FleetSweep};
use wade_core::{
    op_augmented_row, CampaignData, CampaignRow, CharacterizationOutcome, MlKind,
    MIN_CE_COUNT, TRAINER_CONFIG_VERSION,
};
use wade_dram::OperatingPoint;
use wade_features::FeatureSet;
use wade_ml::metrics::{mean_percentage_error, precision_recall};
use wade_ml::Regressor as _;
use wade_store::ArtifactStore;

/// Artifact kind of fleet-trained per-vintage models.
pub(crate) const FLEET_MODEL_KIND: &str = "fleet_model";

/// Configuration of the sliding-window evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvalConfig {
    /// Trailing observation window the WER score is averaged over (s).
    pub observation_s: f64,
    /// Alert threshold on the windowed mean WER.
    pub score_threshold: f64,
    /// Lead times the precision/recall reports are computed at (s).
    pub lead_times_s: Vec<f64>,
}

impl FleetEvalConfig {
    /// A config matched to a spec's epoch grid: observe two epochs, report
    /// at one-, two- and four-epoch lead times, alert on any observed CE
    /// (threshold 0 is exclusive — the score must be positive).
    pub fn for_spec(spec: &crate::spec::FleetSpec) -> Self {
        Self {
            observation_s: 2.0 * spec.epoch_s,
            score_threshold: f64::MIN_POSITIVE,
            lead_times_s: vec![spec.epoch_s, 2.0 * spec.epoch_s, 4.0 * spec.epoch_s],
        }
    }
}

/// One decision point: a device's windowed WER score at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionPoint {
    /// Device index.
    pub device: u32,
    /// Absolute decision time (end of the completed epoch, s).
    pub t_s: f64,
    /// Mean WER over the trailing observation window.
    pub score: f64,
}

/// Precision/recall at one lead time and threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadTimeReport {
    /// Lead time the report is computed at (s).
    pub lead_s: f64,
    /// Alert threshold in force.
    pub threshold: f64,
    /// Alerts fired (decision points at or above threshold).
    pub alerts: u64,
    /// Alerts whose device failed within the lead window after the alert.
    pub justified_alerts: u64,
    /// Failures with an alert inside `[T_f − lead, T_f)`.
    pub caught_failures: u64,
    /// Failures with no alert inside the lead window.
    pub missed_failures: u64,
    /// `justified / alerts` (1 when no alerts fired).
    pub precision: f64,
    /// `caught / failures` (1 when nothing failed).
    pub recall: f64,
}

/// One point of the mitigation-cost curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPoint {
    /// Alert threshold of this operating point.
    pub threshold: f64,
    /// Devices migrated (any alert during their observed life).
    pub migrations: u64,
    /// Devices that crashed unmitigated.
    pub crashes: u64,
    /// Total mitigation cost at this threshold.
    pub cost: f64,
}

/// The sliding-window evaluation of one swept fleet.
#[derive(Debug, Clone)]
pub struct FleetEval {
    config: FleetEvalConfig,
    decisions: Vec<DecisionPoint>,
    failures: Vec<(u32, f64)>,
    devices: usize,
}

impl FleetEval {
    /// Replays `outcome` under `config`, collecting every decision point
    /// and failure. Each device contributes its failure (if any) and one
    /// decision point per completed epoch. Crashing epochs produce no
    /// decision (the device is gone before the boundary), so every
    /// decision predates its device's failure.
    ///
    /// The observation window is tracked with a two-pointer: `lo` — the
    /// first epoch inside the window — only ever advances, because both
    /// the decision time and the window start grow with the epoch index.
    /// The window *sum* is still recomputed ascending from zero each epoch
    /// (never subtract-on-evict), so every score performs the exact
    /// additions of a naive rescan and the decisions stay bit-identical.
    pub fn evaluate(outcome: &FleetOutcome, config: FleetEvalConfig) -> Self {
        let epoch_s = outcome.spec.epoch_s;
        let mut decisions = Vec::new();
        for device in &outcome.devices {
            let mut lo = 0usize;
            for (e, epoch) in device.epochs.iter().enumerate() {
                let t_s = (e + 1) as f64 * epoch_s;
                let window_start = t_s - config.observation_s;
                while lo <= e && (lo + 1) as f64 * epoch_s <= window_start {
                    lo += 1;
                }
                if epoch.crashed {
                    continue;
                }
                let score = if lo > e {
                    0.0
                } else {
                    let mut sum = 0.0;
                    for past in &device.epochs[lo..=e] {
                        sum += past.wer;
                    }
                    sum / (e - lo + 1) as f64
                };
                decisions.push(DecisionPoint { device: device.index, t_s, score });
            }
        }
        Self { config, decisions, failures: outcome.failures(), devices: outcome.devices.len() }
    }

    /// All decision points, in device/time order.
    pub fn decisions(&self) -> &[DecisionPoint] {
        &self.decisions
    }

    /// The failures under evaluation.
    pub fn failures(&self) -> &[(u32, f64)] {
        &self.failures
    }

    /// Precision/recall at an explicit lead time and threshold.
    pub fn report_at(&self, lead_s: f64, threshold: f64) -> LeadTimeReport {
        let alerts: Vec<&DecisionPoint> =
            self.decisions.iter().filter(|d| d.score >= threshold).collect();
        let justified = alerts
            .iter()
            .filter(|a| {
                self.failures
                    .iter()
                    .any(|&(dev, t_f)| dev == a.device && t_f > a.t_s && t_f <= a.t_s + lead_s)
            })
            .count() as u64;
        let caught = self
            .failures
            .iter()
            .filter(|&&(dev, t_f)| {
                alerts.iter().any(|a| a.device == dev && a.t_s >= t_f - lead_s && a.t_s < t_f)
            })
            .count() as u64;
        let alerts = alerts.len() as u64;
        let missed = self.failures.len() as u64 - caught;
        let (precision, _) = precision_recall(justified, alerts - justified, 0);
        let (_, recall) = precision_recall(caught, 0, missed);
        LeadTimeReport {
            lead_s,
            threshold,
            alerts,
            justified_alerts: justified,
            caught_failures: caught,
            missed_failures: missed,
            precision,
            recall,
        }
    }

    /// Reports at the config's lead times and threshold.
    pub fn lead_time_reports(&self) -> Vec<LeadTimeReport> {
        self.config
            .lead_times_s
            .iter()
            .map(|&lead| self.report_at(lead, self.config.score_threshold))
            .collect()
    }

    /// The `q`-quantile of the decision scores (for threshold selection).
    pub fn score_quantile(&self, q: f64) -> f64 {
        if self.decisions.is_empty() {
            return 0.0;
        }
        let mut scores: Vec<f64> = self.decisions.iter().map(|d| d.score).collect();
        scores.sort_by(|a, b| a.partial_cmp(b).expect("scores are finite"));
        let idx = ((q.clamp(0.0, 1.0) * (scores.len() - 1) as f64).round()) as usize;
        scores[idx]
    }

    /// The mitigation-cost curve over the threshold sweep: at each
    /// candidate threshold (every distinct score, plus `+∞` for
    /// "never migrate"), a device with any alert is migrated at
    /// `migration_cost`; a failing device with no alert crashes at
    /// `crash_cost`. Migrated and crashed sets are disjoint, so the total
    /// is bounded by `devices × max(migration_cost, crash_cost)`.
    pub fn cost_curve(&self, migration_cost: f64, crash_cost: f64) -> Vec<CostPoint> {
        let mut thresholds: Vec<f64> = self.decisions.iter().map(|d| d.score).collect();
        thresholds.sort_by(|a, b| a.partial_cmp(b).expect("scores are finite"));
        thresholds.dedup();
        thresholds.push(f64::INFINITY);
        thresholds
            .into_iter()
            .map(|threshold| {
                let migrated: Vec<u32> = {
                    let mut m: Vec<u32> = self
                        .decisions
                        .iter()
                        .filter(|d| d.score >= threshold)
                        .map(|d| d.device)
                        .collect();
                    m.sort_unstable();
                    m.dedup();
                    m
                };
                let crashes = self
                    .failures
                    .iter()
                    .filter(|&&(dev, _)| migrated.binary_search(&dev).is_err())
                    .count() as u64;
                let migrations = migrated.len() as u64;
                CostPoint {
                    threshold,
                    migrations,
                    crashes,
                    cost: migrations as f64 * migration_cost + crashes as f64 * crash_cost,
                }
            })
            .collect()
    }

    /// Number of devices under evaluation.
    pub fn devices(&self) -> usize {
        self.devices
    }
}

/// One cell of the cross-vintage transfer matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferCell {
    /// Vintage the model was trained on.
    pub train_vintage: u32,
    /// Vintage the model was tested on.
    pub test_vintage: u32,
    /// Mean percentage error of the WER predictions (NaN when either side
    /// has no trainable rows).
    pub mpe: f64,
    /// Training rows available.
    pub train_rows: usize,
    /// Test rows evaluated.
    pub test_rows: usize,
}

/// Train-on-A / test-on-B WER error for every ordered vintage pair.
#[derive(Debug, Clone)]
pub struct TransferMatrix {
    /// Number of vintages (the matrix is `vintages × vintages`).
    pub vintages: u32,
    /// Cells in row-major `(train, test)` order.
    pub cells: Vec<TransferCell>,
}

impl TransferMatrix {
    /// The cell for training vintage `a`, test vintage `b`.
    pub fn cell(&self, a: u32, b: u32) -> &TransferCell {
        &self.cells[(a * self.vintages + b) as usize]
    }

    /// Mean in-vintage (diagonal) error, skipping NaN cells.
    pub fn mean_diagonal(&self) -> f64 {
        mean_of(self.cells.iter().filter(|c| c.train_vintage == c.test_vintage))
    }

    /// Mean cross-vintage (off-diagonal) error, skipping NaN cells.
    pub fn mean_off_diagonal(&self) -> f64 {
        mean_of(self.cells.iter().filter(|c| c.train_vintage != c.test_vintage))
    }
}

fn mean_of<'a>(cells: impl Iterator<Item = &'a TransferCell>) -> f64 {
    let finite: Vec<f64> = cells.map(|c| c.mpe).filter(|m| m.is_finite()).collect();
    if finite.is_empty() {
        f64::NAN
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

/// The trainable rows of one vintage: op-augmented features plus the
/// utilization factor, targets `log₁₀(WER)`. Crashed epochs and epochs
/// below the `MIN_CE_COUNT` telemetry floor carry no trainable WER signal
/// and are skipped, mirroring the campaign dataset builders.
fn vintage_rows(
    sweep: &FleetSweep,
    outcome: &FleetOutcome,
    set: FeatureSet,
    vintage: u32,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let profiles = sweep.profiles();
    let mut x = Vec::new();
    let mut y = Vec::new();
    for device in outcome.devices.iter().filter(|d| d.vintage == vintage) {
        for epoch in &device.epochs {
            if epoch.crashed || (epoch.ce_count as f64) < MIN_CE_COUNT {
                continue;
            }
            let profiled = profiles
                .iter()
                .find(|p| p.name == epoch.workload)
                .expect("epoch workload has a profile");
            let op = OperatingPoint::relaxed(outcome.spec.trefp_s, epoch.temp_c);
            let mut row = op_augmented_row(&profiled.features, set, op);
            row.push(epoch.utilization);
            x.push(row);
            y.push(epoch.wer.log10());
        }
    }
    (x, y)
}

/// Order-stable digest of a training set, for the model store key.
fn dataset_fingerprint(x: &[Vec<f64>], y: &[f64]) -> u64 {
    let mut hasher = rustc_hash::FxHasher::default();
    for row in x {
        for v in row {
            hasher.write_u64(v.to_bits());
        }
    }
    for v in y {
        hasher.write_u64(v.to_bits());
    }
    hasher.finish()
}

/// Trains one model per vintage (store-backed when `store` is given, under
/// kind `FLEET_MODEL_KIND`) and scores every ordered train/test pair by
/// the mean percentage error of the de-logged WER predictions.
pub fn transfer_matrix(
    sweep: &FleetSweep,
    outcome: &FleetOutcome,
    kind: MlKind,
    set: FeatureSet,
    store: Option<&ArtifactStore>,
) -> TransferMatrix {
    let vintages = outcome.spec.vintages;
    let per_vintage: Vec<(Vec<Vec<f64>>, Vec<f64>)> =
        (0..vintages).map(|v| vintage_rows(sweep, outcome, set, v)).collect();
    let models: Vec<Option<wade_core::AnyModel>> = per_vintage
        .iter()
        .enumerate()
        .map(|(v, (x, y))| {
            if x.is_empty() {
                return None;
            }
            let train = || kind.train_any(x, y);
            Some(match store {
                Some(s) => {
                    let key = format!(
                        "fleet_model|kind={}|cfg=v{TRAINER_CONFIG_VERSION}|set={set:?}|\
                         vintage={v}|rows={}|data={:016x}",
                        kind.label(),
                        x.len(),
                        dataset_fingerprint(x, y),
                    );
                    s.get_or_put(FLEET_MODEL_KIND, &key, |m| m.fits(x[0].len()), train).0
                }
                None => train(),
            })
        })
        .collect();
    let mut cells = Vec::with_capacity((vintages * vintages) as usize);
    for a in 0..vintages {
        for b in 0..vintages {
            let (test_x, test_y) = &per_vintage[b as usize];
            let mpe = match &models[a as usize] {
                Some(model) if !test_x.is_empty() => {
                    let pred: Vec<f64> =
                        test_x.iter().map(|row| 10f64.powf(model.predict(row))).collect();
                    let actual: Vec<f64> = test_y.iter().map(|t| 10f64.powf(*t)).collect();
                    mean_percentage_error(&pred, &actual)
                }
                _ => f64::NAN,
            };
            cells.push(TransferCell {
                train_vintage: a,
                test_vintage: b,
                mpe,
                train_rows: per_vintage[a as usize].0.len(),
                test_rows: test_x.len(),
            });
        }
    }
    TransferMatrix { vintages, cells }
}

/// Repackages a swept fleet as [`CampaignData`] — one row per simulated
/// epoch, carrying the profiled features, the epoch's operating point and
/// its characterization outcome as both the WER run and a single PUE
/// repeat. The existing store-backed trainers and the serving registry
/// consume this with no fleet-specific code.
pub fn fleet_campaign_data(sweep: &FleetSweep, outcome: &FleetOutcome) -> CampaignData {
    let profiles = sweep.profiles();
    let mut rows = Vec::new();
    let mut simulated_seconds = 0.0;
    for device in &outcome.devices {
        for epoch in &device.epochs {
            let profiled = profiles
                .iter()
                .find(|p| p.name == epoch.workload)
                .expect("epoch workload has a profile");
            let characterization = CharacterizationOutcome {
                wer: epoch.wer,
                wer_per_rank: epoch.wer_per_rank,
                crashed: epoch.crashed,
                ue_rank: epoch.ue_rank,
            };
            simulated_seconds += epoch.ue_t_s.unwrap_or(outcome.spec.epoch_s);
            rows.push(CampaignRow {
                workload: epoch.workload.clone(),
                op: OperatingPoint::relaxed(outcome.spec.trefp_s, epoch.temp_c),
                features: profiled.features.clone(),
                wer_run: Some(characterization.clone()),
                pue_runs: vec![characterization],
            });
        }
    }
    CampaignData { rows, simulated_seconds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FleetSpec;
    use crate::sweep::{DeviceHistory, EpochOutcome};

    /// A hand-built two-device fleet: device 0 fails in epoch 2, device 1
    /// survives. Epoch length 100 s.
    fn toy_outcome() -> FleetOutcome {
        let spec = {
            let mut s = FleetSpec::test_default();
            s.devices = 2;
            s.shards = 1;
            s.epochs = 3;
            s.epoch_s = 100.0;
            s
        };
        let epoch = |e: u32, wer: f64, crashed: bool| EpochOutcome {
            epoch: e,
            workload: "toy".into(),
            temp_c: 60.0,
            utilization: 1.0,
            ce_count: (wer * 1e6) as u64,
            wer,
            wer_per_rank: [wer / 8.0; 8],
            crashed,
            ue_t_s: crashed.then_some(50.0),
            ue_rank: crashed.then_some(0),
        };
        let failing = DeviceHistory {
            index: 0,
            seed: 1,
            vintage: 0,
            fingerprint: 1,
            epochs: vec![epoch(0, 1e-6, false), epoch(1, 5e-5, false), epoch(2, 1e-4, true)],
            failed_at_s: Some(250.0),
        };
        let healthy = DeviceHistory {
            index: 1,
            seed: 2,
            vintage: 1,
            fingerprint: 2,
            epochs: vec![epoch(0, 0.0, false), epoch(1, 0.0, false), epoch(2, 0.0, false)],
            failed_at_s: None,
        };
        FleetOutcome { spec, seed: 9, devices: vec![failing, healthy] }
    }

    #[test]
    fn decisions_exclude_crashing_epochs() {
        let eval = FleetEval::evaluate(
            &toy_outcome(),
            FleetEvalConfig { observation_s: 100.0, score_threshold: 1e-9, lead_times_s: vec![] },
        );
        // Device 0: epochs 0 and 1 decide; epoch 2 crashed. Device 1: 3.
        assert_eq!(eval.decisions().len(), 5);
        assert!(eval.decisions().iter().all(|d| d.t_s <= 300.0));
    }

    #[test]
    fn leads_catch_the_failure_exactly_when_long_enough() {
        let eval = FleetEval::evaluate(
            &toy_outcome(),
            FleetEvalConfig { observation_s: 100.0, score_threshold: 1e-9, lead_times_s: vec![] },
        );
        // Failure at 250 s; alerts from device 0 at 100 s and 200 s.
        let short = eval.report_at(40.0, 1e-9); // window [210, 250): no alert
        assert_eq!(short.caught_failures, 0);
        assert_eq!(short.recall, 0.0);
        let one = eval.report_at(100.0, 1e-9); // window [150, 250): catches 200 s
        assert_eq!(one.caught_failures, 1);
        assert_eq!(one.recall, 1.0);
        // The healthy device's zero-score epochs never alert at θ > 0.
        assert_eq!(one.alerts, 2);
        assert_eq!(one.justified_alerts, 1); // the 200 s alert; 100 s is > lead away
        assert!((one.precision - 0.5).abs() < 1e-12);
    }

    /// The two-pointer window fold must reproduce a naive O(epochs²)
    /// rescan bit for bit, including partial windows at the start and the
    /// degenerate zero-width window.
    #[test]
    fn two_pointer_scores_match_a_naive_rescan() {
        let outcome = toy_outcome();
        for observation_s in [0.0, 50.0, 100.0, 150.0, 250.0, 1000.0] {
            let config = FleetEvalConfig {
                observation_s,
                score_threshold: 1e-9,
                lead_times_s: vec![],
            };
            let eval = FleetEval::evaluate(&outcome, config.clone());
            let mut naive = Vec::new();
            for device in &outcome.devices {
                for (e, epoch) in device.epochs.iter().enumerate() {
                    if epoch.crashed {
                        continue;
                    }
                    let t_s = (e + 1) as f64 * outcome.spec.epoch_s;
                    let window_start = t_s - config.observation_s;
                    let mut sum = 0.0;
                    let mut n = 0u32;
                    for (e2, past) in device.epochs.iter().take(e + 1).enumerate() {
                        if (e2 + 1) as f64 * outcome.spec.epoch_s > window_start {
                            sum += past.wer;
                            n += 1;
                        }
                    }
                    let score = if n == 0 { 0.0 } else { sum / n as f64 };
                    naive.push(DecisionPoint { device: device.index, t_s, score });
                }
            }
            assert_eq!(eval.decisions(), naive.as_slice(), "obs={observation_s}");
        }
    }

    #[test]
    fn cost_curve_endpoints_and_disjointness() {
        let eval = FleetEval::evaluate(
            &toy_outcome(),
            FleetEvalConfig { observation_s: 100.0, score_threshold: 1e-9, lead_times_s: vec![] },
        );
        let curve = eval.cost_curve(1.0, 10.0);
        let last = curve.last().unwrap();
        assert_eq!(last.threshold, f64::INFINITY);
        assert_eq!((last.migrations, last.crashes), (0, 1));
        assert_eq!(last.cost, 10.0);
        for p in &curve {
            assert!(p.migrations + p.crashes <= 2);
            assert!(p.cost <= 2.0 * 10.0);
        }
        // At a tiny positive threshold the failing device migrates (cost 1)
        // and the healthy zero-score device does not.
        let eager = curve.iter().find(|p| p.threshold > 0.0).unwrap();
        assert_eq!((eager.migrations, eager.crashes), (1, 0));
    }
}
