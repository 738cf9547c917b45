//! Builders turning campaign data into ML datasets (Fig. 3, right side),
//! plus the artifact-store keying of collected campaign data.

use crate::campaign::{CampaignConfig, CampaignData};
use crate::server::SimulatedServer;
use std::fmt::Write as _;
use wade_dram::OperatingPoint;
use wade_features::{FeatureSet, FeatureVector};
use wade_ml::Dataset;
use wade_workloads::BoxedWorkload;

/// The artifact kind of collected campaign data in a
/// [`wade_store::ArtifactStore`].
pub const CAMPAIGN_KIND: &str = "campaign";

/// The canonical store key of one campaign collection — everything the
/// collected rows are a pure function of, made explicit:
///
/// * the **campaign seed** (run randomness: VRT states, discovery order),
/// * the **grid** (`CampaignConfig`: ops, repeats, run duration — its
///   canonical JSON, embedded verbatim so two configs can never share a
///   key),
/// * the **suite** at its **scale** (per workload: name, threads,
///   `Scale`, cache token and deployment-scale constants, embedded
///   verbatim),
/// * the **device** ([`wade_dram::DramDevice::fingerprint`]: manufacturing
///   seed, geometry/physics, and the simulator's determinism contract — a
///   re-baselining event changes it, turning stale entries into misses),
/// * the **SoC profiling configuration** fingerprint
///   ([`SimulatedServer::soc_fingerprint`]) — the profiling hierarchy is a
///   code constant, not seed-derived, and the collected rows embed its
///   features, so changing it must invalidate campaign entries too.
///
/// Only the two fingerprints are hashes; the config and suite components
/// stay verbatim so the store's embedded-full-key check (not a 64-bit
/// hash) is what decides a hit.
pub(crate) fn campaign_store_key(
    server: &SimulatedServer,
    config: &CampaignConfig,
    suite: &[BoxedWorkload],
    seed: u64,
) -> String {
    // The Debug fallback still identifies the config uniquely (every field
    // derives Debug); a serializer hiccup must not panic key construction.
    let config_json =
        serde_json::to_string(config).unwrap_or_else(|_| format!("{config:?}"));
    let mut suite_desc = String::new();
    for w in suite {
        let deploy = w.deploy_scale();
        let _ = write!(
            suite_desc,
            "{}:{}:{:?}:{:016x}:{}:{:016x};",
            w.name(),
            w.threads(),
            w.scale(),
            w.cache_token(),
            deploy.footprint_words,
            deploy.reuse_scale.to_bits(),
        );
    }
    format!(
        "campaign|seed={seed}|device={:016x}|soc={:016x}|config={config_json}|suite={suite_desc}",
        server.device().fingerprint(),
        server.soc_fingerprint(),
    )
}

/// Assembles one model-input row: the chosen program-feature subset plus
/// the operating parameters (`TREFP`, `TEMP_DRAM`, `VDD`), as in Table III.
pub fn op_augmented_row(
    features: &FeatureVector,
    set: FeatureSet,
    op: OperatingPoint,
) -> Vec<f64> {
    let mut row = features.project(&set.indices());
    row.push(op.trefp_s);
    row.push(op.temp_c);
    row.push(op.vdd_v);
    row
}

/// Input dimensionality for a feature set (program features + 3 op params).
pub(crate) fn input_dim(set: FeatureSet) -> usize {
    set.indices().len() + 3
}

/// Minimum corrected-error count per (rank, run) for a WER sample to be
/// statistically meaningful: below ~10 unique CE words the measurement is
/// dominated by Poisson noise (±32 % at 10 counts), so such cells carry no
/// trainable signal. Mirrors the telemetry floor any field study applies.
pub const MIN_CE_COUNT: f64 = 10.0;

/// Builds the WER training set for one rank.
///
/// Targets are `log₁₀(WER)` — the error rate spans five decades
/// (Fig. 7), and distance-based learners need the decades linearised (the
/// log-target ablation in `tests/ablation.rs` shows the difference).
/// Rows where the run crashed, or where the rank saw fewer than
/// [`MIN_CE_COUNT`] unique error words, are excluded, mirroring the
/// paper's measurable samples.
pub fn build_wer_dataset(data: &CampaignData, set: FeatureSet, rank: usize) -> Dataset {
    let mut ds = Dataset::new(input_dim(set));
    for row in &data.rows {
        let Some(run) = &row.wer_run else { continue };
        if run.crashed {
            continue;
        }
        let wer = run.wer_per_rank[rank];
        // Telemetry-significance floor: require enough unique CE words.
        if wer * DATA_FOOTPRINT_WORDS < MIN_CE_COUNT {
            continue;
        }
        ds.push(
            op_augmented_row(&row.features, set, row.op),
            wer.log10(),
            row.workload.clone(),
        );
    }
    ds
}

/// The deployment footprint used by the campaign's profiles (words): all
/// paper campaigns allocate 8 GB per benchmark.
const DATA_FOOTPRINT_WORDS: f64 = (1u64 << 30) as f64;

/// Builds the PUE training set (server-level, as the UE crashes the whole
/// machine). Targets are the measured crash probabilities in `[0, 1]`.
pub fn build_pue_dataset(data: &CampaignData, set: FeatureSet) -> Dataset {
    let mut ds = Dataset::new(input_dim(set));
    for row in &data.rows {
        if row.pue_runs.is_empty() {
            continue;
        }
        ds.push(op_augmented_row(&row.features, set, row.op), row.pue(), row.workload.clone());
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::server::SimulatedServer;
    use wade_workloads::{Scale, WorkloadId};

    fn data() -> CampaignData {
        let suite = vec![
            WorkloadId::Backprop.instantiate(1, Scale::Test),
            WorkloadId::Srad.instantiate(8, Scale::Test),
        ];
        Campaign::new(SimulatedServer::with_seed(3), CampaignConfig::quick()).collect(&suite, 2)
    }

    #[test]
    fn row_width_matches_set_plus_ops() {
        let d = data();
        let row = op_augmented_row(&d.rows[0].features, FeatureSet::Set1, d.rows[0].op);
        assert_eq!(row.len(), 4 + 3);
        assert_eq!(input_dim(FeatureSet::Set3), 252);
    }

    #[test]
    fn wer_dataset_targets_are_log_space() {
        let d = data();
        for rank in 0..8 {
            let ds = build_wer_dataset(&d, FeatureSet::Set2, rank);
            for s in ds.samples() {
                assert!(s.target < 0.0, "log10(WER) must be negative, got {}", s.target);
                assert!(s.target > -12.0);
            }
        }
    }

    #[test]
    fn pue_dataset_targets_are_probabilities() {
        let d = data();
        let ds = build_pue_dataset(&d, FeatureSet::Set2);
        assert!(!ds.is_empty());
        for s in ds.samples() {
            assert!((0.0..=1.0).contains(&s.target));
        }
    }

    #[test]
    fn groups_are_workload_names() {
        let d = data();
        let ds = build_pue_dataset(&d, FeatureSet::Set1);
        let groups = ds.groups();
        assert!(groups.contains(&"backprop".to_string()));
        assert!(groups.contains(&"srad(par)".to_string()));
    }
}
