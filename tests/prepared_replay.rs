//! The determinism contract of the `PreparedRun` campaign cache
//! (ARCHITECTURE.md §3): replaying a frozen weak-cell population must be
//! **byte-identical** to re-realizing it per run, at every operating point
//! in the prepared envelope, for every seed, on any rayon pool width.

use wade::core::{Campaign, CampaignConfig, SimulatedServer};
use wade::dram::OperatingPoint;
use wade::workloads::{Scale, Workload, WorkloadId};

fn suite() -> Vec<Box<dyn Workload>> {
    vec![
        WorkloadId::Backprop.instantiate(1, Scale::Test),
        WorkloadId::Memcached.instantiate(8, Scale::Test),
    ]
}

/// One campaign row through both paths: `Campaign::characterize` (the old
/// direct path, one `ErrorSim::run` per repeat) versus
/// `Campaign::prepare` + `characterize_prepared` with the same seed.
#[test]
fn one_row_direct_and_replayed_is_identical() {
    let campaign = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick());
    let wl = WorkloadId::Backprop.instantiate(1, Scale::Test);
    let profiled = campaign.profile(wl.as_ref(), 2);
    let ops = [OperatingPoint::relaxed(1.450, 70.0), OperatingPoint::relaxed(2.283, 70.0)];
    let prepared = campaign.prepare(&profiled, &ops);
    for op in ops {
        let direct = campaign.characterize(&profiled, op, 10, 99);
        let replayed = campaign.characterize_prepared(&prepared, op, 10, 99);
        assert_eq!(direct, replayed, "row diverged at {op}");
    }
}

/// Whole-campaign equivalence: `collect` (population-cached) against
/// `collect_direct` (the reference path) — identical JSON, byte for byte.
#[test]
fn collected_campaign_matches_the_direct_reference() {
    let cached =
        Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick()).collect(&suite(), 3);
    let direct = Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
        .collect_direct(&suite(), 3);
    assert_eq!(cached.to_json().unwrap(), direct.to_json().unwrap());
}

/// The prepared path must stay order-stable under parallelism: one
/// campaign collected on a 1-thread and an 8-thread pool, byte-identical.
#[test]
fn prepared_collection_is_identical_across_thread_counts() {
    let collect_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            Campaign::new(SimulatedServer::with_seed(5), CampaignConfig::quick())
                .collect(&suite(), 3)
        })
    };
    let serial = collect_with(1);
    let parallel = collect_with(8);
    assert_eq!(serial.to_json().unwrap(), parallel.to_json().unwrap());
}

/// A grid whose 60 °C block holds two population groups per workload, the
/// lowered and the nominal voltage interleaved: the lowered group serves
/// two WER set-points and a PUE op, the nominal one is a lone single-run
/// set-point that skips preparation. The 70 °C block holds two prepared
/// groups, nominal first.
fn mixed_voltage_config() -> CampaignConfig {
    let nominal =
        |trefp_s, temp_c| OperatingPoint { trefp_s, vdd_v: OperatingPoint::VDD_NOMINAL, temp_c };
    CampaignConfig {
        run_duration_s: 7200.0,
        pue_repeats: 3,
        wer_ops: vec![
            OperatingPoint::relaxed(1.173, 60.0),
            nominal(1.727, 60.0),
            OperatingPoint::relaxed(2.283, 60.0),
        ],
        pue_ops: vec![
            nominal(2.283, 70.0),
            OperatingPoint::relaxed(1.450, 60.0),
            OperatingPoint::relaxed(2.283, 70.0),
        ],
    }
}

/// The group → row scatter: rows come back in (op, workload) order, with
/// ops sorted stably by temperature, byte-identical to the direct path and
/// across pool widths.
#[test]
fn mixed_voltage_groups_scatter_back_into_row_order() {
    let collect_with = |threads: usize, prepared: bool| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let campaign = Campaign::new(SimulatedServer::with_seed(5), mixed_voltage_config());
            if prepared {
                campaign.collect(&suite(), 3)
            } else {
                campaign.collect_direct(&suite(), 3)
            }
        })
    };
    let serial = collect_with(1, true);
    let parallel = collect_with(8, true);
    let direct = collect_with(1, false);

    let config = mixed_voltage_config();
    let (wer, pue) = (&config.wer_ops, &config.pue_ops);
    let ops = [wer[0], wer[1], wer[2], pue[1], pue[0], pue[2]];
    let expected: Vec<(String, OperatingPoint)> =
        ops.iter().flat_map(|&op| suite().into_iter().map(move |w| (w.name(), op))).collect();
    let order: Vec<(String, OperatingPoint)> =
        serial.rows.iter().map(|r| (r.workload.clone(), r.op)).collect();
    assert_eq!(order, expected);
    for row in &serial.rows {
        let is_pue = pue.contains(&row.op);
        assert_eq!(row.wer_run.is_some(), !is_pue, "{}", row.op);
        assert_eq!(row.pue_runs.len(), if is_pue { 3 } else { 0 }, "{}", row.op);
    }

    assert_eq!(serial.simulated_seconds.to_bits(), direct.simulated_seconds.to_bits());
    assert_eq!(serial.to_json().unwrap(), direct.to_json().unwrap());
    assert_eq!(serial.to_json().unwrap(), parallel.to_json().unwrap());
}
