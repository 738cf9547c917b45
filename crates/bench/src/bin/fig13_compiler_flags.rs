//! Fig. 13 — the compiler-flag study: measured vs model-predicted WER for
//! lulesh built with `-O2` and `-F`, against the conventional
//! (workload-unaware) constant model derived from the random data-pattern
//! micro-benchmark. TREFP = 0.618 s, 70 °C.
//!
//! Paper shape: the KNN model predicts both lulesh builds within ~3 % and
//! their ~29 % WER difference; the conventional random-pattern constant is
//! off by ~2.9×.

use wade_core::{train_error_model, MlKind, OperatingPoint};
use wade_dram::ErrorSim;
use wade_features::FeatureSet;
use wade_workloads::WorkloadId;

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (store, cache) = wade_bench::init_store();
    let data = wade_bench::full_campaign_data(&store, &cache);
    let server = wade_bench::server();
    let op = OperatingPoint::relaxed(0.618, 70.0);

    // The model is trained WITHOUT the lulesh workloads (they are the
    // "unseen application" of the study; the random micro stays in the
    // training data as in the paper's collection).
    let mut train_data = data.clone();
    train_data.rows.retain(|r| !r.workload.starts_with("lulesh"));
    let model = train_error_model(&train_data, MlKind::Knn, FeatureSet::Set1);

    println!("Fig. 13: measured vs predicted WER, {op}");
    println!("{:<22} {:>12} {:>12} {:>8}", "benchmark", "measured", "predicted", "err%");

    let mut measured = Vec::new();
    for id in [WorkloadId::LuleshO2, WorkloadId::LuleshF, WorkloadId::MicroRandom] {
        let wl = id.instantiate(8, wade_bench::scale());
        // Through the store-backed profile cache, so the store serves the
        // three study profiles on warm invocations.
        let profiled = cache.profile(
            &server,
            wl.as_ref(),
            wade_bench::CAMPAIGN_SEED,
        );
        let run = ErrorSim::new(server.device()).run(&profiled.profile, op, 7200.0, 5);
        let meas = run.wer();
        let pred = model.predict_wer_total(&profiled.features, op);
        let err = 100.0 * (pred - meas).abs() / meas.max(1e-300);
        println!(
            "{:<22} {:>12} {:>12} {:>7.1}%",
            wl.name(),
            wade_bench::fmt_wer(meas),
            wade_bench::fmt_wer(pred),
            err
        );
        measured.push((wl.name(), meas));
    }

    let o2 = measured[0].1;
    let f = measured[1].1;
    let random = measured[2].1;
    println!("\nlulesh(F) vs lulesh(O2) measured difference: {:.0}% (paper: ~29%)",
        100.0 * (f - o2).abs() / o2.max(1e-300));
    let conventional_err = (random / o2.max(1e-300)).max(o2 / random.max(1e-300));
    println!(
        "conventional constant model (random micro) mispredicts lulesh by {conventional_err:.1}x (paper: 2.9x)"
    );
}
