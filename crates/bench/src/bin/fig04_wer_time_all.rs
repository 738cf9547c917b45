//! Fig. 4 — WER over time for every benchmark (TREFP = 2.283 s, 50 °C).
//!
//! Paper shape: every curve converges within the 2-hour run (the change
//! over the last 10 minutes is below 3 %).

use wade_core::OperatingPoint;
use wade_dram::ErrorSim;

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (_store, cache) = wade_bench::init_store();
    let server = wade_bench::server();
    let op = OperatingPoint::relaxed(2.283, 50.0);
    let suite = wade_bench::experiment_suite();

    println!("Fig. 4: WER vs time per benchmark, {op}");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "benchmark", "30min", "60min", "90min", "120min", "last-10-min%"
    );
    let mut max_change: f64 = 0.0;
    for wl in suite.iter().take(14) {
        let profiled = cache.profile(
            &server,
            wl.as_ref(),
            wade_bench::CAMPAIGN_SEED,
        );
        let run = ErrorSim::new(server.device()).run(&profiled.profile, op, 7200.0, 3);
        let w120 = run.wer_at(7200.0);
        let w110 = run.wer_at(6600.0);
        let change = if w120 > 0.0 { 100.0 * (w120 - w110) / w120 } else { 0.0 };
        max_change = max_change.max(change);
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>11.1}%",
            wl.name(),
            wade_bench::fmt_wer(run.wer_at(1800.0)),
            wade_bench::fmt_wer(run.wer_at(3600.0)),
            wade_bench::fmt_wer(run.wer_at(5400.0)),
            wade_bench::fmt_wer(w120),
            change,
        );
    }
    println!("\npaper: <3% change in last 10 min | measured: max {max_change:.1}%");
}
