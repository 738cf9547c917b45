//! Fig. 8 — WER per DIMM/rank (TREFP = 2.283 s, 50 °C).
//!
//! Paper shape: up to 188× variation across the 8 ranks; rank ordering is a
//! device property, stable across workloads.

use wade_dram::RankId;

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (store, cache) = wade_bench::init_store();
    let data = wade_bench::full_campaign_data(&store, &cache);

    println!("Fig. 8: WER per DIMM/rank, TREFP=2.283 s, 50 °C");
    print!("{:<18}", "benchmark");
    for rank in RankId::all() {
        print!(" {:>12}", rank.to_string());
    }
    println!();

    let mut rank_totals = [0.0f64; 8];
    let mut rows_used = 0;
    for row in &data.rows {
        if (row.op.trefp_s - 2.283).abs() > 1e-9 || row.op.temp_c != 50.0 {
            continue;
        }
        let Some(run) = &row.wer_run else { continue };
        print!("{:<18}", row.workload);
        for (i, w) in run.wer_per_rank.iter().enumerate() {
            rank_totals[i] += w;
            print!(" {:>12}", wade_bench::fmt_wer(*w));
        }
        println!();
        rows_used += 1;
    }

    let nonzero: Vec<f64> = rank_totals.iter().copied().filter(|w| *w > 0.0).collect();
    let max = nonzero.iter().cloned().fold(f64::MIN, f64::max);
    let min = nonzero.iter().cloned().fold(f64::MAX, f64::min);
    println!("\nper-rank totals over {rows_used} benchmarks:");
    for (i, t) in rank_totals.iter().enumerate() {
        println!("  {:<12} {:>12}", RankId::from_index(i).to_string(), wade_bench::fmt_wer(*t));
    }
    println!("\npaper: up to 188x rank-to-rank spread | measured: {:.0}x (errored ranks)", max / min);
    let factors = wade_bench::server().device().variation().spread();
    println!("device weak-cell density spread (manufacturing): {factors:.0}x");
}
