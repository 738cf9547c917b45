//! Fig. 10 — Spearman rank correlation of all 249 program features against
//! WER (y-axis) and PUE (x-axis).
//!
//! Paper shape: the memory access rate is the top feature for WER
//! (rs ≈ 0.57) and PUE (rs ≈ 0.43); wait cycles ≈ 0.4; H_DP ≈ 0.39;
//! Treuse ≈ 0.23 (weaker because 30 % of benchmarks have Treuse beyond the
//! maximum TREFP).

use wade_features::{schema, spearman};

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (store, cache) = wade_bench::init_store();
    let data = wade_bench::full_campaign_data(&store, &cache);

    // WER samples: per (workload, op) aggregate WER, crash-free rows.
    let mut wer_rows: Vec<(&wade_core::CampaignRow, f64)> = Vec::new();
    for row in &data.rows {
        if let Some(run) = &row.wer_run {
            if !run.crashed && run.wer > 0.0 {
                wer_rows.push((row, run.wer));
            }
        }
    }
    // PUE samples.
    let mut pue_rows: Vec<(&wade_core::CampaignRow, f64)> = Vec::new();
    for row in &data.rows {
        if !row.pue_runs.is_empty() {
            pue_rows.push((row, row.pue()));
        }
    }

    let rs_for = stratified_rs;

    println!(
        "Fig. 10: Spearman rs over {} WER samples / {} PUE samples",
        wer_rows.len(),
        pue_rows.len()
    );
    println!("\nnamed features (paper's call-outs):");
    println!("{:<34} {:>9} {:>9}", "feature", "rs(WER)", "rs(PUE)");
    for idx in [
        schema::SOC_MEM_ACCESSES_PER_CYCLE,
        schema::SOC_WAIT_CYCLE_RATIO,
        schema::HDP,
        schema::TREUSE,
        schema::SOC_BASE + 2, // soc.ipc
        schema::SOC_BASE + 26, // soc.cpu_utilization
        schema::SOC_ROW_ACTIVATION_RATE,
    ] {
        println!(
            "{:<34} {:>9.2} {:>9.2}",
            schema::name(idx),
            rs_for(&wer_rows, idx),
            rs_for(&pue_rows, idx)
        );
    }

    // Top-10 by |rs(WER)|.
    let mut ranked: Vec<(usize, f64)> =
        (0..schema::FEATURE_COUNT).map(|i| (i, rs_for(&wer_rows, i))).collect();
    ranked.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).unwrap());
    println!("\ntop-10 features by |rs(WER)|:");
    for (i, rs) in ranked.iter().take(10) {
        println!("  {:<34} {:>6.2}", schema::name(*i), rs);
    }

    let access = rs_for(&wer_rows, schema::SOC_MEM_ACCESSES_PER_CYCLE);
    let treuse = rs_for(&wer_rows, schema::TREUSE);
    println!(
        "\npaper: access rate rs=0.57 (WER) dominates Treuse rs=0.23 | measured: {access:.2} vs {treuse:.2}"
    );
}

/// Spearman rs stratified by operating point: rs is computed within each
/// (TREFP, temperature) cell and sample-weighted. Controls the
/// operating-point confounder, which otherwise drowns workload-level
/// effects in the simulator's pooled samples (the paper pools directly;
/// see EXPERIMENTS.md fidelity notes).
fn stratified_rs(rows: &[(&wade_core::CampaignRow, f64)], feature: usize) -> f64 {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(i64, i64), Vec<(f64, f64)>> = BTreeMap::new();
    for (row, y) in rows {
        let key = ((row.op.trefp_s * 1e4) as i64, (row.op.temp_c * 10.0) as i64);
        groups.entry(key).or_default().push((row.features.get(feature), *y));
    }
    let mut acc = 0.0;
    let mut weight = 0.0;
    for vals in groups.values() {
        if vals.len() < 6 {
            continue;
        }
        let x: Vec<f64> = vals.iter().map(|(a, _)| *a).collect();
        let y: Vec<f64> = vals.iter().map(|(_, b)| *b).collect();
        acc += spearman(&x, &y) * vals.len() as f64;
        weight += vals.len() as f64;
    }
    if weight == 0.0 { 0.0 } else { acc / weight }
}
