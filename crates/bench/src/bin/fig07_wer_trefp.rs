//! Fig. 7 — WER per benchmark across TREFP ∈ {0.618, 1.173, 1.727,
//! 2.283} s at 50/60/70 °C (panels a–e), and the benchmark-average WER vs
//! TREFP (panel f, exponential growth).

use std::collections::BTreeMap;
use wade_core::OperatingPoint;

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (store, cache) = wade_bench::init_store();
    let data = wade_bench::full_campaign_data(&store, &cache);

    // Group: temp → trefp → (workload → wer).
    let mut grid: BTreeMap<i64, BTreeMap<i64, Vec<(String, f64)>>> = BTreeMap::new();
    for row in &data.rows {
        let Some(run) = &row.wer_run else { continue };
        if run.crashed {
            continue;
        }
        grid.entry(row.op.temp_c as i64)
            .or_default()
            .entry((row.op.trefp_s * 1000.0) as i64)
            .or_default()
            .push((row.workload.clone(), run.wer));
    }

    for (temp, by_trefp) in &grid {
        println!("\nFig. 7 panel — {temp} °C (WER per benchmark)");
        let trefps: Vec<i64> = by_trefp.keys().copied().collect();
        print!("{:<18}", "benchmark");
        for t in &trefps {
            print!(" {:>10}", format!("{:.3}s", *t as f64 / 1000.0));
        }
        println!();
        let workloads: Vec<String> =
            by_trefp.values().next().map(|v| v.iter().map(|(w, _)| w.clone()).collect()).unwrap_or_default();
        for w in &workloads {
            print!("{w:<18}");
            for t in &trefps {
                let wer = by_trefp[t].iter().find(|(n, _)| n == w).map(|(_, v)| *v).unwrap_or(0.0);
                print!(" {:>10}", wade_bench::fmt_wer(wer));
            }
            println!();
        }
        // Min/max spread at the largest common TREFP (the "8×" observation).
        if let Some(t) = trefps.last() {
            let vals: Vec<f64> =
                by_trefp[t].iter().map(|(_, v)| *v).filter(|v| *v > 0.0).collect();
            if vals.len() > 2 {
                let max = vals.iter().cloned().fold(f64::MIN, f64::max);
                let min = vals.iter().cloned().fold(f64::MAX, f64::min);
                println!("spread across workloads at {:.3}s: {:.1}x (paper: up to 8x)", *t as f64 / 1000.0, max / min);
            }
        }
    }

    println!("\nFig. 7f — benchmark-average WER vs TREFP (expect exponential growth)");
    println!("{:>8} {:>14} {:>14}", "TREFP", "50C avg", "60C avg");
    let mut prev: Option<(f64, f64)> = None;
    for &t in &OperatingPoint::WER_TREFP_SWEEP {
        let avg = |temp: f64| -> f64 {
            let vals: Vec<f64> = data
                .rows
                .iter()
                .filter(|r| {
                    r.op.temp_c == temp && (r.op.trefp_s - t).abs() < 1e-9 && r.wer_run.is_some()
                })
                .filter_map(|r| r.wer_run.as_ref())
                .map(|run| run.wer)
                .collect();
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        let (a50, a60) = (avg(50.0), avg(60.0));
        let growth = prev
            .map(|(p50, p60)| {
                format!("  (step x{:.1} / x{:.1})", a50 / p50.max(1e-300), a60 / p60.max(1e-300))
            })
            .unwrap_or_default();
        println!("{t:>7.3}s {:>14} {:>14}{growth}", wade_bench::fmt_wer(a50), wade_bench::fmt_wer(a60));
        prev = Some((a50, a60));
    }
}
