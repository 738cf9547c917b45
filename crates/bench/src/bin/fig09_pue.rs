//! Fig. 9 — (a) the probability of an uncorrectable error per benchmark at
//! TREFP ∈ {1.450, 1.727, 2.283} s / 70 °C, and (b) the distribution of
//! UEs across DIMM/ranks.
//!
//! Paper shape: PUE varies strongly across benchmarks at 1.450 s (0 for
//! memcached/pagerank, up to 0.8 for fmm(par)); the average roughly
//! doubles at 1.727 s; every benchmark crashes at 2.283 s; UEs concentrate
//! on two weak ranks.

use std::collections::BTreeMap;
use wade_dram::RankId;

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (store, cache) = wade_bench::init_store();
    let data = wade_bench::full_campaign_data(&store, &cache);

    let mut by_trefp: BTreeMap<i64, Vec<(String, f64)>> = BTreeMap::new();
    let mut rank_ues = [0u64; 8];
    let mut total_ues = 0u64;
    for row in &data.rows {
        if row.pue_runs.is_empty() {
            continue;
        }
        by_trefp
            .entry((row.op.trefp_s * 1000.0) as i64)
            .or_default()
            .push((row.workload.clone(), row.pue()));
        for run in &row.pue_runs {
            if let Some(rank) = run.ue_rank {
                rank_ues[rank] += 1;
                total_ues += 1;
            }
        }
    }

    println!("Fig. 9a: P_UE per benchmark at 70 °C");
    let trefps: Vec<i64> = by_trefp.keys().copied().collect();
    print!("{:<18}", "benchmark");
    for t in &trefps {
        print!(" {:>9}", format!("{:.3}s", *t as f64 / 1000.0));
    }
    println!();
    let workloads: Vec<String> =
        by_trefp.values().next().map(|v| v.iter().map(|(w, _)| w.clone()).collect()).unwrap_or_default();
    for w in &workloads {
        print!("{w:<18}");
        for t in &trefps {
            let p = by_trefp[t].iter().find(|(n, _)| n == w).map(|(_, v)| *v).unwrap_or(0.0);
            print!(" {p:>9.2}");
        }
        println!();
    }
    print!("{:<18}", "AVERAGE");
    let mut avgs = Vec::new();
    for t in &trefps {
        let vals: Vec<f64> = by_trefp[t].iter().map(|(_, v)| *v).collect();
        let avg = vals.iter().sum::<f64>() / vals.len() as f64;
        avgs.push(avg);
        print!(" {avg:>9.2}");
    }
    println!();
    if avgs.len() >= 2 && avgs[0] > 0.0 {
        println!(
            "\npaper: average grows ~2.15x from 1.450s to 1.727s | measured: {:.2}x",
            avgs[1] / avgs[0]
        );
    }

    println!("\nFig. 9b: probability a UE lands on a given DIMM/rank");
    for (i, &n) in rank_ues.iter().enumerate() {
        let p = if total_ues == 0 { 0.0 } else { n as f64 / total_ues as f64 };
        println!(
            "  {:<12} {:>6.2}  {}",
            RankId::from_index(i).to_string(),
            p,
            "#".repeat((p * 40.0) as usize)
        );
    }
    println!("paper: two weak ranks dominate (0.67 / 0.24), one rank UE-free");
}
