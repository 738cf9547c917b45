//! Fig. 2 — WER over time for memcached, backprop and the random
//! data-pattern micro-benchmark (TREFP = 2.283 s, VDD = 1.428 V, 70 °C).
//!
//! Paper shape: backprop converges ~3.5× above the random micro, memcached
//! far below both — real workloads can both exceed and undercut the
//! conventional profiling stressor.

use wade_core::OperatingPoint;
use wade_dram::ErrorSim;
use wade_workloads::{Scale, WorkloadId};

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (_store, cache) = wade_bench::init_store();
    let server = wade_bench::server();
    let op = OperatingPoint::relaxed(2.283, 70.0);
    let duration = 7200.0;
    let workloads = [
        WorkloadId::Memcached.instantiate(8, Scale::Full),
        WorkloadId::Backprop.instantiate(8, Scale::Full),
        WorkloadId::MicroRandom.instantiate(1, Scale::Full),
    ];

    println!("Fig. 2: WER vs time, {op} (2 h run)");
    let mut curves = Vec::new();
    for wl in &workloads {
        let profiled = cache.profile(
            &server,
            wl.as_ref(),
            wade_bench::CAMPAIGN_SEED,
        );
        let run = ErrorSim::new(server.device()).run(&profiled.profile, op, duration, 2);
        curves.push((wl.name(), run));
    }

    print!("{:>10}", "t (min)");
    for (name, _) in &curves {
        print!("  {name:>22}");
    }
    println!();
    for minute in (10..=120).step_by(10) {
        print!("{minute:>10}");
        for (_, run) in &curves {
            print!("  {:>22}", wade_bench::fmt_wer(run.wer_at(minute as f64 * 60.0)));
        }
        println!();
    }
    for (name, run) in &curves {
        if let Some(ue) = run.ue {
            println!("note: {name} crashed with a UE at {:.0} s (70 °C + max TREFP regime)", ue.t_s);
        }
    }

    let final_wer: Vec<f64> = curves.iter().map(|(_, r)| r.wer()).collect();
    println!("\npaper: backprop > random > memcached, backprop/random ≈ 3.5×");
    println!(
        "measured: backprop/random = {:.1}x, random/memcached = {:.1}x",
        final_wer[1] / final_wer[2].max(1e-300),
        final_wer[2] / final_wer[0].max(1e-300)
    );
}
