//! Fig. 3 — the data-collection and validation pipeline, executed end to
//! end with stage-by-stage narration (the figure is a schematic; this
//! binary demonstrates the same flow as running code).

use wade_core::{build_wer_dataset, train_error_model, Campaign, CampaignConfig, MlKind};
use wade_features::FeatureSet;
use wade_workloads::{paper_suite, Scale};

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (_store, cache) = wade_bench::init_store();
    println!("Fig. 3: data collection and validation pipeline\n");

    println!("[1] Profiling phase: extract program features (perf + DynamoRIO stand-ins)");
    let server = wade_bench::server();
    let suite = paper_suite(Scale::Test);
    for wl in suite.iter().take(3) {
        let p = cache.profile(&server, wl.as_ref(), 1);
        println!(
            "    {:<16} {:>9} accesses, {:>9} instrs, 249 features extracted",
            p.name, p.trace.mem_accesses, p.trace.instructions
        );
    }
    println!("    … ({} workloads total)", suite.len());

    println!("\n[2] DRAM characterization phase: run workloads under varying TREFP/VDD/temp");
    let campaign = Campaign::new(server, CampaignConfig::quick()).with_profile_cache(cache);
    let data = campaign.collect(&suite, 1);
    let wer_rows = data.rows.iter().filter(|r| r.wer_run.is_some()).count();
    let pue_rows = data.rows.iter().filter(|r| !r.pue_runs.is_empty()).count();
    println!(
        "    {} rows collected ({} WER cells, {} PUE cells), {:.1} simulated hours",
        data.rows.len(),
        wer_rows,
        pue_rows,
        data.simulated_seconds / 3600.0
    );

    println!("\n[3] Build data set: MODEL INPUT = TREFP, VDD, TEMP + program features");
    let ds = build_wer_dataset(&data, FeatureSet::Set1, 0);
    println!(
        "    rank 0 WER dataset: {} samples x {} inputs, groups = {:?}",
        ds.len(),
        ds.dim(),
        ds.groups()
    );

    println!("\n[4] Training/testing: leave-one-workload-out (train on all other samples)");
    for group in ds.groups().iter().take(2) {
        let (train, test) = ds.split_leave_group_out(group);
        println!("    hold out {:<16} -> train {:>3} samples, test {:>2}", group, train.len(), test.len());
    }

    let model = train_error_model(&data, MlKind::Knn, FeatureSet::Set1);
    println!("\n[5] Final model: {:?}", model);
    println!("\npipeline executed end to end — see fig11/fig12 for accuracy numbers");
}
