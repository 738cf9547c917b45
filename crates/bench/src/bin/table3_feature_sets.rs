//! Table III — the three model input sets, with the measured accuracy each
//! one buys (the numbers Figs. 11/12 break down), served from the same
//! shared [`EvalGrid`] evaluation as the figure binaries instead of a
//! third independent re-training.

use wade_core::{EvalGrid, MlKind};
use wade_features::{schema, FeatureSet};

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (store, cache) = wade_bench::init_store();
    println!("Table III: input feature sets used for training");
    println!("{:<12} parameters", "input set");
    println!("{}", "-".repeat(76));
    for set in FeatureSet::ALL {
        println!("{:<12} {}", set.to_string(), set.description());
    }
    println!("\nprogram-feature indices resolved against the 249-feature schema:");
    for set in [FeatureSet::Set1, FeatureSet::Set2] {
        let names: Vec<String> = set.indices().iter().map(|&i| schema::name(i)).collect();
        println!("  {set}: {}", names.join(", "));
    }
    println!(
        "  {}: all {} program features",
        FeatureSet::Set3,
        FeatureSet::Set3.indices().len()
    );

    // What each input set buys: the per-set accuracy summary of the shared
    // model-evaluation grid (one dispatch; fig11/fig12 print the detailed
    // breakdowns of the same cells).
    let data = wade_bench::full_campaign_data(&store, &cache);
    let grid = EvalGrid::evaluate_targets_with(
        Some(store),
        &data,
        &MlKind::ALL,
        &FeatureSet::ALL,
        true,
        true,
    );
    println!("\naccuracy per input set (LOWO-CV; WER mean % error / PUE error in pp):");
    print!("{:<8}", "model");
    for set in FeatureSet::ALL {
        print!(" {:>22}", set.to_string());
    }
    println!();
    for kind in MlKind::ALL {
        print!("{:<8}", kind.label());
        for set in FeatureSet::ALL {
            let wer = grid.wer_report(kind, set).average;
            let pue = grid.pue_error(kind, set);
            if pue.is_finite() {
                print!(" {:>13.1}% / {:>4.1}pp", wer, pue);
            } else {
                print!(" {:>13.1}% /  n/a", wer);
            }
        }
        println!();
    }
    println!(
        "\n({} fold models trained in one grid dispatch; paper: low-dimensional sets win for SVM/KNN, set 3 only helps RDF)",
        grid.trainings()
    );
}
