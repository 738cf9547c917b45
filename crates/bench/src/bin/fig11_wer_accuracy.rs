//! Fig. 11 — mean percentage error of WER estimates for SVM/KNN/RDF under
//! the three input sets, per DIMM/rank (a–c) and per application (d–f).
//!
//! Paper shape: KNN(set 1) ≈ 10.1 % is best; SVM(set 1) ≈ 16.3 %;
//! SVM/KNN degrade with all 249 features (overfitting: 29.3 % / 12.3 %);
//! RDF is worst on set 1 (21.4 %) but *improves* with set 3 (12.9 %).

use wade_core::{EvalGrid, MlKind};
use wade_dram::RankId;
use wade_features::FeatureSet;

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (store, cache) = wade_bench::init_store();
    let data = wade_bench::full_campaign_data(&store, &cache);
    // One grid dispatch for every (model, set) WER cell this figure
    // prints — the same cells table3/repro_all consume from their full
    // grids (ARCHITECTURE.md §10). PUE cells are fig12's target, so this
    // standalone binary leaves them out of its sub-grid.
    let grid = EvalGrid::evaluate_targets_with(
        Some(store),
        &data,
        &MlKind::ALL,
        &FeatureSet::ALL,
        true,
        false,
    );

    for kind in MlKind::ALL {
        println!("\nFig. 11 — {kind}: error of WER estimates (%), leave-one-workload-out");
        let reports: Vec<_> =
            FeatureSet::ALL.iter().map(|&set| grid.wer_report(kind, set)).collect();

        println!("per DIMM/rank (panels a-c):");
        print!("{:<14}", "rank");
        for set in FeatureSet::ALL {
            print!(" {:>12}", set.to_string());
        }
        println!();
        for rank in 0..8 {
            print!("{:<14}", RankId::from_index(rank).to_string());
            for report in &reports {
                match report.per_rank[rank] {
                    Some(err) => print!(" {err:>11.1}%"),
                    None => print!(" {:>12}", "n/a"),
                }
            }
            println!();
        }
        print!("{:<14}", "AVERAGE");
        for report in &reports {
            print!(" {:>11.1}%", report.average);
        }
        println!();

        println!("per application (panels d-f):");
        let workloads: Vec<String> =
            reports[0].per_workload.iter().map(|(w, _)| w.clone()).collect();
        for w in &workloads {
            print!("{w:<18}");
            for report in &reports {
                let err = report
                    .per_workload
                    .iter()
                    .find(|(n, _)| n == w)
                    .map(|(_, e)| *e)
                    .unwrap_or(f64::NAN);
                print!(" {err:>11.1}%");
            }
            println!();
        }
    }

    println!("\npaper: KNN(set1) 10.1% best; SVM(set3) overfits to 29.3%; RDF best with set3 (12.9%)");
}
