//! Fig. 12 — error of PUE estimates averaged over applications, for the
//! three learners × three input sets.
//!
//! Paper shape: KNN/RDF with input set 2 are best (4.1 % / 5.5 %), roughly
//! 3× better than SVM's best (12.3 % with set 1).

use wade_core::{EvalGrid, MlKind};
use wade_features::FeatureSet;

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (store, cache) = wade_bench::init_store();
    let data = wade_bench::full_campaign_data(&store, &cache);
    // One grid dispatch for every (model, set) PUE cell this figure
    // prints — the same cells table3/repro_all consume from their full
    // grids (ARCHITECTURE.md §10). WER cells are fig11's target, so this
    // standalone binary leaves them out of its sub-grid.
    let grid = EvalGrid::evaluate_targets_with(
        Some(store),
        &data,
        &MlKind::ALL,
        &FeatureSet::ALL,
        false,
        true,
    );

    println!("Fig. 12: error of P_UE estimates (percentage points), LOWO-CV");
    print!("{:<8}", "model");
    for set in FeatureSet::ALL {
        print!(" {:>12}", set.to_string());
    }
    println!();
    let mut best: Option<(MlKind, FeatureSet, f64)> = None;
    for kind in MlKind::ALL {
        print!("{:<8}", kind.label());
        for set in FeatureSet::ALL {
            let err = grid.pue_error(kind, set);
            if err.is_finite() && best.is_none_or(|(_, _, b)| err < b) {
                best = Some((kind, set, err));
            }
            if err.is_finite() {
                print!(" {err:>11.1}%");
            } else {
                print!(" {:>12}", "n/a");
            }
        }
        println!();
    }
    if let Some((kind, set, err)) = best {
        println!("\nbest: {kind} with {set} at {err:.1}% (paper: KNN/set 2 at 4.1%)");
    }
}
