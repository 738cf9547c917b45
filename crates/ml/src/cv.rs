//! Leave-one-group-out cross-validation (the paper's §III-F protocol).
//!
//! Folds are independent — each trains on its own copy of the remaining
//! groups — so [`leave_one_group_out`] fans them out on the shared rayon
//! pool and merges outcomes back in group order. Output is byte-identical
//! at any thread count (`tests/ml_parallel.rs`).

use crate::dataset::Dataset;
use crate::model::{Regressor, Trainer};
use rayon::prelude::*;

/// Per-group cross-validation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCvOutcome {
    /// The held-out group (a workload name in WADE).
    pub group: String,
    /// Predictions on the held-out samples, in dataset order.
    pub predictions: Vec<f64>,
    /// Ground-truth targets for those samples.
    pub actuals: Vec<f64>,
}

/// Runs leave-one-group-out CV: for every group, trains on all other
/// groups' samples and predicts the held-out ones — exactly the paper's
/// "copy all samples except the specific workload's into the training set"
/// loop (Fig. 3, right).
///
/// Folds run in parallel on the shared rayon pool; outcomes come back in
/// group (first-appearance) order, byte-identical at any thread count.
///
/// Groups whose removal would leave an empty training set are skipped.
pub fn leave_one_group_out<T: Trainer + Sync>(data: &Dataset, trainer: &T) -> Vec<GroupCvOutcome> {
    data.groups()
        .into_par_iter()
        .map(|group| {
            let (train, test) = data.split_leave_group_out(&group);
            if train.is_empty() || test.is_empty() {
                return None;
            }
            let model = trainer.train(&train.features(), &train.targets());
            let predictions = test.features().iter().map(|r| model.predict(r)).collect();
            Some(GroupCvOutcome { group, predictions, actuals: test.targets() })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnTrainer;
    use crate::metrics::mean_percentage_error;

    fn smooth_dataset() -> Dataset {
        // Target = 10·x0 + x1; every x0 value appears in every group, so a
        // held-out group is always interpolable from the others.
        let mut d = Dataset::new(2);
        for i in 0..80 {
            let x0 = ((i / 4) % 8) as f64;
            let x1 = (i / 32) as f64;
            d.push(vec![x0, x1], 10.0 * x0 + x1 + 1.0, format!("g{}", i % 4));
        }
        d
    }

    #[test]
    fn every_group_is_tested_once() {
        let data = smooth_dataset();
        let outcomes = leave_one_group_out(&data, &KnnTrainer::new(3));
        assert_eq!(outcomes.len(), 4);
        let tested: usize = outcomes.iter().map(|o| o.predictions.len()).sum();
        assert_eq!(tested, data.len());
    }

    #[test]
    fn smooth_targets_cross_validate_well() {
        let data = smooth_dataset();
        let outcomes = leave_one_group_out(&data, &KnnTrainer::new(3));
        for o in &outcomes {
            let mpe = mean_percentage_error(&o.predictions, &o.actuals);
            assert!(mpe < 40.0, "group {} mpe {mpe}", o.group);
        }
    }

    #[test]
    fn single_group_dataset_yields_nothing() {
        let mut d = Dataset::new(1);
        d.push(vec![1.0], 1.0, "only".into());
        d.push(vec![2.0], 2.0, "only".into());
        assert!(leave_one_group_out(&d, &KnnTrainer::new(1)).is_empty());
    }
}
