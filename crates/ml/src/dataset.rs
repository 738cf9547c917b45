//! Datasets with group labels (groups = workloads, for LOWO-CV).

use serde::{Deserialize, Serialize};

/// One training sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Input features.
    pub features: Vec<f64>,
    /// Regression target.
    pub target: f64,
    /// Group label; the paper's cross-validation leaves one *workload's*
    /// samples out at a time (§III-F, Fig. 3).
    pub group: String,
}

/// A labelled dataset with a fixed feature dimension.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    dim: usize,
    samples: Vec<Sample>,
}

impl Dataset {
    /// An empty dataset of `dim`-dimensional samples.
    pub fn new(dim: usize) -> Self {
        Self { dim, samples: Vec::new() }
    }

    /// Adds one sample.
    ///
    /// # Panics
    /// Panics on dimension mismatch or non-finite values.
    pub fn push(&mut self, features: Vec<f64>, target: f64, group: String) {
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        assert!(features.iter().all(|v| v.is_finite()), "non-finite feature");
        assert!(target.is_finite(), "non-finite target");
        self.samples.push(Sample { features, target, group });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are present.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The samples in insertion order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Feature matrix (row per sample).
    pub fn features(&self) -> Vec<Vec<f64>> {
        self.samples.iter().map(|s| s.features.clone()).collect()
    }

    /// Target vector.
    pub fn targets(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.target).collect()
    }

    /// Distinct group labels, in first-appearance order.
    pub fn groups(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for s in &self.samples {
            if !seen.contains(&s.group) {
                seen.push(s.group.clone());
            }
        }
        seen
    }

    /// Splits into (train, test) leaving out one group — the paper's
    /// leave-one-out partitioning (Fig. 3's validation process).
    pub fn split_leave_group_out(&self, group: &str) -> (Dataset, Dataset) {
        let mut train = Dataset::new(self.dim);
        let mut test = Dataset::new(self.dim);
        for s in &self.samples {
            if s.group == group {
                test.samples.push(s.clone());
            } else {
                train.samples.push(s.clone());
            }
        }
        (train, test)
    }

    /// Splits directly into the `(train_x, train_y, test_x, test_y)`
    /// matrices trainers consume, leaving out one group. Equivalent to
    /// `split_leave_group_out` followed by `features()`/`targets()` on both
    /// halves — same rows, same order — but with a single clone per sample
    /// instead of two (the intermediate `Dataset`s cloned every `Sample`
    /// only to be cloned again into matrices; `wade_core::EvalGrid` runs
    /// this once per fold).
    #[allow(clippy::type_complexity)]
    pub fn split_xy_leave_group_out(
        &self,
        group: &str,
    ) -> (Vec<Vec<f64>>, Vec<f64>, Vec<Vec<f64>>, Vec<f64>) {
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for s in &self.samples {
            if s.group == group {
                test_x.push(s.features.clone());
                test_y.push(s.target);
            } else {
                train_x.push(s.features.clone());
                train_y.push(s.target);
            }
        }
        (train_x, train_y, test_x, test_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(2);
        d.push(vec![1.0, 2.0], 10.0, "a".into());
        d.push(vec![3.0, 4.0], 20.0, "b".into());
        d.push(vec![5.0, 6.0], 30.0, "a".into());
        d
    }

    #[test]
    fn push_and_query() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.groups(), vec!["a".to_string(), "b".to_string()]);
        let column: Vec<f64> = d.samples.iter().map(|s| s.features[1]).collect();
        assert_eq!(column, vec![2.0, 4.0, 6.0]);
        assert_eq!(d.targets(), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn leave_group_out_partitions() {
        let d = toy();
        let (train, test) = d.split_leave_group_out("a");
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 2);
        assert!(test.samples().iter().all(|s| s.group == "a"));
        assert_eq!(train.len() + test.len(), d.len());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dim_mismatch_panics() {
        toy().push(vec![1.0], 0.0, "x".into());
    }

    #[test]
    #[should_panic(expected = "non-finite target")]
    fn nan_target_panics() {
        toy().push(vec![1.0, 2.0], f64::NAN, "x".into());
    }
}
