//! The workload-unaware baseline model.
//!
//! Conventional DRAM error modelling (§VI-C) assumes a *constant* error
//! rate per operating point, measured once with a data-pattern
//! micro-benchmark, regardless of the running workload. WADE reproduces it
//! as a regressor that ignores its input features entirely — the
//! comparison target that the paper beats by 2.9× (Fig. 13).

use crate::model::{validate_training_input, Regressor, Trainer};

/// Trains [`ConstantModel`]s by averaging the training targets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstantTrainer;

impl Trainer for ConstantTrainer {
    type Model = ConstantModel;

    fn train(&self, x: &[Vec<f64>], y: &[f64]) -> ConstantModel {
        validate_training_input(x, y);
        ConstantModel::new(y.iter().sum::<f64>() / y.len() as f64)
    }
}

/// A model that predicts the same value for every input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantModel {
    value: f64,
}

impl ConstantModel {
    /// Builds the model around a fixed value (e.g. the WER measured with
    /// the random data-pattern micro-benchmark).
    pub(crate) fn new(value: f64) -> Self {
        Self { value }
    }
}

impl Regressor for ConstantModel {
    fn predict(&self, _features: &[f64]) -> f64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ignores_features() {
        let m = ConstantModel::new(3.5);
        assert_eq!(m.predict(&[0.0]), 3.5);
        assert_eq!(m.predict(&[1e9, -1e9]), 3.5);
    }

    #[test]
    fn trainer_takes_the_mean() {
        let m = ConstantTrainer.train(&[vec![1.0], vec![2.0]], &[10.0, 20.0]);
        assert_eq!(m.value, 15.0);
    }
}
