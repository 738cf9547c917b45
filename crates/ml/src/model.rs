//! The regressor/trainer abstractions.

/// A trained regression model.
pub trait Regressor {
    /// Predicts the target for one feature vector.
    fn predict(&self, features: &[f64]) -> f64;
}

/// A training procedure producing a [`Regressor`].
///
/// Trainers own their hyper-parameters; `train` is deterministic for a
/// given trainer configuration and input (seeded internally where
/// randomness is needed).
pub trait Trainer {
    /// The model type produced.
    type Model: Regressor;

    /// Fits a model to the given rows and targets.
    ///
    /// # Panics
    /// Implementations panic on empty input or ragged rows.
    fn train(&self, x: &[Vec<f64>], y: &[f64]) -> Self::Model;
}

/// Validates a training matrix: non-empty, consistent dims, finite values.
pub(crate) fn validate_training_input(x: &[Vec<f64>], y: &[f64]) -> usize {
    assert!(!x.is_empty(), "training set must not be empty");
    assert_eq!(x.len(), y.len(), "feature/target count mismatch");
    let dim = x[0].len();
    assert!(dim > 0, "features must not be empty");
    for row in x {
        assert_eq!(row.len(), dim, "ragged feature rows");
        assert!(row.iter().all(|v| v.is_finite()), "non-finite feature");
    }
    assert!(y.iter().all(|v| v.is_finite()), "non-finite target");
    dim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_accepts_good_input() {
        assert_eq!(validate_training_input(&[vec![1.0, 2.0]], &[3.0]), 2);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn validation_rejects_empty() {
        validate_training_input(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn validation_rejects_ragged() {
        validate_training_input(&[vec![1.0], vec![1.0, 2.0]], &[0.0, 0.0]);
    }
}
