//! ε-insensitive support vector regression with an RBF kernel.
//!
//! Trained by kernel coordinate descent on the bias-free dual (targets are
//! centred instead, a standard SMO simplification): each pass solves the
//! one-dimensional sub-problem for `β_i ∈ [−C, C]` in closed form
//! (soft-thresholding by ε), which converges to the dual optimum of the
//! bias-free ε-SVR.

use crate::model::{validate_training_input, Regressor, Trainer};
use crate::scale::StandardScaler;
use serde::{Deserialize, Serialize};

/// SVR trainer (hyper-parameters: C, ε, RBF γ, iteration budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvrTrainer {
    /// Box constraint (regularisation).
    pub c: f64,
    /// ε-insensitive tube half-width.
    pub epsilon: f64,
    /// RBF kernel width: `k(a,b) = exp(−γ‖a−b‖²)`. `None` = `1/dim`
    /// (scikit-learn's `gamma="auto"`).
    pub gamma: Option<f64>,
    /// Coordinate-descent sweeps.
    pub max_passes: usize,
}

impl SvrTrainer {
    /// A reasonable default configuration for z-scored features.
    pub fn paper_default() -> Self {
        Self { c: 10.0, epsilon: 0.01, gamma: None, max_passes: 60 }
    }
}

impl Trainer for SvrTrainer {
    type Model = SvrRegressor;

    fn train(&self, x: &[Vec<f64>], y: &[f64]) -> SvrRegressor {
        let dim = validate_training_input(x, y);
        let scaler = StandardScaler::fit(x);
        let xs = scaler.transform_batch(x);
        let gamma = self.gamma.unwrap_or(1.0 / dim as f64);
        let n = xs.len();

        // Centre the targets; the mean acts as the bias term.
        let bias = y.iter().sum::<f64>() / n as f64;
        let yc: Vec<f64> = y.iter().map(|v| v - bias).collect();

        // Dense kernel matrix (campaign datasets are a few hundred rows).
        let mut kernel = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let k = rbf(&xs[i], &xs[j], gamma);
                kernel[i * n + j] = k;
                kernel[j * n + i] = k;
            }
        }

        // Coordinate descent on β.
        let mut beta = vec![0.0; n];
        let mut f = vec![0.0; n]; // f_i = Σ_j β_j K_ij
        for _pass in 0..self.max_passes {
            let mut max_delta = 0.0f64;
            for i in 0..n {
                let k_ii = kernel[i * n + i].max(1e-12);
                let residual = yc[i] - (f[i] - beta[i] * k_ii);
                // Closed-form minimiser with the ε-insensitive penalty:
                // soft-threshold the residual by ε, then box-clip.
                let unconstrained = soft_threshold(residual, self.epsilon) / k_ii;
                let new_beta = unconstrained.clamp(-self.c, self.c);
                let delta = new_beta - beta[i];
                if delta.abs() > 1e-12 {
                    for j in 0..n {
                        f[j] += delta * kernel[i * n + j];
                    }
                    beta[i] = new_beta;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < 1e-8 {
                break;
            }
        }

        // Keep only support vectors.
        let mut support = Vec::new();
        let mut coeffs = Vec::new();
        for (i, &b) in beta.iter().enumerate() {
            if b.abs() > 1e-10 {
                support.push(xs[i].clone());
                coeffs.push(b);
            }
        }
        SvrRegressor { support, coeffs, bias, gamma, scaler }
    }
}

fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    let d2: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y).powi(2)).sum();
    (-gamma * d2).exp()
}

fn soft_threshold(v: f64, eps: f64) -> f64 {
    if v > eps {
        v - eps
    } else if v < -eps {
        v + eps
    } else {
        0.0
    }
}

/// Trained SVR model: support vectors, dual coefficients and bias.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SvrRegressor {
    support: Vec<Vec<f64>>,
    coeffs: Vec<f64>,
    bias: f64,
    gamma: f64,
    scaler: StandardScaler,
}

impl SvrRegressor {
    /// Whether the model was trained on rows of `width` features.
    pub fn fits(&self, width: usize) -> bool {
        self.scaler.dim() == width
    }
}

impl Regressor for SvrRegressor {
    fn predict(&self, features: &[f64]) -> f64 {
        let q = self.scaler.transform(features);
        let mut acc = self.bias;
        for (sv, &b) in self.support.iter().zip(self.coeffs.iter()) {
            acc += b * rbf(sv, &q, self.gamma);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_a_smooth_function() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 4.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0]).sin()).collect();
        let model = SvrTrainer::paper_default().train(&x, &y);
        for (xi, yi) in x.iter().zip(y.iter()) {
            let p = model.predict(xi);
            assert!((p - yi).abs() < 0.15, "f({}) = {p}, want {yi}", xi[0]);
        }
    }

    #[test]
    fn epsilon_tube_sparsifies() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 0.01 * r[0]).collect();
        let tight = SvrTrainer { epsilon: 0.001, ..SvrTrainer::paper_default() }.train(&x, &y);
        let loose = SvrTrainer { epsilon: 0.3, ..SvrTrainer::paper_default() }.train(&x, &y);
        assert!(loose.support.len() <= tight.support.len());
    }

    #[test]
    fn constant_targets_yield_constant_model() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![5.0; 10];
        let model = SvrTrainer::paper_default().train(&x, &y);
        assert!((model.predict(&[3.5]) - 5.0).abs() < 1e-6);
        assert_eq!(model.support.len(), 0, "everything inside the ε-tube");
    }

    #[test]
    fn interpolates_between_points() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.0]];
        let y = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let model = SvrTrainer::paper_default().train(&x, &y);
        let p = model.predict(&[2.5]);
        assert!((p - 2.5).abs() < 0.4, "pred {p}");
    }

    #[test]
    fn soft_threshold_properties() {
        assert_eq!(soft_threshold(5.0, 1.0), 4.0);
        assert_eq!(soft_threshold(-5.0, 1.0), -4.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
    }
}
