//! Spearman rank correlation (the paper's feature-selection statistic).
//!
//! The paper uses Spearman's `r_s` because it captures monotone non-linear
//! relationships between program features and error metrics (§VI-A).

/// Assigns fractional ranks (1-based, ties get the average rank).
pub(crate) fn rank_with_ties(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap_or(std::cmp::Ordering::Equal));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Average rank for the tie group [i..=j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman's rank correlation coefficient between two equal-length slices.
///
/// Returns 0 for degenerate inputs (length < 2 or zero variance), matching
/// the "no detectable monotone relationship" interpretation.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "spearman needs equal-length samples");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let rx = rank_with_ties(x);
    let ry = rank_with_ties(y);
    pearson(&rx, &ry)
}

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        cov += (a - mx) * (b - my);
        vx += (a - mx).powi(2);
        vy += (b - my).powi(2);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_monotone_is_one() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [10.0, 100.0, 1000.0, 10_000.0, 100_000.0];
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_inverse_is_minus_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&x, &y) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonlinear_monotone_still_one() {
        let x: Vec<f64> = (1..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_feature_is_zero() {
        let x = [3.0; 10];
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(spearman(&x, &y), 0.0);
    }

    #[test]
    fn ties_get_average_ranks() {
        let ranks = rank_with_ties(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(ranks, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn shuffled_independent_data_is_small() {
        // Deterministic pseudo-random pairing with no real relationship.
        let x: Vec<f64> = (0..200).map(|i| ((i * 2654435761u64) % 1000) as f64).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 40503 + 7) % 997) as f64).collect();
        assert!(spearman(&x, &y).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn length_mismatch_panics() {
        spearman(&[1.0], &[1.0, 2.0]);
    }
}
