//! K-nearest-neighbours regression — the paper's most accurate model.

use crate::model::{validate_training_input, Regressor, Trainer};
use crate::scale::StandardScaler;
use serde::{Deserialize, Serialize};

/// KNN trainer (hyper-parameter: `k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnTrainer {
    k: usize,
}

impl KnnTrainer {
    /// Creates a trainer with the given neighbour count.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self { k }
    }

    /// The paper's configuration (k = 4 neighbours works well on ~10
    /// operating points per workload).
    pub fn paper_default() -> Self {
        Self::new(4)
    }
}

impl Trainer for KnnTrainer {
    type Model = KnnRegressor;

    fn train(&self, x: &[Vec<f64>], y: &[f64]) -> KnnRegressor {
        validate_training_input(x, y);
        let scaler = StandardScaler::fit(x);
        let x = scaler.transform_batch(x);
        let axis = widest_axis(&x);
        let order = axis_order(&x, axis);
        KnnRegressor { k: self.k, x, y: y.to_vec(), scaler, axis, order }
    }
}

/// The feature with the widest (z-scored) value range — the single-axis
/// split the pruned neighbour search scans along. Ties resolve to the
/// lowest feature index, so the axis is a pure function of the training
/// set.
fn widest_axis(x: &[Vec<f64>]) -> usize {
    let dim = x[0].len();
    let mut best = 0usize;
    let mut best_range = f64::NEG_INFINITY;
    for a in 0..dim {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for row in x {
            lo = lo.min(row[a]);
            hi = hi.max(row[a]);
        }
        let range = hi - lo;
        if range > best_range {
            best_range = range;
            best = a;
        }
    }
    best
}

/// Sample indices sorted by `(value on axis, index)` — the scan order of
/// the pruned search. The index tiebreaker keeps the order deterministic
/// on gridded data full of duplicate values.
fn axis_order(x: &[Vec<f64>], axis: usize) -> Vec<u32> {
    let mut order: Vec<u32> =
        (0..u32::try_from(x.len()).expect("training set exceeds u32 indices")).collect();
    order.sort_unstable_by(|&a, &b| {
        x[a as usize][axis].total_cmp(&x[b as usize][axis]).then(a.cmp(&b))
    });
    order
}

/// Trained KNN model: memorised (z-scored) training set with
/// inverse-distance-weighted prediction, plus the widest-axis scan order
/// that lets prediction prune candidates it can prove are too far.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnnRegressor {
    k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    scaler: StandardScaler,
    axis: usize,
    order: Vec<u32>,
}

fn by_distance_then_index(a: &(f64, usize, f64), b: &(f64, usize, f64)) -> core::cmp::Ordering {
    a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1))
}

/// Inverse-distance weighting over neighbours already sorted by
/// `(distance², index)`; an exact hit dominates. Shared verbatim by the
/// pruned and exhaustive paths — bit-identical inputs give bit-identical
/// predictions.
fn weighted_prediction(neighbours: &[(f64, usize, f64)]) -> f64 {
    let mut wsum = 0.0;
    let mut acc = 0.0;
    for &(d2, _, t) in neighbours {
        if d2 < 1e-18 {
            return t;
        }
        let w = 1.0 / d2.sqrt();
        wsum += w;
        acc += w * t;
    }
    acc / wsum
}

impl KnnRegressor {
    /// Whether the model was trained on rows of `width` features.
    pub fn fits(&self, width: usize) -> bool {
        self.scaler.dim() == width
    }

    /// Exhaustive-scan prediction — the reference path the pruned
    /// [`Regressor::predict`] is bit-identical to (`tests/` pin this).
    ///
    /// Collects (distance², sample index, target) for *every* training
    /// point and takes the k smallest under the *total* order
    /// (distance, index): the index tiebreaker makes the neighbour set —
    /// and the order weights accumulate in — a pure function of the
    /// training set, never of the selection algorithm's internal element
    /// ordering. Duplicate distances are common on gridded campaign data,
    /// so this is what keeps prediction byte-identical across refactors
    /// and parallel fan-outs.
    pub fn predict_exhaustive(&self, features: &[f64]) -> f64 {
        let q = self.scaler.transform(features);
        let mut dist: Vec<(f64, usize, f64)> = self
            .x
            .iter()
            .zip(self.y.iter())
            .enumerate()
            .map(|(i, (row, &t))| {
                let d2: f64 = row.iter().zip(q.iter()).map(|(a, b)| (a - b).powi(2)).sum();
                (d2, i, t)
            })
            .collect();
        let k = self.k.min(dist.len());
        dist.select_nth_unstable_by(k - 1, by_distance_then_index);
        let neighbours = &mut dist[..k];
        neighbours.sort_unstable_by(by_distance_then_index);
        weighted_prediction(neighbours)
    }
}

impl Regressor for KnnRegressor {
    /// Pruned neighbour search: scan candidates outward from the query's
    /// position along the widest axis, and stop a direction once its axis
    /// distance alone *strictly* exceeds the current k-th best distance
    /// (equal distances can still win on a lower index, so equality keeps
    /// scanning). Per-candidate distances accumulate feature-by-feature in
    /// the same order as the exhaustive scan — abandoning only when the
    /// partial sum strictly exceeds the k-th best — so every admitted
    /// distance is bit-identical and the selected set is exactly the k
    /// smallest under (distance², index).
    fn predict(&self, features: &[f64]) -> f64 {
        let n = self.x.len();
        let k = self.k.min(n);
        if k == n {
            // Every point is a neighbour; nothing to prune.
            return self.predict_exhaustive(features);
        }
        let q = self.scaler.transform(features);
        let qa = q[self.axis];
        let split = self.order.partition_point(|&i| self.x[i as usize][self.axis] < qa);

        // Current k best as (distance², index, target); `worst` caches the
        // maximum under the (distance², index) total order once full.
        let mut best: Vec<(f64, usize, f64)> = Vec::with_capacity(k);
        let mut worst = (f64::INFINITY, usize::MAX);
        let mut li = split; // candidates order[..li], scanned right-to-left
        let mut ri = split; // candidates order[ri..], scanned left-to-right
        loop {
            let ld = if li > 0 {
                (qa - self.x[self.order[li - 1] as usize][self.axis]).powi(2)
            } else {
                f64::INFINITY
            };
            let rd = if ri < n {
                (self.x[self.order[ri] as usize][self.axis] - qa).powi(2)
            } else {
                f64::INFINITY
            };
            // Take the nearer side next; its axis distance lower-bounds
            // everything not yet scanned, so a strict excess over the k-th
            // best ends the whole search.
            let (from_left, axis_d2) = if ld <= rd { (true, ld) } else { (false, rd) };
            if axis_d2 == f64::INFINITY || (best.len() == k && axis_d2 > worst.0) {
                break;
            }
            let cand = if from_left {
                li -= 1;
                self.order[li] as usize
            } else {
                let c = self.order[ri] as usize;
                ri += 1;
                c
            };

            // Partial-distance early abandon (strict, for the same
            // tie-on-index reason as above). Partial sums of squares are
            // monotone, so an abandoned candidate's full distance would
            // also strictly exceed the k-th best.
            let row = &self.x[cand];
            let mut d2 = 0.0;
            let mut abandoned = false;
            for (a, b) in row.iter().zip(q.iter()) {
                d2 += (a - b).powi(2);
                if best.len() == k && d2 > worst.0 {
                    abandoned = true;
                    break;
                }
            }
            if abandoned {
                continue;
            }
            if best.len() < k {
                best.push((d2, cand, self.y[cand]));
                if best.len() == k {
                    worst = current_worst(&best);
                }
            } else if d2 < worst.0 || (d2 == worst.0 && cand < worst.1) {
                let at = best
                    .iter()
                    .position(|&(d, i, _)| d == worst.0 && i == worst.1)
                    .expect("cached worst entry present");
                best[at] = (d2, cand, self.y[cand]);
                worst = current_worst(&best);
            }
        }

        best.sort_unstable_by(by_distance_then_index);
        weighted_prediction(&best)
    }
}

/// The worst (maximum) entry of the current k-set under the
/// (distance², index) total order.
fn current_worst(best: &[(f64, usize, f64)]) -> (f64, usize) {
    let mut w = (f64::NEG_INFINITY, 0usize);
    for &(d2, i, _) in best {
        if d2 > w.0 || (d2 == w.0 && i > w.1) {
            w = (d2, i);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_xy() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                x.push(vec![i as f64, j as f64]);
                y.push(3.0 * i as f64 - 2.0 * j as f64);
            }
        }
        (x, y)
    }

    #[test]
    fn exact_training_point_is_reproduced() {
        let (x, y) = grid_xy();
        let model = KnnTrainer::new(4).train(&x, &y);
        assert_eq!(model.predict(&[5.0, 5.0]), 5.0);
    }

    #[test]
    fn interpolation_is_close_on_smooth_targets() {
        let (x, y) = grid_xy();
        let model = KnnTrainer::new(4).train(&x, &y);
        let pred = model.predict(&[4.5, 4.5]);
        assert!((pred - 4.5).abs() < 1.5, "pred {pred}");
    }

    #[test]
    fn k_larger_than_dataset_degrades_to_global_mean() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![0.0, 10.0];
        let model = KnnTrainer::new(50).train(&x, &y);
        let pred = model.predict(&[0.5]);
        assert!((pred - 5.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_makes_axes_comparable() {
        // Feature 1 has a huge scale; without z-scoring it would drown
        // feature 0 entirely.
        let x = vec![
            vec![0.0, 0.0],
            vec![1.0, 1_000_000.0],
            vec![2.0, 2_000_000.0],
            vec![3.0, 3_000_000.0],
        ];
        let y = vec![0.0, 1.0, 2.0, 3.0];
        let model = KnnTrainer::new(1).train(&x, &y);
        // Query close to sample 2 in *scaled* space.
        let pred = model.predict(&[2.1, 2_100_000.0]);
        assert_eq!(pred, 2.0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        KnnTrainer::new(0);
    }

    #[test]
    fn duplicate_distances_break_ties_on_sample_index() {
        // Four training points all equidistant from the query, but k = 2:
        // the neighbour set must be the two *lowest-index* samples, so the
        // prediction is their (equal-weight) mean — not whichever pair the
        // selection algorithm happened to leave in front.
        let x = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![-1.0, 0.0], vec![0.0, -1.0]];
        let y = vec![10.0, 20.0, 70.0, 80.0];
        let model = KnnTrainer::new(2).train(&x, &y);
        let pred = model.predict(&[0.0, 0.0]);
        assert_eq!(pred, 15.0, "expected the mean of samples 0 and 1");
    }

    #[test]
    fn pruned_search_is_bit_identical_to_exhaustive() {
        // Gridded data maximizes duplicate distances — the hard case for
        // any pruning scheme, since ties must still resolve on index.
        let (x, y) = grid_xy();
        for k in [1, 2, 4, 7, 99, 150] {
            let model = KnnTrainer::new(k).train(&x, &y);
            for i in 0..60 {
                let q = vec![(i % 12) as f64 * 0.9 - 0.7, (i / 5) as f64 * 0.8 + 0.3];
                assert_eq!(
                    model.predict(&q).to_bits(),
                    model.predict_exhaustive(&q).to_bits(),
                    "k={k} query {q:?}"
                );
            }
        }
    }

    #[test]
    fn pruned_search_handles_duplicate_axis_values() {
        // All points share the widest-axis value except two outliers, so
        // the outward scan sees long runs of equal axis distances.
        let x: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![if i == 3 { 9.0 } else if i == 11 { -9.0 } else { 0.0 }, i as f64])
            .collect();
        let y: Vec<f64> = (0..20).map(|i| (i * i % 13) as f64).collect();
        let model = KnnTrainer::new(5).train(&x, &y);
        for q in [[0.0, 4.2], [9.0, 3.0], [-9.0, 11.0], [2.0, 30.0]] {
            assert_eq!(model.predict(&q).to_bits(), model.predict_exhaustive(&q).to_bits());
        }
    }
}
