//! Random decision forests: bagged CART trees with feature subsampling.
//!
//! Training follows the same determinism contract as the DRAM simulator's
//! parallel fan-out (`wade-dram::sim`): every tree derives its own seed
//! stream from `(forest seed, tree index)` via [`tree_seed`]'s SplitMix64
//! mix — never from a shared sequential generator — so trees are
//! independent units that fan out on the shared rayon pool and merge back
//! in index order. The trained forest is byte-identical at any thread
//! count (`tests/ml_parallel.rs` pins this).
//!
//! Training builds one [`FeatureColumns`] from the training matrix
//! before the fan-out: the column-major, rank-coded copy every tree's
//! split search reads. Trees only read it, so it is shared by reference
//! and built once per forest, not once per tree.

use crate::model::{validate_training_input, Regressor, Trainer};
use crate::tree::{DecisionTree, FeatureColumns, TreeParams, ARENA_LEAF};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Forest trainer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestTrainer {
    /// Number of trees.
    pub trees: usize,
    /// Per-tree growth parameters (`mtry = 0` means `√dim`, chosen at
    /// training time).
    pub params: TreeParams,
    /// RNG seed for bootstrap/feature sampling (deterministic training).
    pub seed: u64,
}

impl ForestTrainer {
    /// Creates a trainer with `trees` trees and default growth parameters.
    pub fn new(trees: usize) -> Self {
        assert!(trees > 0, "at least one tree required");
        Self { trees, params: TreeParams::default(), seed: 0x00F0_FE57 }
    }

    /// The paper-scale configuration (100 trees).
    pub fn paper_default() -> Self {
        Self::new(100)
    }
}

impl ForestTrainer {
    /// Trains the pointer-tree form of the forest — the byte-identity
    /// reference that the flat-arena [`ForestRegressor`] is re-laid from.
    /// The RNG streams here are the determinism contract; the arena step
    /// never touches them.
    pub fn train_pointer(&self, x: &[Vec<f64>], y: &[f64]) -> PointerForest {
        let dim = validate_training_input(x, y);
        let n = x.len();
        let mtry = if self.params.mtry == 0 {
            ((dim as f64).sqrt().ceil() as usize).max(1)
        } else {
            self.params.mtry
        };
        let params = TreeParams { mtry, ..self.params };
        let columns = FeatureColumns::new(x);

        // Per-tree derived seed streams (see the module docs): each tree's
        // bootstrap and feature subsampling come from its own generator, so
        // the trees are order-independent parallel units and the vendored
        // pool's input-order merge makes the ensemble byte-identical on 1
        // and N threads. All trees read the one set of columns.
        let trees = (0..self.trees)
            .into_par_iter()
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(tree_seed(self.seed, t as u64));
                // Bootstrap sample (with replacement).
                let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                DecisionTree::grow(&columns, y, &idx, params, &mut rng)
            })
            .collect();
        PointerForest { trees }
    }
}

impl Trainer for ForestTrainer {
    type Model = ForestRegressor;

    fn train(&self, x: &[Vec<f64>], y: &[f64]) -> ForestRegressor {
        ForestRegressor::from_pointer(&self.train_pointer(x, y))
    }
}

/// The derived seed of tree `t`: a SplitMix64-style mix of the forest seed
/// and the tree index (the `(seed, unit)` domain-separation idiom of
/// `wade-dram`'s `mix_seed`). Pure function of its inputs — reordering or
/// parallelizing tree construction cannot change any tree's stream.
fn tree_seed(seed: u64, t: u64) -> u64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(t.rotate_left(17));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A trained forest in pointer-tree form: predictions average the trees.
///
/// This is what training produces and the reference path the flat-arena
/// [`ForestRegressor`] is checked against (`tests/` pin bit-identity of the
/// two for every row). The hot paths — `AnyModel`, serving, the stored
/// artifacts — all use the arena form; keep this one for training,
/// verification and benchmarks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PointerForest {
    trees: Vec<DecisionTree>,
}

impl PointerForest {
    /// The individual trees (introspection and arena construction).
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }
}

impl Regressor for PointerForest {
    fn predict(&self, features: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict(features)).sum();
        sum / self.trees.len() as f64
    }
}

/// A trained forest re-laid into a contiguous structure-of-arrays node
/// arena: per node a `u16` feature index (`u16::MAX` marks a leaf), an
/// `f64` threshold (leaf value for leaves) and a `u32` right-child index
/// (the left child is always the next node, preorder). Trees are
/// concatenated with their roots in `roots`, in tree-index order.
///
/// Prediction walks the arrays with no pointer chasing and predictions are
/// bit-identical to [`PointerForest`]: the same comparisons against the
/// same thresholds in the same order, and the same left-to-right summation
/// over trees. This arena — not the pointer tree — is what `AnyModel`
/// serializes, so `model` artifacts and serving snapshots carry the compact
/// form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForestRegressor {
    node_features: Vec<u16>,
    node_thresholds: Vec<f64>,
    node_rights: Vec<u32>,
    roots: Vec<u32>,
}

impl ForestRegressor {
    /// Re-lays a pointer-tree forest into arena form (a pure re-layout:
    /// node values are copied verbatim, only the addressing changes).
    pub(crate) fn from_pointer(forest: &PointerForest) -> Self {
        let mut node_features = Vec::new();
        let mut node_thresholds = Vec::new();
        let mut node_rights = Vec::new();
        let roots = forest
            .trees()
            .iter()
            .map(|t| t.flatten_into(&mut node_features, &mut node_thresholds, &mut node_rights))
            .collect();
        Self { node_features, node_thresholds, node_rights, roots }
    }

    /// Total nodes across all trees (arena length).
    pub fn node_count(&self) -> usize {
        self.node_features.len()
    }

    /// Whether every split reads a feature below `width`, so rows of that
    /// width can be predicted without indexing past their end.
    pub fn fits(&self, width: usize) -> bool {
        self.node_features.iter().all(|&f| f == ARENA_LEAF || usize::from(f) < width)
    }
}

impl Regressor for ForestRegressor {
    fn predict(&self, features: &[f64]) -> f64 {
        let mut sum = 0.0;
        for &root in &self.roots {
            let mut i = root as usize;
            loop {
                let f = self.node_features[i];
                if f == ARENA_LEAF {
                    sum += self.node_thresholds[i];
                    break;
                }
                i = if features[f as usize] <= self.node_thresholds[i] {
                    i + 1
                } else {
                    self.node_rights[i] as usize
                };
            }
        }
        sum / self.roots.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_fits_nonlinear_targets() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 6.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0].sin() * 5.0).collect();
        let model = ForestTrainer::new(30).train(&x, &y);
        let mut worst: f64 = 0.0;
        for (xi, yi) in x.iter().zip(y.iter()) {
            worst = worst.max((model.predict(xi) - yi).abs());
        }
        assert!(worst < 1.5, "worst error {worst}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i * i % 7) as f64]).collect();
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let a = ForestTrainer::new(10).train(&x, &y);
        let b = ForestTrainer::new(10).train(&x, &y);
        for q in [[0.5, 3.0], [20.0, 1.0]] {
            assert_eq!(a.predict(&q), b.predict(&q));
        }
    }

    #[test]
    fn robust_to_irrelevant_features() {
        // 1 informative + 19 noise features; the forest must still find the
        // signal (this robustness is why RDF handles input set 3 best in
        // Fig. 11c).
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let mut row = vec![(i % 2) as f64 * 10.0];
            for j in 1..20 {
                row.push(((i as u64 * j as u64 * 2654435761) % 100) as f64);
            }
            x.push(row);
            y.push((i % 2) as f64 * 100.0);
        }
        let model = ForestTrainer::new(60).train(&x, &y);
        let mut q0 = vec![0.0; 20];
        let mut q1 = vec![10.0; 20];
        q0[0] = 0.0;
        q1[0] = 10.0;
        assert!(model.predict(&q1) - model.predict(&q0) > 50.0);
    }

    #[test]
    fn tree_count_matches_config() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![0.0, 1.0, 2.0, 3.0];
        assert_eq!(ForestTrainer::new(7).train(&x, &y).roots.len(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        ForestTrainer::new(0);
    }

    #[test]
    fn arena_is_bit_identical_to_pointer_trees() {
        let x: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, ((i * 13) % 17) as f64, (i % 5) as f64])
            .collect();
        let y: Vec<f64> = (0..50).map(|i| ((i * 7) % 11) as f64).collect();
        let trainer = ForestTrainer::new(20);
        let pointer = trainer.train_pointer(&x, &y);
        let arena = ForestRegressor::from_pointer(&pointer);
        assert_eq!(arena.roots.len(), pointer.trees.len());
        assert!(arena.node_count() >= arena.roots.len());
        for row in &x {
            assert_eq!(
                arena.predict(row).to_bits(),
                pointer.predict(row).to_bits(),
                "arena and pointer walks diverged on {row:?}"
            );
        }
    }

    #[test]
    fn forest_trees_match_exhaustive_trees_from_the_same_seeds() {
        let x: Vec<Vec<f64>> = (0..45)
            .map(|i| (0..9).map(|j| ((i * (j + 3) * 7) % (5 + 2 * j)) as f64 - 2.0).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] - 0.5 * r[4] + (r[8] * 0.3).sin()).collect();
        let trainer = ForestTrainer::new(25);
        let forest = trainer.train_pointer(&x, &y);
        let params = TreeParams { mtry: 3, ..trainer.params };
        let columns = FeatureColumns::new(&x);
        assert!(forest.trees().iter().all(|t| t.depth() >= 2), "precondition: trees split");
        for (t, tree) in forest.trees().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(tree_seed(trainer.seed, t as u64));
            let idx: Vec<usize> = (0..x.len()).map(|_| rng.gen_range(0..x.len())).collect();
            let reference = DecisionTree::grow_exhaustive(&columns, &y, &idx, params, &mut rng);
            assert!(
                tree.bit_identical(&reference),
                "tree {t} diverged from its exhaustive reference"
            );
        }
    }

    #[test]
    fn trainer_output_is_the_arena_form() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| (i % 4) as f64).collect();
        let trainer = ForestTrainer::new(5);
        let arena = trainer.train(&x, &y);
        let reference = ForestRegressor::from_pointer(&trainer.train_pointer(&x, &y));
        let batch: Vec<f64> = x.iter().map(|r| arena.predict(r)).collect();
        let serial: Vec<f64> = x.iter().map(|r| reference.predict(r)).collect();
        assert_eq!(batch.len(), serial.len());
        for (a, b) in batch.iter().zip(serial.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
