//! CART regression trees (variance-reduction splits).
//!
//! A tree grows on [`FeatureColumns`]: the training matrix stored column
//! by column, each value beside its rank among the column's distinct
//! values. A forest builds the columns once and shares them read-only
//! with all its trees. Each node groups a feature's rows into runs of
//! equal values by bucketing their rank codes, so no node searches or
//! sorts, and partitions its row indices in place, stably, so every
//! child sees its rows in the parent's order (ARCHITECTURE.md §14).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// A training matrix stored column by column, with each value's rank
/// code: one per feature, the values in row order, a `u32` per row
/// giving its value's rank among the column's distinct values, and those
/// distinct values in ascending order. Values that compare `==` share a
/// code, so `-0.0` and `0.0` do; every NaN keeps a code of its own, and
/// the NaNs rank at the ends (`f64::total_cmp` order). Built once per
/// forest and read by every tree grown on it, whatever rows each tree's
/// bootstrap draws.
#[derive(Debug, Clone)]
pub struct FeatureColumns {
    columns: Vec<Column>,
}

#[derive(Debug, Clone)]
struct Column {
    values: Vec<f64>,
    codes: Vec<u32>,
    distinct: Vec<f64>,
}

impl FeatureColumns {
    /// Builds the columns of the row-major matrix `x`; every row must be
    /// as long as the first.
    pub fn new(x: &[Vec<f64>]) -> Self {
        let dim = x.first().map_or(0, Vec::len);
        assert!(x.iter().all(|row| row.len() == dim), "ragged feature matrix");
        let rows = u32::try_from(x.len()).expect("row count exceeds u32 rank codes");
        let mut order: Vec<u32> = (0..rows).collect();
        let columns = (0..dim)
            .map(|feat| {
                let values: Vec<f64> = x.iter().map(|row| row[feat]).collect();
                order.sort_unstable_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
                let mut codes = vec![0u32; values.len()];
                let mut distinct: Vec<f64> = Vec::new();
                for &row in &order {
                    let v = values[row as usize];
                    if distinct.last() != Some(&v) {
                        distinct.push(v);
                    }
                    codes[row as usize] = distinct.len() as u32 - 1;
                }
                Column { values, codes, distinct }
            })
            .collect();
        Self { columns }
    }

    /// Number of features.
    pub(crate) fn dim(&self) -> usize {
        self.columns.len()
    }
}

/// Tree growth parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeParams {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_split: usize,
    /// Features considered per split (`mtry`); `0` = all features.
    pub mtry: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self { max_depth: 12, min_split: 4, mtry: 0 }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
}

impl DecisionTree {
    /// Grows a tree on the row subset `idx` of `(columns, y)` (rows may
    /// repeat, as in a bootstrap) using `rng` for feature subsampling.
    /// Each node's split comes from the pruned split search
    /// (ARCHITECTURE.md §14), which evaluates exactly only the candidates
    /// an error bound cannot rule out and so picks exactly the split
    /// [`DecisionTree::grow_exhaustive`] picks.
    pub fn grow(
        columns: &FeatureColumns,
        y: &[f64],
        idx: &[usize],
        params: TreeParams,
        rng: &mut StdRng,
    ) -> Self {
        Self::grow_with(columns, y, idx, params, rng, Search::Pruned)
    }

    /// The bit-compare reference for [`DecisionTree::grow`]: the same tree
    /// grown by the historical exhaustive scan, which evaluates every
    /// candidate threshold of every considered feature exactly and reads
    /// only the columns' values, never their rank codes. It draws the
    /// same rng values in the same order, so for the same `rng` state
    /// the two trees serialize byte-identically (`tests/ml_hot_path.rs`
    /// pins this); the pruned search also falls back to this scan for any
    /// node whose error bound is not finite.
    pub fn grow_exhaustive(
        columns: &FeatureColumns,
        y: &[f64],
        idx: &[usize],
        params: TreeParams,
        rng: &mut StdRng,
    ) -> Self {
        Self::grow_with(columns, y, idx, params, rng, Search::Exhaustive)
    }

    fn grow_with(
        columns: &FeatureColumns,
        y: &[f64],
        idx: &[usize],
        params: TreeParams,
        rng: &mut StdRng,
        search: Search,
    ) -> Self {
        assert!(!idx.is_empty(), "cannot grow a tree on no samples");
        let mut idx = idx.to_vec();
        let mut scratch = Scratch::default();
        let root = build(columns, y, &mut idx, params, rng, 0, search, &mut scratch);
        Self { root }
    }

    /// Predicts the target for one row.
    pub(crate) fn predict(&self, row: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    node = if row[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Appends this tree's nodes to the forest's SoA arena in preorder and
    /// returns the root's arena index. Layout convention: a split's left
    /// child is the next node (`i + 1`), its right child is `rights[i]`;
    /// leaves carry [`ARENA_LEAF`] in `features`, their value in
    /// `thresholds`, and their **own index** in `rights` — a leaf
    /// self-loops, so `rights` is total (no dummy sentinel) and a walk
    /// that steps a parked node stays parked. Preorder is a pure function
    /// of the tree shape, so the arena is as deterministic as the tree it
    /// came from.
    pub(crate) fn flatten_into(
        &self,
        features: &mut Vec<u16>,
        thresholds: &mut Vec<f64>,
        rights: &mut Vec<u32>,
    ) -> u32 {
        let root = u32::try_from(features.len()).expect("arena exceeds u32 node indices");
        flatten(&self.root, features, thresholds, rights);
        root
    }
}

#[cfg(test)]
impl DecisionTree {
    /// The root node's `(feature, threshold)`, or `None` if the tree is a
    /// single leaf.
    fn root_split(&self) -> Option<(usize, f64)> {
        match &self.root {
            Node::Leaf { .. } => None,
            Node::Split { feature, threshold, .. } => Some((*feature, *threshold)),
        }
    }

    /// Depth of the tree (leaves at depth 0).
    pub(crate) fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// Bit-for-bit tree equality: same shape, same features, and the same
    /// threshold and leaf bits (so `-0.0` and `0.0` differ).
    pub(crate) fn bit_identical(&self, other: &Self) -> bool {
        fn same_node(a: &Node, b: &Node) -> bool {
            match (a, b) {
                (Node::Leaf { value: va }, Node::Leaf { value: vb }) => {
                    va.to_bits() == vb.to_bits()
                }
                (
                    Node::Split { feature: fa, threshold: ta, left: la, right: ra },
                    Node::Split { feature: fb, threshold: tb, left: lb, right: rb },
                ) => {
                    fa == fb
                        && ta.to_bits() == tb.to_bits()
                        && same_node(la, lb)
                        && same_node(ra, rb)
                }
                _ => false,
            }
        }
        same_node(&self.root, &other.root)
    }
}

/// Sentinel feature index marking a leaf in the flat-arena encoding.
pub(crate) const ARENA_LEAF: u16 = u16::MAX;

fn flatten(
    node: &Node,
    features: &mut Vec<u16>,
    thresholds: &mut Vec<f64>,
    rights: &mut Vec<u32>,
) {
    match node {
        Node::Leaf { value } => {
            let me = u32::try_from(features.len()).expect("arena exceeds u32 node indices");
            features.push(ARENA_LEAF);
            thresholds.push(*value);
            rights.push(me);
        }
        Node::Split { feature, threshold, left, right } => {
            assert!(
                *feature < ARENA_LEAF as usize,
                "feature index {feature} overflows the u16 arena encoding"
            );
            let me = features.len();
            features.push(*feature as u16);
            thresholds.push(*threshold);
            // Placeholder: the right child's index is known only after the
            // left subtree is laid out.
            rights.push(0);
            flatten(left, features, thresholds, rights);
            rights[me] = u32::try_from(features.len()).expect("arena exceeds u32 node indices");
            flatten(right, features, thresholds, rights);
        }
    }
}

fn mean(y: &[f64], idx: &[usize]) -> f64 {
    idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64
}

/// Which split search a tree grows with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Search {
    Pruned,
    Exhaustive,
}

/// Per-tree buffers reused at every node: the shuffled feature subset,
/// the spill buffer of the in-place partition and, for the pruned
/// search, the node's centred targets in `idx` order, one bucket per
/// rank code, one feature's runs of equal values, and the node's
/// candidates as `(feature, threshold, approximate gain)`.
#[derive(Default)]
struct Scratch {
    features: Vec<usize>,
    spill: Vec<usize>,
    centred: Vec<f64>,
    buckets: Vec<Bucket>,
    runs: Vec<Run>,
    candidates: Vec<(usize, f64, Option<f64>)>,
}

/// The rows of one rank code in a node: `(rows, Σc, Σc²)` over their
/// centred targets `c`. Every bucket is empty between uses.
type Bucket = (usize, f64, f64);

/// A run of equal feature values in a node: `(value, rows, Σc, Σc²)` over
/// the run's centred targets `c`.
type Run = (f64, usize, f64, f64);

/// A candidate split: `(feature, threshold, gain)`.
type Split = (usize, f64, f64);

#[allow(clippy::too_many_arguments)]
fn build(
    columns: &FeatureColumns,
    y: &[f64],
    idx: &mut [usize],
    params: TreeParams,
    rng: &mut StdRng,
    depth: usize,
    search: Search,
    scratch: &mut Scratch,
) -> Node {
    let node_mean = mean(y, idx);
    if depth >= params.max_depth || idx.len() < params.min_split {
        return Node::Leaf { value: node_mean };
    }
    let parent_sse: f64 = idx.iter().map(|&i| (y[i] - node_mean).powi(2)).sum();
    if parent_sse <= 1e-18 {
        return Node::Leaf { value: node_mean };
    }

    let dim = columns.dim();
    let consider = if params.mtry == 0 { dim } else { params.mtry.min(dim) };
    let features = &mut scratch.features;
    features.clear();
    features.extend(0..dim);
    features.shuffle(rng);
    features.truncate(consider);

    let best = match search {
        Search::Pruned => scan_pruned(columns, y, idx, node_mean, parent_sse, scratch),
        Search::Exhaustive => scan_exhaustive(columns, y, idx, &scratch.features, parent_sse),
    };

    match best {
        Some((feature, threshold, gain)) if gain > 1e-12 => {
            let values = &columns.columns[feature].values;
            let split = partition(idx, |i| values[i] <= threshold, &mut scratch.spill);
            let (left, right) = idx.split_at_mut(split);
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(columns, y, left, params, rng, depth + 1, search, scratch)),
                right: Box::new(build(columns, y, right, params, rng, depth + 1, search, scratch)),
            }
        }
        _ => Node::Leaf { value: node_mean },
    }
}

/// Moves the rows for which `goes_left` holds to the front of `idx` and
/// the rest behind them, each side in its original order, and returns
/// the left side's length. The right side waits in `spill`, which keeps
/// its capacity for the next node.
fn partition(
    idx: &mut [usize],
    goes_left: impl Fn(usize) -> bool,
    spill: &mut Vec<usize>,
) -> usize {
    spill.clear();
    let mut left = 0;
    for k in 0..idx.len() {
        let i = idx[k];
        if goes_left(i) {
            idx[left] = i;
            left += 1;
        } else {
            spill.push(i);
        }
    }
    idx[left..].copy_from_slice(spill);
    left
}

/// Offers a candidate to the running best. Duplicate gains break ties on
/// the lowest (feature, threshold) pair, so the chosen split never depends
/// on the order the shuffled feature subset was visited in — the grown
/// tree is a pure function of (data, params, rng draws), which the
/// parallel forest's determinism contract relies on. Both searches pick
/// their split through this one rule.
fn offer(best: &mut Option<Split>, feat: usize, threshold: f64, gain: f64) {
    let better = match *best {
        None => true,
        Some((bf, bt, bg)) => {
            gain > bg || (gain == bg && (feat < bf || (feat == bf && threshold < bt)))
        }
    };
    if better {
        *best = Some((feat, threshold, gain));
    }
}

/// The exact gain of splitting the node at `threshold`, from its `(feature
/// value, target)` pairs in `idx` order, or `None` if a side is empty.
/// This is the historical arithmetic: each side's sums accumulate in
/// `idx` order, exactly as the materialized left/right index vectors
/// once did, so every gain either search compares is bit-identical to
/// the original two-vector scan.
fn exact_gain(
    pairs: impl Iterator<Item = (f64, f64)> + Clone,
    threshold: f64,
    parent_sse: f64,
) -> Option<f64> {
    let (mut sum_l, mut n_l, mut sum_r, mut n_r) = (0.0f64, 0usize, 0.0f64, 0usize);
    for (v, t) in pairs.clone() {
        if v <= threshold {
            sum_l += t;
            n_l += 1;
        } else {
            sum_r += t;
            n_r += 1;
        }
    }
    if n_l == 0 || n_r == 0 {
        return None;
    }
    let (m_l, m_r) = (sum_l / n_l as f64, sum_r / n_r as f64);
    let (mut sse_l, mut sse_r) = (0.0f64, 0.0f64);
    for (v, t) in pairs {
        if v <= threshold {
            sse_l += (t - m_l).powi(2);
        } else {
            sse_r += (t - m_r).powi(2);
        }
    }
    Some(parent_sse - sse_l - sse_r)
}

/// The node's `(feature value, target)` pairs of feature `feat`, in `idx`
/// order.
fn node_pairs<'a>(
    columns: &'a FeatureColumns,
    y: &'a [f64],
    idx: &'a [usize],
    feat: usize,
) -> impl Iterator<Item = (f64, f64)> + Clone + 'a {
    let values = &columns.columns[feat].values;
    idx.iter().map(move |&i| (values[i], y[i]))
}

/// The exhaustive scan: every midpoint of sorted unique values of every
/// considered feature, each evaluated exactly.
fn scan_exhaustive(
    columns: &FeatureColumns,
    y: &[f64],
    idx: &[usize],
    features: &[usize],
    parent_sse: f64,
) -> Option<Split> {
    let mut best = None;
    for &feat in features {
        let pairs: Vec<(f64, f64)> = node_pairs(columns, y, idx, feat).collect();
        // Candidate thresholds: midpoints of sorted unique values.
        let mut vals: Vec<f64> = pairs.iter().map(|&(v, _)| v).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        for w in vals.windows(2) {
            let threshold = (w[0] + w[1]) / 2.0;
            if let Some(gain) = exact_gain(pairs.iter().copied(), threshold, parent_sse) {
                offer(&mut best, feat, threshold, gain);
            }
        }
    }
    best
}

/// The pruned split search: the exhaustive scan's winner, found by exactly
/// evaluating only the candidates that can still win.
///
/// **Candidates.** Per feature, [`collect_runs`] groups the node's rows
/// into runs of equal values in ascending order, each run carrying its
/// row count and the sums of its centred targets `c = t − t̄` and `c²`.
/// One pass over the runs forms every candidate threshold
/// `τ = (w₀ + w₁)/2` between consecutive values — the exhaustive scan's
/// candidates, in its order — and an approximate gain `ĝ` from prefix
/// sums: with `S`, `Q` the sums of `c`, `c²` over the `k` rows left of
/// the cut, `S₊`, `Q₊` their node totals and `P` the parent SSE,
/// `ĝ = P − (Q − S²/k) − ((Q₊ − Q) − (S₊ − S)²/(m − k))`. When
/// `w₀ ≤ τ < w₁` those `k` rows are exactly the exact path's left side
/// `{v ≤ τ}`. When not — adjacent floats whose midpoint rounds onto
/// `w₁`, or `w₀ + w₁` overflowing to ±∞ near ±`f64::MAX` — the
/// partitions differ, so such a candidate gets no `ĝ` and is always
/// evaluated exactly.
///
/// **The bound.** Let `m = idx.len()`, `n = m + 2`, `M = maxᵢ |tᵢ|`,
/// `u = f64::EPSILON / 2` and `γₖ = ku/(1 − ku)`; `G` is a candidate's
/// gain in real arithmetic, `g` the exact path's value, `ĝ` the
/// approximate one. A computed sum of `k` terms is off by at most
/// `γₖ₋₁Σ|terms|` whatever the order of summation, so adding `c` run by
/// run changes nothing below. Every sum of squared deviations involved —
/// parent, sides, prefixes of `c²` — is at most `mM²(1 + O(nu))`;
/// `|S| ≤ 2kM`, `|S₊ − S| ≤ 2(m − k)M`, and the rounding error of any
/// sum of `c` is `≤ γₘΣ|c| ≤ γₘmM`. First order in `u`:
/// * exact path: a side's mean is off by `≤ γₖM`; its SSE then carries
///   `γₖ₊₂` relative error, so parent plus sides stay within
///   `2mγₙM²`, and the two final subtractions add `≤ 4muM²`:
///   `|g − G| ≤ 16n²uM²` with room to spare;
/// * approximate path: the same parent SSE (`≤ mγₙM²`); rounding the
///   centred targets moves the two side SSEs by `≤ 4muM²`; `Q` and
///   `Q₊ − Q` by `≤ 3mγₙ₊₁M²`; `S²/k` by `≤ 4mγₘM²` and
///   `(S₊ − S)²/(m − k)` by `≤ 8mγₘ₊₁M²` (the right side's sum carries
///   two errors); the remaining roundings by `≤ 12muM²`:
///   `|ĝ − G| ≤ 48n²uM²`, again with room to spare.
///
/// So `|ĝ − g| ≤ 64n²uM² = 32n²·EPS·M²`, and the window half-width
/// `E = 256·n²·EPS·M²` is eight times that. Underflow does not break
/// the relative-error model: a node that reaches the search has
/// `P > 1e-18`, so `M² > 1e-18/m`, and the absolute error of gradual
/// underflow (≤ 2⁻¹⁰⁷⁴ per operation) is negligible against `E`.
///
/// **The window rule.** `L` is the maximum of `ĝ − E` over all the
/// node's candidates, every feature's formed before any is evaluated.
/// A candidate is evaluated exactly iff it has no `ĝ` or `ĝ + E ≥ L`.
/// The exhaustive winner `w` always is: for every candidate `j`,
/// `ĝ_w + E ≥ g_w + 7E/8 ≥ g_j + 7E/8 > ĝ_j − E`, and rounding is
/// monotone. The same holds for every candidate whose exact gain ties
/// `g_w`, so [`offer`], seeing the evaluated candidates in the
/// exhaustive visiting order, returns the exhaustive scan's split bit
/// for bit. (A running `L` over the candidates seen so far would be
/// valid too, since it never exceeds the final one; it only evaluates
/// more.)
///
/// **Fallback.** Every intermediate of both paths is at most `4n²M²`, so
/// if `8n²M²` overflows — targets beyond about `1e150` — or any `ĝ` is
/// not finite (a NaN target), the node runs [`scan_exhaustive`] instead.
/// So does a NaN feature value, on which the exhaustive scan panics.
fn scan_pruned(
    columns: &FeatureColumns,
    y: &[f64],
    idx: &[usize],
    centre: f64,
    parent_sse: f64,
    scratch: &mut Scratch,
) -> Option<Split> {
    let Scratch { features, centred, buckets, runs, candidates, .. } = scratch;
    let m = idx.len();
    centred.clear();
    centred.extend(idx.iter().map(|&i| y[i] - centre));
    let max_abs = idx.iter().fold(0.0f64, |acc, &i| acc.max(y[i].abs()));
    let s_all: f64 = centred.iter().sum();
    let q_all: f64 = centred.iter().map(|c| c * c).sum();
    let n_m = (m + 2) as f64 * max_abs;
    let scale = n_m * n_m;
    if !(8.0 * scale).is_finite() {
        return scan_exhaustive(columns, y, idx, features, parent_sse);
    }
    let bound = 256.0 * f64::EPSILON * scale;

    let mut floor = f64::NEG_INFINITY;
    candidates.clear();
    for &feat in features.iter() {
        collect_runs(&columns.columns[feat], idx, centred, buckets, runs);
        // NaNs rank at the ends of a column's codes; the exhaustive scan
        // panics on them, and so must this search.
        let nan_at = |run: Option<&Run>| run.is_some_and(|r| r.0.is_nan());
        if nan_at(runs.first()) || nan_at(runs.last()) {
            return scan_exhaustive(columns, y, idx, features, parent_sse);
        }
        let (mut k, mut s, mut q) = (0usize, 0.0f64, 0.0f64);
        for w in runs.windows(2) {
            let ((lower, rows, run_s, run_q), upper) = (w[0], w[1].0);
            k += rows;
            s += run_s;
            q += run_q;
            let threshold = (lower + upper) / 2.0;
            let approx = if lower <= threshold && threshold < upper {
                let s_r = s_all - s;
                let g = parent_sse
                    - (q - s * s / k as f64)
                    - ((q_all - q) - s_r * s_r / (m - k) as f64);
                if !g.is_finite() {
                    return scan_exhaustive(columns, y, idx, features, parent_sse);
                }
                floor = floor.max(g - bound);
                Some(g)
            } else {
                None
            };
            candidates.push((feat, threshold, approx));
        }
    }

    let mut best = None;
    for &(feat, threshold, approx) in candidates.iter() {
        if approx.is_none_or(|g| g + bound >= floor) {
            let pairs = node_pairs(columns, y, idx, feat);
            if let Some(gain) = exact_gain(pairs, threshold, parent_sse) {
                offer(&mut best, feat, threshold, gain);
            }
        }
    }
    best
}

/// Collects a column's runs of equal values over the node, in ascending
/// value order, by adding each row's centred target into the bucket of
/// its rank code and emitting the non-empty buckets in code order. Codes
/// merge `-0.0` and `0.0` (a zero's sign never changes a midpoint with a
/// non-zero value), so they share a run. Only the codes between the
/// node's lowest and highest are visited, and every bucket is left empty.
fn collect_runs(
    column: &Column,
    idx: &[usize],
    centred: &[f64],
    buckets: &mut Vec<Bucket>,
    runs: &mut Vec<Run>,
) {
    if buckets.len() < column.distinct.len() {
        buckets.resize(column.distinct.len(), (0, 0.0, 0.0));
    }
    let (mut lo, mut hi) = (usize::MAX, 0);
    for (&i, &c) in idx.iter().zip(centred) {
        let code = column.codes[i] as usize;
        let bucket = &mut buckets[code];
        bucket.0 += 1;
        bucket.1 += c;
        bucket.2 += c * c;
        lo = lo.min(code);
        hi = hi.max(code);
    }
    runs.clear();
    for (code, bucket) in buckets[lo..=hi].iter_mut().enumerate() {
        if bucket.0 > 0 {
            let (rows, s, q) = std::mem::replace(bucket, (0, 0.0, 0.0));
            runs.push((column.distinct[lo + code], rows, s, q));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn fits_a_step_function_exactly() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let idx: Vec<usize> = (0..20).collect();
        let tree = DecisionTree::grow(
            &FeatureColumns::new(&x),
            &y,
            &idx,
            TreeParams::default(),
            &mut rng(),
        );
        assert_eq!(tree.predict(&[3.0]), 1.0);
        assert_eq!(tree.predict(&[15.0]), 5.0);
    }

    #[test]
    fn depth_limit_is_respected() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let idx: Vec<usize> = (0..64).collect();
        let tree = DecisionTree::grow(
            &FeatureColumns::new(&x),
            &y,
            &idx,
            TreeParams { max_depth: 3, min_split: 2, mtry: 0 },
            &mut rng(),
        );
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn pure_leaves_stop_early() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![2.0; 10];
        let idx: Vec<usize> = (0..10).collect();
        let tree = DecisionTree::grow(
            &FeatureColumns::new(&x),
            &y,
            &idx,
            TreeParams::default(),
            &mut rng(),
        );
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&[100.0]), 2.0);
    }

    #[test]
    fn splits_use_the_informative_feature() {
        // Feature 0 is noise, feature 1 determines the target.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..30 {
            x.push(vec![(i * 7 % 13) as f64, (i % 2) as f64]);
            y.push(if i % 2 == 0 { 0.0 } else { 10.0 });
        }
        let idx: Vec<usize> = (0..30).collect();
        let tree = DecisionTree::grow(
            &FeatureColumns::new(&x),
            &y,
            &idx,
            TreeParams::default(),
            &mut rng(),
        );
        assert_eq!(tree.predict(&[5.0, 0.0]), 0.0);
        assert_eq!(tree.predict(&[5.0, 1.0]), 10.0);
    }

    #[test]
    fn duplicate_gain_prefers_the_lowest_feature_index() {
        // Features 0 and 1 are exact copies, so every candidate split on
        // feature 1 has the same gain as its twin on feature 0. Whatever
        // order the rng visits them in, the tie must resolve to feature 0.
        let x: Vec<Vec<f64>> = (0..16).map(|i| vec![(i % 2) as f64, (i % 2) as f64]).collect();
        let y: Vec<f64> = (0..16).map(|i| (i % 2) as f64 * 10.0).collect();
        let idx: Vec<usize> = (0..16).collect();
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = DecisionTree::grow(
                &FeatureColumns::new(&x),
                &y,
                &idx,
                TreeParams::default(),
                &mut rng,
            );
            match tree.root_split() {
                Some((feature, threshold)) => {
                    assert_eq!(feature, 0, "seed {seed} split on the higher twin");
                    assert_eq!(threshold, 0.5);
                }
                None => panic!("seed {seed} grew a leaf-only tree"),
            }
        }
    }

    /// Grows `(x, y)` both ways from the same seeds and asserts the trees
    /// are bit-identical; returns the number of split nodes grown.
    fn assert_matches_exhaustive(x: &[Vec<f64>], y: &[f64], params: TreeParams) -> usize {
        let idx: Vec<usize> = (0..x.len()).collect();
        assert_matches_exhaustive_on(x, y, &idx, params)
    }

    /// [`assert_matches_exhaustive`] on the rows `idx` of columns built
    /// over the whole of `x`.
    fn assert_matches_exhaustive_on(
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[usize],
        params: TreeParams,
    ) -> usize {
        let columns = FeatureColumns::new(x);
        let mut splits = 0;
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pruned = DecisionTree::grow(&columns, y, idx, params, &mut rng.clone());
            let exhaustive = DecisionTree::grow_exhaustive(&columns, y, idx, params, &mut rng);
            assert!(
                pruned.bit_identical(&exhaustive),
                "seed {seed}: pruned {pruned:?} != exhaustive {exhaustive:?}"
            );
            splits += pruned.depth().min(1);
        }
        splits
    }

    /// A column of the values `vals` cycled over `n` rows, beside a second
    /// column that is `vals` reversed, with targets that reward a cut
    /// between every pair of values.
    fn two_columns(vals: &[f64], n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let d = vals.len();
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![vals[i % d], vals[d - 1 - i % d]]).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i % d) * 3 + i % 2) as f64).collect();
        (x, y)
    }

    #[test]
    fn few_values_boundary_matches_exhaustive() {
        // Columns of 7 to 10 distinct values; zeros of both signs share a
        // rank code, and a duplicate column makes every gain tie its twin.
        for d in 7..=10 {
            let n = 5 * d + 3;
            let x: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let k = (i * 11) % d;
                    let v = if k == 3 && i % 2 == 1 { -0.0 } else { k as f64 - 3.0 };
                    vec![v, v]
                })
                .collect();
            let y: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64).collect();
            let params = TreeParams { max_depth: 6, min_split: 2, mtry: 0 };
            assert!(assert_matches_exhaustive(&x, &y, params) > 0, "{d} values grew no split");
        }
    }

    /// A splitmix64 stream of `n` values in `[0, 1)`.
    fn units(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn codes_rank_distinct_values_in_ascending_order() {
        let nan = f64::NAN;
        let x: Vec<Vec<f64>> =
            [3.0, -0.0, 1.0, 0.0, nan, 3.0, -nan, -2.0, nan].iter().map(|&v| vec![v]).collect();
        let column = &FeatureColumns::new(&x).columns[0];
        // -NaN ranks first and every NaN keeps its own code (the two
        // NaNs with equal bits take the top two in either order); ±0
        // share one.
        let mut codes = column.codes.clone();
        assert!(matches!((codes[4], codes[8]), (5, 6) | (6, 5)), "{codes:?}");
        (codes[4], codes[8]) = (5, 6);
        assert_eq!(codes, [4, 2, 3, 2, 5, 4, 0, 1, 6]);
        let bits: Vec<u64> = column.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, x.iter().map(|r| r[0].to_bits()).collect::<Vec<_>>());
        assert_eq!(column.distinct.len(), 7);
        assert!(column.distinct[1..5].windows(2).all(|w| w[0] < w[1]));
        for (row, &code) in column.codes.iter().enumerate() {
            let (v, d) = (column.values[row], column.distinct[code as usize]);
            assert!(v == d || (v.is_nan() && d.to_bits() == v.to_bits()), "row {row}");
        }
    }

    #[test]
    fn partition_keeps_each_side_in_row_order() {
        let mut idx = vec![9, 2, 7, 2, 4, 11, 0, 7, 5];
        let mut spill = Vec::new();
        let left = partition(&mut idx, |i| i % 2 == 0, &mut spill);
        assert_eq!(left, 4);
        assert_eq!(idx, [2, 2, 4, 0, 9, 7, 11, 7, 5]);
        assert_eq!(partition(&mut idx[..left], |_| true, &mut spill), 4);
        assert_eq!(partition(&mut idx[left..], |_| false, &mut spill), 0);
        assert_eq!(idx, [2, 2, 4, 0, 9, 7, 11, 7, 5]);
    }

    #[test]
    fn bootstrap_rows_over_whole_matrix_columns_match_exhaustive() {
        // Columns built over all 60 rows; trees grow on bootstraps that
        // repeat rows and miss others, so nodes skip codes, and on a
        // narrow slice that holds only some of each column's values.
        let n = 60;
        let u = units(17, n * 4);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let r = &u[i * 4..i * 4 + 4];
                vec![
                    (r[0] * 25.0).floor(),
                    (r[1] * 6.0).floor() - 2.0,
                    r[2],
                    (r[3] * 40.0).floor() / 8.0,
                ]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 0.3 - r[1] * r[1] + r[3]).collect();
        let params = TreeParams { max_depth: 8, min_split: 2, mtry: 2 };
        let draws = units(29, 3 * n);
        for boot in draws.chunks(n) {
            let idx: Vec<usize> = boot.iter().map(|&d| (d * n as f64) as usize).collect();
            let mut seen = idx.clone();
            seen.sort_unstable();
            seen.dedup();
            assert!(seen.len() < n, "precondition: the bootstrap misses some rows");
            assert!(assert_matches_exhaustive_on(&x, &y, &idx, params) > 0);
        }
        let slice: Vec<usize> = (n / 2..n).chain(n / 2..n / 2 + 8).collect();
        assert!(assert_matches_exhaustive_on(&x, &y, &slice, params) > 0);
    }

    #[test]
    fn signed_zeros_in_one_column_match_exhaustive() {
        // Zeros of both signs spread over one column, with targets that
        // reward the cut just above zero: the zeros must form one run, or
        // a spurious cut at `(-0.0 + 0.0) / 2` ties the real one.
        let vals = [-1.0, -0.0, 0.0, 1.0, 2.0];
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![vals[(i * 3) % 5], (i % 4) as f64]).collect();
        let y: Vec<f64> =
            x.iter().map(|r| if r[0] <= 0.0 { 0.0 } else { 6.0 } + r[1] * 0.1).collect();
        let columns = FeatureColumns::new(&x);
        assert_eq!((x[2][0].to_bits(), x[4][0].to_bits()), ((-0.0f64).to_bits(), 0));
        assert_eq!(columns.columns[0].codes[2], columns.columns[0].codes[4], "±0 share a code");
        let params = TreeParams { max_depth: 4, min_split: 2, mtry: 0 };
        assert!(assert_matches_exhaustive(&x, &y, params) > 0);
        let idx: Vec<usize> = (0..40).collect();
        let tree = DecisionTree::grow(&columns, &y, &idx, params, &mut rng());
        assert_eq!(tree.root_split().map(|(f, t)| (f, t.to_bits())), Some((0, 0.5f64.to_bits())));
    }

    #[test]
    fn wide_rows_with_mtry_16_match_exhaustive() {
        // Set 3's shape: 252 features, 16 drawn per node.
        let (n, dim) = (48, 252);
        let u = units(31, n * dim);
        let x: Vec<Vec<f64>> =
            u.chunks(dim).map(|r| r.iter().map(|v| (v * 16.0).floor()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] - 0.5 * r[126] + 0.25 * r[251]).collect();
        let params = TreeParams { mtry: 16, ..TreeParams::default() };
        assert!(assert_matches_exhaustive(&x, &y, params) > 0);
    }

    #[test]
    fn midpoint_rounding_onto_the_upper_value_matches_exhaustive() {
        // An odd-mantissa value and its successor: the midpoint of the two
        // is a tie that rounds to even, i.e. onto the upper value, so the
        // prefix partition in sorted order is not the `v <= τ` partition.
        let lo = f64::from_bits(1.0f64.to_bits() + 1);
        let hi = f64::from_bits(lo.to_bits() + 1);
        assert_eq!((lo + hi) / 2.0, hi, "precondition: the midpoint rounds onto the upper value");
        let tiny = f64::from_bits(1);
        for vals in [vec![lo, hi, 2.0], vec![0.5, lo, hi], vec![-tiny, 0.0, tiny, 2.0 * tiny]] {
            let (x, y) = two_columns(&vals, 24);
            let params = TreeParams { max_depth: 6, min_split: 2, mtry: 0 };
            assert!(assert_matches_exhaustive(&x, &y, params) > 0, "{vals:?} grew no split");
        }
    }

    #[test]
    fn midpoint_overflow_near_f64_max_matches_exhaustive() {
        // `w0 + w1` overflows to ±inf for the outermost pairs, so their
        // thresholds put every row on one side.
        let vals = [-f64::MAX, (-f64::MAX).next_up(), -1.0, 1.0, f64::MAX.next_down(), f64::MAX];
        assert!(((vals[4] + vals[5]) / 2.0).is_infinite(), "precondition: the midpoint overflows");
        let (x, y) = two_columns(&vals, 30);
        let params = TreeParams { max_depth: 6, min_split: 2, mtry: 0 };
        assert!(assert_matches_exhaustive(&x, &y, params) > 0);
    }

    #[test]
    fn targets_near_1e200_take_the_exhaustive_fallback() {
        // `M²` overflows, so the error bound is not finite and every node
        // runs the exhaustive scan; the huge targets also overflow the
        // exact gains themselves, which both paths must treat alike.
        for sign in [1.0, -1.0] {
            let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i % 3) as f64]).collect();
            let y: Vec<f64> =
                (0..20).map(|i| sign * 1e200 * (1.0 + (i % 5) as f64 * 0.25)).collect();
            assert_matches_exhaustive(&x, &y, TreeParams::default());
        }
        // Large but finite-bound targets next to them take the pruned path.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| 1e100 * (i % 5) as f64).collect();
        assert!(assert_matches_exhaustive(&x, &y, TreeParams::default()) > 0);
    }

    #[test]
    fn targets_at_the_overflow_edge_match_exhaustive() {
        // Targets around 1e150–1e158: squares of prefix sums overflow
        // while the exact gains stay finite, so a node that skipped the
        // fallback would prune on infinite approximate gains.
        let mut state = 1u64;
        let mut unit = || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let params = TreeParams { max_depth: 3, min_split: 2, mtry: 0 };
        for trial in 0..2_000 {
            let m = 6 + (unit() * 30.0) as usize;
            let scale = 10f64.powf(150.0 + unit() * 8.0);
            let x: Vec<Vec<f64>> =
                (0..m).map(|_| vec![(unit() * 6.0).floor(), (unit() * 4.0).floor()]).collect();
            let y: Vec<f64> = (0..m).map(|_| (unit() * 2.0 - 1.0) * scale).collect();
            let idx: Vec<usize> = (0..m).collect();
            let columns = FeatureColumns::new(&x);
            let pruned = DecisionTree::grow(&columns, &y, &idx, params, &mut rng());
            let exhaustive = DecisionTree::grow_exhaustive(&columns, &y, &idx, params, &mut rng());
            assert!(pruned.bit_identical(&exhaustive), "trial {trial} diverged");
        }
    }

    #[test]
    #[should_panic]
    fn nan_feature_values_panic_as_in_the_exhaustive_scan() {
        let x: Vec<Vec<f64>> = (0..12).map(|i| vec![if i == 5 { f64::NAN } else { i as f64 }]).collect();
        let y: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let idx: Vec<usize> = (0..12).collect();
        DecisionTree::grow(&FeatureColumns::new(&x), &y, &idx, TreeParams::default(), &mut rng());
    }

    #[test]
    fn extrapolation_is_piecewise_constant() {
        // Trees cannot extrapolate: queries beyond the data return edge
        // leaf values (this is why RDF loses to KNN on the exponential
        // TREFP trend — the paper's Fig. 11 observation).
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| (i as f64).exp()).collect();
        let idx: Vec<usize> = (0..10).collect();
        let tree = DecisionTree::grow(
            &FeatureColumns::new(&x),
            &y,
            &idx,
            TreeParams::default(),
            &mut rng(),
        );
        assert_eq!(tree.predict(&[100.0]), tree.predict(&[9.0]));
    }
}
