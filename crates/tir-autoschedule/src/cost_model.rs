//! A gradient-boosted regression-tree cost model (§4.4).
//!
//! The paper uses an XGBoost ensemble trained online from hardware
//! measurements to rank candidates inside evolutionary search. This is a
//! from-scratch implementation of the same model family: least-squares
//! gradient boosting over depth-limited regression trees with exact greedy
//! splits.
//!
//! [`CostModel::update`] appends samples and refits every tree from
//! scratch, so a refit costs more the more samples the model holds. A
//! refit sorts each feature column once and scans only the columns on
//! which two samples differ; the search calls `update` only when it is
//! about to read the model (`search.rs`, "Stages").

/// One node of a regression tree (stored as an implicit array).
#[derive(Clone, Debug)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A regression tree trained by exact greedy least-squares splitting.
#[derive(Clone, Debug)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

/// What the trees of one refit share: the samples, and for every feature
/// that can split — two samples compare `!=` on it (a NaN always does;
/// `0.0` and `-0.0` do not) — its `(value, sample)` pairs by ascending
/// value, equal values in index order: the order a stable sort of any
/// ascending index list by that feature gives. Feature values never change
/// within a refit, so each column is sorted once instead of at every node
/// of every round, and a constant column, which no subset of the samples
/// can split, is never sorted or scanned.
struct Columns<'a> {
    data: &'a [(Vec<f64>, f64)],
    sorted: Vec<(usize, Vec<(f64, usize)>)>,
}

impl<'a> Columns<'a> {
    fn new(data: &'a [(Vec<f64>, f64)]) -> Self {
        let width = data.first().map_or(0, |(x, _)| x.len());
        let sorted = (0..width)
            .filter(|&f| data.iter().any(|(x, _)| x[f] != data[0].0[f]))
            .map(|f| {
                let mut col: Vec<(f64, usize)> = data
                    .iter()
                    .enumerate()
                    .map(|(i, (x, _))| (x[f], i))
                    .collect();
                col.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
                (f, col)
            })
            .collect();
        Columns { data, sorted }
    }
}

impl RegressionTree {
    fn fit(cols: &Columns, targets: &[f64], max_depth: usize, min_leaf: usize) -> Self {
        let mut tree = RegressionTree { nodes: Vec::new() };
        let idx: Vec<usize> = (0..targets.len()).collect();
        let mut member = vec![false; targets.len()];
        tree.build(cols, targets, &mut member, &idx, max_depth, min_leaf);
        tree
    }

    /// Grows the subtree over the samples `idx` (ascending). A node reads
    /// its samples in feature order by filtering the refit's sorted column
    /// on `member`, so ties fall, and `left_sum` adds, exactly as in a
    /// stable sort of `idx` itself.
    fn build(
        &mut self,
        cols: &Columns,
        targets: &[f64],
        member: &mut [bool],
        idx: &[usize],
        depth: usize,
        min_leaf: usize,
    ) -> usize {
        let total_sum: f64 = idx.iter().map(|&i| targets[i]).sum();
        let mean = total_sum / idx.len().max(1) as f64;
        if depth == 0 || idx.len() < 2 * min_leaf {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }
        let n = idx.len() as f64;
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        idx.iter().for_each(|&i| member[i] = true);
        for (f, col) in &cols.sorted {
            let mut left_sum = 0.0;
            let mut prev: Option<f64> = None;
            for (seen, &(v, ni)) in col.iter().filter(|&&(_, i)| member[i]).enumerate() {
                // A split between `pv`, the value of the last of the `seen`
                // samples so far, and `v`, its successor's in this node.
                if let Some(pv) = prev.filter(|&pv| pv != v) {
                    if seen >= min_leaf && idx.len() - seen >= min_leaf {
                        let (nl, nr) = (seen as f64, n - seen as f64);
                        // Variance-reduction gain (up to constants).
                        let gain = left_sum * left_sum / nl + (total_sum - left_sum).powi(2) / nr
                            - total_sum * total_sum / n;
                        let threshold = 0.5 * (pv + v);
                        if best.map(|(g, _, _)| gain > g).unwrap_or(gain > 1e-12) {
                            best = Some((gain, *f, threshold));
                        }
                    }
                }
                left_sum += targets[ni];
                prev = Some(v);
            }
        }
        idx.iter().for_each(|&i| member[i] = false);
        let Some((_, feature, threshold)) = best else {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
            .iter()
            .partition(|&&i| cols.data[i].0[feature] <= threshold);
        let node_pos = self.nodes.len();
        self.nodes.push(Node::Leaf(0.0)); // placeholder
        let left = self.build(cols, targets, member, &left_idx, depth - 1, min_leaf);
        let right = self.build(cols, targets, member, &right_idx, depth - 1, min_leaf);
        self.nodes[node_pos] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_pos
    }

    /// Whether the tree reads its input at all. The root is node 0 (see
    /// [`RegressionTree::predict`]), so a tree splits iff its root does.
    fn has_split(&self) -> bool {
        matches!(self.nodes.first(), Some(Node::Split { .. }))
    }

    /// Predicts the value for one feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        // The root is the first node pushed by the outer build call: for a
        // split it is at its placeholder position; a pure-leaf tree has the
        // leaf first. Either way the root is node 0.
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if features.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// A gradient-boosted ensemble of regression trees.
///
/// Trained on `(features, target)` pairs where the target is
/// `-log(measured_time)` — higher predictions mean faster programs, which
/// is the ranking the evolutionary search consumes.
#[derive(Clone, Debug)]
pub struct CostModel {
    trees: Vec<RegressionTree>,
    base: f64,
    learning_rate: f64,
    max_depth: usize,
    num_rounds: usize,
    data: Vec<(Vec<f64>, f64)>,
}

impl CostModel {
    /// Creates an untrained model with default hyperparameters (64 rounds
    /// of depth-3 trees, learning rate 0.3).
    pub fn new() -> Self {
        CostModel {
            trees: Vec::new(),
            base: 0.0,
            learning_rate: 0.3,
            max_depth: 3,
            num_rounds: 64,
            data: Vec::new(),
        }
    }

    /// Number of training samples accumulated.
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// Adds measured samples and refits the ensemble.
    ///
    /// The first sample the model ever sees fixes its feature width. Any
    /// later vector is resized to it: a missing feature reads `0.0`, which
    /// is what [`CostModel::predict`] assumes for a short vector, and the
    /// model has no column for a feature beyond the width.
    pub fn update(&mut self, samples: impl IntoIterator<Item = (Vec<f64>, f64)>) {
        for (mut x, y) in samples {
            let width = self.data.first().map_or(x.len(), |(first, _)| first.len());
            x.resize(width, 0.0);
            self.data.push((x, y));
        }
        self.fit();
    }

    fn fit(&mut self) {
        self.trees.clear();
        if self.data.is_empty() {
            self.base = 0.0;
            return;
        }
        self.base = self.data.iter().map(|(_, y)| *y).sum::<f64>() / self.data.len() as f64;
        let mut residuals: Vec<f64> = self.data.iter().map(|(_, y)| y - self.base).collect();
        let cols = Columns::new(&self.data);
        for _ in 0..self.num_rounds {
            let tree = RegressionTree::fit(&cols, &residuals, self.max_depth, 2);
            let mut improved = false;
            for (i, (x, _)) in self.data.iter().enumerate() {
                let p = tree.predict(x) * self.learning_rate;
                if p != 0.0 {
                    improved = true;
                }
                residuals[i] -= p;
            }
            self.trees.push(tree);
            if !improved {
                break;
            }
        }
        #[cfg(test)]
        tests::assert_same_as_per_node_sort(self);
    }

    /// Predicts the score of a feature vector (higher = faster).
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.base
            + self
                .trees
                .iter()
                .map(|t| t.predict(features) * self.learning_rate)
                .sum::<f64>()
    }

    /// Whether [`CostModel::predict`] can tell two feature vectors apart:
    /// some tree has a split. An untrained model, and one whose samples
    /// all carry the same target (every candidate measured so far took the
    /// same time), is a constant function — every candidate it scores
    /// ties, and the search need not build candidates to learn that.
    pub fn has_split(&self) -> bool {
        self.trees.iter().any(RegressionTree::has_split)
    }

    /// Mean squared error on the training set (for tests/diagnostics).
    pub fn training_mse(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data
            .iter()
            .map(|(x, y)| (self.predict(x) - y).powi(2))
            .sum::<f64>()
            / self.data.len() as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::RefCell;

    thread_local! {
        /// The sample count of every refit of this thread, in order: each
        /// one was compared against the oracle below.
        static REFITS_CHECKED: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    /// The sample counts of this thread's refits since the last call.
    pub(crate) fn take_refit_sizes() -> Vec<usize> {
        REFITS_CHECKED.with(|r| std::mem::take(&mut *r.borrow_mut()))
    }

    /// The tree builder as it was before a refit sorted each feature
    /// column once: every node copies and stable-sorts its own indices, per
    /// feature. Kept only as the oracle of `build`.
    fn build_per_node_sort(
        tree: &mut RegressionTree,
        data: &[(&[f64], f64)],
        idx: &[usize],
        depth: usize,
        min_leaf: usize,
    ) -> usize {
        let mean = idx.iter().map(|&i| data[i].1).sum::<f64>() / idx.len().max(1) as f64;
        if depth == 0 || idx.len() < 2 * min_leaf {
            tree.nodes.push(Node::Leaf(mean));
            return tree.nodes.len() - 1;
        }
        let num_features = data[idx[0]].0.len();
        let total_sum: f64 = idx.iter().map(|&i| data[i].1).sum();
        let n = idx.len() as f64;
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for f in 0..num_features {
            let mut sorted: Vec<usize> = idx.to_vec();
            sorted.sort_by(|&a, &b| {
                data[a].0[f]
                    .partial_cmp(&data[b].0[f])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut left_sum = 0.0;
            for (pos, &i) in sorted.iter().enumerate() {
                left_sum += data[i].1;
                let nl = (pos + 1) as f64;
                let nr = n - nl;
                if (pos + 1) < min_leaf || (idx.len() - pos - 1) < min_leaf {
                    continue;
                }
                let next = sorted.get(pos + 1);
                let (Some(&ni), true) = (next, pos + 1 < sorted.len()) else {
                    continue;
                };
                if data[i].0[f] == data[ni].0[f] {
                    continue; // can't split between equal values
                }
                // Variance-reduction gain (up to constants).
                let gain = left_sum * left_sum / nl + (total_sum - left_sum).powi(2) / nr
                    - total_sum * total_sum / n;
                let threshold = 0.5 * (data[i].0[f] + data[ni].0[f]);
                if best.map(|(g, _, _)| gain > g).unwrap_or(gain > 1e-12) {
                    best = Some((gain, f, threshold));
                }
            }
        }
        let Some((_, feature, threshold)) = best else {
            tree.nodes.push(Node::Leaf(mean));
            return tree.nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| data[i].0[feature] <= threshold);
        let node_pos = tree.nodes.len();
        tree.nodes.push(Node::Leaf(0.0)); // placeholder
        let left = build_per_node_sort(tree, data, &left_idx, depth - 1, min_leaf);
        let right = build_per_node_sort(tree, data, &right_idx, depth - 1, min_leaf);
        tree.nodes[node_pos] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_pos
    }

    /// The refit around it, likewise as it was: `model`'s samples and
    /// hyperparameters, trees from the oracle builder.
    fn fit_per_node_sort(model: &CostModel) -> CostModel {
        let mut oracle = CostModel {
            trees: Vec::new(),
            ..model.clone()
        };
        let mut residuals: Vec<f64> = (oracle.data.iter()).map(|(_, y)| y - oracle.base).collect();
        for _ in 0..oracle.num_rounds {
            let pairs: Vec<(&[f64], f64)> = (oracle.data.iter().zip(&residuals))
                .map(|((x, _), r)| (x.as_slice(), *r))
                .collect();
            let mut tree = RegressionTree { nodes: Vec::new() };
            let idx: Vec<usize> = (0..pairs.len()).collect();
            build_per_node_sort(&mut tree, &pairs, &idx, oracle.max_depth, 2);
            let mut improved = false;
            for (i, (x, _)) in oracle.data.iter().enumerate() {
                let p = tree.predict(x) * oracle.learning_rate;
                improved |= p != 0.0;
                residuals[i] -= p;
            }
            oracle.trees.push(tree);
            if !improved {
                break;
            }
        }
        oracle
    }

    /// Every number of a fitted model, as bits.
    fn model_bits(model: &CostModel) -> Vec<Vec<u64>> {
        let tree_bits = |tree: &RegressionTree| {
            (tree.nodes.iter())
                .flat_map(|node| match *node {
                    Node::Leaf(v) => vec![0, v.to_bits()],
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => vec![
                        1,
                        feature as u64,
                        threshold.to_bits(),
                        left as u64,
                        right as u64,
                    ],
                })
                .collect()
        };
        let mut bits = vec![vec![model.base.to_bits()]];
        bits.extend(model.trees.iter().map(tree_bits));
        bits
    }

    /// Called by every `CostModel::fit` of a test build: the model just
    /// fitted equals, node for node and bit for bit, what the per-node-sort
    /// builder makes of the same samples.
    pub(super) fn assert_same_as_per_node_sort(model: &CostModel) {
        if model.data.is_empty() {
            return;
        }
        assert_eq!(model_bits(model), model_bits(&fit_per_node_sort(model)));
        REFITS_CHECKED.with(|r| r.borrow_mut().push(model.data.len()));
    }

    /// Equivalence (iii): the refits of the 40 golden tunes (the rows of
    /// `tests/tune_golden.rs`), sample sequence by sample sequence, and a
    /// synthetic set in which every column repeats values, where only the
    /// tie order keeps the running sums equal.
    #[test]
    fn presorted_fit_equals_per_node_sort_fit() {
        use crate::{tune_workload, Strategy, TuneOptions};
        use tir::DataType;
        use tir_exec::machine::Machine;
        use tir_workloads::{bench_suite, OpKind};

        let reg = tir_tensorize::builtin_registry();
        let targets = [
            (Machine::sim_gpu(), DataType::float16()),
            (Machine::sim_arm(), DataType::int8()),
        ];
        take_refit_sizes();
        let mut tunes = 0;
        for (machine, dtype) in &targets {
            let cases = bench_suite(*dtype).into_iter().filter(|c| {
                *dtype == DataType::float16() || matches!(c.kind, OpKind::GMM | OpKind::C2D)
            });
            for case in cases {
                for (trials, seed) in [(64, 1), (64, 2), (64, 3), (16, 1)] {
                    let opts = TuneOptions {
                        trials,
                        seed,
                        num_threads: 1,
                        ..Default::default()
                    };
                    tune_workload(&case.func, machine, &reg, Strategy::TensorIr, &opts);
                    tunes += 1;
                }
            }
        }
        assert_eq!(tunes, 40);
        let checked = take_refit_sizes().len();
        assert!(checked >= 40 * 2, "only {checked} refits were compared");

        // Duplicated values in every column, 16 columns, growing sample set.
        let mut model = CostModel::new();
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..8 {
            let batch: Vec<(Vec<f64>, f64)> = (0..8)
                .map(|_| {
                    let x: Vec<f64> = (0..16).map(|_| next(4) * 0.25).collect();
                    let y = x[0] * 3.0 - x[5] + next(1000) / 1000.0;
                    (x, y)
                })
                .collect();
            model.update(batch);
            let oracle = fit_per_node_sort(&model);
            assert_eq!(model_bits(&model), model_bits(&oracle));
            for _ in 0..125 {
                let x: Vec<f64> = (0..16).map(|_| next(9) * 0.125).collect();
                assert_eq!(model.predict(&x).to_bits(), oracle.predict(&x).to_bits());
            }
        }
        assert!(model.has_split());
    }

    /// A 64-bit xorshift stream of integers below `modulus`, as `f64`.
    fn xorshift(mut state: u64) -> impl FnMut(u64) -> f64 {
        move |modulus| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % modulus) as f64
        }
    }

    /// A refit scans only the columns that can split, and that changes no
    /// model: here against the per-node-sort oracle, bit for bit in the
    /// model and in 1 000 predictions, on the edges of `!=`. Constant
    /// columns and one of `0.0`/`-0.0` (equal, so constant) are dropped;
    /// an all-NaN column and a constant one with NaNs are kept, since a
    /// NaN compares `!=` to everything. Then every target is equal.
    #[test]
    fn column_pruning_equals_per_node_sort_fit() {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        let mut row = |i: u64| {
            let zero = if i.is_multiple_of(2) { 0.0 } else { -0.0 };
            let nan_or_two = if i % 5 == 3 { f64::NAN } else { 2.0 };
            let x = [1.5, zero, next(4) * 0.25, f64::NAN, nan_or_two, -7.0];
            let mut x = x.to_vec();
            x.push(next(3));
            x
        };
        let rows: Vec<Vec<f64>> = (0..64).map(&mut row).collect();
        let columns = |data: &[(Vec<f64>, f64)]| -> Vec<usize> {
            Columns::new(data).sorted.iter().map(|(f, _)| *f).collect()
        };
        let probes: Vec<Vec<f64>> = (0..1000).map(|i| row(i + 64)).collect();
        let assert_same = |model: &CostModel| {
            let oracle = fit_per_node_sort(model);
            assert_eq!(model_bits(model), model_bits(&oracle));
            for x in &probes {
                assert_eq!(model.predict(x).to_bits(), oracle.predict(x).to_bits());
            }
        };

        let mut model = CostModel::new();
        for batch in rows.chunks(8) {
            model.update(batch.iter().map(|x| {
                let noise = (x[2] * 1000.0).sin() / 8.0;
                (x.clone(), x[2] * 3.0 - x[6] + noise)
            }));
            assert_same(&model);
        }
        assert_eq!(columns(&model.data), [2, 3, 4, 6]);
        assert!(model.has_split());

        let mut flat = CostModel::new();
        flat.update(rows.iter().map(|x| (x.clone(), 0.75)));
        assert_same(&flat);
        assert!(!flat.has_split());
        assert_eq!(flat.predict(&probes[0]), flat.predict(&probes[1]));
    }

    #[test]
    fn feature_width_is_fixed_by_the_first_sample() {
        let mut m = CostModel::new();
        m.update((0..8).map(|i| (vec![f64::from(i), 1.0], f64::from(i % 3))));
        // A narrower sample deeper in a node used to index out of bounds,
        // a wider one was ignored only if it was not the node's first.
        m.update([(vec![9.0], 4.0), (vec![2.0, 1.0, 7.0], 0.5)]);
        assert_eq!(m.num_samples(), 10);
        assert!(m.data.iter().all(|(x, _)| x.len() == 2));
        assert_eq!(m.data[8].0, [9.0, 0.0]);
        assert_eq!(m.predict(&[9.0]), m.predict(&[9.0, 0.0]));
    }

    fn synthetic(n: usize) -> Vec<(Vec<f64>, f64)> {
        // y = 3*x0 - 2*x1 + step(x2 > 0.5)
        (0..n)
            .map(|i| {
                let x0 = (i % 7) as f64 / 7.0;
                let x1 = (i % 5) as f64 / 5.0;
                let x2 = (i % 3) as f64 / 3.0;
                let y = 3.0 * x0 - 2.0 * x1 + if x2 > 0.5 { 1.0 } else { 0.0 };
                (vec![x0, x1, x2], y)
            })
            .collect()
    }

    #[test]
    fn fits_synthetic_function() {
        let mut m = CostModel::new();
        m.update(synthetic(100));
        assert!(
            m.training_mse() < 0.05,
            "mse too high: {}",
            m.training_mse()
        );
    }

    #[test]
    fn ranking_is_learned() {
        let mut m = CostModel::new();
        m.update(synthetic(100));
        // Higher x0 (all else equal) must rank higher.
        let lo = m.predict(&[0.1, 0.5, 0.0]);
        let hi = m.predict(&[0.9, 0.5, 0.0]);
        assert!(hi > lo);
    }

    #[test]
    fn empty_model_predicts_base() {
        let m = CostModel::new();
        assert_eq!(m.predict(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn a_model_without_a_split_is_constant() {
        let mut m = CostModel::new();
        assert!(!m.has_split());
        // Distinct features, one target: nothing to split on.
        m.update((0..8).map(|i| (vec![f64::from(i), 1.0, 0.5], 2.5)));
        assert!(!m.has_split());
        assert_eq!(m.predict(&[0.0, 1.0, 0.5]), m.predict(&[7.0, -3.0, 2.0]));
        // Distinct targets but identical features: no threshold exists.
        let mut same_x = CostModel::new();
        same_x.update((0..8).map(|i| (vec![1.0, 1.0], f64::from(i))));
        assert!(!same_x.has_split());
        m.update(synthetic(30));
        assert!(m.has_split());
    }

    #[test]
    fn incremental_updates_accumulate() {
        let mut m = CostModel::new();
        m.update(synthetic(30));
        let before = m.num_samples();
        m.update(synthetic(10));
        assert_eq!(m.num_samples(), before + 10);
    }

    #[test]
    fn single_tree_predicts_leaf_means() {
        let data = [
            (vec![0.0], 1.0),
            (vec![0.1], 1.0),
            (vec![0.9], 5.0),
            (vec![1.0], 5.0),
        ];
        let targets: Vec<f64> = data.iter().map(|(_, y)| *y).collect();
        let t = RegressionTree::fit(&Columns::new(&data), &targets, 2, 1);
        assert!((t.predict(&[0.05]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[0.95]) - 5.0).abs() < 1e-9);
    }
}
