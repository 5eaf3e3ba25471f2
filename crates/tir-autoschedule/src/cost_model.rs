//! A gradient-boosted regression-tree cost model (§4.4).
//!
//! The paper uses an XGBoost ensemble trained online from hardware
//! measurements to rank candidates inside evolutionary search. This is a
//! from-scratch implementation of the same model family: least-squares
//! gradient boosting over depth-limited regression trees with exact greedy
//! splits.

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

impl RegressionTree {
    fn fit(data: &[(&[f64], f64)], max_depth: usize, min_leaf: usize) -> Self {
        let mut tree = RegressionTree { nodes: Vec::new() };
        let idx: Vec<usize> = (0..data.len()).collect();
        tree.build(data, &idx, max_depth, min_leaf);
        tree
    }

    fn build(
        &mut self,
        data: &[(&[f64], f64)],
        idx: &[usize],
        depth: usize,
        min_leaf: usize,
    ) -> usize {
        let mean = idx.iter().map(|&i| data[i].1).sum::<f64>() / idx.len().max(1) as f64;
        if depth == 0 || idx.len() < 2 * min_leaf {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
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
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| data[i].0[feature] <= threshold);
        let node_pos = self.nodes.len();
        self.nodes.push(Node::Leaf(0.0)); // placeholder
        let left = self.build(data, &left_idx, depth - 1, min_leaf);
        let right = self.build(data, &right_idx, depth - 1, min_leaf);
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
    pub fn update(&mut self, samples: impl IntoIterator<Item = (Vec<f64>, f64)>) {
        self.data.extend(samples);
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
        for _ in 0..self.num_rounds {
            let pairs: Vec<(&[f64], f64)> = self
                .data
                .iter()
                .zip(&residuals)
                .map(|((x, _), r)| (x.as_slice(), *r))
                .collect();
            let tree = RegressionTree::fit(&pairs, self.max_depth, 2);
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
mod tests {
    use super::*;

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
        m.update((0..8).map(|i| (vec![f64::from(i), 1.0], 2.5)));
        assert!(!m.has_split());
        assert_eq!(m.predict(&[0.0, 1.0]), m.predict(&[7.0, -3.0]));
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
        let pairs: Vec<(&[f64], f64)> = data.iter().map(|(x, y)| (x.as_slice(), *y)).collect();
        let t = RegressionTree::fit(&pairs, 2, 1);
        assert!((t.predict(&[0.05]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[0.95]) - 5.0).abs() < 1e-9);
    }
}
