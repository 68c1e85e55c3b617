//! CART decision trees for categorical data with large domains.
//!
//! Mirrors the paper's `rpart` usage (§3.2): binary splits, `minsplit` and
//! `cp` hyper-parameters with rpart semantics, and three split criteria
//! (gini, information gain, gain ratio). Foreign keys with huge domains are
//! first-class: split search is O(m log m) in the number of observed levels,
//! and nodes store only the observed codes, routing unseen codes to the
//! majority child at prediction time (popular R implementations crash
//! instead — §6.2; see `hamlet-core`'s smoothing for better policies).

pub mod split;

use crate::binenc::{BinReader, BinWriter};
use crate::dataset::CatDataset;
use crate::error::{MlError, Result};
use crate::model::Classifier;
use split::{find_best_split, impurity, SplitScratch};
pub use split::{CategoricalSplit, SplitCriterion};

/// Hyper-parameters with `rpart` semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Split criterion (paper: gini, information gain, gain ratio).
    pub criterion: SplitCriterion,
    /// Minimum rows in a node for a split to be attempted (`minsplit`).
    pub minsplit: usize,
    /// Complexity parameter: a split must improve the (root-scaled) fit by
    /// at least this factor (`cp`).
    pub cp: f64,
    /// Defensive depth cap (rpart's default is 30).
    pub max_depth: usize,
    /// Minimum rows in a child (`minbucket`); `None` = `max(minsplit/3, 1)`,
    /// rpart's default derivation.
    pub min_bucket: Option<usize>,
    /// Categorical partition style (subset vs one-vs-rest; see
    /// [`CategoricalSplit`]).
    pub categorical: CategoricalSplit,
}

impl TreeParams {
    /// rpart-like defaults with a chosen criterion.
    pub fn new(criterion: SplitCriterion) -> Self {
        Self {
            criterion,
            minsplit: 20,
            cp: 0.01,
            max_depth: 30,
            min_bucket: None,
            categorical: CategoricalSplit::SubsetPartition,
        }
    }

    /// Builder-style override of `minsplit`.
    pub fn with_minsplit(mut self, minsplit: usize) -> Self {
        self.minsplit = minsplit;
        self
    }

    /// Builder-style override of `cp`.
    pub fn with_cp(mut self, cp: f64) -> Self {
        self.cp = cp;
        self
    }

    /// Builder-style override of `max_depth`.
    pub fn with_max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Builder-style override of the categorical partition style.
    pub fn with_categorical(mut self, categorical: CategoricalSplit) -> Self {
        self.categorical = categorical;
        self
    }

    fn effective_min_bucket(&self) -> usize {
        self.min_bucket.unwrap_or((self.minsplit / 3).max(1))
    }

    /// The paper's §3.2 tuning grid: `minsplit ∈ {1,10,100,1000}`,
    /// `cp ∈ {1e-4, 1e-3, 0.01, 0.1, 0}`.
    pub fn paper_grid(criterion: SplitCriterion) -> Vec<TreeParams> {
        Self::paper_grid_with(criterion, CategoricalSplit::SubsetPartition)
    }

    /// The §3.2 grid with an explicit categorical partition style.
    pub fn paper_grid_with(
        criterion: SplitCriterion,
        categorical: CategoricalSplit,
    ) -> Vec<TreeParams> {
        let mut grid = Vec::with_capacity(20);
        for &minsplit in &[1usize, 10, 100, 1000] {
            for &cp in &[1e-4, 1e-3, 0.01, 0.1, 0.0] {
                grid.push(TreeParams {
                    criterion,
                    minsplit,
                    cp,
                    max_depth: 30,
                    min_bucket: None,
                    categorical,
                });
            }
        }
        grid
    }
}

#[derive(Debug, Clone, PartialEq)]
struct NodeSplit {
    feature: u32,
    /// Observed codes routed left (sorted).
    left_codes: Vec<u32>,
    /// Observed codes routed right (sorted).
    right_codes: Vec<u32>,
    left: u32,
    right: u32,
    /// Unseen codes at prediction time go to the larger (majority) child.
    majority_left: bool,
}

#[derive(Debug, Clone, PartialEq)]
struct Node {
    prediction: bool,
    n: u32,
    pos: u32,
    depth: u16,
    split: Option<NodeSplit>,
}

/// A fitted CART decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    params: TreeParams,
    nodes: Vec<Node>,
    n_features: usize,
}

impl DecisionTree {
    /// Fits a tree on a dataset.
    pub fn fit(ds: &CatDataset, params: TreeParams) -> Result<Self> {
        if ds.n_rows() == 0 {
            return Err(MlError::Shape {
                detail: "cannot fit a tree on an empty dataset".into(),
            });
        }
        let max_card = ds
            .features()
            .iter()
            .map(|f| f.cardinality as usize)
            .max()
            .unwrap_or(1);
        let mut scratch = SplitScratch::new(max_card);
        let min_bucket = params.effective_min_bucket();

        let n_total = ds.n_rows();
        let pos_total = ds.pos_count();
        let root_impurity = impurity(params.criterion, pos_total, n_total);

        let mut tree = DecisionTree {
            params,
            nodes: Vec::new(),
            n_features: ds.n_features(),
        };
        let all_rows: Vec<usize> = (0..n_total).collect();
        tree.nodes.push(Self::leaf(ds, &all_rows, 0));
        // Work stack of (node id, rows).
        let mut stack: Vec<(u32, Vec<usize>)> = vec![(0, all_rows)];

        while let Some((node_id, rows)) = stack.pop() {
            let depth = tree.nodes[node_id as usize].depth as usize;
            let n = rows.len();
            let pos = tree.nodes[node_id as usize].pos as usize;
            if n < params.minsplit.max(2)
                || depth >= params.max_depth
                || pos == 0
                || pos == n
                || root_impurity <= f64::EPSILON
            {
                continue; // stays a leaf
            }

            // Best split across all features by criterion score.
            let mut best: Option<split::CandidateSplit> = None;
            for j in 0..ds.n_features() {
                if let Some(c) = find_best_split(
                    ds,
                    &rows,
                    j,
                    params.criterion,
                    params.categorical,
                    min_bucket,
                    &mut scratch,
                ) {
                    if best.as_ref().is_none_or(|b| c.score > b.score) {
                        best = Some(c);
                    }
                }
            }
            let Some(best) = best else { continue };

            // rpart cp gate: scaled fit improvement must reach cp.
            let rel_improvement = best.raw_gain * (n as f64) / (root_impurity * n_total as f64);
            if rel_improvement < params.cp {
                continue;
            }

            // Partition rows. Membership test via binary search on the
            // (typically short) sorted left-code list.
            let mut left_rows = Vec::with_capacity(best.n_left);
            let mut right_rows = Vec::with_capacity(best.n_right);
            for &i in &rows {
                let code = ds.row(i)[best.feature];
                if best.left_codes.binary_search(&code).is_ok() {
                    left_rows.push(i);
                } else {
                    right_rows.push(i);
                }
            }
            debug_assert_eq!(left_rows.len(), best.n_left);
            debug_assert_eq!(right_rows.len(), best.n_right);

            let child_depth = (depth + 1) as u16;
            let left_id = tree.nodes.len() as u32;
            tree.nodes.push(Self::leaf(ds, &left_rows, child_depth));
            let right_id = tree.nodes.len() as u32;
            tree.nodes.push(Self::leaf(ds, &right_rows, child_depth));

            tree.nodes[node_id as usize].split = Some(NodeSplit {
                feature: best.feature as u32,
                majority_left: best.n_left >= best.n_right,
                left_codes: best.left_codes,
                right_codes: best.right_codes,
                left: left_id,
                right: right_id,
            });
            stack.push((left_id, left_rows));
            stack.push((right_id, right_rows));
        }
        Ok(tree)
    }

    fn leaf(ds: &CatDataset, rows: &[usize], depth: u16) -> Node {
        let n = rows.len();
        let pos = rows.iter().filter(|&&i| ds.label(i)).count();
        Node {
            prediction: 2 * pos >= n,
            n: n as u32,
            pos: pos as u32,
            depth,
            split: None,
        }
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Leaf count.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.split.is_none()).count()
    }

    /// Maximum node depth.
    pub fn depth(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.depth as usize)
            .max()
            .unwrap_or(0)
    }

    /// Fitting parameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// The leaf a row routes to, following the same unseen-code policy as
    /// prediction (majority child).
    fn leaf_for(&self, row: &[u32]) -> &Node {
        debug_assert_eq!(row.len(), self.n_features);
        let mut id = 0u32;
        loop {
            let node = &self.nodes[id as usize];
            match &node.split {
                None => return node,
                Some(s) => {
                    let code = row[s.feature as usize];
                    id = if s.left_codes.binary_search(&code).is_ok() {
                        s.left
                    } else if s.right_codes.binary_search(&code).is_ok() {
                        s.right
                    } else if s.majority_left {
                        s.left
                    } else {
                        s.right
                    };
                }
            }
        }
    }

    /// Laplace-smoothed log-odds of the leaf this row routes to:
    /// `ln((pos+1)/(neg+1))` over the leaf's training rows. Sign-consistent
    /// with `predict_row` (`2*pos >= n` ⟺ log-odds ≥ 0, ties included), so
    /// it serves as the tree family's margin for cascade calibration.
    pub fn leaf_log_odds(&self, row: &[u32]) -> f64 {
        let node = self.leaf_for(row);
        let pos = f64::from(node.pos);
        let neg = f64::from(node.n - node.pos);
        ((pos + 1.0) / (neg + 1.0)).ln()
    }

    /// Binary payload for format-v3 artifacts (see `crate::binenc`). Nodes
    /// are written in index order; the per-node code lists are inline
    /// (copied on read — they are short by construction, split search is
    /// O(observed levels)).
    pub(crate) fn encode_bin(&self, w: &mut BinWriter) {
        w.put_u8(match self.params.criterion {
            SplitCriterion::Gini => 0,
            SplitCriterion::InfoGain => 1,
            SplitCriterion::GainRatio => 2,
        });
        w.put_usize(self.params.minsplit);
        w.put_f64(self.params.cp);
        w.put_usize(self.params.max_depth);
        match self.params.min_bucket {
            None => w.put_u8(0),
            Some(m) => {
                w.put_u8(1);
                w.put_usize(m);
            }
        }
        w.put_u8(match self.params.categorical {
            CategoricalSplit::SubsetPartition => 0,
            CategoricalSplit::OneVsRest => 1,
        });
        w.put_usize(self.n_features);
        w.put_usize(self.nodes.len());
        for node in &self.nodes {
            w.put_bool(node.prediction);
            w.put_u32(node.n);
            w.put_u32(node.pos);
            w.put_u16(node.depth);
            match &node.split {
                None => w.put_u8(0),
                Some(s) => {
                    w.put_u8(1);
                    w.put_u32(s.feature);
                    w.put_u32(s.left);
                    w.put_u32(s.right);
                    w.put_bool(s.majority_left);
                    w.put_u32s_inline(&s.left_codes);
                    w.put_u32s_inline(&s.right_codes);
                }
            }
        }
    }

    /// Inverse of [`DecisionTree::encode_bin`].
    pub(crate) fn decode_bin(r: &mut BinReader) -> Result<Self> {
        let bad = |what: &str| MlError::Invalid(format!("corrupt tree payload: {what}"));
        let criterion = match r.read_u8()? {
            0 => SplitCriterion::Gini,
            1 => SplitCriterion::InfoGain,
            2 => SplitCriterion::GainRatio,
            t => return Err(bad(&format!("criterion tag {t}"))),
        };
        let minsplit = r.read_usize()?;
        let cp = r.read_f64()?;
        let max_depth = r.read_usize()?;
        let min_bucket = match r.read_u8()? {
            0 => None,
            1 => Some(r.read_usize()?),
            t => return Err(bad(&format!("min_bucket tag {t}"))),
        };
        let categorical = match r.read_u8()? {
            0 => CategoricalSplit::SubsetPartition,
            1 => CategoricalSplit::OneVsRest,
            t => return Err(bad(&format!("categorical tag {t}"))),
        };
        let n_features = r.read_usize()?;
        let n_nodes = r.read_usize()?;
        let mut nodes = Vec::with_capacity(n_nodes.min(r.remaining()));
        for _ in 0..n_nodes {
            let prediction = r.read_bool()?;
            let n = r.read_u32()?;
            let pos = r.read_u32()?;
            let depth = r.read_u16()?;
            let split = match r.read_u8()? {
                0 => None,
                1 => {
                    let feature = r.read_u32()?;
                    let left = r.read_u32()?;
                    let right = r.read_u32()?;
                    let majority_left = r.read_bool()?;
                    let left_codes = r.read_u32s_inline()?;
                    let right_codes = r.read_u32s_inline()?;
                    Some(NodeSplit {
                        feature,
                        left_codes,
                        right_codes,
                        left,
                        right,
                        majority_left,
                    })
                }
                t => return Err(bad(&format!("split tag {t}"))),
            };
            nodes.push(Node {
                prediction,
                n,
                pos,
                depth,
                split,
            });
        }
        // Child and feature indices must stay inside the node array and
        // row width respectively, or prediction would panic on a corrupted
        // file instead of failing the load.
        let count = nodes.len() as u32;
        for node in &nodes {
            if let Some(s) = &node.split {
                if s.left >= count || s.right >= count {
                    return Err(bad("child index out of range"));
                }
                if s.feature as usize >= n_features {
                    return Err(bad("split feature index out of range"));
                }
            }
        }
        Ok(DecisionTree {
            params: TreeParams {
                criterion,
                minsplit,
                cp,
                max_depth,
                min_bucket,
                categorical,
            },
            nodes,
            n_features,
        })
    }

    /// How many internal nodes split on each feature — the paper's §5.1
    /// observation ("FK was used heavily for partitioning") is this readout.
    pub fn feature_usage(&self) -> Vec<usize> {
        let mut usage = vec![0usize; self.n_features];
        for node in &self.nodes {
            if let Some(s) = &node.split {
                usage[s.feature as usize] += 1;
            }
        }
        usage
    }

    /// Pretty-prints the tree (one line per node) with feature names; the
    /// interpretability pain of large FK domains (§6.1) is easy to *see*
    /// here: uncompressed FK splits list enormous code sets.
    pub fn render(&self, feature_names: &[String]) -> String {
        let mut out = String::new();
        self.render_node(0, 0, feature_names, &mut out);
        out
    }

    fn render_node(&self, id: u32, indent: usize, names: &[String], out: &mut String) {
        let node = &self.nodes[id as usize];
        let pad = "  ".repeat(indent);
        match &node.split {
            None => {
                out.push_str(&format!(
                    "{pad}leaf n={} pos={} -> {}\n",
                    node.n, node.pos, node.prediction
                ));
            }
            Some(s) => {
                let name = names
                    .get(s.feature as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                let shown: Vec<String> = s
                    .left_codes
                    .iter()
                    .take(8)
                    .map(ToString::to_string)
                    .collect();
                let ell = if s.left_codes.len() > 8 { ",…" } else { "" };
                out.push_str(&format!(
                    "{pad}split {name} in {{{}{}}} (n={})\n",
                    shown.join(","),
                    ell,
                    node.n
                ));
                self.render_node(s.left, indent + 1, names, out);
                self.render_node(s.right, indent + 1, names, out);
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn predict_row(&self, row: &[u32]) -> bool {
        self.leaf_for(row).prediction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{CatDataset, FeatureMeta, Provenance};

    fn meta(names: &[(&str, u32)]) -> Vec<FeatureMeta> {
        names
            .iter()
            .map(|&(n, k)| FeatureMeta::new(n, k, Provenance::Home))
            .collect()
    }

    /// y = a XOR b with *asymmetric* cell counts. A perfectly balanced XOR
    /// has zero marginal gain on either feature, so a greedy CART (like
    /// rpart) will not split at all; skewing the counts gives the root a
    /// positive-gain split while still requiring depth 2 for a perfect fit.
    fn xor_dataset() -> CatDataset {
        let cells: [(u32, u32, usize); 4] = [(0, 0, 6), (0, 1, 4), (1, 0, 5), (1, 1, 5)];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for &(a, b, copies) in &cells {
            for _ in 0..copies {
                rows.extend_from_slice(&[a, b]);
                labels.push((a ^ b) == 1);
            }
        }
        CatDataset::new(meta(&[("a", 2), ("b", 2)]), rows, labels).unwrap()
    }

    fn full_params(c: SplitCriterion) -> TreeParams {
        TreeParams::new(c).with_minsplit(2).with_cp(0.0)
    }

    #[test]
    fn learns_xor_with_all_criteria() {
        let ds = xor_dataset();
        for crit in [
            SplitCriterion::Gini,
            SplitCriterion::InfoGain,
            SplitCriterion::GainRatio,
        ] {
            let t = DecisionTree::fit(&ds, full_params(crit)).unwrap();
            assert!((t.accuracy(&ds) - 1.0).abs() < 1e-12, "{crit:?}");
            assert!(t.depth() >= 2);
        }
    }

    #[test]
    fn pure_dataset_is_a_single_leaf() {
        let ds = CatDataset::new(meta(&[("a", 2)]), vec![0, 1, 0], vec![true, true, true]).unwrap();
        let t = DecisionTree::fit(&ds, full_params(SplitCriterion::Gini)).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.n_leaves(), 1);
        assert!(t.predict_row(&[1]));
    }

    #[test]
    fn huge_cp_prevents_splitting() {
        let ds = xor_dataset();
        let t = DecisionTree::fit(
            &ds,
            TreeParams::new(SplitCriterion::Gini)
                .with_minsplit(2)
                .with_cp(10.0),
        )
        .unwrap();
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn minsplit_limits_growth() {
        let ds = xor_dataset(); // 16 rows
        let t = DecisionTree::fit(
            &ds,
            TreeParams::new(SplitCriterion::Gini)
                .with_minsplit(100)
                .with_cp(0.0),
        )
        .unwrap();
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn max_depth_guard() {
        let ds = xor_dataset();
        let t =
            DecisionTree::fit(&ds, full_params(SplitCriterion::Gini).with_max_depth(1)).unwrap();
        assert!(t.depth() <= 1);
    }

    #[test]
    fn fk_memorization_fits_fd_data_perfectly() {
        // y determined by xr; fk functionally determines xr (2 fks per xr
        // value). Training on [fk] alone must reach 100 % train accuracy —
        // the paper's "memorizing FK does not hurt" phenomenon (§5.1).
        let n_fk = 10u32;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for rep in 0..6 {
            for fk in 0..n_fk {
                let xr = fk / 2;
                let y = xr % 2 == 0;
                rows.push(fk);
                labels.push(y);
                let _ = rep;
            }
        }
        let ds = CatDataset::new(meta(&[("fk", n_fk)]), rows, labels).unwrap();
        let t = DecisionTree::fit(&ds, full_params(SplitCriterion::Gini)).unwrap();
        assert!((t.accuracy(&ds) - 1.0).abs() < 1e-12);
        assert!(t.feature_usage()[0] >= 1);
    }

    #[test]
    fn unseen_code_routes_to_majority_child() {
        // Train where code 2 never appears; prediction must not panic and
        // must return the majority child's label.
        let ds = CatDataset::new(
            meta(&[("f", 3)]),
            vec![0, 0, 0, 1, 1],
            vec![true, true, true, false, false],
        )
        .unwrap();
        let t = DecisionTree::fit(&ds, full_params(SplitCriterion::Gini)).unwrap();
        // Majority side is code 0 (3 rows, true).
        assert!(t.predict_row(&[2]));
    }

    #[test]
    fn render_names_features() {
        let ds = xor_dataset();
        let t = DecisionTree::fit(&ds, full_params(SplitCriterion::Gini)).unwrap();
        let txt = t.render(&["a".into(), "b".into()]);
        assert!(txt.contains("split"));
        assert!(txt.contains("leaf"));
    }

    #[test]
    fn paper_grid_has_20_cells() {
        assert_eq!(TreeParams::paper_grid(SplitCriterion::Gini).len(), 20);
    }

    #[test]
    fn one_vs_rest_learns_single_level_rules() {
        // y = (f == 2): a one-vs-rest split nails it in one node.
        let ds = CatDataset::new(
            meta(&[("f", 4)]),
            vec![0, 1, 2, 3, 2, 0, 2, 1],
            vec![false, false, true, false, true, false, true, false],
        )
        .unwrap();
        let t = DecisionTree::fit(
            &ds,
            full_params(SplitCriterion::Gini).with_categorical(CategoricalSplit::OneVsRest),
        )
        .unwrap();
        assert!((t.accuracy(&ds) - 1.0).abs() < 1e-12);
        assert_eq!(t.depth(), 1, "one equality split suffices");
    }

    #[test]
    fn one_vs_rest_resists_noisy_huge_domain_fk() {
        // xr (binary, strong signal) vs fk (64 levels, pure noise, ~2 rows
        // per level). Subset partitions overfit the FK at the root; the
        // one-vs-rest style must prefer the real signal.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let n = 128usize;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let xr = rng.gen_range(0..2u32);
            let fk = rng.gen_range(0..64u32);
            rows.push(xr);
            rows.push(fk);
            labels.push(if rng.gen_bool(0.9) { xr == 1 } else { xr == 0 });
        }
        let ds = CatDataset::new(meta(&[("xr", 2), ("fk", 64)]), rows, labels).unwrap();
        let t = DecisionTree::fit(
            &ds,
            TreeParams::new(SplitCriterion::Gini)
                .with_minsplit(10)
                .with_cp(0.01)
                .with_categorical(CategoricalSplit::OneVsRest),
        )
        .unwrap();
        let usage = t.feature_usage();
        assert!(usage[0] >= 1, "tree must split on the signal feature");
        // The root split specifically must be the signal feature: verify by
        // rendering (root line mentions xr).
        let txt = t.render(&["xr".into(), "fk".into()]);
        let first = txt.lines().next().unwrap();
        assert!(first.contains("xr"), "root split was {first}");
    }

    #[test]
    fn empty_dataset_rejected() {
        let f = meta(&[("a", 2)]);
        let err = CatDataset::new(f, vec![], vec![]);
        assert!(err.is_err());
    }
}
