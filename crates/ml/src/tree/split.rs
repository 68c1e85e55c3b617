//! Split search for categorical CART trees.
//!
//! For binary classification, the optimal *binary* partition of a categorical
//! feature's levels under gini or entropy is found by sorting levels by their
//! positive-class rate and scanning the `m − 1` prefix cuts (Breiman et al.,
//! CART, Theorem 4.5) — O(m log m) instead of O(2^m). This is what lets the
//! tree digest foreign keys with thousands of levels, which is exactly the
//! regime the paper studies. Gain ratio reuses the same candidate ordering
//! (its split-information denominator depends only on partition sizes) and is
//! how we emulate the `CORElearn`-style criterion.

use crate::dataset::CatDataset;

/// The three split criteria used in the paper's Tables 2/5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitCriterion {
    /// CART gini impurity (rpart's default).
    Gini,
    /// Information gain (entropy decrease).
    InfoGain,
    /// Information gain normalised by split information (C4.5 / CORElearn).
    GainRatio,
}

/// How categorical levels are partitioned at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CategoricalSplit {
    /// Breiman's optimal binary subset partition (sort levels by positive
    /// rate, scan prefix cuts). Maximises *training* gain — which makes
    /// huge-domain FKs irresistible to the greedy search even when their
    /// per-level support is ~2 rows.
    SubsetPartition,
    /// One level vs the rest (`x = v` / `x ≠ v`) — what a tree over
    /// one-hot-encoded inputs does (the Hamlet pipeline's encoding). An FK
    /// level covering 2 rows now has proportionally small gain, so foreign
    /// features compete realistically.
    OneVsRest,
}

/// Gini impurity of a binary node: `2p(1−p)`.
#[inline]
pub fn gini(pos: usize, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let p = pos as f64 / n as f64;
    2.0 * p * (1.0 - p)
}

/// Binary entropy in bits.
#[inline]
pub fn binary_entropy(pos: usize, n: usize) -> f64 {
    if n == 0 || pos == 0 || pos == n {
        return 0.0;
    }
    let p = pos as f64 / n as f64;
    let q = 1.0 - p;
    -(p * p.log2() + q * q.log2())
}

/// Node impurity under a criterion (gain ratio shares entropy).
#[inline]
pub fn impurity(criterion: SplitCriterion, pos: usize, n: usize) -> f64 {
    match criterion {
        SplitCriterion::Gini => gini(pos, n),
        SplitCriterion::InfoGain | SplitCriterion::GainRatio => binary_entropy(pos, n),
    }
}

/// Split information: entropy of the (left, right) size partition.
#[inline]
pub fn split_info(n_left: usize, n_right: usize) -> f64 {
    binary_entropy(n_left, n_left + n_right)
}

/// Reusable per-code counting buffers, sized once for the largest feature
/// domain so node-level split search never allocates.
#[derive(Debug)]
pub struct SplitScratch {
    /// `counts[code] = (n, n_positive)`; only `touched` entries are valid.
    counts: Vec<(u32, u32)>,
    /// Codes with at least one row in the current node.
    touched: Vec<u32>,
}

impl SplitScratch {
    /// Allocates buffers for features with cardinality up to `max_cardinality`.
    pub fn new(max_cardinality: usize) -> Self {
        Self {
            counts: vec![(0, 0); max_cardinality],
            touched: Vec::with_capacity(max_cardinality.min(1 << 16)),
        }
    }

    fn reset(&mut self) {
        for &c in &self.touched {
            self.counts[c as usize] = (0, 0);
        }
        self.touched.clear();
    }
}

/// The best binary partition found for one feature at one node.
#[derive(Debug, Clone)]
pub struct CandidateSplit {
    /// Feature index.
    pub feature: usize,
    /// Codes (sorted ascending) routed to the left child.
    pub left_codes: Vec<u32>,
    /// Codes (sorted ascending) routed to the right child.
    pub right_codes: Vec<u32>,
    /// Criterion score used for comparisons (gain, or gain/split-info).
    pub score: f64,
    /// Raw impurity decrease (used for rpart-style cp gating).
    pub raw_gain: f64,
    /// Rows in the left child.
    pub n_left: usize,
    /// Rows in the right child.
    pub n_right: usize,
}

/// Finds the best binary split of feature `j` for the rows in `rows`.
/// Returns `None` when no split has positive gain or `min_bucket` cannot be
/// honoured.
pub fn find_best_split(
    ds: &CatDataset,
    rows: &[usize],
    j: usize,
    criterion: SplitCriterion,
    categorical: CategoricalSplit,
    min_bucket: usize,
    scratch: &mut SplitScratch,
) -> Option<CandidateSplit> {
    scratch.reset();
    let mut pos_total = 0usize;
    for &i in rows {
        let code = ds.row(i)[j];
        let cell = &mut scratch.counts[code as usize];
        if cell.0 == 0 {
            scratch.touched.push(code);
        }
        cell.0 += 1;
        let y = ds.label(i);
        cell.1 += u32::from(y);
        pos_total += usize::from(y);
    }
    let m = scratch.touched.len();
    if m < 2 {
        return None;
    }
    let n = rows.len();

    if categorical == CategoricalSplit::OneVsRest {
        return one_vs_rest_split(j, criterion, min_bucket, pos_total, n, scratch);
    }

    // Sort levels by positive rate (ties by code for determinism).
    scratch.touched.sort_unstable_by(|&a, &b| {
        let (na, pa) = scratch.counts[a as usize];
        let (nb, pb) = scratch.counts[b as usize];
        // pa/na < pb/nb  ⇔  pa·nb < pb·na  (all counts ≤ n ≤ u32::MAX)
        let lhs = (pa as u64) * (nb as u64);
        let rhs = (pb as u64) * (na as u64);
        lhs.cmp(&rhs).then(a.cmp(&b))
    });

    let parent = impurity(criterion, pos_total, n);
    let mut best: Option<(f64, f64, usize, usize)> = None; // (score, raw, cut, n_left)
    let mut nl = 0usize;
    let mut pl = 0usize;
    for t in 0..m - 1 {
        let (nc, pc) = scratch.counts[scratch.touched[t] as usize];
        nl += nc as usize;
        pl += pc as usize;
        let nr = n - nl;
        if nl < min_bucket || nr < min_bucket {
            continue;
        }
        let pr = pos_total - pl;
        let child = (nl as f64 / n as f64) * impurity(criterion, pl, nl)
            + (nr as f64 / n as f64) * impurity(criterion, pr, nr);
        let raw = parent - child;
        let score = match criterion {
            SplitCriterion::Gini | SplitCriterion::InfoGain => raw,
            SplitCriterion::GainRatio => {
                let si = split_info(nl, nr);
                if si > f64::EPSILON {
                    raw / si
                } else {
                    0.0
                }
            }
        };
        if best.is_none_or(|(s, ..)| score > s) {
            best = Some((score, raw, t + 1, nl));
        }
    }

    let (score, raw_gain, cut, n_left) = best?;
    if raw_gain <= 1e-12 {
        return None;
    }
    let mut left_codes: Vec<u32> = scratch.touched[..cut].to_vec();
    let mut right_codes: Vec<u32> = scratch.touched[cut..].to_vec();
    left_codes.sort_unstable();
    right_codes.sort_unstable();
    Some(CandidateSplit {
        feature: j,
        left_codes,
        right_codes,
        score,
        raw_gain,
        n_left,
        n_right: n - n_left,
    })
}

/// One-vs-rest candidate generation: for each observed level `v`, score the
/// `{v} | rest` partition and keep the best.
fn one_vs_rest_split(
    j: usize,
    criterion: SplitCriterion,
    min_bucket: usize,
    pos_total: usize,
    n: usize,
    scratch: &mut SplitScratch,
) -> Option<CandidateSplit> {
    let parent = impurity(criterion, pos_total, n);
    let mut best: Option<(f64, f64, u32, usize)> = None; // (score, raw, level, n_left)
    for &code in &scratch.touched {
        let (nc, pc) = scratch.counts[code as usize];
        let nl = nc as usize;
        let pl = pc as usize;
        let nr = n - nl;
        if nl < min_bucket || nr < min_bucket {
            continue;
        }
        let pr = pos_total - pl;
        let child = (nl as f64 / n as f64) * impurity(criterion, pl, nl)
            + (nr as f64 / n as f64) * impurity(criterion, pr, nr);
        let raw = parent - child;
        let score = match criterion {
            SplitCriterion::Gini | SplitCriterion::InfoGain => raw,
            SplitCriterion::GainRatio => {
                let si = split_info(nl, nr);
                if si > f64::EPSILON {
                    raw / si
                } else {
                    0.0
                }
            }
        };
        let better = match best {
            None => true,
            Some((s, _, c, _)) => score > s || (score == s && code < c),
        };
        if better {
            best = Some((score, raw, code, nl));
        }
    }
    let (score, raw_gain, level, n_left) = best?;
    if raw_gain <= 1e-12 {
        return None;
    }
    let mut right_codes: Vec<u32> = scratch
        .touched
        .iter()
        .copied()
        .filter(|&c| c != level)
        .collect();
    right_codes.sort_unstable();
    Some(CandidateSplit {
        feature: j,
        left_codes: vec![level],
        right_codes,
        score,
        raw_gain,
        n_left,
        n_right: n - n_left,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{CatDataset, FeatureMeta, Provenance};

    fn ds(codes: Vec<u32>, k: u32, labels: Vec<bool>) -> CatDataset {
        CatDataset::new(
            vec![FeatureMeta::new("f", k, Provenance::Home)],
            codes,
            labels,
        )
        .unwrap()
    }

    #[test]
    fn impurity_functions() {
        assert_eq!(gini(0, 10), 0.0);
        assert_eq!(gini(10, 10), 0.0);
        assert!((gini(5, 10) - 0.5).abs() < 1e-12);
        assert_eq!(binary_entropy(0, 10), 0.0);
        assert!((binary_entropy(5, 10) - 1.0).abs() < 1e-12);
        assert!((split_info(5, 5) - 1.0).abs() < 1e-12);
        assert_eq!(gini(0, 0), 0.0);
    }

    #[test]
    fn perfect_separator_found() {
        // code 0,1 → negative; code 2,3 → positive.
        let d = ds(
            vec![0, 1, 2, 3, 0, 2],
            4,
            vec![false, false, true, true, false, true],
        );
        let rows: Vec<usize> = (0..6).collect();
        for crit in [
            SplitCriterion::Gini,
            SplitCriterion::InfoGain,
            SplitCriterion::GainRatio,
        ] {
            let mut scratch = SplitScratch::new(4);
            let s = find_best_split(
                &d,
                &rows,
                0,
                crit,
                CategoricalSplit::SubsetPartition,
                1,
                &mut scratch,
            )
            .unwrap();
            // Left = pure negatives, right = pure positives (or vice versa).
            assert_eq!(s.left_codes, vec![0, 1]);
            assert_eq!(s.right_codes, vec![2, 3]);
            assert!(s.raw_gain > 0.0);
        }
    }

    #[test]
    fn pure_node_has_no_split() {
        let d = ds(vec![0, 1, 2], 3, vec![true, true, true]);
        let mut scratch = SplitScratch::new(3);
        let s = find_best_split(
            &d,
            &[0, 1, 2],
            0,
            SplitCriterion::Gini,
            CategoricalSplit::SubsetPartition,
            1,
            &mut scratch,
        );
        assert!(s.is_none());
    }

    #[test]
    fn single_level_has_no_split() {
        let d = ds(vec![1, 1, 1], 3, vec![true, false, true]);
        let mut scratch = SplitScratch::new(3);
        assert!(find_best_split(
            &d,
            &[0, 1, 2],
            0,
            SplitCriterion::Gini,
            CategoricalSplit::SubsetPartition,
            1,
            &mut scratch
        )
        .is_none());
    }

    #[test]
    fn min_bucket_respected() {
        let d = ds(
            vec![0, 1, 1, 1, 1, 1],
            2,
            vec![true, false, false, false, false, false],
        );
        let rows: Vec<usize> = (0..6).collect();
        let mut scratch = SplitScratch::new(2);
        // min_bucket=2 forbids the only useful cut (1 vs 5).
        assert!(find_best_split(
            &d,
            &rows,
            0,
            SplitCriterion::Gini,
            CategoricalSplit::SubsetPartition,
            2,
            &mut scratch
        )
        .is_none());
        assert!(find_best_split(
            &d,
            &rows,
            0,
            SplitCriterion::Gini,
            CategoricalSplit::SubsetPartition,
            1,
            &mut scratch
        )
        .is_some());
    }

    #[test]
    fn gain_ratio_penalises_unbalanced_cuts() {
        // Feature with a 1-vs-many cut and a balanced cut of equal raw gain
        // would prefer the balanced cut under gain ratio; here we just check
        // the score normalisation is applied (score != raw gain).
        let d = ds(
            vec![0, 0, 0, 1, 2, 2],
            3,
            vec![true, true, true, false, false, false],
        );
        let rows: Vec<usize> = (0..6).collect();
        let mut scratch = SplitScratch::new(3);
        let s = find_best_split(
            &d,
            &rows,
            0,
            SplitCriterion::GainRatio,
            CategoricalSplit::SubsetPartition,
            1,
            &mut scratch,
        )
        .unwrap();
        assert!((s.score - s.raw_gain / split_info(s.n_left, s.n_right)).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_ties() {
        let d = ds(vec![0, 1, 2, 3], 4, vec![true, false, true, false]);
        let rows: Vec<usize> = (0..4).collect();
        let mut s1 = SplitScratch::new(4);
        let mut s2 = SplitScratch::new(4);
        let a = find_best_split(
            &d,
            &rows,
            0,
            SplitCriterion::Gini,
            CategoricalSplit::SubsetPartition,
            1,
            &mut s1,
        )
        .unwrap();
        let b = find_best_split(
            &d,
            &rows,
            0,
            SplitCriterion::Gini,
            CategoricalSplit::SubsetPartition,
            1,
            &mut s2,
        )
        .unwrap();
        assert_eq!(a.left_codes, b.left_codes);
    }
}
