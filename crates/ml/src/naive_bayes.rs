//! Categorical Naive Bayes with Laplace smoothing.
//!
//! One of the paper's linear-capacity baselines (from the SIGMOD'16 work the
//! study revisits). Conditional probability tables are estimated per
//! feature; Laplace add-one smoothing handles codes unseen within a class —
//! and, notably, makes NB one of the models that does *not* crash on FK
//! codes unseen in training (§6.2 discusses trees crashing; NB smooths).

use crate::binenc::PodVec;
use crate::dataset::CatDataset;
use crate::error::{MlError, Result};
use crate::model::Classifier;

/// A fitted categorical Naive Bayes model (log-space). Probability tables
/// live behind [`PodVec`] so mmap-loaded format-v3 artifacts score rows
/// straight out of the mapped file.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayes {
    /// Log prior for (negative, positive).
    pub(crate) log_prior: [f64; 2],
    /// Per feature: flattened `2 × cardinality` log-likelihood table.
    pub(crate) tables: Vec<PodVec<f64>>,
    pub(crate) cardinalities: PodVec<u32>,
}

/// Laplace pseudo-count used for all tables.
const ALPHA: f64 = 1.0;

impl NaiveBayes {
    /// Fits conditional probability tables from counts.
    pub fn fit(ds: &CatDataset) -> Result<Self> {
        let n = ds.n_rows();
        if n == 0 {
            return Err(MlError::Shape {
                detail: "cannot fit NB on an empty dataset".into(),
            });
        }
        let pos = ds.pos_count();
        let neg = n - pos;
        // Laplace on the prior too, so single-class data stays finite.
        let log_prior = [
            ((neg as f64 + ALPHA) / (n as f64 + 2.0 * ALPHA)).ln(),
            ((pos as f64 + ALPHA) / (n as f64 + 2.0 * ALPHA)).ln(),
        ];
        let class_n = [neg as f64, pos as f64];

        let mut tables = Vec::with_capacity(ds.n_features());
        for j in 0..ds.n_features() {
            let k = ds.feature(j).cardinality as usize;
            let mut counts = vec![0.0f64; 2 * k];
            for i in 0..n {
                let c = ds.row(i)[j] as usize;
                let y = usize::from(ds.label(i));
                counts[y * k + c] += 1.0;
            }
            let mut table = vec![0.0f64; 2 * k];
            for y in 0..2 {
                let denom = class_n[y] + ALPHA * k as f64;
                for c in 0..k {
                    table[y * k + c] = ((counts[y * k + c] + ALPHA) / denom).ln();
                }
            }
            tables.push(table.into());
        }
        Ok(Self {
            log_prior,
            tables,
            cardinalities: ds.cardinalities().into(),
        })
    }

    /// Log joint score for one class.
    fn score(&self, row: &[u32], y: usize) -> f64 {
        let mut s = self.log_prior[y];
        for (j, (&code, table)) in row.iter().zip(&self.tables).enumerate() {
            let k = self.cardinalities[j] as usize;
            s += table[y * k + code as usize];
        }
        s
    }

    /// Class log-odds `score(y=1) − score(y=0)`. Sign-consistent with
    /// `predict_row` (positive ⟺ the positive class wins, ties included) —
    /// the NB family's margin for cascade calibration.
    pub fn log_odds(&self, row: &[u32]) -> f64 {
        self.score(row, 1) - self.score(row, 0)
    }

    /// Posterior probability of the positive class.
    pub fn posterior_pos(&self, row: &[u32]) -> f64 {
        let s0 = self.score(row, 0);
        let s1 = self.score(row, 1);
        let m = s0.max(s1);
        let e0 = (s0 - m).exp();
        let e1 = (s1 - m).exp();
        e1 / (e0 + e1)
    }
}

impl Classifier for NaiveBayes {
    fn predict_row(&self, row: &[u32]) -> bool {
        self.score(row, 1) >= self.score(row, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{CatDataset, FeatureMeta, Provenance};

    fn meta(d: usize, k: u32) -> Vec<FeatureMeta> {
        (0..d)
            .map(|j| FeatureMeta::new(format!("f{j}"), k, Provenance::Home))
            .collect()
    }

    #[test]
    fn learns_a_strong_marginal_signal() {
        // Feature 0 = label with high probability.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100u32 {
            let y = i % 2 == 0;
            rows.push(u32::from(y));
            rows.push(i % 3); // noise feature
            labels.push(y);
        }
        let ds = CatDataset::new(meta(2, 3), rows, labels).unwrap();
        let nb = NaiveBayes::fit(&ds).unwrap();
        assert!(nb.accuracy(&ds) > 0.95);
    }

    #[test]
    fn posterior_is_probability() {
        let ds =
            CatDataset::new(meta(1, 2), vec![0, 0, 1, 1], vec![true, true, false, false]).unwrap();
        let nb = NaiveBayes::fit(&ds).unwrap();
        let p0 = nb.posterior_pos(&[0]);
        let p1 = nb.posterior_pos(&[1]);
        assert!(p0 > 0.5 && p0 < 1.0);
        assert!(p1 < 0.5 && p1 > 0.0);
    }

    #[test]
    fn laplace_handles_unseen_codes() {
        let ds = CatDataset::new(meta(1, 5), vec![0, 1], vec![true, false]).unwrap();
        let nb = NaiveBayes::fit(&ds).unwrap();
        // Codes 2..4 never seen: must not panic, and posterior ≈ prior.
        let p = nb.posterior_pos(&[4]);
        assert!(p > 0.0 && p < 1.0);
        assert!((p - 0.5).abs() < 0.1);
    }

    #[test]
    fn single_class_data_stays_finite() {
        let ds = CatDataset::new(meta(1, 2), vec![0, 1], vec![true, true]).unwrap();
        let nb = NaiveBayes::fit(&ds).unwrap();
        assert!(nb.predict_row(&[0]));
        assert!(nb.posterior_pos(&[1]).is_finite());
    }

    #[test]
    fn independence_assumption_multiplies_evidence() {
        // Two weakly predictive features should combine to a stronger
        // posterior than either alone.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        // P(f=y) = 0.75 per feature, independent.
        let pattern = [
            (0u32, 0u32, true),
            (0, 1, true),
            (1, 0, true),
            (0, 0, true),
            (1, 1, false),
            (1, 0, false),
            (0, 1, false),
            (1, 1, false),
        ];
        for &(a, b, y) in &pattern {
            rows.push(a);
            rows.push(b);
            labels.push(y);
        }
        let ds = CatDataset::new(meta(2, 2), rows, labels).unwrap();
        let nb = NaiveBayes::fit(&ds).unwrap();
        let both = nb.posterior_pos(&[0, 0]);
        let one = nb.posterior_pos(&[0, 1]);
        assert!(both > one);
    }
}
