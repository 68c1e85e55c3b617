//! 1-nearest-neighbour over categorical rows.
//!
//! The paper's "braindead" baseline (§3): with one-hot encoding, Euclidean
//! distance reduces to Hamming distance over the categorical codes, so the
//! model is literally "find the most-matching training row". Its behaviour
//! under NoJoin (memorise FK, match on it) is the paper's §5.1 lens for
//! explaining the RBF-SVM.

use crate::binenc::PodVec;
use crate::dataset::CatDataset;
use crate::error::{MlError, Result};
use crate::model::Classifier;
use crate::svm::kernel::match_count;

/// A fitted (i.e. memorised) 1-NN classifier.
///
/// The memorised training matrix lives behind [`PodVec`] so a format-v3
/// artifact loaded via mmap scans neighbours straight out of the mapped
/// file.
#[derive(Debug, Clone, PartialEq)]
pub struct OneNearestNeighbor {
    pub(crate) d: usize,
    pub(crate) rows: PodVec<u32>,
    pub(crate) labels: Vec<bool>,
}

impl OneNearestNeighbor {
    /// "Fits" by storing the training set.
    pub fn fit(ds: &CatDataset) -> Result<Self> {
        if ds.n_rows() == 0 {
            return Err(MlError::Shape {
                detail: "cannot fit 1-NN on an empty dataset".into(),
            });
        }
        let d = ds.n_features();
        let mut rows = Vec::with_capacity(ds.n_rows() * d);
        for i in 0..ds.n_rows() {
            rows.extend_from_slice(ds.row(i));
        }
        Ok(Self {
            d,
            rows: rows.into(),
            labels: ds.labels().to_vec(),
        })
    }

    /// Index of the nearest training row (maximum match count; first wins on
    /// ties, matching the determinism the experiments need).
    pub fn nearest(&self, row: &[u32]) -> usize {
        let mut best = 0usize;
        let mut best_m = 0u32;
        let mut first = true;
        for (i, train) in self.rows.chunks_exact(self.d).enumerate() {
            let m = match_count(train, row);
            if first || m > best_m {
                best = i;
                best_m = m;
                first = false;
            }
        }
        best
    }

    /// Number of memorised examples.
    pub fn n_train(&self) -> usize {
        self.labels.len()
    }
}

impl Classifier for OneNearestNeighbor {
    fn predict_row(&self, row: &[u32]) -> bool {
        self.labels[self.nearest(row)]
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
    fn memorises_training_data() {
        let ds =
            CatDataset::new(meta(2, 3), vec![0, 0, 1, 1, 2, 2], vec![true, false, true]).unwrap();
        let knn = OneNearestNeighbor::fit(&ds).unwrap();
        assert!((knn.accuracy(&ds) - 1.0).abs() < 1e-12);
        assert_eq!(knn.n_train(), 3);
    }

    #[test]
    fn nearest_by_hamming() {
        let ds = CatDataset::new(
            meta(3, 4),
            vec![
                0, 1, 2, //
                3, 3, 3,
            ],
            vec![true, false],
        )
        .unwrap();
        let knn = OneNearestNeighbor::fit(&ds).unwrap();
        // Matches row 0 on two features.
        assert_eq!(knn.nearest(&[0, 1, 3]), 0);
        assert!(knn.predict_row(&[0, 1, 3]));
        // Matches row 1 on two features.
        assert_eq!(knn.nearest(&[3, 3, 0]), 1);
        assert!(!knn.predict_row(&[3, 3, 0]));
    }

    #[test]
    fn ties_break_to_first_row() {
        let ds = CatDataset::new(meta(1, 3), vec![0, 1], vec![true, false]).unwrap();
        let knn = OneNearestNeighbor::fit(&ds).unwrap();
        // Code 2 matches neither: 0 matches each → first row wins.
        assert_eq!(knn.nearest(&[2]), 0);
        assert!(knn.predict_row(&[2]));
    }

    #[test]
    fn empty_rejected() {
        let err = CatDataset::new(meta(1, 2), vec![], vec![]);
        assert!(err.is_err());
    }
}
