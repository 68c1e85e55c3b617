//! The classifier abstraction shared by every model in the crate.

use crate::dataset::CatDataset;

/// A trained binary classifier over categorical rows.
pub trait Classifier: Send + Sync {
    /// Predicts the label for one row of categorical codes.
    fn predict_row(&self, row: &[u32]) -> bool;

    /// Predicts labels for every row of a dataset.
    fn predict(&self, ds: &CatDataset) -> Vec<bool> {
        (0..ds.n_rows())
            .map(|i| self.predict_row(ds.row(i)))
            .collect()
    }

    /// Accuracy on a labelled dataset.
    fn accuracy(&self, ds: &CatDataset) -> f64 {
        crate::metrics::accuracy(&self.predict(ds), ds.labels())
    }
}

impl<C: Classifier + ?Sized> Classifier for Box<C> {
    fn predict_row(&self, row: &[u32]) -> bool {
        (**self).predict_row(row)
    }
}

/// A trivial majority-class classifier; the baseline every model must beat
/// and a convenient stub for tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MajorityClass {
    /// The constant prediction.
    pub positive: bool,
}

impl MajorityClass {
    /// Fits by counting labels.
    pub fn fit(ds: &CatDataset) -> Self {
        Self {
            positive: 2 * ds.pos_count() >= ds.n_rows(),
        }
    }
}

impl Classifier for MajorityClass {
    fn predict_row(&self, _row: &[u32]) -> bool {
        self.positive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{CatDataset, FeatureMeta, Provenance};

    fn ds(labels: Vec<bool>) -> CatDataset {
        let n = labels.len();
        CatDataset::new(
            vec![FeatureMeta::new("f", 1, Provenance::Home)],
            vec![0; n],
            labels,
        )
        .unwrap()
    }

    #[test]
    fn majority_class_fits_and_scores() {
        let d = ds(vec![true, true, false]);
        let m = MajorityClass::fit(&d);
        assert!(m.positive);
        assert!((m.accuracy(&d) - 2.0 / 3.0).abs() < 1e-12);
        let boxed: Box<dyn Classifier> = Box::new(m);
        assert!(boxed.predict_row(&[0]));
    }

    #[test]
    fn tie_breaks_positive() {
        let d = ds(vec![true, false]);
        assert!(MajorityClass::fit(&d).positive);
    }
}
