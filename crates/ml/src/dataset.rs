//! Learning-ready categorical datasets.
//!
//! A [`CatDataset`] is the bridge between the relational substrate and every
//! classifier: row-major `u32` codes, per-feature cardinalities, binary
//! labels, plus *provenance* metadata recording whether each feature is a
//! home feature, a foreign key, or a foreign feature. Provenance is what the
//! paper's feature configurations (JoinAll / NoJoin / NoFK) select on.

use std::sync::Arc;

use hamlet_relation::domain::CatDomain;
use hamlet_relation::schema::ColumnRole;
use hamlet_relation::table::Table;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::contract::FeatureContract;
use crate::error::{MlError, Result};

/// Where a feature came from in the star schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Provenance {
    /// A fact-table feature (`X_S`).
    Home,
    /// A foreign key `FK_i`.
    ForeignKey {
        /// Dimension index in the star schema.
        dim: usize,
    },
    /// A dimension feature (`X_Ri`) brought in by the join.
    Foreign {
        /// Dimension index in the star schema.
        dim: usize,
    },
}

/// Per-feature metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureMeta {
    /// Feature name (from the source column).
    pub name: String,
    /// Domain size; codes are `< cardinality`.
    pub cardinality: u32,
    /// Star-schema provenance.
    pub provenance: Provenance,
    /// The label↔code bijection behind the codes, when known. Datasets built
    /// from relational tables carry the column's dictionary (a cheap `Arc`
    /// clone); synthetic datasets have `None` and can only consume
    /// pre-encoded codes.
    pub domain: Option<Arc<CatDomain>>,
}

impl FeatureMeta {
    /// Metadata without a dictionary (codes-only feature).
    pub fn new(name: impl Into<String>, cardinality: u32, provenance: Provenance) -> Self {
        Self {
            name: name.into(),
            cardinality,
            provenance,
            domain: None,
        }
    }

    /// Metadata carrying the feature's dictionary; cardinality is taken from
    /// the domain so the two can never disagree.
    pub fn with_domain(
        name: impl Into<String>,
        provenance: Provenance,
        domain: Arc<CatDomain>,
    ) -> Self {
        Self {
            name: name.into(),
            cardinality: domain.cardinality(),
            provenance,
            domain: Some(domain),
        }
    }
}

/// A dense categorical dataset with binary labels.
#[derive(Debug, Clone)]
pub struct CatDataset {
    features: Vec<FeatureMeta>,
    /// Row-major codes, `n_rows × n_features`.
    rows: Vec<u32>,
    labels: Vec<bool>,
}

impl CatDataset {
    /// Builds a dataset, validating shapes and code ranges.
    pub fn new(features: Vec<FeatureMeta>, rows: Vec<u32>, labels: Vec<bool>) -> Result<Self> {
        let d = features.len();
        if d == 0 {
            return Err(MlError::Shape {
                detail: "datasets need at least one feature".into(),
            });
        }
        if labels.is_empty() || rows.len() != labels.len() * d {
            return Err(MlError::Shape {
                detail: format!(
                    "rows buffer has {} codes; expected {} rows × {} features",
                    rows.len(),
                    labels.len(),
                    d
                ),
            });
        }
        // Both fields are pub, so the with_domain invariant (cardinality
        // mirrors the dictionary) must be re-checked here — it is what
        // `contract()` relies on to be panic-free.
        for meta in &features {
            if let Some(domain) = &meta.domain {
                if domain.cardinality() != meta.cardinality {
                    return Err(MlError::Invalid(format!(
                        "feature `{}` declares cardinality {} but its domain `{}` has {}",
                        meta.name,
                        meta.cardinality,
                        domain.name(),
                        domain.cardinality()
                    )));
                }
            }
        }
        for (i, chunk) in rows.chunks_exact(d).enumerate() {
            for (j, (&code, meta)) in chunk.iter().zip(&features).enumerate() {
                if code >= meta.cardinality {
                    let _ = i;
                    return Err(MlError::BadCode {
                        feature: j,
                        code,
                        cardinality: meta.cardinality,
                    });
                }
            }
        }
        Ok(Self {
            features,
            rows,
            labels,
        })
    }

    /// Builds a dataset from a (possibly join-materialized) table: every
    /// feature-role column becomes a feature, the `Target` column the label.
    pub fn from_table(table: &Table) -> Result<Self> {
        let labels = table.target_as_bool()?;
        let idx = table.feature_indices();
        if idx.is_empty() {
            return Err(MlError::Shape {
                detail: "table has no feature columns".into(),
            });
        }
        let mut features = Vec::with_capacity(idx.len());
        for &i in &idx {
            let def = &table.schema().columns()[i];
            let provenance = match def.role {
                ColumnRole::HomeFeature => Provenance::Home,
                ColumnRole::ForeignKey { dim } => Provenance::ForeignKey { dim },
                ColumnRole::ForeignFeature { dim } => Provenance::Foreign { dim },
                _ => unreachable!("feature_indices() only returns feature roles"),
            };
            features.push(FeatureMeta::with_domain(
                def.name.clone(),
                provenance,
                Arc::clone(table.column_at(i).domain()),
            ));
        }
        let d = idx.len();
        let n = table.n_rows();
        let mut rows = vec![0u32; n * d];
        for (j, &col_idx) in idx.iter().enumerate() {
            let codes = table.column_at(col_idx).codes();
            for (r, &code) in codes.iter().enumerate() {
                rows[r * d + j] = code;
            }
        }
        Self::new(features, rows, labels)
    }

    /// Number of examples.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// One example's codes.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        let d = self.features.len();
        &self.rows[i * d..(i + 1) * d]
    }

    /// All labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Label of one example.
    #[inline]
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// Feature metadata.
    pub fn features(&self) -> &[FeatureMeta] {
        &self.features
    }

    /// Metadata of one feature.
    pub fn feature(&self, j: usize) -> &FeatureMeta {
        &self.features[j]
    }

    /// The dataset's input contract: per-feature name, provenance,
    /// cardinality and (when built from a relational table) the label↔code
    /// dictionary. This is what trained models persist and serve against.
    pub fn contract(&self) -> FeatureContract {
        FeatureContract::new(self.features.clone())
            .expect("dataset invariants guarantee a valid contract")
    }

    /// Per-feature cardinalities.
    pub fn cardinalities(&self) -> Vec<u32> {
        self.features.iter().map(|f| f.cardinality).collect()
    }

    /// One-hot layout: `offsets[j]` is the first one-hot index of feature `j`
    /// and the final entry is the total one-hot dimensionality.
    pub fn onehot_offsets(&self) -> Vec<u32> {
        let mut offsets = Vec::with_capacity(self.features.len() + 1);
        let mut acc = 0u32;
        for f in &self.features {
            offsets.push(acc);
            acc += f.cardinality;
        }
        offsets.push(acc);
        offsets
    }

    /// Total one-hot dimensionality (sum of cardinalities).
    pub fn onehot_dim(&self) -> usize {
        self.features.iter().map(|f| f.cardinality as usize).sum()
    }

    /// Number of positive labels.
    pub fn pos_count(&self) -> usize {
        self.labels.iter().filter(|&&b| b).count()
    }

    /// New dataset containing only rows `idx` (duplicates allowed).
    pub fn subset(&self, idx: &[usize]) -> CatDataset {
        let d = self.features.len();
        let mut rows = Vec::with_capacity(idx.len() * d);
        let mut labels = Vec::with_capacity(idx.len());
        for &i in idx {
            rows.extend_from_slice(self.row(i));
            labels.push(self.labels[i]);
        }
        CatDataset {
            features: self.features.clone(),
            rows,
            labels,
        }
    }

    /// New dataset keeping only features `keep` (in the given order).
    pub fn select_features(&self, keep: &[usize]) -> Result<CatDataset> {
        if keep.is_empty() {
            return Err(MlError::Shape {
                detail: "cannot select zero features".into(),
            });
        }
        for &j in keep {
            if j >= self.features.len() {
                return Err(MlError::Invalid(format!("feature index {j} out of range")));
            }
        }
        let d = self.features.len();
        let features = keep.iter().map(|&j| self.features[j].clone()).collect();
        let mut rows = Vec::with_capacity(self.n_rows() * keep.len());
        for i in 0..self.n_rows() {
            let base = i * d;
            for &j in keep {
                rows.push(self.rows[base + j]);
            }
        }
        Ok(CatDataset {
            features,
            rows,
            labels: self.labels.clone(),
        })
    }

    /// Dense copy of a single feature column.
    pub fn column(&self, j: usize) -> Vec<u32> {
        let d = self.features.len();
        (0..self.n_rows()).map(|i| self.rows[i * d + j]).collect()
    }

    /// Replaces one feature column (same length), updating its cardinality.
    /// Used by FK compression/smoothing, which rewrite the FK column.
    pub fn replace_column(
        &self,
        j: usize,
        codes: Vec<u32>,
        cardinality: u32,
    ) -> Result<CatDataset> {
        if codes.len() != self.n_rows() {
            return Err(MlError::Shape {
                detail: format!(
                    "replacement column has {} rows, dataset has {}",
                    codes.len(),
                    self.n_rows()
                ),
            });
        }
        if let Some(&bad) = codes.iter().find(|&&c| c >= cardinality) {
            return Err(MlError::BadCode {
                feature: j,
                code: bad,
                cardinality,
            });
        }
        let mut out = self.clone();
        out.features[j].cardinality = cardinality;
        // The rewritten codes no longer index the original dictionary
        // (compression/smoothing collapse labels), so the domain is dropped
        // rather than left dangling.
        out.features[j].domain = None;
        let d = self.features.len();
        for (i, code) in codes.into_iter().enumerate() {
            out.rows[i * d + j] = code;
        }
        Ok(out)
    }
}

/// A train/validation/test split (the paper's 50 % : 25 % : 25 %, §3.2).
#[derive(Debug, Clone)]
pub struct TrainValTest {
    /// Training split (model fitting).
    pub train: CatDataset,
    /// Validation split (hyper-parameter tuning / feature selection).
    pub val: CatDataset,
    /// Holdout test split (reported accuracy).
    pub test: CatDataset,
}

/// Splits a dataset 50/25/25 after a seeded shuffle.
pub fn split_50_25_25(ds: &CatDataset, seed: u64) -> TrainValTest {
    split_fractions(ds, 0.5, 0.25, seed)
}

/// Splits with arbitrary train/validation fractions (test takes the rest).
pub fn split_fractions(ds: &CatDataset, train: f64, val: f64, seed: u64) -> TrainValTest {
    assert!(train > 0.0 && val >= 0.0 && train + val < 1.0 + 1e-12);
    let n = ds.n_rows();
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let n_train = ((n as f64) * train).round() as usize;
    let n_val = ((n as f64) * val).round() as usize;
    let n_train = n_train.clamp(1, n.saturating_sub(2).max(1));
    let n_val = n_val.min(n - n_train);
    TrainValTest {
        train: ds.subset(&idx[..n_train]),
        val: ds.subset(&idx[n_train..n_train + n_val]),
        test: ds.subset(&idx[n_train + n_val..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn toy(n: usize, d: usize, k: u32, seed: u64) -> CatDataset {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let features = (0..d)
            .map(|j| FeatureMeta::new(format!("f{j}"), k, Provenance::Home))
            .collect();
        let rows: Vec<u32> = (0..n * d).map(|_| rng.gen_range(0..k)).collect();
        let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        CatDataset::new(features, rows, labels).unwrap()
    }

    #[test]
    fn construction_validates() {
        let features = vec![FeatureMeta::new("f", 2, Provenance::Home)];
        assert!(CatDataset::new(features.clone(), vec![0, 1], vec![true, false]).is_ok());
        assert!(CatDataset::new(features.clone(), vec![0, 2], vec![true, false]).is_err());
        assert!(CatDataset::new(features, vec![0], vec![true, false]).is_err());
    }

    #[test]
    fn construction_rejects_domain_cardinality_mismatch() {
        let mut meta = FeatureMeta::with_domain(
            "f",
            Provenance::Home,
            CatDomain::synthetic("f", 2).into_shared(),
        );
        meta.cardinality = 3; // breaks the with_domain invariant
        assert!(matches!(
            CatDataset::new(vec![meta], vec![0, 1], vec![true, false]),
            Err(MlError::Invalid(_))
        ));
    }

    #[test]
    fn row_and_column_access() {
        let ds = toy(10, 3, 4, 7);
        assert_eq!(ds.n_rows(), 10);
        assert_eq!(ds.n_features(), 3);
        let col1 = ds.column(1);
        #[allow(clippy::needless_range_loop)] // co-indexing rows and column copy
        for i in 0..10 {
            assert_eq!(ds.row(i)[1], col1[i]);
        }
    }

    #[test]
    fn onehot_layout() {
        let features = vec![
            FeatureMeta::new("a", 3, Provenance::Home),
            FeatureMeta::new("b", 5, Provenance::ForeignKey { dim: 0 }),
        ];
        let ds = CatDataset::new(features, vec![0, 4, 2, 0], vec![true, false]).unwrap();
        assert_eq!(ds.onehot_offsets(), vec![0, 3, 8]);
        assert_eq!(ds.onehot_dim(), 8);
    }

    #[test]
    fn subset_and_select() {
        let ds = toy(8, 4, 3, 1);
        let sub = ds.subset(&[1, 1, 5]);
        assert_eq!(sub.n_rows(), 3);
        assert_eq!(sub.row(0), ds.row(1));
        assert_eq!(sub.row(2), ds.row(5));

        let sel = ds.select_features(&[3, 0]).unwrap();
        assert_eq!(sel.n_features(), 2);
        assert_eq!(sel.row(2)[0], ds.row(2)[3]);
        assert_eq!(sel.row(2)[1], ds.row(2)[0]);
        assert!(ds.select_features(&[]).is_err());
        assert!(ds.select_features(&[9]).is_err());
    }

    #[test]
    fn replace_column_updates_cardinality() {
        let ds = toy(4, 2, 3, 2);
        let new = ds.replace_column(1, vec![0, 1, 1, 0], 2).unwrap();
        assert_eq!(new.feature(1).cardinality, 2);
        assert_eq!(new.column(1), vec![0, 1, 1, 0]);
        assert!(ds.replace_column(1, vec![0, 1], 2).is_err());
        assert!(ds.replace_column(1, vec![0, 5, 0, 0], 2).is_err());
    }

    #[test]
    fn split_is_disjoint_and_seeded() {
        let ds = toy(100, 2, 3, 3);
        let s1 = split_50_25_25(&ds, 42);
        let s2 = split_50_25_25(&ds, 42);
        assert_eq!(s1.train.n_rows(), 50);
        assert_eq!(s1.val.n_rows(), 25);
        assert_eq!(s1.test.n_rows(), 25);
        assert_eq!(s1.train.row(0), s2.train.row(0));
        let s3 = split_50_25_25(&ds, 43);
        // Overwhelmingly likely to differ somewhere.
        let same = (0..50).all(|i| s1.train.row(i) == s3.train.row(i));
        assert!(!same);
    }
}
