//! The ten classifiers of the study behind one uniform interface.
//!
//! [`ModelSpec`] enumerates every model of §3 with the paper's §3.2
//! hyper-parameter grids; [`ModelSpec::fit_tuned`] runs the full
//! tune-on-validation pipeline and returns a boxed [`Classifier`]. A
//! [`Budget`] throttles grid sizes and training-set sizes so the same code
//! drives quick CI runs, simulations and full-fidelity reproductions.

use hamlet_ml::ann::{AnnParams, Mlp};
use hamlet_ml::any::{AnyClassifier, SubsetModel};
use hamlet_ml::contract::FeatureContract;
use hamlet_ml::dataset::CatDataset;
use hamlet_ml::error::{MlError, Result};
use hamlet_ml::feature_selection::backward_selection;
use hamlet_ml::knn::OneNearestNeighbor;
use hamlet_ml::logreg::{LogRegL1, LogRegParams};
use hamlet_ml::model::Classifier;
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_ml::svm::{KernelKind, MatchMatrix, SvmModel, SvmParams};
use hamlet_ml::tree::{CategoricalSplit, DecisionTree, SplitCriterion, TreeParams};
use hamlet_ml::tuning::grid_search;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Model families by capacity, for the tuple-ratio advisor thresholds the
/// paper derives (§3.3): trees & ANN ≈ 3×, RBF-SVM ≈ 6×, linear ≈ 20×.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ModelFamily {
    /// Decision trees and the ANN (threshold ≈ 3×). 1-NN rides along here
    /// for classification purposes, though it is far less stable.
    TreeOrAnn,
    /// Kernel SVMs (threshold ≈ 6×).
    KernelSvm,
    /// Linear-capacity models (threshold ≈ 20×).
    Linear,
}

/// Every classifier evaluated in Tables 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ModelSpec {
    /// CART with gini (rpart default).
    TreeGini,
    /// CART with information gain.
    TreeInfoGain,
    /// CART with gain ratio (CORElearn).
    TreeGainRatio,
    /// 1-nearest neighbour (RWeka IBk, k=1).
    OneNN,
    /// Linear-kernel SVM.
    SvmLinear,
    /// Quadratic-kernel SVM.
    SvmQuadratic,
    /// RBF-kernel SVM.
    SvmRbf,
    /// Multi-layer perceptron (Keras/TensorFlow architecture).
    Ann,
    /// Naive Bayes with backward feature selection.
    NaiveBayesBfs,
    /// Logistic regression with L1 (glmnet).
    LogRegL1,
}

impl ModelSpec {
    /// All ten models in the tables' order (Table 2 block then Table 3).
    pub fn all() -> Vec<ModelSpec> {
        vec![
            Self::TreeGini,
            Self::TreeInfoGain,
            Self::TreeGainRatio,
            Self::OneNN,
            Self::SvmLinear,
            Self::SvmQuadratic,
            Self::SvmRbf,
            Self::Ann,
            Self::NaiveBayesBfs,
            Self::LogRegL1,
        ]
    }

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Self::TreeGini => "DT-Gini",
            Self::TreeInfoGain => "DT-InfoGain",
            Self::TreeGainRatio => "DT-GainRatio",
            Self::OneNN => "1-NN",
            Self::SvmLinear => "SVM-Linear",
            Self::SvmQuadratic => "SVM-Quadratic",
            Self::SvmRbf => "SVM-RBF",
            Self::Ann => "ANN",
            Self::NaiveBayesBfs => "NB-BFS",
            Self::LogRegL1 => "LogReg-L1",
        }
    }

    /// Capacity family (drives the advisor threshold).
    pub fn family(&self) -> ModelFamily {
        match self {
            Self::TreeGini | Self::TreeInfoGain | Self::TreeGainRatio | Self::Ann | Self::OneNN => {
                ModelFamily::TreeOrAnn
            }
            Self::SvmRbf | Self::SvmQuadratic => ModelFamily::KernelSvm,
            Self::SvmLinear | Self::NaiveBayesBfs | Self::LogRegL1 => ModelFamily::Linear,
        }
    }

    /// Whether the paper counts this model as high-capacity.
    pub fn is_high_capacity(&self) -> bool {
        !matches!(self, Self::SvmLinear | Self::NaiveBayesBfs | Self::LogRegL1)
    }
}

/// Resource throttles for tuning. `Budget::paper()` reproduces §3.2
/// faithfully; `Budget::quick()` shrinks grids and sample caps for tests
/// and simulations (same code path, smaller constants).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Budget {
    /// Use the full §3.2 grids when `true`.
    pub full_grids: bool,
    /// Subsample cap on training rows for kernel SVMs (the O(n²)-training
    /// models). `usize::MAX` disables.
    pub max_kernel_rows: usize,
    /// Subsample cap for 1-NN (training is free; prediction is O(n·d) per
    /// row, so it tolerates a much larger cap than the SVMs — and FK
    /// memorization *needs* domain coverage).
    pub max_knn_rows: usize,
    /// Subsample cap for the ANN.
    pub max_ann_rows: usize,
    /// ANN epochs.
    pub ann_epochs: usize,
    /// Use the small ANN architecture (32×16) instead of 256×64.
    pub small_ann: bool,
    /// Lambda-path length for logistic regression.
    pub logreg_nlambda: usize,
    /// Categorical partition style for trees. `SubsetPartition` (Breiman's
    /// optimal subset cuts — rpart's mechanics) is the default everywhere;
    /// `OneVsRest` emulates a tree over one-hot-encoded inputs and is kept
    /// as an ablation (see `REPRODUCTION.md`, "Table 4: split styles").
    pub tree_categorical: CategoricalSplit,
    /// Seed for subsampling.
    pub seed: u64,
}

impl Budget {
    /// Full paper fidelity (§3.2 grids; big ANN; 100-point lambda path).
    pub fn paper() -> Self {
        Self {
            full_grids: true,
            max_kernel_rows: 4000,
            max_knn_rows: 100_000,
            max_ann_rows: 20_000,
            ann_epochs: 15,
            small_ann: false,
            logreg_nlambda: 100,
            tree_categorical: CategoricalSplit::SubsetPartition,
            seed: 0xB4D6E7,
        }
    }

    /// Reduced grids for tests and Monte-Carlo simulations.
    pub fn quick() -> Self {
        Self {
            full_grids: false,
            max_kernel_rows: 1500,
            max_knn_rows: 20_000,
            max_ann_rows: 3000,
            ann_epochs: 25,
            small_ann: true,
            logreg_nlambda: 10,
            tree_categorical: CategoricalSplit::SubsetPartition,
            seed: 0xB4D6E7,
        }
    }

    fn subsample(&self, ds: &CatDataset, cap: usize) -> CatDataset {
        if ds.n_rows() <= cap {
            return ds.clone();
        }
        let mut idx: Vec<usize> = (0..ds.n_rows()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        idx.shuffle(&mut rng);
        idx.truncate(cap);
        ds.subset(&idx)
    }
}

/// A tuned classifier plus a description of the winning cell.
///
/// The model is a concrete [`AnyClassifier`] (not `Box<dyn Classifier>`), so
/// it can be persisted, registered and served — see `hamlet-serve` — while
/// still predicting through the [`Classifier`] trait everywhere else. The
/// [`FeatureContract`] of the training data rides along: it is the model's
/// input schema (names, provenance, label↔code dictionaries) and what the
/// serving layer embeds into persisted artifacts so clients can send raw
/// label strings.
pub struct TunedModel {
    /// The fitted model.
    pub model: AnyClassifier,
    /// Human-readable winning hyper-parameters.
    pub description: String,
    /// Validation accuracy of the winner.
    pub val_accuracy: f64,
    /// Input contract of the training dataset.
    pub contract: FeatureContract,
}

impl TunedModel {
    /// Wraps a fitted model with the training data's contract, verifying
    /// that the model can actually consume rows of that shape.
    fn contracted(
        model: AnyClassifier,
        description: String,
        val_accuracy: f64,
        train: &CatDataset,
    ) -> Result<TunedModel> {
        let contract = train.contract();
        model.check_contract(&contract)?;
        Ok(TunedModel {
            model,
            description,
            val_accuracy,
            contract,
        })
    }
}

impl ModelSpec {
    /// Fits this model with its paper grid (or the budget's reduced grid),
    /// tuning on `val`, and returns the winner.
    pub fn fit_tuned(
        &self,
        train: &CatDataset,
        val: &CatDataset,
        budget: &Budget,
    ) -> Result<TunedModel> {
        match self {
            Self::TreeGini => fit_tree(SplitCriterion::Gini, train, val, budget),
            Self::TreeInfoGain => fit_tree(SplitCriterion::InfoGain, train, val, budget),
            Self::TreeGainRatio => fit_tree(SplitCriterion::GainRatio, train, val, budget),
            Self::OneNN => {
                let sub = budget.subsample(train, budget.max_knn_rows);
                let model = OneNearestNeighbor::fit(&sub)?;
                let val_accuracy = model.accuracy(val);
                TunedModel::contracted(
                    model.into(),
                    "1-NN (no hyper-parameters)".into(),
                    val_accuracy,
                    train,
                )
            }
            Self::SvmLinear => fit_svm(
                if budget.full_grids {
                    SvmParams::paper_grid_linear()
                } else {
                    vec![
                        SvmParams::new(KernelKind::Linear, 1.0),
                        SvmParams::new(KernelKind::Linear, 100.0),
                    ]
                },
                train,
                val,
                budget,
            ),
            Self::SvmQuadratic => fit_svm(
                if budget.full_grids {
                    SvmParams::paper_grid_quadratic()
                } else {
                    quick_kernel_grid(|gamma| KernelKind::Quadratic { gamma })
                },
                train,
                val,
                budget,
            ),
            Self::SvmRbf => fit_svm(
                if budget.full_grids {
                    SvmParams::paper_grid_rbf()
                } else {
                    quick_kernel_grid(|gamma| KernelKind::Rbf { gamma })
                },
                train,
                val,
                budget,
            ),
            Self::Ann => {
                let sub = budget.subsample(train, budget.max_ann_rows);
                let grid: Vec<AnnParams> = if budget.full_grids {
                    AnnParams::paper_grid()
                } else {
                    vec![AnnParams::small(1e-4, 0.01), AnnParams::small(1e-3, 0.01)]
                }
                .into_iter()
                .map(|mut p| {
                    p.epochs = budget.ann_epochs;
                    if budget.small_ann {
                        p.hidden1 = p.hidden1.min(32);
                        p.hidden2 = p.hidden2.min(16);
                    }
                    p
                })
                .collect();
                let out = grid_search(&grid, &sub, val, |p, t| Mlp::fit(t, *p))?;
                TunedModel::contracted(
                    out.model.into(),
                    format!("ANN l2={} lr={}", out.params.l2, out.params.lr),
                    out.val_accuracy,
                    train,
                )
            }
            Self::NaiveBayesBfs => {
                let outcome = backward_selection(train, val, NaiveBayes::fit)?;
                let keep = outcome.selected.clone();
                let sub_train = train.select_features(&keep)?;
                let inner = NaiveBayes::fit(&sub_train)?;
                TunedModel::contracted(
                    SubsetModel {
                        keep,
                        inner: Box::new(inner.into()),
                    }
                    .into(),
                    format!(
                        "NB-BFS kept {} of {} features",
                        outcome.selected.len(),
                        train.n_features()
                    ),
                    outcome.val_accuracy,
                    train,
                )
            }
            Self::LogRegL1 => {
                let params = LogRegParams {
                    nlambda: budget.logreg_nlambda,
                    ..if budget.full_grids {
                        LogRegParams::paper()
                    } else {
                        LogRegParams::default()
                    }
                };
                let model = LogRegL1::fit_path(train, val, params)?;
                let val_accuracy = model.accuracy(val);
                TunedModel::contracted(
                    model.into(),
                    "LogReg-L1 (validation-selected lambda)".into(),
                    val_accuracy,
                    train,
                )
            }
        }
    }
}

fn quick_kernel_grid(make: impl Fn(f64) -> KernelKind) -> Vec<SvmParams> {
    let mut grid = Vec::with_capacity(6);
    for &c in &[1.0, 100.0] {
        for &gamma in &[0.01, 0.1, 1.0] {
            grid.push(SvmParams::new(make(gamma), c));
        }
    }
    grid
}

fn fit_tree(
    criterion: SplitCriterion,
    train: &CatDataset,
    val: &CatDataset,
    budget: &Budget,
) -> Result<TunedModel> {
    let cat = budget.tree_categorical;
    let grid: Vec<TreeParams> = if budget.full_grids {
        TreeParams::paper_grid_with(criterion, cat)
    } else {
        vec![
            TreeParams::new(criterion)
                .with_minsplit(1)
                .with_cp(1e-3)
                .with_categorical(cat),
            TreeParams::new(criterion)
                .with_minsplit(10)
                .with_cp(1e-3)
                .with_categorical(cat),
            TreeParams::new(criterion)
                .with_minsplit(10)
                .with_cp(0.01)
                .with_categorical(cat),
            TreeParams::new(criterion)
                .with_minsplit(100)
                .with_cp(1e-4)
                .with_categorical(cat),
        ]
    };
    let out = grid_search(&grid, train, val, |p, t| DecisionTree::fit(t, *p))?;
    TunedModel::contracted(
        out.model.into(),
        format!(
            "{criterion:?} minsplit={} cp={}",
            out.params.minsplit, out.params.cp
        ),
        out.val_accuracy,
        train,
    )
}

fn fit_svm(
    grid: Vec<SvmParams>,
    train: &CatDataset,
    val: &CatDataset,
    budget: &Budget,
) -> Result<TunedModel> {
    if grid.is_empty() {
        return Err(MlError::Invalid("empty SVM grid".into()));
    }
    let sub = budget.subsample(train, budget.max_kernel_rows);
    let mm = MatchMatrix::compute(&sub);
    let out = grid_search(&grid, &sub, val, |p, t| {
        SvmModel::fit_precomputed(t, &mm, *p)
    })?;
    TunedModel::contracted(
        out.model.into(),
        format!("{:?} C={}", out.params.kernel, out.params.c),
        out.val_accuracy,
        train,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature_config::{build_splits, FeatureConfig};
    use hamlet_datagen::prelude::*;

    fn quick_data() -> crate::feature_config::ExperimentData {
        let g = onexr::generate(OneXrParams {
            n_s: 400,
            ..Default::default()
        });
        build_splits(&g, &FeatureConfig::JoinAll).unwrap()
    }

    #[test]
    fn every_model_fits_and_beats_chance_on_onexr() {
        let data = quick_data();
        let budget = Budget::quick();
        for spec in ModelSpec::all() {
            let tuned = spec.fit_tuned(&data.train, &data.val, &budget).unwrap();
            let acc = tuned.model.accuracy(&data.test);
            // OneXr with p=0.1 has Bayes accuracy 0.9; all models should
            // clear 0.6 with JoinAll (Xr is directly visible).
            assert!(acc > 0.6, "{} scored {}", spec.name(), acc);
        }
    }

    #[test]
    fn model_list_covers_tables_2_and_3() {
        let all = ModelSpec::all();
        assert_eq!(all.len(), 10);
        assert_eq!(all.iter().filter(|m| m.is_high_capacity()).count(), 7);
    }

    #[test]
    fn families_match_paper_thresholds() {
        assert_eq!(ModelSpec::TreeGini.family(), ModelFamily::TreeOrAnn);
        assert_eq!(ModelSpec::Ann.family(), ModelFamily::TreeOrAnn);
        assert_eq!(ModelSpec::SvmRbf.family(), ModelFamily::KernelSvm);
        assert_eq!(ModelSpec::NaiveBayesBfs.family(), ModelFamily::Linear);
        assert_eq!(ModelSpec::SvmLinear.family(), ModelFamily::Linear);
    }

    #[test]
    fn budget_subsampling_caps_rows() {
        let data = quick_data();
        let mut budget = Budget::quick();
        budget.max_kernel_rows = 50;
        let sub = budget.subsample(&data.train, budget.max_kernel_rows);
        assert_eq!(sub.n_rows(), 50);
        let same = budget.subsample(&sub, 100);
        assert_eq!(same.n_rows(), 50);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ModelSpec::TreeGini.name(), "DT-Gini");
        assert_eq!(ModelSpec::SvmRbf.name(), "SVM-RBF");
        assert_eq!(ModelSpec::NaiveBayesBfs.name(), "NB-BFS");
    }
}
