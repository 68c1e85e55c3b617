//! # hamlet-ml
//!
//! From-scratch implementations of every classifier in the VLDB 2017 study
//! "Are Key-Foreign Key Joins Safe to Avoid when Learning High-Capacity
//! Classifiers?" (Shah, Kumar, Zhu), §3:
//!
//! | paper model | this crate |
//! |---|---|
//! | CART decision tree (gini / information gain / gain ratio; `rpart`, `CORElearn`) | [`tree::DecisionTree`] |
//! | SVM: linear, quadratic, RBF kernels (`e1071`) | [`svm::SvmModel`] (SMO solver) |
//! | Multi-layer perceptron, 256+64 ReLU units, Adam, L2 (Keras/TensorFlow) | [`ann::Mlp`] |
//! | 1-nearest neighbour (`RWeka`) | [`knn::OneNearestNeighbor`] |
//! | Naive Bayes + backward selection | [`naive_bayes::NaiveBayes`] + [`feature_selection`] |
//! | Logistic regression with L1 (`glmnet`) | [`logreg::LogRegL1`] |
//!
//! All models consume [`dataset::CatDataset`] — row-major categorical codes
//! with star-schema provenance tags — and implement [`model::Classifier`].
//! Hyper-parameter grids from the paper's §3.2 ship with each model
//! (`paper_grid*` constructors) and plug into [`tuning::grid_search`].
//!
//! Nothing here knows about joins: the "avoid the join" machinery lives in
//! `hamlet-core`, which simply hands different feature subsets to these
//! models.

pub mod ann;
pub mod any;
pub mod binenc;
pub mod cascade;
pub mod contract;
pub mod dataset;
pub mod error;
pub mod feature_selection;
pub mod kernels;
pub mod knn;
pub mod logreg;
pub mod metrics;
pub mod model;
pub mod naive_bayes;
pub mod quant;
pub mod svm;
pub mod tree;
pub mod tuning;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::ann::{AnnParams, Mlp};
    pub use crate::any::{AnyClassifier, SubsetModel};
    pub use crate::binenc::{BinReader, BinWriter, MmapFile, PodVec};
    pub use crate::cascade::{Calibrator, CascadeModel, CascadeTier, TieredPrediction};
    pub use crate::contract::{BatchError, FeatureContract, RowIssue};
    pub use crate::dataset::{
        split_50_25_25, split_fractions, CatDataset, FeatureMeta, Provenance, TrainValTest,
    };
    pub use crate::error::{MlError, Result as MlResult};
    pub use crate::feature_selection::{backward_selection, forward_selection, SelectionOutcome};
    pub use crate::kernels::Backend;
    pub use crate::knn::OneNearestNeighbor;
    pub use crate::logreg::{LogRegL1, LogRegParams};
    pub use crate::metrics::{accuracy, error_rate, Confusion};
    pub use crate::model::{Classifier, MajorityClass};
    pub use crate::naive_bayes::NaiveBayes;
    pub use crate::quant::QuantModel;
    pub use crate::svm::{KernelKind, MatchMatrix, SvmModel, SvmParams};
    pub use crate::tree::{DecisionTree, SplitCriterion, TreeParams};
    pub use crate::tuning::{grid_search, GridSearchOutcome};
}
