//! Kernel SVMs trained with Sequential Minimal Optimization (SMO).
//!
//! Covers the paper's three SVMs (§3.2): linear (tuning `C`), quadratic
//! polynomial and RBF (tuning `C` and `γ`). The dual problem is solved with
//! a Platt-style SMO: second-choice heuristic on a full error cache,
//! working over a precomputed match-count matrix so a whole hyper-parameter
//! grid reuses one O(n²·d) pass.

pub mod kernel;

use rand::Rng;
use rand::SeedableRng;

pub use kernel::{match_count, KernelKind, MatchMatrix};

use crate::binenc::PodVec;
use crate::dataset::CatDataset;
use crate::error::{MlError, Result};
use crate::model::Classifier;

/// SVM hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// Kernel family and bandwidth.
    pub kernel: KernelKind,
    /// Misclassification cost `C`.
    pub c: f64,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Number of consecutive full passes without updates before stopping.
    pub max_passes: usize,
    /// Hard cap on α-pair updates (guards pathological inputs).
    pub max_updates: usize,
    /// RNG seed for the second-choice fallback.
    pub seed: u64,
}

impl SvmParams {
    /// Sensible defaults for a kernel.
    pub fn new(kernel: KernelKind, c: f64) -> Self {
        Self {
            kernel,
            c,
            tol: 1e-3,
            max_passes: 3,
            max_updates: 200_000,
            seed: 0x5eed,
        }
    }

    /// The paper's RBF/quadratic grid: `C ∈ {0.1, 1, 10, 100, 1000}`,
    /// `γ ∈ {1e-4, 1e-3, 0.01, 0.1, 1, 10}`.
    pub fn paper_grid_rbf() -> Vec<SvmParams> {
        let mut grid = Vec::with_capacity(30);
        for &c in &[0.1, 1.0, 10.0, 100.0, 1000.0] {
            for &gamma in &[1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0] {
                grid.push(SvmParams::new(KernelKind::Rbf { gamma }, c));
            }
        }
        grid
    }

    /// The paper's quadratic-kernel grid (same axes as RBF).
    pub fn paper_grid_quadratic() -> Vec<SvmParams> {
        let mut grid = Vec::with_capacity(30);
        for &c in &[0.1, 1.0, 10.0, 100.0, 1000.0] {
            for &gamma in &[1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0] {
                grid.push(SvmParams::new(KernelKind::Quadratic { gamma }, c));
            }
        }
        grid
    }

    /// The paper's linear-SVM grid: `C ∈ {0.1, 1, 10, 100, 1000}`.
    pub fn paper_grid_linear() -> Vec<SvmParams> {
        [0.1, 1.0, 10.0, 100.0, 1000.0]
            .iter()
            .map(|&c| SvmParams::new(KernelKind::Linear, c))
            .collect()
    }
}

/// A trained SVM: support vectors with coefficients `αᵢ yᵢ` plus bias.
///
/// The support-vector matrix and coefficients live behind [`PodVec`] so a
/// format-v3 artifact loaded via mmap evaluates kernels straight out of the
/// mapped file.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmModel {
    pub(crate) kernel: KernelKind,
    pub(crate) n_features: usize,
    /// Support-vector rows, flattened `n_sv × d`.
    pub(crate) sv_rows: PodVec<u32>,
    /// `αᵢ yᵢ` per support vector.
    pub(crate) sv_coef: PodVec<f64>,
    pub(crate) bias: f64,
}

impl SvmModel {
    /// Fits with a freshly computed match matrix (convenience; grids should
    /// compute [`MatchMatrix`] once and call [`SvmModel::fit_precomputed`]).
    pub fn fit(ds: &CatDataset, params: SvmParams) -> Result<Self> {
        let mm = MatchMatrix::compute(ds);
        Self::fit_precomputed(ds, &mm, params)
    }

    /// Fits using a shared match-count matrix.
    pub fn fit_precomputed(ds: &CatDataset, mm: &MatchMatrix, params: SvmParams) -> Result<Self> {
        let n = ds.n_rows();
        if n == 0 {
            return Err(MlError::Shape {
                detail: "cannot fit an SVM on an empty dataset".into(),
            });
        }
        if mm.n() != n {
            return Err(MlError::Shape {
                detail: "match matrix size does not match dataset".into(),
            });
        }
        let d = ds.n_features();
        let y: Vec<f64> = ds
            .labels()
            .iter()
            .map(|&b| if b { 1.0 } else { -1.0 })
            .collect();

        // Degenerate single-class training data: constant classifier.
        let pos = ds.pos_count();
        if pos == 0 || pos == n {
            return Ok(Self {
                kernel: params.kernel,
                n_features: d,
                sv_rows: PodVec::new(),
                sv_coef: PodVec::new(),
                bias: if pos == n { 1.0 } else { -1.0 },
            });
        }

        let mut alpha = vec![0.0f64; n];
        let mut bias = 0.0f64;
        // Error cache: E[i] = f(x_i) − y_i; with all α = 0, f = 0.
        let mut err: Vec<f64> = y.iter().map(|&v| -v).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);

        let kern = |i: usize, j: usize| mm.kernel(params.kernel, i, j);
        let c = params.c;
        let tol = params.tol;
        let mut passes = 0usize;
        let mut updates = 0usize;

        while passes < params.max_passes && updates < params.max_updates {
            let mut changed = 0usize;
            for i in 0..n {
                let e_i = err[i];
                let r = e_i * y[i];
                if !((r < -tol && alpha[i] < c) || (r > tol && alpha[i] > 0.0)) {
                    continue;
                }
                // Second-choice heuristic: maximise |E_i − E_j|, falling back
                // to a random partner.
                let mut j = {
                    let mut best_j = usize::MAX;
                    let mut best_gap = -1.0;
                    for (cand, &e) in err.iter().enumerate() {
                        if cand == i {
                            continue;
                        }
                        let gap = (e_i - e).abs();
                        if gap > best_gap {
                            best_gap = gap;
                            best_j = cand;
                        }
                    }
                    best_j
                };
                if j == usize::MAX {
                    continue;
                }
                if (err[j] - e_i).abs() < 1e-12 {
                    // Degenerate gap: random partner keeps the solver moving.
                    j = rng.gen_range(0..n - 1);
                    if j >= i {
                        j += 1;
                    }
                }

                let (lo, hi) = if (y[i] - y[j]).abs() > f64::EPSILON {
                    (
                        (alpha[j] - alpha[i]).max(0.0),
                        (c + alpha[j] - alpha[i]).min(c),
                    )
                } else {
                    (
                        (alpha[i] + alpha[j] - c).max(0.0),
                        (alpha[i] + alpha[j]).min(c),
                    )
                };
                if hi - lo < 1e-12 {
                    continue;
                }
                let eta = 2.0 * kern(i, j) - kern(i, i) - kern(j, j);
                if eta >= -1e-12 {
                    continue; // non-positive curvature: skip (rare for PD kernels)
                }
                let e_j = err[j];
                let mut a_j = alpha[j] - y[j] * (e_i - e_j) / eta;
                a_j = a_j.clamp(lo, hi);
                let d_j = a_j - alpha[j];
                if d_j.abs() < 1e-7 {
                    continue;
                }
                let d_i = -y[i] * y[j] * d_j;
                let a_i = alpha[i] + d_i;

                // Bias update (Platt's b1/b2 rule).
                let b1 = bias - e_i - y[i] * d_i * kern(i, i) - y[j] * d_j * kern(i, j);
                let b2 = bias - e_j - y[i] * d_i * kern(i, j) - y[j] * d_j * kern(j, j);
                let new_b = if a_i > 0.0 && a_i < c {
                    b1
                } else if a_j > 0.0 && a_j < c {
                    b2
                } else {
                    0.5 * (b1 + b2)
                };
                let d_b = new_b - bias;

                alpha[i] = a_i;
                alpha[j] = a_j;
                bias = new_b;
                // Incremental error-cache maintenance: O(n).
                for (k, e) in err.iter_mut().enumerate() {
                    *e += y[i] * d_i * kern(i, k) + y[j] * d_j * kern(j, k) + d_b;
                }
                changed += 1;
                updates += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        // Extract support vectors.
        let mut sv_rows = Vec::new();
        let mut sv_coef = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-9 {
                sv_rows.extend_from_slice(ds.row(i));
                sv_coef.push(alpha[i] * y[i]);
            }
        }
        Ok(Self {
            kernel: params.kernel,
            n_features: d,
            sv_rows: sv_rows.into(),
            sv_coef: sv_coef.into(),
            bias,
        })
    }

    /// Decision value `f(x) = Σ αᵢ yᵢ k(xᵢ, x) + b`.
    pub fn decision(&self, row: &[u32]) -> f64 {
        let d = self.n_features;
        let mut f = self.bias;
        for (coef, sv) in self.sv_coef.iter().zip(self.sv_rows.chunks_exact(d)) {
            let m = match_count(sv, row);
            f += coef * self.kernel.from_matches(m, d);
        }
        f
    }

    /// Number of support vectors retained.
    pub fn n_support(&self) -> usize {
        self.sv_coef.len()
    }

    /// Dual coefficients `αᵢ yᵢ` per support vector (KKT checks need them:
    /// `|αᵢ yᵢ| ≤ C` and `Σ αᵢ yᵢ = 0`).
    pub fn sv_coefficients(&self) -> &[f64] {
        &self.sv_coef
    }

    /// Bias term `b`.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Kernel this model was trained with.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }
}

impl Classifier for SvmModel {
    fn predict_row(&self, row: &[u32]) -> bool {
        self.decision(row) >= 0.0
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

    fn separable() -> CatDataset {
        // Feature 0 determines the class; feature 1 is noise.
        let rows = vec![
            0, 0, //
            0, 1, //
            0, 2, //
            1, 0, //
            1, 1, //
            1, 2,
        ];
        let labels = vec![true, true, true, false, false, false];
        CatDataset::new(meta(2, 3), rows, labels).unwrap()
    }

    fn xor() -> CatDataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for a in 0..2u32 {
            for b in 0..2u32 {
                for _ in 0..3 {
                    rows.extend_from_slice(&[a, b]);
                    labels.push((a ^ b) == 1);
                }
            }
        }
        CatDataset::new(meta(2, 2), rows, labels).unwrap()
    }

    #[test]
    fn linear_svm_separates_separable_data() {
        let ds = separable();
        let m = SvmModel::fit(&ds, SvmParams::new(KernelKind::Linear, 10.0)).unwrap();
        assert!((m.accuracy(&ds) - 1.0).abs() < 1e-12);
        assert!(m.n_support() >= 2);
    }

    #[test]
    fn rbf_svm_solves_xor() {
        let ds = xor();
        let m = SvmModel::fit(&ds, SvmParams::new(KernelKind::Rbf { gamma: 1.0 }, 100.0)).unwrap();
        assert!((m.accuracy(&ds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quadratic_svm_solves_xor() {
        let ds = xor();
        let m = SvmModel::fit(
            &ds,
            SvmParams::new(KernelKind::Quadratic { gamma: 1.0 }, 100.0),
        )
        .unwrap();
        assert!((m.accuracy(&ds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_class_degenerates_to_constant() {
        let ds = CatDataset::new(meta(1, 2), vec![0, 1, 0], vec![true, true, true]).unwrap();
        let m = SvmModel::fit(&ds, SvmParams::new(KernelKind::Linear, 1.0)).unwrap();
        assert_eq!(m.n_support(), 0);
        assert!(m.predict_row(&[0]));
        assert!(m.predict_row(&[1]));
    }

    #[test]
    fn dual_feasibility_holds() {
        // Σ αᵢ yᵢ = 0 and 0 ≤ αᵢ ≤ C. We can recover Σ αᵢ yᵢ from sv_coef.
        let ds = separable();
        let c = 5.0;
        let m = SvmModel::fit(&ds, SvmParams::new(KernelKind::Rbf { gamma: 0.5 }, c)).unwrap();
        let sum: f64 = m.sv_coef.iter().sum();
        assert!(sum.abs() < 1e-6, "sum α·y = {sum}");
        for &coef in &m.sv_coef {
            assert!(coef.abs() <= c + 1e-9);
        }
    }

    #[test]
    fn precomputed_matches_fresh_fit() {
        let ds = separable();
        let params = SvmParams::new(KernelKind::Rbf { gamma: 0.3 }, 10.0);
        let mm = MatchMatrix::compute(&ds);
        let a = SvmModel::fit(&ds, params).unwrap();
        let b = SvmModel::fit_precomputed(&ds, &mm, params).unwrap();
        for i in 0..ds.n_rows() {
            assert!((a.decision(ds.row(i)) - b.decision(ds.row(i))).abs() < 1e-9);
        }
    }

    #[test]
    fn mismatched_matrix_rejected() {
        let ds = separable();
        let mm = MatchMatrix::compute(&ds.subset(&[0, 1]));
        let err = SvmModel::fit_precomputed(&ds, &mm, SvmParams::new(KernelKind::Linear, 1.0));
        assert!(err.is_err());
    }

    #[test]
    fn paper_grids_have_expected_sizes() {
        assert_eq!(SvmParams::paper_grid_rbf().len(), 30);
        assert_eq!(SvmParams::paper_grid_quadratic().len(), 30);
        assert_eq!(SvmParams::paper_grid_linear().len(), 5);
    }
}
