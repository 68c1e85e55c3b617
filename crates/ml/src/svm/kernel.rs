//! Kernels over one-hot-encoded categorical rows, computed via match counts.
//!
//! With all-categorical features one-hot encoded, both the dot product and
//! the Euclidean distance between two examples are functions of a single
//! integer: the number of features on which they agree. For rows `a`, `b`
//! with `d` features and `m = |{j : a_j = b_j}|`:
//!
//! - dot product  `⟨φ(a), φ(b)⟩ = m`
//! - squared distance `‖φ(a) − φ(b)‖² = 2(d − m)`
//!
//! so every kernel evaluation is an O(d) integer loop plus a lookup — no
//! explicit one-hot vectors are ever materialised. A kernel takes only the
//! `d + 1` values `m ∈ 0..=d`, so [`KernelKind::table`] evaluates them once
//! (one `exp` each for RBF) and training and prediction index that table.
//! This identity is also the engine of the paper's §5.1 analysis of *why*
//! RBF-SVMs tolerate NoJoin: matching on FK forces a match on the
//! (implicit) `X_R`.

use crate::dataset::CatDataset;

/// Kernel families used in the paper (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelKind {
    /// `k(x, z) = ⟨x, z⟩` — the linear SVM.
    Linear,
    /// `k(x, z) = (−γ ⟨x, z⟩)²` — the paper's quadratic polynomial kernel.
    Quadratic {
        /// Bandwidth-like scale γ.
        gamma: f64,
    },
    /// `k(x, z) = exp(−γ ‖x − z‖²)` — the Gaussian RBF kernel.
    Rbf {
        /// Bandwidth γ.
        gamma: f64,
    },
}

impl KernelKind {
    /// Kernel value from a match count `m` between rows with `d` features.
    #[inline]
    pub fn from_matches(&self, m: u32, d: usize) -> f64 {
        match *self {
            KernelKind::Linear => m as f64,
            KernelKind::Quadratic { gamma } => {
                let v = gamma * m as f64;
                v * v
            }
            KernelKind::Rbf { gamma } => {
                let sq_dist = 2.0 * (d as f64 - m as f64);
                (-gamma * sq_dist).exp()
            }
        }
    }

    /// Every kernel value between rows with `d` features: entry `m` is
    /// [`KernelKind::from_matches`]`(m, d)`, for `m ∈ 0..=d`.
    pub fn table(&self, d: usize) -> Vec<f64> {
        (0..=d as u32).map(|m| self.from_matches(m, d)).collect()
    }
}

/// Number of positions where two rows agree. Routed through the
/// runtime-dispatched SIMD kernels (exact in every backend — this is an
/// integer comparison count, so SVM decisions and the training match
/// matrix never depend on the instruction set).
#[inline]
pub fn match_count(a: &[u32], b: &[u32]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    crate::kernels::match_count_u32(a, b)
}

/// Precomputed pairwise match counts for a training set. Shared across a
/// whole (C, γ) grid: the expensive O(n²·d) pass happens once, and each
/// kernel value is then a [`KernelKind::table`] lookup by a `u16`.
#[derive(Debug, Clone)]
pub struct MatchMatrix {
    n: usize,
    d: usize,
    data: Vec<u16>,
}

impl MatchMatrix {
    /// Computes all pairwise match counts. Requires `d < 65536` (match
    /// counts are stored as `u16`).
    pub fn compute(ds: &CatDataset) -> Self {
        let n = ds.n_rows();
        let d = ds.n_features();
        assert!(
            d < u16::MAX as usize,
            "too many features for u16 match counts"
        );
        let mut data = vec![0u16; n * n];
        for i in 0..n {
            let ri = ds.row(i);
            data[i * n + i] = d as u16;
            for j in (i + 1)..n {
                let m = match_count(ri, ds.row(j)) as u16;
                data[i * n + j] = m;
                data[j * n + i] = m;
            }
        }
        Self { n, d, data }
    }

    /// Match count between training rows `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u32 {
        self.data[i * self.n + j] as u32
    }

    /// Match counts between training row `i` and every training row.
    #[inline]
    pub fn row(&self, i: usize) -> &[u16] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of features the counts were computed over.
    pub fn d(&self) -> usize {
        self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{CatDataset, FeatureMeta, Provenance};

    fn ds() -> CatDataset {
        let features = (0..3)
            .map(|j| FeatureMeta::new(format!("f{j}"), 4, Provenance::Home))
            .collect();
        CatDataset::new(
            features,
            vec![
                0, 1, 2, //
                0, 1, 3, //
                3, 3, 3,
            ],
            vec![true, false, true],
        )
        .unwrap()
    }

    #[test]
    fn match_count_basics() {
        assert_eq!(match_count(&[0, 1, 2], &[0, 1, 3]), 2);
        assert_eq!(match_count(&[0, 1, 2], &[0, 1, 2]), 3);
        assert_eq!(match_count(&[1, 1], &[0, 0]), 0);
    }

    #[test]
    fn kernel_formulas() {
        let d = 4;
        assert_eq!(KernelKind::Linear.from_matches(3, d), 3.0);
        let q = KernelKind::Quadratic { gamma: 0.5 }.from_matches(3, d);
        assert!((q - (0.5f64 * 3.0).powi(2)).abs() < 1e-12);
        let r = KernelKind::Rbf { gamma: 0.25 }.from_matches(3, d);
        assert!((r - (-0.25f64 * 2.0 * 1.0).exp()).abs() < 1e-12);
        // Full match ⇒ RBF = 1 regardless of gamma.
        let r1 = KernelKind::Rbf { gamma: 9.0 }.from_matches(4, d);
        assert!((r1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_holds_every_match_count() {
        for k in [
            KernelKind::Linear,
            KernelKind::Quadratic { gamma: 0.3 },
            KernelKind::Rbf { gamma: 0.7 },
        ] {
            let t = k.table(5);
            assert_eq!(t.len(), 6);
            for (m, v) in t.iter().enumerate() {
                assert_eq!(v.to_bits(), k.from_matches(m as u32, 5).to_bits());
            }
        }
    }

    #[test]
    fn rbf_decreases_with_mismatches() {
        let k = KernelKind::Rbf { gamma: 0.3 };
        let d = 10;
        let mut prev = f64::INFINITY;
        for m in (0..=10).rev() {
            let v = k.from_matches(m, d);
            assert!(v < prev + 1e-15);
            prev = v;
        }
    }

    #[test]
    fn match_matrix_symmetric_with_full_diagonal() {
        let ds = ds();
        let mm = MatchMatrix::compute(&ds);
        assert_eq!(mm.n(), 3);
        assert_eq!(mm.d(), 3);
        for i in 0..3 {
            assert_eq!(mm.get(i, i), 3);
            for j in 0..3 {
                assert_eq!(mm.get(i, j), mm.get(j, i));
            }
        }
        assert_eq!(mm.get(0, 1), 2);
        assert_eq!(mm.get(0, 2), 0);
        assert_eq!(mm.get(1, 2), 1);
        assert_eq!(mm.row(1), &[2, 3, 1]);
    }

    #[test]
    fn match_matrix_agrees_with_kernel_on_rows() {
        let ds = ds();
        let mm = MatchMatrix::compute(&ds);
        let k = KernelKind::Rbf { gamma: 0.7 };
        let table = k.table(mm.d());
        for i in 0..3 {
            for j in 0..3 {
                let direct = k.from_matches(match_count(ds.row(i), ds.row(j)), 3);
                assert_eq!(table[mm.get(i, j) as usize].to_bits(), direct.to_bits());
            }
        }
    }
}
