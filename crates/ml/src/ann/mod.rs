//! Multi-layer perceptron with Adam, matching the paper's ANN (§3.2):
//! two hidden ReLU layers (256 and 64 units), sigmoid output, binary
//! cross-entropy loss, L2 weight decay, Adam optimizer — tuning the L2
//! coefficient over {1e-4, 1e-3, 1e-2} and the learning rate over
//! {1e-3, 1e-2, 1e-1}.
//!
//! Categorical rows are consumed as *sparse one-hot* vectors: exactly one
//! active index per feature, so the first layer's forward/backward pass
//! gathers/scatters `d` columns instead of multiplying a huge dense vector.
//! Layer 1 is held column-major (`d_in × h1`) everywhere in memory, so each
//! active column is one contiguous `h1`-wide add in training and prediction
//! alike. Only the artifact keeps the row-major `h1 × d_in` layout: the
//! codec transposes on the way to and from disk.

pub mod adam;

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use crate::binenc::PodVec;
use crate::dataset::CatDataset;
use crate::error::{MlError, Result};
use crate::kernels;
use crate::model::Classifier;
use adam::Adam;

/// ANN hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnParams {
    /// First hidden layer width (paper: 256).
    pub hidden1: usize,
    /// Second hidden layer width (paper: 64).
    pub hidden2: usize,
    /// L2 regularization coefficient.
    pub l2: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Seed for init + shuffling.
    pub seed: u64,
}

impl AnnParams {
    /// Paper-shaped defaults.
    pub fn new(l2: f64, lr: f64) -> Self {
        Self {
            hidden1: 256,
            hidden2: 64,
            l2,
            lr,
            epochs: 15,
            batch_size: 64,
            seed: 0xA11,
        }
    }

    /// Smaller architecture for simulations/tests.
    pub fn small(l2: f64, lr: f64) -> Self {
        Self {
            hidden1: 32,
            hidden2: 16,
            l2,
            lr,
            epochs: 40,
            batch_size: 32,
            seed: 0xA11,
        }
    }

    /// The paper's 3×3 grid: L2 ∈ {1e-4,1e-3,1e-2} × lr ∈ {1e-3,1e-2,1e-1}.
    pub fn paper_grid() -> Vec<AnnParams> {
        let mut grid = Vec::with_capacity(9);
        for &l2 in &[1e-4, 1e-3, 1e-2] {
            for &lr in &[1e-3, 1e-2, 1e-1] {
                grid.push(AnnParams::new(l2, lr));
            }
        }
        grid
    }
}

/// A trained MLP.
///
/// Weight arrays live behind [`PodVec`] so a format-v3 artifact loaded via
/// mmap serves predictions straight out of the mapped file; training always
/// produces (and mutates) owned storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    pub(crate) offsets: PodVec<u32>,
    pub(crate) d_in: usize,
    pub(crate) h1: usize,
    pub(crate) h2: usize,
    // w1 is column-major (d_in × h1: input k's weights into every unit are
    // contiguous); w2 (h2 × h1) and w3 (1 × h2) are row-major.
    pub(crate) w1: PodVec<f32>,
    pub(crate) b1: PodVec<f32>,
    pub(crate) w2: PodVec<f32>,
    pub(crate) b2: PodVec<f32>,
    pub(crate) w3: PodVec<f32>,
    pub(crate) b3: f32,
}

impl Mlp {
    /// Trains the network with minibatch Adam.
    #[allow(clippy::needless_range_loop)] // unit index u spans z/a/d/grad buffers
    pub fn fit(ds: &CatDataset, params: AnnParams) -> Result<Self> {
        let n = ds.n_rows();
        if n == 0 {
            return Err(MlError::Shape {
                detail: "cannot fit an MLP on an empty dataset".into(),
            });
        }
        let offsets = ds.onehot_offsets();
        let d_in = ds.onehot_dim();
        let (h1, h2) = (params.hidden1, params.hidden2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);

        // He-style init scaled by fan-in.
        let mut init = |fan_in: usize, len: usize| -> Vec<f32> {
            let scale = (2.0 / fan_in as f64).sqrt();
            (0..len)
                .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
                .map(|v| v as f32)
                .collect()
        };
        let mut net = Mlp {
            offsets: offsets.into(),
            d_in,
            h1,
            h2,
            // Drawn unit-major (the RNG order every model was trained with),
            // then laid out column-major.
            w1: transpose(&init(ds.n_features().max(1), h1 * d_in), h1, d_in).into(),
            b1: vec![0.0; h1].into(),
            w2: init(h1, h2 * h1).into(),
            b2: vec![0.0; h2].into(),
            w3: init(h2, h2).into(),
            b3: 0.0,
        };

        net.sgd_epochs(ds, &params, &mut rng);
        Ok(net)
    }

    /// Warm-start refresh: continue minibatch Adam from this network's
    /// weights on fresh data — the online-learning path, where a buffer of
    /// production-labeled rows refines the artifact without retraining from
    /// scratch. Optimizer moments restart (they are not persisted), which
    /// in practice just means a short re-warmup of the step sizes.
    pub fn fit_incremental(&self, ds: &CatDataset, params: AnnParams) -> Result<Self> {
        if ds.n_rows() == 0 {
            return Err(MlError::Shape {
                detail: "cannot refresh an MLP on an empty dataset".into(),
            });
        }
        if ds.onehot_dim() != self.d_in || ds.onehot_offsets().as_slice() != self.offsets.as_slice()
        {
            return Err(MlError::Shape {
                detail: format!(
                    "refresh data has one-hot dim {} but the network was trained with {}",
                    ds.onehot_dim(),
                    self.d_in
                ),
            });
        }
        // Clone is cheap relative to training; a mapped (mmap-backed) source
        // converts to owned storage on first mutation via `PodVec`.
        let mut net = self.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
        net.sgd_epochs(ds, &params, &mut rng);
        Ok(net)
    }

    /// The minibatch-Adam epoch loop shared by [`Mlp::fit`] (fresh He-init
    /// weights) and [`Mlp::fit_incremental`] (warm-started weights).
    ///
    /// Every element's arithmetic is the plain sequential loop's: the
    /// column-major layer 1 only changes the memory layout, the dispatched
    /// elementwise kernels round like scalar code, and adding a zero delta
    /// to a gradient (where a dead unit used to be skipped) leaves it
    /// unchanged because accumulators start at `+0.0` and never become
    /// `-0.0`.
    fn sgd_epochs(&mut self, ds: &CatDataset, params: &AnnParams, rng: &mut rand::rngs::StdRng) {
        let net = self;
        let n = ds.n_rows();
        let (h1, h2) = (net.h1, net.h2);
        let mut opt_w1 = Adam::new(net.w1.len(), params.lr);
        let mut opt_b1 = Adam::new(h1, params.lr);
        let mut opt_w2 = Adam::new(net.w2.len(), params.lr);
        let mut opt_b2 = Adam::new(h2, params.lr);
        let mut opt_w3 = Adam::new(h2, params.lr);
        let mut opt_b3 = Adam::new(1, params.lr);

        // Gradient accumulators (batch); `g_w1` is column-major like `w1`.
        // Each optimizer step re-zeroes the gradient it consumes.
        let mut g_w1 = vec![0.0f32; net.w1.len()];
        let mut g_b1 = vec![0.0f32; h1];
        let mut g_w2 = vec![0.0f32; net.w2.len()];
        let mut g_b2 = vec![0.0f32; h2];
        let mut g_w3 = vec![0.0f32; h2];
        let mut g_b3 = [0.0f32; 1];

        // Per-sample work buffers.
        let mut active = vec![0usize; ds.n_features()];
        let mut z1 = vec![0.0f32; h1];
        let mut a1 = vec![0.0f32; h1];
        let mut z2 = vec![0.0f32; h2];
        let mut a2 = vec![0.0f32; h2];
        let mut d1 = vec![0.0f32; h1];
        let mut d2 = vec![0.0f32; h2];

        let mut order: Vec<usize> = (0..n).collect();
        for _epoch in 0..params.epochs {
            order.shuffle(rng);
            for batch in order.chunks(params.batch_size) {
                for &i in batch {
                    net.active_indices(ds.row(i), &mut active);
                    let z3 = net.forward(&active, &mut z1, &mut a1, &mut z2, &mut a2);
                    let y = f32::from(u8::from(ds.label(i)));
                    let p = sigmoid(z3);
                    let delta3 = p - y; // dBCE/dz3

                    // Layer 3 gradients.
                    kernels::axpy_f32(delta3, &a2, &mut g_w3);
                    g_b3[0] += delta3;

                    // Backprop into layer 2.
                    for ((d, &z), &w) in d2.iter_mut().zip(&z2).zip(net.w3.iter()) {
                        *d = if z > 0.0 { delta3 * w } else { 0.0 };
                    }
                    for (u, &du) in d2.iter().enumerate() {
                        if du != 0.0 {
                            kernels::axpy_f32(du, &a1, &mut g_w2[u * h1..(u + 1) * h1]);
                            g_b2[u] += du;
                        }
                    }

                    // Backprop into layer 1: d1 = W2ᵀ d2 ⊙ relu'(z1).
                    d1.fill(0.0);
                    for (u, &du) in d2.iter().enumerate() {
                        if du != 0.0 {
                            kernels::axpy_f32(du, &net.w2[u * h1..(u + 1) * h1], &mut d1);
                        }
                    }
                    for (dv, &z) in d1.iter_mut().zip(&z1) {
                        if z <= 0.0 {
                            *dv = 0.0;
                        }
                    }

                    // Scatter into the active W1 columns (rows of `g_w1`).
                    for &idx in &active {
                        kernels::add_f32(&d1, &mut g_w1[idx * h1..(idx + 1) * h1]);
                    }
                    kernels::add_f32(&d1, &mut g_b1);
                }

                let inv = 1.0 / batch.len() as f32;
                let l2 = Some(params.l2 as f32);
                opt_w1.step_fused(&mut net.w1, &mut g_w1, inv, l2);
                opt_b1.step_fused(&mut net.b1, &mut g_b1, inv, None);
                opt_w2.step_fused(&mut net.w2, &mut g_w2, inv, l2);
                opt_b2.step_fused(&mut net.b2, &mut g_b2, inv, None);
                opt_w3.step_fused(&mut net.w3, &mut g_w3, inv, l2);
                let mut b3 = [net.b3];
                opt_b3.step_fused(&mut b3, &mut g_b3, inv, None);
                net.b3 = b3[0];
            }
        }
    }

    #[inline]
    fn active_indices(&self, row: &[u32], out: &mut [usize]) {
        for (j, (&code, o)) in row.iter().zip(out.iter_mut()).enumerate() {
            *o = self.offsets[j] as usize + code as usize;
        }
    }

    /// Forward pass, filling the work buffers; returns the output logit.
    ///
    /// Layer 1 adds one contiguous `w1` column per active one-hot index
    /// onto the bias, in feature order, so every unit sums the same values
    /// in the same order as a per-unit gather would; the dense
    /// hidden→hidden and hidden→output products run on the dispatched
    /// [`kernels`], so a 256×64 paper-shaped network rides AVX2 when the
    /// host has it. Under `HAMLET_FORCE_SCALAR` the kernel reference path
    /// reproduces the historical accumulation order bit-for-bit.
    ///
    /// Always inlined: left to the compiler, the dense layers stayed an
    /// out-of-line call and the serving benchmark's `mlp_batch` p50 rose by
    /// about a sixth (2-vCPU Xeon, AVX2).
    #[inline(always)]
    fn forward(
        &self,
        active: &[usize],
        z1: &mut [f32],
        a1: &mut [f32],
        z2: &mut [f32],
        a2: &mut [f32],
    ) -> f32 {
        let (w1, h1) = (self.w1.as_slice(), self.h1);
        z1.copy_from_slice(&self.b1);
        for &idx in active {
            kernels::add_f32(&w1[idx * h1..(idx + 1) * h1], z1);
        }
        kernels::relu_f32(z1, a1);
        for (u, z_out) in z2.iter_mut().enumerate().take(self.h2) {
            let row = &self.w2[u * h1..(u + 1) * h1];
            *z_out = kernels::dot_f32(self.b2[u], row, a1);
        }
        kernels::relu_f32(z2, a2);
        kernels::dot_f32(self.b3, &self.w3, a2)
    }

    /// Reusable per-thread forward-pass buffers: one allocation for an
    /// entire batch instead of five per row.
    pub fn scratch(&self) -> MlpScratch {
        MlpScratch {
            active: Vec::new(),
            z1: vec![0.0f32; self.h1],
            a1: vec![0.0f32; self.h1],
            z2: vec![0.0f32; self.h2],
            a2: vec![0.0f32; self.h2],
        }
    }

    /// Output logit for one categorical row, reusing caller buffers. The
    /// scratch must come from [`Mlp::scratch`] on a same-shaped network.
    pub fn logit_scratch(&self, row: &[u32], s: &mut MlpScratch) -> f32 {
        s.active.resize(row.len(), 0);
        self.active_indices(row, &mut s.active);
        self.forward(&s.active, &mut s.z1, &mut s.a1, &mut s.z2, &mut s.a2)
    }

    /// Output logit for one categorical row.
    pub fn logit(&self, row: &[u32]) -> f32 {
        let mut s = self.scratch();
        self.logit_scratch(row, &mut s)
    }

    /// Predicted probability of the positive class.
    pub fn probability(&self, row: &[u32]) -> f64 {
        f64::from(sigmoid(self.logit(row)))
    }
}

/// Work buffers for [`Mlp::logit_scratch`]; create via [`Mlp::scratch`].
#[derive(Debug, Clone)]
pub struct MlpScratch {
    active: Vec<usize>,
    z1: Vec<f32>,
    a1: Vec<f32>,
    z2: Vec<f32>,
    a2: Vec<f32>,
}

/// Transposes a row-major `rows × cols` matrix.
pub(crate) fn transpose(m: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(m.len(), rows * cols);
    let mut t = vec![0.0f32; m.len()];
    for (r, row) in m.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            t[c * rows + r] = v;
        }
    }
    t
}

#[inline]
fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

impl Classifier for Mlp {
    fn predict_row(&self, row: &[u32]) -> bool {
        self.logit(row) >= 0.0
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

    fn xor(n_copies: usize) -> CatDataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for a in 0..2u32 {
            for b in 0..2u32 {
                for _ in 0..n_copies {
                    rows.extend_from_slice(&[a, b]);
                    labels.push((a ^ b) == 1);
                }
            }
        }
        CatDataset::new(meta(2, 2), rows, labels).unwrap()
    }

    #[test]
    fn learns_xor() {
        let ds = xor(8);
        let m = Mlp::fit(&ds, AnnParams::small(1e-4, 0.01)).unwrap();
        assert!(
            (m.accuracy(&ds) - 1.0).abs() < 1e-12,
            "accuracy {}",
            m.accuracy(&ds)
        );
    }

    #[test]
    fn learns_linear_signal() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..200 {
            let y = rng.gen_bool(0.5);
            rows.push(u32::from(y));
            rows.push(rng.gen_range(0..3));
            labels.push(y);
        }
        let ds = CatDataset::new(meta(2, 3), rows, labels).unwrap();
        let m = Mlp::fit(&ds, AnnParams::small(1e-4, 0.01)).unwrap();
        assert!(m.accuracy(&ds) > 0.98);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let ds = xor(4);
        let m = Mlp::fit(&ds, AnnParams::small(1e-3, 0.01)).unwrap();
        for i in 0..ds.n_rows() {
            let p = m.probability(ds.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn seeded_training_is_reproducible() {
        let ds = xor(4);
        let p = AnnParams::small(1e-4, 0.01);
        let a = Mlp::fit(&ds, p).unwrap();
        let b = Mlp::fit(&ds, p).unwrap();
        for i in 0..ds.n_rows() {
            assert_eq!(a.logit(ds.row(i)), b.logit(ds.row(i)));
        }
    }

    #[test]
    fn incremental_refresh_preserves_learned_signal() {
        let ds = xor(8);
        let base = Mlp::fit(&ds, AnnParams::small(1e-4, 0.01)).unwrap();
        // A short refresh on the same distribution keeps XOR solved.
        let mut short = AnnParams::small(1e-4, 0.005);
        short.epochs = 3;
        let refreshed = base.fit_incremental(&ds, short).unwrap();
        assert!(
            (refreshed.accuracy(&ds) - 1.0).abs() < 1e-12,
            "accuracy {}",
            refreshed.accuracy(&ds)
        );
        // Warm start actually starts from the trained weights: 0 epochs is
        // an identity refresh.
        let mut zero = short;
        zero.epochs = 0;
        let same = base.fit_incremental(&ds, zero).unwrap();
        for i in 0..ds.n_rows() {
            assert_eq!(same.logit(ds.row(i)), base.logit(ds.row(i)));
        }
        // Shape-incompatible refresh data is rejected.
        let narrow = CatDataset::new(meta(1, 2), vec![0, 1], vec![true, false]).unwrap();
        assert!(base.fit_incremental(&narrow, short).is_err());
    }

    #[test]
    fn strong_l2_shrinks_weights() {
        let ds = xor(8);
        let weak = Mlp::fit(&ds, AnnParams::small(1e-5, 0.01)).unwrap();
        let strong = Mlp::fit(&ds, AnnParams::small(1.0, 0.01)).unwrap();
        let norm = |m: &Mlp| -> f32 { m.w1.iter().map(|w| w * w).sum::<f32>().sqrt() };
        assert!(norm(&strong) < norm(&weak));
    }

    #[test]
    fn paper_grid_is_3x3() {
        assert_eq!(AnnParams::paper_grid().len(), 9);
    }

    #[test]
    fn training_reduces_cross_entropy() {
        // Optimisation sanity: more epochs ⇒ lower average BCE on the
        // training set (same seed, same architecture).
        let ds = xor(6);
        let bce = |m: &Mlp| -> f64 {
            (0..ds.n_rows())
                .map(|i| {
                    let p = m.probability(ds.row(i)).clamp(1e-9, 1.0 - 1e-9);
                    let y = f64::from(u8::from(ds.label(i)));
                    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
                })
                .sum::<f64>()
                / ds.n_rows() as f64
        };
        let mut short = AnnParams::small(1e-4, 0.01);
        short.epochs = 1;
        let mut long = short;
        long.epochs = 60;
        let loss_short = bce(&Mlp::fit(&ds, short).unwrap());
        let loss_long = bce(&Mlp::fit(&ds, long).unwrap());
        assert!(
            loss_long < loss_short,
            "60 epochs ({loss_long}) should beat 1 epoch ({loss_short})"
        );
        assert!(
            loss_long < 0.2,
            "converged loss should be small: {loss_long}"
        );
    }
}
