//! Multi-layer perceptron with Adam, matching the paper's ANN (§3.2):
//! two hidden ReLU layers (256 and 64 units), sigmoid output, binary
//! cross-entropy loss, L2 weight decay, Adam optimizer — tuning the L2
//! coefficient over {1e-4, 1e-3, 1e-2} and the learning rate over
//! {1e-3, 1e-2, 1e-1}.
//!
//! Categorical rows are consumed as *sparse one-hot* vectors: exactly one
//! active index per feature, so the first layer's forward/backward pass
//! gathers/scatters `d` columns instead of multiplying a huge dense vector.

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
    // Row-major weights: w1 is h1 × d_in, w2 is h2 × h1, w3 is 1 × h2.
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
            w1: init(ds.n_features().max(1), h1 * d_in).into(),
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
    #[allow(clippy::needless_range_loop)] // unit index u spans z/a/d/grad buffers
    fn sgd_epochs(&mut self, ds: &CatDataset, params: &AnnParams, rng: &mut rand::rngs::StdRng) {
        let net = self;
        let n = ds.n_rows();
        let (h1, h2) = (net.h1, net.h2);
        let d_in = net.d_in;
        let mut opt_w1 = Adam::new(net.w1.len(), params.lr);
        let mut opt_b1 = Adam::new(h1, params.lr);
        let mut opt_w2 = Adam::new(net.w2.len(), params.lr);
        let mut opt_b2 = Adam::new(h2, params.lr);
        let mut opt_w3 = Adam::new(h2, params.lr);
        let mut opt_b3 = Adam::new(1, params.lr);

        // Gradient accumulators (batch).
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
                g_w1.iter_mut().for_each(|g| *g = 0.0);
                g_b1.iter_mut().for_each(|g| *g = 0.0);
                g_w2.iter_mut().for_each(|g| *g = 0.0);
                g_b2.iter_mut().for_each(|g| *g = 0.0);
                g_w3.iter_mut().for_each(|g| *g = 0.0);
                g_b3[0] = 0.0;

                for &i in batch {
                    net.active_indices(ds.row(i), &mut active);
                    let z3 = net.forward(&active, &mut z1, &mut a1, &mut z2, &mut a2);
                    let y = f32::from(u8::from(ds.label(i)));
                    let p = sigmoid(z3);
                    let delta3 = p - y; // dBCE/dz3

                    // Layer 3 gradients.
                    for u in 0..h2 {
                        g_w3[u] += delta3 * a2[u];
                    }
                    g_b3[0] += delta3;

                    // Backprop into layer 2.
                    for u in 0..h2 {
                        d2[u] = if z2[u] > 0.0 { delta3 * net.w3[u] } else { 0.0 };
                    }
                    for u in 0..h2 {
                        if d2[u] != 0.0 {
                            let row = &mut g_w2[u * h1..(u + 1) * h1];
                            for (gw, &a) in row.iter_mut().zip(a1.iter()) {
                                *gw += d2[u] * a;
                            }
                            g_b2[u] += d2[u];
                        }
                    }

                    // Backprop into layer 1: d1 = W2ᵀ d2 ⊙ relu'(z1).
                    d1.iter_mut().for_each(|v| *v = 0.0);
                    for u in 0..h2 {
                        if d2[u] != 0.0 {
                            let row = &net.w2[u * h1..(u + 1) * h1];
                            for (dv, &w) in d1.iter_mut().zip(row.iter()) {
                                *dv += d2[u] * w;
                            }
                        }
                    }
                    for (u, dv) in d1.iter_mut().enumerate() {
                        if z1[u] <= 0.0 {
                            *dv = 0.0;
                        }
                    }

                    // Sparse scatter into W1 gradients.
                    for (u, &dv) in d1.iter().enumerate() {
                        if dv != 0.0 {
                            let base = u * d_in;
                            for &idx in &active {
                                g_w1[base + idx] += dv;
                            }
                            g_b1[u] += dv;
                        }
                    }
                }

                let inv = 1.0 / batch.len() as f32;
                let l2 = params.l2 as f32;
                scale_and_decay(&mut g_w1, &net.w1, inv, l2);
                scale_only(&mut g_b1, inv);
                scale_and_decay(&mut g_w2, &net.w2, inv, l2);
                scale_only(&mut g_b2, inv);
                scale_and_decay(&mut g_w3, &net.w3, inv, l2);
                g_b3[0] *= inv;

                opt_w1.step(&mut net.w1, &g_w1);
                opt_b1.step(&mut net.b1, &g_b1);
                opt_w2.step(&mut net.w2, &g_w2);
                opt_b2.step(&mut net.b2, &g_b2);
                opt_w3.step(&mut net.w3, &g_w3);
                let mut b3 = [net.b3];
                opt_b3.step(&mut b3, &g_b3);
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
    /// The sparse one-hot gather into layer 1 stays scalar (`active` holds
    /// one index per categorical feature — a handful of adds); the dense
    /// hidden→hidden and hidden→output products run on the dispatched
    /// [`kernels`], so a 256×64 paper-shaped network rides AVX2 when the
    /// host has it. Under `HAMLET_FORCE_SCALAR` the kernel reference path
    /// reproduces the historical accumulation order bit-for-bit.
    fn forward(
        &self,
        active: &[usize],
        z1: &mut [f32],
        a1: &mut [f32],
        z2: &mut [f32],
        a2: &mut [f32],
    ) -> f32 {
        let d_in = self.d_in;
        for (u, z_out) in z1.iter_mut().enumerate().take(self.h1) {
            let row = &self.w1[u * d_in..(u + 1) * d_in];
            let mut z = self.b1[u];
            for &idx in active {
                z += row[idx];
            }
            *z_out = z;
        }
        kernels::relu_f32(z1, a1);
        for (u, z_out) in z2.iter_mut().enumerate().take(self.h2) {
            let row = &self.w2[u * self.h1..(u + 1) * self.h1];
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

fn scale_and_decay(grad: &mut [f32], weights: &[f32], inv: f32, l2: f32) {
    for (g, &w) in grad.iter_mut().zip(weights) {
        *g = *g * inv + l2 * w;
    }
}

fn scale_only(grad: &mut [f32], inv: f32) {
    for g in grad.iter_mut() {
        *g *= inv;
    }
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
