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
//!
//! Training and batch prediction run rows in blocks of two (`BLOCK`).
//! The dense layers stream each `w2` row once per block: the forward pass
//! computes both rows' dots against it ([`kernels::dense_forward_f32`]),
//! and the backward pass adds both rows' terms to its gradient row and to
//! both rows' `d1` in one pass ([`kernels::dense_backward_f32`]). This is
//! exact: a minibatch's weights are fixed until its optimizer step, and
//! every gradient element still takes its terms in the per-row loop's
//! order — rows in batch order, hidden units in index order, each a
//! multiply then an add, a unit with a zero delta skipped — so the blocked
//! loop returns the per-row loop's bits in every kernel tier. A row's logit
//! likewise does not depend on the row beside it.
//!
//! Each minibatch ends in one fused [`Adam`] pass per tensor, with `f32`
//! moments and one divide and one square root per parameter (see
//! [`adam`]). That step gives the same bits in every tier, but not the
//! bits of the earlier `f64`-moment step: it was checked against the
//! reproduction ledger's Table 3 claims rather than against bits.

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

/// Rows per block: training and batch prediction run the dense layers for
/// this many rows against each `w2` row they load.
const BLOCK: usize = 2;

/// Minibatch gradient accumulators, shaped like the network's tensors
/// (`w1` column-major). Each optimizer step re-zeroes the gradient it
/// consumes.
struct Grads {
    w1: Vec<f32>,
    b1: Vec<f32>,
    w2: Vec<f32>,
    b2: Vec<f32>,
    w3: Vec<f32>,
    b3: [f32; 1],
}

impl Mlp {
    /// Trains the network with minibatch Adam.
    pub fn fit(ds: &CatDataset, params: AnnParams) -> Result<Self> {
        if ds.n_rows() == 0 {
            return Err(MlError::Shape {
                detail: "cannot fit an MLP on an empty dataset".into(),
            });
        }
        check_batch_size(&params)?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
        let mut net = Mlp::init(ds, &params, &mut rng);
        net.sgd_epochs(ds, &params, &mut rng);
        Ok(net)
    }

    /// He-initialized weights for `ds`, drawn from `rng`.
    fn init(ds: &CatDataset, params: &AnnParams, rng: &mut rand::rngs::StdRng) -> Self {
        let offsets = ds.onehot_offsets();
        let d_in = ds.onehot_dim();
        let (h1, h2) = (params.hidden1, params.hidden2);

        // He-style init scaled by fan-in.
        let mut init = |fan_in: usize, len: usize| -> Vec<f32> {
            let scale = (2.0 / fan_in as f64).sqrt();
            (0..len)
                .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
                .map(|v| v as f32)
                .collect()
        };
        Mlp {
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
        }
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
        check_batch_size(&params)?;
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
    /// A minibatch runs in blocks of [`BLOCK`] rows (see
    /// [`Mlp::backprop_block`]); the weights change only in the optimizer
    /// step after the whole minibatch.
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
        let mut g = Grads {
            w1: vec![0.0; net.w1.len()],
            b1: vec![0.0; h1],
            w2: vec![0.0; net.w2.len()],
            b2: vec![0.0; h2],
            w3: vec![0.0; h2],
            b3: [0.0],
        };

        // Per-block work buffers: slot r of each holds the block's row r.
        let mut s = net.scratch();
        s.active.resize(BLOCK * ds.n_features(), 0);
        let mut d1 = vec![0.0f32; BLOCK * h1];
        let mut d2 = vec![0.0f32; BLOCK * h2];

        let mut order: Vec<usize> = (0..n).collect();
        for _epoch in 0..params.epochs {
            order.shuffle(rng);
            for batch in order.chunks(params.batch_size) {
                for block in batch.chunks(BLOCK) {
                    net.backprop_block(ds, block, &mut s, &mut d1, &mut d2, &mut g);
                }

                let inv = 1.0 / batch.len() as f32;
                let l2 = Some(params.l2 as f32);
                opt_w1.step_fused(&mut net.w1, &mut g.w1, inv, l2);
                opt_b1.step_fused(&mut net.b1, &mut g.b1, inv, None);
                opt_w2.step_fused(&mut net.w2, &mut g.w2, inv, l2);
                opt_b2.step_fused(&mut net.b2, &mut g.b2, inv, None);
                opt_w3.step_fused(&mut net.w3, &mut g.w3, inv, l2);
                let mut b3 = [net.b3];
                opt_b3.step_fused(&mut b3, &mut g.b3, inv, None);
                net.b3 = b3[0];
            }
        }
    }

    /// Adds the gradients of the rows `block` (at most [`BLOCK`], in batch
    /// order) into `g`.
    ///
    /// A full block runs its dense layers together (see the module doc); a
    /// partial block runs row by row. Accumulators start at `+0.0` and
    /// never become `-0.0`, so adding the zeros of a masked `d1` or a dead
    /// `a2` unit leaves them as they are.
    fn backprop_block(
        &self,
        ds: &CatDataset,
        block: &[usize],
        s: &mut MlpScratch,
        d1: &mut [f32],
        d2: &mut [f32],
        g: &mut Grads,
    ) {
        let (h1, h2, d) = (self.h1, self.h2, ds.n_features());
        let rows = block.len();
        for (r, &i) in block.iter().enumerate() {
            self.active_indices(ds.row(i), &mut s.active[r * d..(r + 1) * d]);
        }
        let z3: [f32; BLOCK] = if rows == BLOCK {
            self.forward_rows(&s.active, &mut s.z1, &mut s.a1, &mut s.z2, &mut s.a2)
        } else {
            let mut z3 = [0.0; BLOCK];
            for (r, z3) in z3.iter_mut().enumerate().take(rows) {
                [*z3] = self.forward_rows(
                    &s.active[r * d..(r + 1) * d],
                    &mut s.z1[r * h1..(r + 1) * h1],
                    &mut s.a1[r * h1..(r + 1) * h1],
                    &mut s.z2[r * h2..(r + 1) * h2],
                    &mut s.a2[r * h2..(r + 1) * h2],
                );
            }
            z3
        };

        // Layer 3, and backprop into layer 2.
        for (r, &i) in block.iter().enumerate() {
            let y = f32::from(u8::from(ds.label(i)));
            let delta3 = sigmoid(z3[r]) - y; // dBCE/dz3
            kernels::axpy_f32(delta3, &s.a2[r * h2..(r + 1) * h2], &mut g.w3);
            g.b3[0] += delta3;
            let z2 = &s.z2[r * h2..(r + 1) * h2];
            for ((d, &z), &w) in d2[r * h2..(r + 1) * h2]
                .iter_mut()
                .zip(z2)
                .zip(self.w3.iter())
            {
                *d = if z > 0.0 { delta3 * w } else { 0.0 };
            }
        }

        // Layer 2 gradients, and d1 = W2ᵀ d2 for every row.
        d1[..rows * h1].fill(0.0);
        if rows == BLOCK {
            let (d2, a1) = (slots::<BLOCK>(d2, h2), slots(&s.a1, h1));
            kernels::dense_backward_f32(d2, a1, &self.w2, &mut g.w2, slots_mut(d1, h1));
        } else {
            for r in 0..rows {
                let (d2, a1) = ([&d2[r * h2..(r + 1) * h2]], [&s.a1[r * h1..(r + 1) * h1]]);
                let d1 = [&mut d1[r * h1..(r + 1) * h1]];
                kernels::dense_backward_f32(d2, a1, &self.w2, &mut g.w2, d1);
            }
        }
        for (u, g_b2) in g.b2.iter_mut().enumerate() {
            for r in 0..rows {
                let du = d2[r * h2 + u];
                if du != 0.0 {
                    *g_b2 += du;
                }
            }
        }

        // d1 ⊙ relu'(z1), branch-free (a NaN z1 keeps its delta, as the
        // branch did), then scatter into the active W1 columns (rows of
        // `g.w1`).
        for r in 0..rows {
            let d1 = &mut d1[r * h1..(r + 1) * h1];
            for (dv, &z) in d1.iter_mut().zip(&s.z1[r * h1..(r + 1) * h1]) {
                *dv = if z <= 0.0 { 0.0 } else { *dv };
            }
            for &idx in &s.active[r * d..(r + 1) * d] {
                kernels::add_f32(d1, &mut g.w1[idx * h1..(idx + 1) * h1]);
            }
            kernels::add_f32(d1, &mut g.b1);
        }
    }

    #[inline]
    fn active_indices(&self, row: &[u32], out: &mut [usize]) {
        for (j, (&code, o)) in row.iter().zip(out.iter_mut()).enumerate() {
            *o = self.offsets[j] as usize + code as usize;
        }
    }

    /// Forward pass of `R` rows, filling slot `r` of each work buffer
    /// (`active` holds `R` rows of indices; `z1`/`a1` and `z2`/`a2` slots
    /// are `h1` and `h2` wide); returns the output logits.
    ///
    /// Layer 1 adds one contiguous `w1` column per active one-hot index
    /// onto the bias, in feature order, so every unit sums the same values
    /// in the same order as a per-unit gather would. The dense
    /// hidden→hidden and hidden→output products run on
    /// [`kernels::dense_forward_f32`], which feeds each loaded weight row to
    /// all `R` rows and gives each row [`kernels::dot_f32`]'s bits, so a
    /// row's logit does not depend on `R` or on the rows beside it. Under
    /// `HAMLET_FORCE_SCALAR` the kernel reference path reproduces the
    /// historical accumulation order bit-for-bit.
    ///
    /// Always inlined: left to the compiler, the dense layers stayed an
    /// out-of-line call and the serving benchmark's `mlp_batch` p50 rose by
    /// about a sixth (2-vCPU Xeon, AVX2).
    #[inline(always)]
    fn forward_rows<const R: usize>(
        &self,
        active: &[usize],
        z1: &mut [f32],
        a1: &mut [f32],
        z2: &mut [f32],
        a2: &mut [f32],
    ) -> [f32; R] {
        let (w1, h1, h2) = (self.w1.as_slice(), self.h1, self.h2);
        let d = active.len() / R;
        for r in 0..R {
            let z = &mut z1[r * h1..(r + 1) * h1];
            z.copy_from_slice(&self.b1);
            for &idx in &active[r * d..(r + 1) * d] {
                kernels::add_f32(&w1[idx * h1..(idx + 1) * h1], z);
            }
            kernels::relu_f32(z, &mut a1[r * h1..(r + 1) * h1]);
        }
        kernels::dense_forward_f32(&self.w2, &self.b2, slots::<R>(a1, h1), slots_mut(z2, h2));
        for r in 0..R {
            kernels::relu_f32(&z2[r * h2..(r + 1) * h2], &mut a2[r * h2..(r + 1) * h2]);
        }
        let mut z3 = [0.0f32; R];
        let out = z3.each_mut().map(std::slice::from_mut);
        kernels::dense_forward_f32(&self.w3, &[self.b3], slots(a2, h2), out);
        z3
    }

    /// Reusable per-thread forward-pass buffers, with room for a block of
    /// rows: one allocation for an entire batch instead of five per row.
    pub fn scratch(&self) -> MlpScratch {
        MlpScratch {
            active: Vec::new(),
            z1: vec![0.0f32; BLOCK * self.h1],
            a1: vec![0.0f32; BLOCK * self.h1],
            z2: vec![0.0f32; BLOCK * self.h2],
            a2: vec![0.0f32; BLOCK * self.h2],
        }
    }

    /// Output logit for one categorical row, reusing caller buffers. The
    /// scratch must come from [`Mlp::scratch`] on a same-shaped network.
    pub fn logit_scratch(&self, row: &[u32], s: &mut MlpScratch) -> f32 {
        s.active.resize(row.len(), 0);
        self.active_indices(row, &mut s.active);
        let [z] = self.forward_rows(&s.active, &mut s.z1, &mut s.a1, &mut s.z2, &mut s.a2);
        z
    }

    /// Output logits of the row-major `rows` (`d > 0` codes each), passed
    /// to `emit` in row order, with one scratch for the whole batch. Rows
    /// run two at a time through the dense layers, a trailing odd row
    /// alone; every logit is bit-for-bit [`Mlp::logit`] of its row.
    pub fn logits(&self, rows: &[u32], d: usize, mut emit: impl FnMut(f32)) {
        let s = &mut self.scratch();
        let mut blocks = rows.chunks_exact(BLOCK * d);
        for block in &mut blocks {
            s.active.resize(block.len(), 0);
            for (row, active) in block.chunks_exact(d).zip(s.active.chunks_exact_mut(d)) {
                self.active_indices(row, active);
            }
            let z: [f32; BLOCK] =
                self.forward_rows(&s.active, &mut s.z1, &mut s.a1, &mut s.z2, &mut s.a2);
            z.into_iter().for_each(&mut emit);
        }
        for row in blocks.remainder().chunks_exact(d) {
            emit(self.logit_scratch(row, s));
        }
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

/// `AnnParams::batch_size` must be positive.
fn check_batch_size(params: &AnnParams) -> Result<()> {
    if params.batch_size == 0 {
        return Err(MlError::Invalid("ANN batch_size must be at least 1".into()));
    }
    Ok(())
}

/// The first `R` consecutive `len`-wide slots of `buf`.
#[inline(always)]
fn slots<const R: usize>(buf: &[f32], len: usize) -> [&[f32]; R] {
    std::array::from_fn(|r| &buf[r * len..(r + 1) * len])
}

/// The first `R` consecutive `len`-wide slots of `buf`, mutably.
fn slots_mut<const R: usize>(buf: &mut [f32], len: usize) -> [&mut [f32]; R] {
    let mut rest = buf;
    std::array::from_fn(|_| {
        let (slot, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        slot
    })
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

    /// The per-row forward pass as it stood before row blocks.
    fn reference_forward(
        net: &Mlp,
        active: &[usize],
        z1: &mut [f32],
        a1: &mut [f32],
        z2: &mut [f32],
        a2: &mut [f32],
    ) -> f32 {
        let (w1, h1) = (net.w1.as_slice(), net.h1);
        z1.copy_from_slice(&net.b1);
        for &idx in active {
            kernels::add_f32(&w1[idx * h1..(idx + 1) * h1], z1);
        }
        kernels::relu_f32(z1, a1);
        for (u, z_out) in z2.iter_mut().enumerate().take(net.h2) {
            let row = &net.w2[u * h1..(u + 1) * h1];
            *z_out = kernels::dot_f32(net.b2[u], row, a1);
        }
        kernels::relu_f32(z2, a2);
        kernels::dot_f32(net.b3, &net.w3, a2)
    }

    /// The minibatch loop as it stood before row blocks: one row's forward
    /// and backward pass at a time, through single-row kernels.
    fn reference_sgd_epochs(
        net: &mut Mlp,
        ds: &CatDataset,
        params: &AnnParams,
        rng: &mut rand::rngs::StdRng,
    ) {
        let n = ds.n_rows();
        let (h1, h2) = (net.h1, net.h2);
        let mut opt_w1 = Adam::new(net.w1.len(), params.lr);
        let mut opt_b1 = Adam::new(h1, params.lr);
        let mut opt_w2 = Adam::new(net.w2.len(), params.lr);
        let mut opt_b2 = Adam::new(h2, params.lr);
        let mut opt_w3 = Adam::new(h2, params.lr);
        let mut opt_b3 = Adam::new(1, params.lr);
        let mut g_w1 = vec![0.0f32; net.w1.len()];
        let mut g_b1 = vec![0.0f32; h1];
        let mut g_w2 = vec![0.0f32; net.w2.len()];
        let mut g_b2 = vec![0.0f32; h2];
        let mut g_w3 = vec![0.0f32; h2];
        let mut g_b3 = [0.0f32; 1];
        let mut active = vec![0usize; ds.n_features()];
        let (mut z1, mut a1, mut d1) = (vec![0.0f32; h1], vec![0.0f32; h1], vec![0.0f32; h1]);
        let (mut z2, mut a2, mut d2) = (vec![0.0f32; h2], vec![0.0f32; h2], vec![0.0f32; h2]);
        let mut order: Vec<usize> = (0..n).collect();
        for _epoch in 0..params.epochs {
            order.shuffle(rng);
            for batch in order.chunks(params.batch_size) {
                for &i in batch {
                    net.active_indices(ds.row(i), &mut active);
                    let z3 = reference_forward(net, &active, &mut z1, &mut a1, &mut z2, &mut a2);
                    let delta3 = sigmoid(z3) - f32::from(u8::from(ds.label(i)));
                    kernels::axpy_f32(delta3, &a2, &mut g_w3);
                    g_b3[0] += delta3;
                    for ((d, &z), &w) in d2.iter_mut().zip(&z2).zip(net.w3.iter()) {
                        *d = if z > 0.0 { delta3 * w } else { 0.0 };
                    }
                    for (u, &du) in d2.iter().enumerate() {
                        if du != 0.0 {
                            kernels::axpy_f32(du, &a1, &mut g_w2[u * h1..(u + 1) * h1]);
                            g_b2[u] += du;
                        }
                    }
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

    /// Every weight's bit pattern, tensor by tensor.
    fn weight_bits(m: &Mlp) -> Vec<u32> {
        let tensors = [&m.w1[..], &m.b1[..], &m.w2[..], &m.b2[..], &m.w3[..]];
        let mut bits: Vec<u32> = tensors
            .iter()
            .flat_map(|t| t.iter().map(|w| w.to_bits()))
            .collect();
        bits.push(m.b3.to_bits());
        bits
    }

    /// `n` random rows over three features (cardinalities 3, 2, 4, so rows
    /// repeat), then the first five rows again.
    fn small_random(n: usize, seed: u64) -> CatDataset {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cards = [3u32, 2, 4];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            for &k in &cards {
                rows.push(rng.gen_range(0..k));
            }
            labels.push(rng.gen_bool(0.5));
        }
        rows.extend_from_within(..5 * cards.len());
        labels.extend_from_within(..5);
        let meta = cards
            .iter()
            .enumerate()
            .map(|(j, &k)| FeatureMeta::new(format!("f{j}"), k, Provenance::Home))
            .collect();
        CatDataset::new(meta, rows, labels).unwrap()
    }

    #[test]
    fn blocked_training_matches_the_per_row_loop_bitwise() {
        let ds = small_random(18, 3); // 23 rows: odd tails for batches 4 and 7
        for h1 in [1, 7, 37, 256] {
            for h2 in [1, 5, 64] {
                for batch_size in [1, 4, 7, 64] {
                    let p = AnnParams {
                        hidden1: h1,
                        hidden2: h2,
                        epochs: 3,
                        batch_size,
                        ..AnnParams::new(1e-3, 0.05)
                    };
                    let shape = format!("h1={h1} h2={h2} batch={batch_size}");
                    let mut rng = rand::rngs::StdRng::seed_from_u64(p.seed);
                    let mut want = Mlp::init(&ds, &p, &mut rng);
                    reference_sgd_epochs(&mut want, &ds, &p, &mut rng);
                    let got = Mlp::fit(&ds, p).unwrap();
                    assert_eq!(weight_bits(&got), weight_bits(&want), "fit {shape}");

                    let refresh = AnnParams {
                        batch_size: 5,
                        seed: 9,
                        ..p
                    };
                    let mut want_refresh = want.clone();
                    let mut rng = rand::rngs::StdRng::seed_from_u64(refresh.seed);
                    reference_sgd_epochs(&mut want_refresh, &ds, &refresh, &mut rng);
                    let got_refresh = got.fit_incremental(&ds, refresh).unwrap();
                    assert_eq!(
                        weight_bits(&got_refresh),
                        weight_bits(&want_refresh),
                        "fit_incremental {shape}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_logits_match_single_row_logits_bitwise() {
        let ds = small_random(18, 4);
        let m = Mlp::fit(&ds, AnnParams::small(1e-3, 0.05)).unwrap();
        for n in [0, 1, 2, 3, 23] {
            let rows: Vec<u32> = (0..n).flat_map(|i| ds.row(i).to_vec()).collect();
            let mut got = Vec::new();
            m.logits(&rows, ds.n_features(), |z| got.push(z.to_bits()));
            let want: Vec<u32> = (0..n).map(|i| m.logit(ds.row(i)).to_bits()).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn zero_batch_size_is_invalid_for_fit() {
        let p = AnnParams {
            batch_size: 0,
            ..AnnParams::small(1e-3, 0.01)
        };
        assert!(matches!(Mlp::fit(&xor(2), p), Err(MlError::Invalid(_))));
    }

    #[test]
    fn zero_batch_size_is_invalid_for_fit_incremental() {
        let ds = xor(2);
        let base = Mlp::fit(&ds, AnnParams::small(1e-3, 0.01)).unwrap();
        let p = AnnParams {
            batch_size: 0,
            ..AnnParams::small(1e-3, 0.01)
        };
        assert!(matches!(
            base.fit_incremental(&ds, p),
            Err(MlError::Invalid(_))
        ));
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
