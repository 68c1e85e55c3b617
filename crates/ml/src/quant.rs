//! Quantized serving models: per-tensor symmetric i8 weight storage with
//! dequantize-on-the-fly inference.
//!
//! A [`QuantModel`] is produced offline from a trained full-precision
//! model (`hamlet-serve artifact convert --quantize i8`) and serves
//! predictions directly from the compact representation — i8 weights are
//! never widened back into an f32 tensor. The three high-capacity families
//! from the paper (MLP, SVM, logreg) are supported; trees and the other
//! structural models have no dense weight tensors worth shrinking.
//!
//! i8 is a size option, not a speed option: each weight takes one byte,
//! but the MLP's layer 1 is a strided gather over row-major `w1`, slower
//! than the column-major layer 1 the f32 MLP serves with.
//!
//! Determinism contract: every path accumulates in exact integer
//! arithmetic (`i8×i8→i32`) and applies scales in a fixed scalar order, so
//! **predictions of a quantized model are bit-identical across heap/mmap
//! loads and across kernel backends**, which the CI quantize smoke relies
//! on.

use crate::ann::Mlp;
use crate::binenc::quantize::{quantize_activations_i8, quantize_i8, quantize_i8_f64};
use crate::binenc::PodVec;
use crate::error::MlError;
use crate::kernels;
use crate::logreg::LogRegL1;
use crate::model::Classifier;
use crate::svm::{match_count, KernelKind, SvmModel};

/// The weight encoding every quantized model uses, as registries,
/// telemetry and the CLI spell it.
pub const ENCODING: &str = "i8";

/// A symmetric per-tensor i8 quantization: `value ≈ data[i] · scale`. The
/// scale is f32 for MLP weights ([`QTensor`]) and f64 for SVM dual
/// coefficients and logreg weights ([`QTensor64`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor<S = f32> {
    /// Quantized elements, one byte each.
    pub data: PodVec<i8>,
    /// Per-tensor dequantization factor.
    pub scale: S,
}

/// A quantized f64 tensor.
pub type QTensor64 = QTensor<f64>;

impl<S: Copy + Into<f64>> QTensor<S> {
    /// Element count (and byte size).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    fn info(&self, name: &'static str) -> (&'static str, usize, usize, f64) {
        (name, self.len(), self.len(), self.scale.into())
    }
}

impl QTensor {
    fn from_f32(values: &[f32]) -> Self {
        let q = quantize_i8(values);
        QTensor {
            data: q.data.into(),
            scale: q.scale,
        }
    }
}

impl QTensor64 {
    fn from_f64(values: &[f64]) -> Self {
        let (data, scale) = quantize_i8_f64(values);
        QTensor {
            data: data.into(),
            scale,
        }
    }

    /// Dequantized element `i`.
    #[inline]
    fn get(&self, i: usize) -> f64 {
        f64::from(self.data[i]) * self.scale
    }
}

/// Quantized MLP: same topology as [`Mlp`], weight tensors quantized,
/// biases kept in full precision (they are O(width), not O(width²)).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMlp {
    pub(crate) offsets: PodVec<u32>,
    pub(crate) d_in: usize,
    pub(crate) h1: usize,
    pub(crate) h2: usize,
    pub(crate) w1: QTensor,
    pub(crate) b1: PodVec<f32>,
    pub(crate) w2: QTensor,
    pub(crate) b2: PodVec<f32>,
    pub(crate) w3: QTensor,
    pub(crate) b3: f32,
}

/// Quantized kernel SVM: support-vector rows stay u32 codes; only the dual
/// coefficients are quantized.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSvm {
    pub(crate) kernel: KernelKind,
    pub(crate) n_features: usize,
    pub(crate) sv_rows: PodVec<u32>,
    pub(crate) sv_coef: QTensor64,
    pub(crate) bias: f64,
    /// `kernel.table(n_features)`, built by `from_parts`; `kernel` and
    /// `n_features` must not change after it.
    kernel_table: Vec<f64>,
}

impl QuantSvm {
    /// Assembles a quantized SVM; `n_features` is the row width of
    /// `sv_rows` and below `u16::MAX`.
    pub(crate) fn from_parts(
        kernel: KernelKind,
        n_features: usize,
        sv_rows: PodVec<u32>,
        sv_coef: QTensor64,
        bias: f64,
    ) -> Self {
        Self {
            kernel,
            n_features,
            sv_rows,
            sv_coef,
            bias,
            kernel_table: kernel.table(n_features),
        }
    }
}

/// Quantized L1 logistic regression.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLogReg {
    pub(crate) offsets: PodVec<u32>,
    pub(crate) weights: QTensor64,
    pub(crate) intercept: f64,
}

/// A quantized serving model, one variant per supported family.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantModel {
    /// Quantized multi-layer perceptron.
    Mlp(QuantMlp),
    /// Quantized kernel SVM.
    Svm(QuantSvm),
    /// Quantized logistic regression.
    LogReg(QuantLogReg),
}

/// Reusable buffers for [`QuantModel::predict_row_scratch`].
///
/// Shaped for one specific model by [`QuantModel::scratch`] — buffers are
/// sized to that model's topology, so a scratch must not be shared across
/// models.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    active: Vec<usize>,
    z: Vec<f32>,
    a: Vec<f32>,
    a2: Vec<f32>,
    qa: Vec<i8>,
}

impl QuantModel {
    /// Quantizes a trained MLP.
    pub fn from_mlp(m: &Mlp) -> Self {
        QuantModel::Mlp(QuantMlp {
            offsets: m.offsets.clone(),
            d_in: m.d_in,
            h1: m.h1,
            h2: m.h2,
            // QuantMlp's layer 1 reads row-major w1 (h1 × d_in).
            w1: QTensor::from_f32(&crate::ann::transpose(&m.w1, m.d_in, m.h1)),
            b1: m.b1.clone(),
            w2: QTensor::from_f32(&m.w2),
            b2: m.b2.clone(),
            w3: QTensor::from_f32(&m.w3),
            b3: m.b3,
        })
    }

    /// Quantizes a trained SVM.
    pub fn from_svm(m: &SvmModel) -> Self {
        QuantModel::Svm(QuantSvm::from_parts(
            m.kernel,
            m.n_features,
            m.sv_rows.clone(),
            QTensor64::from_f64(&m.sv_coef),
            m.bias,
        ))
    }

    /// Quantizes a trained logreg model.
    pub fn from_logreg(m: &LogRegL1) -> Self {
        QuantModel::LogReg(QuantLogReg {
            offsets: m.offsets.clone(),
            weights: QTensor64::from_f64(&m.weights),
            intercept: m.intercept,
        })
    }

    /// The base family this model quantizes (lowercase, matching
    /// `AnyClassifier::family`).
    pub fn family(&self) -> &'static str {
        match self {
            QuantModel::Mlp(_) => "mlp",
            QuantModel::Svm(_) => "svm",
            QuantModel::LogReg(_) => "logreg",
        }
    }

    /// Fresh work buffers for this model's shape.
    pub fn scratch(&self) -> QuantScratch {
        match self {
            QuantModel::Mlp(m) => QuantScratch {
                active: Vec::new(),
                z: vec![0.0f32; m.h1.max(m.h2)],
                a: vec![0.0f32; m.h1],
                a2: vec![0.0f32; m.h2],
                qa: Vec::with_capacity(m.h1),
            },
            _ => QuantScratch::default(),
        }
    }

    /// Decision value for one row (logit / SVM margin, as f64).
    pub fn decision_scratch(&self, row: &[u32], s: &mut QuantScratch) -> f64 {
        match self {
            QuantModel::Mlp(m) => f64::from(m.logit(row, s)),
            QuantModel::Svm(m) => m.decision(row),
            QuantModel::LogReg(m) => m.decision(row),
        }
    }

    /// `predict_row` with external scratch (the batched serving path).
    #[inline]
    pub fn predict_row_scratch(&self, row: &[u32], s: &mut QuantScratch) -> bool {
        self.decision_scratch(row, s) >= 0.0
    }

    /// Name/len/bytes/scale per weight tensor, for `artifact inspect` and
    /// the container's quantization section.
    pub fn tensor_info(&self) -> Vec<(&'static str, usize, usize, f64)> {
        match self {
            QuantModel::Mlp(m) => vec![m.w1.info("w1"), m.w2.info("w2"), m.w3.info("w3")],
            QuantModel::Svm(m) => vec![m.sv_coef.info("sv_coef")],
            QuantModel::LogReg(m) => vec![m.weights.info("weights")],
        }
    }

    /// Total bytes of the quantized weight tensors plus the full-precision
    /// biases and one-hot offsets kept alongside them — the resident
    /// numeric payload quantization shrinks.
    pub fn weight_bytes(&self) -> usize {
        match self {
            QuantModel::Mlp(m) => {
                m.w1.len()
                    + m.w2.len()
                    + m.w3.len()
                    + (m.offsets.len() + m.b1.len() + m.b2.len()) * 4
            }
            QuantModel::Svm(m) => m.sv_coef.len() + m.sv_rows.len() * 4,
            QuantModel::LogReg(m) => m.weights.len() + m.offsets.len() * 4,
        }
    }

    /// Whether any weight tensor borrows a mapped artifact (mmap load).
    pub fn is_mapped(&self) -> bool {
        match self {
            QuantModel::Mlp(m) => m.w1.is_mapped() || m.w2.is_mapped() || m.w3.is_mapped(),
            QuantModel::Svm(m) => m.sv_rows.is_mapped() || m.sv_coef.is_mapped(),
            QuantModel::LogReg(m) => m.offsets.is_mapped() || m.weights.is_mapped(),
        }
    }
}

impl Classifier for QuantModel {
    fn predict_row(&self, row: &[u32]) -> bool {
        let mut s = self.scratch();
        self.predict_row_scratch(row, &mut s)
    }
}

impl QuantMlp {
    /// Forward pass on the quantized weights.
    ///
    /// Layer 1 is an exact integer gather-sum over the row-major `w1`,
    /// rescaled once per unit; layers 2/3 dynamically quantize the ReLU
    /// activations per row and run the exact `i8×i8→i32` kernel, rescaling
    /// by the product of the weight and activation scales. Every float step
    /// is a fixed scalar sequence, so logits are backend- and
    /// load-mode-independent bit-for-bit.
    fn logit(&self, row: &[u32], s: &mut QuantScratch) -> f32 {
        let (d_in, h1, h2) = (self.d_in, self.h1, self.h2);
        s.active.resize(row.len(), 0);
        for (j, (&code, o)) in row.iter().zip(s.active.iter_mut()).enumerate() {
            *o = self.offsets[j] as usize + code as usize;
        }

        // Layer 1: sparse gather over quantized columns.
        let w1 = &self.w1.data;
        for u in 0..h1 {
            let base = u * d_in;
            let mut acc = 0i32;
            for &idx in &s.active {
                acc += i32::from(w1[base + idx]);
            }
            s.z[u] = self.b1[u] + acc as f32 * self.w1.scale;
        }
        kernels::relu_f32(&s.z[..h1], &mut s.a);

        // Layer 2: dense h2 × h1.
        let a_scale = quantize_activations_i8(&s.a, &mut s.qa);
        let rescale = self.w2.scale * a_scale;
        for u in 0..h2 {
            let row_q = &self.w2.data[u * h1..(u + 1) * h1];
            s.z[u] = self.b2[u] + rescale * kernels::dot_i8(row_q, &s.qa) as f32;
        }
        kernels::relu_f32(&s.z[..h2], &mut s.a2);

        // Layer 3: dense 1 × h2.
        let a_scale = quantize_activations_i8(&s.a2, &mut s.qa);
        self.b3 + self.w3.scale * a_scale * kernels::dot_i8(&self.w3.data, &s.qa) as f32
    }
}

impl QuantSvm {
    /// Decision value `Σ dequant(αᵢyᵢ) k(xᵢ, x) + b`. Match counts run on
    /// the exact SIMD kernel and index the model's kernel table; the
    /// coefficient dequant + accumulate is a fixed scalar sequence
    /// (backend-independent).
    fn decision(&self, row: &[u32]) -> f64 {
        let d = self.n_features;
        let mut f = self.bias;
        for (i, sv) in self.sv_rows.chunks_exact(d).enumerate() {
            f += self.sv_coef.get(i) * self.kernel_table[match_count(sv, row) as usize];
        }
        f
    }
}

impl QuantLogReg {
    /// Decision value. The i8 weights sum exactly in i32 before the single
    /// rescale, so the logit is backend-independent bit-for-bit.
    fn decision(&self, row: &[u32]) -> f64 {
        let mut acc = 0i32;
        for (j, &code) in row.iter().enumerate() {
            acc += i32::from(self.weights.data[(self.offsets[j] + code) as usize]);
        }
        self.intercept + f64::from(acc) * self.weights.scale
    }
}

/// Families that support quantization.
pub(crate) fn unsupported(family: &str) -> MlError {
    MlError::Invalid(format!(
        "family `{family}` has no dense weight tensors to quantize \
         (supported: mlp, svm, logreg)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ann::AnnParams;
    use crate::dataset::{CatDataset, FeatureMeta, Provenance};
    use crate::logreg::LogRegParams;
    use crate::svm::SvmParams;
    use rand::{Rng, SeedableRng};

    /// Emulator-style dataset: 6 features of cardinality 4, labels driven
    /// by a noisy majority signal over two features.
    fn emulator_ds(n: usize, seed: u64) -> CatDataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let meta: Vec<FeatureMeta> = (0..6)
            .map(|j| FeatureMeta::new(format!("f{j}"), 4, Provenance::Home))
            .collect();
        let mut rows = Vec::with_capacity(n * 6);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.gen_bool(0.5);
            for j in 0..6 {
                let code = if j < 2 && rng.gen_bool(0.85) {
                    if y {
                        3
                    } else {
                        0
                    }
                } else {
                    rng.gen_range(0..4)
                };
                rows.push(code);
            }
            labels.push(y);
        }
        CatDataset::new(meta, rows, labels).unwrap()
    }

    fn agreement(a: &[bool], b: &[bool]) -> f64 {
        assert_eq!(a.len(), b.len());
        let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
        same as f64 / a.len() as f64
    }

    #[test]
    fn quantized_mlp_agrees_with_full_precision() {
        let ds = emulator_ds(300, 11);
        let m = Mlp::fit(&ds, AnnParams::small(1e-4, 0.01)).unwrap();
        let q = QuantModel::from_mlp(&m);
        assert_eq!(q.family(), "mlp");
        let agree = agreement(&m.predict(&ds), &q.predict(&ds));
        assert!(agree >= 0.99, "agreement {agree}");
    }

    #[test]
    fn quantized_svm_agrees_with_full_precision() {
        let ds = emulator_ds(200, 12);
        let m = SvmModel::fit(&ds, SvmParams::new(KernelKind::Rbf { gamma: 0.5 }, 10.0)).unwrap();
        let q = QuantModel::from_svm(&m);
        assert_eq!(q.family(), "svm");
        let agree = agreement(&m.predict(&ds), &q.predict(&ds));
        assert!(agree >= 0.99, "agreement {agree}");
    }

    #[test]
    fn quantized_logreg_agrees_with_full_precision() {
        let ds = emulator_ds(300, 13);
        let m = LogRegL1::fit_single(&ds, 1e-4, LogRegParams::default()).unwrap();
        let q = QuantModel::from_logreg(&m);
        assert_eq!(q.family(), "logreg");
        let agree = agreement(&m.predict(&ds), &q.predict(&ds));
        assert!(agree >= 0.99, "agreement {agree}");
    }

    #[test]
    fn i8_predictions_are_scalar_simd_invariant() {
        // The dispatched backend may be AVX2 here while CI also runs the
        // whole suite under HAMLET_FORCE_SCALAR=1 — the assertion is the
        // same in both runs because i8 inference is exact-integer: compare
        // against a hand-rolled scalar evaluation.
        let ds = emulator_ds(100, 14);
        let m = Mlp::fit(&ds, AnnParams::small(1e-4, 0.01)).unwrap();
        let q = QuantModel::from_mlp(&m);
        let mut s = q.scratch();
        for i in 0..ds.n_rows() {
            let fast = q.decision_scratch(ds.row(i), &mut s);
            let slow = q.decision_scratch(ds.row(i), &mut q.scratch());
            assert_eq!(fast.to_bits(), slow.to_bits(), "row {i}");
        }
    }

    #[test]
    fn tensor_info_reports_scales_and_bytes() {
        let ds = emulator_ds(60, 15);
        let m = Mlp::fit(&ds, AnnParams::small(1e-3, 0.01)).unwrap();
        let qi = QuantModel::from_mlp(&m);
        let info = qi.tensor_info();
        assert_eq!(info.len(), 3);
        for (name, len, bytes, scale) in &info {
            assert!(!name.is_empty());
            assert_eq!(len, bytes, "i8 is one byte per element");
            assert!(*scale > 0.0);
        }
        assert!(!qi.is_mapped());
    }
}
