//! Quantized serving models: per-tensor i8/f16 weight storage with
//! dequantize-on-the-fly inference.
//!
//! A [`QuantModel`] is produced offline from a trained full-precision
//! model (`hamlet-serve artifact convert --quantize {i8,f16}`) and serves
//! predictions directly from the compact representation — i8 weights are
//! never widened back into an f32 tensor. The three high-capacity families
//! from the paper (MLP, SVM, logreg) are supported; trees and the other
//! structural models have no dense weight tensors worth shrinking.
//!
//! Determinism contract: the i8 paths accumulate in exact integer
//! arithmetic (`i8×i8→i32`) and apply scales in a fixed scalar order, and
//! the f16 dense products run through the dispatched kernels with the same
//! tolerance story as f32 — but **predictions of an i8 model are
//! bit-identical across heap/mmap loads and across kernel backends**,
//! which the CI quantize smoke relies on.

use crate::ann::Mlp;
use crate::binenc::quantize::{
    quantize_activations_i8, quantize_f16, quantize_f16_f64, quantize_i8, quantize_i8_f64,
};
use crate::binenc::{PodVec, F16};
use crate::error::MlError;
use crate::kernels;
use crate::logreg::LogRegL1;
use crate::model::Classifier;
use crate::svm::{match_count, KernelKind, SvmModel};

/// Storage encoding for quantized weight tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantEncoding {
    /// Symmetric per-tensor i8 with an f32/f64 scale.
    I8,
    /// IEEE 754 binary16.
    F16,
}

impl QuantEncoding {
    /// Lowercase tag for registries, telemetry and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            QuantEncoding::I8 => "i8",
            QuantEncoding::F16 => "f16",
        }
    }

    /// Parses the CLI spelling (`i8` / `f16`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "i8" => Some(QuantEncoding::I8),
            "f16" => Some(QuantEncoding::F16),
            _ => None,
        }
    }
}

/// A quantized f32 tensor (MLP weights).
#[derive(Debug, Clone, PartialEq)]
pub enum QTensor {
    /// Symmetric i8: `value ≈ data[i] as f32 * scale`.
    I8 {
        /// Quantized elements.
        data: PodVec<i8>,
        /// Per-tensor dequantization factor.
        scale: f32,
    },
    /// binary16 elements, widened on the fly.
    F16 {
        /// Half-precision elements.
        data: PodVec<F16>,
    },
}

impl QTensor {
    fn from_f32(values: &[f32], enc: QuantEncoding) -> Self {
        match enc {
            QuantEncoding::I8 => {
                let q = quantize_i8(values);
                QTensor::I8 {
                    data: q.data.into(),
                    scale: q.scale,
                }
            }
            QuantEncoding::F16 => QTensor::F16 {
                data: quantize_f16(values).into(),
            },
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            QTensor::I8 { data, .. } => data.len(),
            QTensor::F16 { data } => data.len(),
        }
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied by the element data.
    pub fn data_bytes(&self) -> usize {
        match self {
            QTensor::I8 { data, .. } => data.len(),
            QTensor::F16 { data } => data.len() * 2,
        }
    }

    /// The per-tensor scale (i8 only).
    pub fn scale(&self) -> Option<f64> {
        match self {
            QTensor::I8 { scale, .. } => Some(f64::from(*scale)),
            QTensor::F16 { .. } => None,
        }
    }

    fn is_mapped(&self) -> bool {
        match self {
            QTensor::I8 { data, .. } => data.is_mapped(),
            QTensor::F16 { data } => data.is_mapped(),
        }
    }
}

/// A quantized f64 tensor (SVM dual coefficients, logreg weights).
#[derive(Debug, Clone, PartialEq)]
pub enum QTensor64 {
    /// Symmetric i8: `value ≈ data[i] as f64 * scale`.
    I8 {
        /// Quantized elements.
        data: PodVec<i8>,
        /// Per-tensor dequantization factor.
        scale: f64,
    },
    /// binary16 elements, widened on the fly.
    F16 {
        /// Half-precision elements.
        data: PodVec<F16>,
    },
}

impl QTensor64 {
    fn from_f64(values: &[f64], enc: QuantEncoding) -> Self {
        match enc {
            QuantEncoding::I8 => {
                let (data, scale) = quantize_i8_f64(values);
                QTensor64::I8 {
                    data: data.into(),
                    scale,
                }
            }
            QuantEncoding::F16 => QTensor64::F16 {
                data: quantize_f16_f64(values).into(),
            },
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            QTensor64::I8 { data, .. } => data.len(),
            QTensor64::F16 { data } => data.len(),
        }
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied by the element data.
    pub fn data_bytes(&self) -> usize {
        match self {
            QTensor64::I8 { data, .. } => data.len(),
            QTensor64::F16 { data } => data.len() * 2,
        }
    }

    /// The per-tensor scale (i8 only).
    pub fn scale(&self) -> Option<f64> {
        match self {
            QTensor64::I8 { scale, .. } => Some(*scale),
            QTensor64::F16 { .. } => None,
        }
    }

    /// Dequantized element `i`.
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            QTensor64::I8 { data, scale } => f64::from(data[i]) * scale,
            QTensor64::F16 { data } => f64::from(data[i].to_f32()),
        }
    }

    fn is_mapped(&self) -> bool {
        match self {
            QTensor64::I8 { data, .. } => data.is_mapped(),
            QTensor64::F16 { data } => data.is_mapped(),
        }
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

/// The quantized payload families.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantPayload {
    /// Quantized multi-layer perceptron.
    Mlp(QuantMlp),
    /// Quantized kernel SVM.
    Svm(QuantSvm),
    /// Quantized logistic regression.
    LogReg(QuantLogReg),
}

/// A quantized serving model: encoding tag + family payload.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantModel {
    /// Storage encoding every tensor in the payload uses.
    pub encoding: QuantEncoding,
    /// The quantized model itself.
    pub payload: QuantPayload,
}

/// Reusable buffers for [`QuantModel::predict_row_scratch`].
///
/// Shaped for one specific model by [`QuantModel::scratch`] — buffers are
/// sized to that model's topology and, for f16 MLPs, cache its weight
/// tensors widened to f32, so a scratch must not be shared across models.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    active: Vec<usize>,
    z: Vec<f32>,
    a: Vec<f32>,
    a2: Vec<f32>,
    qa: Vec<i8>,
    // f16 MLP weight tensors widened to f32 on the first row, then reused
    // for the rest of the batch (empty for i8 and non-MLP payloads).
    w1f: Vec<f32>,
    w2f: Vec<f32>,
    w3f: Vec<f32>,
    dequantized: bool,
}

impl QuantModel {
    /// Quantizes a trained MLP.
    pub fn from_mlp(m: &Mlp, encoding: QuantEncoding) -> Self {
        QuantModel {
            encoding,
            payload: QuantPayload::Mlp(QuantMlp {
                offsets: m.offsets.clone(),
                d_in: m.d_in,
                h1: m.h1,
                h2: m.h2,
                // QuantMlp's layer 1 reads row-major w1 (h1 × d_in).
                w1: QTensor::from_f32(&crate::ann::transpose(&m.w1, m.d_in, m.h1), encoding),
                b1: m.b1.clone(),
                w2: QTensor::from_f32(&m.w2, encoding),
                b2: m.b2.clone(),
                w3: QTensor::from_f32(&m.w3, encoding),
                b3: m.b3,
            }),
        }
    }

    /// Quantizes a trained SVM.
    pub fn from_svm(m: &SvmModel, encoding: QuantEncoding) -> Self {
        QuantModel {
            encoding,
            payload: QuantPayload::Svm(QuantSvm::from_parts(
                m.kernel,
                m.n_features,
                m.sv_rows.clone(),
                QTensor64::from_f64(&m.sv_coef, encoding),
                m.bias,
            )),
        }
    }

    /// Quantizes a trained logreg model.
    pub fn from_logreg(m: &LogRegL1, encoding: QuantEncoding) -> Self {
        QuantModel {
            encoding,
            payload: QuantPayload::LogReg(QuantLogReg {
                offsets: m.offsets.clone(),
                weights: QTensor64::from_f64(&m.weights, encoding),
                intercept: m.intercept,
            }),
        }
    }

    /// The base family this payload quantizes (lowercase, matching
    /// `AnyClassifier::family`).
    pub fn family(&self) -> &'static str {
        match &self.payload {
            QuantPayload::Mlp(_) => "mlp",
            QuantPayload::Svm(_) => "svm",
            QuantPayload::LogReg(_) => "logreg",
        }
    }

    /// Fresh work buffers for this model's shape.
    pub fn scratch(&self) -> QuantScratch {
        match &self.payload {
            QuantPayload::Mlp(m) => QuantScratch {
                active: Vec::new(),
                z: vec![0.0f32; m.h1.max(m.h2)],
                a: vec![0.0f32; m.h1],
                a2: vec![0.0f32; m.h2],
                qa: Vec::with_capacity(m.h1),
                ..QuantScratch::default()
            },
            _ => QuantScratch::default(),
        }
    }

    /// Decision value for one row (logit / SVM margin, as f64).
    pub fn decision_scratch(&self, row: &[u32], s: &mut QuantScratch) -> f64 {
        match &self.payload {
            QuantPayload::Mlp(m) => f64::from(m.logit(row, s)),
            QuantPayload::Svm(m) => m.decision(row),
            QuantPayload::LogReg(m) => m.decision(row),
        }
    }

    /// `predict_row` with external scratch (the batched serving path).
    #[inline]
    pub fn predict_row_scratch(&self, row: &[u32], s: &mut QuantScratch) -> bool {
        self.decision_scratch(row, s) >= 0.0
    }

    /// Name/len/bytes/scale per weight tensor, for `artifact inspect` and
    /// the container's quantization section.
    pub fn tensor_info(&self) -> Vec<(&'static str, usize, usize, Option<f64>)> {
        match &self.payload {
            QuantPayload::Mlp(m) => vec![
                ("w1", m.w1.len(), m.w1.data_bytes(), m.w1.scale()),
                ("w2", m.w2.len(), m.w2.data_bytes(), m.w2.scale()),
                ("w3", m.w3.len(), m.w3.data_bytes(), m.w3.scale()),
            ],
            QuantPayload::Svm(m) => vec![(
                "sv_coef",
                m.sv_coef.len(),
                m.sv_coef.data_bytes(),
                m.sv_coef.scale(),
            )],
            QuantPayload::LogReg(m) => vec![(
                "weights",
                m.weights.len(),
                m.weights.data_bytes(),
                m.weights.scale(),
            )],
        }
    }

    /// Total bytes of the quantized weight tensors plus the full-precision
    /// biases and one-hot offsets kept alongside them — the resident
    /// numeric payload quantization shrinks.
    pub fn weight_bytes(&self) -> usize {
        match &self.payload {
            QuantPayload::Mlp(m) => {
                m.w1.data_bytes()
                    + m.w2.data_bytes()
                    + m.w3.data_bytes()
                    + (m.offsets.len() + m.b1.len() + m.b2.len()) * 4
            }
            QuantPayload::Svm(m) => m.sv_coef.data_bytes() + m.sv_rows.len() * 4,
            QuantPayload::LogReg(m) => m.weights.data_bytes() + m.offsets.len() * 4,
        }
    }

    /// Whether any weight tensor borrows a mapped artifact (mmap load).
    pub fn is_mapped(&self) -> bool {
        match &self.payload {
            QuantPayload::Mlp(m) => m.w1.is_mapped() || m.w2.is_mapped() || m.w3.is_mapped(),
            QuantPayload::Svm(m) => m.sv_rows.is_mapped() || m.sv_coef.is_mapped(),
            QuantPayload::LogReg(m) => m.offsets.is_mapped() || m.weights.is_mapped(),
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
    /// i8: layer 1 is an exact integer gather-sum rescaled once per unit;
    /// layers 2/3 dynamically quantize the ReLU activations per row and run
    /// the exact `i8×i8→i32` kernel, rescaling by the product of the weight
    /// and activation scales. Every float step is a fixed scalar sequence,
    /// so i8 logits are backend- and load-mode-independent bit-for-bit.
    ///
    /// f16: the weight tensors are widened to f32 **once per scratch** (the
    /// serving path reuses one scratch per batch) with the F16C-accelerated
    /// slice kernel, and the dense layers then run the plain f32 kernels.
    /// Widening is lossless, so under the forced-scalar tier this produces
    /// bit-identical logits to per-element dequantize-on-the-fly — while
    /// dropping the per-dot conversion cost from the hot path entirely.
    fn logit(&self, row: &[u32], s: &mut QuantScratch) -> f32 {
        let (d_in, h1, h2) = (self.d_in, self.h1, self.h2);
        if !s.dequantized {
            if let QTensor::F16 { data } = &self.w1 {
                s.w1f.resize(data.len(), 0.0);
                kernels::f16_to_f32_slice(data, &mut s.w1f);
            }
            if let QTensor::F16 { data } = &self.w2 {
                s.w2f.resize(data.len(), 0.0);
                kernels::f16_to_f32_slice(data, &mut s.w2f);
            }
            if let QTensor::F16 { data } = &self.w3 {
                s.w3f.resize(data.len(), 0.0);
                kernels::f16_to_f32_slice(data, &mut s.w3f);
            }
            s.dequantized = true;
        }
        s.active.resize(row.len(), 0);
        for (j, (&code, o)) in row.iter().zip(s.active.iter_mut()).enumerate() {
            *o = self.offsets[j] as usize + code as usize;
        }

        // Layer 1: sparse gather over quantized columns.
        match &self.w1 {
            QTensor::I8 { data, scale } => {
                for u in 0..h1 {
                    let base = u * d_in;
                    let mut acc = 0i32;
                    for &idx in &s.active {
                        acc += i32::from(data[base + idx]);
                    }
                    s.z[u] = self.b1[u] + acc as f32 * scale;
                }
            }
            QTensor::F16 { .. } => {
                for u in 0..h1 {
                    let base = u * d_in;
                    let mut z = self.b1[u];
                    for &idx in &s.active {
                        z += s.w1f[base + idx];
                    }
                    s.z[u] = z;
                }
            }
        }
        kernels::relu_f32(&s.z[..h1], &mut s.a);

        // Layer 2: dense h2 × h1.
        match &self.w2 {
            QTensor::I8 { data, scale } => {
                let a_scale = quantize_activations_i8(&s.a, &mut s.qa);
                let rescale = scale * a_scale;
                for u in 0..h2 {
                    let row_q = &data[u * h1..(u + 1) * h1];
                    s.z[u] = self.b2[u] + rescale * kernels::dot_i8(row_q, &s.qa) as f32;
                }
            }
            QTensor::F16 { .. } => {
                for u in 0..h2 {
                    s.z[u] = kernels::dot_f32(self.b2[u], &s.w2f[u * h1..(u + 1) * h1], &s.a);
                }
            }
        }
        kernels::relu_f32(&s.z[..h2], &mut s.a2);

        // Layer 3: dense 1 × h2.
        match &self.w3 {
            QTensor::I8 { data, scale } => {
                let a_scale = quantize_activations_i8(&s.a2, &mut s.qa);
                self.b3 + scale * a_scale * kernels::dot_i8(data, &s.qa) as f32
            }
            QTensor::F16 { .. } => kernels::dot_f32(self.b3, &s.w3f, &s.a2),
        }
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
    /// Decision value. i8 weights sum exactly in i32 before the single
    /// rescale, so the logit is backend-independent bit-for-bit.
    fn decision(&self, row: &[u32]) -> f64 {
        match &self.weights {
            QTensor64::I8 { data, scale } => {
                let mut acc = 0i32;
                for (j, &code) in row.iter().enumerate() {
                    acc += i32::from(data[(self.offsets[j] + code) as usize]);
                }
                self.intercept + f64::from(acc) * scale
            }
            QTensor64::F16 { data } => {
                let mut z = self.intercept;
                for (j, &code) in row.iter().enumerate() {
                    z += f64::from(data[(self.offsets[j] + code) as usize].to_f32());
                }
                z
            }
        }
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
        let full = m.predict(&ds);
        for enc in [QuantEncoding::I8, QuantEncoding::F16] {
            let q = QuantModel::from_mlp(&m, enc);
            assert_eq!(q.family(), "mlp");
            let quant = q.predict(&ds);
            let agree = agreement(&full, &quant);
            assert!(agree >= 0.99, "{} agreement {agree}", enc.name());
        }
    }

    #[test]
    fn quantized_svm_agrees_with_full_precision() {
        let ds = emulator_ds(200, 12);
        let m = SvmModel::fit(&ds, SvmParams::new(KernelKind::Rbf { gamma: 0.5 }, 10.0)).unwrap();
        let full = m.predict(&ds);
        for enc in [QuantEncoding::I8, QuantEncoding::F16] {
            let q = QuantModel::from_svm(&m, enc);
            assert_eq!(q.family(), "svm");
            let agree = agreement(&full, &q.predict(&ds));
            assert!(agree >= 0.99, "{} agreement {agree}", enc.name());
        }
    }

    #[test]
    fn quantized_logreg_agrees_with_full_precision() {
        let ds = emulator_ds(300, 13);
        let m = LogRegL1::fit_single(&ds, 1e-4, LogRegParams::default()).unwrap();
        let full = m.predict(&ds);
        for enc in [QuantEncoding::I8, QuantEncoding::F16] {
            let q = QuantModel::from_logreg(&m, enc);
            assert_eq!(q.family(), "logreg");
            let agree = agreement(&full, &q.predict(&ds));
            assert!(agree >= 0.99, "{} agreement {agree}", enc.name());
        }
    }

    #[test]
    fn i8_predictions_are_scalar_simd_invariant() {
        // The dispatched backend may be AVX2 here while CI also runs the
        // whole suite under HAMLET_FORCE_SCALAR=1 — the assertion is the
        // same in both runs because i8 inference is exact-integer: compare
        // against a hand-rolled scalar evaluation.
        let ds = emulator_ds(100, 14);
        let m = Mlp::fit(&ds, AnnParams::small(1e-4, 0.01)).unwrap();
        let q = QuantModel::from_mlp(&m, QuantEncoding::I8);
        let mut s = q.scratch();
        for i in 0..ds.n_rows() {
            let fast = q.decision_scratch(ds.row(i), &mut s);
            let slow = q.decision_scratch(ds.row(i), &mut q.scratch());
            assert_eq!(fast.to_bits(), slow.to_bits(), "row {i}");
        }
    }

    #[test]
    fn f16_batch_dequant_matches_fresh_scratch() {
        // The batched serving path reuses one scratch (weights widened
        // once); a fresh scratch per row re-widens every time. Widening is
        // lossless and the kernels see identical f32 inputs either way, so
        // the logits must agree bit-for-bit.
        let ds = emulator_ds(100, 16);
        let m = Mlp::fit(&ds, AnnParams::small(1e-4, 0.01)).unwrap();
        let q = QuantModel::from_mlp(&m, QuantEncoding::F16);
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
        let qi = QuantModel::from_mlp(&m, QuantEncoding::I8);
        let info = qi.tensor_info();
        assert_eq!(info.len(), 3);
        for (name, len, bytes, scale) in &info {
            assert!(!name.is_empty());
            assert_eq!(len, bytes, "i8 is one byte per element");
            assert!(scale.unwrap() > 0.0);
        }
        let qh = QuantModel::from_mlp(&m, QuantEncoding::F16);
        for (_, len, bytes, scale) in qh.tensor_info() {
            assert_eq!(bytes, len * 2, "f16 is two bytes per element");
            assert!(scale.is_none());
        }
        assert_eq!(qi.encoding.name(), "i8");
        assert_eq!(qh.encoding.name(), "f16");
        assert!(!qi.is_mapped());
    }

    #[test]
    fn encoding_parse_roundtrip() {
        assert_eq!(QuantEncoding::parse("i8"), Some(QuantEncoding::I8));
        assert_eq!(QuantEncoding::parse("f16"), Some(QuantEncoding::F16));
        assert_eq!(QuantEncoding::parse("f32"), None);
        assert_eq!(QuantEncoding::I8.name(), "i8");
    }
}
