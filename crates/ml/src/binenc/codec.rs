//! Per-family binary payload serializers for [`AnyClassifier`].
//!
//! Each family writes a one-byte variant tag followed by its payload:
//! scalars inline, numeric arrays as aligned pod sections (zero-copy on the
//! mmap read path). The tree payload lives next to its private node types
//! in `crate::tree`; everything else is here. This is the only model
//! encoding: artifacts embed the stream as their `MODL` section.

use crate::ann::Mlp;
use crate::any::{AnyClassifier, SubsetModel};
use crate::binenc::{BinReader, BinWriter, PodVec};
use crate::cascade::{Calibrator, CascadeModel, CascadeTier, MAX_TIERS};
use crate::error::{MlError, Result};
use crate::knn::OneNearestNeighbor;
use crate::logreg::LogRegL1;
use crate::model::MajorityClass;
use crate::naive_bayes::NaiveBayes;
use crate::quant::{QTensor, QTensor64, QuantLogReg, QuantMlp, QuantModel, QuantSvm};
use crate::svm::{KernelKind, SvmModel};
use crate::tree::DecisionTree;

fn bad(what: impl std::fmt::Display) -> MlError {
    MlError::Invalid(format!("corrupt model payload: {what}"))
}

fn encode_kernel(w: &mut BinWriter, k: KernelKind) {
    match k {
        KernelKind::Linear => w.put_u8(0),
        KernelKind::Quadratic { gamma } => {
            w.put_u8(1);
            w.put_f64(gamma);
        }
        KernelKind::Rbf { gamma } => {
            w.put_u8(2);
            w.put_f64(gamma);
        }
    }
}

fn decode_kernel(r: &mut BinReader) -> Result<KernelKind> {
    Ok(match r.read_u8()? {
        0 => KernelKind::Linear,
        1 => KernelKind::Quadratic {
            gamma: r.read_f64()?,
        },
        2 => KernelKind::Rbf {
            gamma: r.read_f64()?,
        },
        t => return Err(bad(format!("kernel tag {t}"))),
    })
}

fn encode_bools_packed(w: &mut BinWriter, bits: &[bool]) {
    w.put_usize(bits.len());
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        byte |= u8::from(b) << (i % 8);
        if i % 8 == 7 {
            w.put_u8(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        w.put_u8(byte);
    }
}

fn decode_bools_packed(r: &mut BinReader) -> Result<Vec<bool>> {
    let len = r.read_usize()?;
    if len > r.remaining().saturating_mul(8) {
        return Err(bad(format!("packed bool list of {len} overruns section")));
    }
    let mut out = Vec::with_capacity(len);
    let mut byte = 0u8;
    for i in 0..len {
        if i % 8 == 0 {
            byte = r.read_u8()?;
        }
        out.push(byte >> (i % 8) & 1 == 1);
    }
    Ok(out)
}

fn encode_mlp(w: &mut BinWriter, m: &Mlp) {
    w.put_usize(m.d_in);
    w.put_usize(m.h1);
    w.put_usize(m.h2);
    w.put_f32(m.b3);
    w.put_pod_slice(&m.offsets);
    // On disk w1 stays row-major (h1 × d_in), the layout every v3 file has.
    w.put_pod_slice(&crate::ann::transpose(&m.w1, m.d_in, m.h1));
    w.put_pod_slice(&m.b1);
    w.put_pod_slice(&m.w2);
    w.put_pod_slice(&m.b2);
    w.put_pod_slice(&m.w3);
}

fn decode_mlp(r: &mut BinReader) -> Result<Mlp> {
    let d_in = r.read_usize()?;
    let h1 = r.read_usize()?;
    let h2 = r.read_usize()?;
    let b3 = r.read_f32()?;
    let offsets = r.read_pod_vec()?;
    let w1 = r.read_pod_vec()?;
    let b1 = r.read_pod_vec()?;
    let w2 = r.read_pod_vec()?;
    let b2 = r.read_pod_vec()?;
    let w3 = r.read_pod_vec()?;
    let m = Mlp {
        offsets,
        d_in,
        h1,
        h2,
        w1,
        b1,
        w2,
        b2,
        w3,
        b3,
    };
    // Dimensions come straight from the file: checked arithmetic so a
    // corrupt header is a clean error, not an overflow panic.
    let area = |a: usize, b: usize| a.checked_mul(b);
    if Some(m.w1.len()) != area(m.h1, m.d_in)
        || m.b1.len() != m.h1
        || Some(m.w2.len()) != area(m.h2, m.h1)
        || m.b2.len() != m.h2
        || m.w3.len() != m.h2
    {
        return Err(bad("MLP layer shapes disagree"));
    }
    // Column-major in memory: only this owned transpose is kept, even on mmap.
    let w1 = crate::ann::transpose(&m.w1, m.h1, m.d_in).into();
    Ok(Mlp { w1, ..m })
}

fn encode_svm(w: &mut BinWriter, m: &SvmModel) {
    encode_kernel(w, m.kernel);
    w.put_usize(m.n_features);
    w.put_f64(m.bias);
    w.put_pod_slice(&m.sv_coef);
    w.put_pod_slice(&m.sv_rows);
}

fn decode_svm(r: &mut BinReader) -> Result<SvmModel> {
    let kernel = decode_kernel(r)?;
    let n_features = r.read_usize()?;
    let bias = r.read_f64()?;
    let sv_coef: PodVec<f64> = r.read_pod_vec()?;
    let sv_rows: PodVec<u32> = r.read_pod_vec()?;
    if !svm_width_ok(n_features) || Some(sv_rows.len()) != sv_coef.len().checked_mul(n_features) {
        return Err(bad("SVM support-vector shapes disagree"));
    }
    Ok(SvmModel::from_parts(
        kernel, n_features, sv_rows, sv_coef, bias,
    ))
}

/// An SVM row width the trainer can produce: at least one feature, and
/// match counts that fit the `u16` match matrix. The bound also caps the
/// per-model kernel table a corrupt header could otherwise inflate.
fn svm_width_ok(n_features: usize) -> bool {
    (1..u16::MAX as usize).contains(&n_features)
}

fn encode_knn(w: &mut BinWriter, m: &OneNearestNeighbor) {
    w.put_usize(m.d);
    encode_bools_packed(w, &m.labels);
    w.put_pod_slice(&m.rows);
}

fn decode_knn(r: &mut BinReader) -> Result<OneNearestNeighbor> {
    let d = r.read_usize()?;
    let labels = decode_bools_packed(r)?;
    let rows = r.read_pod_vec()?;
    let m = OneNearestNeighbor { d, rows, labels };
    if m.d == 0 || Some(m.rows.len()) != m.labels.len().checked_mul(m.d) {
        return Err(bad("1-NN row/label shapes disagree"));
    }
    Ok(m)
}

fn encode_nb(w: &mut BinWriter, m: &NaiveBayes) {
    w.put_f64(m.log_prior[0]);
    w.put_f64(m.log_prior[1]);
    w.put_pod_slice(&m.cardinalities);
    w.put_usize(m.tables.len());
    for table in &m.tables {
        w.put_pod_slice(table);
    }
}

fn decode_nb(r: &mut BinReader) -> Result<NaiveBayes> {
    let log_prior = [r.read_f64()?, r.read_f64()?];
    let cardinalities = r.read_pod_vec::<u32>()?;
    let n_tables = r.read_usize()?;
    if n_tables != cardinalities.len() {
        return Err(bad("NB table count does not match cardinalities"));
    }
    let mut tables = Vec::with_capacity(n_tables);
    for j in 0..n_tables {
        let table = r.read_pod_vec::<f64>()?;
        if table.len() != 2 * cardinalities[j] as usize {
            return Err(bad(format!("NB table {j} has wrong shape")));
        }
        tables.push(table);
    }
    Ok(NaiveBayes {
        log_prior,
        tables,
        cardinalities,
    })
}

fn encode_logreg(w: &mut BinWriter, m: &LogRegL1) {
    w.put_f64(m.intercept);
    w.put_f64(m.lambda);
    w.put_pod_slice(&m.offsets);
    w.put_pod_slice(&m.weights);
}

fn decode_logreg(r: &mut BinReader) -> Result<LogRegL1> {
    let intercept = r.read_f64()?;
    let lambda = r.read_f64()?;
    let offsets = r.read_pod_vec::<u32>()?;
    let weights = r.read_pod_vec::<f64>()?;
    // `offsets` carries a trailing sentinel equal to the one-hot dimension;
    // the weight vector must span exactly that, or `decision` would index
    // out of bounds.
    if offsets
        .last()
        .is_none_or(|&dim| weights.len() != dim as usize)
    {
        return Err(bad("logreg weights do not span the one-hot offsets"));
    }
    Ok(LogRegL1 {
        offsets,
        weights,
        intercept,
        lambda,
    })
}

fn encode_qtensor(w: &mut BinWriter, t: &QTensor) {
    w.put_f32(t.scale);
    w.put_pod_slice(&t.data);
}

fn decode_qtensor(r: &mut BinReader) -> Result<QTensor> {
    Ok(QTensor {
        scale: r.read_f32()?,
        data: r.read_pod_vec()?,
    })
}

fn encode_qtensor64(w: &mut BinWriter, t: &QTensor64) {
    w.put_f64(t.scale);
    w.put_pod_slice(&t.data);
}

fn decode_qtensor64(r: &mut BinReader) -> Result<QTensor64> {
    Ok(QTensor {
        scale: r.read_f64()?,
        data: r.read_pod_vec()?,
    })
}

fn encode_quant(w: &mut BinWriter, q: &QuantModel) {
    // Encoding tag: 0 is i8, the only quantized encoding.
    w.put_u8(0);
    match q {
        QuantModel::Mlp(m) => {
            w.put_u8(0);
            w.put_usize(m.d_in);
            w.put_usize(m.h1);
            w.put_usize(m.h2);
            w.put_f32(m.b3);
            w.put_pod_slice(&m.offsets);
            encode_qtensor(w, &m.w1);
            w.put_pod_slice(&m.b1);
            encode_qtensor(w, &m.w2);
            w.put_pod_slice(&m.b2);
            encode_qtensor(w, &m.w3);
        }
        QuantModel::Svm(m) => {
            w.put_u8(1);
            encode_kernel(w, m.kernel);
            w.put_usize(m.n_features);
            w.put_f64(m.bias);
            encode_qtensor64(w, &m.sv_coef);
            w.put_pod_slice(&m.sv_rows);
        }
        QuantModel::LogReg(m) => {
            w.put_u8(2);
            w.put_f64(m.intercept);
            w.put_pod_slice(&m.offsets);
            encode_qtensor64(w, &m.weights);
        }
    }
}

fn decode_quant(r: &mut BinReader) -> Result<QuantModel> {
    let encoding = r.read_u8()?;
    if encoding != 0 {
        return Err(bad(format!(
            "quantized encoding tag {encoding} (only 0, i8, is supported)"
        )));
    }
    Ok(match r.read_u8()? {
        0 => {
            let d_in = r.read_usize()?;
            let h1 = r.read_usize()?;
            let h2 = r.read_usize()?;
            let b3 = r.read_f32()?;
            let offsets = r.read_pod_vec()?;
            let w1 = decode_qtensor(r)?;
            let b1 = r.read_pod_vec()?;
            let w2 = decode_qtensor(r)?;
            let b2 = r.read_pod_vec()?;
            let w3 = decode_qtensor(r)?;
            let m = QuantMlp {
                offsets,
                d_in,
                h1,
                h2,
                w1,
                b1,
                w2,
                b2,
                w3,
                b3,
            };
            let area = |a: usize, b: usize| a.checked_mul(b);
            if Some(m.w1.len()) != area(m.h1, m.d_in)
                || m.b1.len() != m.h1
                || Some(m.w2.len()) != area(m.h2, m.h1)
                || m.b2.len() != m.h2
                || m.w3.len() != m.h2
            {
                return Err(bad("quantized MLP layer shapes disagree"));
            }
            QuantModel::Mlp(m)
        }
        1 => {
            let kernel = decode_kernel(r)?;
            let n_features = r.read_usize()?;
            let bias = r.read_f64()?;
            let sv_coef = decode_qtensor64(r)?;
            let sv_rows = r.read_pod_vec::<u32>()?;
            if !svm_width_ok(n_features)
                || Some(sv_rows.len()) != sv_coef.len().checked_mul(n_features)
            {
                return Err(bad("quantized SVM support-vector shapes disagree"));
            }
            QuantModel::Svm(QuantSvm::from_parts(
                kernel, n_features, sv_rows, sv_coef, bias,
            ))
        }
        2 => {
            let intercept = r.read_f64()?;
            let offsets = r.read_pod_vec::<u32>()?;
            let weights = decode_qtensor64(r)?;
            if offsets
                .last()
                .is_none_or(|&dim| weights.len() != dim as usize)
            {
                return Err(bad(
                    "quantized logreg weights do not span the one-hot offsets",
                ));
            }
            QuantModel::LogReg(QuantLogReg {
                offsets,
                weights,
                intercept,
            })
        }
        t => return Err(bad(format!("quantized payload tag {t}"))),
    })
}

fn encode_calibrator(w: &mut BinWriter, c: &Calibrator) {
    match c {
        Calibrator::Platt { a, b } => {
            w.put_u8(0);
            w.put_f64(*a);
            w.put_f64(*b);
        }
        Calibrator::Isotonic { xs, ps } => {
            w.put_u8(1);
            w.put_usize(xs.len());
            for &x in xs {
                w.put_f64(x);
            }
            for &p in ps {
                w.put_f64(p);
            }
        }
    }
}

fn decode_calibrator(r: &mut BinReader) -> Result<Calibrator> {
    let c = match r.read_u8()? {
        0 => Calibrator::Platt {
            a: r.read_f64()?,
            b: r.read_f64()?,
        },
        1 => {
            let n = r.read_usize()?;
            if n > r.remaining() / 16 {
                return Err(bad(format!("isotonic calibrator of {n} overruns section")));
            }
            let xs = (0..n).map(|_| r.read_f64()).collect::<Result<_>>()?;
            let ps = (0..n).map(|_| r.read_f64()).collect::<Result<_>>()?;
            Calibrator::Isotonic { xs, ps }
        }
        t => return Err(bad(format!("calibrator tag {t}"))),
    };
    c.validate()?;
    Ok(c)
}

fn encode_cascade(w: &mut BinWriter, c: &CascadeModel) {
    w.put_usize(c.tiers.len());
    for tier in &c.tiers {
        encode_calibrator(w, &tier.calibrator);
        w.put_f64(tier.threshold);
        tier.model.encode_bin(w);
    }
}

fn decode_cascade(r: &mut BinReader) -> Result<CascadeModel> {
    let n = r.read_usize()?;
    if n == 0 || n > MAX_TIERS {
        return Err(bad(format!("cascade tier count {n}")));
    }
    let mut tiers = Vec::with_capacity(n);
    for _ in 0..n {
        let calibrator = decode_calibrator(r)?;
        let threshold = r.read_f64()?;
        let model = AnyClassifier::decode_bin(r)?;
        tiers.push(CascadeTier {
            model,
            calibrator,
            threshold,
        });
    }
    // `new` re-runs full validation (threshold ranges, no nesting).
    CascadeModel::new(tiers)
}

impl AnyClassifier {
    /// Whether any of this model's weight arrays currently borrow a mapped
    /// artifact file (true only after an mmap load; a heap load or a
    /// freshly trained model is fully resident). An MLP's `w1` is always
    /// owned (decode transposes it into memory), so its answer is `w2`'s.
    pub fn payload_mapped(&self) -> bool {
        match self {
            AnyClassifier::Majority(_) => false,
            // Tree nodes are structural and always copied.
            AnyClassifier::Tree(_) => false,
            AnyClassifier::Knn(m) => m.rows.is_mapped(),
            AnyClassifier::Svm(m) => m.sv_rows.is_mapped() || m.sv_coef.is_mapped(),
            AnyClassifier::Mlp(m) => m.w2.is_mapped(),
            AnyClassifier::NaiveBayes(m) => {
                m.cardinalities.is_mapped() || m.tables.iter().any(|t| t.is_mapped())
            }
            AnyClassifier::LogReg(m) => m.offsets.is_mapped() || m.weights.is_mapped(),
            AnyClassifier::Subset(s) => s.inner.payload_mapped(),
            AnyClassifier::Quantized(q) => q.is_mapped(),
            AnyClassifier::Cascade(c) => c.tiers.iter().any(|t| t.model.payload_mapped()),
        }
    }

    /// Serializes the model as the format-v3 binary payload.
    pub fn encode_bin(&self, w: &mut BinWriter) {
        match self {
            AnyClassifier::Majority(m) => {
                w.put_u8(0);
                w.put_bool(m.positive);
            }
            AnyClassifier::Tree(m) => {
                w.put_u8(1);
                m.encode_bin(w);
            }
            AnyClassifier::Knn(m) => {
                w.put_u8(2);
                encode_knn(w, m);
            }
            AnyClassifier::Svm(m) => {
                w.put_u8(3);
                encode_svm(w, m);
            }
            AnyClassifier::Mlp(m) => {
                w.put_u8(4);
                encode_mlp(w, m);
            }
            AnyClassifier::NaiveBayes(m) => {
                w.put_u8(5);
                encode_nb(w, m);
            }
            AnyClassifier::LogReg(m) => {
                w.put_u8(6);
                encode_logreg(w, m);
            }
            AnyClassifier::Subset(s) => {
                w.put_u8(7);
                w.put_usize(s.keep.len());
                for &j in &s.keep {
                    w.put_usize(j);
                }
                s.inner.encode_bin(w);
            }
            AnyClassifier::Quantized(q) => {
                w.put_u8(8);
                encode_quant(w, q);
            }
            AnyClassifier::Cascade(c) => {
                w.put_u8(9);
                encode_cascade(w, c);
            }
        }
    }

    /// Deserializes a model written by [`AnyClassifier::encode_bin`]. Over
    /// a mapped source, weight arrays borrow the mapping zero-copy.
    pub fn decode_bin(r: &mut BinReader) -> Result<AnyClassifier> {
        Ok(match r.read_u8()? {
            0 => AnyClassifier::Majority(MajorityClass {
                positive: r.read_bool()?,
            }),
            1 => AnyClassifier::Tree(DecisionTree::decode_bin(r)?),
            2 => AnyClassifier::Knn(decode_knn(r)?),
            3 => AnyClassifier::Svm(decode_svm(r)?),
            4 => AnyClassifier::Mlp(decode_mlp(r)?),
            5 => AnyClassifier::NaiveBayes(decode_nb(r)?),
            6 => AnyClassifier::LogReg(decode_logreg(r)?),
            7 => {
                let n = r.read_usize()?;
                if n > r.remaining() / 8 {
                    return Err(bad(format!("subset keep list of {n} overruns section")));
                }
                let keep = (0..n).map(|_| r.read_usize()).collect::<Result<_>>()?;
                AnyClassifier::Subset(SubsetModel {
                    keep,
                    inner: Box::new(AnyClassifier::decode_bin(r)?),
                })
            }
            8 => AnyClassifier::Quantized(decode_quant(r)?),
            9 => AnyClassifier::Cascade(decode_cascade(r)?),
            t => return Err(bad(format!("unknown model family tag {t}"))),
        })
    }
}

/// Every model family (including quantized variants and a cascade) fit on
/// one dataset — shared by the codec roundtrip/truncation tests here and
/// the sign-consistency sweep in `crate::cascade`.
#[cfg(test)]
pub(crate) fn tests_all_families(data: &crate::dataset::CatDataset) -> Vec<AnyClassifier> {
    use crate::ann::AnnParams;
    use crate::logreg::LogRegParams;
    use crate::svm::SvmParams;
    use crate::tree::{SplitCriterion, TreeParams};
    let sub = data.select_features(&[1]).unwrap();
    let mut models: Vec<AnyClassifier> = vec![
        MajorityClass::fit(data).into(),
        DecisionTree::fit(
            data,
            TreeParams::new(SplitCriterion::Gini)
                .with_minsplit(2)
                .with_cp(0.0),
        )
        .unwrap()
        .into(),
        OneNearestNeighbor::fit(data).unwrap().into(),
        SvmModel::fit(data, SvmParams::new(KernelKind::Rbf { gamma: 0.5 }, 5.0))
            .unwrap()
            .into(),
        Mlp::fit(
            data,
            AnnParams {
                epochs: 2,
                ..AnnParams::small(1e-4, 0.01)
            },
        )
        .unwrap()
        .into(),
        NaiveBayes::fit(data).unwrap().into(),
        LogRegL1::fit_single(
            data,
            1e-3,
            LogRegParams {
                max_iter: 25,
                ..Default::default()
            },
        )
        .unwrap()
        .into(),
        SubsetModel {
            keep: vec![1],
            inner: Box::new(NaiveBayes::fit(&sub).unwrap().into()),
        }
        .into(),
    ];
    // Quantized variants of every family that supports them — the
    // roundtrip/truncation tests then cover family tag 8 with each payload.
    let quantized: Vec<AnyClassifier> = models.iter().filter_map(|m| m.quantize().ok()).collect();
    assert_eq!(quantized.len(), 3, "mlp/svm/logreg");
    models.extend(quantized);
    // A two-tier cascade (tree → MLP) covering family tag 9 with both
    // calibrator codecs.
    let cascade = CascadeModel::new(vec![
        CascadeTier {
            model: models[1].clone(),
            calibrator: Calibrator::Isotonic {
                xs: vec![-1.0, 0.0, 2.0],
                ps: vec![0.2, 0.5, 0.9],
            },
            threshold: 0.8,
        },
        CascadeTier {
            model: models[4].clone(),
            calibrator: Calibrator::Platt { a: 1.5, b: -0.25 },
            threshold: 1.0,
        },
    ])
    .unwrap();
    models.push(cascade.into());
    models
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{CatDataset, FeatureMeta, Provenance};
    use crate::model::Classifier;

    fn ds(seed: u64) -> CatDataset {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let d = 3usize;
        let k = 4u32;
        let n = 40usize;
        let features: Vec<FeatureMeta> = (0..d)
            .map(|j| FeatureMeta::new(format!("f{j}"), k, Provenance::Home))
            .collect();
        let rows: Vec<u32> = (0..n * d).map(|_| rng.gen_range(0..k)).collect();
        let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        CatDataset::new(features, rows, labels).unwrap()
    }

    use super::tests_all_families as all_families;

    #[test]
    fn every_family_roundtrips_bit_identically() {
        let data = ds(17);
        for model in all_families(&data) {
            let mut w = BinWriter::new();
            model.encode_bin(&mut w);
            let mut r = BinReader::over_heap(w.finish());
            let back = AnyClassifier::decode_bin(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, model, "family {}", model.family());
            for i in 0..data.n_rows() {
                assert_eq!(
                    back.predict_row(data.row(i)),
                    model.predict_row(data.row(i)),
                    "family {} row {i}",
                    model.family()
                );
            }
        }
    }

    #[test]
    fn truncated_payloads_error_for_every_family() {
        let data = ds(29);
        for model in all_families(&data) {
            let mut w = BinWriter::new();
            model.encode_bin(&mut w);
            let bytes = w.finish();
            // Cutting anywhere must error, never panic. Probe a spread of
            // truncation points including the empty stream.
            for cut in [0, 1, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
                let mut r = BinReader::over_heap(bytes[..cut].to_vec());
                let res = AnyClassifier::decode_bin(&mut r).and_then(|_| r.expect_end());
                assert!(res.is_err(), "family {} cut {cut}", model.family());
            }
        }
    }

    #[test]
    fn bad_tags_are_clean_errors() {
        let mut r = BinReader::over_heap(vec![99]);
        let err = AnyClassifier::decode_bin(&mut r).unwrap_err();
        assert!(err.to_string().contains("family tag"), "{err}");
    }

    #[test]
    fn retired_f16_tags_are_clean_errors() {
        // A quantized logreg laid out as the retired f16 encoding wrote it:
        // encoding byte 1, then weights as a bare pod frame tagged 7 (two
        // bytes per element, no scale).
        let mut w = BinWriter::new();
        w.put_u8(8);
        w.put_u8(1);
        w.put_u8(2);
        w.put_f64(0.5);
        w.put_pod_slice::<u32>(&[0, 4, 8, 12]);
        let f16_frame = w.buf.len();
        w.put_pod_slice::<u16>(&[0x3C00; 12]);
        let mut bytes = w.finish();
        bytes[f16_frame] = 7;
        let err = AnyClassifier::decode_bin(&mut BinReader::over_heap(bytes.clone())).unwrap_err();
        assert!(err.to_string().contains("encoding tag 1"), "{err}");

        // Encoding byte 1 in front of every real i8 payload fails the same
        // way.
        let data = ds(37);
        for model in all_families(&data) {
            let AnyClassifier::Quantized(_) = &model else {
                continue;
            };
            let mut w = BinWriter::new();
            model.encode_bin(&mut w);
            let mut q = w.finish();
            assert_eq!(q[..2], [8, 0], "family {}", model.family());
            q[1] = 1;
            let err = AnyClassifier::decode_bin(&mut BinReader::over_heap(q)).unwrap_err();
            assert!(err.to_string().contains("encoding tag 1"), "{err}");
        }

        // A pod frame tagged 7 matches no element type.
        let frame = bytes[f16_frame..].to_vec();
        fn read<T: crate::binenc::Pod>(frame: &[u8]) -> Result<PodVec<T>> {
            BinReader::over_heap(frame.to_vec()).read_pod_vec::<T>()
        }
        assert!(read::<i8>(&frame).is_err());
        assert!(read::<u16>(&frame).is_err());
        assert!(read::<u32>(&frame).is_err());
        assert!(read::<u64>(&frame).is_err());
        assert!(read::<f32>(&frame).is_err());
        assert!(read::<f64>(&frame).is_err());
    }

    #[test]
    fn svm_width_outside_the_match_matrix_is_a_clean_error() {
        // An SVM without support vectors passes the shape check at any
        // width, so the width bound alone stops a header from sizing the
        // kernel table.
        let decode = |width: usize| {
            let mut w = BinWriter::new();
            w.put_u8(3);
            encode_kernel(&mut w, KernelKind::Rbf { gamma: 0.5 });
            w.put_usize(width);
            w.put_f64(1.0);
            w.put_pod_slice::<f64>(&[]);
            w.put_pod_slice::<u32>(&[]);
            AnyClassifier::decode_bin(&mut BinReader::over_heap(w.finish()))
        };
        assert!(decode(u16::MAX as usize - 1).is_ok());
        for width in [0, u16::MAX as usize, 1 << 40] {
            let err = decode(width).unwrap_err();
            assert!(err.to_string().contains("shapes disagree"), "{err}");
        }
    }

    #[test]
    fn mlp_w1_is_row_major_on_disk_and_decodes_identically_from_heap_and_mmap() {
        use crate::ann::AnnParams;
        use crate::binenc::{BytesSource, MmapFile};
        let data = ds(31);
        let mlp = Mlp::fit(&data, AnnParams::small(1e-4, 0.01)).unwrap();
        let (d_in, h1) = (mlp.d_in, mlp.h1);
        let model = AnyClassifier::from(mlp.clone());
        let mut w = BinWriter::new();
        model.encode_bin(&mut w);
        let bytes = w.finish();

        // The stored w1 is h1 × d_in: element [u][k] is in-memory [k][u].
        let mut r = BinReader::over_heap(bytes.clone());
        assert_eq!(r.read_u8().unwrap(), 4, "MLP family tag");
        assert_eq!(
            [r.read_usize().unwrap(), r.read_usize().unwrap()],
            [d_in, h1]
        );
        r.read_usize().unwrap();
        r.read_f32().unwrap();
        r.read_pod_vec::<u32>().unwrap();
        let disk = r.read_pod_vec::<f32>().unwrap();
        assert_eq!(disk.len(), h1 * d_in);
        for u in 0..h1 {
            for k in 0..d_in {
                assert_eq!(disk[u * d_in + k].to_bits(), mlp.w1[k * h1 + u].to_bits());
            }
        }

        // Decode → encode is byte-identical.
        let heap = AnyClassifier::decode_bin(&mut BinReader::over_heap(bytes.clone())).unwrap();
        let mut again = BinWriter::new();
        heap.encode_bin(&mut again);
        assert_eq!(again.finish(), bytes);

        // An mmap decode owns w1 but borrows the rest, and gives the heap
        // decode's logits bit for bit.
        let dir = std::env::temp_dir().join(format!("hamlet-codec-mlp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mlp.bin");
        std::fs::write(&path, &bytes).unwrap();
        let map = MmapFile::open(&path).unwrap();
        let len = map.len();
        let mut r = BinReader::over(BytesSource::Mapped(map), 0, len).unwrap();
        let mapped = AnyClassifier::decode_bin(&mut r).unwrap();
        let AnyClassifier::Mlp(m) = &mapped else {
            panic!("decoded family {}", mapped.family());
        };
        assert!(!m.w1.is_mapped() && mapped.payload_mapped());
        for i in 0..data.n_rows() {
            let row = data.row(i);
            assert_eq!(
                mapped.decision_value(row).to_bits(),
                heap.decision_value(row).to_bits()
            );
            assert_eq!(m.logit(row).to_bits(), mlp.logit(row).to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn packed_bools_roundtrip() {
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut w = BinWriter::new();
            encode_bools_packed(&mut w, &bits);
            let mut r = BinReader::over_heap(w.finish());
            assert_eq!(decode_bools_packed(&mut r).unwrap(), bits);
            r.expect_end().unwrap();
        }
    }
}
