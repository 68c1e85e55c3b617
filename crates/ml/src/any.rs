//! [`AnyClassifier`]: every trained model family behind one persistable,
//! enum-dispatched type.
//!
//! Trained models historically left the model zoo as `Box<dyn Classifier>`,
//! which cannot be persisted or named. `AnyClassifier` closes that gap for
//! the serving path: it has a binary codec (`crate::binenc`, so artifacts
//! can be saved and reloaded bit-exactly), is `Clone`, and predicts through
//! a plain `match` — no vtable indirection and no allocation on the
//! base-model hot path.

use crate::ann::Mlp;
use crate::cascade::CascadeModel;
use crate::contract::FeatureContract;
use crate::dataset::CatDataset;
use crate::error::{MlError, Result};
use crate::knn::OneNearestNeighbor;
use crate::logreg::LogRegL1;
use crate::model::{Classifier, MajorityClass};
use crate::naive_bayes::NaiveBayes;
use crate::quant::{QuantEncoding, QuantModel, QuantPayload};
use crate::svm::SvmModel;
use crate::tree::DecisionTree;

/// Minimum rows per shard before [`AnyClassifier::predict_batch_parallel`]
/// spawns an extra thread. Below this, per-row prediction is so cheap that
/// thread spawn/join overhead exceeds the parallel win.
pub const MIN_ROWS_PER_SHARD: usize = 256;

/// A model wrapped with the feature subset it was trained on, so it can
/// consume full-width rows (the NB-BFS path after backward selection).
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetModel {
    /// Indices (into the full row) of the features the inner model sees.
    pub keep: Vec<usize>,
    /// The model trained on the selected features.
    pub inner: Box<AnyClassifier>,
}

/// Every trained classifier in the repo, as one concrete type.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyClassifier {
    /// Constant majority-class baseline.
    Majority(MajorityClass),
    /// CART decision tree.
    Tree(DecisionTree),
    /// 1-nearest neighbour.
    Knn(OneNearestNeighbor),
    /// Kernel SVM (linear / quadratic / RBF).
    Svm(SvmModel),
    /// Multi-layer perceptron.
    Mlp(Mlp),
    /// Categorical Naive Bayes.
    NaiveBayes(NaiveBayes),
    /// L1 logistic regression.
    LogReg(LogRegL1),
    /// Any of the above behind a feature-subset projection.
    Subset(SubsetModel),
    /// A quantized (i8/f16) MLP, SVM or logreg model.
    Quantized(QuantModel),
    /// A tiered cascade: calibrated cheap front-tiers with a
    /// high-confidence short-circuit over a shared contract.
    Cascade(CascadeModel),
}

impl AnyClassifier {
    /// Short family tag for registry listings and logs. Quantized models
    /// report their *base* family — the encoding is a storage property,
    /// surfaced separately by [`AnyClassifier::encoding`].
    pub fn family(&self) -> &'static str {
        match self {
            AnyClassifier::Majority(_) => "majority",
            AnyClassifier::Tree(_) => "tree",
            AnyClassifier::Knn(_) => "knn",
            AnyClassifier::Svm(_) => "svm",
            AnyClassifier::Mlp(_) => "mlp",
            AnyClassifier::NaiveBayes(_) => "naive-bayes",
            AnyClassifier::LogReg(_) => "logreg",
            AnyClassifier::Subset(s) => s.inner.family(),
            AnyClassifier::Quantized(q) => q.family(),
            AnyClassifier::Cascade(_) => "cascade",
        }
    }

    /// Weight-storage encoding tag: `"f32"` for full-precision models,
    /// `"i8"`/`"f16"` for quantized ones.
    pub fn encoding(&self) -> &'static str {
        match self {
            AnyClassifier::Quantized(q) => q.encoding.name(),
            AnyClassifier::Subset(s) => s.inner.encoding(),
            // A cascade mixes per-tier encodings; report the top (most
            // expensive) tier's, which dominates resident weight bytes.
            AnyClassifier::Cascade(c) => c.tiers.last().map_or("f32", |t| t.model.encoding()),
            _ => "f32",
        }
    }

    /// Approximate bytes of dense numeric payload (weight tensors, support
    /// vectors, probability tables) this model keeps resident. Structural
    /// models (majority, tree) report 0 — their nodes are not weight
    /// arrays. This is what `/v1/models` surfaces per version, making
    /// quantization savings directly visible.
    pub fn weight_bytes(&self) -> usize {
        match self {
            AnyClassifier::Majority(_) | AnyClassifier::Tree(_) => 0,
            AnyClassifier::Knn(m) => m.rows.len() * 4,
            AnyClassifier::Svm(m) => m.sv_rows.len() * 4 + m.sv_coef.len() * 8,
            AnyClassifier::Mlp(m) => {
                (m.offsets.len() + m.b1.len() + m.b2.len()) * 4
                    + (m.w1.len() + m.w2.len() + m.w3.len()) * 4
            }
            AnyClassifier::NaiveBayes(m) => {
                m.cardinalities.len() * 4 + m.tables.iter().map(|t| t.len() * 8).sum::<usize>()
            }
            AnyClassifier::LogReg(m) => m.offsets.len() * 4 + m.weights.len() * 8,
            AnyClassifier::Subset(s) => s.inner.weight_bytes(),
            AnyClassifier::Quantized(q) => q.weight_bytes(),
            AnyClassifier::Cascade(c) => c.tiers.iter().map(|t| t.model.weight_bytes()).sum(),
        }
    }

    /// Quantizes the dense weight tensors to `encoding`. Supported for the
    /// high-capacity families (MLP, SVM, logreg) and subset projections
    /// over them; structural models (trees, kNN, NB, majority) have no
    /// weight tensors and error, as does re-quantizing a quantized model.
    pub fn quantize(&self, encoding: QuantEncoding) -> Result<AnyClassifier> {
        match self {
            AnyClassifier::Mlp(m) => Ok(QuantModel::from_mlp(m, encoding).into()),
            AnyClassifier::Svm(m) => Ok(QuantModel::from_svm(m, encoding).into()),
            AnyClassifier::LogReg(m) => Ok(QuantModel::from_logreg(m, encoding).into()),
            AnyClassifier::Subset(s) => Ok(AnyClassifier::Subset(SubsetModel {
                keep: s.keep.clone(),
                inner: Box::new(s.inner.quantize(encoding)?),
            })),
            AnyClassifier::Quantized(q) => Err(MlError::Invalid(format!(
                "model is already quantized ({})",
                q.encoding.name()
            ))),
            AnyClassifier::Cascade(_) => Err(MlError::Invalid(
                "cascades bundle per-tier encodings; quantize each tier before building".into(),
            )),
            other => Err(crate::quant::unsupported(other.family())),
        }
    }

    /// Batched prediction over row-major codes (`rows.len() == n * d`),
    /// reusing one scratch buffer across the batch so even subset-projected
    /// models allocate O(1) times per request.
    pub fn predict_batch(&self, rows: &[u32], d: usize) -> Vec<bool> {
        assert!(
            d > 0 && rows.len().is_multiple_of(d),
            "rows must be n × d codes"
        );
        let mut out = Vec::with_capacity(rows.len() / d);
        self.predict_chunk(rows, d, &mut out);
        out
    }

    /// Predicts a contiguous row-major chunk into `out`, with family-
    /// specialized batch paths: MLP and quantized models allocate their
    /// forward-pass scratch **once per chunk** and stream rows through the
    /// SIMD kernels — this is the shape merged coalescer batches arrive in,
    /// so a 64-row batch costs one scratch setup instead of 64×5 Vec
    /// allocations. All other families fall back to the per-row path with
    /// a shared subset-projection buffer. Output is bit-identical to
    /// calling `predict_row` per row in every case.
    fn predict_chunk(&self, rows: &[u32], d: usize, out: &mut Vec<bool>) {
        match self {
            AnyClassifier::Mlp(m) => {
                let mut s = m.scratch();
                for row in rows.chunks_exact(d) {
                    out.push(m.logit_scratch(row, &mut s) >= 0.0);
                }
            }
            AnyClassifier::Quantized(q) => {
                let mut s = q.scratch();
                for row in rows.chunks_exact(d) {
                    out.push(q.predict_row_scratch(row, &mut s));
                }
            }
            _ => {
                let mut scratch = Vec::new();
                for row in rows.chunks_exact(d) {
                    out.push(self.predict_row_scratch(row, &mut scratch));
                }
            }
        }
    }

    /// Batched prediction fanned out over up to `max_threads` scoped
    /// threads with the default [`MIN_ROWS_PER_SHARD`] shard floor. See
    /// [`AnyClassifier::predict_batch_sharded`] for the tunable variant.
    pub fn predict_batch_parallel(&self, rows: &[u32], d: usize, max_threads: usize) -> Vec<bool> {
        self.predict_batch_sharded(rows, d, max_threads, MIN_ROWS_PER_SHARD)
    }

    /// Batched prediction fanned out over up to `max_threads` scoped
    /// threads, spawning one extra thread per `min_rows_per_shard` rows.
    /// Shards are contiguous row ranges and results are concatenated in
    /// shard order, so the output is bit-identical to
    /// [`AnyClassifier::predict_batch`] *regardless of the shard size* —
    /// parallelism is purely a wall-clock optimization. Batches smaller
    /// than one shard floor per extra thread stay sequential (the spawn
    /// overhead would dominate).
    ///
    /// The floor is a tuning knob: a serving layer that has *observed* this
    /// model's per-row latency can pass a floor sized so each shard costs
    /// roughly a fixed wall-clock budget (cheap models → bigger shards,
    /// expensive ANN/SVM models → smaller ones), instead of the
    /// one-size-fits-all default.
    pub fn predict_batch_sharded(
        &self,
        rows: &[u32],
        d: usize,
        max_threads: usize,
        min_rows_per_shard: usize,
    ) -> Vec<bool> {
        // One buffer is the single-segment case of the segment-merging
        // fan-out — one sharding implementation, one set of invariants.
        self.predict_segments_sharded(&[rows], d, max_threads, min_rows_per_shard)
            .pop()
            .expect("one segment in, one label vector out")
    }

    /// Batched prediction over **many row buffers at once** — the
    /// cross-request coalescing primitive. The segments are treated as one
    /// logical concatenated batch for sharding purposes (so many tiny
    /// buffers still fan out across threads), but are *never copied into a
    /// single buffer*: each shard walks the segment slices that intersect
    /// its global row range. Results come back split per segment, and each
    /// segment's labels are bit-identical to predicting that segment alone
    /// with [`AnyClassifier::predict_batch`] — per-row prediction is
    /// stateless, so merge/split is purely a scheduling optimization.
    pub fn predict_segments_sharded(
        &self,
        segments: &[&[u32]],
        d: usize,
        max_threads: usize,
        min_rows_per_shard: usize,
    ) -> Vec<Vec<bool>> {
        assert!(d > 0, "d must be positive");
        for seg in segments {
            assert!(
                seg.len().is_multiple_of(d),
                "every segment must be n × d codes"
            );
        }
        // Cumulative row bounds: bounds[i] = first global row of segment i.
        let mut bounds = Vec::with_capacity(segments.len() + 1);
        let mut total = 0usize;
        for seg in segments {
            bounds.push(total);
            total += seg.len() / d;
        }
        bounds.push(total);
        let shards = (total / min_rows_per_shard.max(1)).clamp(1, max_threads.max(1));
        let flat: Vec<bool> = if shards == 1 {
            // Sequential: one batch-specialized pass per segment.
            let mut out = Vec::with_capacity(total);
            for seg in segments {
                self.predict_chunk(seg, d, &mut out);
            }
            out
        } else {
            let rows_per_shard = total.div_ceil(shards);
            let mut out = Vec::with_capacity(total);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|s| {
                        let start = s * rows_per_shard;
                        let end = ((s + 1) * rows_per_shard).min(total);
                        let bounds = &bounds;
                        scope.spawn(move || self.predict_row_range(segments, bounds, d, start, end))
                    })
                    .collect();
                for h in handles {
                    out.extend(h.join().expect("predict shard panicked"));
                }
            });
            out
        };
        // Split the concatenated labels back per segment.
        let mut split = Vec::with_capacity(segments.len());
        let mut at = 0usize;
        for w in bounds.windows(2) {
            let n = w[1] - w[0];
            split.push(flat[at..at + n].to_vec());
            at += n;
        }
        split
    }

    /// Predicts global rows `[start, end)` of the logical concatenation of
    /// `segments` (with `bounds` the cumulative row offsets), walking only
    /// the slices that intersect the range.
    fn predict_row_range(
        &self,
        segments: &[&[u32]],
        bounds: &[usize],
        d: usize,
        start: usize,
        end: usize,
    ) -> Vec<bool> {
        let mut out = Vec::with_capacity(end.saturating_sub(start));
        // First segment whose end is past `start`.
        let mut seg = bounds.partition_point(|&b| b <= start).saturating_sub(1);
        let mut row = start;
        while row < end && seg < segments.len() {
            let seg_start = bounds[seg];
            let seg_end = bounds[seg + 1];
            let lo = row - seg_start;
            let hi = end.min(seg_end) - seg_start;
            self.predict_chunk(&segments[seg][lo * d..hi * d], d, &mut out);
            row += hi - lo;
            seg += 1;
        }
        out
    }

    /// Checks this model can consume rows shaped by `contract`: subset
    /// projections must index inside the contract's width, recursively
    /// (each projection narrows the features its inner model sees), and a
    /// one-hot model (MLP, logreg, quantized or not) needs one offset per
    /// feature (plus the trailing total) with room for that feature's whole
    /// domain below its input width. A decoded artifact can break either;
    /// without this check it would load and then panic at predict time.
    pub fn check_contract(&self, contract: &FeatureContract) -> Result<()> {
        let cards: Vec<u32> = contract.features().iter().map(|f| f.cardinality).collect();
        self.check_cards(&cards)
    }

    fn check_cards(&self, cards: &[u32]) -> Result<()> {
        let (offsets, d_in) = match self {
            AnyClassifier::Subset(s) => {
                if let Some(&bad) = s.keep.iter().find(|&&j| j >= cards.len()) {
                    return Err(MlError::Invalid(format!(
                        "subset model projects feature {bad} but its input has only {} features",
                        cards.len()
                    )));
                }
                let inner: Vec<u32> = s.keep.iter().map(|&j| cards[j]).collect();
                return s.inner.check_cards(&inner);
            }
            // Every tier consumes the same full-width rows.
            AnyClassifier::Cascade(c) => {
                return c.tiers.iter().try_for_each(|t| t.model.check_cards(cards))
            }
            AnyClassifier::Mlp(m) => (&m.offsets, m.d_in),
            AnyClassifier::LogReg(m) => (&m.offsets, m.weights.len()),
            AnyClassifier::Quantized(q) => match &q.payload {
                QuantPayload::Mlp(m) => (&m.offsets, m.d_in),
                QuantPayload::LogReg(m) => (&m.offsets, m.weights.len()),
                QuantPayload::Svm(_) => return Ok(()),
            },
            _ => return Ok(()),
        };
        // `onehot_offsets` layout: one start per feature, then the total.
        let fits = offsets.len() == cards.len() + 1
            && (offsets.iter().zip(cards))
                .all(|(&o, &k)| u64::from(o) + u64::from(k) <= d_in as u64);
        if fits {
            Ok(())
        } else {
            Err(MlError::Invalid(format!(
                "one-hot offsets of a {d_in}-wide input do not fit {} features",
                cards.len()
            )))
        }
    }

    /// `predict_row` with an external scratch buffer for subset projection.
    #[inline]
    pub fn predict_row_scratch(&self, row: &[u32], scratch: &mut Vec<u32>) -> bool {
        match self {
            AnyClassifier::Majority(m) => m.predict_row(row),
            AnyClassifier::Tree(m) => m.predict_row(row),
            AnyClassifier::Knn(m) => m.predict_row(row),
            AnyClassifier::Svm(m) => m.predict_row(row),
            AnyClassifier::Mlp(m) => m.predict_row(row),
            AnyClassifier::NaiveBayes(m) => m.predict_row(row),
            AnyClassifier::LogReg(m) => m.predict_row(row),
            AnyClassifier::Quantized(q) => q.predict_row(row),
            AnyClassifier::Subset(s) => {
                scratch.clear();
                scratch.extend(s.keep.iter().map(|&j| row[j]));
                // The inner model may itself be a subset (not produced today,
                // but the representation allows it); a fresh scratch keeps
                // borrows simple on that cold path.
                let mut inner_scratch = Vec::new();
                s.inner.predict_row_scratch(scratch, &mut inner_scratch)
            }
            AnyClassifier::Cascade(c) => c.decide_row_scratch(row, scratch).0 >= 0.0,
        }
    }

    /// This model's raw decision margin for one row, sign-consistent with
    /// [`AnyClassifier::predict_row_scratch`] for **every** family
    /// (`decision_value(row) ≥ 0 ⟺ predict_row(row)`, ties included):
    /// logreg/SVM decision functions and MLP logits directly, NB class
    /// log-odds, the tree's Laplace-smoothed leaf log-odds, and a synthetic
    /// ±1 for the margin-free families (majority, 1-NN). This is what
    /// cascade calibrators consume.
    pub fn decision_value(&self, row: &[u32]) -> f64 {
        self.decision_value_scratch(row, &mut Vec::new())
    }

    /// [`AnyClassifier::decision_value`] with an external scratch buffer for
    /// subset projection.
    pub fn decision_value_scratch(&self, row: &[u32], scratch: &mut Vec<u32>) -> f64 {
        match self {
            AnyClassifier::Majority(m) => {
                if m.positive {
                    1.0
                } else {
                    -1.0
                }
            }
            AnyClassifier::Tree(m) => m.leaf_log_odds(row),
            AnyClassifier::Knn(m) => {
                if m.labels[m.nearest(row)] {
                    1.0
                } else {
                    -1.0
                }
            }
            AnyClassifier::Svm(m) => m.decision(row),
            AnyClassifier::Mlp(m) => f64::from(m.logit(row)),
            AnyClassifier::NaiveBayes(m) => m.log_odds(row),
            AnyClassifier::LogReg(m) => m.decision(row),
            AnyClassifier::Quantized(q) => q.decision_scratch(row, &mut q.scratch()),
            AnyClassifier::Subset(s) => {
                scratch.clear();
                scratch.extend(s.keep.iter().map(|&j| row[j]));
                let mut inner_scratch = Vec::new();
                s.inner.decision_value_scratch(scratch, &mut inner_scratch)
            }
            // A cascade's margin is its answering tier's margin; sign
            // consistency holds because every tier's label *is* that sign.
            AnyClassifier::Cascade(c) => c.decide_row_scratch(row, scratch).0,
        }
    }

    /// Scores a contiguous row-major chunk into `out`, mirroring
    /// [`AnyClassifier::predict_chunk`]'s family specializations: MLP and
    /// quantized models allocate forward-pass scratch once per chunk.
    /// Values are bit-identical to [`AnyClassifier::decision_value`] per
    /// row.
    fn score_chunk(&self, rows: &[u32], d: usize, out: &mut Vec<f64>) {
        match self {
            AnyClassifier::Mlp(m) => {
                let mut s = m.scratch();
                for row in rows.chunks_exact(d) {
                    out.push(f64::from(m.logit_scratch(row, &mut s)));
                }
            }
            AnyClassifier::Quantized(q) => {
                let mut s = q.scratch();
                for row in rows.chunks_exact(d) {
                    out.push(q.decision_scratch(row, &mut s));
                }
            }
            _ => {
                let mut scratch = Vec::new();
                for row in rows.chunks_exact(d) {
                    out.push(self.decision_value_scratch(row, &mut scratch));
                }
            }
        }
    }

    /// Batched decision margins over one row buffer (sequential).
    pub fn score_batch(&self, rows: &[u32], d: usize) -> Vec<f64> {
        assert!(
            d > 0 && rows.len().is_multiple_of(d),
            "rows must be n × d codes"
        );
        let mut out = Vec::with_capacity(rows.len() / d);
        self.score_chunk(rows, d, &mut out);
        out
    }

    /// Decision margins over **many row buffers at once**, sharded exactly
    /// like [`AnyClassifier::predict_segments_sharded`] (segments form one
    /// logical batch, never copied; shards walk intersecting slices).
    /// Returns one flat vector in global row order — the cascade tier-0
    /// scoring primitive, which wants global indices anyway. Values are
    /// bit-identical to [`AnyClassifier::decision_value`] per row
    /// regardless of sharding.
    pub fn score_segments_sharded(
        &self,
        segments: &[&[u32]],
        d: usize,
        max_threads: usize,
        min_rows_per_shard: usize,
    ) -> Vec<f64> {
        assert!(d > 0, "d must be positive");
        for seg in segments {
            assert!(
                seg.len().is_multiple_of(d),
                "every segment must be n × d codes"
            );
        }
        let mut bounds = Vec::with_capacity(segments.len() + 1);
        let mut total = 0usize;
        for seg in segments {
            bounds.push(total);
            total += seg.len() / d;
        }
        bounds.push(total);
        let shards = (total / min_rows_per_shard.max(1)).clamp(1, max_threads.max(1));
        if shards == 1 {
            let mut out = Vec::with_capacity(total);
            for seg in segments {
                self.score_chunk(seg, d, &mut out);
            }
            return out;
        }
        let rows_per_shard = total.div_ceil(shards);
        let mut out = Vec::with_capacity(total);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| {
                    let start = s * rows_per_shard;
                    let end = ((s + 1) * rows_per_shard).min(total);
                    let bounds = &bounds;
                    scope.spawn(move || self.score_row_range(segments, bounds, d, start, end))
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("score shard panicked"));
            }
        });
        out
    }

    /// Scores global rows `[start, end)` of the logical concatenation of
    /// `segments` — the scoring twin of [`AnyClassifier::predict_row_range`].
    fn score_row_range(
        &self,
        segments: &[&[u32]],
        bounds: &[usize],
        d: usize,
        start: usize,
        end: usize,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(end.saturating_sub(start));
        let mut seg = bounds.partition_point(|&b| b <= start).saturating_sub(1);
        let mut row = start;
        while row < end && seg < segments.len() {
            let seg_start = bounds[seg];
            let seg_end = bounds[seg + 1];
            let lo = row - seg_start;
            let hi = end.min(seg_end) - seg_start;
            self.score_chunk(&segments[seg][lo * d..hi * d], d, &mut out);
            row += hi - lo;
            seg += 1;
        }
        out
    }
}

impl Classifier for AnyClassifier {
    #[inline]
    fn predict_row(&self, row: &[u32]) -> bool {
        // Vec::new() is allocation-free until the Subset arm pushes — the
        // only arm that needed a buffer anyway.
        self.predict_row_scratch(row, &mut Vec::new())
    }

    fn predict(&self, ds: &CatDataset) -> Vec<bool> {
        // Batched path: one scratch allocation for the whole dataset.
        let mut out = Vec::with_capacity(ds.n_rows());
        let mut scratch = Vec::new();
        for i in 0..ds.n_rows() {
            out.push(self.predict_row_scratch(ds.row(i), &mut scratch));
        }
        out
    }
}

macro_rules! impl_from {
    ($($variant:ident <- $ty:ty),* $(,)?) => {$(
        impl From<$ty> for AnyClassifier {
            fn from(m: $ty) -> Self {
                AnyClassifier::$variant(m)
            }
        }
    )*};
}
impl_from! {
    Majority <- MajorityClass,
    Tree <- DecisionTree,
    Knn <- OneNearestNeighbor,
    Svm <- SvmModel,
    Mlp <- Mlp,
    NaiveBayes <- NaiveBayes,
    LogReg <- LogRegL1,
    Subset <- SubsetModel,
    Quantized <- QuantModel,
    Cascade <- CascadeModel,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{FeatureMeta, Provenance};
    use crate::tree::{SplitCriterion, TreeParams};

    fn ds() -> CatDataset {
        let meta: Vec<FeatureMeta> = (0..2)
            .map(|j| FeatureMeta::new(format!("f{j}"), 3, Provenance::Home))
            .collect();
        CatDataset::new(
            meta,
            vec![0, 1, 1, 0, 2, 2, 0, 0, 1, 1, 2, 0],
            vec![true, false, true, true, false, false],
        )
        .unwrap()
    }

    #[test]
    fn dispatch_matches_inner_model() {
        let data = ds();
        let tree = DecisionTree::fit(
            &data,
            TreeParams::new(SplitCriterion::Gini)
                .with_minsplit(2)
                .with_cp(0.0),
        )
        .unwrap();
        let any: AnyClassifier = tree.clone().into();
        for i in 0..data.n_rows() {
            assert_eq!(any.predict_row(data.row(i)), tree.predict_row(data.row(i)));
        }
        assert_eq!(any.predict(&data), tree.predict(&data));
        assert_eq!(any.family(), "tree");
    }

    #[test]
    fn subset_projects_before_predicting() {
        let data = ds();
        let sub_data = data.select_features(&[1]).unwrap();
        let nb = NaiveBayes::fit(&sub_data).unwrap();
        let any = AnyClassifier::Subset(SubsetModel {
            keep: vec![1],
            inner: Box::new(nb.clone().into()),
        });
        for i in 0..data.n_rows() {
            assert_eq!(
                any.predict_row(data.row(i)),
                nb.predict_row(sub_data.row(i))
            );
        }
        assert_eq!(any.family(), "naive-bayes");
    }

    #[test]
    fn predict_batch_parallel_bitmatches_sequential() {
        use rand::{Rng, SeedableRng};
        let data = ds();
        let tree = DecisionTree::fit(
            &data,
            TreeParams::new(SplitCriterion::Gini)
                .with_minsplit(2)
                .with_cp(0.0),
        )
        .unwrap();
        let any: AnyClassifier = tree.into();
        // Large enough to shard several times over.
        let d = data.n_features();
        let n = MIN_ROWS_PER_SHARD * 5 + 17;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let rows: Vec<u32> = (0..n * d).map(|_| rng.gen_range(0..3)).collect();
        let sequential = any.predict_batch(&rows, d);
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                any.predict_batch_parallel(&rows, d, threads),
                sequential,
                "threads={threads}"
            );
        }
        // Tiny batches stay on the sequential path (and still agree).
        assert_eq!(
            any.predict_batch_parallel(&rows[..d * 3], d, 8),
            sequential[..3]
        );
        // Arbitrary shard floors (the adaptive-sizing knob) never change
        // the output, only the fan-out.
        for floor in [1, 32, 100, 1000, usize::MAX] {
            assert_eq!(
                any.predict_batch_sharded(&rows, d, 8, floor),
                sequential,
                "floor={floor}"
            );
        }
    }

    #[test]
    fn predict_segments_bitmatches_per_segment_predicts() {
        use rand::{Rng, SeedableRng};
        let data = ds();
        let tree = DecisionTree::fit(
            &data,
            TreeParams::new(SplitCriterion::Gini)
                .with_minsplit(2)
                .with_cp(0.0),
        )
        .unwrap();
        let any: AnyClassifier = tree.into();
        let d = data.n_features();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Ragged segment sizes, including empties, 1-row and multi-shard.
        let sizes = [1usize, 0, 8, 3, 700, 1, 17, 0, 256, 5];
        let segments: Vec<Vec<u32>> = sizes
            .iter()
            .map(|&n| (0..n * d).map(|_| rng.gen_range(0..3)).collect())
            .collect();
        let refs: Vec<&[u32]> = segments.iter().map(Vec::as_slice).collect();
        let expect: Vec<Vec<bool>> = refs.iter().map(|s| any.predict_batch(s, d)).collect();
        for threads in [1, 2, 7] {
            for floor in [1, 32, 256, usize::MAX] {
                assert_eq!(
                    any.predict_segments_sharded(&refs, d, threads, floor),
                    expect,
                    "threads={threads} floor={floor}"
                );
            }
        }
        // No segments at all is an empty answer, not a panic.
        assert!(any.predict_segments_sharded(&[], d, 4, 1).is_empty());
    }

    #[test]
    fn check_contract_catches_stale_subset_projections() {
        let data = ds();
        let nb = NaiveBayes::fit(&data.select_features(&[1]).unwrap()).unwrap();
        let any = AnyClassifier::Subset(SubsetModel {
            keep: vec![1],
            inner: Box::new(nb.into()),
        });
        let wide = data.contract();
        any.check_contract(&wide).unwrap();
        let narrow = crate::contract::FeatureContract::new(vec![FeatureMeta::new(
            "only",
            3,
            Provenance::Home,
        )])
        .unwrap();
        assert!(any.check_contract(&narrow).is_err());
    }

    /// `fit(None)` is a well-formed one-hot model on `ds()` (two features
    /// of cardinality 3: offsets `[0, 3, 6]`, input width 6); `fit(Some(o))`
    /// is the same model with offsets `o`. Each corruption must fail
    /// `check_contract` for the model and both of its quantized forms.
    fn assert_offsets_checked(fit: impl Fn(Option<Vec<u32>>) -> AnyClassifier) {
        let contract = ds().contract();
        let cases = [
            (None, true),
            (Some(vec![0, 3]), false),
            (Some(vec![0, 3, 6, 9]), false),
            (Some(vec![0, 4, 6]), false),
        ];
        for (offsets, ok) in cases {
            let model = fit(offsets.clone());
            let quantized =
                [QuantEncoding::I8, QuantEncoding::F16].map(|e| model.quantize(e).unwrap());
            for m in std::iter::once(model).chain(quantized) {
                let res = m.check_contract(&contract);
                assert_eq!(res.is_ok(), ok, "{} {offsets:?}: {res:?}", m.family());
            }
        }
    }

    #[test]
    fn check_contract_rejects_mlp_offsets_that_do_not_fit() {
        let base = Mlp::fit(&ds(), crate::ann::AnnParams::small(1e-4, 0.01)).unwrap();
        assert_offsets_checked(|offsets| {
            let mut m = base.clone();
            if let Some(o) = offsets {
                m.offsets = o.into();
            }
            m.into()
        });
    }

    #[test]
    fn check_contract_rejects_logreg_offsets_that_do_not_fit() {
        let params = crate::logreg::LogRegParams {
            max_iter: 25,
            ..Default::default()
        };
        let base = LogRegL1::fit_single(&ds(), 1e-3, params).unwrap();
        assert_offsets_checked(|offsets| {
            let mut m = base.clone();
            if let Some(o) = offsets {
                m.offsets = o.into();
            }
            m.into()
        });
    }

    #[test]
    fn predict_batch_matches_predict() {
        let data = ds();
        let any: AnyClassifier = MajorityClass::fit(&data).into();
        let mut flat = Vec::new();
        for i in 0..data.n_rows() {
            flat.extend_from_slice(data.row(i));
        }
        assert_eq!(
            any.predict_batch(&flat, data.n_features()),
            any.predict(&data)
        );
    }
}
