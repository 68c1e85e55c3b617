//! Tiered prediction cascades: cheap calibrated front-tiers with a
//! high-confidence short-circuit.
//!
//! `BENCH_serve.json` shows the per-family serving cost spread is enormous
//! (a 64-row tree batch runs ~50× faster than the MLP), yet every request
//! pays full price for the model it was addressed to. A [`CascadeModel`]
//! bundles an ordered list of tier models sharing one feature contract:
//! tier 0 answers every row it is *confident* about, and only the ambiguous
//! remainder falls through to the next (more expensive) tier.
//!
//! "Confident" must mean the same thing for a tree, a naive bayes, a logreg
//! and an MLP, so every family's raw margin (`AnyClassifier::decision_value`)
//! is passed through a monotone per-tier [`Calibrator`] — Platt sigmoid or
//! isotonic bins, fit on held-out rows at build time — yielding a posterior
//! `p ∈ (0, 1)`. A row short-circuits at tier `t` when
//! `max(p, 1−p) ≥ threshold[t]`.
//!
//! Threshold semantics are exact by construction: calibrated probabilities
//! are clamped to `(CONF_EPS, 1 − CONF_EPS)`, so confidence lives in
//! `[0.5, 1)` — a threshold of `0.0` short-circuits **every** row at that
//! tier (the cascade is byte-identical to the tier alone) and a threshold
//! of `1.0` short-circuits **none** (byte-identical to the tiers below).
//! The last tier always answers.

use crate::any::AnyClassifier;
use crate::error::{MlError, Result};

/// Calibrated probabilities are clamped to `(CONF_EPS, 1 − CONF_EPS)` so
/// confidence is always strictly below 1 (threshold 1.0 ⇒ never
/// short-circuit) and `max(p, 1−p)` is always ≥ 0.5 ≥ 0 (threshold 0.0 ⇒
/// always short-circuit).
pub const CONF_EPS: f64 = 1e-9;

/// Hard cap on cascade depth: per-tier serving counters use fixed slots,
/// and tier provenance travels as one byte per row.
pub const MAX_TIERS: usize = 8;

/// A monotone margin→probability map fit on held-out rows at build time.
///
/// Monotonicity is the load-bearing property: a larger margin never yields
/// a smaller calibrated probability, so thresholding calibrated confidence
/// is equivalent to thresholding the margin itself — calibration only makes
/// the threshold *comparable across model families*.
#[derive(Debug, Clone, PartialEq)]
pub enum Calibrator {
    /// Platt scaling: `p = sigmoid(a·s + b)` with `a ≥ 0`.
    Platt {
        /// Slope (non-negative, preserving monotonicity).
        a: f64,
        /// Intercept.
        b: f64,
    },
    /// Isotonic regression (pool-adjacent-violators): a nondecreasing step
    /// function. `xs[i]` is the left edge (smallest score) of block `i`,
    /// `ps[i]` its pooled probability.
    Isotonic {
        /// Sorted, strictly increasing block left edges.
        xs: Vec<f64>,
        /// Nondecreasing block probabilities, parallel to `xs`.
        ps: Vec<f64>,
    },
}

impl Calibrator {
    /// Maps a raw margin to a calibrated positive-class probability,
    /// clamped to `(CONF_EPS, 1 − CONF_EPS)`.
    pub fn calibrate(&self, s: f64) -> f64 {
        let p = match self {
            Calibrator::Platt { a, b } => sigmoid(a * s + b),
            Calibrator::Isotonic { xs, ps } => {
                let i = xs.partition_point(|&x| x <= s);
                if i == 0 {
                    ps[0]
                } else {
                    ps[i - 1]
                }
            }
        };
        p.clamp(CONF_EPS, 1.0 - CONF_EPS)
    }

    /// Confidence of the implied label: `max(p, 1−p) ∈ [0.5, 1)`.
    pub fn confidence(&self, s: f64) -> f64 {
        let p = self.calibrate(s);
        p.max(1.0 - p)
    }

    /// Fits Platt scaling (`p = sigmoid(a·s + b)`, `a ≥ 0`) by Newton's
    /// method on the log-loss, with Platt's smoothed targets
    /// (`t⁺ = (n⁺+1)/(n⁺+2)`, `t⁻ = 1/(n⁻+2)`) to avoid degenerate fits on
    /// separable held-out sets. Deterministic.
    pub fn fit_platt(scores: &[f64], labels: &[bool]) -> Result<Calibrator> {
        if scores.is_empty() || scores.len() != labels.len() {
            return Err(MlError::Invalid(format!(
                "platt fit needs matching non-empty scores/labels, got {}/{}",
                scores.len(),
                labels.len()
            )));
        }
        let n_pos = labels.iter().filter(|&&y| y).count() as f64;
        let n_neg = labels.len() as f64 - n_pos;
        let t_pos = (n_pos + 1.0) / (n_pos + 2.0);
        let t_neg = 1.0 / (n_neg + 2.0);
        let targets: Vec<f64> = labels
            .iter()
            .map(|&y| if y { t_pos } else { t_neg })
            .collect();
        let mut a = 0.0f64;
        let mut b = {
            // Start from the marginal log-odds of the smoothed targets.
            let m = targets.iter().sum::<f64>() / targets.len() as f64;
            (m / (1.0 - m)).ln()
        };
        for _ in 0..100 {
            let (mut ga, mut gb) = (0.0f64, 0.0f64);
            let (mut haa, mut hab, mut hbb) = (0.0f64, 0.0f64, 0.0f64);
            for (&s, &t) in scores.iter().zip(&targets) {
                let p = sigmoid(a * s + b);
                let r = p - t;
                let w = (p * (1.0 - p)).max(1e-12);
                ga += r * s;
                gb += r;
                haa += w * s * s;
                hab += w * s;
                hbb += w;
            }
            // Ridge keeps the 2×2 solve stable when scores are (near-)constant.
            haa += 1e-9;
            hbb += 1e-9;
            let det = haa * hbb - hab * hab;
            if det.abs() < 1e-18 {
                break;
            }
            let da = (ga * hbb - gb * hab) / det;
            let db = (gb * haa - ga * hab) / det;
            a -= da;
            b -= db;
            if da.abs() < 1e-10 && db.abs() < 1e-10 {
                break;
            }
        }
        if !a.is_finite() || !b.is_finite() || a < 0.0 {
            // A negative slope means the margin is anti-correlated with the
            // labels on the held-out set — never true for a sane tier, but
            // monotonicity is a hard invariant, so fall back to the
            // margin-blind constant fit.
            let m = targets.iter().sum::<f64>() / targets.len() as f64;
            a = 0.0;
            b = (m / (1.0 - m)).ln();
        }
        let c = Calibrator::Platt { a, b };
        c.validate()?;
        Ok(c)
    }

    /// Fits isotonic regression by weighted pool-adjacent-violators over the
    /// distinct scores. Block probabilities are the raw pooled means —
    /// nondecreasing by PAV construction (per-block smoothing would break
    /// that across blocks of different sizes); pure 0/1 blocks are softened
    /// by the [`CONF_EPS`] clamp at calibration time instead.
    pub fn fit_isotonic(scores: &[f64], labels: &[bool]) -> Result<Calibrator> {
        if scores.is_empty() || scores.len() != labels.len() {
            return Err(MlError::Invalid(format!(
                "isotonic fit needs matching non-empty scores/labels, got {}/{}",
                scores.len(),
                labels.len()
            )));
        }
        let mut pairs: Vec<(f64, bool)> =
            scores.iter().copied().zip(labels.iter().copied()).collect();
        pairs.sort_by(|l, r| l.0.partial_cmp(&r.0).unwrap_or(std::cmp::Ordering::Equal));
        // Merge equal scores into single weighted points first, so the step
        // edges are strictly increasing.
        struct Block {
            x: f64,
            n: f64,
            pos: f64,
        }
        let mut points: Vec<Block> = Vec::new();
        for (s, y) in pairs {
            match points.last_mut() {
                Some(last) if last.x == s => {
                    last.n += 1.0;
                    last.pos += f64::from(u8::from(y));
                }
                _ => points.push(Block {
                    x: s,
                    n: 1.0,
                    pos: f64::from(u8::from(y)),
                }),
            }
        }
        // PAV: pool any adjacent blocks whose means decrease.
        let mut stack: Vec<Block> = Vec::new();
        for p in points {
            stack.push(p);
            while stack.len() >= 2 {
                let a = &stack[stack.len() - 2];
                let b = &stack[stack.len() - 1];
                if a.pos * b.n <= b.pos * a.n {
                    break;
                }
                let b = stack.pop().expect("two blocks checked");
                let a = stack.last_mut().expect("two blocks checked");
                a.n += b.n;
                a.pos += b.pos;
            }
        }
        let xs: Vec<f64> = stack.iter().map(|b| b.x).collect();
        let ps: Vec<f64> = stack.iter().map(|b| b.pos / b.n).collect();
        let c = Calibrator::Isotonic { xs, ps };
        c.validate()?;
        Ok(c)
    }

    /// Structural invariants (also enforced when decoding artifacts): finite
    /// params, non-negative Platt slope, strictly increasing isotonic edges
    /// with nondecreasing probabilities.
    pub fn validate(&self) -> Result<()> {
        let bad = |what: &str| Err(MlError::Invalid(format!("invalid calibrator: {what}")));
        match self {
            Calibrator::Platt { a, b } => {
                if !a.is_finite() || !b.is_finite() {
                    return bad("non-finite platt params");
                }
                if *a < 0.0 {
                    return bad("negative platt slope breaks monotonicity");
                }
            }
            Calibrator::Isotonic { xs, ps } => {
                if xs.is_empty() || xs.len() != ps.len() {
                    return bad("isotonic edge/probability lengths disagree or are empty");
                }
                if xs.iter().any(|x| !x.is_finite()) || ps.iter().any(|p| !p.is_finite()) {
                    return bad("non-finite isotonic params");
                }
                if xs.windows(2).any(|w| w[0] >= w[1]) {
                    return bad("isotonic edges must be strictly increasing");
                }
                if ps.windows(2).any(|w| w[0] > w[1]) {
                    return bad("isotonic probabilities must be nondecreasing");
                }
            }
        }
        Ok(())
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// One stage of a cascade: a model, its margin calibrator, and the
/// confidence threshold at which it may answer a row itself.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeTier {
    /// The tier's classifier (any family, including subset projections and
    /// quantized payloads).
    pub model: AnyClassifier,
    /// Margin→probability map for this tier's decision values.
    pub calibrator: Calibrator,
    /// Short-circuit when calibrated confidence ≥ this (`0.0` = always
    /// answer, `1.0` = never). Ignored on the last tier, which always
    /// answers.
    pub threshold: f64,
}

/// An ordered list of tiers sharing one feature contract. Rows enter at
/// tier 0 and escalate while confidence stays below the tier threshold;
/// the last tier always answers.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeModel {
    /// Tiers, cheapest first. `1..=MAX_TIERS` entries.
    pub tiers: Vec<CascadeTier>,
}

/// Flat per-row output of a tiered batch prediction, in global row order.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredPrediction {
    /// Final label per row.
    pub labels: Vec<bool>,
    /// Index of the tier that answered each row.
    pub tiers: Vec<u8>,
    /// Calibrated confidence of the answering tier, per row.
    pub confidence: Vec<f64>,
}

impl TieredPrediction {
    /// Rows answered per tier, as fixed [`MAX_TIERS`] slots.
    pub fn tier_histogram(&self) -> [u64; MAX_TIERS] {
        let mut h = [0u64; MAX_TIERS];
        for &t in &self.tiers {
            h[(t as usize).min(MAX_TIERS - 1)] += 1;
        }
        h
    }
}

impl CascadeModel {
    /// Builds a cascade, checking tier count, thresholds and calibrators.
    pub fn new(tiers: Vec<CascadeTier>) -> Result<CascadeModel> {
        let c = CascadeModel { tiers };
        c.validate()?;
        Ok(c)
    }

    /// Structural invariants (also enforced when decoding artifacts).
    pub fn validate(&self) -> Result<()> {
        if self.tiers.is_empty() || self.tiers.len() > MAX_TIERS {
            return Err(MlError::Invalid(format!(
                "cascade needs 1..={MAX_TIERS} tiers, got {}",
                self.tiers.len()
            )));
        }
        for (i, tier) in self.tiers.iter().enumerate() {
            if !(0.0..=1.0).contains(&tier.threshold) {
                return Err(MlError::Invalid(format!(
                    "cascade tier {i} threshold {} outside [0, 1]",
                    tier.threshold
                )));
            }
            tier.calibrator.validate()?;
            if matches!(tier.model, AnyClassifier::Cascade(_)) {
                return Err(MlError::Invalid(
                    "cascade tiers cannot themselves be cascades".into(),
                ));
            }
        }
        Ok(())
    }

    /// Per-row tiered walk: returns the answering tier's raw decision value
    /// (label = `value ≥ 0`), its index, and its calibrated confidence.
    /// The reference semantics every batched path must bit-match.
    pub fn decide_row_scratch(&self, row: &[u32], scratch: &mut Vec<u32>) -> (f64, u8, f64) {
        let last = self.tiers.len() - 1;
        for (t, tier) in self.tiers.iter().enumerate() {
            let s = tier.model.decision_value_scratch(row, scratch);
            let conf = tier.calibrator.confidence(s);
            if t == last || conf >= tier.threshold {
                return (s, t as u8, conf);
            }
        }
        unreachable!("last tier always answers")
    }

    /// Tiered prediction over **many row buffers at once** — the cascade
    /// counterpart of `AnyClassifier::predict_segments_sharded`. Tier 0
    /// scores the whole logical batch through the sharded kernels without
    /// copying any segment; rows whose calibrated confidence clears the
    /// tier threshold are answered in place, and only the ambiguous
    /// remainder is re-packed contiguously for the next tier. Output is in
    /// global row order (bit-identical to [`CascadeModel::decide_row_scratch`]
    /// per row, regardless of sharding or segmentation).
    pub fn predict_segments_tiered(
        &self,
        segments: &[&[u32]],
        d: usize,
        max_threads: usize,
        min_rows_per_shard: usize,
    ) -> TieredPrediction {
        assert!(d > 0, "d must be positive");
        let mut bounds = Vec::with_capacity(segments.len() + 1);
        let mut total = 0usize;
        for seg in segments {
            assert!(
                seg.len().is_multiple_of(d),
                "every segment must be n × d codes"
            );
            bounds.push(total);
            total += seg.len() / d;
        }
        bounds.push(total);

        let mut labels = vec![false; total];
        let mut tiers_out = vec![0u8; total];
        let mut conf_out = vec![0f64; total];
        // Global ids of rows still unanswered, and (past tier 0) their codes
        // re-packed contiguously in the same order.
        let mut active: Vec<usize> = (0..total).collect();
        let mut packed: Vec<u32> = Vec::new();
        let last = self.tiers.len() - 1;
        for (t, tier) in self.tiers.iter().enumerate() {
            if active.is_empty() {
                break;
            }
            let scores = if t == 0 {
                tier.model
                    .score_segments_sharded(segments, d, max_threads, min_rows_per_shard)
            } else {
                tier.model.score_segments_sharded(
                    &[packed.as_slice()],
                    d,
                    max_threads,
                    min_rows_per_shard,
                )
            };
            let mut next_active = Vec::new();
            let mut next_packed = Vec::new();
            for (k, &g) in active.iter().enumerate() {
                let s = scores[k];
                let conf = tier.calibrator.confidence(s);
                if t == last || conf >= tier.threshold {
                    labels[g] = s >= 0.0;
                    tiers_out[g] = t as u8;
                    conf_out[g] = conf;
                } else {
                    next_active.push(g);
                    // Locate row g's codes in the original segments.
                    let seg = bounds.partition_point(|&b| b <= g) - 1;
                    let lo = (g - bounds[seg]) * d;
                    next_packed.extend_from_slice(&segments[seg][lo..lo + d]);
                }
            }
            active = next_active;
            packed = next_packed;
        }
        TieredPrediction {
            labels,
            tiers: tiers_out,
            confidence: conf_out,
        }
    }

    /// Single-buffer convenience over [`CascadeModel::predict_segments_tiered`].
    pub fn predict_batch_tiered(
        &self,
        rows: &[u32],
        d: usize,
        max_threads: usize,
        min_rows_per_shard: usize,
    ) -> TieredPrediction {
        self.predict_segments_tiered(&[rows], d, max_threads, min_rows_per_shard)
    }
}

/// Picks the smallest threshold τ (maximizing short-circuit coverage) such
/// that among held-out rows with confidence ≥ τ, the fraction agreeing with
/// the top tier is ≥ `target_p`. Input is per-row `(confidence,
/// agrees_with_top)`. Returns `1.0` (never short-circuit) when no cut
/// meets the target.
pub fn pick_threshold(conf_agree: &[(f64, bool)], target_p: f64) -> f64 {
    let mut sorted = conf_agree.to_vec();
    sorted.sort_by(|l, r| r.0.partial_cmp(&l.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut best = 1.0f64;
    let mut agree = 0usize;
    let mut i = 0usize;
    while i < sorted.len() {
        let c = sorted[i].0;
        // Rows sharing a confidence value are indivisible: include them all.
        while i < sorted.len() && sorted[i].0 == c {
            agree += usize::from(sorted[i].1);
            i += 1;
        }
        if agree as f64 >= target_p * i as f64 {
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{CatDataset, FeatureMeta, Provenance};
    use crate::model::{Classifier, MajorityClass};
    use crate::naive_bayes::NaiveBayes;
    use crate::tree::{DecisionTree, SplitCriterion, TreeParams};

    fn ds(seed: u64, n: usize) -> CatDataset {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let d = 3usize;
        let k = 4u32;
        let features: Vec<FeatureMeta> = (0..d)
            .map(|j| FeatureMeta::new(format!("f{j}"), k, Provenance::Home))
            .collect();
        let rows: Vec<u32> = (0..n * d).map(|_| rng.gen_range(0..k)).collect();
        // Learnable signal: label correlates with feature 0.
        let labels: Vec<bool> = (0..n)
            .map(|i| rows[i * d].is_multiple_of(2) ^ rng.gen_bool(0.1))
            .collect();
        CatDataset::new(features, rows, labels).unwrap()
    }

    fn two_tier(t0_threshold: f64) -> (CascadeModel, CatDataset) {
        let data = ds(11, 200);
        let tree = DecisionTree::fit(
            &data,
            TreeParams::new(SplitCriterion::Gini)
                .with_minsplit(2)
                .with_cp(0.0),
        )
        .unwrap();
        let nb = NaiveBayes::fit(&data).unwrap();
        let tree: AnyClassifier = tree.into();
        let scores: Vec<f64> = (0..data.n_rows())
            .map(|i| tree.decision_value(data.row(i)))
            .collect();
        let labels: Vec<bool> = (0..data.n_rows()).map(|i| data.label(i)).collect();
        let cal0 = Calibrator::fit_platt(&scores, &labels).unwrap();
        let cascade = CascadeModel::new(vec![
            CascadeTier {
                model: tree,
                calibrator: cal0,
                threshold: t0_threshold,
            },
            CascadeTier {
                model: nb.into(),
                calibrator: Calibrator::Platt { a: 1.0, b: 0.0 },
                threshold: 1.0,
            },
        ])
        .unwrap();
        (cascade, data)
    }

    #[test]
    fn platt_fit_is_monotone_and_calibrated() {
        let scores: Vec<f64> = (-50..=50).map(|i| f64::from(i) / 10.0).collect();
        let labels: Vec<bool> = scores.iter().map(|&s| s > 0.0).collect();
        let c = Calibrator::fit_platt(&scores, &labels).unwrap();
        let Calibrator::Platt { a, .. } = c else {
            panic!("platt fit returns platt")
        };
        assert!(a > 0.0, "separable data fits a positive slope, got {a}");
        assert!(c.calibrate(3.0) > 0.9);
        assert!(c.calibrate(-3.0) < 0.1);
    }

    #[test]
    fn isotonic_fit_pools_violators() {
        // Noisy but increasing relationship.
        let scores = [-3.0, -2.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0];
        let labels = [
            false, false, true, false, false, true, true, false, true, true,
        ];
        let c = Calibrator::fit_isotonic(&scores, &labels).unwrap();
        c.validate().unwrap();
        // Pooled output is nondecreasing over the whole real line.
        let mut prev = 0.0;
        for i in -40..=40 {
            let p = c.calibrate(f64::from(i) / 10.0);
            assert!(p >= prev, "isotonic output decreased at {i}");
            prev = p;
        }
    }

    #[test]
    fn confidence_stays_inside_half_open_unit() {
        for c in [
            Calibrator::Platt { a: 100.0, b: 0.0 },
            Calibrator::Isotonic {
                xs: vec![0.0],
                ps: vec![1.0],
            },
        ] {
            for s in [-1e9, -1.0, 0.0, 1.0, 1e9] {
                let conf = c.confidence(s);
                assert!((0.5..1.0).contains(&conf), "conf {conf} for s {s}");
            }
        }
    }

    #[test]
    fn batched_tiered_bitmatches_per_row_walk() {
        let (cascade, data) = two_tier(0.9);
        let mut flat = Vec::new();
        for i in 0..data.n_rows() {
            flat.extend_from_slice(data.row(i));
        }
        let d = data.n_features();
        let expect: Vec<(f64, u8, f64)> = (0..data.n_rows())
            .map(|i| cascade.decide_row_scratch(data.row(i), &mut Vec::new()))
            .collect();
        assert!(
            expect.iter().any(|e| e.1 == 0) && expect.iter().any(|e| e.1 == 1),
            "threshold 0.9 should split rows across both tiers"
        );
        for threads in [1, 2, 8] {
            for floor in [1, 16, usize::MAX] {
                let got = cascade.predict_batch_tiered(&flat, d, threads, floor);
                for (i, e) in expect.iter().enumerate() {
                    assert_eq!(got.labels[i], e.0 >= 0.0, "row {i}");
                    assert_eq!(got.tiers[i], e.1, "row {i}");
                    assert_eq!(got.confidence[i].to_bits(), e.2.to_bits(), "row {i}");
                }
            }
        }
        // Ragged segmentation never changes the answers, only the packing.
        let refs: Vec<&[u32]> = (0..data.n_rows()).map(|i| data.row(i)).collect();
        let got = cascade.predict_segments_tiered(&refs, d, 4, 2);
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(got.labels[i], e.0 >= 0.0, "segmented row {i}");
            assert_eq!(got.tiers[i], e.1, "segmented row {i}");
        }
    }

    #[test]
    fn threshold_zero_is_tier0_and_threshold_one_is_top_tier() {
        let (zero, data) = two_tier(0.0);
        let (one, _) = two_tier(1.0);
        let d = data.n_features();
        let mut flat = Vec::new();
        for i in 0..data.n_rows() {
            flat.extend_from_slice(data.row(i));
        }
        let z = zero.predict_batch_tiered(&flat, d, 2, 8);
        let tier0 = zero.tiers[0].model.predict_batch(&flat, d);
        assert_eq!(z.labels, tier0, "threshold 0 ⇒ tier-0 labels");
        assert!(z.tiers.iter().all(|&t| t == 0));
        let o = one.predict_batch_tiered(&flat, d, 2, 8);
        let top = one.tiers[1].model.predict_batch(&flat, d);
        assert_eq!(o.labels, top, "threshold 1 ⇒ top-tier labels");
        assert!(o.tiers.iter().all(|&t| t == 1));
    }

    #[test]
    fn pick_threshold_meets_target_with_max_coverage() {
        // 4 rows at conf .95 all agree; 4 rows at .8 half agree.
        let rows = [
            (0.95, true),
            (0.95, true),
            (0.95, true),
            (0.95, true),
            (0.8, true),
            (0.8, false),
            (0.8, true),
            (0.8, false),
        ];
        assert_eq!(pick_threshold(&rows, 1.0), 0.95);
        // 6/8 = .75 agreement at the .8 cut clears a .7 target.
        assert_eq!(pick_threshold(&rows, 0.7), 0.8);
        // Impossible target: never short-circuit.
        let none = [(0.9, false), (0.8, false)];
        assert_eq!(pick_threshold(&none, 0.5), 1.0);
        assert_eq!(pick_threshold(&[], 0.9), 1.0);
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(CascadeModel::new(vec![]).is_err());
        let tier = || CascadeTier {
            model: AnyClassifier::Majority(MajorityClass { positive: true }),
            calibrator: Calibrator::Platt { a: 1.0, b: 0.0 },
            threshold: 0.5,
        };
        assert!(CascadeModel::new(vec![tier(); MAX_TIERS + 1]).is_err());
        let mut bad = tier();
        bad.threshold = 1.5;
        assert!(CascadeModel::new(vec![bad]).is_err());
        let mut bad = tier();
        bad.calibrator = Calibrator::Platt { a: -1.0, b: 0.0 };
        assert!(CascadeModel::new(vec![bad]).is_err());
        let mut bad = tier();
        bad.calibrator = Calibrator::Isotonic {
            xs: vec![0.0, 0.0],
            ps: vec![0.2, 0.4],
        };
        assert!(CascadeModel::new(vec![bad]).is_err());
        // Nested cascades are rejected.
        let inner = CascadeModel::new(vec![tier()]).unwrap();
        let mut nested = tier();
        nested.model = AnyClassifier::Cascade(inner);
        assert!(CascadeModel::new(vec![nested]).is_err());
    }

    mod prop {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Both calibrator families stay monotone for arbitrary fits:
            /// a larger margin never calibrates to a smaller probability.
            #[test]
            fn fitted_calibrators_are_monotone(
                pairs in proptest::collection::vec(
                    (-50.0f64..50.0, 0i32..2), 2..80),
                probes in proptest::collection::vec(-60.0f64..60.0, 2..40),
            ) {
                let scores: Vec<f64> = pairs.iter().map(|p| p.0).collect();
                let labels: Vec<bool> = pairs.iter().map(|p| p.1 == 1).collect();
                let mut probes = probes;
                probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
                for cal in [
                    Calibrator::fit_platt(&scores, &labels).unwrap(),
                    Calibrator::fit_isotonic(&scores, &labels).unwrap(),
                ] {
                    cal.validate().unwrap();
                    let mut prev = 0.0f64;
                    for &s in &probes {
                        let p = cal.calibrate(s);
                        prop_assert!(p > 0.0 && p < 1.0, "p {} out of (0,1)", p);
                        prop_assert!(p >= prev, "calibrate({}) = {} < {}", s, p, prev);
                        prev = p;
                    }
                }
            }
        }
    }

    #[test]
    fn decision_values_are_sign_consistent_across_families() {
        let data = ds(23, 120);
        for model in crate::binenc::codec::tests_all_families(&data) {
            for i in 0..data.n_rows() {
                let s = model.decision_value(data.row(i));
                assert_eq!(
                    s >= 0.0,
                    model.predict_row(data.row(i)),
                    "family {} row {i}: decision {s}",
                    model.family()
                );
            }
        }
    }
}
