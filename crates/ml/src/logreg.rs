//! L1-regularized logistic regression over sparse one-hot features.
//!
//! Emulates the paper's `glmnet` usage (§3.2): a descending lambda path
//! (`nlambda` points from the analytic λ_max down to a fraction of it) with
//! warm starts, accelerated proximal-gradient (FISTA) inner solves with
//! adaptive restart and backtracking, and validation-set selection of the
//! final lambda. The intercept is never penalised, matching glmnet.
//!
//! Under a KFK join every foreign feature is a function of its FK, so
//! training rows repeat. The loss passes group identical rows into classes:
//! `z`, `exp`, `ln_1p` and `σ(z)` are evaluated once per class, then the
//! rows are walked in their original order for the loss sum and the
//! gradient scatter. Every sum keeps its per-row order, so the iterates are
//! bit-identical to per-row passes.

use std::collections::HashMap;

use crate::binenc::PodVec;
use crate::dataset::CatDataset;
use crate::error::{MlError, Result};
use crate::model::Classifier;

/// Solver configuration (the paper sets `nlambda = 100`,
/// `thresh = 0.001`, `maxit = 10000`; our defaults are a faster path with
/// the same shape — pass the paper's values for full fidelity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogRegParams {
    /// Number of lambda-path points.
    pub nlambda: usize,
    /// `λ_min = λ_max · ratio`.
    pub lambda_min_ratio: f64,
    /// Maximum proximal-gradient iterations per lambda.
    pub max_iter: usize,
    /// Convergence threshold on the objective's relative change.
    pub tol: f64,
}

impl Default for LogRegParams {
    fn default() -> Self {
        Self {
            nlambda: 20,
            lambda_min_ratio: 1e-3,
            max_iter: 200,
            tol: 1e-5,
        }
    }
}

impl LogRegParams {
    /// The paper's glmnet settings (`nlambda = 100`, `maxit = 10000`).
    /// glmnet's `thresh = 0.001` is a coordinate-wise criterion; the
    /// equivalent objective-change tolerance for the FISTA solver is much
    /// tighter, hence `1e-7` here.
    pub fn paper() -> Self {
        Self {
            nlambda: 100,
            lambda_min_ratio: 1e-3,
            max_iter: 10_000,
            tol: 1e-7,
        }
    }
}

/// A fitted L1 logistic-regression model (weights live in one-hot space,
/// behind [`PodVec`] so mmap-loaded format-v3 artifacts score rows straight
/// out of the mapped file).
#[derive(Debug, Clone, PartialEq)]
pub struct LogRegL1 {
    pub(crate) offsets: PodVec<u32>,
    pub(crate) weights: PodVec<f64>,
    pub(crate) intercept: f64,
    /// The lambda selected on the validation split.
    pub lambda: f64,
}

/// Sparse design-matrix view of a dataset, grouped by distinct row.
///
/// Every foreign feature is a function of its FK, so training rows repeat:
/// `movies` at scale 4000 has about 345 distinct rows among its 2000. Rows
/// with identical codes form a class, numbered in first-seen order; the
/// loss passes evaluate `z`, `exp` and `ln_1p` once per class.
struct Design {
    /// Active one-hot indices of each class's row, `n_classes × d`.
    classes: Vec<u32>,
    /// Class of each row.
    class_of: Vec<u32>,
    d: usize,
    n: usize,
    /// Per class, the loss term `(max(z, 0) − z·y) + ln(1 + e^{−|z|})` for
    /// `y = 0` and `y = 1`; reused by every pass.
    loss: Vec<[f64; 2]>,
    /// Per class, the residual `σ(z) − y` for `y = 0` and `y = 1`.
    resid: Vec<[f64; 2]>,
}

impl Design {
    fn new(ds: &CatDataset) -> Self {
        let offsets = ds.onehot_offsets();
        let d = ds.n_features();
        let n = ds.n_rows();
        let mut seen: HashMap<&[u32], u32> = HashMap::new();
        let mut classes = Vec::new();
        let mut class_of = Vec::with_capacity(n);
        for i in 0..n {
            let codes = ds.row(i);
            let next = seen.len() as u32;
            let class = *seen.entry(codes).or_insert_with(|| {
                classes.extend(codes.iter().zip(&offsets).map(|(&c, &o)| o + c));
                next
            });
            class_of.push(class);
        }
        let k = seen.len();
        Self {
            classes,
            class_of,
            d,
            n,
            loss: vec![[0.0; 2]; k],
            resid: vec![[0.0; 2]; k],
        }
    }

    #[inline]
    fn class_row(&self, c: u32) -> &[u32] {
        let c = c as usize;
        &self.classes[c * self.d..(c + 1) * self.d]
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        self.class_row(self.class_of[i])
    }

    /// Fills the per-class loss terms at (w, b), and the residuals too when
    /// `resid` is set. `z` sums `b` then the weights in feature order, like
    /// a per-row pass, so identical rows get identical bits.
    fn eval_classes(&mut self, w: &[f64], b: f64, resid: bool) {
        let d = self.d;
        for c in 0..self.loss.len() {
            let mut z = b;
            for &idx in &self.classes[c * d..(c + 1) * d] {
                z += w[idx as usize];
            }
            let zmax = z.max(0.0);
            let l = (-z.abs()).exp().ln_1p();
            // Stable BCE-with-logits, with y as 0.0 and 1.0.
            self.loss[c] = [zmax - z * 0.0 + l, zmax - z * 1.0 + l];
            if resid {
                let s = sigmoid(z);
                self.resid[c] = [s - 0.0, s - 1.0];
            }
        }
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Mean logistic loss and gradient at (w, b). `grad` must be zeroed by the
/// caller; the intercept gradient is returned. The per-class terms come
/// first; the row walk then sums in row order, as a per-row pass would.
fn loss_grad(design: &mut Design, y: &[bool], w: &[f64], b: f64, grad: &mut [f64]) -> (f64, f64) {
    design.eval_classes(w, b, true);
    let n = design.n as f64;
    let mut loss = 0.0;
    let mut grad_b = 0.0;
    for (&c, &yi) in design.class_of.iter().zip(y) {
        let yi = usize::from(yi);
        loss += design.loss[c as usize][yi];
        let r = design.resid[c as usize][yi];
        for &idx in design.class_row(c) {
            grad[idx as usize] += r;
        }
        grad_b += r;
    }
    for g in grad.iter_mut() {
        *g /= n;
    }
    (loss / n, grad_b / n)
}

/// Mean logistic loss only.
fn loss_only(design: &mut Design, y: &[bool], w: &[f64], b: f64) -> f64 {
    design.eval_classes(w, b, false);
    let n = design.n as f64;
    let mut loss = 0.0;
    for (&c, &yi) in design.class_of.iter().zip(y) {
        loss += design.loss[c as usize][usize::from(yi)];
    }
    loss / n
}

#[inline]
fn soft_threshold(v: f64, t: f64) -> f64 {
    if v > t {
        v - t
    } else if v < -t {
        v + t
    } else {
        0.0
    }
}

/// One FISTA solve (accelerated proximal gradient with adaptive restart and
/// backtracking line search) at a fixed lambda. Acceleration matters here:
/// one-hot FK designs have thousands of weakly-correlated columns, and plain
/// ISTA needs orders of magnitude more iterations to fit the small-lambda
/// end of the path.
fn solve_lambda(
    design: &mut Design,
    y: &[bool],
    lambda: f64,
    w: &mut Vec<f64>,
    b: &mut f64,
    params: &LogRegParams,
) {
    let dim = w.len();
    let mut grad = vec![0.0f64; dim];
    let mut step = 1.0f64;
    let mut prev_obj = f64::INFINITY;
    // FISTA extrapolation state: z is the look-ahead point.
    let mut z = w.clone();
    let mut zb = *b;
    let mut t = 1.0f64;
    for _ in 0..params.max_iter {
        grad.iter_mut().for_each(|g| *g = 0.0);
        let (loss_z, grad_b) = loss_grad(design, y, &z, zb, &mut grad);

        // Backtracking on the majorisation at the extrapolated point. The
        // accepted candidate's loss is the new iterate's loss.
        let mut w_new = Vec::with_capacity(dim);
        let mut b_new = zb;
        let mut accepted = None;
        for _ in 0..30 {
            w_new.clear();
            for i in 0..dim {
                w_new.push(soft_threshold(z[i] - step * grad[i], step * lambda));
            }
            b_new = zb - step * grad_b;
            let new_loss = loss_only(design, y, &w_new, b_new);
            let mut quad = 0.0;
            let mut lin = 0.0;
            for i in 0..dim {
                let dw = w_new[i] - z[i];
                quad += dw * dw;
                lin += grad[i] * dw;
            }
            let db = b_new - zb;
            quad += db * db;
            lin += grad_b * db;
            if new_loss <= loss_z + lin + quad / (2.0 * step) + 1e-12 {
                accepted = Some(new_loss);
                break;
            }
            step *= 0.5;
        }
        let Some(new_loss) = accepted else {
            break; // step underflow: numerically converged
        };

        // Objective at the new iterate (for restart + convergence checks).
        let l1: f64 = w_new.iter().map(|v| v.abs()).sum();
        let obj = new_loss + lambda * l1;

        if obj > prev_obj + 1e-12 {
            // Adaptive restart: drop momentum and retry from the last
            // iterate (O'Donoghue & Candès).
            z.clone_from(w);
            zb = *b;
            t = 1.0;
            continue;
        }
        let converged = (prev_obj - obj).abs() <= params.tol * obj.abs().max(1e-12);
        prev_obj = obj;

        // Momentum update: z = w_new + ((t−1)/t_next)(w_new − w_old).
        let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        let beta = (t - 1.0) / t_next;
        for i in 0..dim {
            z[i] = w_new[i] + beta * (w_new[i] - w[i]);
        }
        zb = b_new + beta * (b_new - *b);
        t = t_next;
        *w = w_new;
        *b = b_new;
        if converged {
            break;
        }
        // Gentle growth so later iterations can re-lengthen the step.
        step = (step * 1.2).min(1.0e3);
    }
}

impl LogRegL1 {
    /// Fits at one fixed lambda (no path, no selection). Useful when the
    /// regularisation strength is known, and for testing the solver against
    /// closed-form expectations.
    pub fn fit_single(train: &CatDataset, lambda: f64, params: LogRegParams) -> Result<Self> {
        if train.n_rows() == 0 {
            return Err(MlError::Shape {
                detail: "cannot fit logistic regression on an empty dataset".into(),
            });
        }
        let mut design = Design::new(train);
        let y = train.labels();
        let mut w = vec![0.0f64; train.onehot_dim()];
        let ybar = (train.pos_count() as f64 / train.n_rows() as f64).clamp(1e-6, 1.0 - 1e-6);
        let mut b = (ybar / (1.0 - ybar)).ln();
        solve_lambda(&mut design, y, lambda.max(0.0), &mut w, &mut b, &params);
        Ok(Self {
            offsets: train.onehot_offsets().into(),
            weights: w.into(),
            intercept: b,
            lambda,
        })
    }

    /// Fits a lambda path on `train`, selecting the lambda with the best
    /// validation accuracy (ties → sparser model, i.e. larger lambda).
    pub fn fit_path(train: &CatDataset, val: &CatDataset, params: LogRegParams) -> Result<Self> {
        if train.n_rows() == 0 {
            return Err(MlError::Shape {
                detail: "cannot fit logistic regression on an empty dataset".into(),
            });
        }
        let mut design = Design::new(train);
        let y = train.labels();
        let dim = train.onehot_dim();
        let offsets = train.onehot_offsets();

        // λ_max: the smallest lambda with all-zero weights — with the
        // intercept fitted, that is max |∇loss(0, b*)|∞; we use the standard
        // glmnet surrogate max |⟨x_j, y − ȳ⟩| / n.
        let ybar = train.pos_count() as f64 / train.n_rows() as f64;
        let mut corr = vec![0.0f64; dim];
        #[allow(clippy::needless_range_loop)] // rows and labels are co-indexed
        for i in 0..design.n {
            let r = f64::from(u8::from(y[i])) - ybar;
            for &idx in design.row(i) {
                corr[idx as usize] += r;
            }
        }
        let lambda_max = corr
            .iter()
            .map(|c| c.abs() / design.n as f64)
            .fold(0.0f64, f64::max)
            .max(1e-9);

        let nl = params.nlambda.max(1);
        let ratio = params.lambda_min_ratio.clamp(1e-6, 1.0);
        let lambdas: Vec<f64> = (0..nl)
            .map(|k| {
                let f = if nl == 1 {
                    0.0
                } else {
                    k as f64 / (nl - 1) as f64
                };
                lambda_max * ratio.powf(f)
            })
            .collect();

        // Warm-started path from large to small lambda.
        let mut w = vec![0.0f64; dim];
        let mut b = (ybar.clamp(1e-6, 1.0 - 1e-6) / (1.0 - ybar.clamp(1e-6, 1.0 - 1e-6))).ln();
        let mut best: Option<(f64, LogRegL1)> = None;
        for &lambda in &lambdas {
            solve_lambda(&mut design, y, lambda, &mut w, &mut b, &params);
            let model = LogRegL1 {
                offsets: offsets.clone().into(),
                weights: w.clone().into(),
                intercept: b,
                lambda,
            };
            let acc = model.accuracy(val);
            if best.as_ref().is_none_or(|(a, _)| acc > *a) {
                best = Some((acc, model));
            }
        }
        Ok(best.expect("path has at least one lambda").1)
    }

    /// Warm-start refresh: continue the FISTA solve from this model's
    /// weights on fresh data, at the lambda already selected on the
    /// original validation split. This is the online-learning path — a few
    /// hundred labeled rows observed in production refine the artifact in
    /// milliseconds instead of re-running the full lambda path.
    pub fn fit_incremental(&self, train: &CatDataset, params: LogRegParams) -> Result<Self> {
        if train.n_rows() == 0 {
            return Err(MlError::Shape {
                detail: "cannot refresh logistic regression on an empty dataset".into(),
            });
        }
        if train.onehot_dim() != self.weights.len()
            || train.onehot_offsets().as_slice() != self.offsets.as_slice()
        {
            return Err(MlError::Shape {
                detail: format!(
                    "refresh data has one-hot dim {} but the model was trained with {}",
                    train.onehot_dim(),
                    self.weights.len()
                ),
            });
        }
        let mut design = Design::new(train);
        let mut w = self.weights.as_slice().to_vec();
        let mut b = self.intercept;
        solve_lambda(
            &mut design,
            train.labels(),
            self.lambda,
            &mut w,
            &mut b,
            &params,
        );
        Ok(Self {
            offsets: self.offsets.as_slice().to_vec().into(),
            weights: w.into(),
            intercept: b,
            lambda: self.lambda,
        })
    }

    /// Decision value (logit). The one-hot gather-sum runs on the
    /// dispatched kernels: AVX2 hosts use a vector gather for wide rows,
    /// everything else (and `HAMLET_FORCE_SCALAR`) takes the scalar
    /// reference path, which reproduces the historical accumulation order
    /// bit-for-bit.
    pub fn decision(&self, row: &[u32]) -> f64 {
        crate::kernels::onehot_dot_f64(
            self.intercept,
            &self.weights,
            &self.offsets[..row.len()],
            row,
        )
    }

    /// Number of non-zero one-hot weights (model sparsity readout).
    pub fn nnz(&self) -> usize {
        self.weights.iter().filter(|w| w.abs() > 1e-12).count()
    }

    /// Predicted probability of the positive class.
    pub fn probability(&self, row: &[u32]) -> f64 {
        sigmoid(self.decision(row))
    }
}

impl Classifier for LogRegL1 {
    fn predict_row(&self, row: &[u32]) -> bool {
        self.decision(row) >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{CatDataset, FeatureMeta, Provenance};
    use rand::{Rng, SeedableRng};

    fn meta(d: usize, k: u32) -> Vec<FeatureMeta> {
        (0..d)
            .map(|j| FeatureMeta::new(format!("f{j}"), k, Provenance::Home))
            .collect()
    }

    fn signal(n: usize, seed: u64) -> CatDataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let y = rng.gen_bool(0.5);
            let f0 = if rng.gen_bool(0.9) {
                u32::from(y)
            } else {
                u32::from(!y)
            };
            rows.push(f0);
            rows.push(rng.gen_range(0..4));
            labels.push(y);
        }
        CatDataset::new(meta(2, 4), rows, labels).unwrap()
    }

    /// The per-row passes the per-class ones replace: every row gathers its
    /// own one-hot indices and evaluates its own `z`, `exp`, `ln_1p`, `σ`.
    fn loss_grad_rows(ds: &CatDataset, w: &[f64], b: f64, grad: &mut [f64]) -> (f64, f64) {
        let offsets = ds.onehot_offsets();
        let n = ds.n_rows() as f64;
        let (mut loss, mut grad_b) = (0.0, 0.0);
        for (i, &label) in ds.labels().iter().enumerate() {
            let active: Vec<usize> = ds
                .row(i)
                .iter()
                .zip(&offsets)
                .map(|(&c, &o)| (o + c) as usize)
                .collect();
            let mut z = b;
            for &idx in &active {
                z += w[idx];
            }
            let yi = f64::from(u8::from(label));
            loss += z.max(0.0) - z * yi + (-z.abs()).exp().ln_1p();
            let r = sigmoid(z) - yi;
            for &idx in &active {
                grad[idx] += r;
            }
            grad_b += r;
        }
        for g in grad.iter_mut() {
            *g /= n;
        }
        (loss / n, grad_b / n)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn per_class_passes_match_per_row_passes_bitwise() {
        let mut r = rand::rngs::StdRng::seed_from_u64(31);
        // (rows, features, cardinality): heavy duplication, all-distinct
        // rows, one row, and row counts that are not a multiple of any
        // block size.
        let shapes = [
            (2000, 3, 3),
            (37, 2, 40),
            (1, 4, 5),
            (333, 5, 2),
            (129, 1, 7),
        ];
        for (n, d, k) in shapes {
            let codes: Vec<u32> = if n == 37 {
                (0..n as u32).flat_map(|i| [i, (i * 7) % 40]).collect()
            } else {
                (0..n * d).map(|_| r.gen_range(0..k)).collect()
            };
            let labels: Vec<bool> = (0..n).map(|_| r.gen_bool(0.4)).collect();
            let ds = CatDataset::new(meta(d, k), codes, labels).unwrap();
            let mut design = Design::new(&ds);
            let classes = design.loss.len();
            assert!(
                classes <= n && (n != 37 || classes == n),
                "{classes} classes"
            );
            let y = ds.labels();
            for trial in 0..4 {
                let mut w: Vec<f64> = (0..ds.onehot_dim())
                    .map(|_| r.gen::<f64>() * 6.0 - 3.0)
                    .collect();
                if trial == 1 {
                    w.iter_mut().step_by(2).for_each(|v| *v = 0.0);
                }
                let b = r.gen::<f64>() * 2.0 - 1.0;
                let mut want_grad = vec![0.0; w.len()];
                let want = loss_grad_rows(&ds, &w, b, &mut want_grad);
                let mut got_grad = vec![0.0; w.len()];
                let got = loss_grad(&mut design, y, &w, b, &mut got_grad);
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "loss n={n} d={d}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "grad_b n={n} d={d}");
                assert_eq!(bits(&got_grad), bits(&want_grad), "grad n={n} d={d}");
                let got_loss = loss_only(&mut design, y, &w, b);
                assert_eq!(
                    got_loss.to_bits(),
                    want.0.to_bits(),
                    "loss_only n={n} d={d}"
                );
            }
        }
    }

    #[test]
    fn fits_a_signal() {
        let train = signal(400, 1);
        let val = signal(200, 2);
        let test = signal(200, 3);
        let m = LogRegL1::fit_path(&train, &val, LogRegParams::default()).unwrap();
        assert!(m.accuracy(&test) > 0.8, "accuracy {}", m.accuracy(&test));
    }

    #[test]
    fn soft_threshold_math() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
    }

    #[test]
    fn lambda_path_controls_sparsity() {
        // At λ_max the weights are (near) zero; the selected model on a
        // strong signal keeps the signal weights non-zero.
        let train = signal(300, 4);
        let val = signal(150, 5);
        let m = LogRegL1::fit_path(&train, &val, LogRegParams::default()).unwrap();
        assert!(m.nnz() > 0);
        assert!(m.nnz() <= train.onehot_dim());
    }

    #[test]
    fn probabilities_are_calibratedish() {
        let train = signal(400, 6);
        let val = signal(200, 7);
        let m = LogRegL1::fit_path(&train, &val, LogRegParams::default()).unwrap();
        // Signal-positive row should have p > 0.5; signal-negative < 0.5.
        assert!(m.probability(&[1, 0]) > 0.5);
        assert!(m.probability(&[0, 0]) < 0.5);
    }

    #[test]
    fn near_unregularised_fit_recovers_empirical_rates() {
        // One binary feature with P(Y=1|x=1) = 0.8, P(Y=1|x=0) = 0.2 (even
        // i has residues {0,2,4,6,8}, odd i has {1,3,5,7,9}): with λ → 0
        // the logistic MLE's fitted probabilities match the empirical
        // conditional rates exactly.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..500 {
            let x = u32::from(i % 2 == 0);
            let y = if x == 1 { i % 10 < 8 } else { i % 10 < 3 };
            rows.push(x);
            labels.push(y);
        }
        let ds = CatDataset::new(meta(1, 2), rows, labels).unwrap();
        let m = LogRegL1::fit_single(
            &ds,
            1e-7,
            LogRegParams {
                max_iter: 2000,
                tol: 1e-12,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            (m.probability(&[1]) - 0.8).abs() < 0.01,
            "{}",
            m.probability(&[1])
        );
        assert!(
            (m.probability(&[0]) - 0.2).abs() < 0.01,
            "{}",
            m.probability(&[0])
        );
    }

    #[test]
    fn incremental_refresh_warm_starts_from_current_weights() {
        let train = signal(300, 8);
        let val = signal(150, 9);
        let base = LogRegL1::fit_path(&train, &val, LogRegParams::default()).unwrap();
        // Refresh on fresh rows from the same distribution: lambda is
        // carried over and accuracy stays in family.
        let fresh = signal(200, 10);
        let refreshed = base
            .fit_incremental(&fresh, LogRegParams::default())
            .unwrap();
        assert_eq!(refreshed.lambda, base.lambda);
        assert!(
            refreshed.accuracy(&fresh) > 0.8,
            "{}",
            refreshed.accuracy(&fresh)
        );
        // A shape-incompatible refresh set is rejected, not silently mis-fit.
        let narrow = CatDataset::new(meta(1, 4), vec![0, 1, 2], vec![true, false, true]).unwrap();
        assert!(base
            .fit_incremental(&narrow, LogRegParams::default())
            .is_err());
    }

    #[test]
    fn single_class_training_is_stable() {
        let ds = CatDataset::new(meta(1, 2), vec![0, 1, 0], vec![true, true, true]).unwrap();
        let m = LogRegL1::fit_path(&ds, &ds, LogRegParams::default()).unwrap();
        assert!(m.predict_row(&[0]));
        assert!(m.decision(&[1]).is_finite());
    }
}
