//! Monte-Carlo simulation harness (§4): average test error and net
//! variance over repeated training sets drawn from a fixed distribution.
//!
//! The paper's protocol: fix the true distribution (the dimension table /
//! TPT — the generators' `dist_seed`), draw `runs` independent training
//! datasets, tune + fit the model on each, evaluate every fitted model on
//! one *shared* test sample, and decompose the error per Domingos
//! ([`crate::bias_variance`]). The paper uses 100 runs; the harness takes
//! the count as a parameter (`reproduce` honours `HAMLET_RUNS`).

use hamlet_datagen::sim::GeneratedStar;
use hamlet_ml::error::Result;
use hamlet_ml::model::Classifier;

use crate::bias_variance::{decompose, BiasVariance};
use crate::feature_config::{build_dataset, build_splits, FeatureConfig};
use crate::model_zoo::{Budget, ModelSpec};

/// One scenario point: the decomposition for a (model, config) pair.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MonteCarloPoint {
    /// Feature configuration evaluated.
    pub config: String,
    /// Model evaluated.
    pub model: String,
    /// The Domingos decomposition across runs.
    pub result: BiasVariance,
    /// Each run's 0/1 error on the shared evaluation set, in run order.
    /// Configs run with the same `base_seed` share both the training draws
    /// and the evaluation set, so these pair up run by run across configs.
    pub run_errors: Vec<f64>,
}

/// Runs the Monte-Carlo protocol for one (model, config) pair.
///
/// * `generate(sample_seed)` — produces a [`GeneratedStar`] whose *example
///   sampling* depends on the seed while the true distribution stays fixed
///   (use the generators' `dist_seed` for that).
/// * `bayes` — optional Bayes-optimal predictions for the shared star's
///   *test rows* (simulations know the true distribution; see
///   [`onexr_bayes`] / [`xsxr_bayes`]).
pub fn run_monte_carlo<G, B>(
    generate: G,
    bayes: B,
    runs: usize,
    spec: ModelSpec,
    config: &FeatureConfig,
    budget: &Budget,
    base_seed: u64,
) -> Result<MonteCarloPoint>
where
    G: Fn(u64) -> GeneratedStar,
    B: Fn(&GeneratedStar) -> Option<Vec<bool>>,
{
    // Shared evaluation sample (its own seed, never reused for training).
    let eval_star = generate(base_seed ^ 0x7E57_7E57);
    let eval_full = build_dataset(&eval_star.star, config)?;
    let eval_test = eval_full.subset(&eval_star.test_idx());
    let optimal = bayes(&eval_star);

    let mut predictions = Vec::with_capacity(runs);
    for k in 0..runs {
        let star_k = generate(base_seed.wrapping_add(1 + k as u64));
        let data = build_splits(&star_k, config)?;
        let tuned = spec.fit_tuned(&data.train, &data.val, budget)?;
        predictions.push(tuned.model.predict(&eval_test));
    }
    let labels = eval_test.labels();
    let result = decompose(&predictions, labels, optimal.as_deref())?;
    let run_errors = predictions
        .iter()
        .map(|p| p.iter().zip(labels).filter(|(a, b)| a != b).count() as f64 / labels.len() as f64)
        .collect();
    Ok(MonteCarloPoint {
        config: config.name(),
        model: spec.name().to_string(),
        result,
        run_errors,
    })
}

/// Bayes-optimal predictions for `OneXr`/`RepOneXr` test rows: the label
/// preferred by `X_r` under flip-noise `p` (`P(Y=1 | X_r = v) = p` for odd
/// `v`, `1 − p` for even `v`).
pub fn onexr_bayes(gs: &GeneratedStar, p: f64) -> Option<Vec<bool>> {
    let joined = gs.star.materialize_all().ok()?;
    let xr = joined.column("xr0").ok()?.codes().to_vec();
    let preds = gs
        .test_idx()
        .into_iter()
        .map(|i| {
            let v = xr[i];
            let p_pos = if v % 2 == 1 { p } else { 1.0 - p };
            p_pos >= 0.5
        })
        .collect();
    Some(preds)
}

/// Bayes-optimal predictions for `XSXR` test rows: the scenario is
/// noise-free (`H(Y|X) = 0`), so the observed labels *are* optimal.
pub fn xsxr_bayes(gs: &GeneratedStar) -> Option<Vec<bool>> {
    let y = gs.star.fact().target_as_bool().ok()?;
    Some(gs.test_idx().into_iter().map(|i| y[i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_datagen::prelude::*;

    fn onexr_gen(n_s: usize) -> impl Fn(u64) -> GeneratedStar {
        move |seed| {
            onexr::generate(OneXrParams {
                n_s,
                seed,
                ..Default::default()
            })
        }
    }

    #[test]
    fn tree_nojoin_tracks_joinall_on_onexr() {
        // The headline simulation finding (Figure 2): with a healthy tuple
        // ratio (1000/40 = 25), the tree's NoJoin error ≈ JoinAll error ≈
        // Bayes error (0.1).
        let budget = Budget::quick();
        let p = 0.1;
        let joinall = run_monte_carlo(
            onexr_gen(600),
            |gs| onexr_bayes(gs, p),
            8,
            ModelSpec::TreeGini,
            &FeatureConfig::JoinAll,
            &budget,
            77,
        )
        .unwrap();
        let nojoin = run_monte_carlo(
            onexr_gen(600),
            |gs| onexr_bayes(gs, p),
            8,
            ModelSpec::TreeGini,
            &FeatureConfig::NoJoin,
            &budget,
            77,
        )
        .unwrap();
        assert!(
            (joinall.result.avg_error - nojoin.result.avg_error).abs() < 0.05,
            "JoinAll {} vs NoJoin {}",
            joinall.result.avg_error,
            nojoin.result.avg_error
        );
        assert!(
            nojoin.result.avg_error < 0.25,
            "{}",
            nojoin.result.avg_error
        );
    }

    #[test]
    fn decomposition_identity_without_label_noise() {
        // XSXR is noise-free: error = bias + net variance must hold exactly.
        let budget = Budget::quick();
        let point = run_monte_carlo(
            |seed| {
                xsxr::generate(XsXrParams {
                    n_s: 400,
                    seed,
                    ..Default::default()
                })
            },
            xsxr_bayes,
            6,
            ModelSpec::TreeGini,
            &FeatureConfig::JoinAll,
            &budget,
            13,
        )
        .unwrap();
        let r = point.result;
        assert!(
            (r.avg_error - (r.bias + r.net_variance)).abs() < 1e-9,
            "identity violated: {r:?}"
        );
        // The per-run errors average to the decomposition's error.
        assert_eq!(point.run_errors.len(), 6);
        let mean = point.run_errors.iter().sum::<f64>() / 6.0;
        assert!((mean - r.avg_error).abs() < 1e-12, "{mean} vs {r:?}");
    }

    #[test]
    fn bayes_helpers_align_with_test_rows() {
        let g = onexr::generate(OneXrParams {
            n_s: 200,
            ..Default::default()
        });
        let preds = onexr_bayes(&g, 0.1).unwrap();
        assert_eq!(preds.len(), g.n_test);
        let g2 = xsxr::generate(XsXrParams {
            n_s: 200,
            ..Default::default()
        });
        let preds2 = xsxr_bayes(&g2).unwrap();
        assert_eq!(preds2.len(), g2.n_test);
    }
}
