//! Raw-string ingest parity: for **every model family**, an artifact
//! saved to disk and warm-loaded back serves `rows_raw` (label strings,
//! dictionary-encoded server-side) with predictions bit-identical to the
//! equivalent pre-encoded `rows` — and both match the in-process model.
//! Plus a proptest that `encode(decode(codes)) == codes` under the
//! artifact's contract.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use hamlet_core::feature_config::{build_dataset, FeatureConfig};
use hamlet_datagen::prelude::*;
use hamlet_ml::ann::{AnnParams, Mlp};
use hamlet_ml::any::{AnyClassifier, SubsetModel};
use hamlet_ml::contract::FlatRows;
use hamlet_ml::dataset::CatDataset;
use hamlet_ml::knn::OneNearestNeighbor;
use hamlet_ml::logreg::{LogRegL1, LogRegParams};
use hamlet_ml::model::MajorityClass;
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_ml::svm::{KernelKind, SvmModel, SvmParams};
use hamlet_ml::tree::{DecisionTree, SplitCriterion, TreeParams};
use hamlet_serve::api::{PredictRequest, PredictResponse};
use hamlet_serve::artifact::{ModelArtifact, TrainingMetadata, FORMAT_VERSION};
use hamlet_serve::http::{Request, Response};
use hamlet_serve::server::{router, AppState};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamlet-raw-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A small star-schema dataset whose contract carries real dictionaries.
fn contracted_dataset() -> CatDataset {
    let g = onexr::generate(OneXrParams {
        n_s: 160,
        n_r: 8,
        ..Default::default()
    });
    build_dataset(&g.star, &FeatureConfig::NoJoin).unwrap()
}

/// One quickly-fit model per `AnyClassifier` family.
fn all_families(ds: &CatDataset) -> Vec<AnyClassifier> {
    vec![
        MajorityClass::fit(ds).into(),
        DecisionTree::fit(
            ds,
            TreeParams::new(SplitCriterion::Gini)
                .with_minsplit(2)
                .with_cp(0.0),
        )
        .unwrap()
        .into(),
        OneNearestNeighbor::fit(ds).unwrap().into(),
        SvmModel::fit(ds, SvmParams::new(KernelKind::Rbf { gamma: 0.5 }, 5.0))
            .unwrap()
            .into(),
        NaiveBayes::fit(ds).unwrap().into(),
        LogRegL1::fit_single(
            ds,
            1e-3,
            LogRegParams {
                max_iter: 40,
                ..Default::default()
            },
        )
        .unwrap()
        .into(),
        Mlp::fit(
            ds,
            AnnParams {
                epochs: 3,
                ..AnnParams::small(1e-4, 0.01)
            },
        )
        .unwrap()
        .into(),
        SubsetModel {
            keep: vec![0, ds.n_features() - 1],
            inner: Box::new(
                NaiveBayes::fit(&ds.select_features(&[0, ds.n_features() - 1]).unwrap())
                    .unwrap()
                    .into(),
            ),
        }
        .into(),
    ]
}

fn artifact_for(name: &str, model: AnyClassifier, ds: &CatDataset) -> ModelArtifact {
    ModelArtifact {
        format_version: FORMAT_VERSION,
        name: name.into(),
        version: 1,
        model,
        feature_config: FeatureConfig::NoJoin,
        contract: ds.contract(),
        schema_fingerprint: 0xFEED,
        metadata: TrainingMetadata {
            dataset: "onexr".into(),
            spec: hamlet_core::model_zoo::ModelSpec::TreeGini,
            train_rows: ds.n_rows(),
            metrics: hamlet_core::experiment::RunResult {
                model: "n/a".into(),
                config: "NoJoin".into(),
                train_accuracy: 0.0,
                val_accuracy: 0.0,
                test_accuracy: 0.0,
                seconds: 0.0,
                winner: String::new(),
            },
        },
    }
}

fn post_predict(handler: &hamlet_serve::http::Handler, body: &str) -> (u16, String) {
    let (responder, rx) = hamlet_serve::http::Responder::direct();
    handler(
        &Request {
            method: "POST".into(),
            path: "/v1/predict".into(),
            query: String::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: false,
        },
        responder,
    );
    let resp: Response = rx.recv().expect("handler answered");
    (resp.status, String::from_utf8(resp.body).unwrap())
}

#[test]
fn rows_raw_bitmatches_rows_for_every_model_family() {
    use rand::{Rng, SeedableRng};

    let ds = contracted_dataset();
    let contract = ds.contract();
    let dir = tmp_dir("families");
    let models = all_families(&ds);
    for (i, model) in models.iter().enumerate() {
        artifact_for(&format!("fam{i}"), model.clone(), &ds)
            .save(&dir)
            .unwrap();
    }

    // Warm-load everything back from disk: the served contract is the one
    // that survived the save/load roundtrip, not the in-memory original.
    let (state, loaded) = AppState::warm(dir.clone()).unwrap();
    assert_eq!(loaded, models.len());
    let handler = router(Arc::clone(&state));

    // Random in-domain probe rows, well past the training data.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
    let cards = ds.cardinalities();
    let rows: Vec<Vec<u32>> = (0..64)
        .map(|_| cards.iter().map(|&k| rng.gen_range(0..k)).collect())
        .collect();
    let rows_raw: Vec<Vec<String>> = rows
        .iter()
        .map(|r| contract.decode_row(r).unwrap())
        .collect();
    let flat: Vec<u32> = rows.iter().flatten().copied().collect();

    for (i, model) in models.iter().enumerate() {
        let name = format!("fam{i}");
        let expected = model.predict_batch(&flat, ds.n_features());

        let (status, body) = post_predict(
            &handler,
            &serde_json::to_string(&PredictRequest {
                model: name.clone(),
                rows: Some(rows.clone()),
                rows_raw: None,
            })
            .unwrap(),
        );
        assert_eq!(status, 200, "family {} coded: {body}", model.family());
        let coded: PredictResponse = serde_json::from_str(&body).unwrap();

        let (status, body) = post_predict(
            &handler,
            &serde_json::to_string(&PredictRequest {
                model: name,
                rows: None,
                rows_raw: Some(rows_raw.clone()),
            })
            .unwrap(),
        );
        assert_eq!(status, 200, "family {} raw: {body}", model.family());
        let raw: PredictResponse = serde_json::from_str(&body).unwrap();

        assert_eq!(
            coded.labels,
            expected,
            "family {} HTTP vs in-process",
            model.family()
        );
        assert_eq!(
            raw.labels,
            expected,
            "family {} raw-string vs pre-encoded",
            model.family()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unseen_labels_follow_open_closed_domain_rules() {
    // A contract mixing open and closed domains, served end to end.
    let ds = contracted_dataset();
    let dir = tmp_dir("openclosed");
    artifact_for("oc", MajorityClass::fit(&ds).into(), &ds)
        .save(&dir)
        .unwrap();
    let (state, _) = AppState::warm(dir.clone()).unwrap();
    let handler = router(Arc::clone(&state));
    let artifact = state.registry.get("oc").unwrap();

    // OneXr domains are closed (no Others slot): an unseen label must 4xx
    // and the error must name the row and feature.
    let d = artifact.contract.width();
    let mut good = Vec::new();
    for j in 0..d {
        good.push(artifact.contract.decode_row(&vec![0; d]).unwrap()[j].clone());
    }
    let mut bad = good.clone();
    bad[1] = "never-seen-label".into();
    let (status, body) = post_predict(
        &handler,
        &serde_json::to_string(&PredictRequest {
            model: "oc".into(),
            rows: None,
            rows_raw: Some(vec![good.clone(), bad]),
        })
        .unwrap(),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("row 1"), "{body}");
    assert!(body.contains(&artifact.contract.feature(1).name), "{body}");

    // Swap feature 1's domain for an open one (Others slot): the same
    // unseen label now encodes to Others and predicts fine.
    let mut features = artifact.contract.features().to_vec();
    let open = hamlet_relation::domain::CatDomain::new(
        "open",
        (0..features[1].cardinality - 1)
            .map(|i| format!("v{i}"))
            .chain(std::iter::once(
                hamlet_relation::domain::OTHERS_LABEL.to_string(),
            ))
            .collect(),
    )
    .unwrap()
    .into_shared();
    features[1] = hamlet_ml::dataset::FeatureMeta::with_domain(
        features[1].name.clone(),
        features[1].provenance,
        open,
    );
    let mut open_artifact = artifact_for("oc-open", MajorityClass::fit(&ds).into(), &ds);
    open_artifact.contract = hamlet_ml::contract::FeatureContract::new(features).unwrap();
    state.registry.insert(open_artifact);
    let mut bad_again = good;
    bad_again[1] = "never-seen-label".into();
    let (status, body) = post_predict(
        &handler,
        &serde_json::to_string(&PredictRequest {
            model: "oc-open".into(),
            rows: None,
            rows_raw: Some(vec![bad_again]),
        })
        .unwrap(),
    );
    assert_eq!(status, 200, "open domain absorbs unseen labels: {body}");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `encode(decode(codes)) == codes` under a saved artifact's contract, for
    /// arbitrary in-domain code rows.
    #[test]
    fn encode_decode_roundtrips_under_artifact_contract(seed in 0u64..10_000) {
        use rand::{Rng, SeedableRng};

        let ds = contracted_dataset();
        let dir = tmp_dir(&format!("prop{seed}"));
        let art = artifact_for("prop", MajorityClass::fit(&ds).into(), &ds);
        let reloaded = ModelArtifact::load(&art.save(&dir).unwrap()).unwrap();
        let contract = &reloaded.contract;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cards = ds.cardinalities();
        let codes: Vec<u32> = cards.iter().map(|&k| rng.gen_range(0..k)).collect();
        let labels = contract.decode_row(&codes).unwrap();
        let back = contract.encode_batch(&FlatRows::from_nested(&[labels], String::as_str)).unwrap();
        prop_assert_eq!(back, codes);
        std::fs::remove_dir_all(&dir).ok();
    }
}
