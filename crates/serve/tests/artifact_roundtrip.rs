//! Artifact roundtrip parity: train → save → load → *bitwise-identical*
//! predictions, for every model family the zoo can produce.

use std::path::PathBuf;

use hamlet_core::experiment::run_experiment_with_model;
use hamlet_core::feature_config::{build_splits, FeatureConfig};
use hamlet_core::model_zoo::{Budget, ModelSpec};
use hamlet_datagen::prelude::*;
use hamlet_ml::contract::FlatRows;
use hamlet_ml::model::Classifier;
use hamlet_serve::artifact::{ModelArtifact, TrainingMetadata, FORMAT_VERSION};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamlet-rt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Trains `spec` on a small OneXr star, persists it, reloads it, and checks
/// the reloaded model predicts identically on every test row.
fn roundtrip_spec(spec: ModelSpec, tag: &str) {
    let g = onexr::generate(OneXrParams {
        n_s: 240,
        n_r: 12,
        ..Default::default()
    });
    let config = FeatureConfig::NoJoin;
    let budget = Budget::quick();
    let trained = run_experiment_with_model(&g, spec, &config, &budget).unwrap();

    let artifact = ModelArtifact {
        format_version: FORMAT_VERSION,
        name: format!("rt-{tag}"),
        version: 1,
        model: trained.model,
        feature_config: config.clone(),
        contract: trained.contract,
        schema_fingerprint: g.star.fingerprint(),
        metadata: TrainingMetadata {
            dataset: "onexr".into(),
            spec,
            train_rows: g.n_train,
            metrics: trained.result,
        },
    };

    let dir = tmp_dir(tag);
    let path = artifact.save(&dir).unwrap();
    let reloaded = ModelArtifact::load(&path).unwrap();

    let data = build_splits(&g, &config).unwrap();
    let before = artifact.model.predict(&data.test);
    let after = reloaded.model.predict(&data.test);
    assert_eq!(
        before,
        after,
        "{} predictions drifted across save/load",
        spec.name()
    );
    // The loaded model is the same value, not merely an equivalent one.
    assert_eq!(artifact.model, reloaded.model, "{}", spec.name());
    assert_eq!(reloaded.schema_fingerprint, g.star.fingerprint());
    assert_eq!(
        reloaded.feature_fingerprint(),
        artifact.feature_fingerprint()
    );
    // The contract (with dictionaries) survives byte-for-byte: raw
    // labels decoded from the test rows re-encode to the original codes.
    assert_eq!(reloaded.contract, artifact.contract, "{}", spec.name());
    assert!(reloaded.contract.has_domains(), "{}", spec.name());
    let first = data.test.row(0);
    let labels = reloaded.contract.decode_row(first).unwrap();
    assert_eq!(
        reloaded
            .contract
            .encode_batch(&FlatRows::from_nested(&[labels], String::as_str))
            .unwrap(),
        first.to_vec()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tree_roundtrips_bit_exactly() {
    roundtrip_spec(ModelSpec::TreeGini, "tree");
}

#[test]
fn knn_roundtrips_bit_exactly() {
    roundtrip_spec(ModelSpec::OneNN, "knn");
}

#[test]
fn svm_roundtrips_bit_exactly() {
    roundtrip_spec(ModelSpec::SvmRbf, "svm");
}

#[test]
fn ann_roundtrips_bit_exactly() {
    roundtrip_spec(ModelSpec::Ann, "ann");
}

#[test]
fn nb_bfs_subset_roundtrips_bit_exactly() {
    roundtrip_spec(ModelSpec::NaiveBayesBfs, "nb");
}

#[test]
fn logreg_roundtrips_bit_exactly() {
    roundtrip_spec(ModelSpec::LogRegL1, "logreg");
}

#[test]
fn loaded_artifact_serves_full_domain_without_panicking() {
    // Beyond parity on the test split: sweep every FK code in the domain
    // (seen or unseen in training) through the reloaded model.
    let g = onexr::generate(OneXrParams {
        n_s: 200,
        n_r: 10,
        ..Default::default()
    });
    let config = FeatureConfig::NoJoin;
    let trained =
        run_experiment_with_model(&g, ModelSpec::TreeGini, &config, &Budget::quick()).unwrap();
    let contract = trained.contract.clone();
    let d = contract.width();
    let fk_col = contract
        .features()
        .iter()
        .position(|f| {
            matches!(
                f.provenance,
                hamlet_ml::dataset::Provenance::ForeignKey { .. }
            )
        })
        .unwrap();
    let artifact = ModelArtifact {
        format_version: FORMAT_VERSION,
        name: "domain-sweep".into(),
        version: 1,
        model: trained.model,
        feature_config: config,
        contract,
        schema_fingerprint: g.star.fingerprint(),
        metadata: TrainingMetadata {
            dataset: "onexr".into(),
            spec: ModelSpec::TreeGini,
            train_rows: g.n_train,
            metrics: trained.result,
        },
    };
    let dir = tmp_dir("sweep");
    let reloaded = ModelArtifact::load(&artifact.save(&dir).unwrap()).unwrap();
    for code in 0..10u32 {
        let mut row = vec![0u32; d];
        row[fk_col] = code;
        artifact.validate_coded(&[row.clone()]).unwrap();
        let a = artifact.model.predict_row(&row);
        let b = reloaded.model.predict_row(&row);
        assert_eq!(a, b, "fk code {code}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
