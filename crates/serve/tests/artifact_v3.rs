//! Format-v3 acceptance: the round-trip parity matrix (every model family
//! × heap/mmap load), raw weight storage, corruption handling, and legacy
//! JSON files being skipped by warm-load.

use std::path::PathBuf;
use std::sync::Arc;

use hamlet_core::experiment::RunResult;
use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::ModelSpec;
use hamlet_ml::ann::{AnnParams, Mlp};
use hamlet_ml::any::{AnyClassifier, SubsetModel};
use hamlet_ml::dataset::{CatDataset, FeatureMeta, Provenance};
use hamlet_ml::knn::OneNearestNeighbor;
use hamlet_ml::logreg::{LogRegL1, LogRegParams};
use hamlet_ml::model::{Classifier, MajorityClass};
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_ml::svm::{KernelKind, SvmModel, SvmParams};
use hamlet_ml::tree::{DecisionTree, SplitCriterion, TreeParams};
use hamlet_relation::domain::CatDomain;
use hamlet_serve::artifact::{LoadMode, ModelArtifact, TrainingMetadata, FORMAT_VERSION};
use hamlet_serve::registry::ModelRegistry;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamlet-v3-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A dataset whose features carry real dictionaries (one shared between
/// two features, the FK/RID pattern) so artifacts exercise dedup.
fn dict_dataset(seed: u64, n: usize) -> CatDataset {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let shared = CatDomain::synthetic("shared", 6).into_shared();
    let features = vec![
        FeatureMeta::with_domain("fk", Provenance::ForeignKey { dim: 0 }, Arc::clone(&shared)),
        FeatureMeta::with_domain("rid", Provenance::Foreign { dim: 0 }, shared),
        FeatureMeta::with_domain(
            "xs",
            Provenance::Home,
            CatDomain::synthetic_with_others("xs", 3).into_shared(),
        ),
    ];
    let cards: Vec<u32> = features.iter().map(|f| f.cardinality).collect();
    let rows: Vec<u32> = (0..n)
        .flat_map(|_| {
            cards
                .iter()
                .map(|&k| rng.gen_range(0..k))
                .collect::<Vec<_>>()
        })
        .collect();
    let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    CatDataset::new(features, rows, labels).unwrap()
}

fn artifact_for(model: AnyClassifier, ds: &CatDataset, name: &str) -> ModelArtifact {
    ModelArtifact {
        format_version: FORMAT_VERSION,
        name: name.into(),
        version: 1,
        model,
        feature_config: FeatureConfig::NoJoin,
        contract: ds.contract(),
        schema_fingerprint: 0xF00D,
        metadata: TrainingMetadata {
            dataset: "synthetic".into(),
            spec: ModelSpec::TreeGini,
            train_rows: ds.n_rows(),
            metrics: RunResult {
                model: "matrix".into(),
                config: "NoJoin".into(),
                train_accuracy: 1.0,
                val_accuracy: 1.0,
                test_accuracy: 1.0,
                seconds: 0.0,
                winner: "-".into(),
            },
        },
    }
}

fn all_families(ds: &CatDataset) -> Vec<(&'static str, AnyClassifier)> {
    let sub = ds.select_features(&[2]).unwrap();
    vec![
        ("majority", MajorityClass::fit(ds).into()),
        (
            "tree",
            DecisionTree::fit(
                ds,
                TreeParams::new(SplitCriterion::Gini)
                    .with_minsplit(2)
                    .with_cp(0.0),
            )
            .unwrap()
            .into(),
        ),
        ("knn", OneNearestNeighbor::fit(ds).unwrap().into()),
        (
            "svm",
            SvmModel::fit(ds, SvmParams::new(KernelKind::Rbf { gamma: 0.4 }, 4.0))
                .unwrap()
                .into(),
        ),
        (
            "mlp",
            Mlp::fit(
                ds,
                AnnParams {
                    epochs: 2,
                    ..AnnParams::small(1e-4, 0.01)
                },
            )
            .unwrap()
            .into(),
        ),
        ("naive-bayes", NaiveBayes::fit(ds).unwrap().into()),
        (
            "logreg",
            LogRegL1::fit_single(
                ds,
                1e-3,
                LogRegParams {
                    max_iter: 30,
                    ..Default::default()
                },
            )
            .unwrap()
            .into(),
        ),
        (
            "subset",
            SubsetModel {
                keep: vec![2],
                inner: Box::new(NaiveBayes::fit(&sub).unwrap().into()),
            }
            .into(),
        ),
    ]
}

/// Every family: save as v3, reload via heap and mmap, predictions
/// bit-identical to the in-memory model on every in-domain probe row.
#[test]
fn parity_matrix_every_family_heap_and_mmap() {
    use rand::{Rng, SeedableRng};
    let ds = dict_dataset(11, 60);
    let dir = tmp_dir("matrix");
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let cards: Vec<u32> = ds.cardinalities();
    let probes: Vec<Vec<u32>> = (0..64)
        .map(|_| cards.iter().map(|&k| rng.gen_range(0..k)).collect())
        .collect();

    for (tag, model) in all_families(&ds) {
        let art = artifact_for(model, &ds, &format!("mx-{tag}"));
        let path = art.save(&dir).unwrap();
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let back = ModelArtifact::load_with(&path, mode).unwrap();
            assert_eq!(back.model, art.model, "{tag} {mode:?} value drift");
            for probe in &probes {
                assert_eq!(
                    back.model.predict_row(probe),
                    art.model.predict_row(probe),
                    "{tag} {mode:?} probe {probe:?}"
                );
            }
            // Batched path too (what /v1/predict runs).
            let flat: Vec<u32> = probes.iter().flatten().copied().collect();
            assert_eq!(
                back.model.predict_batch(&flat, cards.len()),
                art.model.predict_batch(&flat, cards.len()),
                "{tag} {mode:?} batch"
            );
            // mmap loads borrow weight payloads for the array-backed
            // families; heap loads never do.
            let expect_mapped = mode == LoadMode::Mmap && !matches!(tag, "majority" | "tree");
            assert_eq!(
                back.model.payload_mapped(),
                expect_mapped,
                "{tag} {mode:?} residency"
            );
            // Dictionaries arrive shared: fk and rid point at one Arc.
            assert!(Arc::ptr_eq(
                back.contract.feature(0).domain.as_ref().unwrap(),
                back.contract.feature(1).domain.as_ref().unwrap()
            ));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// v3 stores weight arrays raw: a weight-dominated ANN artifact is its
/// weight bytes plus a small header, contract and dictionary overhead.
#[test]
fn ann_v3_artifact_stores_weights_raw() {
    let ds = dict_dataset(23, 120);
    let mlp = Mlp::fit(
        &ds,
        AnnParams {
            hidden1: 64,
            hidden2: 32,
            epochs: 1,
            ..AnnParams::small(1e-4, 0.01)
        },
    )
    .unwrap();
    let art = artifact_for(mlp.into(), &ds, "size-ann");
    let dir = tmp_dir("size");
    let len = std::fs::metadata(art.save(&dir).unwrap()).unwrap().len();
    let weights = art.model.weight_bytes() as u64;
    assert!(
        len <= weights + 4096,
        "artifact is {len} bytes for {weights} bytes of weights"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Registry boot over a directory containing corrupted v3 files: clean
/// skips, no panics, healthy artifacts still serve.
#[test]
fn warm_load_survives_corrupted_and_truncated_v3_artifacts() {
    let ds = dict_dataset(31, 40);
    let dir = tmp_dir("corrupt");
    let good = artifact_for(NaiveBayes::fit(&ds).unwrap().into(), &ds, "good");
    let path = good.save(&dir).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // A truncated copy, a bit-flipped section table, and junk with magic.
    std::fs::write(dir.join("trunc@1.model.bin"), &bytes[..bytes.len() / 2]).unwrap();
    let mut flipped = bytes.clone();
    flipped[20] ^= 0xFF;
    std::fs::write(dir.join("flipped@1.model.bin"), &flipped).unwrap();
    std::fs::write(dir.join("junk@1.model.bin"), b"HMLAjunkjunkjunk").unwrap();
    for mode in [LoadMode::Heap, LoadMode::Mmap] {
        let (reg, loaded) = ModelRegistry::warm_load_with(&dir, mode).unwrap();
        assert_eq!(loaded, 1, "{mode:?}: only the healthy artifact registers");
        let art = reg.get("good").unwrap();
        assert_eq!(art.model, good.model);
        assert!(reg.get("trunc").is_err());
        assert!(reg.get("junk").is_err());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Legacy JSON artifacts (formats v1 and v2, byte layouts frozen from the
/// earlier releases) are no longer read: warm-load skips them and serves
/// the v3 artifact beside them.
#[test]
fn legacy_json_artifacts_are_skipped_by_warm_load() {
    let dir = tmp_dir("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("legacy-v1@1.model.json"),
        r#"{"format_version": 1, "name": "legacy-v1", "version": 1,
            "model": {"Majority": {"positive": false}},
            "features": [{"name": "a", "cardinality": 3, "provenance": "Home"}]}"#,
    )
    .unwrap();
    std::fs::write(
        dir.join("legacy-v2@1.model.json"),
        r#"{"format_version": 2, "name": "legacy-v2", "version": 1,
            "model": {"Majority": {"positive": true}},
            "contract": [{"name": "a", "cardinality": 3, "provenance": "Home",
                          "domain": {"name": "a", "labels": ["x", "y", "Others"]}}]}"#,
    )
    .unwrap();
    let ds = dict_dataset(41, 30);
    artifact_for(MajorityClass { positive: true }.into(), &ds, "modern")
        .save(&dir)
        .unwrap();

    let (reg, loaded) = ModelRegistry::warm_load(&dir).unwrap();
    assert_eq!(loaded, 1);
    assert!(reg.get("legacy-v1").is_err());
    assert!(reg.get("legacy-v2").is_err());
    assert!(reg.get("modern").is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// Quantized artifacts end to end (the `convert --quantize` path): an MLP
/// and an SVM quantized to i8, saved as v3 and reloaded via heap
/// AND mmap, must agree with the f32 original on ≥ 99% of in-domain rows,
/// predict identically across load modes, and (weight-dominated MLP)
/// shrink the artifact at least 2×.
#[test]
fn quantized_artifacts_reload_with_high_agreement_and_i8_shrinks_2x() {
    use rand::{Rng, SeedableRng};
    // A dataset with real signal (noisy parity of two features): models
    // with random labels sit on a near-zero decision boundary everywhere,
    // which says nothing about quantization quality.
    let mut rng = rand::rngs::StdRng::seed_from_u64(67);
    let base = dict_dataset(67, 10);
    let cards = base.cardinalities();
    let d = cards.len();
    let n = 400;
    let flat: Vec<u32> = (0..n * d).map(|i| rng.gen_range(0..cards[i % d])).collect();
    let labels: Vec<bool> = flat
        .chunks(d)
        .map(|r| {
            let clean = (r[0] + r[2]) % 2 == 0;
            if rng.gen_bool(0.85) {
                clean
            } else {
                !clean
            }
        })
        .collect();
    let ds = CatDataset::new(base.contract().features().to_vec(), flat.clone(), labels).unwrap();
    // Agreement is measured on the (in-distribution) training rows: far
    // out-of-distribution probes all sit on the near-zero decision
    // boundary, where agreement says nothing about quantization quality.
    let dir = tmp_dir("quant");

    let mlp: AnyClassifier = Mlp::fit(
        &ds,
        AnnParams {
            hidden1: 64,
            hidden2: 32,
            epochs: 2,
            ..AnnParams::small(1e-4, 0.01)
        },
    )
    .unwrap()
    .into();
    let svm: AnyClassifier =
        SvmModel::fit(&ds, SvmParams::new(KernelKind::Rbf { gamma: 0.4 }, 4.0))
            .unwrap()
            .into();

    for (tag, model) in [("mlp", mlp), ("svm", svm)] {
        let art = artifact_for(model, &ds, &format!("q-{tag}"));
        let f32_len = std::fs::metadata(art.save(&dir).unwrap()).unwrap().len();
        let base = art.model.predict_batch(&flat, d);
        let qart = artifact_for(art.model.quantize().unwrap(), &ds, &format!("q-{tag}-i8"));
        let qpath = qart.save(&dir).unwrap();
        let mut per_mode = Vec::new();
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let back = ModelArtifact::load_with(&qpath, mode).unwrap();
            assert_eq!(back.model.encoding(), "i8", "{tag} {mode:?}");
            let preds = back.model.predict_batch(&flat, d);
            let agree =
                preds.iter().zip(&base).filter(|(a, b)| a == b).count() as f64 / base.len() as f64;
            assert!(agree >= 0.99, "{tag} {mode:?}: agreement {agree:.4} < 0.99");
            per_mode.push(preds);
        }
        assert_eq!(
            per_mode[0], per_mode[1],
            "{tag}: heap and mmap predictions must match"
        );
        if tag == "mlp" {
            let q_len = std::fs::metadata(&qpath).unwrap().len();
            assert!(
                f32_len >= 2 * q_len,
                "i8 MLP artifact is {q_len} bytes vs f32 {f32_len} — ratio {:.2} < 2",
                f32_len as f64 / q_len as f64
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Lazy warm-load end to end: old versions are non-resident until first
/// pinned request, and the promoted model predicts identically.
#[test]
fn lazy_old_versions_promote_on_demand_with_identical_predictions() {
    let ds = dict_dataset(53, 50);
    let dir = tmp_dir("lazy");
    let families = all_families(&ds);
    // Three versions of one name: tree, then svm, then mlp (latest).
    let mut originals = Vec::new();
    for (i, idx) in [1usize, 3, 4].iter().enumerate() {
        let mut art = artifact_for(families[*idx].1.clone(), &ds, "ladder");
        art.version = (i + 1) as u32;
        art.save(&dir).unwrap();
        originals.push(art);
    }
    let (reg, loaded) = ModelRegistry::warm_load_with(&dir, LoadMode::Mmap).unwrap();
    assert_eq!(loaded, 3);
    assert_eq!(reg.resident_count(), 1, "only ladder@3 resident at boot");
    let listed = reg.list();
    assert_eq!(listed.len(), 3);
    assert_eq!(
        listed.iter().map(|m| &m.family).collect::<Vec<_>>(),
        vec!["tree", "svm", "mlp"],
        "lazy heads still report the correct family"
    );
    // Pinned request against a lazy slot: loads, caches, bit-matches.
    let cards = ds.cardinalities();
    let probe: Vec<u32> = cards.iter().map(|&k| k - 1).collect();
    for (i, original) in originals.iter().enumerate() {
        let got = reg.get(&format!("ladder@{}", i + 1)).unwrap();
        assert_eq!(got.model, original.model);
        assert_eq!(
            got.model.predict_row(&probe),
            original.model.predict_row(&probe)
        );
    }
    assert_eq!(reg.resident_count(), 3);
    std::fs::remove_dir_all(&dir).ok();
}
