//! Property test: the binary model codec (`AnyClassifier::encode_bin` /
//! `decode_bin`, an artifact's `MODL` section) roundtrips every model
//! family, preserving `predict_row` on arbitrary in-domain rows.

use proptest::prelude::*;

use hamlet_ml::ann::{AnnParams, Mlp};
use hamlet_ml::any::{AnyClassifier, SubsetModel};
use hamlet_ml::binenc::{BinReader, BinWriter};
use hamlet_ml::dataset::{CatDataset, FeatureMeta, Provenance};
use hamlet_ml::knn::OneNearestNeighbor;
use hamlet_ml::logreg::{LogRegL1, LogRegParams};
use hamlet_ml::model::{Classifier, MajorityClass};
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_ml::svm::{KernelKind, SvmModel, SvmParams};
use hamlet_ml::tree::{DecisionTree, SplitCriterion, TreeParams};

/// A random dataset: (n, d, k, seed)-shaped categorical rows with random
/// labels, plus the list of cardinalities for row generation.
fn dataset_strategy() -> impl Strategy<Value = CatDataset> {
    (4usize..24, 1usize..4, 2u32..5, 0u64..10_000).prop_map(|(n, d, k, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let features: Vec<FeatureMeta> = (0..d)
            .map(|j| {
                FeatureMeta::new(
                    format!("f{j}"),
                    k,
                    if j == 0 && d > 1 {
                        Provenance::ForeignKey { dim: 0 }
                    } else {
                        Provenance::Home
                    },
                )
            })
            .collect();
        let rows: Vec<u32> = (0..n * d).map(|_| rng.gen_range(0..k)).collect();
        let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        CatDataset::new(features, rows, labels).unwrap()
    })
}

/// Every trainable family on this dataset, as `AnyClassifier`s.
fn all_families(ds: &CatDataset) -> Vec<AnyClassifier> {
    let mut models: Vec<AnyClassifier> = vec![
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
    ];
    // A subset wrapper over the first feature, when there is more than one.
    if ds.n_features() > 1 {
        let sub = ds.select_features(&[0]).unwrap();
        models.push(
            SubsetModel {
                keep: vec![0],
                inner: Box::new(NaiveBayes::fit(&sub).unwrap().into()),
            }
            .into(),
        );
    }
    models
}

fn encode(model: &AnyClassifier) -> Vec<u8> {
    let mut w = BinWriter::new();
    model.encode_bin(&mut w);
    w.finish()
}

fn decode(bytes: Vec<u8>) -> AnyClassifier {
    let mut r = BinReader::over_heap(bytes);
    let model = AnyClassifier::decode_bin(&mut r).unwrap();
    r.expect_end().unwrap();
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn serde_roundtrip_preserves_predict_row(ds in dataset_strategy(), probe_seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(probe_seed);
        // Arbitrary in-domain probe rows, independent of the training rows.
        let cards: Vec<u32> = ds.cardinalities();
        let probes: Vec<Vec<u32>> = (0..16)
            .map(|_| cards.iter().map(|&k| rng.gen_range(0..k)).collect())
            .collect();

        for model in all_families(&ds) {
            let back = decode(encode(&model));
            prop_assert_eq!(&back, &model, "family {}", model.family());
            for probe in &probes {
                prop_assert_eq!(
                    back.predict_row(probe),
                    model.predict_row(probe),
                    "family {} probe {:?}",
                    model.family(),
                    probe
                );
            }
        }
    }

    #[test]
    fn roundtrip_is_stable_under_double_serialization(ds in dataset_strategy()) {
        // encode(decode(encode(m))) == encode(m): no lossy step or field
        // reordering anywhere in the chain.
        for model in all_families(&ds) {
            let once = encode(&model);
            let twice = encode(&decode(once.clone()));
            prop_assert_eq!(once, twice, "family {}", model.family());
        }
    }
}
