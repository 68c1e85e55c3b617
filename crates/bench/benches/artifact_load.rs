//! Artifact load benchmarks: heap vs page-fault-bounded mmap loading of a
//! weight-dominated artifact, plus the header-only read.
//!
//! ```bash
//! cargo bench --bench artifact_load
//! ```
//!
//! The heap path reads and copies every weight section on each load, while
//! the mmap path does a handful of header reads and borrows the weight
//! sections — the kernel pages them in lazily on first prediction
//! (measured separately by `v3_mmap_then_predict`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hamlet_core::experiment::RunResult;
use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::ModelSpec;
use hamlet_ml::ann::{AnnParams, Mlp};
use hamlet_ml::dataset::{CatDataset, FeatureMeta, Provenance};
use hamlet_ml::model::Classifier;
use hamlet_relation::domain::CatDomain;
use hamlet_serve::artifact::{LoadMode, ModelArtifact, TrainingMetadata, FORMAT_VERSION};

/// A paper-shaped ANN (256 + 64 hidden units) over a moderately wide
/// one-hot space, so the artifact is genuinely weight-dominated (~1 MB of
/// f32s) like the models the format was built for.
fn ann_artifact() -> ModelArtifact {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBE);
    let d = 8usize;
    let k = 16u32;
    let n = 64usize;
    let features: Vec<FeatureMeta> = (0..d)
        .map(|j| {
            FeatureMeta::with_domain(
                format!("f{j}"),
                Provenance::Home,
                CatDomain::synthetic(format!("f{j}"), k).into_shared(),
            )
        })
        .collect();
    let rows: Vec<u32> = (0..n * d).map(|_| rng.gen_range(0..k)).collect();
    let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let ds = CatDataset::new(features, rows, labels).unwrap();
    let model = Mlp::fit(
        &ds,
        AnnParams {
            epochs: 1,
            ..AnnParams::new(1e-4, 0.01)
        },
    )
    .unwrap();
    ModelArtifact {
        format_version: FORMAT_VERSION,
        name: "bench-ann".into(),
        version: 1,
        model: model.into(),
        feature_config: FeatureConfig::NoJoin,
        contract: ds.contract(),
        schema_fingerprint: 0xB33F,
        metadata: TrainingMetadata {
            dataset: "synthetic".into(),
            spec: ModelSpec::Ann,
            train_rows: n,
            metrics: RunResult {
                model: "ANN".into(),
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

fn artifact_load(c: &mut Criterion) {
    let artifact = ann_artifact();
    let dir = std::env::temp_dir().join(format!("hamlet-bench-v3-{}", std::process::id()));
    let v3_path = artifact.save(&dir).unwrap();
    let v3_bytes = std::fs::metadata(&v3_path).unwrap().len();
    eprintln!("artifact size: {v3_bytes} B");

    let probe: Vec<u32> = vec![1; artifact.contract.width()];
    let mut group = c.benchmark_group("artifact_load");
    group.sample_size(20);
    group.bench_function("v3_heap", |b| {
        b.iter(|| black_box(ModelArtifact::load(&v3_path).unwrap()))
    });
    group.bench_function("v3_mmap", |b| {
        b.iter(|| black_box(ModelArtifact::load_with(&v3_path, LoadMode::Mmap).unwrap()))
    });
    // End-to-end "boot and answer one request": load + first prediction,
    // which is where the mmap path pays its (lazy) page faults.
    group.bench_function("v3_mmap_then_predict", |b| {
        b.iter(|| {
            let art = ModelArtifact::load_with(&v3_path, LoadMode::Mmap).unwrap();
            black_box(art.model.predict_row(black_box(&probe)))
        })
    });
    group.bench_function("v3_head_only", |b| {
        b.iter(|| black_box(ModelArtifact::load_head(&v3_path).unwrap()))
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, artifact_load);
criterion_main!(benches);
