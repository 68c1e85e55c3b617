//! SIMD inference-kernel benchmarks: the runtime-dispatched kernels vs the
//! bit-exact scalar reference at the raw-kernel level, and the model-level
//! f32 / i8 encodings for MLP, SVM and logreg at 1/64/512-row
//! batches (the coalescer's merged-batch shapes).
//!
//! Medians land in `BENCH_serve.json` (see the vendored criterion shim),
//! so the trajectory is tracked across commits.
//!
//! Run with `cargo bench -p hamlet-bench --bench kernels`. Note the
//! dispatched tier is chosen once per process: run with
//! `HAMLET_FORCE_SCALAR=1` to measure the scalar tier through the
//! dispatch entry points too.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hamlet_ml::ann::{AnnParams, Mlp};
use hamlet_ml::any::AnyClassifier;
use hamlet_ml::dataset::{CatDataset, FeatureMeta, Provenance};
use hamlet_ml::kernels;
use hamlet_ml::logreg::{LogRegL1, LogRegParams};
use hamlet_ml::svm::{KernelKind, SvmModel, SvmParams};
use hamlet_relation::domain::CatDomain;

const BATCHES: [usize; 3] = [1, 64, 512];

fn dataset(seed: u64, n: usize) -> CatDataset {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let d = 8usize;
    let k = 16u32;
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
    let labels: Vec<bool> = (0..n)
        .map(|i| rng.gen_bool(if i % 3 == 0 { 0.8 } else { 0.3 }))
        .collect();
    CatDataset::new(features, rows, labels).unwrap()
}

/// Raw kernel dispatch vs the scalar reference, on vectors long enough to
/// amortize the dispatch load and show the SIMD width.
fn raw_kernels(c: &mut Criterion) {
    let n = 4096usize;
    let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
    let b2: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
    let qa: Vec<i8> = (0..n).map(|i| (i % 255) as i8).collect();
    let qb: Vec<i8> = (0..n).map(|i| ((i * 7) % 251) as i8).collect();
    let mut relu_out = vec![0.0f32; n];

    let mut group = c.benchmark_group("kernels");
    group.bench_function(format!("dot_f32_dispatch_{n}"), |b| {
        b.iter(|| black_box(kernels::dot_f32(0.0, black_box(&a), black_box(&b2))))
    });
    group.bench_function(format!("dot_f32_scalar_{n}"), |b| {
        b.iter(|| black_box(kernels::scalar::dot_f32(0.0, black_box(&a), black_box(&b2))))
    });
    group.bench_function(format!("dot_i8_dispatch_{n}"), |b| {
        b.iter(|| black_box(kernels::dot_i8(black_box(&qa), black_box(&qb))))
    });
    group.bench_function(format!("dot_i8_scalar_{n}"), |b| {
        b.iter(|| black_box(kernels::scalar::dot_i8(black_box(&qa), black_box(&qb))))
    });
    group.bench_function(format!("relu_f32_dispatch_{n}"), |b| {
        b.iter(|| kernels::relu_f32(black_box(&a), black_box(&mut relu_out)))
    });
    group.bench_function(format!("relu_f32_scalar_{n}"), |b| {
        b.iter(|| kernels::scalar::relu_f32(black_box(&a), black_box(&mut relu_out)))
    });
    group.finish();
}

/// Model-level batched inference across weight encodings. Every model
/// sees identical row batches; names encode family, encoding and batch.
fn model_encodings(c: &mut Criterion) {
    use rand::{Rng, SeedableRng};
    let ds = dataset(0xBEEF, 96);
    let d = ds.n_features();
    let cards = ds.cardinalities();
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let max_rows = *BATCHES.iter().max().unwrap();
    let flat: Vec<u32> = (0..max_rows * d)
        .map(|i| rng.gen_range(0..cards[i % d]))
        .collect();

    let mlp: AnyClassifier = Mlp::fit(
        &ds,
        AnnParams {
            epochs: 1,
            ..AnnParams::new(1e-4, 0.01)
        },
    )
    .unwrap()
    .into();
    let svm: AnyClassifier =
        SvmModel::fit(&ds, SvmParams::new(KernelKind::Rbf { gamma: 0.5 }, 4.0))
            .unwrap()
            .into();
    let logreg: AnyClassifier = LogRegL1::fit_single(
        &ds,
        1e-3,
        LogRegParams {
            max_iter: 30,
            ..Default::default()
        },
    )
    .unwrap()
    .into();

    let mut group = c.benchmark_group("kernels");
    for (family, model) in [("mlp", mlp), ("svm", svm), ("logreg", logreg)] {
        let i8 = model.quantize().unwrap();
        for (enc, m) in [("f32", &model), ("i8", &i8)] {
            for rows in BATCHES {
                let batch = &flat[..rows * d];
                group.bench_function(format!("{family}_{enc}_{rows}rows"), |b| {
                    b.iter(|| black_box(m.predict_batch(black_box(batch), d)))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, raw_kernels, model_encodings);
criterion_main!(benches);
