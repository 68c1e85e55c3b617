//! Criterion counterpart of **Figure 1**: statistically measured end-to-end
//! runtimes (join materialization + tuning + training + testing) of JoinAll
//! vs NoJoin. The reproduced claim is the *ratio* — NoJoin is consistently
//! faster because it never touches closed-domain dimension tables and
//! trains on fewer features.
//!
//! Run with `cargo bench -p hamlet-bench --bench fig1_runtimes`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hamlet_core::prelude::*;
use hamlet_datagen::prelude::*;

/// Small-scale emulators so a Criterion iteration stays in the tens of
/// milliseconds; the JoinAll/NoJoin ratio is scale-stable.
const BENCH_N_S: usize = 1500;

fn bench_model(c: &mut Criterion, model: ModelSpec, budget: &Budget) {
    let mut group = c.benchmark_group(format!("fig1/{}", model.name()));
    group.sample_size(10);
    for spec in [
        EmulatorSpec::walmart(),
        EmulatorSpec::movies(),
        EmulatorSpec::flights(),
    ] {
        let g = spec.generate_scaled(BENCH_N_S, 0xBE);
        for config in [FeatureConfig::JoinAll, FeatureConfig::NoJoin] {
            group.bench_with_input(
                BenchmarkId::new(config.name(), spec.name),
                &(&g, &config),
                |b, (g, config)| {
                    b.iter(|| run_experiment(g, model, config, budget).expect("experiment runs"));
                },
            );
        }
    }
    group.finish();
}

fn fig1_runtimes(c: &mut Criterion) {
    let budget = Budget::quick();
    // The paper's Figure 1 panels span tree, 1-NN, RBF-SVM, ANN, NB-BFS and
    // LogReg; the tree, NB and LogReg panels capture the three runtime
    // regimes (cheap model / feature-selection-bound / path-solver-bound)
    // without hour-long bench runs. Run `reproduce fig1` for the full table.
    bench_model(c, ModelSpec::TreeGini, &budget);
    bench_model(c, ModelSpec::NaiveBayesBfs, &budget);
    bench_model(c, ModelSpec::LogRegL1, &budget);
}

criterion_group!(benches, fig1_runtimes);
criterion_main!(benches);
