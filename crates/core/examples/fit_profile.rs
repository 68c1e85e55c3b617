//! Fit time and decision-value hash of every Figure-1 study model.
//!
//! Trains tree, RBF-SVM, ANN and L1-logreg × JoinAll/NoJoin on `movies` at
//! scale 4000 with `Budget::paper()`, the study the end-to-end benchmark
//! runs, in the same order. For each it prints the `fit_tuned` wall time and
//! an FNV-1a hash of the `f64` bits of every test row's decision value. Two
//! builds train bit-identical models exactly when all eight hashes agree.
//!
//! ```text
//! cargo run --release -p hamlet-core --example fit_profile -- [seed]
//! ```

use std::time::Instant;

use hamlet_core::feature_config::{build_splits, FeatureConfig};
use hamlet_core::model_zoo::{Budget, ModelSpec};
use hamlet_datagen::emulate::EmulatorSpec;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map_or(1, |s| s.parse().expect("seed"));
    let g = EmulatorSpec::movies().generate_scaled(4000, seed);
    let budget = Budget::paper();
    println!(
        "kernel tier {}, seed {seed}",
        hamlet_ml::kernels::backend().name()
    );
    for spec in [
        ModelSpec::TreeGini,
        ModelSpec::SvmRbf,
        ModelSpec::Ann,
        ModelSpec::LogRegL1,
    ] {
        for config in [FeatureConfig::JoinAll, FeatureConfig::NoJoin] {
            let data = build_splits(&g, &config).expect("splits");
            let start = Instant::now();
            let tuned = spec
                .fit_tuned(&data.train, &data.val, &budget)
                .expect("fit");
            let secs = start.elapsed().as_secs_f64();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for i in 0..data.test.n_rows() {
                let v = tuned.model.decision_value(data.test.row(i));
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            println!(
                "{:<10} {:<8} {secs:>8.3} s  0x{h:016x}",
                spec.name(),
                config.name()
            );
        }
    }
}
