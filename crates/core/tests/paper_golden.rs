//! Training identity at the paper budget: the eight Figure-1 study models
//! (`fit_profile`'s tree, RBF-SVM, ANN and L1-logreg × JoinAll/NoJoin on
//! `movies` at scale 4000, seed 1, `Budget::paper()`) must reproduce the
//! decision-value bits recorded for each kernel tier: AVX2, and the
//! scalar reference every other host runs.
//!
//! `train_golden.rs` pins a shrunken budget that trains in seconds under
//! the debug profile. This test pins the budget the end-to-end `study`
//! workload trains with, so it is only worth running optimized: under
//! `debug_assertions` it returns at once. Run it with
//!
//! ```text
//! cargo test --release -p hamlet-core --test paper_golden
//! HAMLET_FORCE_SCALAR=1 cargo test --release -p hamlet-core --test paper_golden
//! ```

use hamlet_core::feature_config::{build_splits, FeatureConfig};
use hamlet_core::model_zoo::{Budget, ModelSpec};
use hamlet_datagen::emulate::EmulatorSpec;
use hamlet_ml::kernels::{backend, Backend};

const SPECS: [ModelSpec; 4] = [
    ModelSpec::TreeGini,
    ModelSpec::SvmRbf,
    ModelSpec::Ann,
    ModelSpec::LogRegL1,
];

/// Expected hash per (spec, config) in `SPECS` × {JoinAll, NoJoin} order.
const AVX2: [u64; 8] = [
    0x54a9eea3f7eaef9b,
    0x54a9eea3f7eaef9b,
    0xbbc42d94d0894ef4,
    0xd5ce08e5551b7da6,
    0xa8df3e1520783ef4,
    0xcd4892b6f406a2e9,
    0x83ac56fb37623b1a,
    0xbc8dd1e25049d2ff,
];
const SCALAR: [u64; 8] = [
    0x54a9eea3f7eaef9b,
    0x54a9eea3f7eaef9b,
    0xbbc42d94d0894ef4,
    0xd5ce08e5551b7da6,
    0x4eacf7afdb658e09,
    0x247e571c38352c20,
    0x25648ffec94848ed,
    0xbc8dd1e25049d2ff,
];

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hashes() -> Vec<u64> {
    let g = EmulatorSpec::movies().generate_scaled(4000, 1);
    let budget = Budget::paper();
    let mut out = Vec::new();
    for spec in SPECS {
        for config in [FeatureConfig::JoinAll, FeatureConfig::NoJoin] {
            let data = build_splits(&g, &config).unwrap();
            let tuned = spec.fit_tuned(&data.train, &data.val, &budget).unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for i in 0..data.test.n_rows() {
                let v = tuned.model.decision_value(data.test.row(i));
                h = fnv1a(h, &v.to_bits().to_le_bytes());
            }
            out.push(h);
        }
    }
    out
}

#[test]
fn paper_budget_decision_bits_match_the_recorded_hashes() {
    if cfg!(debug_assertions) {
        return;
    }
    let want = match backend() {
        Backend::Avx2 => AVX2,
        Backend::Scalar => SCALAR,
    };
    let got = hashes();
    let fmt = |v: &[u64]| {
        v.iter()
            .map(|h| format!("0x{h:016x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    assert_eq!(
        got,
        want,
        "{} hashes changed: [{}]",
        backend().name(),
        fmt(&got)
    );
}
