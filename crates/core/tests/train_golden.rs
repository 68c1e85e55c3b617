//! Training identity: `fit_tuned` on a small fixed `movies` star must
//! reproduce the exact decision-value bits recorded for each kernel tier.
//!
//! Each case hashes (FNV-1a, 64-bit) the `f64` bits of every test row's
//! decision value. A change to a training loop that alters one bit of one
//! weight changes a hash, so a speed-up of the solvers has to keep the
//! arithmetic order it replaces. The ANN's dense products (`dot_f32`) and
//! the logreg gather-sum re-associate on the SIMD tiers, so the expected
//! hashes are recorded per [`Backend`]; CI runs the suite on the AVX2 host
//! tier and again under `HAMLET_FORCE_SCALAR=1`.

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
    0x700fc27b26bcfac5,
    0x700fc27b26bcfac5,
    0x5806c9576bb1bc87,
    0x278609e16a1909d0,
    0xc5eb0fb33feed144,
    0x6269699c3eb43207,
    0xd3e81afd286a6f42,
    0xbd98c6fba363e506,
];
const SCALAR: [u64; 8] = [
    0x700fc27b26bcfac5,
    0x700fc27b26bcfac5,
    0x5806c9576bb1bc87,
    0x278609e16a1909d0,
    0x16eda5b662f8809e,
    0x28793e2b4f6a14aa,
    0xf06cf72e4348b9d8,
    0xbd98c6fba363e506,
];

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The quick budget, shrunk further so the whole matrix trains in a few
/// seconds under the debug profile.
fn budget() -> Budget {
    Budget {
        max_kernel_rows: 500,
        max_ann_rows: 600,
        ann_epochs: 5,
        logreg_nlambda: 8,
        ..Budget::quick()
    }
}

fn hashes() -> Vec<u64> {
    let g = EmulatorSpec::movies().generate_scaled(1600, 11);
    let budget = budget();
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
fn fit_tuned_decision_bits_match_the_recorded_hashes() {
    let want = match backend() {
        Backend::Avx2 => AVX2,
        Backend::Scalar => SCALAR,
        // No hashes are recorded for an SSE2-only host.
        Backend::Sse2 => return,
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
