//! Cross-request predict coalescing benchmarks: the many-small-requests
//! hot path with coalescing on vs. off.
//!
//! Two vantage points:
//!
//! - `exec_*` — the executor boundary in isolation: N independent 1-row
//!   requests through the solo path (`execute_predict`, paying the model
//!   cell lookup + fan-out budget + EWMA bookkeeping per request) vs. one merged
//!   `execute_batch` over the same rows. This is the pure dispatch
//!   amortization, visible even on a single core.
//! - `http_*` — end to end over real sockets: a saturation round of small
//!   concurrent predict requests against a server with coalescing at its
//!   default tuning vs. disabled (`window = 0`). On multi-core hosts the
//!   merged batches additionally shard across the fan-out budget, which is
//!   where the big multiplier lives.
//!
//! Medians land in `BENCH_serve.json` (see the vendored criterion shim),
//! so the trajectory is tracked across commits.
//!
//! Run with `cargo bench -p hamlet-bench --bench serve_coalesce`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hamlet_core::experiment::RunResult;
use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::ModelSpec;
use hamlet_ml::ann::{AnnParams, Mlp};
use hamlet_ml::any::AnyClassifier;
use hamlet_ml::dataset::{CatDataset, FeatureMeta, Provenance};
use hamlet_ml::tree::{DecisionTree, SplitCriterion, TreeParams};
use hamlet_relation::domain::CatDomain;
use hamlet_serve::artifact::{ModelArtifact, TrainingMetadata, FORMAT_VERSION};
use hamlet_serve::coalesce::CoalesceConfig;
use hamlet_serve::http::ServerOptions;
use hamlet_serve::server::{execute_batch, execute_predict, serve_with, AppState, WarmOptions};

/// Requests per end-to-end saturation round.
const HTTP_REQUESTS: usize = 256;
/// Concurrent client connections driving them.
const HTTP_CLIENTS: usize = 16;
/// Single-row requests per executor-boundary round.
const EXEC_REQUESTS: usize = 64;

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
        schema_fingerprint: 0xBE7C,
        metadata: TrainingMetadata {
            dataset: "synthetic".into(),
            spec: ModelSpec::TreeGini,
            train_rows: ds.n_rows(),
            metrics: RunResult {
                model: "bench".into(),
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

/// A cheap tree and a weight-heavy MLP over the same contract: the two
/// ends of the per-row-cost spectrum the coalescer adapts between.
fn models() -> (CatDataset, AnyClassifier, AnyClassifier) {
    let ds = dataset(0xC0, 96);
    let tree: AnyClassifier = DecisionTree::fit(
        &ds,
        TreeParams::new(SplitCriterion::Gini)
            .with_minsplit(2)
            .with_cp(0.0),
    )
    .unwrap()
    .into();
    let mlp: AnyClassifier = Mlp::fit(
        &ds,
        AnnParams {
            epochs: 1,
            ..AnnParams::new(1e-4, 0.01)
        },
    )
    .unwrap()
    .into();
    (ds, tree, mlp)
}

fn in_domain_rows(ds: &CatDataset, count: usize, seed: u64) -> Vec<Vec<u32>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cards = ds.cardinalities();
    (0..count)
        .map(|_| cards.iter().map(|&k| rng.gen_range(0..k)).collect())
        .collect()
}

/// Executor-boundary comparison: N solo dispatches vs one merged batch.
fn exec_boundary(c: &mut Criterion) {
    let (ds, tree, mlp) = models();
    let d = ds.n_features();
    let rows = in_domain_rows(&ds, EXEC_REQUESTS, 7);
    let (state, _) = AppState::warm_full(
        std::env::temp_dir().join("hamlet-bench-coal-none"),
        WarmOptions::default(),
    )
    .unwrap();

    let mut group = c.benchmark_group("serve_coalesce");
    for (tag, model) in [("tree", &tree), ("mlp", &mlp)] {
        let artifact = artifact_for(model.clone(), &ds, &format!("x-{tag}"));
        // Warm the EWMA so both paths run with adaptive shard sizing.
        let flat: Vec<u32> = rows.iter().flatten().copied().collect();
        execute_predict(&state, &artifact, &flat, d);
        group.bench_function(format!("exec_solo_{tag}_{EXEC_REQUESTS}x1"), |b| {
            b.iter(|| {
                for row in &rows {
                    black_box(execute_predict(&state, &artifact, black_box(row), d));
                }
            })
        });
        let segments: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
        group.bench_function(format!("exec_merged_{tag}_{EXEC_REQUESTS}x1"), |b| {
            b.iter(|| black_box(execute_batch(&state, &artifact, black_box(&segments), d)))
        });
    }
    group.finish();
}

/// One saturation round: every client thread owns `per_client` sockets,
/// writes all its requests, then reads all responses — so up to
/// `HTTP_REQUESTS` requests are in flight against the server at once.
fn saturation_round(addr: std::net::SocketAddr, bodies: &[String]) {
    let per_client = bodies.len() / HTTP_CLIENTS;
    std::thread::scope(|scope| {
        for chunk in bodies.chunks(per_client) {
            scope.spawn(move || {
                let mut sockets: Vec<TcpStream> = chunk
                    .iter()
                    .map(|body| {
                        let mut s = TcpStream::connect(addr).expect("connect");
                        s.set_nodelay(true).unwrap();
                        let request = format!(
                            "POST /v1/predict HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\
                             Connection: close\r\n\r\n{body}",
                            body.len()
                        );
                        s.write_all(request.as_bytes()).expect("send");
                        s
                    })
                    .collect();
                for s in &mut sockets {
                    let resp = hamlet_serve::http::read_response(s).expect("response");
                    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                }
            });
        }
    });
}

/// End-to-end: coalescing on (default tuning) vs. off, same traffic.
fn http_saturation(c: &mut Criterion) {
    let (ds, _tree, mlp) = models();
    let mut group = c.benchmark_group("serve_coalesce");
    group.sample_size(10);
    // 1–8 row bodies, the paper-serving shape: many tiny requests.
    let rows = in_domain_rows(&ds, HTTP_REQUESTS * 3, 23);
    let bodies: Vec<String> = (0..HTTP_REQUESTS)
        .map(|i| {
            let n = 1 + (i % 8);
            let batch: Vec<&Vec<u32>> = (0..n).map(|j| &rows[(i * 3 + j) % rows.len()]).collect();
            format!(
                "{{\"model\":\"sat\",\"rows\":{}}}",
                serde_json::to_string(&batch).unwrap()
            )
        })
        .collect();
    for (tag, coalesce) in [
        (
            "http_off",
            CoalesceConfig {
                window: Duration::ZERO,
                max_rows: 0,
            },
        ),
        ("http_on", CoalesceConfig::default()),
    ] {
        let dir = std::env::temp_dir().join(format!("hamlet-bench-coal-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let (state, _) = AppState::warm_full(
            dir.clone(),
            WarmOptions {
                executors: 2,
                coalesce,
                ..WarmOptions::default()
            },
        )
        .unwrap();
        state.registry.insert(artifact_for(mlp.clone(), &ds, "sat"));
        let server = serve_with(
            "127.0.0.1:0",
            ServerOptions {
                workers: 2,
                max_conns: 2048,
                ..ServerOptions::default()
            },
            Arc::clone(&state),
        )
        .unwrap();
        let addr = server.addr();
        group.bench_function(format!("{tag}_{HTTP_REQUESTS}x1to8"), |b| {
            b.iter(|| saturation_round(addr, &bodies))
        });
        let stats = state.coalescer.stats.snapshot();
        eprintln!("{tag}: coalesce stats {stats:?}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

criterion_group!(benches, exec_boundary, http_saturation);
criterion_main!(benches);
