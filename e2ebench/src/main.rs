//! One benchmark run:
//!
//! ```text
//! e2ebench --workload <small_raw|mlp_batch|study> --seed <n> --seconds <s> \
//!          --trace <0|1> --server <path to hamlet-serve> [--out <dir>]
//! ```
//!
//! Trains the workload's models from the seed, serves them from a separate
//! `hamlet-serve serve` process over loopback, drives it with an open and a
//! closed loop, checks every answer against `predict_row`, and prints the
//! metrics as one JSON object on the last line of stdout. `--trace 1`
//! reports per-layer metrics instead of end-to-end ones. A record with the
//! host details is written to the output directory (default `.bench_out`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use e2ebench::client::{self, Conn, Phase, Traffic};
use e2ebench::fixture::{self, Target, Workload, DATASET, SCALE};
use e2ebench::host::{self, NetCounters, ServerProc};
use e2ebench::stats::{self, median};
use e2ebench::trace::{self, Tracer};
use hamlet_core::experiment::RunResult;
use hamlet_core::feature_config::{build_splits, FeatureConfig};
use hamlet_core::model_zoo::Budget;
use hamlet_ml::dataset::CatDataset;
use hamlet_ml::model::Classifier;
use hamlet_serve::api::{Health, PredictRequest, PredictResponse, StatsResponse};
use hamlet_serve::artifact::{LoadMode, ModelArtifact, TrainingMetadata, FORMAT_VERSION};
use hamlet_serve::registry::ModelRegistry;
use hamlet_serve::server::{execute_batch, execute_predict, AppState, WarmOptions};
use hamlet_serve::train::{resolve_dataset, train_and_register};

/// Server spawns before the load and after each load round; `setup_s` is
/// their median.
const SETUP_REPEATS: usize = 3;
const SETUPS_PER_ROUND: usize = 2;
/// Closed-loop traffic before anything is timed (caches, EWMA windows).
const WARMUP: Duration = Duration::from_millis(500);
/// Traced run: requests pushed through the in-process layer path, and
/// round trips timed over one connection.
const LAYER_REQUESTS: usize = 2000;
const ROUNDTRIPS: usize = 2000;
/// Traced run: loads per artifact and mode, and registry lookups per span.
const LOAD_REPEATS: usize = 5;
const GET_BATCH: usize = 1024;
/// Load rounds per run; each is an open loop for this share of the round,
/// then a closed loop.
const ROUNDS: usize = 8;
const OPEN_SHARE: f64 = 0.6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = std::collections::HashMap::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let need = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let name = need("workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {names:?})")
    })?;
    let seed = need("seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = need("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match need("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        server: PathBuf::from(need("server")?),
        out: PathBuf::from(flags.get("out").map_or(".bench_out", String::as_str)),
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a number ({value})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// A trained model and where it was saved.
struct Model {
    name: String,
    config: FeatureConfig,
    path: PathBuf,
    /// The in-memory model as training produced it.
    artifact: Arc<ModelArtifact>,
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.out).map_err(err)?;
    let work = args.out.join(format!("work-{}", std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    let out = run_in(args, &work);
    std::fs::remove_dir_all(&work).ok();
    out
}

fn run_in(args: &Args, work: &Path) -> Result<String, String> {
    let w = args.workload;
    let art = work.join("artifacts");
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let mut layer = Metrics::default();
    let mut checks = Phase::default();

    // 1. Train the workload's models through the public train API.
    let (models, mut train_times) = if args.trace {
        let models = train_traced(w, args.seed, &art, &mut tr)?;
        layer.put("ml.train_peak_rss_mb", host::self_peak_rss_mb()?, "MiB");
        (models, Vec::new())
    } else {
        let (models, secs) = train(w, args.seed, &art)?;
        (models, vec![secs])
    };

    // 2. Oracle: reload every artifact (heap and mmap), check it against
    // the trained model and its recorded test accuracy, and that the
    // accuracies repeat across runs with this seed.
    let splits = test_splits(args.seed, &models)?;
    let oracles = check_artifacts(&models, &splits, &mut checks)?;
    check_accuracy_memo(args, &models, &mut checks)?;

    // 3. Bodies, and the labels each must get from `predict_row`.
    let targets: Vec<Target> = models
        .iter()
        .map(|m| Target {
            name: &m.name,
            contract: &m.artifact.contract,
            rows: split_for(&splits, &m.config),
        })
        .collect();
    let bodies = fixture::bodies(w, args.seed, &targets)?;
    let expected: Vec<Vec<bool>> = bodies
        .iter()
        .map(|b| {
            b.rows
                .iter()
                .map(|r| oracles[b.target].model.predict_row(r))
                .collect()
        })
        .collect();
    let requests: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| client::post("/v1/predict", &b.json))
        .collect();
    let traffic = Traffic {
        requests: &requests,
        expected: &expected,
    };

    // 4. Set-up: time spawn → first 200 from `/healthz` on a copy of the
    // fixture, a few times now and again after every load round, so the
    // samples spread over the run. The load server runs on the fixture.
    let net_before = NetCounters::read()?;
    let setup_dir = work.join("setup");
    copy_artifacts(&models, &setup_dir)?;
    let mut setups = time_setups(&args.server, &setup_dir, SETUP_REPEATS, &mut tr)?;
    let (server, _) = ServerProc::start(&args.server, &art)?;
    let addr = server.addr;
    checks.absorb(client::closed_loop(addr, traffic, WARMUP, false));
    let kernel_backend = stats_of(addr)?.kernel_backend;

    if args.trace {
        trace_layers(
            w,
            &models,
            &bodies,
            &expected,
            &server,
            work,
            &mut tr,
            &mut checks,
        )?;
        let mut conn = Conn::new(addr);
        for k in 0..ROUNDTRIPS {
            let i = k % requests.len();
            let t0 = Instant::now();
            let reply = conn.call(&requests[i]);
            tr.record("http.roundtrip", t0, Instant::now());
            checks.note(client::check(reply, &expected[i]));
        }
    }

    // 5. Load, in rounds: an open loop for latency, then a closed loop for
    // throughput. The host's CPU speed swings by a fifth from one second
    // to the next, so every figure pools all rounds of the run: it then
    // averages the host's states instead of catching one.
    let health_before = health_of(addr)?;
    let round_s = args.seconds / ROUNDS as f64;
    let (open_len, closed_len) = (
        Duration::from_secs_f64(round_s * OPEN_SHARE),
        Duration::from_secs_f64(round_s * (1.0 - OPEN_SHARE)),
    );
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let (mut open, mut closed) = (Phase::default(), Phase::default());
    for round in 0..ROUNDS {
        open.absorb(client::open_loop(
            addr,
            traffic,
            w.open_rate(),
            open_len,
            args.trace,
        ));
        if args.trace {
            // Untraced and traced halves: the difference is what recording
            // spans costs the generator.
            plain.absorb(client::closed_loop(addr, traffic, closed_len / 2, false));
            traced.absorb(client::closed_loop(addr, traffic, closed_len / 2, true));
        } else {
            closed.absorb(client::closed_loop(addr, traffic, closed_len, false));
            let n = w.retrains() * (round + 1) / ROUNDS - w.retrains() * round / ROUNDS;
            train_times.extend(retrain(w, args.seed, work, n)?);
        }
        setups.extend(time_setups(
            &args.server,
            &setup_dir,
            SETUPS_PER_ROUND,
            &mut tr,
        )?);
    }
    let plain_rps = plain.throughput();
    let overhead_pct = 100.0 * (plain_rps - traced.throughput()) / plain_rps;
    closed.absorb(plain);
    closed.absorb(traced);
    let health_after = health_of(addr)?;
    let stats_after = stats_of(addr)?;
    let net = NetCounters::read()?.since(net_before);
    let peak_rss_mb = server.peak_rss_mb()?;
    let (executors, reactors) = (server.executors, server.reactors);
    server.stop()?;

    for &(s, e) in open.spans.iter().chain(&closed.spans) {
        tr.record("gen.request", s, e);
    }
    let lags = stats::sorted(&open.open.iter().map(|s| s.lag_ms).collect::<Vec<_>>());
    let latencies = stats::sorted(&open.open.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
    let open_samples = open.open.len();
    let (conns, connects) = (open.conns + closed.conns, open.connects + closed.connects);
    let expected_connects = open.expected_connects + closed.expected_connects;
    let lag_grows = open.lag_grows;
    let mut totals = checks;
    totals.absorb(open);
    totals.absorb(closed);
    if let Some(e) = &totals.first_error {
        eprintln!("e2ebench: first failure: {e}");
    }

    let valid = net.listen_overflows == 0
        && net.syn_retrans == 0
        && !lag_grows
        && connects == expected_connects;
    if !valid {
        eprintln!(
            "e2ebench: INVALID RUN: listen overflows {}, SYN retransmits {}, lag grows {lag_grows}, \
             connections {connects} (keep-alive cap explains {expected_connects})",
            net.listen_overflows, net.syn_retrans
        );
    }

    let metrics = if args.trace {
        let p99 = |v: &[f64]| stats::tail(v, 99.0).ok_or("too few open-loop samples for p99");
        let ms = |name: &str| median(&tr.durations_ns(name)) / 1e6;
        let us = |name: &str| ms(name) * 1e3;
        let roundtrip_us = us("http.roundtrip");
        layer.put("http.roundtrip_us", roundtrip_us, "us");
        layer.put("http.overhead_us", roundtrip_us - us("request"), "us");
        layer.put("http.reconnects", (connects - conns) as f64, "count");
        layer.put(
            "http.listen_overflows",
            net.listen_overflows as f64,
            "count",
        );
        layer.put("http.syn_retrans", net.syn_retrans as f64, "count");
        layer.put("api.decode_us", us("api.decode"), "us");
        layer.put("api.encode_us", us("api.encode"), "us");
        layer.put(
            "registry.get_ns",
            us("registry.get_batch") * 1e3 / GET_BATCH as f64,
            "ns",
        );
        layer.put("artifact.encode_raw_us", us("artifact.encode_raw"), "us");
        layer.put(
            "artifact.validate_coded_us",
            us("artifact.validate_coded"),
            "us",
        );
        let per_model_load = |name: &str| -> f64 {
            tr.durations_ns(name)
                .chunks(LOAD_REPEATS)
                .map(median)
                .sum::<f64>()
                / 1e6
        };
        layer.put(
            "artifact.load_ms",
            per_model_load("artifact.load_heap"),
            "ms",
        );
        layer.put(
            "artifact.load_mmap_ms",
            per_model_load("artifact.load_mmap"),
            "ms",
        );
        layer.put("artifact.save_ms", ms("artifact.save"), "ms");
        layer.put("server.execute_solo_us", us("server.execute_solo"), "us");
        layer.put(
            "server.execute_merged_us",
            us("server.execute_merged") / 2.0,
            "us",
        );
        let predict_rows: usize = (0..LAYER_REQUESTS)
            .map(|k| bodies[k % bodies.len()].rows.len())
            .sum();
        let predict_ns: f64 = tr.durations_ns("ml.predict").iter().sum();
        layer.put(
            "ml.predict_ns_per_row",
            predict_ns / predict_rows as f64,
            "ns",
        );
        let (h0, h1) = (&health_before.coalesce, &health_after.coalesce);
        let merged = (h1.merged_requests - h0.merged_requests) as f64;
        let solo = (h1.solo_requests - h0.solo_requests) as f64;
        let batches = (h1.batches - h0.batches) as f64;
        let timeouts = (h1.flush_timeout - h0.flush_timeout) as f64;
        layer.put(
            "coalesce.merged_ratio",
            merged / (merged + solo).max(1.0),
            "ratio",
        );
        layer.put(
            "coalesce.timeout_flush_ratio",
            timeouts / batches.max(1.0),
            "ratio",
        );
        let predict_row = stats_after
            .endpoints
            .iter()
            .find(|r| r.endpoint == "predict")
            .ok_or("no predict row in /v1/stats")?;
        layer.put(
            "telemetry.server_p50_ms",
            predict_row.p50_ms.unwrap_or(f64::NAN),
            "ms",
        );
        layer.put(
            "telemetry.server_p99_ms",
            predict_row.p99_ms.unwrap_or(f64::NAN),
            "ms",
        );
        layer.put("open.p99_ms", p99(&latencies)?, "ms");
        layer.put("gen.lag_p99_ms", p99(&lags)?, "ms");
        layer.put("datagen.generate_ms", ms("datagen.generate"), "ms");
        layer.put("core.build_splits_ms", ms("core.build_splits"), "ms");
        layer.put(
            "ml.fit_tuned_s",
            tr.durations_ns("ml.fit_tuned").iter().sum::<f64>() / 1e9,
            "s",
        );
        layer.put(
            "ml.score_ms",
            tr.durations_ns("ml.score").iter().sum::<f64>() / 1e6,
            "ms",
        );
        layer.put("closed.throughput_rps", plain_rps, "1/s");
        layer.put("trace.overhead_pct", overhead_pct, "%");
        let spans_path = args
            .out
            .join(format!("{}-seed{}.spans.jsonl", w.name(), args.seed));
        tr.write_jsonl(&spans_path).map_err(err)?;
        print_self_times(&tr);
        layer
    } else {
        let mut m = Metrics::default();
        m.put("setup_s", median(&setups), "s");
        m.put("study_s", stats::mean(&train_times), "s");
        m.put(
            "p50_ms",
            stats::nearest_rank(&latencies, 50.0).ok_or("no open-loop samples")?,
            "ms",
        );
        m.put(
            "ok_ratio",
            1.0 - totals.failed as f64 / totals.attempted as f64,
            "ratio",
        );
        m.put("peak_rss_mb", peak_rss_mb, "MiB");
        m
    };
    for (name, value, unit) in &metrics.0 {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    eprintln!(
        "  ({} attempted, {} failed; {} open-loop samples at {} req/s)",
        totals.attempted,
        totals.failed,
        open_samples,
        w.open_rate()
    );

    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        totals.failed == 0,
        totals.attempted,
        totals.failed,
        metrics.json()?
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {},\n \
         \"host\": {{\"nproc\": {}, \"kernel_backend\": \"{kernel_backend}\", \"executors\": {executors}, \
         \"reactors\": {reactors}, \"rustc\": {:?}, \"commit\": {:?}, \"source_fnv\": \"{}\"}},\n \
         \"validity\": {{\"valid\": {valid}, \"listen_overflows\": {}, \"syn_retrans\": {}, \
         \"lag_grows\": {lag_grows}, \"connects\": {connects}, \"expected_connects\": {expected_connects}, \
         \"open_samples\": {}, \"open_rate\": {}}},\n \"result\": {result}}}\n",
        w.name(),
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        host::rustc_version(),
        host::commit(),
        host::source_fingerprint(Path::new("crates")),
        net.listen_overflows,
        net.syn_retrans,
        open_samples,
        w.open_rate(),
    );
    let record_path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record_path, record).map_err(err)?;
    Ok(result)
}

/// Trains the workload's models into `dir` with `train_and_register`;
/// returns them with the wall time the training took.
fn train(w: Workload, seed: u64, dir: &Path) -> Result<(Vec<Model>, f64), String> {
    let registry = ModelRegistry::new();
    let t0 = Instant::now();
    let mut trained = Vec::new();
    for plan in w.plans() {
        let resp = train_and_register(&registry, dir, &plan.request(seed))
            .map_err(|e| format!("training {}: {e}", plan.name))?;
        trained.push((plan, resp));
    }
    let secs = t0.elapsed().as_secs_f64();
    let models = trained
        .into_iter()
        .map(|(plan, resp)| {
            Ok(Model {
                name: plan.name,
                config: plan.config,
                path: PathBuf::from(resp.path),
                artifact: registry.get(&resp.key).map_err(err)?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((models, secs))
}

/// Trains the workload's models `times` more times into a scratch
/// directory it then deletes; returns the wall times.
fn retrain(w: Workload, seed: u64, work: &Path, times: usize) -> Result<Vec<f64>, String> {
    let dir = work.join("retrain");
    (0..times)
        .map(|_| {
            let (_, secs) = train(w, seed, &dir)?;
            std::fs::remove_dir_all(&dir).map_err(err)?;
            Ok(secs)
        })
        .collect()
}

/// The same pipeline as `train_and_register`, one public call at a time,
/// each inside a span.
fn train_traced(w: Workload, seed: u64, art: &Path, tr: &mut Tracer) -> Result<Vec<Model>, String> {
    let budget = Budget::paper();
    let mut models = Vec::new();
    for plan in w.plans() {
        let model = tr.span("train", |tr| -> Result<Model, String> {
            let t0 = Instant::now();
            let g = tr
                .span("datagen.generate", |_| {
                    resolve_dataset(DATASET, SCALE, seed)
                })
                .map_err(err)?;
            let data = tr
                .span("core.build_splits", |_| build_splits(&g, &plan.config))
                .map_err(err)?;
            let tuned = tr
                .span("ml.fit_tuned", |_| {
                    plan.spec.fit_tuned(&data.train, &data.val, &budget)
                })
                .map_err(err)?;
            let (train_accuracy, test_accuracy) = tr.span("ml.score", |_| {
                (
                    tuned.model.accuracy(&data.train),
                    tuned.model.accuracy(&data.test),
                )
            });
            let artifact = ModelArtifact {
                format_version: FORMAT_VERSION,
                name: plan.name.clone(),
                version: 1,
                model: tuned.model,
                feature_config: plan.config.clone(),
                contract: tuned.contract,
                schema_fingerprint: g.star.fingerprint(),
                metadata: TrainingMetadata {
                    dataset: DATASET.into(),
                    spec: plan.spec,
                    train_rows: g.n_train,
                    metrics: RunResult {
                        model: plan.spec.name().into(),
                        config: plan.config.name(),
                        train_accuracy,
                        val_accuracy: tuned.val_accuracy,
                        test_accuracy,
                        seconds: t0.elapsed().as_secs_f64(),
                        winner: tuned.description,
                    },
                },
            };
            let path = tr
                .span("artifact.save", |_| artifact.save(art))
                .map_err(err)?;
            Ok(Model {
                name: plan.name.clone(),
                config: plan.config.clone(),
                path,
                artifact: Arc::new(artifact),
            })
        })?;
        models.push(model);
    }
    Ok(models)
}

/// Copies the models' artifact files into `dir`.
fn copy_artifacts(models: &[Model], dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    for m in models {
        let name = m.path.file_name().ok_or("artifact path has no file name")?;
        std::fs::copy(&m.path, dir.join(name)).map_err(err)?;
    }
    Ok(())
}

/// Starts and stops the server on `dir` `n` times; returns the seconds
/// from each spawn to its first 200 from `/healthz`.
fn time_setups(bin: &Path, dir: &Path, n: usize, tr: &mut Tracer) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            let (server, took) = ServerProc::start(bin, dir)?;
            tr.record("setup.spawn_to_healthz", t0, t0 + took);
            server.stop()?;
            Ok(took.as_secs_f64())
        })
        .collect()
}

/// Test split per feature config the models use, regenerated from the seed.
fn test_splits(seed: u64, models: &[Model]) -> Result<Vec<(FeatureConfig, CatDataset)>, String> {
    let g = resolve_dataset(DATASET, SCALE, seed).map_err(err)?;
    let mut splits: Vec<(FeatureConfig, CatDataset)> = Vec::new();
    for m in models {
        if !splits.iter().any(|(c, _)| *c == m.config) {
            splits.push((
                m.config.clone(),
                build_splits(&g, &m.config).map_err(err)?.test,
            ));
        }
    }
    Ok(splits)
}

fn split_for<'a>(
    splits: &'a [(FeatureConfig, CatDataset)],
    config: &FeatureConfig,
) -> &'a CatDataset {
    &splits
        .iter()
        .find(|(c, _)| c == config)
        .expect("a split exists for every model's config")
        .1
}

/// Reloads every saved artifact heap and mmap: each must predict like the
/// trained model on its test rows and reproduce its recorded test
/// accuracy. Returns the heap reloads, which serve as the oracle.
fn check_artifacts(
    models: &[Model],
    splits: &[(FeatureConfig, CatDataset)],
    checks: &mut Phase,
) -> Result<Vec<ModelArtifact>, String> {
    let mut oracles = Vec::new();
    for m in models {
        let test = split_for(splits, &m.config);
        let trained = &m.artifact.model;
        for mode in [LoadMode::Mmap, LoadMode::Heap] {
            let re = ModelArtifact::load_with(&m.path, mode).map_err(err)?;
            let same = (0..test.n_rows())
                .all(|i| re.model.predict_row(test.row(i)) == trained.predict_row(test.row(i)));
            checks.note(same.then_some(()).ok_or_else(|| {
                format!(
                    "{} reloaded ({mode:?}) predicts unlike the trained model",
                    m.name
                )
            }));
            let (acc, recorded) = (
                re.model.accuracy(test),
                m.artifact.metadata.metrics.test_accuracy,
            );
            checks.note((acc == recorded).then_some(()).ok_or_else(|| {
                format!(
                    "{} reloaded ({mode:?}) has test accuracy {acc}, trained {recorded}",
                    m.name
                )
            }));
            if mode == LoadMode::Heap {
                oracles.push(re);
            }
        }
    }
    Ok(oracles)
}

/// Test accuracies must repeat exactly for a seed: the first run with a
/// seed writes them down in the output directory, later runs compare.
fn check_accuracy_memo(args: &Args, models: &[Model], checks: &mut Phase) -> Result<(), String> {
    let path = args.out.join(format!(
        "accuracy-{}-seed{}.txt",
        args.workload.name(),
        args.seed
    ));
    let now: String = models
        .iter()
        .map(|m| format!("{} {}\n", m.name, m.artifact.metadata.metrics.test_accuracy))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(before) => {
            checks.note((before == now).then_some(()).ok_or_else(|| {
                format!("test accuracies changed for this seed:\n{before}---\n{now}")
            }))
        }
        Err(_) => std::fs::write(&path, now).map_err(err)?,
    }
    Ok(())
}

/// Times each layer's public calls on the workload's own bodies, in this
/// process: the request path (decode → registry → encode/validate →
/// execute → encode), the artifact loads, the model kernels, the merged
/// execution of two requests, and registry lookups.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    w: Workload,
    models: &[Model],
    bodies: &[fixture::Body],
    expected: &[Vec<bool>],
    server: &ServerProc,
    work: &Path,
    tr: &mut Tracer,
    checks: &mut Phase,
) -> Result<(), String> {
    for m in models {
        for _ in 0..LOAD_REPEATS {
            tr.span("artifact.load_heap", |_| {
                ModelArtifact::load_with(&m.path, LoadMode::Heap)
            })
            .map_err(err)?;
        }
    }
    for m in models {
        for _ in 0..LOAD_REPEATS {
            tr.span("artifact.load_mmap", |_| {
                ModelArtifact::load_with(&m.path, LoadMode::Mmap)
            })
            .map_err(err)?;
        }
    }

    // An in-process serving state over a copy of the fixture, sized like
    // the server (its event log must not share the server's directory).
    let dir = work.join("inproc");
    copy_artifacts(models, &dir)?;
    let (state, _) = AppState::warm_full(
        dir,
        WarmOptions {
            executors: server.executors,
            ..WarmOptions::default()
        },
    )
    .map_err(err)?;

    for k in 0..LAYER_REQUESTS {
        let i = k % bodies.len();
        let labels = tr.span("request", |tr| -> Result<Vec<bool>, String> {
            let t0 = Instant::now();
            let req: PredictRequest = tr
                .span("api.decode", |_| {
                    serde_json::from_slice(bodies[i].json.as_bytes())
                })
                .map_err(err)?;
            let art = tr
                .span("registry.get", |_| state.registry.get(&req.model))
                .map_err(err)?;
            let d = art.contract.width();
            let flat = match (&req.rows, &req.rows_raw) {
                (Some(rows), None) => {
                    tr.span("artifact.validate_coded", |_| art.validate_coded(rows))
                }
                (None, Some(raw)) => tr.span("artifact.encode_raw", |_| art.encode_raw(raw)),
                _ => return Err("a body carries exactly one of rows and rows_raw".into()),
            }
            .map_err(err)?;
            let labels = tr.span("server.execute_solo", |_| {
                execute_predict(&state, &art, &flat, d)
            });
            let resp = PredictResponse {
                model: art.key(),
                labels,
                tiers: None,
                tier_confidence: None,
                latency_ms: t0.elapsed().as_secs_f64() * 1e3,
            };
            tr.span("api.encode", |_| serde_json::to_string(&resp))
                .map_err(err)?;
            Ok(resp.labels)
        })?;
        checks.note(
            (labels == expected[i])
                .then_some(())
                .ok_or("in-process labels differ from predict_row".to_string()),
        );
    }

    for k in 0..LAYER_REQUESTS {
        let i = k % bodies.len();
        let b = &bodies[i];
        let art = &models[b.target].artifact;
        let d = art.contract.width();
        let flat: Vec<u32> = b.rows.concat();
        // A partner for the merged execution: the next body for the same
        // model, as two concurrent requests would arrive together.
        let j = (1..bodies.len())
            .map(|s| (i + s) % bodies.len())
            .find(|&j| bodies[j].target == b.target)
            .unwrap_or(i);
        let partner: Vec<u32> = bodies[j].rows.concat();
        tr.span("aux", |tr| -> Result<(), String> {
            // The ingest path the workload's bodies do not take.
            if w.raw() {
                tr.span("artifact.validate_coded", |_| art.validate_coded(&b.rows))
                    .map_err(err)?;
            } else {
                let raw = b
                    .rows
                    .iter()
                    .map(|r| art.contract.decode_row(r))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(err)?;
                tr.span("artifact.encode_raw", |_| art.encode_raw(&raw))
                    .map_err(err)?;
            }
            let labels = tr.span("ml.predict", |_| art.model.predict_batch(&flat, d));
            checks.note(
                (labels == expected[i])
                    .then_some(())
                    .ok_or("predict_batch differs from predict_row".to_string()),
            );
            let merged = tr.span("server.execute_merged", |_| {
                execute_batch(&state, art, &[&flat, &partner], d)
            });
            checks.note(
                (merged[0] == expected[i] && merged[1] == expected[j])
                    .then_some(())
                    .ok_or("merged execution differs from predict_row".to_string()),
            );
            Ok(())
        })?;
    }

    let name = &models[0].name;
    for _ in 0..200 {
        tr.span("registry.get_batch", |_| {
            for _ in 0..GET_BATCH {
                std::hint::black_box(state.registry.get(std::hint::black_box(name)).is_ok());
            }
        });
    }
    Ok(())
}

/// Prints total self time per layer (the span name up to its first dot).
fn print_self_times(tr: &Tracer) {
    let mut by_layer: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for (name, (self_ns, _)) in trace::self_time_by_name(tr.spans()) {
        *by_layer
            .entry(name.split('.').next().unwrap_or(name))
            .or_default() += self_ns;
    }
    let total: u64 = by_layer.values().sum();
    eprintln!("  self time per layer (traced run):");
    for (layer, ns) in by_layer {
        eprintln!(
            "    {layer:<12} {:>12.3} ms  {:>5.1}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
}

fn get_json<T: serde::Deserialize>(addr: std::net::SocketAddr, path: &str) -> Result<T, String> {
    let reply = Conn::new(addr).call(&client::get(path)).map_err(err)?;
    if reply.status != 200 {
        return Err(format!("GET {path}: status {}", reply.status));
    }
    serde_json::from_slice(&reply.body).map_err(|e| format!("GET {path}: {e}"))
}

fn health_of(addr: std::net::SocketAddr) -> Result<Health, String> {
    get_json(addr, "/healthz")
}

fn stats_of(addr: std::net::SocketAddr) -> Result<StatsResponse, String> {
    get_json(addr, "/v1/stats")
}
