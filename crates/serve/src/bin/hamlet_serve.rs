//! `hamlet-serve` CLI: train servable artifacts and run the HTTP server.
//!
//! ```bash
//! hamlet-serve train --name movies-tree --dataset movies --spec TreeGini \
//!     [--config NoJoin|JoinAll|NoFK] [--scale 2000] [--seed 7] [--full] [--dir artifacts]
//! hamlet-serve serve [--addr 127.0.0.1:8080] [--workers N] [--reactors N] [--max-conns N]
//!                    [--dir artifacts] [--load-mode heap|mmap]
//!                    [--coalesce-window MICROS] [--coalesce-max-rows N]
//! hamlet-serve probe [--addr 127.0.0.1:8080] [--idle 64] [--path /healthz]
//!                    [--body JSON] [--threshold-ms 2000]
//! hamlet-serve blast [--addr 127.0.0.1:8080] [--path /v1/predict] [--requests 64]
//!                    [--concurrency 16] --body-template JSON-with-{i}
//! hamlet-serve blast --conns 256 --duration 5 [--active 16] --body-template JSON
//! hamlet-serve artifact inspect <path>
//! hamlet-serve artifact convert <src> --quantize i8 [--dir DIR]
//! hamlet-serve artifact diff <a> <b>
//! hamlet-serve cascade build --tiers <cheap.bin,top.bin> [--target-p 0.95]
//! hamlet-serve datasets
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::ModelSpec;
use hamlet_ml::quant::ENCODING;
use hamlet_serve::api::TrainRequest;
use hamlet_serve::artifact::{LoadMode, ModelArtifact, FORMAT_VERSION};
use hamlet_serve::http::ServerOptions;
use hamlet_serve::server::AppState;
use hamlet_serve::train::{train_and_register, DATASETS};

const USAGE: &str = "hamlet-serve — model training and batched HTTP serving

USAGE:
    hamlet-serve train --name <NAME> --dataset <DATASET> --spec <SPEC>
                       [--config <CONFIG>] [--scale <N>] [--seed <N>]
                       [--full] [--dir <DIR>]
    hamlet-serve serve [--addr <ADDR>] [--workers <N>] [--reactors <N>]
                       [--max-conns <N>] [--dir <DIR>] [--load-mode heap|mmap]
                       [--coalesce-window <MICROS>] [--coalesce-max-rows <N>]
                       [--demote-idle-secs <N>] [--canary-slice <PCT>]
                       [--guardrail-min-samples <N>] [--guardrail-agreement <P>]
                       [--guardrail-error-ratio <P>] [--guardrail-p99-ratio <X>]
                       [--drift-check-secs <N>] [--no-drift-freeze]
    hamlet-serve probe [--addr <ADDR>] [--idle <N>] [--path <PATH>]
                       [--body <JSON>] [--threshold-ms <MS>]
    hamlet-serve blast [--addr <ADDR>] [--path <PATH>] [--requests <N>]
                       [--concurrency <N>] --body-template <JSON>
                       [--summary-json <PATH|->]
    hamlet-serve blast --conns <N> --duration <SECS> [--active <N>]
                       [--addr <ADDR>] [--path <PATH>] --body-template <JSON>
                       [--summary-json <PATH|->]
    hamlet-serve blast --observe [--requests <N>] [--rate <REQ_PER_S>]
                       [--addr <ADDR>] --body-template <OBSERVE-JSON>
    hamlet-serve rollout <status|start|abort> [--addr <ADDR>]
                         [--candidate <KEY> | --refresh <NAME>] [--slice <PCT>]
    hamlet-serve artifact inspect <PATH>
    hamlet-serve artifact convert <SRC> --quantize i8
                                  [--sample-rows <N>] [--dir <DIR>]
    hamlet-serve artifact diff <A> <B>
    hamlet-serve cascade build --tiers <PATH,PATH[,PATH...]>
                               [--target-p <P>] [--calibrator platt|isotonic]
                               [--sample-rows <N>] [--name <NAME>] [--dir <DIR>]
    hamlet-serve datasets

SPECS:    TreeGini TreeInfoGain TreeGainRatio OneNN SvmLinear SvmQuadratic
          SvmRbf Ann NaiveBayesBfs LogRegL1
CONFIGS:  NoJoin (default) | JoinAll | NoFK
DATASETS: movies yelp walmart expedia lastfm books flights onexr
DEFAULTS: --dir artifacts, --addr 127.0.0.1:8080, --scale 2000, --seed 7,
          --workers = CPU count (request *executors*: idle connections no
          longer occupy a worker), --reactors = min(4, CPUs/4) event-loop
          shards (each with its own SO_REUSEPORT listener and epoll;
          HAMLET_REACTORS overrides), --max-conns 1024; --full uses the
          paper-fidelity grids; --load-mode heap (mmap borrows format-v3
          weights zero-copy from the mapped files); --coalesce-window 200
          microseconds (0 disables cross-request predict coalescing),
          --coalesce-max-rows 512 (a merged batch flushes at this size);
          --demote-idle-secs 0 (off): when set, promoted non-latest
          versions untouched for that long are auto-demoted back to lazy
          slots (telemetry last-hit driven; the latest version is never
          touched). /v1/stats and /metrics expose the telemetry.

ROLLOUT:  serve runs the safe-rollout plane: `rollout start` puts a held
          candidate into SHADOW (bare-name predict traffic is mirrored to
          it, responses discarded, agreement/latency scored against the
          incumbent), it graduates to CANARY (--canary-slice percent of
          bare-name traffic served for real, default 10), and it is
          auto-PROMOTED only once agreement ≥ --guardrail-agreement
          (default 0.98), canary panic-500 ratio ≤ --guardrail-error-ratio
          (default 0.02) and candidate p99 ≤ --guardrail-p99-ratio × the
          incumbent's (default 3.0) over --guardrail-min-samples mirrored
          rows and canary requests (default 200/50). Any tripped guardrail
          rolls the candidate back instantly (demote + audit trail).
          /v1/observe streams labeled production rows into a crash-safe
          buffer; every --drift-check-secs (default 5, 0 disables) the
          paper's avoid-join decision rule re-runs over it and freezes
          auto-promotion while the live data sits outside the safety
          envelope (--no-drift-freeze keeps promotion unfrozen). State
          survives restarts via the rollout journal next to the artifacts.

PROBE:    opens --idle parked keep-alive connections, then times one
          request on a FRESH connection; fails if it errors or exceeds
          --threshold-ms. Smoke-checks that idle connections are free.

BLAST:    fires --requests POSTs at --path from --concurrency parallel
          connections. --body-template substitutes {n} with the request
          index and {i} with index mod 2 (in-domain 0/1 codes). Prints one
          `index<TAB>labels` line per request to stdout (sorted, stable
          across runs) so outputs can be diffed between server configs —
          e.g. coalescing on vs. off must be byte-identical. A latency
          p50/p90/p99 summary goes to stderr; --summary-json writes the
          same numbers as JSON to a file (`-` appends them to stdout).
          When responses carry cascade tier provenance, the summary gains
          `tier_rows` (rows answered per tier) and --expect-tiers N fails
          the run unless at least N distinct tiers actually answered —
          the CI probe's proof that short-circuiting really happened.

          With --conns/--duration blast instead runs SUSTAINED: it opens
          --conns keep-alive connections one by one, timing how long the
          server takes to adopt and answer a first trivial request on each
          (the accept-latency proxy), then drives requests from --active
          of them (default min(16, conns)) for --duration seconds while
          the rest sit parked. Reports accept p50/p99 alongside request
          p50/p90/p99 and req/s; --summary-json gains accept_p50_ms /
          accept_p99_ms. No per-request stdout lines in this mode.

ARTIFACT: inspect prints a file's format, sections, weight encoding and
          header without loading the model (quantized artifacts also list
          per-tensor byte sizes and scales); convert --quantize i8
          rewrites the weight tensors (per-tensor symmetric i8, a size
          option, not a speed one) into a NEW artifact named
          `<name>-i8` and reports the size ratio plus a
          prediction-agreement estimate against the source model on
          --sample-rows (default 512) deterministic in-domain rows; diff
          reports added/removed features, cardinality changes and
          label-set deltas between two artifact versions.

CASCADE:  build bundles existing artifacts (comma-separated, cheapest
          first, authoritative top tier last; all must share one feature
          contract) into a single tiered-cascade artifact. Each front
          tier's raw margin is calibrated (--calibrator platt|isotonic,
          default platt) against *agreement with the top tier* on
          --sample-rows (default 2048) deterministic in-domain rows — no
          ground-truth labels needed — and its short-circuit threshold is
          picked as the loosest cut whose kept rows still agree with the
          top tier at rate ≥ --target-p (default 0.95). Writes a v3
          artifact named --name (default `<top>-casc`) and prints a JSON
          report: per-tier thresholds, whole-cascade agreement with the
          top tier, escalation ratio, rows answered per tier, and a
          single-threaded speedup estimate over the top tier alone.

KERNELS:  inference uses runtime-dispatched SIMD kernels (AVX2, then
          SSE2, else scalar; `/v1/stats` reports the chosen tier). Set
          HAMLET_FORCE_SCALAR=1 to pin the bit-exact scalar reference.
";

/// Splits CLI args into positional operands and `--flag value` pairs.
fn parse_args(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(name) = a.strip_prefix("--") else {
            positional.push(a.clone());
            i += 1;
            continue;
        };
        if matches!(name, "full" | "observe" | "no-drift-freeze") {
            flags.insert(name.to_string(), "true".to_string());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
            i += 2;
        }
    }
    Ok((positional, flags))
}

/// Parses a serde-named enum value (e.g. `TreeGini`) via its JSON form.
fn parse_enum<T: serde::Deserialize>(what: &str, value: &str) -> Result<T, String> {
    serde_json::from_str(&format!("\"{value}\""))
        .map_err(|_| format!("unknown {what} `{value}` (see --help)"))
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let name = flags.get("name").ok_or("--name is required")?.clone();
    let dataset = flags.get("dataset").ok_or("--dataset is required")?.clone();
    let spec: ModelSpec = parse_enum("spec", flags.get("spec").ok_or("--spec is required")?)?;
    let config: Option<FeatureConfig> = flags
        .get("config")
        .map(|c| parse_enum("config", c))
        .transpose()?;
    let scale = flags
        .get("scale")
        .map(|s| s.parse().map_err(|_| format!("bad --scale `{s}`")))
        .transpose()?;
    let seed = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| format!("bad --seed `{s}`")))
        .transpose()?;
    let dir = PathBuf::from(flags.get("dir").map(String::as_str).unwrap_or("artifacts"));

    // No warm-load: version allocation reads versions from artifact
    // filenames, so existing models need not be deserialized to train.
    let registry = hamlet_serve::registry::ModelRegistry::new();
    let req = TrainRequest {
        name,
        dataset,
        spec,
        config,
        scale,
        seed,
        full_budget: flags.get("full").map(|_| true),
    };
    eprintln!(
        "training {} on `{}` ({})...",
        req.spec.name(),
        req.dataset,
        req.config.clone().unwrap_or(FeatureConfig::NoJoin).name()
    );
    let resp = train_and_register(&registry, &dir, &req).map_err(|e| e.to_string())?;
    println!(
        "{}",
        serde_json::to_string_pretty(&resp).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn parse_load_mode(flags: &HashMap<String, String>) -> Result<LoadMode, String> {
    match flags.get("load-mode").map(String::as_str) {
        None | Some("heap") => Ok(LoadMode::Heap),
        Some("mmap") => Ok(LoadMode::Mmap),
        Some(other) => Err(format!("bad --load-mode `{other}` (heap|mmap)")),
    }
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:8080");
    let workers = match flags.get("workers") {
        Some(w) => w.parse().map_err(|_| format!("bad --workers `{w}`"))?,
        None => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4),
    };
    let max_conns = match flags.get("max-conns") {
        Some(m) => m.parse().map_err(|_| format!("bad --max-conns `{m}`"))?,
        None => hamlet_serve::http::MAX_CONNS,
    };
    let reactors = match flags.get("reactors") {
        Some(r) => {
            let n: usize = r.parse().map_err(|_| format!("bad --reactors `{r}`"))?;
            n.max(1)
        }
        None => ServerOptions::default().reactors,
    };
    let dir = PathBuf::from(flags.get("dir").map(String::as_str).unwrap_or("artifacts"));
    let load_mode = parse_load_mode(flags)?;
    let mut coalesce = hamlet_serve::coalesce::CoalesceConfig::default();
    if let Some(w) = flags.get("coalesce-window") {
        let micros: u64 = w
            .parse()
            .map_err(|_| format!("bad --coalesce-window `{w}` (microseconds)"))?;
        coalesce.window = std::time::Duration::from_micros(micros);
    }
    if let Some(m) = flags.get("coalesce-max-rows") {
        coalesce.max_rows = m
            .parse()
            .map_err(|_| format!("bad --coalesce-max-rows `{m}`"))?;
    }

    let demote_idle_secs: u64 = match flags.get("demote-idle-secs") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad --demote-idle-secs `{s}` (seconds, 0 disables)"))?,
        None => 0,
    };

    let mut guardrails = hamlet_serve::rollout::GuardrailConfig::default();
    if let Some(s) = flags.get("canary-slice") {
        let slice: u8 = s.parse().map_err(|_| format!("bad --canary-slice `{s}`"))?;
        if slice == 0 || slice > 100 {
            return Err(format!("--canary-slice must be in 1..=100, got {slice}"));
        }
        guardrails.canary_slice = slice;
    }
    if let Some(s) = flags.get("guardrail-min-samples") {
        let n: u64 = s
            .parse()
            .map_err(|_| format!("bad --guardrail-min-samples `{s}`"))?;
        guardrails.min_shadow_rows = n;
        guardrails.min_canary_requests = n;
    }
    if let Some(s) = flags.get("guardrail-agreement") {
        guardrails.min_agreement = s
            .parse()
            .map_err(|_| format!("bad --guardrail-agreement `{s}`"))?;
    }
    if let Some(s) = flags.get("guardrail-error-ratio") {
        guardrails.max_error_ratio = s
            .parse()
            .map_err(|_| format!("bad --guardrail-error-ratio `{s}`"))?;
    }
    if let Some(s) = flags.get("guardrail-p99-ratio") {
        guardrails.max_p99_ratio = s
            .parse()
            .map_err(|_| format!("bad --guardrail-p99-ratio `{s}`"))?;
    }
    if flags.contains_key("no-drift-freeze") {
        guardrails.drift_freeze = false;
    }
    let drift_check_secs: u64 = match flags.get("drift-check-secs") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad --drift-check-secs `{s}` (seconds, 0 disables)"))?,
        None => 5,
    };

    let (state, loaded) = AppState::warm_full(
        dir.clone(),
        hamlet_serve::server::WarmOptions {
            executors: workers,
            load_mode,
            coalesce,
            guardrails,
        },
    )
    .map_err(|e| e.to_string())?;
    let mut opts = ServerOptions {
        workers,
        max_conns,
        reactors,
        ..ServerOptions::default()
    };
    {
        // One ~1 Hz ops tick drives all three background loops: rollout
        // guardrail evaluation every pass, the drift advisor at its own
        // cadence, and idle-version demotion when enabled.
        let idle = std::time::Duration::from_secs(demote_idle_secs);
        let tick_state = std::sync::Arc::clone(&state);
        let passes = std::sync::atomic::AtomicU64::new(0);
        opts.on_tick = Some(hamlet_serve::http::AppTick {
            every: std::time::Duration::from_secs(1),
            run: std::sync::Arc::new(move || {
                let n = passes.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                tick_state
                    .rollout
                    .tick(&tick_state.registry, &tick_state.telemetry);
                if drift_check_secs > 0 && n.is_multiple_of(drift_check_secs) {
                    tick_state
                        .rollout
                        .drift_check(&tick_state.registry, &tick_state.telemetry);
                }
                if demote_idle_secs > 0 {
                    for key in hamlet_serve::server::demote_idle(&tick_state, idle) {
                        eprintln!("auto-demoted idle version {key}");
                    }
                }
            }),
        });
    }
    let server = hamlet_serve::server::serve_with(addr, opts, state).map_err(|e| e.to_string())?;
    eprintln!(
        "hamlet-serve listening on http://{} ({} executor(s), {} reactor(s), {} max conns, \
         {} model(s) warm from {}, {load_mode:?} load mode, coalesce window {:?} / {} rows, \
         auto-demote {})",
        server.addr(),
        workers,
        reactors,
        max_conns,
        loaded,
        dir.display(),
        coalesce.window,
        coalesce.max_rows,
        if demote_idle_secs > 0 {
            format!("after {demote_idle_secs}s idle")
        } else {
            "off".into()
        },
    );
    // Parked on a condvar (zero CPU) until a stop signal; process signals
    // (Ctrl-C) terminate the process directly.
    server.block_until_shutdown();
    Ok(())
}

/// `probe`: open N idle keep-alive connections, then verify a fresh
/// connection still answers promptly — the reactor's "idle connections are
/// free" property as a CI-runnable smoke check.
fn cmd_probe(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:8080");
    let idle: usize = match flags.get("idle") {
        Some(n) => n.parse().map_err(|_| format!("bad --idle `{n}`"))?,
        None => 64,
    };
    let path = flags.get("path").map(String::as_str).unwrap_or("/healthz");
    let body = flags.get("body").map(String::as_str).unwrap_or("");
    let threshold_ms: f64 = match flags.get("threshold-ms") {
        Some(t) => t.parse().map_err(|_| format!("bad --threshold-ms `{t}`"))?,
        None => 2000.0,
    };
    // Blocking reads must not outlive the failure budget: if the server
    // wedges (the exact regression this probe exists to catch), the probe
    // has to exit nonzero promptly, not hang the CI job.
    let io_timeout = std::time::Duration::from_millis((threshold_ms.max(1000.0) * 2.0) as u64);

    // Park idle keep-alive connections. Each does one tiny request first so
    // it is a *bona fide* keep-alive connection, not just an unused socket.
    let mut parked = Vec::with_capacity(idle);
    for i in 0..idle {
        let mut s = TcpStream::connect(addr)
            .map_err(|e| format!("parking connection {i}: connect: {e}"))?;
        s.set_read_timeout(Some(io_timeout))
            .map_err(|e| format!("parking connection {i}: timeout: {e}"))?;
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: probe\r\n\r\n")
            .map_err(|e| format!("parking connection {i}: send: {e}"))?;
        read_one_response(&mut s).map_err(|e| format!("parking connection {i}: {e}"))?;
        parked.push(s);
    }

    // One timed request on a fresh connection.
    let start = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("fresh connect: {e}"))?;
    s.set_read_timeout(Some(io_timeout))
        .map_err(|e| format!("fresh timeout: {e}"))?;
    let request = if body.is_empty() {
        format!("GET {path} HTTP/1.1\r\nHost: probe\r\nConnection: close\r\n\r\n")
    } else {
        format!(
            "POST {path} HTTP/1.1\r\nHost: probe\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };
    s.write_all(request.as_bytes())
        .map_err(|e| format!("fresh send: {e}"))?;
    let (status, resp_body) = read_one_response(&mut s).map_err(|e| format!("fresh recv: {e}"))?;
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(parked);

    println!(
        "{{\"idle_connections\":{idle},\"path\":\"{path}\",\"status\":{status},\
         \"latency_ms\":{latency_ms:.3}}}"
    );
    if !(200..300).contains(&status) {
        return Err(format!("probe got HTTP {status}: {resp_body}"));
    }
    if latency_ms > threshold_ms {
        return Err(format!(
            "probe latency {latency_ms:.1} ms exceeds threshold {threshold_ms} ms \
             with {idle} idle connections parked"
        ));
    }
    Ok(())
}

/// `blast`: fire N POSTs from C parallel connections and print each
/// response's `labels` keyed by request index — deterministic output for
/// diffing server configurations (the CI coalescing probe runs this twice,
/// with coalescing on and off, and requires identical files).
fn cmd_blast(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:8080")
        .to_string();
    let path = flags
        .get("path")
        .map(String::as_str)
        .unwrap_or("/v1/predict")
        .to_string();
    let template = flags
        .get("body-template")
        .ok_or("--body-template is required (use {n} for the request index, {i} for index mod 2)")?
        .clone();
    if flags.contains_key("observe") {
        let path = if flags.contains_key("path") {
            path.as_str()
        } else {
            "/v1/observe"
        };
        return cmd_blast_observe(&addr, path, &template, flags);
    }
    if flags.contains_key("conns") || flags.contains_key("duration") {
        return cmd_blast_sustained(&addr, &path, &template, flags);
    }
    let requests: usize = match flags.get("requests") {
        Some(n) => n.parse().map_err(|_| format!("bad --requests `{n}`"))?,
        None => 64,
    };
    let concurrency: usize = match flags.get("concurrency") {
        Some(c) => c.parse().map_err(|_| format!("bad --concurrency `{c}`"))?,
        None => 16,
    }
    .clamp(1, requests.max(1));

    let expect_tiers: usize = match flags.get("expect-tiers") {
        Some(n) => n.parse().map_err(|_| format!("bad --expect-tiers `{n}`"))?,
        None => 0,
    };

    let started = Instant::now();
    type WorkerOut = (Vec<(usize, String)>, Vec<f64>, Vec<u64>);
    let (mut results, mut latencies, tier_rows): (Vec<(usize, String)>, Vec<f64>, Vec<u64>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..concurrency)
                .map(|tid| {
                    let addr = addr.clone();
                    let path = path.clone();
                    let template = template.clone();
                    scope.spawn(move || -> Result<WorkerOut, String> {
                        let mut stream = TcpStream::connect(&addr)
                            .map_err(|e| format!("worker {tid}: connect: {e}"))?;
                        stream
                            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                            .map_err(|e| format!("worker {tid}: timeout: {e}"))?;
                        let mut out = Vec::new();
                        let mut lats = Vec::new();
                        let mut tiers: Vec<u64> = Vec::new();
                        let mut served = 0usize;
                        for n in (tid..requests).step_by(concurrency) {
                            // Stay under the server's keep-alive request cap.
                            if served + 1 >= hamlet_serve::http::MAX_KEEPALIVE_REQUESTS {
                                stream = TcpStream::connect(&addr)
                                    .map_err(|e| format!("worker {tid}: reconnect: {e}"))?;
                                stream
                                    .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                                    .map_err(|e| format!("worker {tid}: reconnect timeout: {e}"))?;
                                served = 0;
                            }
                            served += 1;
                            let body = template
                                .replace("{n}", &n.to_string())
                                .replace("{i}", &(n % 2).to_string());
                            let request = format!(
                                "POST {path} HTTP/1.1\r\nHost: blast\r\n\
                                 Content-Type: application/json\r\nContent-Length: {}\r\n\r\n\
                                 {body}",
                                body.len()
                            );
                            let sent = Instant::now();
                            stream
                                .write_all(request.as_bytes())
                                .map_err(|e| format!("worker {tid} req {n}: send: {e}"))?;
                            let resp = hamlet_serve::http::read_response(&mut stream)
                                .map_err(|e| format!("worker {tid} req {n}: recv: {e}"))?;
                            lats.push(sent.elapsed().as_secs_f64() * 1e3);
                            if resp.status != 200 {
                                return Err(format!(
                                    "worker {tid} req {n}: HTTP {}: {}",
                                    resp.status,
                                    String::from_utf8_lossy(&resp.body)
                                ));
                            }
                            let body_text = String::from_utf8_lossy(&resp.body);
                            // Strip the latency field: only the labels must be
                            // comparable across configurations.
                            let labels = body_text
                                .split("\"labels\":")
                                .nth(1)
                                .and_then(|rest| rest.split(']').next())
                                .map(|l| format!("{l}]"))
                                .ok_or_else(|| {
                                    format!("worker {tid} req {n}: no labels in {body_text}")
                                })?;
                            out.push((n, labels));
                            // Cascade responses carry per-row tier
                            // provenance (`"tiers":[0,1,...]`; `null` on
                            // single-model artifacts) — tally rows per
                            // tier for the summary.
                            if let Some(list) = body_text
                                .split("\"tiers\":[")
                                .nth(1)
                                .and_then(|rest| rest.split(']').next())
                            {
                                for t in list.split(',').filter_map(|t| t.trim().parse().ok()) {
                                    let t: usize = t;
                                    if tiers.len() <= t {
                                        tiers.resize(t + 1, 0);
                                    }
                                    tiers[t] += 1;
                                }
                            }
                        }
                        Ok((out, lats, tiers))
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(requests);
            let mut lats = Vec::with_capacity(requests);
            let mut tiers: Vec<u64> = Vec::new();
            let mut errors = Vec::new();
            for h in handles {
                match h.join().expect("blast worker panicked") {
                    Ok((mut chunk, mut chunk_lats, chunk_tiers)) => {
                        all.append(&mut chunk);
                        lats.append(&mut chunk_lats);
                        if tiers.len() < chunk_tiers.len() {
                            tiers.resize(chunk_tiers.len(), 0);
                        }
                        for (acc, n) in tiers.iter_mut().zip(chunk_tiers) {
                            *acc += n;
                        }
                    }
                    Err(e) => errors.push(e),
                }
            }
            if let Some(e) = errors.into_iter().next() {
                return Err(e);
            }
            Ok((all, lats, tiers))
        })?;
    let elapsed = started.elapsed();
    results.sort_by_key(|(n, _)| *n);
    for (n, labels) in &results {
        println!("{n}\t{labels}");
    }
    // Client-observed per-request latency percentiles (nearest rank).
    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    let (p50, p90, p99) = (pct(0.5), pct(0.9), pct(0.99));
    let req_per_s = requests as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "blast: {requests} requests over {concurrency} connections in {elapsed:?} \
         ({req_per_s:.0} req/s), latency p50 {p50:.3} ms / p90 {p90:.3} ms / p99 {p99:.3} ms"
    );
    if !tier_rows.is_empty() {
        eprintln!(
            "blast: cascade tier rows {tier_rows:?} ({} escalated past tier 0)",
            tier_rows.iter().skip(1).sum::<u64>()
        );
    }
    if expect_tiers > 0 {
        let distinct = tier_rows.iter().filter(|&&n| n > 0).count();
        if distinct < expect_tiers {
            return Err(format!(
                "--expect-tiers {expect_tiers}: only {distinct} tier(s) answered rows \
                 (histogram {tier_rows:?}); the cascade never split the workload"
            ));
        }
    }
    if let Some(dest) = flags.get("summary-json") {
        let tier_field = if tier_rows.is_empty() {
            String::new()
        } else {
            let counts: Vec<String> = tier_rows.iter().map(u64::to_string).collect();
            format!(",\"tier_rows\":[{}]", counts.join(","))
        };
        let summary = format!(
            "{{\"requests\":{requests},\"concurrency\":{concurrency},\
             \"elapsed_ms\":{:.3},\"req_per_s\":{req_per_s:.1},\
             \"p50_ms\":{p50:.3},\"p90_ms\":{p90:.3},\"p99_ms\":{p99:.3}{tier_field}}}",
            elapsed.as_secs_f64() * 1e3
        );
        if dest == "-" {
            // After the label lines, so diff-oriented consumers of stdout
            // can still strip it with `head -n -1`.
            println!("{summary}");
        } else {
            std::fs::write(dest, summary + "\n")
                .map_err(|e| format!("writing --summary-json {dest}: {e}"))?;
        }
    }
    Ok(())
}

/// Pulls the first unsigned-integer value of a `"name":N` JSON field out
/// of a response body (the same split-based extraction blast uses for
/// labels; good enough for the flat bodies this CLI consumes).
fn json_u64_field(text: &str, name: &str) -> Option<u64> {
    let rest = text.split(&format!("\"{name}\":")).nth(1)?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// `blast --observe`: stream labeled rows into `/v1/observe` at a target
/// request rate from one keep-alive connection. The body template is an
/// [`ObserveRequest`](hamlet_serve::api::ObserveRequest) JSON with the
/// usual `{n}`/`{i}` substitutions, so CI and local runs can fabricate
/// deterministic in-domain labeled traffic.
fn cmd_blast_observe(
    addr: &str,
    path: &str,
    template: &str,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    let requests: usize = match flags.get("requests") {
        Some(n) => n.parse().map_err(|_| format!("bad --requests `{n}`"))?,
        None => 64,
    };
    let rate: f64 = match flags.get("rate") {
        Some(r) => r
            .parse()
            .map_err(|_| format!("bad --rate `{r}` (requests per second, 0 = unpaced)"))?,
        None => 0.0,
    };
    let io_timeout = std::time::Duration::from_secs(30);
    let connect = || -> Result<TcpStream, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_read_timeout(Some(io_timeout))
            .map_err(|e| format!("timeout: {e}"))?;
        Ok(s)
    };
    let started = Instant::now();
    let mut stream = connect()?;
    let mut served = 0usize;
    let mut accepted_total = 0u64;
    let mut buffered_last = 0u64;
    for n in 0..requests {
        if rate > 0.0 {
            let due = started + std::time::Duration::from_secs_f64(n as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        if served + 1 >= hamlet_serve::http::MAX_KEEPALIVE_REQUESTS {
            stream = connect()?;
            served = 0;
        }
        served += 1;
        let body = template
            .replace("{n}", &n.to_string())
            .replace("{i}", &(n % 2).to_string());
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: blast\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("req {n}: send: {e}"))?;
        let resp = hamlet_serve::http::read_response(&mut stream)
            .map_err(|e| format!("req {n}: recv: {e}"))?;
        let body_text = String::from_utf8_lossy(&resp.body);
        if resp.status != 200 {
            return Err(format!("req {n}: HTTP {}: {body_text}", resp.status));
        }
        accepted_total += json_u64_field(&body_text, "accepted")
            .ok_or_else(|| format!("req {n}: no `accepted` in {body_text}"))?;
        buffered_last = json_u64_field(&body_text, "buffered").unwrap_or(buffered_last);
    }
    let elapsed = started.elapsed();
    let req_per_s = requests as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "blast observe: {requests} requests ({accepted_total} labeled rows) in {elapsed:?} \
         ({req_per_s:.0} req/s), {buffered_last} rows buffered server-side"
    );
    if let Some(dest) = flags.get("summary-json") {
        let summary = format!(
            "{{\"mode\":\"observe\",\"requests\":{requests},\"rows_accepted\":{accepted_total},\
             \"buffered\":{buffered_last},\"elapsed_ms\":{:.3},\"req_per_s\":{req_per_s:.1}}}",
            elapsed.as_secs_f64() * 1e3
        );
        if dest == "-" {
            println!("{summary}");
        } else {
            std::fs::write(dest, summary + "\n")
                .map_err(|e| format!("writing --summary-json {dest}: {e}"))?;
        }
    }
    Ok(())
}

/// `rollout status|start|abort`: thin HTTP client over the rollout plane's
/// admin endpoints, printing the server's JSON verbatim.
fn cmd_rollout(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:8080");
    let slice_field = || -> Result<String, String> {
        match flags.get("slice") {
            Some(s) => {
                let slice: u8 = s.parse().map_err(|_| format!("bad --slice `{s}`"))?;
                Ok(format!(",\"slice\":{slice}"))
            }
            None => Ok(String::new()),
        }
    };
    let (method, path, body) = match positional.first().map(String::as_str) {
        Some("status") => ("GET", "/v1/rollout/status", String::new()),
        Some("start") => {
            let body = match (flags.get("candidate"), flags.get("refresh")) {
                (Some(key), None) => format!("{{\"candidate\":\"{key}\"{}}}", slice_field()?),
                (None, Some(name)) => format!("{{\"refresh\":\"{name}\"{}}}", slice_field()?),
                _ => {
                    return Err(
                        "rollout start needs exactly one of --candidate <KEY> (an already-\
                         registered version) or --refresh <NAME> (warm-start refit on the \
                         observe buffer)"
                            .into(),
                    )
                }
            };
            ("POST", "/v1/rollout/start", body)
        }
        Some("abort") => ("POST", "/v1/rollout/abort", String::new()),
        _ => {
            return Err("usage: rollout <status|start|abort> [--addr <ADDR>] \
                 [--candidate <KEY> | --refresh <NAME>] [--slice <PCT>]"
                .into())
        }
    };
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    let request = if body.is_empty() {
        format!("{method} {path} HTTP/1.1\r\nHost: cli\r\nConnection: close\r\n\r\n")
    } else {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: cli\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };
    s.write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let (status, resp_body) = read_one_response(&mut s)?;
    println!("{resp_body}");
    if !(200..300).contains(&status) {
        return Err(format!("HTTP {status}"));
    }
    Ok(())
}

/// Nearest-rank percentile over an already-sorted latency vector.
fn pct_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `blast --conns/--duration`: sustained open-loop mode. Opens `--conns`
/// keep-alive connections serially, timing connect plus one /healthz round
/// trip per connection — how long the network plane takes to accept, adopt
/// and first service each socket (the accept-latency proxy; raw `connect`
/// completes from the kernel backlog before the reactor ever sees the fd,
/// so it alone measures nothing). Then drives requests from `--active` of
/// them for `--duration` seconds while the remainder sit parked as idle
/// keep-alive load on the reactors.
fn cmd_blast_sustained(
    addr: &str,
    path: &str,
    template: &str,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    let conns: usize = match flags.get("conns") {
        Some(n) => n.parse().map_err(|_| format!("bad --conns `{n}`"))?,
        None => 256,
    }
    .max(1);
    let duration_s: f64 = match flags.get("duration") {
        Some(d) => d
            .parse()
            .map_err(|_| format!("bad --duration `{d}` (seconds)"))?,
        None => 5.0,
    };
    if duration_s <= 0.0 {
        return Err(format!("--duration must be positive, got {duration_s}"));
    }
    let active: usize = match flags.get("active") {
        Some(a) => a.parse().map_err(|_| format!("bad --active `{a}`"))?,
        None => 16,
    }
    .clamp(1, conns);
    let io_timeout = std::time::Duration::from_secs(30);

    // Phase 1: open every connection, timing until its first (trivial)
    // response arrives.
    let mut accept_ms = Vec::with_capacity(conns);
    let mut sockets = Vec::with_capacity(conns);
    for i in 0..conns {
        let t = Instant::now();
        let mut s = TcpStream::connect(addr).map_err(|e| format!("conn {i}: connect: {e}"))?;
        s.set_read_timeout(Some(io_timeout))
            .map_err(|e| format!("conn {i}: timeout: {e}"))?;
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: blast\r\n\r\n")
            .map_err(|e| format!("conn {i}: send: {e}"))?;
        read_one_response(&mut s).map_err(|e| format!("conn {i}: {e}"))?;
        accept_ms.push(t.elapsed().as_secs_f64() * 1e3);
        sockets.push(s);
    }

    // Phase 2: the active subset drives requests until the deadline; the
    // parked majority stays open, exercising "idle connections are free".
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(duration_s);
    let started = Instant::now();
    let drivers: Vec<TcpStream> = sockets.drain(..active).collect();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .into_iter()
            .enumerate()
            .map(|(tid, mut stream)| {
                scope.spawn(move || -> Result<Vec<f64>, String> {
                    let mut lats = Vec::new();
                    // The accept-phase /healthz already used one request.
                    let mut served = 1usize;
                    let mut n = tid;
                    while Instant::now() < deadline {
                        if served + 1 >= hamlet_serve::http::MAX_KEEPALIVE_REQUESTS {
                            stream = TcpStream::connect(addr)
                                .map_err(|e| format!("driver {tid}: reconnect: {e}"))?;
                            stream
                                .set_read_timeout(Some(io_timeout))
                                .map_err(|e| format!("driver {tid}: reconnect timeout: {e}"))?;
                            served = 0;
                        }
                        served += 1;
                        let body = template
                            .replace("{n}", &n.to_string())
                            .replace("{i}", &(n % 2).to_string());
                        let request = format!(
                            "POST {path} HTTP/1.1\r\nHost: blast\r\n\
                             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n\
                             {body}",
                            body.len()
                        );
                        let sent = Instant::now();
                        stream
                            .write_all(request.as_bytes())
                            .map_err(|e| format!("driver {tid} req {n}: send: {e}"))?;
                        let resp = hamlet_serve::http::read_response(&mut stream)
                            .map_err(|e| format!("driver {tid} req {n}: recv: {e}"))?;
                        if resp.status != 200 {
                            return Err(format!(
                                "driver {tid} req {n}: HTTP {}: {}",
                                resp.status,
                                String::from_utf8_lossy(&resp.body)
                            ));
                        }
                        lats.push(sent.elapsed().as_secs_f64() * 1e3);
                        n += active;
                    }
                    Ok(lats)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut errors = Vec::new();
        for h in handles {
            match h.join().expect("blast driver panicked") {
                Ok(mut chunk) => all.append(&mut chunk),
                Err(e) => errors.push(e),
            }
        }
        if let Some(e) = errors.into_iter().next() {
            return Err(e);
        }
        Ok(all)
    })?;
    let elapsed = started.elapsed();
    drop(sockets);

    accept_ms.sort_by(|a, b| a.total_cmp(b));
    latencies.sort_by(|a, b| a.total_cmp(b));
    let requests = latencies.len();
    let req_per_s = requests as f64 / elapsed.as_secs_f64().max(1e-9);
    let (ap50, ap99) = (pct_sorted(&accept_ms, 0.5), pct_sorted(&accept_ms, 0.99));
    let (p50, p90, p99) = (
        pct_sorted(&latencies, 0.5),
        pct_sorted(&latencies, 0.9),
        pct_sorted(&latencies, 0.99),
    );
    eprintln!(
        "blast sustained: {conns} conns ({active} active) for {:.1}s: {requests} requests \
         ({req_per_s:.0} req/s), accept p50 {ap50:.3} ms / p99 {ap99:.3} ms, \
         latency p50 {p50:.3} ms / p90 {p90:.3} ms / p99 {p99:.3} ms",
        elapsed.as_secs_f64()
    );
    if let Some(dest) = flags.get("summary-json") {
        let summary = format!(
            "{{\"mode\":\"sustained\",\"conns\":{conns},\"active\":{active},\
             \"duration_s\":{:.3},\"requests\":{requests},\"req_per_s\":{req_per_s:.1},\
             \"accept_p50_ms\":{ap50:.3},\"accept_p99_ms\":{ap99:.3},\
             \"p50_ms\":{p50:.3},\"p90_ms\":{p90:.3},\"p99_ms\":{p99:.3}}}",
            elapsed.as_secs_f64()
        );
        if dest == "-" {
            println!("{summary}");
        } else {
            std::fs::write(dest, summary + "\n")
                .map_err(|e| format!("writing --summary-json {dest}: {e}"))?;
        }
    }
    Ok(())
}

/// `artifact inspect|convert|diff`: offline artifact tooling.
fn cmd_artifact(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    match positional.first().map(String::as_str) {
        Some("inspect") => {
            let [path] = &positional[1..] else {
                return Err("usage: artifact inspect <PATH>".into());
            };
            artifact_inspect(Path::new(path))
        }
        Some("convert") => {
            let [src] = &positional[1..] else {
                return Err("usage: artifact convert <SRC> --quantize i8 [--dir <DIR>]".into());
            };
            artifact_convert(Path::new(src), flags)
        }
        Some("diff") => {
            let [a, b] = &positional[1..] else {
                return Err("usage: artifact diff <A> <B>".into());
            };
            let load = |p: &str| {
                ModelArtifact::load(Path::new(p)).map_err(|e| format!("loading {p}: {e}"))
            };
            let d = hamlet_serve::diff::diff_artifacts(&load(a)?, &load(b)?);
            println!(
                "{}",
                serde_json::to_string_pretty(&d).map_err(|e| e.to_string())?
            );
            if !d.contract_compatible() {
                eprintln!(
                    "note: contracts are NOT request-compatible; clients of `{}` \
                     cannot blindly switch to `{}`",
                    d.a, d.b
                );
            }
            Ok(())
        }
        _ => Err("usage: artifact <inspect|convert|diff> ...".into()),
    }
}

/// Prints an artifact's identity and physical layout without loading the
/// model payload (v3: container header + META section only).
fn artifact_inspect(path: &Path) -> Result<(), String> {
    use serde::{Number, Value};
    let head = ModelArtifact::load_head(path).map_err(|e| e.to_string())?;
    let file_len = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let mut out = vec![
        ("path".into(), Value::Str(path.display().to_string())),
        ("format".into(), Value::Str(format!("v{FORMAT_VERSION}"))),
        ("file_bytes".into(), Value::Num(Number::UInt(file_len))),
        ("key".into(), Value::Str(head.key())),
        ("family".into(), Value::Str(head.family.clone())),
        ("encoding".into(), Value::Str(head.encoding.clone())),
        ("config".into(), Value::Str(head.config.clone())),
        (
            "n_features".into(),
            Value::Num(Number::UInt(head.n_features as u64)),
        ),
        (
            "test_accuracy".into(),
            Value::Num(Number::Float(head.test_accuracy)),
        ),
        ("dataset".into(), Value::Str(head.dataset.clone())),
        (
            "schema_fingerprint".into(),
            Value::Num(Number::UInt(head.schema_fingerprint)),
        ),
    ];
    // Physical layout: section table straight from the header.
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let entries = hamlet_serve::container::parse_sections(&bytes).map_err(|e| e.to_string())?;
    let sections = entries
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("tag".into(), Value::Str(s.tag_str())),
                ("offset".into(), Value::Num(Number::UInt(s.offset as u64))),
                ("bytes".into(), Value::Num(Number::UInt(s.len as u64))),
            ])
        })
        .collect();
    out.push(("sections".into(), Value::Arr(sections)));
    // Quantized payloads carry a JSON descriptor section: per-tensor
    // encoding, byte size, and (for i8) the symmetric scale.
    if let Ok(entry) = hamlet_serve::container::find(&entries, hamlet_serve::container::SEC_QNTS) {
        let qnts = &bytes[entry.offset..entry.offset + entry.len];
        let desc: Value = serde_json::from_slice(qnts)
            .map_err(|e| format!("QNTS section is not valid JSON: {e}"))?;
        out.push(("quantization".into(), desc));
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&Value::Obj(out)).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `convert --quantize i8`: rewrite the weight tensors into a NEW
/// artifact named `<name>-i8` (same version) and report the size ratio
/// plus a prediction-agreement estimate on deterministic in-domain rows.
fn artifact_convert(src: &Path, flags: &HashMap<String, String>) -> Result<(), String> {
    let spec = flags
        .get("quantize")
        .ok_or("artifact convert needs --quantize i8")?;
    if spec != ENCODING {
        return Err(format!("bad --quantize `{spec}` (only i8 is supported)"));
    }
    let sample_rows: usize = match flags.get("sample-rows") {
        Some(n) => n.parse().map_err(|_| format!("bad --sample-rows `{n}`"))?,
        None => 512,
    };
    let out_dir = flags
        .get("dir")
        .map(PathBuf::from)
        .or_else(|| src.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let artifact =
        ModelArtifact::load(src).map_err(|e| format!("loading {}: {e}", src.display()))?;
    let mut quantized = artifact.clone();
    quantized.model = artifact
        .model
        .quantize()
        .map_err(|e| format!("quantizing {}: {e}", artifact.key()))?;
    // A distinct name, never an in-place downgrade: the f32 original stays
    // servable next to its quantized sibling.
    quantized.name = format!("{}-{ENCODING}", artifact.name);

    let cards: Vec<u32> = artifact.features().iter().map(|f| f.cardinality).collect();
    let d = cards.len();
    let agreement = if d == 0 || sample_rows == 0 {
        1.0
    } else {
        let rows = sample_in_domain_rows(&cards, sample_rows);
        let base = artifact.model.predict_batch(&rows, d);
        let quant = quantized.model.predict_batch(&rows, d);
        let same = base.iter().zip(&quant).filter(|(a, b)| a == b).count();
        same as f64 / base.len() as f64
    };

    let dst = quantized.save(&out_dir).map_err(|e| e.to_string())?;
    let src_len = std::fs::metadata(src).map_err(|e| e.to_string())?.len();
    let dst_len = std::fs::metadata(&dst).map_err(|e| e.to_string())?.len();
    println!(
        "{{\"src\":\"{}\",\"src_bytes\":{src_len},\"dst\":\"{}\",\"dst_bytes\":{dst_len},\
         \"ratio\":{:.2},\"encoding\":\"{}\",\"sample_rows\":{sample_rows},\
         \"agreement\":{agreement:.4}}}",
        src.display(),
        dst.display(),
        src_len as f64 / dst_len.max(1) as f64,
        ENCODING
    );
    Ok(())
}

/// `cascade build`: bundle existing artifacts into a tiered cascade.
fn cmd_cascade(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    match positional.first().map(String::as_str) {
        Some("build") => cascade_build(flags),
        _ => Err(
            "usage: cascade build --tiers <PATH,PATH[,...]> [--target-p <P>] \
             [--calibrator platt|isotonic] [--sample-rows <N>] [--name <NAME>] [--dir <DIR>]"
                .into(),
        ),
    }
}

/// Deterministic in-domain sample rows: a fixed-seed LCG drawing codes
/// from the contract cardinalities, identical run to run, so the
/// quantization agreement estimate and cascade calibration reproduce.
fn sample_in_domain_rows(cards: &[u32], n: usize) -> Vec<u32> {
    let mut state = 0x243F6A88_85A308D3u64;
    let mut rows = Vec::with_capacity(n * cards.len());
    for _ in 0..n {
        for &card in cards {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rows.push(((state >> 33) % u64::from(card.max(1))) as u32);
        }
    }
    rows
}

fn cascade_build(flags: &HashMap<String, String>) -> Result<(), String> {
    use hamlet_ml::any::AnyClassifier;
    use hamlet_ml::cascade::{pick_threshold, Calibrator, CascadeModel, CascadeTier};

    let tier_paths: Vec<PathBuf> = flags
        .get("tiers")
        .ok_or("--tiers is required (comma-separated artifact paths, cheapest first, top last)")?
        .split(',')
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
        .collect();
    if tier_paths.len() < 2 {
        return Err(
            "--tiers needs at least two artifact paths (cheap front tier, top tier)".into(),
        );
    }
    let target_p: f64 = match flags.get("target-p") {
        Some(p) => p.parse().map_err(|_| format!("bad --target-p `{p}`"))?,
        None => 0.95,
    };
    if !(0.0..=1.0).contains(&target_p) {
        return Err(format!("--target-p must be in [0, 1], got {target_p}"));
    }
    let sample_rows: usize = match flags.get("sample-rows") {
        Some(n) => n.parse().map_err(|_| format!("bad --sample-rows `{n}`"))?,
        None => 2048,
    };
    if sample_rows == 0 {
        return Err("--sample-rows must be positive: calibration needs data".into());
    }
    let isotonic = match flags.get("calibrator").map(String::as_str) {
        None | Some("platt") => false,
        Some("isotonic") => true,
        Some(other) => return Err(format!("bad --calibrator `{other}` (platt|isotonic)")),
    };

    let artifacts: Vec<ModelArtifact> = tier_paths
        .iter()
        .map(|p| ModelArtifact::load(p).map_err(|e| format!("loading {}: {e}", p.display())))
        .collect::<Result<_, _>>()?;
    // Every tier consumes the same rows, verbatim — enforce contract
    // identity up front rather than letting a mismatched tier misread
    // another tier's codes at serve time.
    let fp0 = artifacts[0].contract.fingerprint();
    for (path, art) in tier_paths.iter().zip(&artifacts).skip(1) {
        let fp = art.contract.fingerprint();
        if fp != fp0 {
            return Err(format!(
                "tier `{}` has contract fingerprint {fp:#018x} but `{}` has {fp0:#018x}; \
                 cascade tiers must share one feature contract (same features, \
                 cardinalities and dictionaries)",
                path.display(),
                tier_paths[0].display()
            ));
        }
    }

    let cards: Vec<u32> = artifacts[0]
        .features()
        .iter()
        .map(|f| f.cardinality)
        .collect();
    let d = cards.len();
    if d == 0 {
        return Err("tier artifacts have an empty feature contract".into());
    }
    let rows = sample_in_domain_rows(&cards, sample_rows);

    // Distillation targets: the authoritative top tier's own predictions.
    // Calibration asks "when does the cheap tier agree with the model it
    // fronts for?" — no ground-truth labels required.
    let top_artifact = artifacts.last().expect("len >= 2");
    let top_predictions = top_artifact.model.predict_batch(&rows, d);

    let mut tiers = Vec::with_capacity(artifacts.len());
    let mut thresholds = Vec::with_capacity(artifacts.len());
    for art in &artifacts[..artifacts.len() - 1] {
        let scores = art.model.score_batch(&rows, d);
        let agree: Vec<bool> = art
            .model
            .predict_batch(&rows, d)
            .iter()
            .zip(&top_predictions)
            .map(|(mine, top)| mine == top)
            .collect();
        let calibrator = if isotonic {
            Calibrator::fit_isotonic(&scores, &agree)
        } else {
            Calibrator::fit_platt(&scores, &agree)
        }
        .map_err(|e| format!("calibrating {}: {e}", art.key()))?;
        let conf_agree: Vec<(f64, bool)> = scores
            .iter()
            .map(|&s| calibrator.confidence(s))
            .zip(agree)
            .collect();
        let threshold = pick_threshold(&conf_agree, target_p);
        thresholds.push(threshold);
        tiers.push(CascadeTier {
            model: art.model.clone(),
            calibrator,
            threshold,
        });
    }
    // The top tier always answers whatever reaches it.
    thresholds.push(1.0);
    tiers.push(CascadeTier {
        model: top_artifact.model.clone(),
        calibrator: Calibrator::Platt { a: 0.0, b: 0.0 },
        threshold: 1.0,
    });
    let cascade = CascadeModel::new(tiers).map_err(|e| e.to_string())?;

    // Report numbers on the same sample: agreement with the top tier,
    // rows answered per tier, and a single-threaded latency comparison
    // (best of a few repetitions, so one cold pass can't skew it).
    let reps = 3;
    let top_ns = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(top_artifact.model.predict_batch(&rows, d));
            t.elapsed().as_nanos()
        })
        .min()
        .unwrap_or(0);
    let tiered = cascade.predict_batch_tiered(&rows, d, 1, sample_rows.max(1));
    let cascade_ns = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(cascade.predict_batch_tiered(&rows, d, 1, sample_rows.max(1)));
            t.elapsed().as_nanos()
        })
        .min()
        .unwrap_or(0);
    let agreement = tiered
        .labels
        .iter()
        .zip(&top_predictions)
        .filter(|(a, b)| a == b)
        .count() as f64
        / top_predictions.len().max(1) as f64;
    let hist = tiered.tier_histogram();
    let deepest = hist.iter().rposition(|&n| n > 0).unwrap_or(0);
    let tier_rows = &hist[..=deepest];
    let escalated: u64 = tier_rows.iter().skip(1).sum();
    let escalation_ratio = escalated as f64 / tiered.labels.len().max(1) as f64;

    let out_dir = flags
        .get("dir")
        .map(PathBuf::from)
        .or_else(|| tier_paths[0].parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let mut out = top_artifact.clone();
    out.model = AnyClassifier::Cascade(cascade);
    out.name = flags
        .get("name")
        .cloned()
        .unwrap_or_else(|| format!("{}-casc", top_artifact.name));
    let dst = out.save(&out_dir).map_err(|e| e.to_string())?;
    let dst_len = std::fs::metadata(&dst).map_err(|e| e.to_string())?.len();

    let join_json = |xs: &[String]| xs.join(",");
    let tier_names: Vec<String> = tier_paths
        .iter()
        .map(|p| format!("\"{}\"", p.display()))
        .collect();
    let threshold_strs: Vec<String> = thresholds.iter().map(|t| format!("{t:.6}")).collect();
    let tier_row_strs: Vec<String> = tier_rows.iter().map(u64::to_string).collect();
    println!(
        "{{\"tiers\":[{}],\"dst\":\"{}\",\"dst_bytes\":{dst_len},\
         \"calibrator\":\"{}\",\"target_p\":{target_p},\"sample_rows\":{sample_rows},\
         \"thresholds\":[{}],\"agreement\":{agreement:.4},\
         \"escalation_ratio\":{escalation_ratio:.4},\"tier_rows\":[{}],\
         \"top_ms\":{:.3},\"cascade_ms\":{:.3},\"speedup\":{:.2}}}",
        join_json(&tier_names),
        dst.display(),
        if isotonic { "isotonic" } else { "platt" },
        join_json(&threshold_strs),
        join_json(&tier_row_strs),
        top_ns as f64 / 1e6,
        cascade_ns as f64 / 1e6,
        top_ns as f64 / cascade_ns.max(1) as f64,
    );
    Ok(())
}

/// Reads one HTTP response, returning (status, body text).
fn read_one_response(s: &mut TcpStream) -> Result<(u16, String), String> {
    let resp = hamlet_serve::http::read_response(s).map_err(|e| format!("recv: {e}"))?;
    Ok((resp.status, String::from_utf8_lossy(&resp.body).to_string()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(cmd, "-h" | "--help" | "help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (positional, flags) = match parse_args(&args[1..]) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if !matches!(cmd, "artifact" | "cascade" | "rollout") && !positional.is_empty() {
        eprintln!("error: unexpected argument `{}`", positional[0]);
        return ExitCode::FAILURE;
    }
    let result = match cmd {
        "train" => cmd_train(&flags),
        "serve" => cmd_serve(&flags),
        "probe" => cmd_probe(&flags),
        "blast" => cmd_blast(&flags),
        "artifact" => cmd_artifact(&positional, &flags),
        "cascade" => cmd_cascade(&positional, &flags),
        "rollout" => cmd_rollout(&positional, &flags),
        "datasets" => {
            for d in DATASETS {
                println!("{d}");
            }
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
