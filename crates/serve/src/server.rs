//! Endpoint handlers: the bridge from HTTP to registry/advisor/trainer.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use hamlet_core::advisor::advise_dims;

use crate::api::{
    decode_predict, AdviseRequest, ApiError, DemoteRequest, ExplainRequest, ExplainResponse,
    Health, ModelsResponse, ObserveRequest, ObserveResponse, PredictResponse, RolloutStartRequest,
    TrainRequest, TrainResponse,
};
use crate::artifact::{LoadMode, ModelArtifact};
use crate::coalesce::{Batch, CoalesceConfig, Coalescer, PendingPredict, Submitted};
use crate::error::ServeError;
use crate::http::{Handler, Request, Responder, Response, Server, ServerOptions};
use crate::registry::{ModelRegistry, RegistryNote};
use crate::rollout::{
    ActiveRollout, Faults, GuardrailConfig, ObservedRow, RolloutPlane, ShadowCtx,
};
use crate::telemetry::{Endpoint, EventKind, ModelStats, OpsGauges, Telemetry};
use crate::train::{train_and_register, train_incremental};

/// Shared state behind every worker thread.
pub struct AppState {
    /// The live model registry.
    pub registry: ModelRegistry,
    /// Directory artifacts are persisted into (and warm-loaded from).
    pub artifact_dir: PathBuf,
    /// Shard cap for batch-parallel prediction (defaults to the machine's
    /// available parallelism). One request never fans out wider than this.
    pub predict_threads: usize,
    /// Cross-request predict coalescer: concurrent small `/v1/predict`
    /// requests against the same resident model merge into one sharded
    /// fan-out at the executor boundary (see [`crate::coalesce`]).
    pub coalescer: Coalescer,
    /// The ops plane: per-endpoint latency histograms and counters, the
    /// audit-event trail, and each model's serving cell
    /// ([`Telemetry::model`]): its counters, the last-hit timestamp the
    /// idle auto-demoter reads, the per-row cost EWMA behind adaptive shard
    /// sizing, and its coalescer lane. The coalescer's counter block is
    /// shared with this handle, so every surface reports one accounting.
    pub telemetry: Telemetry,
    /// Network-plane gauges (per-reactor connections, per-model fair queue
    /// depths). [`serve_with`] installs it into the server's options so
    /// `/metrics` can read the live reactors; outside a running server it
    /// just reports empty.
    pub net: Arc<crate::http::NetStats>,
    /// The safe rollout plane: shadow/canary state machine, observe buffer
    /// and drift advisor (see [`crate::rollout`]).
    pub rollout: Arc<RolloutPlane>,
    /// Fault-injection knobs, seeded from the environment once at warm
    /// boot so parallel tests never race on `set_var`.
    pub faults: Faults,
    /// Machine-wide fan-out budget shared by every in-flight predict: the
    /// sum of extra scoped threads across concurrent requests never exceeds
    /// `predict_threads`, so N simultaneous large batches share the cores
    /// instead of each spawning a full-width set on top of the worker pool.
    shard_budget: ShardBudget,
    /// Admission gate for `/v1/train`: training runs for seconds to minutes
    /// on a worker thread, so at most one runs at a time — otherwise a
    /// handful of train requests would occupy every worker and starve the
    /// predict/health hot path. An atomic flag (not a `Mutex`) so a panic
    /// inside a training run can never poison the gate shut: the RAII
    /// release in [`TrainPermit`] runs during unwinding.
    train_gate: std::sync::atomic::AtomicBool,
}

/// A machine-wide pool of predict fan-out slots. Requests reserve up to
/// their per-request cap, run their shards, and return the slots on drop
/// (including panics). When the pool is drained a request simply runs
/// sequentially on its worker thread — prediction never blocks waiting for
/// slots.
struct ShardBudget {
    available: std::sync::atomic::AtomicUsize,
}

impl ShardBudget {
    fn new(total: usize) -> Self {
        ShardBudget {
            available: std::sync::atomic::AtomicUsize::new(total),
        }
    }

    /// Reserves up to `want` slots (possibly zero when the pool is dry).
    fn reserve(&self, want: usize) -> ShardPermit<'_> {
        use std::sync::atomic::Ordering;
        let mut cur = self.available.load(Ordering::Acquire);
        loop {
            let take = cur.min(want);
            if take == 0 {
                return ShardPermit {
                    budget: self,
                    reserved: 0,
                };
            }
            match self.available.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return ShardPermit {
                        budget: self,
                        reserved: take,
                    }
                }
                Err(now) => cur = now,
            }
        }
    }
}

/// Reserved fan-out slots; returned to the pool on drop.
struct ShardPermit<'a> {
    budget: &'a ShardBudget,
    reserved: usize,
}

impl ShardPermit<'_> {
    /// Threads this request may use: its reserved slots, or one (the worker
    /// thread itself, which is never part of the budget's accounting).
    fn threads(&self) -> usize {
        self.reserved.max(1)
    }
}

impl Drop for ShardPermit<'_> {
    fn drop(&mut self) {
        if self.reserved > 0 {
            self.budget
                .available
                .fetch_add(self.reserved, std::sync::atomic::Ordering::AcqRel);
        }
    }
}

/// RAII permit for the training gate; releases on drop (including panics).
struct TrainPermit<'a>(&'a std::sync::atomic::AtomicBool);

impl<'a> TrainPermit<'a> {
    fn acquire(gate: &'a std::sync::atomic::AtomicBool) -> Option<Self> {
        use std::sync::atomic::Ordering;
        gate.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            .then_some(TrainPermit(gate))
    }
}

impl Drop for TrainPermit<'_> {
    fn drop(&mut self) {
        self.0.store(false, std::sync::atomic::Ordering::Release);
    }
}

/// Everything [`AppState::warm_full`] needs to build a serving state.
#[derive(Debug, Clone, Copy)]
pub struct WarmOptions {
    /// Executor threads the attached server will run (0 = no server:
    /// library/test use, budget every core for predict fan-out).
    pub executors: usize,
    /// Artifact load mode (heap vs zero-copy mmap).
    pub load_mode: LoadMode,
    /// Cross-request predict coalescing tuning.
    pub coalesce: CoalesceConfig,
    /// Rollout guardrails and drift-advisor knobs.
    pub guardrails: GuardrailConfig,
}

impl Default for WarmOptions {
    fn default() -> Self {
        WarmOptions {
            executors: 0,
            load_mode: LoadMode::Heap,
            coalesce: CoalesceConfig::default(),
            guardrails: GuardrailConfig::default(),
        }
    }
}

impl AppState {
    /// State with a warm-loaded registry.
    pub fn warm(artifact_dir: PathBuf) -> crate::error::Result<(Arc<AppState>, usize)> {
        AppState::warm_sized(artifact_dir, 0)
    }

    /// State with a warm-loaded registry, sized against an executor pool of
    /// `executors` threads: the machine-wide predict fan-out budget is what
    /// is left of the cores after the executors themselves (they each run a
    /// request and count as one thread of predict work already), floored at
    /// one extra slot so a lone large batch can always shard. Pass 0 when
    /// no server is attached (library/test use) to budget every core.
    pub fn warm_sized(
        artifact_dir: PathBuf,
        executors: usize,
    ) -> crate::error::Result<(Arc<AppState>, usize)> {
        AppState::warm_full(
            artifact_dir,
            WarmOptions {
                executors,
                ..WarmOptions::default()
            },
        )
    }

    /// [`AppState::warm_sized`] with an explicit artifact [`LoadMode`]
    /// (`Mmap` = zero-copy weight borrows from format-v3 files, both at
    /// warm-load and for lazy version promotions).
    pub fn warm_opts(
        artifact_dir: PathBuf,
        executors: usize,
        load_mode: LoadMode,
    ) -> crate::error::Result<(Arc<AppState>, usize)> {
        AppState::warm_full(
            artifact_dir,
            WarmOptions {
                executors,
                load_mode,
                ..WarmOptions::default()
            },
        )
    }

    /// Fully configurable warm boot: registry load mode, executor sizing
    /// and coalescer tuning in one place.
    pub fn warm_full(
        artifact_dir: PathBuf,
        opts: WarmOptions,
    ) -> crate::error::Result<(Arc<AppState>, usize)> {
        let (registry, loaded) = ModelRegistry::warm_load_with(&artifact_dir, opts.load_mode)?;
        let telemetry = Telemetry::with_event_log(&artifact_dir.join("events"))?;
        // Residency transitions are audited wherever they originate — the
        // HTTP demote endpoint, a pinned predict promoting a lazy slot, or
        // the idle auto-demoter — by observing the registry itself.
        registry.set_observer({
            let telemetry = telemetry.clone();
            Arc::new(move |note, key| {
                let (kind, detail) = match note {
                    RegistryNote::Promoted => {
                        (EventKind::Promote, "lazy slot promoted to resident")
                    }
                    RegistryNote::Demoted => {
                        (EventKind::Demote, "resident payload released to lazy slot")
                    }
                    RegistryNote::Adopted => {
                        (EventKind::Promote, "held candidate adopted as latest")
                    }
                };
                telemetry.record_event(kind, key, detail);
            })
        });
        telemetry.record_event(
            EventKind::Startup,
            "",
            &format!(
                "{loaded} artifact(s) warm-loaded, {} kernels",
                hamlet_ml::kernels::backend().name()
            ),
        );
        let cores = default_predict_threads();
        let budget = if opts.executors == 0 {
            cores
        } else {
            cores.saturating_sub(opts.executors).max(1)
        };
        // The rollout journal replays before any traffic: a process that
        // died mid-rollout puts its candidate back on hold (warm-load just
        // made the highest on-disk version latest, which mid-canary is
        // exactly wrong) and resumes the phase it was in.
        let rollout = Arc::new(RolloutPlane::open(&artifact_dir, opts.guardrails)?);
        rollout.resume(&registry, &telemetry);
        Ok((
            Arc::new(AppState {
                registry,
                artifact_dir,
                predict_threads: cores,
                coalescer: Coalescer::with_stats(opts.coalesce, telemetry.coalesce_stats()),
                telemetry,
                net: Arc::new(crate::http::NetStats::new()),
                rollout,
                faults: Faults::from_env(),
                shard_budget: ShardBudget::new(budget),
                train_gate: std::sync::atomic::AtomicBool::new(false),
            }),
            loaded,
        ))
    }
}

/// Default shard cap for batch-parallel prediction.
pub fn default_predict_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

fn error_response(e: &ServeError) -> Response {
    let status = match e {
        ServeError::BadRequest(_) | ServeError::Json(_) => 400,
        ServeError::ModelNotFound(_) => 404,
        ServeError::Format { .. } => 422,
        ServeError::Io { .. } | ServeError::Train(_) => 500,
    };
    let body = serde_json::to_string(&ApiError {
        error: e.to_string(),
    })
    .unwrap_or_else(|_| "{\"error\":\"unserializable error\"}".into());
    Response::json(status, body)
}

fn ok_json<T: serde::Serialize>(value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(200, body),
        Err(e) => error_response(&ServeError::Json(e.to_string())),
    }
}

fn parse_body<T: serde::Deserialize>(req: &Request) -> Result<T, ServeError> {
    serde_json::from_slice(&req.body).map_err(|e| ServeError::BadRequest(e.to_string()))
}

/// Resolves and validates one predict request down to a flattened
/// row-major code buffer: [`decode_predict`] reads the body in one pass,
/// then the codes are range-checked in place or the labels are looked up
/// in the contract's dictionaries. Runs *before* any coalescing, so a bad
/// row can only ever fail its own request.
fn parse_predict(
    registry: &ModelRegistry,
    body: &[u8],
) -> Result<(Arc<ModelArtifact>, Vec<u32>, usize, bool), ServeError> {
    let body = decode_predict(body)?;
    // Bare-name requests are eligible for canary routing; a client that
    // pinned an exact `name@version` asked for that artifact and gets it.
    let pinned = body.model.contains('@');
    let artifact = registry.get(&body.model)?;
    let d = artifact.contract.width();
    let rows = match (body.rows, &body.rows_raw) {
        (Some(_), Some(_)) => return Err(both_row_shapes()),
        (None, None) => return Err(no_row_shape()),
        (Some(coded), None) => artifact.validate_flat(coded)?,
        (None, Some(raw)) => artifact.encode_flat(raw)?,
    };
    Ok((artifact, rows, d, pinned))
}

fn both_row_shapes() -> ServeError {
    ServeError::BadRequest("provide exactly one of `rows` and `rows_raw`, not both".into())
}

fn no_row_shape() -> ServeError {
    ServeError::BadRequest("provide `rows` (codes) or `rows_raw` (label strings)".into())
}

/// The serde decode `/v1/predict` ran before [`decode_predict`]: kept
/// only as the independent reference the single-pass decoder is checked
/// against.
#[cfg(test)]
fn reference_parse_predict(
    registry: &ModelRegistry,
    body: &[u8],
) -> Result<(Arc<ModelArtifact>, Vec<u32>, usize, bool), ServeError> {
    let body: crate::api::PredictRequest =
        serde_json::from_slice(body).map_err(|e| ServeError::BadRequest(e.to_string()))?;
    let pinned = body.model.contains('@');
    let artifact = registry.get(&body.model)?;
    let d = artifact.contract.width();
    let rows = match (&body.rows, &body.rows_raw) {
        (Some(_), Some(_)) => return Err(both_row_shapes()),
        (None, None) => return Err(no_row_shape()),
        (Some(coded), None) => artifact.validate_coded(coded)?,
        (None, Some(raw)) => artifact.encode_raw(raw)?,
    };
    Ok((artifact, rows, d, pinned))
}

/// Executes one request's rows with adaptive shard sizing and the
/// machine-wide fan-out budget, folding the latency observation back into
/// the model's EWMA. The uncoalesced (solo) hot path; public so the bench
/// suite can weigh it directly against [`execute_batch`].
pub fn execute_predict(
    state: &AppState,
    artifact: &ModelArtifact,
    rows: &[u32],
    d: usize,
) -> Vec<bool> {
    let cell = state.telemetry.model(&artifact.key());
    execute_segments(state, &cell, artifact, &[rows], d)
        .labels
        .pop()
        .unwrap_or_default()
}

/// Executes a merged batch — many requests' row buffers against one model
/// — as a single sharded fan-out, paying the cell lookup, fan-out budget
/// and EWMA bookkeeping **once for the whole batch** instead of once per
/// request. Per-segment results are bit-identical to solo execution.
pub fn execute_batch(
    state: &AppState,
    artifact: &ModelArtifact,
    segments: &[&[u32]],
    d: usize,
) -> Vec<Vec<bool>> {
    let cell = state.telemetry.model(&artifact.key());
    execute_segments(state, &cell, artifact, segments, d).labels
}

/// Per-segment results of one executed batch. Single-model artifacts fill
/// only `labels`; cascade artifacts also report which tier answered each
/// row, the answering tier's calibrated confidence, and the batch-wide
/// per-tier row histogram telemetry folds in.
struct ExecOutcome {
    /// One label vector per input segment, in segment order.
    labels: Vec<Vec<bool>>,
    /// Per segment: the tier (0 = cheapest) that answered each row.
    tiers: Option<Vec<Vec<u8>>>,
    /// Per segment: calibrated confidence of the answering tier.
    confidence: Option<Vec<Vec<f64>>>,
    /// Rows answered per tier across the whole batch.
    tier_hist: Option<[u64; hamlet_ml::cascade::MAX_TIERS]>,
}

/// The shared execution core: adaptive shard sizing, the machine-wide
/// fan-out budget, and the EWMA fold-back, for any number of request
/// segments against one artifact. Cascade artifacts route through the
/// tiered executor — tier 0 scores the whole (possibly coalesced) batch
/// through the same sharded kernels, then only low-confidence rows are
/// re-packed contiguously for the next tier — and per-segment results are
/// bit-identical to solo per-row execution either way.
fn execute_segments(
    state: &AppState,
    cell: &ModelStats,
    artifact: &ModelArtifact,
    segments: &[&[u32]],
    d: usize,
) -> ExecOutcome {
    // Shard size comes from this model's observed per-row latency (EWMA),
    // so a shard costs ~TARGET_SHARD_NANOS wall-clock: the fixed 256-row
    // floor over-sharded cheap trees and under-sharded expensive SVMs.
    // Reading and updating the resolved cell are plain atomics.
    let shard_rows = cell.shard_rows();
    let n: usize = segments.iter().map(|s| s.len() / d).sum();
    if n == 0 {
        return ExecOutcome {
            labels: segments.iter().map(|_| Vec::new()).collect(),
            tiers: None,
            confidence: None,
            tier_hist: None,
        };
    }
    // Reserve fan-out slots from the machine-wide budget: under concurrent
    // load each request gets a fair share of the cores (or runs
    // sequentially on its own worker when the pool is dry) instead of
    // every request spawning a full-width set of threads. Only as many
    // slots as this batch can actually shard into are requested — a small
    // batch runs sequentially anyway and must not starve a concurrent
    // large one.
    let usable = n / shard_rows.max(1);
    let permit = state
        .shard_budget
        .reserve(usable.min(state.predict_threads));
    let predict_start = Instant::now();
    let outcome = match &artifact.model {
        hamlet_ml::any::AnyClassifier::Cascade(c) => {
            let pred = c.predict_segments_tiered(segments, d, permit.threads(), shard_rows);
            let hist = pred.tier_histogram();
            // The tiered result is flat in global row order; cut it back
            // at the segment boundaries.
            let mut labels = Vec::with_capacity(segments.len());
            let mut tiers = Vec::with_capacity(segments.len());
            let mut confidence = Vec::with_capacity(segments.len());
            let mut off = 0;
            for seg in segments {
                let len = seg.len() / d;
                labels.push(pred.labels[off..off + len].to_vec());
                tiers.push(pred.tiers[off..off + len].to_vec());
                confidence.push(pred.confidence[off..off + len].to_vec());
                off += len;
            }
            ExecOutcome {
                labels,
                tiers: Some(tiers),
                confidence: Some(confidence),
                tier_hist: Some(hist),
            }
        }
        model => ExecOutcome {
            labels: model.predict_segments_sharded(segments, d, permit.threads(), shard_rows),
            tiers: None,
            confidence: None,
            tier_hist: None,
        },
    };
    // Fold the observation back in as an estimated *sequential* per-row
    // cost (wall-clock × shards actually used ÷ rows), so the EWMA is
    // comparable across fan-out widths.
    let shards_used = (n / shard_rows.max(1)).clamp(1, permit.threads());
    drop(permit);
    cell.observe(predict_start.elapsed().as_nanos() as f64 * shards_used as f64 / n as f64);
    outcome
}

/// Runs a flushed coalescer batch and answers every participant — the one
/// spot every predict execution flows through (coalesced flushes, solo
/// requests, and the rollout plane's mirrored shadow parts alike), so
/// panic containment, latency accounting and shadow scoring each live
/// here exactly once.
///
/// A panic inside the model (or the injected `HAMLET_FAULT_PREDICT_PANIC`)
/// is **contained**: real participants get an explicit 500 tagged as a
/// panic in [`crate::telemetry::EndpointStats`] (distinguishable from bad
/// requests), shadow participants are skipped without polluting the
/// candidate's agreement stats, and canary-served requests count toward
/// the canary error-ratio guardrail.
fn run_batch(state: &AppState, key: String, cell: &ModelStats, batch: Batch, d: usize) {
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        state.faults.maybe_panic(&key);
        let segments: Vec<&[u32]> = batch.parts.iter().map(|p| p.rows.as_slice()).collect();
        execute_segments(state, cell, &batch.artifact, &segments, d)
    }));
    let mut out = match out {
        Ok(out) => out,
        Err(_) => {
            let active = state.rollout.active();
            let canary_candidate = active
                .as_ref()
                .is_some_and(|a| a.candidate == key && a.phase() == crate::rollout::Phase::Canary);
            for part in batch.parts {
                let n_rows = (part.rows.len() / d.max(1)) as u64;
                if let Some(shadow) = part.shadow {
                    // A panicking candidate must not count mirrored rows
                    // as disagreement — skipped is its own signal.
                    shadow.stats.record_shadow_skipped(n_rows);
                    continue;
                }
                let spent = part.start.elapsed();
                state
                    .telemetry
                    .endpoint(Endpoint::Predict)
                    .observe_panic(spent);
                if canary_candidate {
                    if let Some(a) = &active {
                        a.count_canary_error();
                    }
                }
                part.responder.send(Response::json(
                    500,
                    "{\"error\":\"internal error: prediction panicked; the request was isolated\"}",
                ));
            }
            return;
        }
    };
    // Injected label flipping (a deliberately degraded candidate for
    // rollback tests) applies post-execution, pre-scoring.
    if state.faults.flip_labels.is_some() {
        for labels in &mut out.labels {
            state.faults.maybe_flip(&key, labels);
        }
    }
    if let Some(hist) = &out.tier_hist {
        cell.record_tiers(hist);
    }
    // Per-segment provenance travels with each participant's response;
    // `None` (single-model artifact) fans out as `None` per part.
    let n_parts = batch.parts.len();
    let per_part_tiers = unzip_parts(out.tiers, n_parts);
    let per_part_conf = unzip_parts(out.confidence, n_parts);
    // A single-participant batch (window expired partnerless) did not
    // actually merge; per-model accounting mirrors the coalescer's
    // merged/solo distinction.
    let merged = n_parts > 1;
    let now_ms = state.telemetry.now_ms();
    // When this batch was served by the incumbent of an active rollout,
    // mirror each real participant's rows (and the labels just computed)
    // into the candidate's coalescer lane after responding. The clone is
    // paid only while a rollout is active.
    let mirror = state.rollout.mirror_target(&batch.artifact);
    let mut mirrored: Vec<(Vec<u32>, Vec<bool>)> = Vec::new();
    for ((mut part, labels), (tiers, confidence)) in batch
        .parts
        .into_iter()
        .zip(out.labels)
        .zip(per_part_tiers.into_iter().zip(per_part_conf))
    {
        let spent = part.start.elapsed();
        if let Some(shadow) = part.shadow.take() {
            // Mirrored part: score agreement against the incumbent's
            // labels and fold candidate latency into its own histogram
            // (the p99 guardrail reads it); no response goes anywhere.
            let agree = labels
                .iter()
                .zip(shadow.expected.iter())
                .filter(|(a, b)| a == b)
                .count() as u64;
            shadow.stats.record_shadow(labels.len() as u64, agree);
            cell.record(spent, (part.rows.len() / d.max(1)) as u64, merged, now_ms);
            continue;
        }
        if mirror.is_some() {
            mirrored.push((part.rows.clone(), labels.clone()));
        }
        cell.record(spent, (part.rows.len() / d.max(1)) as u64, merged, now_ms);
        state
            .telemetry
            .endpoint(Endpoint::Predict)
            .observe(spent, false);
        let response = ok_json(&PredictResponse {
            model: key.clone(),
            labels,
            tiers,
            tier_confidence: if part.explain_tiers { confidence } else { None },
            latency_ms: spent.as_secs_f64() * 1e3,
        });
        part.responder.send(response);
    }
    if let Some(active) = mirror {
        if !mirrored.is_empty() {
            mirror_into_shadow(state, &active, mirrored, d);
        }
    }
}

/// Submits mirrored incumbent traffic into the candidate's coalescer lane:
/// one detached (receiver-dropped) [`PendingPredict`] per real
/// participant, carrying the incumbent's labels as the expected answers.
/// Executed inline on this worker *after* the real responses went out, so
/// shadow scoring adds no client-visible latency. Mirrored parts carry
/// `shadow: Some(..)`, which both short-circuits the response path and
/// (because the candidate is never a mirror target itself) terminates any
/// possible mirror recursion.
fn mirror_into_shadow(
    state: &AppState,
    active: &ActiveRollout,
    mirrored: Vec<(Vec<u32>, Vec<bool>)>,
    d: usize,
) {
    let Ok(candidate) = state.registry.get(&active.candidate) else {
        return; // candidate vanished; the next tick rolls the rollout back
    };
    if candidate.contract.width() != d {
        return;
    }
    let cand_key = candidate.key();
    let cell = state.telemetry.model(&cand_key);
    for (rows, expected) in mirrored {
        let (responder, rx) = Responder::direct();
        drop(rx); // discard the mirrored response entirely
        let part = PendingPredict {
            rows,
            start: Instant::now(),
            explain_tiers: false,
            responder,
            shadow: Some(ShadowCtx {
                expected,
                stats: Arc::clone(&cell),
            }),
        };
        match state.coalescer.submit(&cell, &candidate, d, part) {
            Submitted::Joined => {}
            Submitted::Solo(part) => run_batch(
                state,
                cand_key.clone(),
                &cell,
                Batch::solo(Arc::clone(&candidate), part),
                d,
            ),
            Submitted::Flush(batch) => run_batch(state, cand_key.clone(), &cell, batch, d),
        }
    }
}

/// Spreads an optional per-segment result across `n` per-part options.
fn unzip_parts<T>(parts: Option<Vec<Vec<T>>>, n: usize) -> Vec<Option<Vec<T>>> {
    match parts {
        Some(vs) => vs.into_iter().map(Some).collect(),
        None => (0..n).map(|_| None).collect(),
    }
}

/// `POST /v1/predict`: resolve → validate/encode → coalesce → batch-
/// parallel enum-dispatch predict.
///
/// Two input shapes: `rows` (pre-encoded codes, validated per row with the
/// offending row index and feature name on failure) and `rows_raw` (raw
/// label strings, dictionary-encoded server-side against the artifact's
/// contract — the NoJoin FK-as-feature rewrite at ingest). Validation and
/// encoding both flatten into one row-major buffer; each row's width is
/// checked before flattening, since compensating-length rows (e.g.
/// [[0,1,0],[1]] against d=2) would otherwise splice across row boundaries
/// and pass a total-length check with misaligned codes.
///
/// Execution is then routed through the [`Coalescer`]: small requests
/// merge with concurrent requests for the same model into one sharded
/// fan-out (responses bit-identical to solo execution); large or lone
/// requests run solo, sharded across scoped threads
/// (`AnyClassifier::predict_batch_sharded`) so a 10k-row batch uses every
/// core instead of one worker thread.
fn predict(state: &AppState, req: &Request, responder: Responder) {
    let start = Instant::now();
    let (mut artifact, rows, d, pinned) = match parse_predict(&state.registry, &req.body) {
        Ok(parsed) => parsed,
        Err(e) => {
            state
                .telemetry
                .endpoint(Endpoint::Predict)
                .observe(start.elapsed(), true);
            return responder.send(error_response(&e));
        }
    };
    // Canary routing: when this bare name is mid-canary, a deterministic
    // hash of the request routes the configured slice to the candidate,
    // which serves it for real (and its panics count toward the canary
    // error-ratio guardrail). Pinned requests are never re-routed.
    if !pinned {
        if let Some((active, candidate)) =
            state
                .rollout
                .canary_route(&state.registry, &artifact, &rows)
        {
            active.count_canary_request();
            artifact = candidate;
        }
    }
    // Resolve the model's identity and serving cell exactly once; every
    // downstream step (coalescer lane, shard sizing, EWMA fold-back,
    // response body, per-model accounting) reuses them.
    let key = artifact.key();
    let cell = state.telemetry.model(&key);
    let part = PendingPredict {
        rows,
        start,
        explain_tiers: req.flag("explain_tiers"),
        responder,
        shadow: None,
    };
    match state.coalescer.submit(&cell, &artifact, d, part) {
        // Merged into an open batch: its leader answers; this executor is
        // already free for the next request.
        Submitted::Joined => {}
        // Solo and flushed batches share one execution path (`run_batch`):
        // panic containment, accounting and shadow mirroring live there.
        Submitted::Solo(part) => run_batch(state, key, &cell, Batch::solo(artifact, part), d),
        // Leading a batch means every participant resolved this same
        // artifact, so the key and cell resolved above serve the batch.
        Submitted::Flush(batch) => run_batch(state, key, &cell, batch, d),
    }
}

/// `POST /v1/explain`: decode coded rows back to their raw label strings
/// via the artifact's contract — the inverse of the `rows_raw` ingest path,
/// useful for auditing what a stored code vector actually *means* against
/// the dictionaries the model was trained with. A contract without
/// dictionaries gets a 400 naming the feature that has none.
fn explain(state: &AppState, req: &Request) -> Result<ExplainResponse, ServeError> {
    let body: ExplainRequest = parse_body(req)?;
    let artifact = state.registry.get(&body.model)?;
    if body.rows.is_empty() {
        return Err(ServeError::BadRequest("empty explain batch".into()));
    }
    let mut rows_raw = Vec::with_capacity(body.rows.len());
    for (i, row) in body.rows.iter().enumerate() {
        rows_raw.push(artifact.contract.decode_row(row).map_err(|e| {
            ServeError::BadRequest(format!("model `{}`: row {i}: {e}", artifact.key()))
        })?);
    }
    Ok(ExplainResponse {
        model: artifact.key(),
        rows_raw,
    })
}

/// `POST /v1/advise`: star-schema stats → per-dimension verdicts.
fn advise(req: &Request) -> Result<crate::api::AdviseResponse, ServeError> {
    let body: AdviseRequest = parse_body(req)?;
    if body.dims.is_empty() {
        return Err(ServeError::BadRequest("dims must be non-empty".into()));
    }
    // Zero-row dimensions would produce an infinite tuple ratio, which JSON
    // cannot carry; a real dimension table always has at least one row.
    if let Some(bad) = body.dims.iter().find(|d| d.n_rows == 0) {
        return Err(ServeError::BadRequest(format!(
            "dimension `{}` has n_rows = 0; dimension tables are non-empty",
            bad.name
        )));
    }
    Ok(advise_dims(&body.dims, body.n_train, body.family))
}

/// `POST /v1/models/demote`: return a promoted non-latest version to its
/// lazy header-only slot, releasing its payload memory (admin surface for
/// the registry's residency management).
fn demote(state: &AppState, req: &Request) -> Result<crate::registry::ModelSummary, ServeError> {
    let body: DemoteRequest = parse_body(req)?;
    state.registry.demote(&body.key)
}

/// `POST /v1/train`: run the experiment pipeline, persist, register. At
/// most one training runs at a time (see `AppState::train_gate`); a second
/// concurrent request gets a 429 instead of tying up another worker.
fn train(state: &AppState, req: &Request) -> Result<Response, ServeError> {
    let Some(_running) = TrainPermit::acquire(&state.train_gate) else {
        return Ok(Response::json(
            429,
            "{\"error\":\"a training run is already in progress; retry later\"}",
        ));
    };
    let body: TrainRequest = parse_body(req)?;
    let resp: TrainResponse = train_and_register(&state.registry, &state.artifact_dir, &body)?;
    state.telemetry.record_event(
        EventKind::Train,
        &resp.key,
        &format!(
            "dataset={} spec={} test_accuracy={:.3}",
            body.dataset,
            body.spec.name(),
            resp.metrics.test_accuracy
        ),
    );
    Ok(ok_json(&resp))
}

/// `POST /v1/observe`: stream labeled rows into the bounded observe
/// buffer. Rows are validated against the model's contract exactly like
/// `/v1/predict` coded rows, then appended to the per-name ring (memory)
/// and CRC-framed on-disk buffer (crash-safe). The buffer feeds two
/// consumers: warm-start incremental refresh (`/v1/rollout/start` with
/// `refresh`) and the periodic drift check.
fn observe(state: &AppState, req: &Request) -> Result<ObserveResponse, ServeError> {
    let body: ObserveRequest = parse_body(req)?;
    let artifact = state.registry.get(&body.model)?;
    if body.rows.is_empty() {
        return Err(ServeError::BadRequest("empty observe batch".into()));
    }
    if body.rows.len() != body.labels.len() {
        return Err(ServeError::BadRequest(format!(
            "rows/labels length mismatch: {} rows vs {} labels",
            body.rows.len(),
            body.labels.len()
        )));
    }
    let d = artifact.contract.width();
    let flat = artifact.validate_coded(&body.rows)?;
    let observed: Vec<ObservedRow> = flat
        .chunks(d)
        .zip(body.labels.iter())
        .map(|(codes, &label)| ObservedRow {
            codes: codes.to_vec(),
            label,
        })
        .collect();
    let accepted = observed.len();
    let buffered = state.rollout.observe.append(&artifact.name, &observed)?;
    Ok(ObserveResponse {
        model: artifact.name.clone(),
        accepted,
        buffered,
    })
}

/// `POST /v1/rollout/start`: begin a shadow rollout. Exactly one of
/// `candidate` (an already-registered key, e.g. from `/v1/train`) or
/// `refresh` (a bare model name — warm-start refit on the observe buffer,
/// registering the result as a held candidate) must be given.
fn rollout_start(
    state: &AppState,
    req: &Request,
) -> Result<crate::rollout::RolloutSnapshot, ServeError> {
    let body: RolloutStartRequest = parse_body(req)?;
    let key = match (&body.candidate, &body.refresh) {
        (Some(key), None) => key.clone(),
        (None, Some(name)) => {
            let rows = state.rollout.observe.snapshot(name);
            let resp = train_incremental(&state.registry, &state.artifact_dir, name, &rows)?;
            state.telemetry.record_event(
                EventKind::Train,
                &resp.key,
                &format!("warm-start refresh on {} observed rows", rows.len()),
            );
            resp.key
        }
        _ => {
            return Err(ServeError::BadRequest(
                "exactly one of \"candidate\" or \"refresh\" is required".into(),
            ))
        }
    };
    state
        .rollout
        .start(&state.registry, &state.telemetry, &key, body.slice)
}

/// Registry gauges the exporters report next to telemetry.
fn ops_gauges(state: &AppState) -> OpsGauges {
    OpsGauges {
        models_registered: state.registry.len(),
        models_resident: state.registry.resident_count(),
        kernel_backend: hamlet_ml::kernels::backend().name(),
    }
}

/// Demotes every promoted **non-latest** version whose telemetry last-hit
/// timestamp is at least `idle` old (never-hit versions count as idle
/// since boot). The latest version of each name is never touched — it
/// serves bare-name traffic. Returns the demoted keys.
///
/// This is the telemetry-driven ops loop: the reactor's timer wheel calls
/// it via [`ServerOptions::on_tick`] when `--demote-idle-secs` is set, so
/// a burst of pinned traffic against an old version stops costing payload
/// memory once the burst is over. Racing a concurrent predict is benign:
/// the predict either holds the artifact `Arc` already (it finishes
/// normally) or re-promotes the lazy slot on its next request.
pub fn demote_idle(state: &AppState, idle: std::time::Duration) -> Vec<String> {
    let summaries = state.registry.list();
    let mut demoted = Vec::new();
    for s in &summaries {
        if !s.resident {
            continue;
        }
        let latest = summaries
            .iter()
            .filter(|o| o.name == s.name)
            .map(|o| o.version)
            .max()
            .unwrap_or(s.version);
        if s.version == latest {
            continue;
        }
        if state.telemetry.idle_for(&s.key) >= idle && state.registry.demote(&s.key).is_ok() {
            demoted.push(s.key.clone());
        }
    }
    demoted
}

/// Builds the router over shared state.
pub fn router(state: Arc<AppState>) -> Handler {
    Arc::new(move |req: &Request, responder: Responder| {
        // `/v1/predict` owns its responder (it may defer into the
        // coalescer); every other endpoint answers synchronously.
        if (req.method.as_str(), req.path.as_str()) == ("POST", "/v1/predict") {
            return predict(&state, req, responder);
        }
        let sync_start = Instant::now();
        let endpoint = Endpoint::of(&req.path);
        let response = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => ok_json(&Health {
                status: "ok".into(),
                models: state.registry.len(),
                // Same counter block the coalescer records into (shared
                // through telemetry): one accounting source of truth.
                coalesce: state.telemetry.coalesce_stats().snapshot(),
            }),
            ("GET", "/v1/stats") => ok_json(&crate::telemetry::stats_response(
                &state.telemetry,
                ops_gauges(&state),
                &state.registry.list(),
                state.rollout.snapshot(),
            )),
            ("GET", "/metrics") => Response::text(
                200,
                crate::telemetry::prometheus(
                    &state.telemetry,
                    ops_gauges(&state),
                    &state.registry.list(),
                    Some(&state.net),
                    &state.rollout.snapshot(),
                ),
            ),
            ("GET", "/v1/models") => ok_json(&ModelsResponse {
                models: state.registry.list(),
            }),
            ("POST", "/v1/models/demote") => match demote(&state, req) {
                Ok(summary) => ok_json(&summary),
                Err(e) => error_response(&e),
            },
            ("POST", "/v1/explain") => match explain(&state, req) {
                Ok(resp) => ok_json(&resp),
                Err(e) => error_response(&e),
            },
            ("POST", "/v1/advise") => match advise(req) {
                Ok(resp) => ok_json(&resp),
                Err(e) => error_response(&e),
            },
            ("POST", "/v1/train") => match train(&state, req) {
                Ok(resp) => resp,
                Err(e) => error_response(&e),
            },
            ("POST", "/v1/observe") => match observe(&state, req) {
                Ok(resp) => ok_json(&resp),
                Err(e) => error_response(&e),
            },
            ("GET", "/v1/rollout/status") => ok_json(&state.rollout.snapshot()),
            ("POST", "/v1/rollout/start") => match rollout_start(&state, req) {
                Ok(snapshot) => ok_json(&snapshot),
                Err(e) => error_response(&e),
            },
            ("POST", "/v1/rollout/abort") => match state.rollout.abort(&state.telemetry) {
                Ok(snapshot) => ok_json(&snapshot),
                Err(e) => error_response(&e),
            },
            ("GET" | "POST", _) => Response::json(
                404,
                "{\"error\":\"no such endpoint; see /healthz, /metrics, /v1/stats, \
                 /v1/models, /v1/models/demote, /v1/predict, /v1/explain, /v1/advise, \
                 /v1/train, /v1/observe, /v1/rollout/status, /v1/rollout/start, \
                 /v1/rollout/abort\"}",
            ),
            _ => Response::json(405, "{\"error\":\"method not allowed\"}"),
        };
        state
            .telemetry
            .endpoint(endpoint)
            .observe(sync_start.elapsed(), response.status >= 400);
        responder.send(response);
    })
}

/// Binds and starts the full server with default I/O options.
pub fn serve(addr: &str, workers: usize, state: Arc<AppState>) -> std::io::Result<Server> {
    serve_with(
        addr,
        ServerOptions {
            workers,
            ..ServerOptions::default()
        },
        state,
    )
}

/// Binds and starts the full server with explicit [`ServerOptions`]
/// (connection cap, timeouts, executor count, reactor count). The app
/// state's [`NetStats`](crate::http::NetStats) is wired into the server so
/// `/metrics` reports the live reactors and fair-queue depths.
pub fn serve_with(
    addr: &str,
    mut opts: ServerOptions,
    state: Arc<AppState>,
) -> std::io::Result<Server> {
    opts.net_stats = Some(Arc::clone(&state.net));
    Server::bind_with(addr, router(Arc::clone(&state)), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> Arc<AppState> {
        state_with_coalesce(CoalesceConfig::default())
    }

    fn state_with_coalesce(coalesce: CoalesceConfig) -> Arc<AppState> {
        let telemetry = Telemetry::in_memory();
        Arc::new(AppState {
            registry: ModelRegistry::new(),
            artifact_dir: std::env::temp_dir().join("hamlet-serve-router-tests"),
            predict_threads: 2,
            coalescer: Coalescer::with_stats(coalesce, telemetry.coalesce_stats()),
            telemetry,
            net: Arc::new(crate::http::NetStats::new()),
            rollout: Arc::new(RolloutPlane::in_memory(GuardrailConfig::default())),
            faults: Faults::default(),
            shard_budget: ShardBudget::new(2),
            train_gate: std::sync::atomic::AtomicBool::new(false),
        })
    }

    fn call(handler: &Handler, method: &str, path: &str, body: &str) -> (u16, String) {
        // Mirror the connection parser: split the query off the target so
        // tests can pass "/v1/predict?explain_tiers=1" naturally.
        let (path, query) = path.split_once('?').unwrap_or((path, ""));
        let (responder, rx) = Responder::direct();
        handler(
            &Request {
                method: method.into(),
                path: path.into(),
                query: query.into(),
                body: body.as_bytes().to_vec(),
                keep_alive: false,
            },
            responder,
        );
        let resp = rx.recv().expect("handler answered");
        (resp.status, String::from_utf8(resp.body).unwrap())
    }

    #[test]
    fn routes_dispatch_and_404() {
        let handler = router(state());
        let (status, body) = call(&handler, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""));
        assert!(body.contains("coalesce"), "{body}");
        let (status, _) = call(&handler, "GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = call(&handler, "DELETE", "/healthz", "");
        assert_eq!(status, 405);
        let (status, _) = call(&handler, "GET", "/v1/models", "");
        assert_eq!(status, 200);
    }

    #[test]
    fn predict_unknown_model_is_404() {
        let handler = router(state());
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"ghost\",\"rows\":[[0]]}",
        );
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("ghost"));
    }

    #[test]
    fn predict_ragged_rows_are_400_not_misaligned() {
        // Rows of compensating lengths must be rejected, not silently
        // spliced into a misaligned row-major buffer.
        let app = state();
        app.registry
            .insert(crate::artifact::tests::toy_artifact("ragged", 1));
        let handler = router(app);
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"ragged\",\"rows\":[[0,1,0],[1]]}",
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("row 0"), "{body}");
        // Correct widths still work.
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"ragged\",\"rows\":[[0,1],[1,0]]}",
        );
        assert_eq!(status, 200, "{body}");
    }

    #[test]
    fn predict_raw_rows_encode_server_side() {
        let app = state();
        // toy_artifact: xs0 closed {v0,v1}; fk open {v0..v3, Others}.
        app.registry
            .insert(crate::artifact::tests::toy_artifact("raw", 1));
        let handler = router(app);
        // Known labels, plus an unseen label on the open fk → Others.
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"raw\",\"rows_raw\":[[\"v1\",\"v3\"],[\"v0\",\"mystery-fk\"]]}",
        );
        assert_eq!(status, 200, "{body}");
        let resp: crate::api::PredictResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(resp.labels.len(), 2);
        // Unseen label on the *closed* feature is a 400 naming row+feature.
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"raw\",\"rows_raw\":[[\"v1\",\"v0\"],[\"surprise\",\"v0\"]]}",
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("row 1"), "{body}");
        assert!(body.contains("xs0"), "{body}");
        // Both or neither input shape is a 400.
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"raw\",\"rows\":[[0,0]],\"rows_raw\":[[\"v0\",\"v0\"]]}",
        );
        assert_eq!(status, 400);
        let (status, _) = call(&handler, "POST", "/v1/predict", "{\"model\":\"raw\"}");
        assert_eq!(status, 400);
    }

    #[test]
    fn demote_endpoint_round_trips_residency() {
        let dir = std::env::temp_dir().join(format!("hamlet-srv-demote-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        crate::artifact::tests::toy_artifact("dm", 1)
            .save(&dir)
            .unwrap();
        crate::artifact::tests::toy_artifact("dm", 2)
            .save(&dir)
            .unwrap();
        let (app, loaded) = AppState::warm(dir.clone()).unwrap();
        assert_eq!(loaded, 2);
        let handler = router(Arc::clone(&app));
        // Promote dm@1 by predicting against it, pinned.
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"dm@1\",\"rows\":[[0,0]]}",
        );
        assert_eq!(status, 200);
        assert_eq!(app.registry.resident_count(), 2);
        // Demote it over HTTP.
        let (status, body) = call(&handler, "POST", "/v1/models/demote", "{\"key\":\"dm@1\"}");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"resident\":false"), "{body}");
        assert_eq!(app.registry.resident_count(), 1);
        // The latest version refuses with a clear 400.
        let (status, body) = call(&handler, "POST", "/v1/models/demote", "{\"key\":\"dm@2\"}");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("latest"), "{body}");
        // Unknown keys 404.
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/models/demote",
            "{\"key\":\"ghost@1\"}",
        );
        assert_eq!(status, 404);
        // And the demoted version still serves (re-promotes on demand).
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"dm@1\",\"rows\":[[0,0]]}",
        );
        assert_eq!(status, 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_decodes_rows_against_the_contract() {
        let app = state();
        // toy_artifact: xs0 closed {v0,v1}; fk open {v0..v3, Others}.
        app.registry
            .insert(crate::artifact::tests::toy_artifact("exp", 1));
        let handler = router(app);
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/explain",
            "{\"model\":\"exp\",\"rows\":[[1,3],[0,4]]}",
        );
        assert_eq!(status, 200, "{body}");
        let resp: crate::api::ExplainResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(resp.model, "exp@1");
        assert_eq!(resp.rows_raw.len(), 2);
        assert_eq!(resp.rows_raw[0][0], "v1");
        assert_eq!(resp.rows_raw[0][1], "v3");
        assert_eq!(
            resp.rows_raw[1][1], "Others",
            "the open-domain fallback slot decodes by name"
        );
        // Out-of-domain code: 400 naming the row.
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/explain",
            "{\"model\":\"exp\",\"rows\":[[0,0],[0,9]]}",
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("row 1"), "{body}");
        // Empty batch and unknown model.
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/explain",
            "{\"model\":\"exp\",\"rows\":[]}",
        );
        assert_eq!(status, 400);
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/explain",
            "{\"model\":\"ghost\",\"rows\":[[0,0]]}",
        );
        assert_eq!(status, 404);
    }

    #[test]
    fn predict_errors_name_every_offending_row() {
        let app = state();
        app.registry
            .insert(crate::artifact::tests::toy_artifact("multi", 1));
        let handler = router(app);
        // Row 0 fine; row 1 bad code on fk; row 2 wrong width.
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"multi\",\"rows\":[[0,0],[0,9],[1]]}",
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("row 1"), "{body}");
        assert!(body.contains("fk"), "{body}");
        assert!(body.contains("row 2"), "{body}");
    }

    #[test]
    fn predict_malformed_body_is_400() {
        let handler = router(state());
        let (status, _) = call(&handler, "POST", "/v1/predict", "{not json");
        assert_eq!(status, 400);
        let (status, _) = call(&handler, "POST", "/v1/predict", "{\"model\":3}");
        assert_eq!(status, 400);
    }

    #[test]
    fn advise_matches_core_advisor() {
        use hamlet_core::advisor::{advise_dims, Advice, DimStats};
        use hamlet_core::model_zoo::ModelFamily;

        let handler = router(state());
        let dims = vec![
            DimStats::closed("safe", 100),
            DimStats::closed("risky", 5000),
        ];
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/advise",
            &serde_json::to_string(&crate::api::AdviseRequest {
                family: ModelFamily::TreeOrAnn,
                n_train: 6000,
                dims: dims.clone(),
            })
            .unwrap(),
        );
        assert_eq!(status, 200, "{body}");
        let got: crate::api::AdviseResponse = serde_json::from_str(&body).unwrap();
        let want = advise_dims(&dims, 6000, ModelFamily::TreeOrAnn);
        assert_eq!(got.dimensions.len(), want.dimensions.len());
        for (g, w) in got.dimensions.iter().zip(&want.dimensions) {
            assert_eq!(g.advice, w.advice);
            assert!((g.tuple_ratio - w.tuple_ratio).abs() < 1e-12);
        }
        assert_eq!(got.dimensions[0].advice, Advice::AvoidJoin);
        assert_eq!(got.dimensions[1].advice, Advice::RetainJoin);
    }

    #[test]
    fn concurrent_train_requests_get_429() {
        let app = state();
        let handler = router(Arc::clone(&app));
        // Simulate an in-flight training run by holding the gate.
        let permit = TrainPermit::acquire(&app.train_gate).unwrap();
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/train",
            "{\"name\":\"x\",\"dataset\":\"movies\",\"spec\":\"TreeGini\"}",
        );
        assert_eq!(status, 429, "{body}");
        assert!(body.contains("in progress"), "{body}");
        drop(permit);
        // A failed (or panicked) run must release the gate: this request
        // gets past admission and fails on the body instead of with 429.
        let (status, _) = call(&handler, "POST", "/v1/train", "{not json");
        assert_eq!(status, 400);
        let (status, _) = call(&handler, "POST", "/v1/train", "{not json");
        assert_eq!(status, 400, "gate must be released after a failed run");
    }

    #[test]
    fn shard_budget_splits_fairly_and_releases_on_drop() {
        let budget = ShardBudget::new(4);
        let a = budget.reserve(3);
        assert_eq!(a.threads(), 3);
        let b = budget.reserve(3);
        assert_eq!(b.threads(), 1, "only one slot left");
        let c = budget.reserve(3);
        assert_eq!(c.threads(), 1, "dry pool still grants the worker thread");
        assert_eq!(c.reserved, 0);
        drop(a);
        let d = budget.reserve(4);
        assert_eq!(d.threads(), 3, "dropped permits return to the pool");
        drop(b);
        drop(c);
        drop(d);
        assert_eq!(
            budget.reserve(usize::MAX).threads(),
            4,
            "everything released"
        );
    }

    #[test]
    fn predict_records_latency_observations() {
        let app = state();
        app.registry
            .insert(crate::artifact::tests::toy_artifact("obs", 1));
        let handler = router(Arc::clone(&app));
        assert!(app.telemetry.model("obs@1").ns_per_row().is_none());
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"obs\",\"rows\":[[0,0],[1,1]]}",
        );
        assert_eq!(status, 200);
        let first = app.telemetry.model("obs@1").ns_per_row().expect("observed");
        assert!(first > 0.0);
        // More traffic keeps folding in (the EWMA moves or stays finite).
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"obs\",\"rows\":[[0,0]]}",
        );
        assert_eq!(status, 200);
        assert!(app
            .telemetry
            .model("obs@1")
            .ns_per_row()
            .unwrap()
            .is_finite());
    }

    #[test]
    fn cascade_predicts_report_tiers_and_telemetry() {
        let app = state();
        app.registry
            .insert(crate::artifact::tests::toy_cascade_artifact("casc", 1));
        let handler = router(Arc::clone(&app));
        // Plain predict: labels plus per-row tier provenance, no
        // confidence unless asked for.
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"casc\",\"rows\":[[0,0],[1,1],[0,2]]}",
        );
        assert_eq!(status, 200, "{body}");
        let resp: crate::api::PredictResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(resp.labels.len(), 3);
        let tiers = resp.tiers.expect("cascade responses carry tier provenance");
        assert_eq!(tiers.len(), 3);
        assert!(tiers.iter().all(|&t| t < 2), "{tiers:?}");
        assert!(resp.tier_confidence.is_none());
        // ?explain_tiers=1 adds calibrated per-row confidence.
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/predict?explain_tiers=1",
            "{\"model\":\"casc\",\"rows\":[[0,0],[1,1]]}",
        );
        assert_eq!(status, 200, "{body}");
        let resp: crate::api::PredictResponse = serde_json::from_str(&body).unwrap();
        let conf = resp.tier_confidence.expect("explain_tiers adds confidence");
        assert_eq!(conf.len(), 2);
        assert!(conf.iter().all(|c| (0.5..1.0).contains(c)), "{conf:?}");
        // Tier telemetry shows up on /v1/stats and /metrics.
        let (status, body) = call(&handler, "GET", "/v1/stats", "");
        assert_eq!(status, 200);
        let stats: crate::api::StatsResponse = serde_json::from_str(&body).unwrap();
        let row = stats.models.iter().find(|m| m.model == "casc@1").unwrap();
        let tier_rows = row.cascade_tier_rows.as_ref().expect("tier rows recorded");
        assert_eq!(tier_rows.iter().sum::<u64>(), 5, "{tier_rows:?}");
        let ratio = row.cascade_escalation_ratio.unwrap();
        assert!((0.0..=1.0).contains(&ratio));
        let (status, text) = call(&handler, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(
            text.contains("hamlet_cascade_tier_rows_total{model=\"casc@1\",tier=\"0\"}"),
            "{text}"
        );
        assert!(
            text.contains("hamlet_cascade_escalation_ratio{model=\"casc@1\"}"),
            "{text}"
        );
        // Non-cascade models stay silent on the cascade families.
        let row_free = stats.models.iter().all(|m| {
            m.model == "casc@1"
                || (m.cascade_tier_rows.is_none() && m.cascade_escalation_ratio.is_none())
        });
        assert!(row_free);
    }

    #[test]
    fn advise_empty_dims_is_400() {
        let handler = router(state());
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/advise",
            "{\"family\":\"Linear\",\"n_train\":10,\"dims\":[]}",
        );
        assert_eq!(status, 400);
    }

    #[test]
    fn observe_endpoint_buffers_labeled_rows() {
        let app = state();
        app.registry
            .insert(crate::artifact::tests::toy_artifact("obs", 1));
        let handler = router(Arc::clone(&app));
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/observe",
            "{\"model\":\"obs\",\"rows\":[[0,1],[1,0]],\"labels\":[true,false]}",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"accepted\":2"), "{body}");
        assert!(body.contains("\"buffered\":2"), "{body}");
        // Rows and labels must pair up.
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/observe",
            "{\"model\":\"obs\",\"rows\":[[0,1]],\"labels\":[true,false]}",
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("mismatch"), "{body}");
        // Rows are validated against the contract like /v1/predict codes.
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/observe",
            "{\"model\":\"obs\",\"rows\":[[9,0]],\"labels\":[true]}",
        );
        assert_eq!(status, 400, "{body}");
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/observe",
            "{\"model\":\"ghost\",\"rows\":[[0]],\"labels\":[true]}",
        );
        assert_eq!(status, 404);
        assert_eq!(app.rollout.observe.snapshot("obs").len(), 2);
    }

    #[test]
    fn rollout_endpoints_drive_shadow_then_canary() {
        let app = state();
        app.registry
            .insert(crate::artifact::tests::toy_artifact("m", 1));
        let (cand_key, _) = app
            .registry
            .register_candidate(crate::artifact::tests::toy_artifact("m", 2), 0, |_| Ok(()))
            .unwrap();
        assert_eq!(cand_key, "m@2");
        let handler = router(Arc::clone(&app));
        let (status, body) = call(&handler, "GET", "/v1/rollout/status", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"active\":false"), "{body}");
        // Start with a full canary slice so routing is deterministic below.
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/rollout/start",
            "{\"candidate\":\"m@2\",\"slice\":100}",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"phase\":\"shadow\""), "{body}");
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/rollout/start",
            "{\"candidate\":\"m@2\"}",
        );
        assert_eq!(status, 400, "one rollout at a time");
        // Shadow: bare-name traffic is served by the incumbent, mirrored to
        // the candidate, and scored against the incumbent's labels.
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"m\",\"rows\":[[0,0],[1,1]]}",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"model\":\"m@1\""), "{body}");
        let snap = app.telemetry.model("m@2").snapshot();
        assert_eq!(snap.shadow_rows, 2, "mirrored rows scored");
        assert_eq!(
            snap.shadow_agreement(),
            Some(1.0),
            "identical toy models agree"
        );
        // Clear the graduation bar and tick: shadow → canary.
        app.telemetry.model("m@2").record_shadow(200, 200);
        app.rollout.tick(&app.registry, &app.telemetry);
        let (_, body) = call(&handler, "GET", "/v1/rollout/status", "");
        assert!(body.contains("\"phase\":\"canary\""), "{body}");
        // Canary at slice 100: every bare-name request routes to m@2...
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"m\",\"rows\":[[0,0]]}",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"model\":\"m@2\""), "{body}");
        // ...but pinned requests are never re-routed.
        let (_, body) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"m@1\",\"rows\":[[0,0]]}",
        );
        assert!(body.contains("\"model\":\"m@1\""), "{body}");
        // The state gauge reaches /metrics while active.
        let (_, text) = call(&handler, "GET", "/metrics", "");
        assert!(
            text.contains("hamlet_rollout_state{model=\"m\"} 2"),
            "{text}"
        );
        // Abort tears it down; a second abort is a clean 400.
        let (status, body) = call(&handler, "POST", "/v1/rollout/abort", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"active\":false"), "{body}");
        let (status, _) = call(&handler, "POST", "/v1/rollout/abort", "");
        assert_eq!(status, 400);
    }

    #[test]
    fn rollout_start_requires_exactly_one_source() {
        let handler = router(state());
        let (status, body) = call(&handler, "POST", "/v1/rollout/start", "{}");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("exactly one"), "{body}");
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/rollout/start",
            "{\"candidate\":\"a@1\",\"refresh\":\"a\"}",
        );
        assert_eq!(status, 400);
    }

    #[test]
    fn predict_panic_is_contained_to_a_500() {
        let telemetry = Telemetry::in_memory();
        let app = Arc::new(AppState {
            registry: ModelRegistry::new(),
            artifact_dir: std::env::temp_dir().join("hamlet-srv-panic"),
            predict_threads: 2,
            coalescer: Coalescer::with_stats(CoalesceConfig::default(), telemetry.coalesce_stats()),
            telemetry,
            net: Arc::new(crate::http::NetStats::new()),
            rollout: Arc::new(crate::rollout::RolloutPlane::in_memory(
                GuardrailConfig::default(),
            )),
            faults: Faults {
                predict_panic: Some("boom@1".into()),
                flip_labels: None,
            },
            shard_budget: ShardBudget::new(2),
            train_gate: std::sync::atomic::AtomicBool::new(false),
        });
        app.registry
            .insert(crate::artifact::tests::toy_artifact("boom", 1));
        app.registry
            .insert(crate::artifact::tests::toy_artifact("fine", 1));
        let handler = router(Arc::clone(&app));
        let (status, body) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"boom\",\"rows\":[[0,0]]}",
        );
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("isolated"), "{body}");
        // Panics are tagged distinctly from ordinary errors.
        let snap = app.telemetry.endpoint(Endpoint::Predict).snapshot();
        assert_eq!(snap.panics, 1);
        assert_eq!(snap.errors, 1);
        // The executor survives: a healthy model still answers.
        let (status, _) = call(
            &handler,
            "POST",
            "/v1/predict",
            "{\"model\":\"fine\",\"rows\":[[0,0]]}",
        );
        assert_eq!(status, 200);
        let (_, text) = call(&handler, "GET", "/metrics", "");
        assert!(
            text.contains("hamlet_request_panics_total{endpoint=\"predict\"} 1"),
            "{text}"
        );
    }
}

/// The differential gate for [`decode_predict`]: on generated bodies,
/// valid and byte-mutated, [`parse_predict`] must give exactly what the
/// serde reference gives: the same artifact, flat codes, width and pin
/// flag, or the same error response (status and body bytes).
#[cfg(test)]
mod predict_decode_diff {
    use super::*;
    use crate::artifact::tests::toy_artifact;
    use hamlet_ml::contract::FeatureContract;
    use hamlet_ml::dataset::{FeatureMeta, Provenance};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Outcome = Result<(String, Vec<u32>, usize, bool), (u16, Vec<u8>)>;

    fn outcome(parsed: Result<(Arc<ModelArtifact>, Vec<u32>, usize, bool), ServeError>) -> Outcome {
        parsed
            .map(|(artifact, rows, d, pinned)| (artifact.key(), rows, d, pinned))
            .map_err(|e| {
                let resp = error_response(&e);
                (resp.status, resp.body)
            })
    }

    /// `raw`: closed `xs0` {v0, v1} and open `fk` {v0..v3, Others};
    /// `nodict`: the same widths without dictionaries.
    fn registry() -> ModelRegistry {
        let registry = ModelRegistry::new();
        registry.insert(toy_artifact("raw", 1));
        let mut nodict = toy_artifact("nodict", 1);
        nodict.contract = FeatureContract::new(vec![
            FeatureMeta::new("a", 3, Provenance::Home),
            FeatureMeta::new("b", 2, Provenance::Home),
        ])
        .unwrap();
        registry.insert(nodict);
        registry
    }

    fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
        items[rng.gen_range(0..items.len())]
    }

    fn ws(rng: &mut StdRng) -> &'static str {
        if rng.gen_bool(0.7) {
            ""
        } else {
            pick(rng, &[" ", "\n", "\t ", "\r\n  "])
        }
    }

    /// Joins items into a JSON array with random whitespace.
    fn array(rng: &mut StdRng, items: Vec<String>) -> String {
        let mut out = format!("[{}", ws(rng));
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out += &format!("{},{}", ws(rng), ws(rng));
            }
            out += item;
        }
        out + ws(rng) + "]"
    }

    fn code(rng: &mut StdRng) -> String {
        if rng.gen_bool(0.75) {
            return rng.gen_range(0..6u32).to_string();
        }
        pick(
            rng,
            &[
                "007",
                "00",
                "1.0",
                "1e0",
                "2E0",
                "-0",
                "-0.0",
                "0.5",
                "-1",
                "1e",
                "4294967295",
                "4294967296",
                "1e2",
                "99999999999999999999",
                "\"1\"",
                "null",
                "[]",
                "true",
                "{}",
                "0.1e1",
            ],
        )
        .to_string()
    }

    fn label(rng: &mut StdRng) -> String {
        pick(
            rng,
            &[
                "\"v0\"",
                "\"v1\"",
                "\"v2\"",
                "\"v3\"",
                "\"v4\"",
                "\"Others\"",
                "\"mystery\"",
                "\"v\\u0030\"",
                "\"\\u0076\\u0031\"",
                "\"caf\\u00e9\"",
                "\"\\ud83d\\ude00\"",
                "\"a\\\"b\"",
                "7",
                "null",
                "{}",
            ],
        )
        .to_string()
    }

    /// `rows` or `rows_raw`: mostly arrays of two-cell rows, sometimes
    /// ragged, empty, `null` or the wrong type.
    fn rows(rng: &mut StdRng, cell: fn(&mut StdRng) -> String) -> String {
        match rng.gen_range(0..20) {
            0 => return "null".into(),
            1 => return "{}".into(),
            2 => return "[]".into(),
            _ => {}
        }
        let n = rng.gen_range(1..6);
        let rows = (0..n)
            .map(|_| match rng.gen_range(0..20) {
                0 => "5".into(),
                1 => "null".into(),
                w => {
                    let width = if w < 16 { 2 } else { w % 4 };
                    let cells = (0..width).map(|_| cell(rng)).collect();
                    array(rng, cells)
                }
            })
            .collect();
        array(rng, rows)
    }

    /// Any JSON value, nested up to `depth` more levels.
    fn junk(rng: &mut StdRng, depth: u32) -> String {
        match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
            0 => pick(rng, &["null", "true", "false"]).into(),
            1 => pick(rng, &["0", "-12.5e-3", "1E+2", "18446744073709551616"]).into(),
            2 => pick(rng, &["\"\"", "\"x\\u00e9\\n\"", "\"\\/\\b\\f\\r\\t\""]).into(),
            3 => label(rng),
            4 => code(rng),
            5 => {
                let items = (0..rng.gen_range(0..3))
                    .map(|_| junk(rng, depth - 1))
                    .collect();
                array(rng, items)
            }
            _ => {
                let entries: Vec<String> = (0..rng.gen_range(0..3))
                    .map(|_| {
                        let key = pick(rng, &["\"model\"", "\"rows\"", "\"k\""]);
                        format!("{key}:{}", junk(rng, depth - 1))
                    })
                    .collect();
                format!("{{{}}}", entries.join(","))
            }
        }
    }

    /// A predict body from random pieces: known keys (sometimes escaped or
    /// duplicated), unknown keys, random order and whitespace.
    fn body(rng: &mut StdRng) -> String {
        if rng.gen_range(0..40) == 0 {
            return junk(rng, 2);
        }
        let mut entries = Vec::new();
        if rng.gen_bool(0.95) {
            let key = pick(rng, &["\"model\"", "\"model\"", "\"mod\\u0065l\""]);
            let model = pick(
                rng,
                &[
                    "\"raw\"",
                    "\"raw\"",
                    "\"raw\"",
                    "\"raw@1\"",
                    "\"r\\u0061w\"",
                    "\"nodict\"",
                    "\"ghost\"",
                    "\"raw@2\"",
                    "null",
                    "5",
                    "[\"raw\"]",
                ],
            );
            entries.push(format!("{key}{}:{}{model}", ws(rng), ws(rng)));
        }
        let coded = rng.gen_bool(0.6);
        if coded || rng.gen_bool(0.1) {
            entries.push(format!("\"rows\":{}", rows(rng, code)));
        }
        if !coded || rng.gen_bool(0.1) {
            entries.push(format!("\"rows_raw\":{}", rows(rng, label)));
        }
        for _ in 0..rng.gen_range(0..3) {
            let key = pick(
                rng,
                &["\"extra\"", "\"Model\"", "\"rows\"", "\"model\"", "\"\""],
            );
            entries.push(format!("{key}:{}", junk(rng, 3)));
        }
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.gen_range(0..=i));
        }
        let sep: Vec<String> = entries
            .into_iter()
            .map(|e| format!("{}{e}{}", ws(rng), ws(rng)))
            .collect();
        format!("{}{{{}}}{}", ws(rng), sep.join(","), ws(rng))
    }

    /// Deletes, inserts, replaces or truncates a few bytes.
    fn mutate(rng: &mut StdRng, body: &mut Vec<u8>) {
        const BYTES: &[u8] = b"{}[]\",:\\ 0123456789-.eEnultrfa\x00\xc3\xa9\xff";
        for _ in 0..rng.gen_range(1..4) {
            if body.is_empty() {
                return;
            }
            let at = rng.gen_range(0..body.len());
            let byte = BYTES[rng.gen_range(0..BYTES.len())];
            match rng.gen_range(0..4) {
                0 => drop(body.remove(at)),
                1 => body.insert(at, byte),
                2 => body[at] = byte,
                _ => body.truncate(at),
            }
        }
    }

    /// Decodes one generated body both ways and asserts they agree.
    fn case(registry: &ModelRegistry, seed: u64) -> Outcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = body(&mut rng).into_bytes();
        if rng.gen_bool(0.35) {
            mutate(&mut rng, &mut bytes);
        }
        let ours = outcome(parse_predict(registry, &bytes));
        let reference = outcome(reference_parse_predict(registry, &bytes));
        assert_eq!(
            ours,
            reference,
            "body {:?}",
            String::from_utf8_lossy(&bytes)
        );
        ours
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]
        #[test]
        fn single_pass_decode_matches_the_serde_reference(seed in any::<u64>()) {
            let _agreed = case(&registry(), seed);
        }
    }

    /// Guards the generator: a fixed stream of cases must reach every
    /// outcome class the gate is meant to compare.
    #[test]
    fn generated_bodies_reach_every_outcome() {
        let registry = registry();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..3000 {
            let class = match &case(&registry, seed) {
                Ok(_) => "ok",
                Err((404, _)) => "404",
                Err((_, body)) => {
                    let body = String::from_utf8_lossy(body);
                    if body.contains("at byte") {
                        "syntax"
                    } else if body.contains("UTF-8") {
                        "utf8"
                    } else if body.contains(": expected") {
                        "type"
                    } else if body.contains("row ") {
                        "row"
                    } else if body.contains("no dictionary") {
                        "nodict"
                    } else {
                        "shape"
                    }
                }
            };
            seen.insert(class);
        }
        let all = [
            "404", "nodict", "ok", "row", "shape", "syntax", "type", "utf8",
        ];
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
    }
}
