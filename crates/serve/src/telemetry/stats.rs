//! The `Telemetry` handle: per-endpoint and per-model counters and latency
//! histograms, the recent-event ring, and the optional durable event log.
//!
//! Cloning `Telemetry` is an `Arc` bump; every recording path is lock-free
//! or read-lock-only in steady state. [`ModelStats`] is the one per-model
//! serving cell: besides the counters it holds the per-row cost EWMA that
//! sizes shards and the coalescer's merge lane, so a predict resolves it
//! once ([`Telemetry::model`]) and reuses the `Arc` for the whole request.
//! The cells live in a `RwLock<HashMap>` taken for read on every hit, with
//! an occasional write-locked insert for first contact and a
//! garbage-collection sweep once the map grows past a threshold.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use hamlet_ml::cascade::MAX_TIERS;

use crate::coalesce::{CoalesceStats, Lane};
use crate::error::Result;

use super::eventlog::{Event, EventKind, EventLog};
use super::hist::{HistogramSnapshot, LatencyHistogram};

/// Recent events kept in memory for `/v1/stats` regardless of whether a
/// durable log is attached.
const EVENT_RING: usize = 64;
/// Per-model cell map GC threshold.
const MODEL_CELLS_GC_THRESHOLD: usize = 256;
/// Wall-clock budget per predict shard (250 µs). The adaptive shard size
/// for a model is `TARGET_SHARD_NANOS / observed-ns-per-row`: cheap models
/// (a tree at tens of ns/row) get huge shards so spawn overhead stays
/// negligible, expensive ones (an RBF-SVM at tens of µs/row) get small
/// shards so even mid-size batches use every core.
pub const TARGET_SHARD_NANOS: f64 = 250_000.0;
/// Clamp range for adaptive shard sizes: never shard finer than this many
/// rows (spawn overhead dominates below it)...
pub const MIN_ADAPTIVE_SHARD_ROWS: usize = 32;
/// ...and never coarser than this (one shard must not starve the pool).
pub const MAX_ADAPTIVE_SHARD_ROWS: usize = 65_536;
/// EWMA smoothing factor for per-row latency observations.
const LATENCY_EWMA_ALPHA: f64 = 0.2;
/// `last_hit_ms` sentinel: never hit since boot.
const NEVER: u64 = u64::MAX;

/// The served API surface, as fixed telemetry dimensions: one histogram
/// and counter pair per endpoint, no allocation to attribute a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Predict,
    Explain,
    Advise,
    Train,
    Models,
    Demote,
    /// Streaming labeled-row ingest (`/v1/observe`).
    Observe,
    /// Rollout control surface (`/v1/rollout/*`).
    Rollout,
    Healthz,
    Stats,
    Metrics,
    /// Anything unrouted (404s, typos, probes).
    Other,
}

impl Endpoint {
    pub const COUNT: usize = 12;
    pub const ALL: [Endpoint; Endpoint::COUNT] = [
        Endpoint::Predict,
        Endpoint::Explain,
        Endpoint::Advise,
        Endpoint::Train,
        Endpoint::Models,
        Endpoint::Demote,
        Endpoint::Observe,
        Endpoint::Rollout,
        Endpoint::Healthz,
        Endpoint::Stats,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    /// Classifies a request path (method-agnostic: a GET to `/v1/predict`
    /// still counts against the predict dimension, as a 405).
    pub fn of(path: &str) -> Endpoint {
        match path {
            "/v1/predict" => Endpoint::Predict,
            "/v1/explain" => Endpoint::Explain,
            "/v1/advise" => Endpoint::Advise,
            "/v1/train" => Endpoint::Train,
            "/v1/models" => Endpoint::Models,
            "/v1/models/demote" => Endpoint::Demote,
            "/v1/observe" => Endpoint::Observe,
            "/healthz" => Endpoint::Healthz,
            "/v1/stats" => Endpoint::Stats,
            "/metrics" => Endpoint::Metrics,
            p if p.starts_with("/v1/rollout") => Endpoint::Rollout,
            _ => Endpoint::Other,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Predict => "predict",
            Endpoint::Explain => "explain",
            Endpoint::Advise => "advise",
            Endpoint::Train => "train",
            Endpoint::Models => "models",
            Endpoint::Demote => "demote",
            Endpoint::Observe => "observe",
            Endpoint::Rollout => "rollout",
            Endpoint::Healthz => "healthz",
            Endpoint::Stats => "stats",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Counters and latency for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointStats {
    hist: LatencyHistogram,
    requests: AtomicU64,
    errors: AtomicU64,
    /// 500s caused by a handler panic (the dropped-`Responder` path), kept
    /// distinct from ordinary errors: the rollout scorer must not count a
    /// crashed execution as a disagreement — or an agreement.
    panics: AtomicU64,
}

impl EndpointStats {
    /// Records one completed request.
    #[inline]
    pub fn observe(&self, spent: Duration, error: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.hist.record(spent);
    }

    /// Records one request whose handler panicked (delivered as a 500 by
    /// the dropped `Responder`). Counts as a request *and* an error, plus
    /// the distinct panic tag.
    #[inline]
    pub fn observe_panic(&self, spent: Duration) {
        self.panics.fetch_add(1, Ordering::Relaxed);
        self.observe(spent, true);
    }

    pub fn snapshot(&self) -> EndpointSnapshot {
        EndpointSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            hist: self.hist.snapshot(),
        }
    }
}

/// Point-in-time copy of one endpoint's stats.
#[derive(Debug, Clone)]
pub struct EndpointSnapshot {
    pub requests: u64,
    pub errors: u64,
    /// Of `errors`, how many were handler panics.
    pub panics: u64,
    pub hist: HistogramSnapshot,
}

/// The serving cell for one model key: counters and latency, the last-hit
/// timestamp the auto-demoter reads, the per-row cost EWMA behind adaptive
/// shard sizing and the merge window, and the coalescer's lane.
#[derive(Debug)]
pub struct ModelStats {
    hist: LatencyHistogram,
    requests: AtomicU64,
    merged_requests: AtomicU64,
    rows: AtomicU64,
    /// Milliseconds since the telemetry epoch at the last hit; [`NEVER`]
    /// until the first one.
    last_hit_ms: AtomicU64,
    /// Rows answered per cascade tier (fixed slots so recording is a few
    /// unconditional atomics, no allocation). All zero for single-model
    /// artifacts.
    tier_rows: [AtomicU64; MAX_TIERS],
    /// Rows this version scored in shadow (mirrored traffic, responses
    /// discarded).
    shadow_rows: AtomicU64,
    /// Of `shadow_rows`, how many agreed with the incumbent's label.
    shadow_agree_rows: AtomicU64,
    /// Shadow rows skipped because the mirrored execution panicked — kept
    /// out of both `shadow_rows` and the agreement tally.
    shadow_skipped_rows: AtomicU64,
    /// EWMA of the estimated *sequential* per-row predict cost in ns
    /// (wall-clock × shards used ÷ rows, so it stays comparable whether a
    /// batch ran on one thread or sixteen), as f64 bits; 0 = unobserved.
    ns_per_row: AtomicU64,
    /// Where concurrent predicts against this model merge.
    pub(crate) lane: Lane,
}

impl Default for ModelStats {
    fn default() -> Self {
        ModelStats {
            hist: LatencyHistogram::new(),
            requests: AtomicU64::new(0),
            merged_requests: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            last_hit_ms: AtomicU64::new(NEVER),
            tier_rows: std::array::from_fn(|_| AtomicU64::new(0)),
            shadow_rows: AtomicU64::new(0),
            shadow_agree_rows: AtomicU64::new(0),
            shadow_skipped_rows: AtomicU64::new(0),
            ns_per_row: AtomicU64::new(0),
            lane: Lane::default(),
        }
    }
}

impl ModelStats {
    /// Records one answered predict request against this model.
    #[inline]
    pub fn record(&self, spent: Duration, rows: u64, merged: bool, now_ms: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if merged {
            self.merged_requests.fetch_add(1, Ordering::Relaxed);
        }
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.last_hit_ms.store(now_ms, Ordering::Relaxed);
        self.hist.record(spent);
    }

    /// Folds one tiered (cascade) execution's per-tier row histogram in.
    #[inline]
    pub fn record_tiers(&self, hist: &[u64; MAX_TIERS]) {
        for (cell, &n) in self.tier_rows.iter().zip(hist) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Folds one shadow-scored batch in: `rows` mirrored rows of which
    /// `agree` matched the incumbent's labels.
    #[inline]
    pub fn record_shadow(&self, rows: u64, agree: u64) {
        self.shadow_rows.fetch_add(rows, Ordering::Relaxed);
        self.shadow_agree_rows.fetch_add(agree, Ordering::Relaxed);
    }

    /// Records `rows` mirrored rows dropped from shadow scoring because
    /// their execution panicked.
    #[inline]
    pub fn record_shadow_skipped(&self, rows: u64) {
        self.shadow_skipped_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Current per-row cost EWMA (estimated sequential ns/row), if any
    /// observation was recorded.
    #[inline]
    pub fn ns_per_row(&self) -> Option<f64> {
        let bits = self.ns_per_row.load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }

    /// Folds one observation (estimated sequential ns/row) into the EWMA.
    #[inline]
    pub fn observe(&self, ns_per_row: f64) {
        if !ns_per_row.is_finite() || ns_per_row <= 0.0 {
            return;
        }
        let mut cur = self.ns_per_row.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let next = if old == 0.0 {
                ns_per_row
            } else {
                LATENCY_EWMA_ALPHA * ns_per_row + (1.0 - LATENCY_EWMA_ALPHA) * old
            };
            match self.ns_per_row.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Shard size (rows per extra thread) for this model: sized so one
    /// shard costs ~[`TARGET_SHARD_NANOS`], clamped to
    /// [[`MIN_ADAPTIVE_SHARD_ROWS`], [`MAX_ADAPTIVE_SHARD_ROWS`]]. Models
    /// never observed yet use the library's fixed
    /// [`hamlet_ml::any::MIN_ROWS_PER_SHARD`] floor.
    #[inline]
    pub fn shard_rows(&self) -> usize {
        match self.ns_per_row() {
            None => hamlet_ml::any::MIN_ROWS_PER_SHARD,
            Some(ns) => ((TARGET_SHARD_NANOS / ns) as usize)
                .clamp(MIN_ADAPTIVE_SHARD_ROWS, MAX_ADAPTIVE_SHARD_ROWS),
        }
    }

    pub fn snapshot(&self) -> ModelSnapshot {
        let last = self.last_hit_ms.load(Ordering::Relaxed);
        ModelSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            merged_requests: self.merged_requests.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            last_hit_ms: (last != NEVER).then_some(last),
            tier_rows: std::array::from_fn(|i| self.tier_rows[i].load(Ordering::Relaxed)),
            shadow_rows: self.shadow_rows.load(Ordering::Relaxed),
            shadow_agree_rows: self.shadow_agree_rows.load(Ordering::Relaxed),
            shadow_skipped_rows: self.shadow_skipped_rows.load(Ordering::Relaxed),
            hist: self.hist.snapshot(),
        }
    }
}

/// Point-in-time copy of one model's stats.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    pub requests: u64,
    pub merged_requests: u64,
    pub rows: u64,
    pub last_hit_ms: Option<u64>,
    /// Rows answered per cascade tier; all zero for single-model artifacts.
    pub tier_rows: [u64; MAX_TIERS],
    /// Rows scored in shadow, and how many of them agreed with the
    /// incumbent. Zero outside a rollout.
    pub shadow_rows: u64,
    pub shadow_agree_rows: u64,
    /// Shadow rows dropped because the mirrored execution panicked.
    pub shadow_skipped_rows: u64,
    pub hist: HistogramSnapshot,
}

impl ModelSnapshot {
    /// Live shadow agreement ratio, when any shadow rows were scored.
    pub fn shadow_agreement(&self) -> Option<f64> {
        (self.shadow_rows > 0).then(|| self.shadow_agree_rows as f64 / self.shadow_rows as f64)
    }
}

#[derive(Debug)]
struct TelemetryInner {
    epoch: Instant,
    coalesce: Arc<CoalesceStats>,
    endpoints: [EndpointStats; Endpoint::COUNT],
    models: RwLock<HashMap<String, Arc<ModelStats>>>,
    recent: Mutex<VecDeque<Event>>,
    log: Option<EventLog>,
}

/// The process-wide telemetry handle. Clone freely; all clones share one
/// set of counters.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Telemetry {
    fn build(log: Option<EventLog>) -> Telemetry {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                epoch: Instant::now(),
                coalesce: Arc::new(CoalesceStats::default()),
                endpoints: std::array::from_fn(|_| EndpointStats::default()),
                models: RwLock::new(HashMap::new()),
                recent: Mutex::new(VecDeque::with_capacity(EVENT_RING)),
                log,
            }),
        }
    }

    /// Metrics only — events stay in the in-memory ring. What tests and
    /// embedded uses want.
    pub fn in_memory() -> Telemetry {
        Telemetry::build(None)
    }

    /// Metrics plus a durable event log under `dir` (created on demand,
    /// torn tail recovered).
    pub fn with_event_log(dir: &std::path::Path) -> Result<Telemetry> {
        Ok(Telemetry::build(Some(EventLog::open(dir)?)))
    }

    /// The coalescer counter block this telemetry owns. Hand the same
    /// `Arc` to [`Coalescer::with_stats`](crate::coalesce::Coalescer::with_stats)
    /// so `/healthz`, `/v1/stats` and `/metrics` all read one source of
    /// truth.
    pub fn coalesce_stats(&self) -> Arc<CoalesceStats> {
        Arc::clone(&self.inner.coalesce)
    }

    /// The stats cell for one endpoint dimension.
    #[inline]
    pub fn endpoint(&self, e: Endpoint) -> &EndpointStats {
        &self.inner.endpoints[e.index()]
    }

    /// The serving cell for a model key, created on first contact. A
    /// predict resolves this once per request (or batch) and reuses the
    /// `Arc` for shard sizing, coalescing and accounting.
    pub fn model(&self, key: &str) -> Arc<ModelStats> {
        if let Some(cell) = self.inner.models.read().expect("model stats lock").get(key) {
            return Arc::clone(cell);
        }
        let mut map = self.inner.models.write().expect("model stats lock");
        if map.len() >= MODEL_CELLS_GC_THRESHOLD {
            // Drop cells nobody else holds *and* that recorded nothing:
            // stats for keys that were only probed. Cells with traffic are
            // kept so restarting clients cannot wipe history mid-scrape.
            // A leader with an open batch holds its cell, so no open lane
            // is ever dropped; a dropped cell's EWMA re-learns within a
            // few requests.
            map.retain(|_, cell| {
                Arc::strong_count(cell) > 1 || cell.requests.load(Ordering::Relaxed) > 0
            });
        }
        Arc::clone(map.entry(key.to_string()).or_default())
    }

    /// Milliseconds since this telemetry was created (the monotonic clock
    /// behind `last_hit_ms`).
    #[inline]
    pub fn now_ms(&self) -> u64 {
        self.inner.epoch.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    pub fn uptime(&self) -> Duration {
        self.inner.epoch.elapsed()
    }

    /// How long since `key` last served a predict — time since boot when it
    /// never has. This is what the auto-demoter compares against its idle
    /// threshold.
    pub fn idle_for(&self, key: &str) -> Duration {
        let now = self.now_ms();
        let last = self
            .inner
            .models
            .read()
            .expect("model stats lock")
            .get(key)
            .map(|cell| cell.last_hit_ms.load(Ordering::Relaxed));
        match last {
            Some(ms) if ms != NEVER => Duration::from_millis(now.saturating_sub(ms)),
            _ => Duration::from_millis(now),
        }
    }

    /// Appends an audit event: always into the in-memory ring, and onto
    /// the durable log when one is attached. Disk trouble is reported on
    /// stderr rather than propagated — telemetry must never fail the
    /// operation it is describing.
    pub fn record_event(&self, kind: EventKind, model: &str, detail: &str) {
        let event = Event::now(kind, model, detail);
        if let Some(log) = &self.inner.log {
            if let Err(e) = log.append(&event) {
                eprintln!("event log append failed: {e}");
            }
        }
        let mut ring = self.inner.recent.lock().expect("event ring lock");
        if ring.len() >= EVENT_RING {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// The in-memory event tail, oldest first.
    pub fn recent_events(&self) -> Vec<Event> {
        self.inner
            .recent
            .lock()
            .expect("event ring lock")
            .iter()
            .cloned()
            .collect()
    }

    /// The durable log, when attached.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.inner.log.as_ref()
    }

    /// Snapshots every endpoint dimension, in [`Endpoint::ALL`] order.
    pub fn endpoints_snapshot(&self) -> Vec<(Endpoint, EndpointSnapshot)> {
        Endpoint::ALL
            .iter()
            .map(|&e| (e, self.endpoint(e).snapshot()))
            .collect()
    }

    /// Snapshots every model cell, sorted by key for stable output.
    pub fn models_snapshot(&self) -> Vec<(String, ModelSnapshot)> {
        let mut rows: Vec<(String, ModelSnapshot)> = self
            .inner
            .models
            .read()
            .expect("model stats lock")
            .iter()
            .map(|(k, cell)| (k.clone(), cell.snapshot()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests::toy_artifact;
    use crate::coalesce::{CoalesceConfig, Coalescer, PendingPredict, Submitted};
    use crate::http::Responder;

    #[test]
    fn endpoint_classification_covers_the_api() {
        assert_eq!(Endpoint::of("/v1/predict"), Endpoint::Predict);
        assert_eq!(Endpoint::of("/metrics"), Endpoint::Metrics);
        assert_eq!(Endpoint::of("/nope"), Endpoint::Other);
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn model_cells_accumulate_and_survive_gc() {
        let t = Telemetry::in_memory();
        let cell = t.model("m@1");
        cell.record(Duration::from_millis(2), 3, true, t.now_ms());
        cell.record(Duration::from_millis(4), 1, false, t.now_ms());
        cell.observe(400.0);
        drop(cell);
        // A cell with no traffic yet whose lane a leader holds open: the
        // window is long and the batch flushes only when full, so the
        // follower below can only complete it by finding the same lane.
        let coalescer = Coalescer::new(CoalesceConfig {
            window: Duration::from_secs(10),
            max_rows: 2,
        });
        let artifact = Arc::new(toy_artifact("held", 1));
        let pending = |row: u32| {
            let (responder, rx) = Responder::direct_with_depth(2);
            let part = PendingPredict {
                rows: vec![row, row],
                start: Instant::now(),
                explain_tiers: false,
                responder,
                shadow: None,
            };
            (part, rx)
        };
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                let (part, _rx) = pending(0);
                coalescer.submit(&t.model("held@1"), &artifact, 2, part)
            });
            std::thread::sleep(Duration::from_millis(50));
            // Flood with probed-but-idle keys to trigger the GC sweep.
            for i in 0..(MODEL_CELLS_GC_THRESHOLD + 8) {
                t.model(&format!("ghost-{i}"));
            }
            let (part, _rx) = pending(1);
            assert!(
                matches!(
                    coalescer.submit(&t.model("held@1"), &artifact, 2, part),
                    Submitted::Joined
                ),
                "the open batch's cell survived the sweep"
            );
            let Submitted::Flush(batch) = leader.join().unwrap() else {
                panic!("leader must flush");
            };
            assert_eq!(batch.parts.len(), 2);
        });
        let rows = t.models_snapshot();
        assert!(
            rows.len() < MODEL_CELLS_GC_THRESHOLD,
            "the sweep ran: {} cells",
            rows.len()
        );
        let (_, snap) = rows.iter().find(|(k, _)| k == "m@1").expect("traffic kept");
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.merged_requests, 1);
        assert_eq!(snap.rows, 4);
        assert!(snap.last_hit_ms.is_some());
        // The trafficked cell kept its EWMA through the sweep.
        assert_eq!(t.model("m@1").ns_per_row(), Some(400.0));
    }

    #[test]
    fn model_cell_adapts_shard_size() {
        let t = Telemetry::in_memory();
        // Unobserved models use the library's fixed floor.
        assert_eq!(
            t.model("fresh@1").shard_rows(),
            hamlet_ml::any::MIN_ROWS_PER_SHARD
        );
        // A cheap model (100 ns/row) gets coarse shards near the target
        // budget; an expensive one (50 µs/row) gets the minimum.
        t.model("tree@1").observe(100.0);
        assert_eq!(t.model("tree@1").shard_rows(), 2500);
        let svm = t.model("svm@1");
        svm.observe(50_000.0);
        assert_eq!(svm.shard_rows(), MIN_ADAPTIVE_SHARD_ROWS);
        // Extremes clamp rather than explode.
        t.model("instant@1").observe(1e-3);
        assert_eq!(t.model("instant@1").shard_rows(), MAX_ADAPTIVE_SHARD_ROWS);
        // The EWMA tracks drift: after many fast observations a formerly
        // slow model's shards grow.
        for _ in 0..200 {
            svm.observe(1_000.0);
        }
        assert!(svm.shard_rows() > 200, "{}", svm.shard_rows());
        // Garbage observations are ignored.
        svm.observe(f64::NAN);
        svm.observe(-5.0);
        assert!(svm.ns_per_row().unwrap().is_finite());
    }

    #[test]
    fn idle_for_tracks_last_hit() {
        let t = Telemetry::in_memory();
        // Untouched key: idle since boot.
        let idle_unknown = t.idle_for("never@1");
        assert!(idle_unknown <= t.uptime() + Duration::from_millis(1));
        t.model("hot@1")
            .record(Duration::from_micros(50), 1, false, t.now_ms());
        assert!(t.idle_for("hot@1") < Duration::from_secs(1));
    }

    #[test]
    fn event_ring_is_bounded() {
        let t = Telemetry::in_memory();
        for i in 0..(EVENT_RING + 10) {
            t.record_event(EventKind::Drift, "m@1", &format!("e{i}"));
        }
        let tail = t.recent_events();
        assert_eq!(tail.len(), EVENT_RING);
        assert_eq!(tail.last().unwrap().detail, format!("e{}", EVENT_RING + 9));
        assert_eq!(tail.first().unwrap().detail, "e10");
    }
}
