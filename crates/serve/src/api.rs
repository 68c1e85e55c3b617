//! Request/response shapes of the HTTP API (all JSON).

use hamlet_core::advisor::{AdvisorReport, DimStats};
use hamlet_core::experiment::RunResult;
use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::{ModelFamily, ModelSpec};

use crate::registry::ModelSummary;

/// `POST /v1/predict` — a batch of categorical rows for one model.
/// Exactly one of `rows` (pre-encoded codes) and `rows_raw` (raw label
/// strings, dictionary-encoded server-side against the artifact's contract)
/// must be supplied.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PredictRequest {
    /// Registry name (`model-name`) or pinned key (`model-name@3`).
    pub model: String,
    /// Rows of categorical codes; every row must match the model's feature
    /// contract (width and per-feature cardinality).
    pub rows: Option<Vec<Vec<u32>>>,
    /// Rows of raw label strings; the server encodes them against the
    /// model's domains, mapping labels unseen at training time to the
    /// `Others` slot on open domains and rejecting them (400) on closed
    /// ones. Requires a contract with dictionaries.
    pub rows_raw: Option<Vec<Vec<String>>>,
}

/// `POST /v1/predict` response.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PredictResponse {
    /// The exact artifact that answered (`name@version`).
    pub model: String,
    /// One label per input row.
    pub labels: Vec<bool>,
    /// Cascade artifacts only: the tier that answered each row (0 = the
    /// cheap front tier). Absent (`null`) for single-model artifacts.
    pub tiers: Option<Vec<u8>>,
    /// With `?explain_tiers=1` on a cascade artifact: the calibrated
    /// confidence of the answering tier, per row. Absent otherwise.
    pub tier_confidence: Option<Vec<f64>>,
    /// Server-side latency of validation + prediction, in milliseconds.
    pub latency_ms: f64,
}

/// `POST /v1/explain` — decode coded rows back to raw label strings
/// against the model's dictionaries (the inverse of `rows_raw` ingest).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ExplainRequest {
    /// Registry name (`model-name`) or pinned key (`model-name@3`).
    pub model: String,
    /// Rows of categorical codes to decode; every code must be inside its
    /// feature's domain.
    pub rows: Vec<Vec<u32>>,
}

/// `POST /v1/explain` response.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ExplainResponse {
    /// The exact artifact whose contract decoded the rows (`name@version`).
    pub model: String,
    /// One label string per input code, row-aligned with the request.
    pub rows_raw: Vec<Vec<String>>,
}

/// `POST /v1/advise` — star-schema statistics for a sourcing decision.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AdviseRequest {
    /// Model family whose tuple-ratio threshold applies.
    pub family: ModelFamily,
    /// Labelled training examples available.
    pub n_train: usize,
    /// Per-dimension statistics (name, `n_R`, open-domain flag).
    pub dims: Vec<DimStats>,
}

/// `POST /v1/advise` response: the advisor report, verbatim from
/// `hamlet_core::advisor::advise_dims`.
pub type AdviseResponse = AdvisorReport;

/// `POST /v1/train` — train on an emulated dataset and register the result.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TrainRequest {
    /// Registry name for the new artifact.
    pub name: String,
    /// Dataset: a Table-1 emulator (`movies`, `yelp`, `walmart`, `expedia`,
    /// `lastfm`, `books`, `flights`) or the `onexr` simulation scenario.
    pub dataset: String,
    /// Model to tune (paper spec).
    pub spec: ModelSpec,
    /// Feature configuration (defaults to `NoJoin` — the paper's verdict).
    pub config: Option<FeatureConfig>,
    /// Target total labelled examples for the emulator (default 2000).
    pub scale: Option<usize>,
    /// Generator seed (default 7).
    pub seed: Option<u64>,
    /// Use the full paper grids instead of the quick budget (default false;
    /// full grids are minutes, quick is seconds).
    pub full_budget: Option<bool>,
}

/// `POST /v1/train` response.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TrainResponse {
    /// Key the artifact was registered under.
    pub key: String,
    /// Where the artifact was persisted.
    pub path: String,
    /// Training metrics.
    pub metrics: RunResult,
    /// Schema fingerprint of the generated star.
    pub schema_fingerprint: u64,
}

/// `GET /v1/models` response.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ModelsResponse {
    /// One row per registered artifact.
    pub models: Vec<ModelSummary>,
}

/// `POST /v1/models/demote` — return a promoted non-latest version to its
/// lazy (header-only) slot, releasing its payload memory. Responds with
/// the updated [`ModelSummary`] (`resident: false` on success); the latest
/// version of a name refuses with a 400.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DemoteRequest {
    /// Exact pinned key `name@version` to demote.
    pub key: String,
}

/// `GET /healthz` response.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Health {
    /// Always `"ok"` when the server can answer at all.
    pub status: String,
    /// Registered model count.
    pub models: usize,
    /// Cross-request predict coalescer counters.
    pub coalesce: crate::coalesce::CoalesceSnapshot,
}

/// `GET /v1/stats` response: the telemetry snapshot.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StatsResponse {
    /// Seconds since the server booted.
    pub uptime_secs: f64,
    /// Registered model versions (resident or lazy).
    pub models_registered: usize,
    /// Versions currently resident in memory.
    pub models_resident: usize,
    /// SIMD kernel dispatch tier selected at startup (`avx2`, `sse2`, or
    /// `scalar`; `scalar` also when forced via `HAMLET_FORCE_SCALAR`).
    pub kernel_backend: String,
    /// One row per endpoint dimension, fixed order.
    pub endpoints: Vec<EndpointStatsRow>,
    /// One row per model key that has seen predict traffic, sorted by key.
    pub models: Vec<ModelStatsRow>,
    /// Cross-request predict coalescer counters (same source `/healthz`
    /// reports).
    pub coalesce: crate::coalesce::CoalesceSnapshot,
    /// Tail of recent audit events (the durable log keeps full history).
    pub events: Vec<crate::telemetry::Event>,
    /// Rollout-plane state machine counters (same body as
    /// `GET /v1/rollout/status`).
    pub rollout: RolloutStatusResponse,
}

/// Per-endpoint stats row in [`StatsResponse`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EndpointStatsRow {
    pub endpoint: String,
    pub requests: u64,
    pub errors: u64,
    /// Latency percentiles in milliseconds; absent until the endpoint has
    /// seen traffic.
    pub p50_ms: Option<f64>,
    pub p99_ms: Option<f64>,
    pub p999_ms: Option<f64>,
    /// Of the errors, 500s caused by a contained executor panic (tracked
    /// distinctly so a panicking model is tellable from bad requests).
    pub panics: u64,
}

/// Per-model stats row in [`StatsResponse`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ModelStatsRow {
    /// Pinned key `name@version`.
    pub model: String,
    /// Weight-tensor storage encoding (`f32`/`i8`); absent when the
    /// version has since been deleted from the registry.
    pub encoding: Option<String>,
    /// Predict requests answered by this version.
    pub requests: u64,
    /// Of those, requests that rode a merged (≥ 2 participant) batch.
    pub merged_requests: u64,
    /// Data rows classified.
    pub rows: u64,
    /// Latency stats in milliseconds; absent until the model has traffic.
    pub mean_ms: Option<f64>,
    pub p50_ms: Option<f64>,
    pub p99_ms: Option<f64>,
    pub p999_ms: Option<f64>,
    /// Seconds since the last predict hit; absent when never hit.
    pub idle_secs: Option<f64>,
    /// Cascade artifacts only: rows answered per tier (index = tier,
    /// trimmed after the deepest tier that saw traffic). Absent for
    /// single-model artifacts and cascades with no traffic yet.
    pub cascade_tier_rows: Option<Vec<u64>>,
    /// Cascade artifacts only: fraction of served rows that escalated past
    /// tier 0 (lower = the cheap tier short-circuits more).
    pub cascade_escalation_ratio: Option<f64>,
    /// Shadow-scored mirrored rows (rollout candidates only).
    pub shadow_rows: Option<u64>,
    /// Fraction of shadow-scored rows agreeing with the incumbent; absent
    /// until mirrored traffic arrives.
    pub shadow_agreement: Option<f64>,
    /// Mirrored rows skipped because their execution panicked.
    pub shadow_skipped_rows: Option<u64>,
}

/// `POST /v1/observe` — stream labeled production rows into the rollout
/// plane's observe buffer. They feed the drift advisor (the paper's
/// avoid-join decision rule re-run on live FK cardinalities) and
/// warm-start incremental refreshes.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ObserveRequest {
    /// Registry name (`model-name`) or pinned key (`model-name@3`); rows
    /// are buffered under the bare name either way.
    pub model: String,
    /// Rows of categorical codes, validated against the model's contract
    /// exactly like `/v1/predict` input.
    pub rows: Vec<Vec<u32>>,
    /// Observed ground-truth label per row, row-aligned with `rows`.
    pub labels: Vec<bool>,
}

/// `POST /v1/observe` response.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ObserveResponse {
    /// Bare name the rows were buffered under.
    pub model: String,
    /// Rows accepted by this request.
    pub accepted: usize,
    /// Rows currently buffered for the name (bounded ring).
    pub buffered: usize,
}

/// `POST /v1/rollout/start` — put a candidate version into shadow.
/// Exactly one of `candidate` and `refresh` must be supplied.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RolloutStartRequest {
    /// Existing registered key (`name@version`) to roll out.
    pub candidate: Option<String>,
    /// Instead: a bare model name — warm-start refresh it on the observe
    /// buffer (`train_incremental`, SGD-family models only) and roll out
    /// the resulting candidate.
    pub refresh: Option<String>,
    /// Canary traffic slice percent (defaults to the server's
    /// `--canary-slice`).
    pub slice: Option<u8>,
}

/// `GET /v1/rollout/status`, `POST /v1/rollout/{start,abort}` response.
pub type RolloutStatusResponse = crate::rollout::RolloutSnapshot;

/// Error envelope used by every non-2xx response.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ApiError {
    /// Human-readable description.
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_json() {
        let req = PredictRequest {
            model: "m@1".into(),
            rows: Some(vec![vec![0, 1], vec![2, 3]]),
            rows_raw: None,
        };
        let text = serde_json::to_string(&req).unwrap();
        let back: PredictRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back.model, "m@1");
        assert_eq!(back.rows, Some(vec![vec![0, 1], vec![2, 3]]));
        assert_eq!(back.rows_raw, None);

        // A pre-rows_raw client payload (no such key) still parses, and a
        // raw-label payload parses without `rows`.
        let old: PredictRequest = serde_json::from_str("{\"model\":\"m\",\"rows\":[[0]]}").unwrap();
        assert_eq!(old.rows, Some(vec![vec![0]]));
        assert!(old.rows_raw.is_none());
        let raw: PredictRequest =
            serde_json::from_str("{\"model\":\"m\",\"rows_raw\":[[\"v0\",\"x\"]]}").unwrap();
        assert!(raw.rows.is_none());
        assert_eq!(raw.rows_raw, Some(vec![vec!["v0".into(), "x".into()]]));

        let adv: AdviseRequest = serde_json::from_str(
            "{\"family\":\"TreeOrAnn\",\"n_train\":100,\
             \"dims\":[{\"name\":\"users\",\"n_rows\":40,\"open_domain\":false}]}",
        )
        .unwrap();
        assert_eq!(adv.family, ModelFamily::TreeOrAnn);
        assert_eq!(adv.dims[0].n_rows, 40);
    }

    #[test]
    fn train_request_optionals_default_via_null() {
        let req: TrainRequest =
            serde_json::from_str("{\"name\":\"m\",\"dataset\":\"movies\",\"spec\":\"TreeGini\"}")
                .unwrap();
        assert!(req.config.is_none());
        assert!(req.scale.is_none());
        assert_eq!(req.spec, ModelSpec::TreeGini);
    }
}
