//! # hamlet-serve
//!
//! The serving layer of the hamlet reproduction: turn trained classifiers
//! into *servable artifacts* and answer prediction/advisor traffic over
//! HTTP — the paper's operational decision ("skip the join before sourcing
//! the table") available at request time instead of only inside offline
//! experiment binaries.
//!
//! - [`artifact`] — versioned save/load of [`ModelArtifact`]s: an
//!   [`hamlet_ml::any::AnyClassifier`] plus its
//!   [`hamlet_core::feature_config::FeatureConfig`], input feature contract,
//!   star-schema fingerprint and training metrics;
//! - [`registry`] — a concurrent [`ModelRegistry`] keyed by
//!   `name@version`, warm-loaded from an artifact directory at boot.
//!   Bare-name (latest-version) resolution is **lock-free** — an
//!   [`swap::ArcSwapCell`] snapshot republished on registration — so the
//!   predict hot path never contends with writers; pinned versions and
//!   mutations use the `RwLock` index;
//! - [`coalesce`] — cross-request predict coalescing: concurrent small
//!   `/v1/predict` requests against one model merge into a single sharded
//!   fan-out at the executor boundary, with bit-identical responses;
//! - [`http`] — a hand-rolled, event-driven HTTP/1.1 server on `std::net`:
//!   one [`reactor`] thread multiplexes every connection over raw `epoll`
//!   (direct syscall FFI — no async runtime, no external crates), each
//!   connection an explicit state machine ([`conn`]) with keep-alive on by
//!   default, and a fixed executor pool running the handlers;
//! - [`server`] — the endpoints:
//!
//! | endpoint | purpose |
//! |---|---|
//! | `POST /v1/predict` | batch of categorical rows → labels (+ latency) |
//! | `POST /v1/explain` | coded rows → their raw label strings (contract decode) |
//! | `POST /v1/advise`  | star-schema stats → join-avoidance verdicts |
//! | `POST /v1/train`   | train spec → runs the experiment pipeline, persists + registers |
//! | `GET /v1/models`   | registry listing |
//! | `POST /v1/models/demote` | return a promoted old version to its lazy slot |
//! | `POST /v1/observe` | labeled production rows → crash-safe observe buffer |
//! | `POST /v1/rollout/start` | put a candidate version into shadow (or warm-start refresh one) |
//! | `GET /v1/rollout/status` | rollout state machine + drift counters |
//! | `POST /v1/rollout/abort` | abandon the in-flight rollout |
//! | `GET /healthz`     | liveness + model count + coalescer counters |
//! | `GET /v1/stats`    | per-model/per-endpoint latency percentiles, counters, event tail |
//! | `GET /metrics`     | Prometheus text exposition of the same telemetry |
//!
//! - [`train`] — the train-to-artifact pipeline shared by `/v1/train` and
//!   the `hamlet-serve` CLI (`train` / `serve` subcommands), plus the
//!   warm-start incremental refresh feeding rollouts from observed rows;
//! - [`rollout`] — the safe-rollout plane: shadow/canary state machine
//!   with guardrailed auto-promote and auto-rollback, a journaled state
//!   log that survives restarts, the bounded crash-safe observe buffer,
//!   and the drift advisor that re-runs the paper's avoid-join decision
//!   rule over live labeled traffic.
//!
//! ## Quickstart
//!
//! ```bash
//! # Train a decision tree on the Movies-shaped emulator, NoJoin features:
//! cargo run --release --bin hamlet-serve -- train \
//!     --name movies-tree --dataset movies --spec TreeGini --dir artifacts
//!
//! # Boot the server (warm-loads artifacts/):
//! cargo run --release --bin hamlet-serve -- serve --dir artifacts --addr 127.0.0.1:8080
//!
//! # Ask for predictions and advice:
//! curl -s localhost:8080/healthz
//! curl -s -X POST localhost:8080/v1/predict \
//!     -d '{"model":"movies-tree","rows":[[0,1,2]]}'
//! curl -s -X POST localhost:8080/v1/advise \
//!     -d '{"family":"TreeOrAnn","n_train":6000,
//!          "dims":[{"name":"users","n_rows":2400,"open_domain":false}]}'
//! ```
//!
//! [`ModelArtifact`]: artifact::ModelArtifact
//! [`ModelRegistry`]: registry::ModelRegistry

pub mod api;
pub mod artifact;
pub mod coalesce;
mod conn;
pub mod container;
pub mod diff;
pub mod error;
pub mod http;
mod reactor;
pub mod registry;
pub mod rollout;
pub mod server;
pub mod swap;
pub mod telemetry;
pub mod train;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::api::{
        AdviseRequest, AdviseResponse, DemoteRequest, ExplainRequest, ExplainResponse, Health,
        ModelsResponse, ObserveRequest, ObserveResponse, PredictRequest, PredictResponse,
        RolloutStartRequest, RolloutStatusResponse, TrainRequest, TrainResponse,
    };
    pub use crate::artifact::{
        ArtifactHead, LoadMode, ModelArtifact, TrainingMetadata, FORMAT_VERSION,
    };
    pub use crate::coalesce::{CoalesceConfig, CoalesceSnapshot, Coalescer};
    pub use crate::error::{Result as ServeResult, ServeError};
    pub use crate::http::{Responder, Server, ServerOptions, StopHandle};
    pub use crate::registry::{ModelRegistry, ModelSummary};
    pub use crate::rollout::{
        GuardrailConfig, ObserveStore, ObservedRow, Phase, RolloutPlane, RolloutSnapshot,
    };
    pub use crate::server::{router, serve, serve_with, AppState, WarmOptions};
    pub use crate::telemetry::{Endpoint, Event, EventKind, EventLog, Telemetry};
    pub use crate::train::{resolve_dataset, train_and_register, train_incremental, DATASETS};
}
