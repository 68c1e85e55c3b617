//! End-to-end benchmark for hamlet. See `README.md` in this directory for
//! the workloads, the metrics and how to run it.
//!
//! - [`stats`] — nearest-rank percentiles and open-loop accounting;
//! - [`trace`] — in-memory spans and per-layer self time;
//! - [`fixture`] — seeded workloads: model plans and request bodies;
//! - [`client`] — the keep-alive HTTP client and the load generator;
//! - [`host`] — the server process, `/proc` readers and the host record.

pub mod client;
pub mod fixture;
pub mod host;
pub mod stats;
pub mod trace;
