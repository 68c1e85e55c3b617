//! # hamlet-datagen
//!
//! Workload generators for the VLDB 2017 study "Are Key-Foreign Key Joins
//! Safe to Avoid when Learning High-Capacity Classifiers?":
//!
//! - [`onexr`] — Scenario `OneXr` (§4.1): a lone foreign feature drives the
//!   target; the known worst case for avoiding joins. Supports FK skew
//!   ([`skew::FkSkew`]) and hidden-FK fractions for smoothing experiments.
//! - [`xsxr`] — Scenario `XSXR` (§4.2): a noise-free true probability table
//!   over the full feature vector.
//! - [`reponexr`] — Scenario `RepOneXr` (§4.3): the driving feature
//!   replicated across all foreign features.
//! - [`emulate`] — synthetic stand-ins for the seven real datasets of
//!   Table 1, preserving schema shape and every tuple ratio (see
//!   `REPRODUCTION.md`, "Emulated datasets", for the substitution argument).
//!
//! All generators return a [`sim::GeneratedStar`]: a validated
//! [`hamlet_relation::star::StarSchema`] plus the paper's train/validation/
//! test split boundaries. Everything is seeded and reproducible.

pub mod emulate;
pub mod onexr;
pub mod reponexr;
pub mod sim;
pub mod skew;
pub mod xsxr;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::emulate::{DimSpec, EmulatorSpec, DEFAULT_TARGET_N_S};
    pub use crate::onexr::{self, OneXrParams};
    pub use crate::reponexr::{self, RepOneXrParams};
    pub use crate::sim::{sim_split_sizes, GeneratedStar};
    pub use crate::skew::{FkSkew, SkewSampler};
    pub use crate::xsxr::{self, XsXrParams};
}
