//! The perf ledger: host-time benchmark of the ddnomp crates, driven
//! through their public functions only. See `README.md` for the workloads,
//! the metric glossary and how the numbers are meant to interact.

pub mod compare;
pub mod metrics;
pub mod ops;
pub mod run;
pub mod rungs;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod sweep;
