//! The resident experiment service: exact result caching and a thin
//! server/client pair over the experiment cell pipeline.
//!
//! The repository's determinism guarantee (`tests/parallel_determinism.rs`:
//! cell outputs are byte-identical at any worker count) makes an experiment
//! cell a *pure function* of its specification. This crate exploits that
//! three ways:
//!
//! * [`CellSpec`] — the canonical, hashable identity of one cell:
//!   `(bench, placement, engine, scale, seed, variant, config fingerprint,
//!   code version)`. Its stable serialization is the cache key; two cells
//!   with equal specs have byte-identical results, so a cache hit is
//!   *exact*, not approximate.
//! * [`Cache`] — a content-addressed on-disk result store under
//!   `results/cache/`: atomic write-rename publication, an integrity hash
//!   over the stored payload bytes, hit/miss/corruption statistics, and
//!   `gc` by age and total size.
//! * [`Server`]/[`Client`] — a JSONL-over-TCP protocol on `127.0.0.1`: a
//!   resident server owns one long-lived [`exec::ResidentPool`], accepts
//!   batches of specs from concurrent clients, dedupes identical cached
//!   *and in-flight* cells, and streams per-cell results plus progress
//!   events back. The client degrades gracefully: when no server listens,
//!   callers fall back to in-process execution.
//!
//! The crate is domain-agnostic: payloads are [`obs::json::Value`]s and
//! the server is handed an opaque *compute* function. The `xp` crate binds
//! the domain — building specs from experiment grids, reconstructing run
//! configurations from specs, and encoding/decoding `RunResult`s.

#![deny(missing_docs)]

pub mod cache;
pub mod hash;
pub mod proto;
pub mod server;
pub mod spec;
pub mod telemetry;

pub use cache::{Cache, CacheStatsSnapshot, GcOutcome, ScanReport, VerifyOutcome};
pub use proto::Client;
pub use server::{Compute, Server};
pub use spec::CellSpec;
pub use telemetry::{RequestRecord, Telemetry, TraceCtx};

/// Default TCP port of `xp serve` (`127.0.0.1` only).
pub const DEFAULT_PORT: u16 = 46137;

/// Protocol schema tag sent in the server's hello event. The major (the
/// integer before the dot-less `v`..) gates compatibility: a client that
/// reads a different major falls back to local execution. Minor 1 added
/// the `metrics`/`log` ops and the per-frame trace context; minor 2 folded
/// the `stats` op into `metrics` (which carries every number it did), so
/// the ops are `run`, `ping`, `metrics`, `log` and `shutdown`. Trace-less
/// v1.0 frames of those ops interoperate unchanged.
pub const PROTO_SCHEMA: &str = "ddnomp-svc v1.2";

/// Schema tag of the `metrics` op's JSON response body.
pub const METRICS_SCHEMA: &str = "ddnomp-metrics v1";
