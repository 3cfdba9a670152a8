//! Service telemetry: trace contexts on protocol frames, process-lifetime
//! metrics, and a bounded ring of structured request-log records.
//!
//! This module is the substrate behind the `metrics` and `log` protocol
//! ops, the server's one window. It layers thread safety over
//! [`obs::MetricsRegistry`] (whose mutating API is `&mut`): counters and
//! histograms live behind one mutex, taken once per request — request
//! handling is milliseconds-to-minutes, so a microsecond of lock traffic
//! is noise.
//!
//! Naming follows the registry's `component.detail` convention:
//! `svc.requests.<op>.<outcome>` counters, `svc.cells.*` per-cell
//! counters, `svc.*_us` microsecond histograms. Scrape-time gauges
//! (queue depth, cache size, in-flight cells) are *not* stored here —
//! the server computes them fresh per `metrics` request and merges them
//! into the snapshot, so the registry never holds stale point-in-time
//! values.

use obs::json::Value;
use obs::metrics::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Capacity of the request-log ring: old records are dropped once this
/// many are retained.
pub const LOG_CAP: usize = 256;

/// The trace context carried on every protocol frame: a request's
/// process-crossing identity. The client mints one per request; the
/// server threads it through the connection thread, the in-flight table,
/// and the resident-pool worker, naming its hostprof spans after the
/// trace id so one request's life is a single reconstructible span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCtx {
    /// 16-hex-digit trace id, shared by every span of one request.
    pub trace_id: String,
    /// The sender's span id, the parent of whatever the receiver opens.
    pub span_id: u64,
}

/// Monotone span-id source for [`TraceCtx::fresh`].
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

impl TraceCtx {
    /// Mint a fresh root context: a new trace id (hashed from process id,
    /// wall clock, and a process-monotone counter) with span id 1.
    pub fn fresh() -> TraceCtx {
        let n = NEXT_TRACE.fetch_add(1, Relaxed);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let seed = format!("{}:{}:{}", std::process::id(), n, nanos);
        TraceCtx {
            trace_id: crate::hash::digest64(seed.as_bytes()),
            span_id: 1,
        }
    }

    /// A child context: same trace, the given span id as the new parent.
    pub fn child(&self, span_id: u64) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id.clone(),
            span_id,
        }
    }

    /// The wire form: `{"trace_id": "...", "span_id": N}`.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("trace_id", self.trace_id.as_str().into()),
            ("span_id", self.span_id.into()),
        ])
    }

    /// Parse the wire form; `None` when the value is not a trace object
    /// (raw-protocol clients simply send no trace).
    pub fn from_json(v: &Value) -> Option<TraceCtx> {
        Some(TraceCtx {
            trace_id: v.get("trace_id")?.as_str()?.to_string(),
            span_id: v.get("span_id").and_then(Value::as_u64).unwrap_or(0),
        })
    }
}

/// One finished request, as recorded into the counters and the log ring.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// The request's trace id.
    pub trace_id: String,
    /// Protocol op (`run`, `ping`, ... or `bad`/`unknown` for frames that
    /// never resolved to an op).
    pub op: &'static str,
    /// Whether the request succeeded (`run`: no cell errored).
    pub ok: bool,
    /// One human line: the run summary or the error message.
    pub detail: String,
    /// End-to-end seconds from frame receipt to last byte streamed.
    pub wall_secs: f64,
}

struct LogRing {
    next_seq: u64,
    records: VecDeque<Value>,
}

/// Thread-safe, process-lifetime telemetry for one server.
pub struct Telemetry {
    registry: Mutex<MetricsRegistry>,
    log: Mutex<LogRing>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An empty telemetry store.
    pub fn new() -> Telemetry {
        Telemetry {
            registry: Mutex::new(MetricsRegistry::new()),
            log: Mutex::new(LogRing {
                next_seq: 0,
                records: VecDeque::new(),
            }),
        }
    }

    /// Bump a counter.
    pub fn inc(&self, name: &'static str, delta: u64) {
        self.registry.lock().unwrap().inc(name, delta);
    }

    /// Record one microsecond sample into a histogram.
    pub fn observe_us(&self, name: &'static str, us: u64) {
        self.registry.lock().unwrap().observe(name, us);
    }

    /// Record one finished request: the per-op/outcome counter, the
    /// end-to-end latency histograms, and a log-ring record.
    pub fn request(&self, record: RequestRecord) {
        let us = (record.wall_secs * 1e6) as u64;
        {
            let mut reg = self.registry.lock().unwrap();
            reg.inc(op_counter(record.op, record.ok), 1);
            reg.observe("svc.request_us", us);
            if record.op == "run" {
                reg.observe("svc.run_us", us);
            }
        }
        let mut log = self.log.lock().unwrap();
        let seq = log.next_seq;
        log.next_seq += 1;
        log.records.push_back(Value::object(vec![
            ("seq", seq.into()),
            ("trace_id", record.trace_id.as_str().into()),
            ("op", record.op.into()),
            ("ok", record.ok.into()),
            ("detail", record.detail.as_str().into()),
            ("wall_secs", record.wall_secs.into()),
        ]));
        while log.records.len() > LOG_CAP {
            log.records.pop_front();
        }
    }

    /// A clone of the whole registry — the base a `metrics` response
    /// merges its scrape-time gauges into.
    pub fn registry(&self) -> MetricsRegistry {
        self.registry.lock().unwrap().clone()
    }

    /// The newest `n` request-log records, oldest first.
    pub fn log_tail(&self, n: usize) -> Vec<Value> {
        let log = self.log.lock().unwrap();
        let skip = log.records.len().saturating_sub(n);
        log.records.iter().skip(skip).cloned().collect()
    }
}

/// The static counter name for one `(op, outcome)` pair. Ops outside the
/// protocol's vocabulary land in the `other` family, keeping the registry
/// keyed by `&'static str` without leaking client-controlled strings into
/// metric names.
pub fn op_counter(op: &str, ok: bool) -> &'static str {
    match (op, ok) {
        ("run", true) => "svc.requests.run.ok",
        ("run", false) => "svc.requests.run.error",
        ("ping", true) => "svc.requests.ping.ok",
        ("ping", false) => "svc.requests.ping.error",
        ("metrics", true) => "svc.requests.metrics.ok",
        ("metrics", false) => "svc.requests.metrics.error",
        ("log", true) => "svc.requests.log.ok",
        ("log", false) => "svc.requests.log.error",
        ("shutdown", true) => "svc.requests.shutdown.ok",
        ("shutdown", false) => "svc.requests.shutdown.error",
        ("bad", _) => "svc.requests.bad.error",
        ("unknown", _) => "svc.requests.unknown.error",
        (_, true) => "svc.requests.other.ok",
        (_, false) => "svc.requests.other.error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_trace_ids_are_distinct_and_well_formed() {
        let a = TraceCtx::fresh();
        let b = TraceCtx::fresh();
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a.trace_id.len(), 16);
        assert!(a.trace_id.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(a.span_id, 1);
    }

    #[test]
    fn trace_ctx_round_trips_through_json() {
        let ctx = TraceCtx::fresh().child(7);
        let back = TraceCtx::from_json(&ctx.to_json()).unwrap();
        assert_eq!(back, ctx);
        assert_eq!(TraceCtx::from_json(&Value::Null), None);
        // A trace object without a span id still parses (span 0 = unknown).
        let partial = Value::object(vec![("trace_id", "abcd".into())]);
        assert_eq!(TraceCtx::from_json(&partial).unwrap().span_id, 0);
    }

    #[test]
    fn requests_feed_counters_histograms_and_the_log() {
        let t = Telemetry::new();
        t.request(RequestRecord {
            trace_id: "aaaa".into(),
            op: "run",
            ok: true,
            detail: "3 cells".into(),
            wall_secs: 0.002,
        });
        t.request(RequestRecord {
            trace_id: "bbbb".into(),
            op: "ping",
            ok: true,
            detail: String::new(),
            wall_secs: 0.0001,
        });
        let reg = t.registry();
        assert_eq!(reg.counter("svc.requests.run.ok"), 1);
        assert_eq!(reg.counter("svc.requests.ping.ok"), 1);
        assert_eq!(reg.histogram("svc.request_us").unwrap().count(), 2);
        assert_eq!(reg.histogram("svc.run_us").unwrap().count(), 1);
        let tail = t.log_tail(10);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0]["op"].as_str(), Some("run"));
        assert_eq!(tail[1]["trace_id"].as_str(), Some("bbbb"));
    }

    #[test]
    fn log_ring_is_bounded_and_keeps_the_newest() {
        let t = Telemetry::new();
        for i in 0..(LOG_CAP + 10) {
            t.request(RequestRecord {
                trace_id: format!("{i:04x}"),
                op: "ping",
                ok: true,
                detail: String::new(),
                wall_secs: 0.0,
            });
        }
        let tail = t.log_tail(LOG_CAP * 2);
        assert_eq!(tail.len(), LOG_CAP);
        assert_eq!(tail[0]["seq"].as_u64(), Some(10));
        assert_eq!(
            tail.last().unwrap()["seq"].as_u64(),
            Some(LOG_CAP as u64 + 9)
        );
        // A short tail returns the newest slice, oldest first.
        let last3 = t.log_tail(3);
        assert_eq!(last3.len(), 3);
        assert_eq!(last3[0]["seq"].as_u64(), Some(LOG_CAP as u64 + 7));
    }

    #[test]
    fn unknown_ops_map_to_the_other_family() {
        assert_eq!(op_counter("frobnicate", true), "svc.requests.other.ok");
        assert_eq!(op_counter("bad", false), "svc.requests.bad.error");
    }
}
