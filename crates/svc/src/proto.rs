//! The thin client side of the JSONL-over-TCP protocol.
//!
//! A [`Client`] holds an address; each operation opens one connection,
//! checks the server's hello (schema major **and** code version must
//! match — a stale server must never answer for a rebuilt binary), sends
//! one request line, and consumes the event stream. Connection or
//! handshake failure is an `Err(String)` the caller treats as "no usable
//! server": `xp` falls back to in-process execution, so a missing or
//! mismatched server degrades to exactly the offline behaviour.

use crate::spec::CellSpec;
use crate::telemetry::TraceCtx;
use obs::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How one cell's result was obtained, per the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Served from the on-disk cache.
    Cache,
    /// Computed on the server's resident pool for this request.
    Computed,
    /// Joined onto a computation another request owned.
    Inflight,
}

impl CellSource {
    fn parse(s: &str) -> CellSource {
        match s {
            "cache" => CellSource::Cache,
            "inflight" => CellSource::Inflight,
            _ => CellSource::Computed,
        }
    }
}

/// One cell's outcome as reported by the server.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's result payload, or the server's error message.
    pub result: Result<Value, String>,
    /// Where the result came from.
    pub source: CellSource,
    /// Wall seconds the cell ran on the server (0 for cache/joined).
    pub wall_secs: f64,
}

/// Batch-level progress, forwarded to the caller's callback as the
/// server streams it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunProgress {
    /// Cells finished so far.
    pub done: u64,
    /// Cells in the batch.
    pub total: u64,
    /// Finished cells served from the cache.
    pub hits: u64,
    /// Finished cells computed for this request.
    pub computed: u64,
    /// Finished cells joined from other requests.
    pub joined: u64,
}

/// A client of one `xp serve` instance.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    code_version: String,
}

impl Client {
    /// A client for the server at `addr` (e.g. `127.0.0.1:46137`),
    /// speaking for a binary at `code_version`.
    pub fn new(addr: &str, code_version: &str) -> Client {
        Client {
            addr: addr.to_string(),
            code_version: code_version.to_string(),
        }
    }

    /// The server address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Open a connection and validate the hello. `Err` means "no usable
    /// server" — unreachable, foreign protocol, or a different code
    /// version — and the caller should fall back to local execution.
    fn connect(&self) -> Result<(BufReader<TcpStream>, TcpStream), String> {
        let stream = TcpStream::connect_timeout(
            &self
                .addr
                .parse()
                .map_err(|e| format!("bad server address '{}': {e}", self.addr))?,
            Duration::from_millis(500),
        )
        .map_err(|e| format!("no server at {}: {e}", self.addr))?;
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cloning stream: {e}"))?,
        );
        let hello = read_event(&mut reader)?;
        if hello["event"] != "hello" {
            return Err(format!("expected hello, got {hello}"));
        }
        let schema = hello["schema"].as_str().unwrap_or("<none>");
        if major_of(schema) != major_of(crate::PROTO_SCHEMA) {
            return Err(format!(
                "protocol mismatch: server speaks '{schema}', client '{}'",
                crate::PROTO_SCHEMA
            ));
        }
        let server_code = hello["code_version"].as_str().unwrap_or("<none>");
        if server_code != self.code_version {
            return Err(format!(
                "code version mismatch: server {server_code}, client {}",
                self.code_version
            ));
        }
        Ok((reader, stream))
    }

    /// True when a compatible server answers at the address.
    pub fn ping(&self) -> bool {
        let request = Value::object(vec![
            ("op", "ping".into()),
            ("trace", TraceCtx::fresh().to_json()),
        ]);
        self.one_shot(request, "pong").is_ok()
    }

    /// Run a batch of cells on the server. Returns outcomes in spec
    /// order; `progress` observes the stream as it arrives. The request
    /// carries a fresh [`TraceCtx`] — the server names its spans after
    /// the trace id and echoes it in the `done` event, so one request is
    /// one reconstructible span tree in the server's Perfetto export.
    pub fn run_cells(
        &self,
        specs: &[CellSpec],
        mut progress: impl FnMut(&RunProgress),
    ) -> Result<Vec<CellOutcome>, String> {
        let (mut reader, mut stream) = self.connect()?;
        let request = Value::object(vec![
            ("op", "run".into()),
            ("trace", TraceCtx::fresh().to_json()),
            (
                "cells",
                Value::Array(specs.iter().map(CellSpec::to_json).collect()),
            ),
        ]);
        send(&mut stream, &request)?;
        let mut outcomes: Vec<Option<CellOutcome>> = specs.iter().map(|_| None).collect();
        loop {
            let event = read_event(&mut reader)?;
            match event["event"].as_str() {
                Some("cell") => {
                    let index = event["index"]
                        .as_u64()
                        .ok_or_else(|| format!("cell event without index: {event}"))?
                        as usize;
                    if index >= outcomes.len() {
                        return Err(format!("cell index {index} out of range"));
                    }
                    let result = if event["ok"].as_bool() == Some(true) {
                        Ok(event["result"].clone())
                    } else {
                        Err(event["error"]
                            .as_str()
                            .unwrap_or("unknown error")
                            .to_string())
                    };
                    outcomes[index] = Some(CellOutcome {
                        result,
                        source: CellSource::parse(event["source"].as_str().unwrap_or("")),
                        wall_secs: event["wall_secs"].as_f64().unwrap_or(0.0),
                    });
                }
                Some("progress") => {
                    progress(&RunProgress {
                        done: event["done"].as_u64().unwrap_or(0),
                        total: event["total"].as_u64().unwrap_or(0),
                        hits: event["hits"].as_u64().unwrap_or(0),
                        computed: event["computed"].as_u64().unwrap_or(0),
                        joined: event["joined"].as_u64().unwrap_or(0),
                    });
                }
                Some("done") => break,
                Some("error") => {
                    return Err(event["message"]
                        .as_str()
                        .unwrap_or("server error")
                        .to_string());
                }
                _ => return Err(format!("unexpected event: {event}")),
            }
        }
        outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.ok_or_else(|| format!("server never reported cell {i}")))
            .collect()
    }

    /// The server's `metrics` event: the full telemetry snapshot, as JSON
    /// (`prometheus = false`) or with the snapshot rendered in the
    /// Prometheus text exposition format under a `text` field.
    pub fn metrics(&self, prometheus: bool) -> Result<Value, String> {
        let mut fields = vec![
            ("op", Value::from("metrics")),
            ("trace", TraceCtx::fresh().to_json()),
        ];
        if prometheus {
            fields.push(("format", "prometheus".into()));
        }
        self.one_shot(Value::object(fields), "metrics")
    }

    /// The newest `n` request-log records the server retains.
    pub fn log_tail(&self, n: usize) -> Result<Value, String> {
        self.one_shot(
            Value::object(vec![
                ("op", "log".into()),
                ("n", n.into()),
                ("trace", TraceCtx::fresh().to_json()),
            ]),
            "log",
        )
    }

    /// Send one request and expect exactly one event of the given kind.
    fn one_shot(&self, request: Value, expect: &str) -> Result<Value, String> {
        let (mut reader, mut stream) = self.connect()?;
        send(&mut stream, &request)?;
        let event = read_event(&mut reader)?;
        if event["event"] != expect {
            return Err(format!("expected {expect}, got {event}"));
        }
        Ok(event)
    }

    /// Ask the server to shut down. `Ok` once the server acknowledged.
    pub fn shutdown(&self) -> Result<(), String> {
        let request = Value::object(vec![
            ("op", "shutdown".into()),
            ("trace", TraceCtx::fresh().to_json()),
        ]);
        self.one_shot(request, "bye").map(drop)
    }
}

/// The integer major of a `name vN` schema tag (0 when unparseable).
fn major_of(schema: &str) -> u64 {
    schema
        .rsplit(" v")
        .next()
        .and_then(|v| v.split('.').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn send(stream: &mut TcpStream, request: &Value) -> Result<(), String> {
    writeln!(stream, "{request}").map_err(|e| format!("sending request: {e}"))
}

fn read_event(reader: &mut BufReader<TcpStream>) -> Result<Value, String> {
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading event: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        if !line.trim().is_empty() {
            return Value::parse(line.trim()).map_err(|e| format!("bad event JSON: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::server::{Compute, Server};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;

    fn spec(bench: &str, seed: u64) -> CellSpec {
        CellSpec {
            bench: bench.into(),
            placement: "rand".into(),
            placement_fp: String::new(),
            engine: "upmlib".into(),
            scale: "tiny".into(),
            seed,
            variant: String::new(),
            config_fp: "fefefefefefefefe".into(),
            code_version: "test-code".into(),
        }
    }

    /// Start a server on an ephemeral port; returns (client, join, calls).
    fn start(tag: &str) -> (Client, std::thread::JoinHandle<()>, Arc<AtomicU64>) {
        let calls = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&calls);
        let compute: Compute = Arc::new(move |spec: &CellSpec| {
            counted.fetch_add(1, Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok(Value::object(vec![
                ("bench", spec.bench.as_str().into()),
                ("seed", spec.seed.into()),
            ]))
        });
        let root =
            std::env::temp_dir().join(format!("ddnomp-proto-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let server =
            Server::bind("127.0.0.1:0", 2, Cache::new(root), compute, "test-code").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let join = std::thread::spawn(move || server.run().unwrap());
        (Client::new(&addr, "test-code"), join, calls)
    }

    #[test]
    fn ping_run_metrics_shutdown_round_trip() {
        let (client, join, calls) = start("basic");
        assert!(client.ping());
        let specs = vec![spec("cg", 1), spec("mg", 2), spec("cg", 1)];
        let mut last = RunProgress::default();
        let outcomes = client.run_cells(&specs, |p| last = *p).unwrap();
        assert_eq!(outcomes.len(), 3);
        for (i, o) in outcomes.iter().enumerate() {
            let payload = o.result.as_ref().unwrap();
            assert_eq!(payload["bench"], specs[i].bench.as_str());
        }
        // The duplicate cell is computed once and joined once.
        assert_eq!(calls.load(Relaxed), 2);
        assert_eq!(outcomes[2].source, CellSource::Inflight);
        assert_eq!(last.done, 3);
        // Second run: everything hits the cache.
        let outcomes = client.run_cells(&specs, |_| {}).unwrap();
        assert_eq!(calls.load(Relaxed), 2, "no recompute on warm cache");
        assert!(outcomes.iter().all(|o| o.source == CellSource::Cache));
        let metrics = client.metrics(false).unwrap();
        assert_eq!(metrics["counters"]["svc.cache.stores"].as_u64(), Some(2));
        // One batch per run request; two of the first run's three cells
        // were pool jobs (the third joined), none of the warm run's.
        assert_eq!(metrics["counters"]["svc.pool.batches"].as_u64(), Some(2));
        assert_eq!(metrics["counters"]["svc.pool.jobs_done"].as_u64(), Some(2));
        client.shutdown().unwrap();
        join.join().unwrap();
        assert!(!client.ping(), "server is gone after shutdown");
    }

    #[test]
    fn concurrent_clients_share_overlapping_cells() {
        let (client, join, calls) = start("concurrent");
        let mut joins = Vec::new();
        for offset in 0..3u64 {
            let client = client.clone();
            joins.push(std::thread::spawn(move || {
                // Overlap: every client asks for seeds {0,1,2,3} plus one
                // private seed 100+offset.
                let mut specs: Vec<CellSpec> = (0..4).map(|s| spec("cg", s)).collect();
                specs.push(spec("cg", 100 + offset));
                client.run_cells(&specs, |_| {}).unwrap()
            }));
        }
        for j in joins {
            let outcomes = j.join().unwrap();
            assert_eq!(outcomes.len(), 5);
            assert!(outcomes.iter().all(|o| o.result.is_ok()));
        }
        // 4 shared + 3 private cells computed exactly once each.
        assert_eq!(calls.load(Relaxed), 7);
        client.shutdown().unwrap();
        join.join().unwrap();
    }

    #[test]
    fn code_version_mismatch_refuses_cleanly() {
        let (client, join, _) = start("version");
        let wrong = Client::new(client.addr(), "other-code");
        assert!(!wrong.ping());
        let err = wrong.run_cells(&[spec("cg", 1)], |_| {}).unwrap_err();
        assert!(err.contains("code version mismatch"), "{err}");
        client.shutdown().unwrap();
        join.join().unwrap();
    }

    #[test]
    fn unreachable_server_is_a_clean_error() {
        let client = Client::new("127.0.0.1:1", "test-code");
        assert!(!client.ping());
        assert!(client.run_cells(&[spec("cg", 1)], |_| {}).is_err());
    }
}
