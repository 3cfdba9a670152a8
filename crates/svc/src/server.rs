//! The resident experiment server.
//!
//! One [`Server`] owns one long-lived [`exec::ResidentPool`] and one
//! [`Cache`], and listens for JSONL requests on a local TCP port. For a
//! `run` request (a batch of [`CellSpec`]s) each cell resolves through
//! three tiers:
//!
//! 1. **in-flight join** — an identical cell already being computed for
//!    any client (this batch included) is joined, never recomputed;
//! 2. **cache** — a valid on-disk entry is served directly;
//! 3. **compute** — the cell is queued on the resident pool, stored into
//!    the cache on success, and its in-flight entry resolved for joiners.
//!
//! Results stream back as one `cell` event per cell, interleaved with
//! `progress` events, terminated by a `done` summary — so a client
//! renders progress live while long cells still run. The in-flight entry
//! is registered *before* the cache lookup and resolved *inside* the pool
//! job, so two clients racing on the same cold cell agree on one owner
//! and the loser unblocks the moment the result exists (not when the
//! owner's connection gets around to reporting it).
//!
//! The compute function is opaque to this crate: the `xp` binary binds it
//! to spec reconstruction + `run_one`, including the config-fingerprint
//! check (a spec whose fingerprint does not match the server's own
//! reconstruction is answered with an error, and the client falls back to
//! local execution for that cell).

use crate::cache::Cache;
use crate::spec::CellSpec;
use crate::telemetry::{RequestRecord, Telemetry, TraceCtx};
use exec::{ResidentJob, ResidentPool};
use obs::json::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// The server's cell evaluator: spec in, result payload (or a refusal
/// message) out. Must be pure per the determinism guarantee.
pub type Compute = Arc<dyn Fn(&CellSpec) -> Result<Value, String> + Send + Sync>;

/// One cell being computed right now, joinable by later requests.
struct Flight {
    done: Mutex<Option<Result<Value, String>>>,
    resolved: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: Mutex::new(None),
            resolved: Condvar::new(),
        }
    }

    fn resolve(&self, result: Result<Value, String>) {
        *self.done.lock().unwrap() = Some(result);
        self.resolved.notify_all();
    }

    fn wait(&self) -> Result<Value, String> {
        let mut done = self.done.lock().unwrap();
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self.resolved.wait(done).unwrap();
        }
    }
}

/// State shared by the accept loop, connection threads and pool jobs.
struct Shared {
    cache: Cache,
    compute: Compute,
    pool: ResidentPool<Result<Value, String>>,
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    code_version: String,
    /// The bound address: where [`Shared::stop`] wakes the accept loop.
    addr: SocketAddr,
    stop: AtomicBool,
    started: Instant,
    telemetry: Telemetry,
    /// Cells whose compute resolved to an error — panics converted by the
    /// flight-resolution wrapper included, which the pool's own
    /// `jobs_failed` can never see (the wrapper catches the unwind before
    /// the pool does).
    runs_failed: AtomicU64,
}

impl Shared {
    /// Tell the accept loop to stop. It blocks until its next client, so
    /// be that client.
    fn stop(&self) {
        self.stop.store(true, Relaxed);
        let _ = TcpStream::connect(self.addr);
    }
}

/// The resident experiment server. [`Server::bind`] claims the port;
/// [`Server::run`] serves until a client sends `shutdown`.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:46137`, port 0 for ephemeral) with a
    /// resident pool of `workers` threads.
    pub fn bind(
        addr: &str,
        workers: usize,
        cache: Cache,
        compute: Compute,
        code_version: &str,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cache,
                compute,
                pool: ResidentPool::new(workers),
                inflight: Mutex::new(HashMap::new()),
                code_version: code_version.to_string(),
                addr,
                stop: AtomicBool::new(false),
                started: Instant::now(),
                telemetry: Telemetry::new(),
                runs_failed: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `shutdown` request arrives. Connection threads are
    /// joined before returning, so in-flight batches complete; an idle
    /// peer does not hold the server up.
    pub fn run(&self) -> std::io::Result<()> {
        let mut connections = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.shared.stop.load(Relaxed) {
                break; // `Shared::stop` calling, or a client that raced it
            }
            let peer = stream.try_clone()?;
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name("svc-conn".into())
                .spawn(move || {
                    let _ = serve_connection(&shared, stream);
                })
                .expect("spawning a connection thread");
            connections.push((peer, handle));
            connections.retain(|(_, h)| !h.is_finished());
        }
        for (peer, handle) in connections {
            // The read side only: a thread waiting for its client's next
            // request returns, one answering a request streams to the end.
            let _ = peer.shutdown(Shutdown::Read);
            let _ = handle.join();
        }
        Ok(())
    }

    /// Ask the accept loop to stop (same effect as a client `shutdown`).
    pub fn stop(&self) {
        self.shared.stop();
    }
}

/// Serve one client connection: hello, then one request line per op until
/// the client closes (or asks for shutdown).
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone()?);
    let mut out = BufWriter::new(stream);
    {
        let _hp = hostprof::span("svc.accept");
        emit(
            &mut out,
            Value::object(vec![
                ("event", "hello".into()),
                ("schema", crate::PROTO_SCHEMA.into()),
                ("code_version", shared.code_version.as_str().into()),
                ("workers", shared.pool.workers().into()),
            ]),
        )?;
    }
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let t0 = Instant::now();
        let request = match Value::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                let message = format!("bad request JSON: {e}");
                let event = error_event(&message);
                record(shared, TraceCtx::fresh(), "bad", false, message, t0);
                emit(&mut out, event)?;
                continue;
            }
        };
        // The trace context rides on the frame; raw-protocol clients
        // (`ci/scrape_telemetry.py`) send none and get a server-minted
        // root so every request still has exactly one trace id.
        let trace = request
            .get("trace")
            .and_then(TraceCtx::from_json)
            .unwrap_or_else(TraceCtx::fresh);
        // Every op records its request before it sends its last frame: a
        // client that has read the answer and asks for the telemetry next
        // finds the request counted.
        match request.get("op").and_then(Value::as_str) {
            Some("run") => {
                let _hp = hostprof::span_named(|| format!("svc.run:{}", trace.trace_id));
                match handle_run(shared, &mut out, &request, &trace) {
                    Ok((last, ok, detail)) => {
                        record(shared, trace, "run", ok, detail, t0);
                        emit(&mut out, last)?;
                    }
                    Err(e) => {
                        record(
                            shared,
                            trace,
                            "run",
                            false,
                            format!("client io error: {e}"),
                            t0,
                        );
                        return Err(e);
                    }
                }
            }
            Some("ping") => {
                record(shared, trace, "ping", true, String::new(), t0);
                emit(&mut out, Value::object(vec![("event", "pong".into())]))?;
            }
            Some("metrics") => {
                let format = request.get("format").and_then(Value::as_str);
                let event = metrics_event(shared, format);
                let detail = format.unwrap_or("json").to_string();
                record(shared, trace, "metrics", true, detail, t0);
                emit(&mut out, event)?;
            }
            Some("log") => {
                let n = request.get("n").and_then(Value::as_u64).unwrap_or(50) as usize;
                let event = log_event(shared, n);
                record(shared, trace, "log", true, format!("n={n}"), t0);
                emit(&mut out, event)?;
            }
            Some("shutdown") => {
                shared.stop();
                record(shared, trace, "shutdown", true, String::new(), t0);
                emit(&mut out, Value::object(vec![("event", "bye".into())]))?;
                break;
            }
            other => {
                let message = format!("unknown op {:?}", other.unwrap_or("<none>"));
                let event = error_event(&message);
                record(shared, trace, "unknown", false, message, t0);
                emit(&mut out, event)?;
            }
        }
    }
    Ok(())
}

/// Record one finished request into the telemetry store.
fn record(
    shared: &Shared,
    trace: TraceCtx,
    op: &'static str,
    ok: bool,
    detail: String,
    t0: Instant,
) {
    shared.telemetry.request(RequestRecord {
        trace_id: trace.trace_id,
        op,
        ok,
        detail,
        wall_secs: t0.elapsed().as_secs_f64(),
    });
}

/// How one cell of a batch resolves.
enum Resolution {
    /// Served from the cache.
    Hit(Value),
    /// This request owns the computation; the value is the pool slot.
    Compute(usize),
    /// Joined onto a computation some other request owns.
    Joined(Arc<Flight>),
}

/// Serve a `run` request up to its last frame, which it returns unsent
/// beside whether the request succeeded and its log detail.
fn handle_run(
    shared: &Arc<Shared>,
    out: &mut BufWriter<TcpStream>,
    request: &Value,
    trace: &TraceCtx,
) -> std::io::Result<(Value, bool, String)> {
    let t0 = Instant::now();
    let Some(cells) = request.get("cells").and_then(Value::as_array) else {
        let message = "run request has no 'cells' array".to_string();
        return Ok((error_event(&message), false, message));
    };
    let mut specs = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        match CellSpec::from_json(cell) {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                let message = format!("cell {i}: {e}");
                return Ok((error_event(&message), false, message));
            }
        }
    }
    let total = specs.len();
    let mut resolutions = Vec::with_capacity(total);
    let mut jobs: Vec<ResidentJob<Result<Value, String>>> = Vec::new();
    for spec in &specs {
        let key = spec.key();
        // Register the flight under the map lock *before* the cache
        // lookup: racing requests agree on exactly one owner per key.
        let owned = {
            let mut inflight = shared.inflight.lock().unwrap();
            match inflight.get(&key) {
                Some(flight) => {
                    resolutions.push(Resolution::Joined(Arc::clone(flight)));
                    None
                }
                None => {
                    let flight = Arc::new(Flight::new());
                    inflight.insert(key.clone(), Arc::clone(&flight));
                    Some(flight)
                }
            }
        };
        let Some(flight) = owned else { continue };
        let looked_up = {
            let _hp = hostprof::span("svc.cache_lookup");
            let t = Instant::now();
            let payload = shared.cache.lookup(spec);
            shared
                .telemetry
                .observe_us("svc.cache_lookup_us", t.elapsed().as_micros() as u64);
            payload
        };
        if let Some(payload) = looked_up {
            flight.resolve(Ok(payload.clone()));
            shared.inflight.lock().unwrap().remove(&key);
            resolutions.push(Resolution::Hit(payload));
        } else {
            resolutions.push(Resolution::Compute(jobs.len()));
            let shared = Arc::clone(shared);
            let spec = spec.clone();
            let trace_id = trace.trace_id.clone();
            jobs.push(Box::new(move || {
                // The compute span carries the request's trace id, tying
                // the worker thread's subtree (this span plus the cell
                // spans the compute binding opens under it) back to the
                // connection thread's `svc.run:<id>` root.
                let _hp = hostprof::span_named(|| format!("svc.compute:{trace_id}"));
                let t = Instant::now();
                // The compute binding may panic (a cell's own panic
                // isolation lives a layer down); convert to Err here so
                // the flight is ALWAYS resolved — a joiner must never
                // hang on a dead computation.
                let result = catch_unwind(AssertUnwindSafe(|| (shared.compute)(&spec)))
                    .unwrap_or_else(|p| {
                        Err(format!("compute panicked: {}", exec::panic_message(&*p)))
                    });
                shared
                    .telemetry
                    .observe_us("svc.compute_us", t.elapsed().as_micros() as u64);
                if result.is_err() {
                    shared.runs_failed.fetch_add(1, Relaxed);
                    shared.telemetry.inc("svc.cells.failed", 1);
                }
                if let Ok(payload) = &result {
                    if let Err(e) = shared.cache.store(&spec, payload) {
                        // A failed store is a warning, not a failure: the
                        // result is still valid and still returned.
                        eprintln!("[svc] cache store failed for {spec}: {e}");
                    }
                }
                let mut inflight = shared.inflight.lock().unwrap();
                if let Some(flight) = inflight.remove(&spec.key()) {
                    flight.resolve(result.clone());
                }
                result
            }));
        }
    }
    let batch = shared.pool.submit(jobs);
    // Stream results: hits immediately, computed cells as their slots
    // fill, joined cells as their owners resolve them.
    let _hp = hostprof::span("svc.stream");
    let mut done = 0usize;
    let mut counts = (0u64, 0u64, 0u64, 0u64); // hits, computed, joined, errors
    let order = |r: &Resolution| match r {
        Resolution::Hit(_) => 0,
        Resolution::Compute(_) => 1,
        Resolution::Joined(_) => 2,
    };
    let mut indices: Vec<usize> = (0..total).collect();
    indices.sort_by_key(|&i| (order(&resolutions[i]), i));
    for i in indices {
        let (source, wall, result) = match &resolutions[i] {
            Resolution::Hit(payload) => {
                counts.0 += 1;
                ("cache", 0.0, Ok(payload.clone()))
            }
            Resolution::Compute(slot) => {
                counts.1 += 1;
                let timed = batch.wait(*slot);
                let result = match timed.result {
                    Ok(inner) => inner,
                    Err(panic) => Err(panic.to_string()),
                };
                ("computed", timed.wall_secs, result)
            }
            Resolution::Joined(flight) => {
                counts.2 += 1;
                let _hp = hostprof::span("svc.flight_wait");
                ("inflight", 0.0, flight.wait())
            }
        };
        done += 1;
        let mut fields = vec![
            ("event", "cell".into()),
            ("index", i.into()),
            ("id", specs[i].cell_id().as_str().into()),
            ("source", source.into()),
            ("wall_secs", wall.into()),
        ];
        match result {
            Ok(payload) => {
                fields.push(("ok", true.into()));
                fields.push(("result", payload));
            }
            Err(message) => {
                counts.3 += 1;
                fields.push(("ok", false.into()));
                fields.push(("error", message.as_str().into()));
            }
        }
        emit(
            out,
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        )?;
        emit(
            out,
            Value::object(vec![
                ("event", "progress".into()),
                ("done", done.into()),
                ("total", total.into()),
                ("hits", counts.0.into()),
                ("computed", counts.1.into()),
                ("joined", counts.2.into()),
            ]),
        )?;
    }
    shared.telemetry.inc("svc.cells.hit", counts.0);
    shared.telemetry.inc("svc.cells.computed", counts.1);
    shared.telemetry.inc("svc.flight.joins", counts.2);
    shared.telemetry.inc("svc.cells.refused", counts.3);
    let done = Value::object(vec![
        ("event", "done".into()),
        ("total", total.into()),
        ("hits", counts.0.into()),
        ("computed", counts.1.into()),
        ("joined", counts.2.into()),
        ("errors", counts.3.into()),
        ("wall_secs", t0.elapsed().as_secs_f64().into()),
        ("trace_id", trace.trace_id.as_str().into()),
    ]);
    let detail = format!(
        "{total} cells — {} cached, {} computed, {} joined, {} errors",
        counts.0, counts.1, counts.2, counts.3
    );
    Ok((done, counts.3 == 0, detail))
}

/// The `metrics` op's response — the server's one window: the telemetry
/// registry merged with scrape-time counters (cache, pool, failed runs)
/// and gauges (queue, workers, cache size, in-flight cells), as JSON or as
/// Prometheus text exposition.
fn metrics_event(shared: &Shared, format: Option<&str>) -> Value {
    let mut reg = shared.telemetry.registry();
    // The cache and the pool keep their own counters; copy them into the
    // snapshot so one scrape carries every number (the clone starts these
    // at 0).
    let cache = shared.cache.stats();
    reg.inc("svc.cache.hits", cache.hits);
    reg.inc("svc.cache.misses", cache.misses);
    reg.inc("svc.cache.stores", cache.stores);
    reg.inc("svc.cache.corrupt", cache.corrupt);
    reg.inc("svc.runs_failed", shared.runs_failed.load(Relaxed));
    let scan = shared.cache.scan();
    reg.set_gauge("svc.cache.bytes", scan.bytes as f64);
    reg.set_gauge("svc.cache.entries", scan.entries as f64);
    let status = shared.pool.status();
    reg.inc("svc.pool.jobs_done", status.jobs_done);
    reg.inc("svc.pool.jobs_failed", status.jobs_failed);
    reg.inc("svc.pool.batches", status.batches);
    reg.set_gauge("svc.queue_depth", status.queue_len as f64);
    reg.set_gauge("svc.workers_busy", status.busy_workers() as f64);
    reg.set_gauge(
        "svc.inflight_cells",
        shared.inflight.lock().unwrap().len() as f64,
    );
    reg.set_gauge("svc.uptime_secs", shared.started.elapsed().as_secs_f64());
    if format == Some("prometheus") {
        return Value::object(vec![
            ("event", "metrics".into()),
            ("format", "prometheus".into()),
            ("text", obs::expo::prometheus_text(&reg).into()),
        ]);
    }
    let workers = Value::Array(
        status
            .workers
            .iter()
            .map(|w| {
                Value::object(vec![
                    ("busy", w.busy.into()),
                    ("busy_fraction", w.busy_fraction.into()),
                    ("busy_secs", w.busy_secs.into()),
                    ("jobs", w.jobs.into()),
                ])
            })
            .collect(),
    );
    let mut fields = vec![
        ("event".to_string(), Value::from("metrics")),
        ("schema".to_string(), crate::METRICS_SCHEMA.into()),
        (
            "uptime_secs".to_string(),
            shared.started.elapsed().as_secs_f64().into(),
        ),
        ("workers".to_string(), workers),
    ];
    if let Value::Object(parts) = reg.to_json() {
        fields.extend(parts);
    }
    Value::Object(fields)
}

/// The `log` op's response: the newest `n` request-log records.
fn log_event(shared: &Shared, n: usize) -> Value {
    let records = shared.telemetry.log_tail(n);
    Value::object(vec![
        ("event", "log".into()),
        ("count", records.len().into()),
        ("records", Value::Array(records)),
    ])
}

fn error_event(message: &str) -> Value {
    Value::object(vec![("event", "error".into()), ("message", message.into())])
}

/// Write one JSONL event and flush it out immediately (streaming).
fn emit(out: &mut BufWriter<TcpStream>, event: Value) -> std::io::Result<()> {
    writeln!(out, "{event}")?;
    out.flush()
}
