//! Protocol error paths and telemetry ops, end to end over real sockets.
//!
//! The contract under test: every malformed input — bad JSON, unknown op,
//! a stream truncated mid-`run`, a version-mismatched hello — produces a
//! *typed* error (an `error` event on the wire, or a typed `Err` on the
//! client) and never a hang or a silent close; and the telemetry surface
//! (the `metrics` and `log` ops) sees what happened.

use obs::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use svc::server::{Compute, Server};
use svc::{Cache, CellSpec, Client};

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

/// Start a server whose compute panics for bench `boom`, refuses bench
/// `refuse`, and answers everything else.
fn start(tag: &str) -> (Client, std::thread::JoinHandle<()>) {
    let compute: Compute = Arc::new(|spec: &CellSpec| match spec.bench.as_str() {
        "boom" => panic!("cell exploded on purpose"),
        "refuse" => Err("spec refused on purpose".to_string()),
        _ => Ok(Value::object(vec![("seed", spec.seed.into())])),
    });
    start_with(tag, compute)
}

fn start_with(tag: &str, compute: Compute) -> (Client, std::thread::JoinHandle<()>) {
    let root =
        std::env::temp_dir().join(format!("ddnomp-proto-errors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = Server::bind("127.0.0.1:0", 2, Cache::new(root), compute, "test-code").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let join = std::thread::spawn(move || server.run().unwrap());
    (Client::new(&addr, "test-code"), join)
}

/// Open a raw protocol connection: consume the hello, return the pair.
fn raw_connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut hello = String::new();
    reader.read_line(&mut hello).unwrap();
    let hello = Value::parse(hello.trim()).unwrap();
    assert_eq!(hello["event"].as_str(), Some("hello"));
    (reader, stream)
}

fn read_event(reader: &mut BufReader<TcpStream>) -> Value {
    let mut line = String::new();
    let n = reader.read_line(&mut line).unwrap();
    assert!(n > 0, "server closed instead of answering");
    Value::parse(line.trim()).unwrap()
}

#[test]
fn malformed_json_yields_typed_error_and_keeps_the_connection() {
    let (client, join) = start("badjson");
    let (mut reader, mut stream) = raw_connect(client.addr());
    writeln!(stream, "{{this is not json").unwrap();
    let event = read_event(&mut reader);
    assert_eq!(event["event"].as_str(), Some("error"));
    assert!(
        event["message"]
            .as_str()
            .unwrap()
            .contains("bad request JSON"),
        "{event}"
    );
    // Same connection still serves well-formed requests.
    writeln!(stream, "{{\"op\":\"ping\"}}").unwrap();
    assert_eq!(read_event(&mut reader)["event"].as_str(), Some("pong"));
    // Close the raw connection before shutdown: the server joins its
    // connection threads, and ours lives until this stream closes.
    drop((reader, stream));
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn unknown_and_missing_ops_yield_typed_errors() {
    let (client, join) = start("unknownop");
    let (mut reader, mut stream) = raw_connect(client.addr());
    writeln!(stream, "{{\"op\":\"frobnicate\"}}").unwrap();
    let event = read_event(&mut reader);
    assert_eq!(event["event"].as_str(), Some("error"));
    assert!(event["message"].as_str().unwrap().contains("frobnicate"));
    writeln!(stream, "{{\"payload\":1}}").unwrap();
    let event = read_event(&mut reader);
    assert_eq!(event["event"].as_str(), Some("error"));
    assert!(event["message"].as_str().unwrap().contains("unknown op"));
    // A run frame without cells is an error event too, not a stream.
    writeln!(stream, "{{\"op\":\"run\"}}").unwrap();
    let event = read_event(&mut reader);
    assert_eq!(event["event"].as_str(), Some("error"));
    assert!(event["message"].as_str().unwrap().contains("cells"));
    // The `stats` op v1.1 servers answered is an unknown op like any other.
    writeln!(stream, "{{\"op\":\"stats\"}}").unwrap();
    let event = read_event(&mut reader);
    assert_eq!(event["event"].as_str(), Some("error"));
    assert!(event["message"].as_str().unwrap().contains("stats"));
    // A request is recorded after its reply is sent; the pong orders the
    // scrape behind the record.
    writeln!(stream, "{{\"op\":\"ping\"}}").unwrap();
    assert_eq!(read_event(&mut reader)["event"].as_str(), Some("pong"));
    let m = client.metrics(false).unwrap();
    assert_eq!(
        m["counters"]["svc.requests.unknown.error"].as_u64(),
        Some(3),
        "frobnicate, the op-less frame and stats: {m}"
    );
    drop((reader, stream));
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn truncated_stream_mid_run_does_not_wedge_the_server() {
    let (client, join) = start("truncated");
    {
        let (_reader, mut stream) = raw_connect(client.addr());
        // Half a run request, no newline — then the client vanishes.
        write!(stream, "{{\"op\":\"run\",\"cells\":[").unwrap();
        stream.flush().unwrap();
        drop(stream);
    }
    // The server must shrug that connection off and keep serving.
    assert!(client.ping(), "server wedged after a truncated stream");
    let outcomes = client.run_cells(&[spec("cg", 1)], |_| {}).unwrap();
    assert!(outcomes[0].result.is_ok());
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn shutdown_does_not_wait_for_an_idle_peer_and_lets_a_request_finish() {
    // A cell that tells the test it is running, then waits to be let go.
    let gate = Arc::new(Barrier::new(2));
    let cell_gate = Arc::clone(&gate);
    let (client, join) = start_with(
        "idlepeer",
        Arc::new(move |spec: &CellSpec| {
            cell_gate.wait();
            cell_gate.wait();
            Ok(Value::object(vec![("seed", spec.seed.into())]))
        }),
    );
    // Connected, greeted, and silent from here on: its connection thread
    // sits in a read that only the server can end.
    let idle = raw_connect(client.addr());
    let outcomes = std::thread::scope(|s| {
        let busy = s.spawn(|| client.run_cells(&[spec("cg", 7)], |_| {}));
        gate.wait(); // the cell is on a worker: ask the server to go,
        client.shutdown().unwrap();
        gate.wait(); // and only then let the cell finish
        let asked = Instant::now();
        while !join.is_finished() {
            assert!(
                asked.elapsed() < Duration::from_secs(2),
                "run() still waiting on an idle peer"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        busy.join().unwrap()
    });
    join.join().unwrap();
    // The request that was in flight streamed to its end.
    let outcomes = outcomes.unwrap();
    assert_eq!(
        outcomes[0].result.as_ref().unwrap()["seed"].as_u64(),
        Some(7)
    );
    drop(idle);
}

#[test]
fn version_mismatch_hello_is_a_typed_client_error() {
    let (client, join) = start("vermismatch");
    let wrong = Client::new(client.addr(), "some-other-build");
    assert!(!wrong.ping());
    let err = wrong.run_cells(&[spec("cg", 1)], |_| {}).unwrap_err();
    assert!(err.contains("code version mismatch"), "{err}");
    let err = wrong.metrics(false).unwrap_err();
    assert!(err.contains("code version mismatch"), "{err}");
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn panicking_cells_are_counted_in_runs_failed() {
    let (client, join) = start("runsfailed");
    let specs = vec![spec("cg", 1), spec("boom", 2), spec("refuse", 3)];
    let outcomes = client.run_cells(&specs, |_| {}).unwrap();
    assert!(outcomes[0].result.is_ok());
    let boom = outcomes[1].result.as_ref().unwrap_err();
    assert!(boom.contains("panicked"), "{boom}");
    let refused = outcomes[2].result.as_ref().unwrap_err();
    assert!(refused.contains("refused"), "{refused}");
    let m = client.metrics(false).unwrap();
    let counters = &m["counters"];
    assert_eq!(
        counters["svc.runs_failed"].as_u64(),
        Some(2),
        "panicked + refused cells must both be visible: {m}"
    );
    // The pool's own jobs_failed stays 0: the flight-resolution wrapper
    // catches the unwind before the pool sees it — exactly why the
    // server needs its own counter.
    assert_eq!(counters["svc.pool.jobs_failed"].as_u64(), Some(0));
    assert_eq!(counters["svc.pool.jobs_done"].as_u64(), Some(3));
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn metrics_and_log_ops_see_the_request_history() {
    let (client, join) = start("metrics");
    let specs = vec![spec("cg", 10), spec("cg", 11)];
    client.run_cells(&specs, |_| {}).unwrap();
    client.run_cells(&specs, |_| {}).unwrap(); // warm: all hits
    assert!(client.ping());

    let m = client.metrics(false).unwrap();
    assert_eq!(m["schema"].as_str(), Some("ddnomp-metrics v1"));
    assert_eq!(m["counters"]["svc.requests.run.ok"].as_u64(), Some(2));
    assert_eq!(m["counters"]["svc.cells.computed"].as_u64(), Some(2));
    assert_eq!(m["counters"]["svc.cells.hit"].as_u64(), Some(2));
    assert_eq!(m["counters"]["svc.cache.hits"].as_u64(), Some(2));
    assert_eq!(m["counters"]["svc.cache.stores"].as_u64(), Some(2));
    assert_eq!(m["gauges"]["svc.cache.entries"].as_f64(), Some(2.0));
    assert!(m["gauges"]["svc.cache.bytes"].as_f64().unwrap() > 0.0);
    assert_eq!(m["gauges"]["svc.queue_depth"].as_f64(), Some(0.0));
    assert_eq!(m["workers"].as_array().unwrap().len(), 2);
    assert_eq!(m["histograms"]["svc.run_us"]["count"].as_u64(), Some(2));
    assert!(m["histograms"]["svc.compute_us"]["count"].as_u64() == Some(2));
    assert!(m["histograms"]["svc.cache_lookup_us"]["count"].as_u64() == Some(4));

    let p = client.metrics(true).unwrap();
    assert_eq!(p["format"].as_str(), Some("prometheus"));
    let text = p["text"].as_str().unwrap();
    assert!(text.contains("# TYPE svc_cache_hits counter\nsvc_cache_hits 2\n"));
    assert!(text.contains("# TYPE svc_run_us histogram"));
    assert!(text.contains("svc_run_us_bucket{le=\"+Inf\"}"));

    let log = client.log_tail(10).unwrap();
    let records = log["records"].as_array().unwrap();
    assert!(records.len() >= 3, "{log}");
    let runs: Vec<&Value> = records
        .iter()
        .filter(|r| r["op"].as_str() == Some("run"))
        .collect();
    assert_eq!(runs.len(), 2);
    assert!(runs[0]["ok"].as_bool().unwrap());
    assert!(runs[1]["detail"]
        .as_str()
        .unwrap()
        .contains("2 cached, 0 computed"));
    let tid = runs[0]["trace_id"].as_str().unwrap();
    assert_eq!(tid.len(), 16, "trace id propagated from the client: {tid}");
    client.shutdown().unwrap();
    join.join().unwrap();
}
