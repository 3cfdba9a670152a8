//! End-to-end contract of the result service as CI consumes it: the
//! offline cache (`--cache`) makes repeat runs byte-identical and all-hit
//! at any worker count, damaged entries are recomputed rather than
//! served, `xp serve` computes shared cells once for concurrent clients,
//! and client mode degrades to plain offline execution when no server
//! answers.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `xp fig5 --scale tiny` (8 cells) with extra args; returns stderr.
fn fig5(out: &Path, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(["fig5", "--scale", "tiny"])
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("xp binary runs");
    assert!(
        output.status.success(),
        "xp fig5 {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Run `xp client fig5 --scale tiny --addr ADDR`; returns stderr.
fn client_fig5(out: &Path, addr: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(["client", "fig5", "--scale", "tiny", "--addr", addr])
        .arg("--out")
        .arg(out)
        .output()
        .expect("xp binary runs");
    assert!(
        output.status.success(),
        "xp client fig5 failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn fig5_json(out: &Path) -> Vec<u8> {
    std::fs::read(out.join("fig5.json")).expect("fig5.json saved")
}

#[test]
fn cache_hits_are_byte_identical_across_jobs_counts_and_restarts() {
    let dir = tmp("svc_cache_stability");
    let cache = dir.join("cache");
    let cache_flags = ["--cache", "--cache-dir", cache.to_str().unwrap()];

    let cold = fig5(
        &dir.join("cold"),
        &[&cache_flags[..], &["--jobs", "1"]].concat(),
    );
    assert!(
        cold.contains("8 misses, 8 stores"),
        "cold run stats: {cold}"
    );

    // A different process AND a different worker count: every cell must
    // come from the cache and the saved report must not differ by a byte.
    let warm = fig5(
        &dir.join("warm"),
        &[&cache_flags[..], &["--jobs", "4"]].concat(),
    );
    assert!(warm.contains("8 hits, 0 misses"), "warm run stats: {warm}");
    assert_eq!(fig5_json(&dir.join("cold")), fig5_json(&dir.join("warm")));
}

#[test]
fn a_corrupted_entry_is_recomputed_never_served() {
    let dir = tmp("svc_cache_corrupt");
    let cache = dir.join("cache");
    let cache_flags = ["--cache", "--cache-dir", cache.to_str().unwrap()];

    fig5(&dir.join("cold"), &cache_flags);

    // Damage one entry's payload on disk.
    let entry = walk_entries(&cache)
        .into_iter()
        .next()
        .expect("cache has entries");
    let text = std::fs::read_to_string(&entry).unwrap();
    std::fs::write(&entry, text.replace("total_secs", "total_sexs")).unwrap();

    let warm = fig5(&dir.join("warm"), &cache_flags);
    assert!(
        warm.contains("7 hits, 1 misses, 1 stores, 1 corrupt"),
        "corrupt entry must surface as miss + recompute: {warm}"
    );
    assert_eq!(fig5_json(&dir.join("cold")), fig5_json(&dir.join("warm")));

    // The recompute restored the entry: next run is all hits again.
    let healed = fig5(&dir.join("healed"), &cache_flags);
    assert!(healed.contains("8 hits, 0 misses"), "{healed}");
}

fn walk_entries(cache: &Path) -> Vec<PathBuf> {
    let mut entries = Vec::new();
    for shard in std::fs::read_dir(cache).unwrap() {
        let shard = shard.unwrap().path();
        if shard.is_dir() {
            for f in std::fs::read_dir(shard).unwrap() {
                entries.push(f.unwrap().path());
            }
        }
    }
    entries.sort();
    entries
}

struct Serve {
    child: Child,
    addr: String,
}

impl Serve {
    fn start(cache: &Path) -> Serve {
        Serve::start_with(cache, &[])
    }

    fn start_with(cache: &Path, extra: &[&str]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_xp"))
            .args(["serve", "--port", "0", "--jobs", "2", "--cache-dir"])
            .arg(cache)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("xp serve starts");
        // The server announces its bound (ephemeral) address on stdout.
        let stdout = child.stdout.take().unwrap();
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .unwrap();
        let addr = line
            .trim()
            .strip_prefix("[svc] listening on ")
            .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
            .to_string();
        Serve { child, addr }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn concurrent_clients_share_computation_and_get_complete_results() {
    let dir = tmp("svc_concurrent_clients");
    let server = Serve::start(&dir.join("srvcache"));

    // Two clients with fully overlapping specs, racing. Each must get a
    // complete result set; the shared cells must be computed once.
    let spawn = |out: PathBuf, addr: String| std::thread::spawn(move || client_fig5(&out, &addr));
    let a = spawn(dir.join("a"), server.addr.clone());
    let b = spawn(dir.join("b"), server.addr.clone());
    let err_a = a.join().unwrap();
    let err_b = b.join().unwrap();

    assert_eq!(fig5_json(&dir.join("a")), fig5_json(&dir.join("b")));
    let computed = count(&err_a, "computed") + count(&err_b, "computed");
    let joined = count(&err_a, "joined") + count(&err_b, "joined");
    let cached = count(&err_a, "cached") + count(&err_b, "cached");
    assert_eq!(
        computed, 8,
        "shared cells computed exactly once\n{err_a}\n{err_b}"
    );
    assert_eq!(computed + joined + cached, 16, "\n{err_a}\n{err_b}");

    // A third, fresh client is served entirely from the cache.
    let warm = client_fig5(&dir.join("c"), &server.addr);
    assert_eq!(count(&warm, "cached"), 8, "{warm}");
    assert_eq!(fig5_json(&dir.join("a")), fig5_json(&dir.join("c")));
}

/// Pull `N <what>` out of the `[svc] ADDR: T cells — H cached, C computed,
/// J joined` summary line.
fn count(stderr: &str, what: &str) -> u64 {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("[svc]") && l.contains("cells —"))
        .unwrap_or_else(|| panic!("no [svc] summary line in:\n{stderr}"));
    line.split([',', '—'])
        .find_map(|part| {
            let part = part.trim();
            part.strip_suffix(what)
                .and_then(|n| n.trim().parse::<u64>().ok())
        })
        .unwrap_or_else(|| panic!("no '{what}' count in: {line}"))
}

/// Run the xp binary with args; panic on failure; return (stdout, stderr).
fn xp_run(args: &[&str]) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(args)
        .output()
        .expect("xp binary runs");
    assert!(
        output.status.success(),
        "xp {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// The whole telemetry surface over one live server: a cold + warm sweep
/// through the client, then the `metrics`/`log` ops, `xp top --once`,
/// `xp top --json`, and — after a graceful shutdown — the span
/// export with one reconstructible trace per request. Saved result JSON
/// must stay byte-identical to the uninstrumented offline run throughout.
#[test]
fn telemetry_sees_a_warm_sweep_and_spans_reconstruct_requests() {
    let dir = tmp("svc_telemetry");
    let spans = dir.join("spans");
    let server = Serve::start_with(&dir.join("srvcache"), &["--spans", spans.to_str().unwrap()]);

    // Offline reference first: instrumentation must not leak into results.
    fig5(&dir.join("offline"), &[]);
    let cold = client_fig5(&dir.join("cold"), &server.addr);
    assert_eq!(count(&cold, "computed"), 8, "{cold}");
    let warm = client_fig5(&dir.join("warm"), &server.addr);
    assert_eq!(count(&warm, "cached"), 8, "{warm}");
    assert_eq!(
        fig5_json(&dir.join("offline")),
        fig5_json(&dir.join("cold"))
    );
    assert_eq!(
        fig5_json(&dir.join("offline")),
        fig5_json(&dir.join("warm"))
    );

    // The metrics op: the cache-hit counter equals the warm sweep's cell
    // count, and both exposition formats carry the same numbers.
    let client = svc::Client::new(&server.addr, xp::spec::CODE_VERSION);
    let m = client.metrics(false).expect("metrics op answers");
    let counters = &m["counters"];
    assert_eq!(counters["svc.cache.hits"].as_u64(), Some(8), "{m}");
    assert_eq!(counters["svc.cells.hit"].as_u64(), Some(8));
    assert_eq!(counters["svc.cells.computed"].as_u64(), Some(8));
    assert_eq!(counters["svc.requests.run.ok"].as_u64(), Some(2));
    assert!(m["histograms"]["svc.compute_us"]["count"].as_u64() == Some(8));
    let p = client.metrics(true).expect("prometheus metrics answer");
    let text = p["text"].as_str().unwrap();
    assert!(text.contains("svc_cache_hits 8\n"), "{text}");
    assert!(text.contains("# TYPE svc_request_us histogram"), "{text}");

    // The log op: both run requests, each with a propagated trace id.
    let log = client.log_tail(50).expect("log op answers");
    let runs: Vec<&obs::json::Value> = log["records"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|r| r["op"].as_str() == Some("run"))
        .collect();
    assert_eq!(runs.len(), 2, "{log}");
    let trace_ids: Vec<String> = runs
        .iter()
        .map(|r| r["trace_id"].as_str().unwrap().to_string())
        .collect();
    assert!(trace_ids.iter().all(|t| t.len() == 16), "{trace_ids:?}");

    // The ops console reads the same numbers, in both renderings.
    let (top, _) = xp_run(&["top", "--once", "--addr", &server.addr]);
    assert!(top.contains("request rate"), "{top}");
    assert!(top.contains("8 hits / 8 misses (50.0% hit ratio)"), "{top}");
    assert!(top.contains("8 jobs done, 0 failed, 2 batches"), "{top}");
    assert!(top.contains("p50≥"), "{top}");
    assert!(top.contains("w0 ["), "{top}");
    let (top_json, _) = xp_run(&["top", "--json", "--addr", &server.addr]);
    let doc = obs::json::Value::parse(top_json.trim()).unwrap();
    let snapshot = &doc["metrics"];
    assert!(snapshot["uptime_secs"].as_f64().unwrap() > 0.0, "{doc}");
    assert_eq!(snapshot["workers"].as_array().unwrap().len(), 2);
    let counters = &snapshot["counters"];
    for (name, want) in [
        ("svc.cache.hits", 8),
        ("svc.cache.misses", 8),
        ("svc.cache.stores", 8),
        ("svc.cache.corrupt", 0),
        ("svc.pool.jobs_done", 8),
        ("svc.pool.jobs_failed", 0),
        ("svc.pool.batches", 2),
        ("svc.runs_failed", 0),
    ] {
        assert_eq!(counters[name].as_u64(), Some(want), "{name}: {doc}");
    }
    assert_eq!(snapshot["gauges"]["svc.inflight_cells"].as_f64(), Some(0.0));

    // Graceful shutdown flushes the span export; each traced run request
    // appears as an `svc.run:<id>` tree with its worker-side
    // `svc.compute:<id>` subtree under the same propagated id.
    let mut server = server;
    client.shutdown().expect("shutdown acknowledged");
    let status = server.child.wait().expect("server exits");
    assert!(status.success());
    let chrome =
        std::fs::read_to_string(spans.join("svc-spans.chrome.json")).expect("chrome trace written");
    let jsonl = std::fs::read_to_string(spans.join("svc-spans.jsonl")).expect("span jsonl written");
    assert!(!jsonl.trim().is_empty());
    for id in &trace_ids {
        assert!(
            chrome.contains(&format!("svc.run:{id}")),
            "run span for {id}"
        );
    }
    // Only the cold request computed cells, so only its trace id reaches
    // the worker threads; the warm request's tree is lookups only.
    assert!(
        chrome.contains(&format!("svc.compute:{}", trace_ids[0])),
        "worker subtree carries the cold request's trace id"
    );
    assert!(
        !chrome.contains(&format!("svc.compute:{}", trace_ids[1])),
        "the all-hit request computes nothing"
    );
    assert!(chrome.contains("svc.cache_lookup"), "lookup spans present");
    // The export is valid JSON all the way down.
    obs::json::Value::parse(chrome.trim()).expect("chrome trace parses");
}

#[test]
fn client_mode_without_a_server_falls_back_to_offline_results() {
    let dir = tmp("svc_client_fallback");
    fig5(&dir.join("offline"), &[]);
    // Port 1 never listens; the client must fall back and still succeed.
    let err = client_fig5(&dir.join("fallback"), "127.0.0.1:1");
    assert!(
        err.contains("falling back to local execution"),
        "fallback must be announced: {err}"
    );
    assert_eq!(
        fig5_json(&dir.join("offline")),
        fig5_json(&dir.join("fallback"))
    );
}

/// A well-formed command that fails at run time (no server, no such file)
/// exits 1 with its message alone: the usage pointer is for argument errors.
#[test]
fn a_runtime_failure_is_not_a_usage_error() {
    let dir = tmp("svc_runtime_failure");
    let out = dir.to_str().unwrap();
    for (args, needle) in [
        (&["top", "--once", "--port", "1"][..], "no server at"),
        (
            &["prof", "cg", "--from", "/nonexistent", "--out", out][..],
            "/nonexistent",
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_xp"))
            .args(args)
            .output()
            .expect("xp binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "xp {args:?}: {stderr}");
        assert!(stderr.contains(needle), "xp {args:?}: {stderr}");
        assert!(!stderr.contains("xp --help"), "xp {args:?}: {stderr}");
    }
}
