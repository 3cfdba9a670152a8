//! `xp top`: the live ops console over a resident server's `metrics` and
//! `log` protocol ops.
//!
//! `xp top --addr HOST:PORT` polls the server and renders one screen per
//! interval: request rate (from counter deltas between polls), cache hit
//! ratio, end-to-end latency percentiles (client-side, from the log2
//! histogram buckets the `metrics` op ships), per-worker utilization
//! bars, and the newest request-log lines. `--once` prints a single
//! plain snapshot (what CI asserts against); `--json` dumps the raw
//! metrics + log documents for dashboards.
//!
//! The rendering helpers are pure (`Value` in, string out);
//! `xp cache stats --json` builds its document with [`cache_scan_json`].

use obs::json::Value;
use std::time::{Duration, Instant};
use svc::Client;

/// A quantile over the `metrics` op's histogram-bucket JSON
/// (`[{"ge": floor, "count": n}, ...]`, floors ascending): the floor of
/// the first bucket at or past the `q`-th sample — the same
/// bucket-resolution answer `Histogram::quantile_floor` gives
/// server-side.
pub fn quantile_from_buckets(hist: &Value, q: f64) -> u64 {
    let count = hist["count"].as_u64().unwrap_or(0);
    if count == 0 {
        return 0;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil() as u64;
    let mut seen = 0u64;
    if let Some(buckets) = hist["buckets"].as_array() {
        for b in buckets {
            seen += b["count"].as_u64().unwrap_or(0);
            if seen >= target {
                return b["ge"].as_u64().unwrap_or(0);
            }
        }
    }
    hist["max"].as_u64().unwrap_or(0)
}

/// Total requests across every `svc.requests.*` counter.
pub fn total_requests(metrics: &Value) -> u64 {
    match metrics.get("counters") {
        Some(Value::Object(pairs)) => pairs
            .iter()
            .filter(|(k, _)| k.starts_with("svc.requests."))
            .filter_map(|(_, v)| v.as_u64())
            .sum(),
        _ => 0,
    }
}

/// Error requests across the `svc.requests.*.error` counters.
pub fn error_requests(metrics: &Value) -> u64 {
    match metrics.get("counters") {
        Some(Value::Object(pairs)) => pairs
            .iter()
            .filter(|(k, _)| k.starts_with("svc.requests.") && k.ends_with(".error"))
            .filter_map(|(_, v)| v.as_u64())
            .sum(),
        _ => 0,
    }
}

/// Cache hit ratio (hits over lookups), `None` before any lookup.
pub fn hit_ratio(metrics: &Value) -> Option<f64> {
    let hits = metrics["counters"]["svc.cache.hits"].as_u64().unwrap_or(0);
    let misses = metrics["counters"]["svc.cache.misses"]
        .as_u64()
        .unwrap_or(0);
    if hits + misses == 0 {
        None
    } else {
        Some(hits as f64 / (hits + misses) as f64)
    }
}

/// A 10-cell utilization bar: `[####......]` at 40%.
fn bar(fraction: f64) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * 10.0).round() as usize;
    format!("[{}{}]", "#".repeat(filled), ".".repeat(10 - filled))
}

/// Render one console screen from a `metrics` snapshot, the matching
/// `log` tail, and the request rate computed from the previous poll
/// (`None` on the first).
pub fn render_top(addr: &str, metrics: &Value, log: &Value, rate: Option<f64>) -> String {
    let mut out = String::new();
    let uptime = metrics["uptime_secs"].as_f64().unwrap_or(0.0);
    out.push_str(&format!("xp top — {addr} (uptime {uptime:.1}s)\n"));

    let total = total_requests(metrics);
    let errors = error_requests(metrics);
    let rate = match rate {
        Some(r) => format!("{r:.1}/s"),
        None => "-/s".to_string(),
    };
    out.push_str(&format!(
        "requests: {total} total, {rate} request rate, {errors} errors\n"
    ));

    let ratio = match hit_ratio(metrics) {
        Some(r) => format!("{:.1}% hit ratio", r * 100.0),
        None => "no lookups yet".to_string(),
    };
    let counter = |name: &str| metrics["counters"][name].as_u64().unwrap_or(0);
    out.push_str(&format!(
        "cache:    {} hits / {} misses ({ratio}), {} stores, {} corrupt; {} entries, {} bytes\n",
        counter("svc.cache.hits"),
        counter("svc.cache.misses"),
        counter("svc.cache.stores"),
        counter("svc.cache.corrupt"),
        metrics["gauges"]["svc.cache.entries"]
            .as_f64()
            .unwrap_or(0.0) as u64,
        metrics["gauges"]["svc.cache.bytes"].as_f64().unwrap_or(0.0) as u64,
    ));
    out.push_str(&format!(
        "cells:    {} hit, {} computed, {} joined, {} failed; runs_failed {}\n",
        counter("svc.cells.hit"),
        counter("svc.cells.computed"),
        counter("svc.flight.joins"),
        counter("svc.cells.failed"),
        counter("svc.runs_failed"),
    ));
    out.push_str(&format!(
        "pool:     {} jobs done, {} failed, {} batches\n",
        counter("svc.pool.jobs_done"),
        counter("svc.pool.jobs_failed"),
        counter("svc.pool.batches"),
    ));

    let lat = &metrics["histograms"]["svc.request_us"];
    out.push_str(&format!(
        "latency:  request µs p50≥{} p90≥{} p99≥{} (n={})\n",
        quantile_from_buckets(lat, 0.50),
        quantile_from_buckets(lat, 0.90),
        quantile_from_buckets(lat, 0.99),
        lat["count"].as_u64().unwrap_or(0),
    ));

    let busy = metrics["gauges"]["svc.workers_busy"]
        .as_f64()
        .unwrap_or(0.0) as u64;
    let queue = metrics["gauges"]["svc.queue_depth"].as_f64().unwrap_or(0.0) as u64;
    let inflight = metrics["gauges"]["svc.inflight_cells"]
        .as_f64()
        .unwrap_or(0.0) as u64;
    let workers = log_none(metrics["workers"].as_array());
    out.push_str(&format!(
        "workers:  {busy}/{} busy, queue {queue}, {inflight} cells in flight\n",
        workers.len()
    ));
    for (i, w) in workers.iter().enumerate() {
        let fraction = w["busy_fraction"].as_f64().unwrap_or(0.0);
        out.push_str(&format!(
            "  w{i} {} {:5.1}% busy, {} jobs{}\n",
            bar(fraction),
            fraction * 100.0,
            w["jobs"].as_u64().unwrap_or(0),
            if w["busy"].as_bool() == Some(true) {
                " (busy now)"
            } else {
                ""
            },
        ));
    }

    let records = log_none(log["records"].as_array());
    if !records.is_empty() {
        out.push_str("recent requests (oldest first):\n");
        for r in records {
            let detail = r["detail"].as_str().unwrap_or("");
            out.push_str(&format!(
                "  {} {:8} {:5} {:8.1}ms{}{}\n",
                r["trace_id"].as_str().unwrap_or("?"),
                r["op"].as_str().unwrap_or("?"),
                if r["ok"].as_bool() == Some(true) {
                    "ok"
                } else {
                    "ERROR"
                },
                r["wall_secs"].as_f64().unwrap_or(0.0) * 1e3,
                if detail.is_empty() { "" } else { " — " },
                detail,
            ));
        }
    }
    out
}

fn log_none(v: Option<&Vec<Value>>) -> &[Value] {
    v.map(Vec::as_slice).unwrap_or(&[])
}

/// `xp cache stats --json`: one scan as a machine-readable document.
pub fn cache_scan_json(root: &std::path::Path, scan: &svc::ScanReport) -> Value {
    Value::object(vec![
        ("root", root.display().to_string().as_str().into()),
        ("entries", scan.entries.into()),
        ("bytes", scan.bytes.into()),
        (
            "oldest_unix",
            scan.oldest_unix.map(Value::from).unwrap_or(Value::Null),
        ),
        (
            "newest_unix",
            scan.newest_unix.map(Value::from).unwrap_or(Value::Null),
        ),
    ])
}

/// `xp top`: poll the server and render. `once` prints one snapshot and
/// returns; `json` dumps the raw metrics + log documents instead of the
/// console rendering (single-shot as well). The live loop clears the
/// screen per poll and runs until the server goes away or the process is
/// interrupted.
pub fn run(addr: &str, interval: Duration, once: bool, json: bool) -> Result<(), String> {
    let client = Client::new(addr, crate::spec::CODE_VERSION);
    let mut prev: Option<(u64, Instant)> = None;
    loop {
        let metrics = client.metrics(false)?;
        let log = client.log_tail(10)?;
        if json {
            let doc = Value::object(vec![("metrics", metrics), ("log", log)]);
            println!("{}", doc.to_string_pretty());
            return Ok(());
        }
        let now = Instant::now();
        let total = total_requests(&metrics);
        let rate = prev.map(|(last_total, at)| {
            let dt = now.duration_since(at).as_secs_f64().max(1e-9);
            (total.saturating_sub(last_total)) as f64 / dt
        });
        prev = Some((total, now));
        if once {
            print!("{}", render_top(addr, &metrics, &log, rate));
            return Ok(());
        }
        // ANSI clear + home, like `watch`: one screen per poll.
        print!("\x1b[2J\x1b[H{}", render_top(addr, &metrics, &log, rate));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Value {
        Value::parse(
            r#"{
            "event":"metrics","schema":"ddnomp-metrics v1","uptime_secs":12.5,
            "workers":[
                {"busy":true,"busy_fraction":0.42,"busy_secs":5.2,"jobs":7},
                {"busy":false,"busy_fraction":0.10,"busy_secs":1.2,"jobs":3}
            ],
            "counters":{
                "svc.requests.run.ok":4,"svc.requests.ping.ok":2,
                "svc.requests.run.error":1,
                "svc.cache.hits":6,"svc.cache.misses":2,"svc.cache.stores":2,
                "svc.pool.jobs_done":2,"svc.pool.jobs_failed":0,"svc.pool.batches":5,
                "svc.cells.hit":6,"svc.cells.computed":2,
                "svc.flight.joins":1,"svc.cells.failed":0,"svc.runs_failed":0
            },
            "gauges":{
                "svc.cache.entries":2,"svc.cache.bytes":4096,
                "svc.queue_depth":1,"svc.workers_busy":1,"svc.inflight_cells":3
            },
            "histograms":{
                "svc.request_us":{"count":10,"sum":1000,"min":8,"max":512,"mean":100,
                    "buckets":[{"ge":8,"count":5},{"ge":64,"count":4},{"ge":512,"count":1}]}
            }
        }"#,
        )
        .unwrap()
    }

    fn sample_log() -> Value {
        Value::parse(
            r#"{"event":"log","count":1,"records":[
                {"seq":0,"trace_id":"deadbeefdeadbeef","op":"run","ok":true,
                 "detail":"4 cells — 4 cached, 0 computed, 0 joined, 0 errors",
                 "wall_secs":0.012}
            ]}"#,
        )
        .unwrap()
    }

    #[test]
    fn quantiles_walk_the_cumulative_buckets() {
        let h = &sample_metrics()["histograms"]["svc.request_us"];
        assert_eq!(quantile_from_buckets(h, 0.5), 8); // 5 of 10 in the first
        assert_eq!(quantile_from_buckets(h, 0.9), 64); // 9 of 10 by the second
        assert_eq!(quantile_from_buckets(h, 0.99), 512);
        assert_eq!(quantile_from_buckets(&Value::object(vec![]), 0.5), 0);
    }

    #[test]
    fn request_totals_and_hit_ratio_sum_the_counters() {
        let m = sample_metrics();
        assert_eq!(total_requests(&m), 7);
        assert_eq!(error_requests(&m), 1);
        assert_eq!(hit_ratio(&m), Some(0.75));
        assert_eq!(hit_ratio(&Value::object(vec![])), None);
    }

    #[test]
    fn the_console_shows_rate_ratio_percentiles_and_workers() {
        let text = render_top("127.0.0.1:1", &sample_metrics(), &sample_log(), Some(3.25));
        assert!(
            text.contains("7 total, 3.2/s request rate, 1 errors"),
            "{text}"
        );
        assert!(
            text.contains("75.0% hit ratio), 2 stores, 0 corrupt"),
            "{text}"
        );
        assert!(text.contains("2 jobs done, 0 failed, 5 batches"), "{text}");
        assert!(text.contains("p50≥8 p90≥64 p99≥512"), "{text}");
        assert!(
            text.contains("1/2 busy, queue 1, 3 cells in flight"),
            "{text}"
        );
        assert!(
            text.contains("w0 [####......]  42.0% busy, 7 jobs (busy now)"),
            "{text}"
        );
        assert!(text.contains("deadbeefdeadbeef run"), "{text}");
        // First poll has no delta to rate from.
        let text = render_top("127.0.0.1:1", &sample_metrics(), &sample_log(), None);
        assert!(text.contains("-/s request rate"), "{text}");
    }

    #[test]
    fn cache_scan_json_carries_the_scan() {
        let scan = svc::ScanReport {
            entries: 2,
            bytes: 4096,
            oldest_unix: Some(100),
            newest_unix: Some(200),
        };
        let v = cache_scan_json(std::path::Path::new("/tmp/c"), &scan);
        assert_eq!(v["entries"].as_u64(), Some(2));
        assert_eq!(v["bytes"].as_u64(), Some(4096));
        assert_eq!(v["oldest_unix"].as_u64(), Some(100));
        let no_times = svc::ScanReport {
            entries: 0,
            bytes: 0,
            oldest_unix: None,
            newest_unix: None,
        };
        let v = cache_scan_json(std::path::Path::new("/tmp/c"), &no_times);
        assert!(matches!(v["oldest_unix"], Value::Null));
    }
}
