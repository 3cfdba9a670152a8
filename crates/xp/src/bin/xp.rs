//! `xp` — the experiment driver.
//!
//! ```text
//! xp [COMMAND] [--scale tiny|small|medium] [--seed N] [--jobs N] [--out DIR] [--trace DIR]
//! xp trace <bt|sp|cg|mg|ft> [--scale tiny|small|medium] [--out DIR]
//! ```
//!
//! Prints each experiment's markdown table to stdout, writes the raw rows
//! as JSON under the output directory (default `results/`), and records
//! per-experiment timing in `results/bench_summary.json`.
//!
//! Experiment cells run on a host-parallel worker pool (`--jobs N`,
//! default: available parallelism); reports are byte-identical for every
//! jobs count (see `crates/xp/src/cells.rs`).
//!
//! The command line is two tables in `xp::cli`: `EXPERIMENTS` (what `all`
//! runs and what a bare experiment name dispatches to) and `FLAGS` (every
//! flag, whether it takes a value, and which commands it applies to).

use nas::{BenchName, Scale};
use std::path::{Path, PathBuf};
use xp::cli::{Flag, EXPERIMENTS, FLAGS, TOOLS};
use xp::summary::{SummaryEntry, Tally};
use xp::Report;

const USAGE: &str = "\
xp — experiment driver for the data-distribution study

usage:
  xp [COMMAND] [--scale tiny|small|medium] [--seed N] [--jobs N] [--out DIR] [--trace DIR]
  xp trace <bt|sp|cg|mg|ft> [--scale tiny|small|medium] [--out DIR]
  xp prof <bt|sp|cg|mg|ft>|--all [--scale tiny|small|medium] [--out DIR]
          [--from FILE]
  xp selfprof <bt|sp|cg|mg|ft>|--all [--scale tiny|small|medium] [--out DIR]
  xp lint [--bench bt|sp|cg|mg|ft] [--all] [--deny CODES] [--allow FILE]
          [--emit-placement] [--scale tiny|small|medium] [--out DIR]
  xp serve [--port N|--addr ADDR] [--jobs N] [--cache-dir DIR] [--spans DIR]
  xp client COMMAND [--addr ADDR|--port N] [other COMMAND options]
  xp cache stats|verify|gc [--cache-dir DIR] [--max-bytes N] [--max-age SECS]
          [--json]
  xp top [--addr ADDR|--port N] [--interval MS] [--once] [--json]

commands:
  table1     memory-hierarchy latencies (paper Table 1)
  fig1       placement sensitivity grid (Figure 1)
  fig4       UPMlib distribution engine (Figure 4)
  table2     residual slowdown + migration timing (Table 2)
  fig5       record-replay on BT and SP (Figure 5)
  fig6       record-replay with lengthened phases (Figure 6)
  ablations  sensitivity studies beyond the paper
  multiprog  job mixes under the kernel scheduler: per-job slowdown per
             policy (gang/space/timeshare) x engine variant
  staticplace four-way head-to-head beyond the paper: {first-touch,
             lint-synthesized static placement} x {no engine, UPMlib},
             with synthesis accounting (flip pages, residual migrations)
  all        everything above (default)
  trace      run one benchmark with event tracing; writes trace.jsonl and
             trace.chrome.json (open in Perfetto) under the output dir
  prof       trace-driven NUMA profile: per-phase attribution, page
             heatmaps and convergence diagnostics; writes
             prof-<bench>.{md,jsonl,chrome.json} under the output dir
             (--from FILE re-analyses a saved trace.jsonl offline)
  selfprof   host-side self-profile: where the simulator's own host CPU
             time goes (span tree, per-component breakdown); writes
             selfprof-<bench>.{md,jsonl,chrome.json} under the output dir
  lint       static NUMA/race analysis of the benchmark kernels (no machine
             simulation); exits 1 if a denied finding is not allowlisted
  serve      resident experiment server: owns one long-lived worker pool
             and the result cache, batches cells from concurrent clients,
             dedupes cached and in-flight work; serves until a client
             sends shutdown
  client     run COMMAND, resolving its cells against the server at --addr
             (default 127.0.0.1:46137); falls back to in-process execution
             when no compatible server answers
  cache      result-cache maintenance: `stats` (counters + disk usage),
             `verify` (integrity-check every entry, drop damaged ones),
             `gc` (evict by age and/or total size)
  top        live ops console over a running server: request rate, cache
             hit ratio, latency percentiles, per-worker utilization and
             the newest request-log lines, one screen per --interval
             (--once for a single plain snapshot, --json for the raw
             metrics + log documents)

options:
  --scale tiny|small|medium  problem scale (default medium)
  --seed N                   experiment seed for seeded components such as
                             random placement (default 20000)
  --jobs N                   worker threads for experiment cells (default:
                             available parallelism; reports are identical
                             for every N)
  --out DIR                  output directory for reports (default results/)
  --trace DIR                also record an event trace of every run into
                             DIR (commands other than trace)
  --bench NAME               restrict lint to one benchmark
  --all                      all five benchmarks (lint: default; prof and
                             selfprof: instead of a positional benchmark)
  --from FILE                prof: analyse a saved trace.jsonl instead of
                             running the benchmark
  --deny CODES               comma list of lint categories (races,
                             false-sharing, numa, perf, determinism, all)
                             and/or codes (L001..L009) that fail the run
  --allow FILE               lint allowlist file (default: lint.allow in the
                             current directory, when present)
  --emit-placement           lint: also write the synthesized placement maps
                             as placement-<bench>-<scale>.json under --out
  --cache                    resolve experiment cells against the on-disk
                             result cache and store fresh results back
  --cache-dir DIR            cache directory (default: OUT/cache)
  --addr ADDR                serve: address to bind; client: server address
  --port N                   shorthand for --addr 127.0.0.1:N (0 = ephemeral
                             when serving)
  --max-bytes N              cache gc: keep at most N bytes (newest first)
  --max-age SECS             cache gc: drop entries older than SECS
  --spans DIR                serve: record host-side spans for the whole
                             server lifetime; on shutdown write
                             svc-spans.jsonl and svc-spans.chrome.json
                             (open in Perfetto; one span tree per traced
                             request) under DIR
  --json                     top/cache stats: machine-readable output
                             instead of the human rendering
  --interval MS              top: poll interval in milliseconds
                             (default 1000)
  --once                     top: print one snapshot and exit
  -h, --help                 show this help
";

/// A usage error: the command line cannot be run as written.
fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("run `xp --help` for usage");
    std::process::exit(2);
}

/// A runtime failure of a well-formed command (no server, a missing file, a
/// taken port): the usage text would not help.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// The parsed command line: flag occurrences in order, and the positionals.
struct Args {
    flags: Vec<(&'static Flag, String)>,
    positionals: Vec<String>,
}

impl Args {
    /// Scan the command line against [`FLAGS`]; `None` when help was asked
    /// for.
    fn parse() -> Option<Args> {
        let mut args = Args {
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            if arg == "-h" || arg == "--help" {
                return None;
            }
            if !arg.starts_with('-') {
                args.positionals.push(arg);
                continue;
            }
            let flag = FLAGS
                .iter()
                .find(|f| f.name == arg)
                .unwrap_or_else(|| die(&format!("unknown flag '{arg}'")));
            let value = flag.value.map(|noun| {
                it.next()
                    .unwrap_or_else(|| die(&format!("{} needs {noun}", flag.name)))
            });
            args.flags.push((flag, value.unwrap_or_default()));
        }
        Some(args)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f.name == name)
    }

    /// The flag's value; the last occurrence wins.
    fn get(&self, name: &str) -> Option<&str> {
        let last = self.flags.iter().rev().find(|(f, _)| f.name == name);
        last.map(|(_, v)| v.as_str())
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }

    /// The flag's value as a number passing `ok`, or exit 2 saying it
    /// needs `what`.
    fn num<T: std::str::FromStr>(&self, name: &str, what: &str, ok: fn(&T) -> bool) -> Option<T> {
        self.get(name).map(|v| {
            v.parse()
                .ok()
                .filter(ok)
                .unwrap_or_else(|| die(&format!("{name} needs {what}, got '{v}'")))
        })
    }

    /// Exit 2 on a flag given to a command outside its `commands` set,
    /// naming the flags that share the set and the commands in it.
    fn check_scopes(&self, command: &str, client_mode: bool) {
        for (flag, _) in &self.flags {
            if flag.applies_to(command, client_mode) {
                continue;
            }
            let group: Vec<&str> = FLAGS
                .iter()
                .filter(|f| f.commands == flag.commands)
                .map(|f| f.name)
                .collect();
            let verb = if group.len() == 1 { "applies" } else { "apply" };
            let mut commands: Vec<String> =
                flag.commands.iter().map(|c| format!("`xp {c}`")).collect();
            let mut list = commands.pop().expect("a scoped flag names its commands");
            if !commands.is_empty() {
                list = format!("{} and {list}", commands.join(", "));
            }
            die(&format!("{} {verb} to {list}", group.join("/")));
        }
    }
}

/// Exit 2 on a positional argument at `index`.
fn no_argument(positionals: &[String], index: usize) {
    if let Some(extra) = positionals.get(index) {
        die(&format!("unexpected argument '{extra}'"));
    }
}

fn bench_arg(name: &str) -> BenchName {
    BenchName::parse(name).unwrap_or_else(|| {
        die(&format!(
            "unknown benchmark '{name}' (expected bt|sp|cg|mg|ft)"
        ))
    })
}

/// The benchmarks `--bench NAME` selects: that one, or all five.
fn benches_arg(args: &Args) -> Vec<BenchName> {
    match args.get("--bench") {
        Some(name) => vec![bench_arg(name)],
        None => BenchName::all().to_vec(),
    }
}

/// The benchmarks `xp prof|selfprof <bench>|--all` names.
fn bench_or_all(command: &str, args: &Args) -> Vec<BenchName> {
    let benches = match (args.positionals.get(1), args.has("--all")) {
        (Some(_), true) => die(&format!("{command} takes a benchmark or --all, not both")),
        (None, false) => die(&format!(
            "{command} needs a benchmark (expected bt|sp|cg|mg|ft) or --all"
        )),
        (None, true) => BenchName::all().to_vec(),
        (Some(name), false) => vec![bench_arg(name)],
    };
    no_argument(&args.positionals, 2);
    benches
}

/// `xp serve`: bind, announce the bound address on stdout (parseable —
/// tests and scripts bind `--port 0`), serve until a client shuts us
/// down. With `spans_dir`, the whole server lifetime runs under a
/// hostprof session; shutdown writes the span record (JSONL + Chrome
/// trace for Perfetto) before exiting — every traced request appears as
/// one `svc.run:<trace_id>` tree with its `svc.compute:<trace_id>`
/// worker subtree.
fn serve(addr: &str, cache_root: &Path, spans_dir: Option<&Path>) -> ! {
    use std::io::Write as _;
    let cache = svc::Cache::new(cache_root);
    let server = svc::Server::bind(
        addr,
        xp::jobs::get(),
        cache,
        xp::spec::compute(),
        xp::spec::CODE_VERSION,
    )
    .unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
    let bound = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    println!("[svc] listening on {bound}");
    let _ = std::io::stdout().flush();
    eprintln!(
        "[svc] cache at {}, {} worker(s), code {} — serving until a client sends shutdown",
        cache_root.display(),
        xp::jobs::get(),
        xp::spec::CODE_VERSION
    );
    let session = spans_dir.map(|_| hostprof::start());
    let outcome = server.run();
    if let (Some(session), Some(dir)) = (session, spans_dir) {
        let report = session.finish();
        let jsonl = hostprof::export::to_jsonl(&report);
        let trace = hostprof::export::chrome_trace(&report, "xp serve");
        match xp::artifacts::write(dir, "svc-spans", None, &jsonl, &trace) {
            Ok((jsonl, chrome)) => {
                eprintln!("[svc] saved {} and {}", jsonl.display(), chrome.display())
            }
            Err(e) => eprintln!("[svc] warn: could not write span artifacts: {e}"),
        }
    }
    match outcome {
        Ok(()) => {
            eprintln!("[svc] shutdown");
            std::process::exit(0);
        }
        Err(e) => fail(&format!("server failed: {e}")),
    }
}

/// `xp cache stats|verify|gc`; `gc` evicts down to the `--max-bytes` and
/// `--max-age` bounds.
fn cache_admin(args: &Args, root: &Path, max_bytes: Option<u64>, max_age: Option<u64>) {
    no_argument(&args.positionals, 2);
    let sub = args.positionals.get(1).map(String::as_str);
    let json = args.has("--json");
    if json && sub != Some("stats") {
        die("--json applies to `xp cache stats`");
    }
    let cache = svc::Cache::new(root);
    match sub {
        Some("stats") => {
            let scan = cache.scan();
            if json {
                println!(
                    "{}",
                    xp::top::cache_scan_json(root, &scan).to_string_pretty()
                );
                return;
            }
            println!(
                "cache {}: {} entries, {} bytes",
                root.display(),
                scan.entries,
                scan.bytes
            );
            if let (Some(oldest), Some(newest)) = (scan.oldest_unix, scan.newest_unix) {
                println!("  oldest entry: unix {oldest}; newest entry: unix {newest}");
            }
        }
        Some("verify") => {
            let v = cache.verify();
            println!(
                "cache {}: {} entries ok, {} corrupt (removed)",
                root.display(),
                v.ok,
                v.corrupt.len()
            );
            for p in &v.corrupt {
                eprintln!("  removed {}", p.display());
            }
            if !v.corrupt.is_empty() {
                std::process::exit(1);
            }
        }
        Some("gc") => {
            if max_bytes.is_none() && max_age.is_none() {
                die("cache gc needs --max-bytes and/or --max-age");
            }
            let g = cache.gc(max_bytes, max_age);
            println!(
                "cache {}: evicted {} entries ({} bytes), kept {} ({} bytes)",
                root.display(),
                g.evicted,
                g.evicted_bytes,
                g.kept,
                g.kept_bytes
            );
        }
        Some(other) => die(&format!(
            "unknown cache subcommand '{other}' (expected stats|verify|gc)"
        )),
        None => die("cache needs a subcommand: stats|verify|gc"),
    }
}

/// A command that is not in [`EXPERIMENTS`]: its summary id plus the
/// closure producing its reports, its tally and why the process must exit
/// 1 once every report is written (the lint gate), if it must.
type Job = (&'static str, Box<dyn FnOnce() -> ToolRun>);

type ToolRun = (Vec<Report>, Tally, Option<String>);

/// The job of a command that is not in [`EXPERIMENTS`].
fn tool_job(command: &str, args: &Args, scale: Scale, out_dir: &Path) -> Job {
    let out = out_dir.to_path_buf();
    match command {
        "trace" => {
            let name = args
                .positionals
                .get(1)
                .unwrap_or_else(|| die("trace needs a benchmark (expected bt|sp|cg|mg|ft)"));
            no_argument(&args.positionals, 2);
            let bench = bench_arg(name);
            (
                "trace",
                Box::new(move || {
                    let (report, tally) = xp::trace::run(bench, scale, &out);
                    (vec![report], tally, None)
                }),
            )
        }
        "prof" => {
            let benches = bench_or_all(command, args);
            let from = args.path("--from");
            if from.is_some() && benches.len() != 1 {
                die("--from profiles one saved trace; name the benchmark it came from");
            }
            (
                "prof",
                Box::new(move || {
                    let (reports, tally) = match from {
                        Some(path) => match xp::prof::run_from(&path, benches[0], scale, &out) {
                            Ok(report) => (vec![report], Tally::default()),
                            Err(e) => fail(&e),
                        },
                        None => xp::prof::run(&benches, scale, &out),
                    };
                    (reports, tally, None)
                }),
            )
        }
        "selfprof" => {
            let benches = bench_or_all(command, args);
            (
                "selfprof",
                Box::new(move || {
                    let (reports, tally) = xp::selfprof::run(&benches, scale, &out);
                    (reports, tally, None)
                }),
            )
        }
        "lint" => {
            if args.has("--all") && args.has("--bench") {
                die("--all and --bench are mutually exclusive");
            }
            let benches = benches_arg(args);
            let deny =
                lint::parse_deny(args.get("--deny").unwrap_or("")).unwrap_or_else(|e| die(&e));
            let allow_path = args.path("--allow").or_else(|| {
                Path::new("lint.allow")
                    .exists()
                    .then(|| "lint.allow".into())
            });
            let allow = match &allow_path {
                Some(p) => lint::Allowlist::load(p)
                    .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", p.display()))),
                None => lint::Allowlist::empty(),
            };
            if let Some(p) = &allow_path {
                eprintln!("[allowlist {} ({} keys)]", p.display(), allow.len());
            }
            let emit_placement = args.has("--emit-placement");
            (
                "lint",
                Box::new(move || {
                    let run = xp::lint::run(&benches, scale, &deny, &allow);
                    for f in &run.denied {
                        eprintln!("denied: {}", f.render());
                    }
                    let failed = (!run.denied.is_empty()).then(|| {
                        format!(
                            "lint: {} denied findings (see rows marked `denied`)",
                            run.denied.len()
                        )
                    });
                    if emit_placement {
                        match xp::lint::emit_placement(&run.maps, scale, &out) {
                            Ok(paths) => {
                                for p in paths {
                                    eprintln!("[saved {}]", p.display());
                                }
                            }
                            Err(e) => fail(&format!("cannot write placement maps: {e}")),
                        }
                    }
                    (vec![run.report], Tally::default(), failed)
                }),
            )
        }
        other => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            die(&format!(
                "unknown command '{other}' (expected {}|{})",
                names.join("|"),
                TOOLS.join("|")
            ))
        }
    }
}

fn main() {
    let Some(mut args) = Args::parse() else {
        print!("{USAGE}");
        return;
    };
    // Values first, in table order: a malformed value is reported whatever
    // the command.
    let scale = match args.get("--scale") {
        None => Scale::Medium,
        Some(v) => Scale::parse(v)
            .unwrap_or_else(|| die(&format!("unknown scale '{v}' (expected tiny|small|medium)"))),
    };
    if let Some(seed) = args.num::<u64>("--seed", "an integer", |_| true) {
        xp::seed::set(seed);
    }
    if let Some(jobs) = args.num::<usize>("--jobs", "a positive integer", |&n| n >= 1) {
        xp::jobs::set(jobs);
    }
    let port = args.num::<u16>("--port", "a port number", |_| true);
    let max_bytes = args.num::<u64>("--max-bytes", "an integer", |_| true);
    let max_age = args.num::<u64>("--max-age", "seconds", |_| true);
    let interval_ms = args.num::<u64>("--interval", "positive milliseconds", |&n| n >= 1);
    let out_dir = args.path("--out").unwrap_or_else(|| "results".into());

    // Client mode is a prefix: `xp client fig5 ...` runs fig5 with its
    // cells offered to the resident server first.
    let client_mode = args.positionals.first().map(String::as_str) == Some("client");
    if client_mode {
        args.positionals.remove(0);
    }
    let command = args
        .positionals
        .first()
        .cloned()
        .unwrap_or_else(|| "all".into());
    let command = command.as_str();
    if args.has("--addr") && port.is_some() {
        die("--addr and --port are mutually exclusive");
    }
    args.check_scopes(command, client_mode);
    if client_mode && matches!(command, "serve" | "cache" | "client" | "top") {
        die(&format!("`xp client {command}` is not a thing"));
    }
    let server_addr = match args.get("--addr") {
        Some(addr) => addr.to_string(),
        None => format!("127.0.0.1:{}", port.unwrap_or(svc::DEFAULT_PORT)),
    };
    let cache_root = args
        .path("--cache-dir")
        .unwrap_or_else(|| out_dir.join("cache"));

    // The commands that are not runs: serve, inspect, maintain.
    if matches!(command, "serve" | "top") {
        no_argument(&args.positionals, 1);
    }
    match command {
        "cache" => return cache_admin(&args, &cache_root, max_bytes, max_age),
        "serve" => serve(&server_addr, &cache_root, args.path("--spans").as_deref()),
        "top" => {
            let interval = std::time::Duration::from_millis(interval_ms.unwrap_or(1000));
            let json = args.has("--json");
            if let Err(e) = xp::top::run(&server_addr, interval, args.has("--once"), json) {
                fail(&e);
            }
            return;
        }
        _ => {}
    }

    if args.has("--cache") {
        xp::cache::install(Some(svc::Cache::new(&cache_root)));
    }
    if client_mode {
        xp::remote::install(Some(svc::Client::new(&server_addr, xp::spec::CODE_VERSION)));
    }
    if !matches!(command, "trace" | "prof" | "selfprof") {
        no_argument(&args.positionals, 1);
        xp::trace::set_dir(args.path("--trace"));
    } else if args.has("--trace") {
        die(&format!(
            "--trace applies to the other commands; `xp {command}` manages its own tracing"
        ));
    }

    // Experiments run as one sweep (`all` is every row of the table); a
    // tool runs alone.
    let rows: Vec<_> = (EXPERIMENTS.iter())
        .filter(|(id, _)| command == "all" || *id == command)
        .copied()
        .collect();
    let (done, mut failed) = if rows.is_empty() {
        let (id, job) = tool_job(command, &args, scale, &out_dir);
        let t0 = std::time::Instant::now();
        let (reports, tally, failed) = job();
        let wall_secs = t0.elapsed().as_secs_f64();
        let entry = SummaryEntry {
            id: id.to_string(),
            wall_secs,
            tally,
        };
        (vec![(entry, reports)], Vec::from_iter(failed))
    } else {
        (xp::grid::sweep(&rows, scale), Vec::new())
    };

    // Per experiment: its reports, then the pool-telemetry footer of its
    // part of the plans. The footer goes to stdout only, never into the
    // saved JSON, so result trees stay identical across --jobs counts.
    for (entry, reports) in &done {
        for report in reports {
            print!("{}", report.to_markdown());
            match report.save_json(&out_dir) {
                Ok(path) => eprintln!("[saved {}]", path.display()),
                Err(e) => eprintln!("[warn: could not save {}: {e}]", report.id),
            }
        }
        let footer = entry.tally.footer();
        if !footer.is_empty() {
            for line in footer {
                println!("[pool] {line}");
            }
            println!();
        }
    }
    let entries: Vec<SummaryEntry> = done.into_iter().map(|(entry, _)| entry).collect();
    match xp::summary::write(
        &out_dir,
        scale.label(),
        xp::seed::get(),
        xp::jobs::get(),
        &entries,
    ) {
        Ok(path) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("[warn: could not save bench_summary.json: {e}]"),
    }
    if let Some(line) = xp::cache::stats_line() {
        eprintln!("[{line}]");
    }
    failed.extend(xp::summary::failures(&entries));
    if !failed.is_empty() {
        eprintln!("{}", failed.join("\n"));
        std::process::exit(1);
    }
}
