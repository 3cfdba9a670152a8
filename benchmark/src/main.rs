//! `ledger`: run one workload (the form the driver calls), all six, or
//! compare two result directories. Run it from the repository root.

use ledger::metrics::{is_end_to_end, Kind, METRICS};
use ledger::run::{self, RunArgs, Workload, DEFAULT_SECONDS, DEFAULT_SEED};
use obs::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: ledger --workload <W> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
                                                    run one workload; W is one of exact,
                                                    replay, migrate, sweep-cold, sweep-warm,
                                                    sweep-served
       ledger all [--seed N] [--seconds S] [--smoke] [--out DIR]
                                                    every workload, untraced then traced
       ledger compare <DIR-A> <DIR-B>               one row per (metric, workload)
       ledger manifest                              print BENCHMARK.json from the metric table
       ledger expected [--out DIR]                  print expected.json (simulated digests)
Results go to DIR/<workload>/ (default benchmark/out, relative to the current directory).";

fn die(msg: &str) -> ExitCode {
    eprintln!("ledger: {msg}\n{USAGE}");
    ExitCode::from(2)
}

struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                f.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => f.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                f.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&f.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--smoke" => f.smoke = true,
            "--out" => f.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(f)
}

fn run_one(f: Flags, workload: Workload, started: Instant) -> ExitCode {
    let dir = f.out.join(workload.name());
    let args = RunArgs {
        workload,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        smoke: f.smoke,
        out: dir.clone(),
    };
    let outcome = run::run(&args, started);
    if let Err(e) = run::write_result(&args, &outcome, &dir) {
        eprintln!("ledger: writing the result file: {e}");
        return ExitCode::FAILURE;
    }
    run::print_report(&args, &outcome);
    if outcome.ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Each workload in a process of its own (so `peak_rss_mb` is that
/// workload's), untraced first, then traced.
fn run_all(f: &Flags) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ledger: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &f.seed.to_string()])
                .args(["--seconds", &f.seconds.to_string()])
                .arg("--out")
                .arg(&f.out);
            if f.smoke {
                cmd.arg("--smoke");
            }
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => failed.push(format!("{} --trace {trace}: {status}", workload.name())),
                Err(e) => failed.push(format!("{} --trace {trace}: {e}", workload.name())),
            }
        }
    }
    for f in &failed {
        eprintln!("ledger: FAILED {f}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, generated from the metric table.
fn manifest() -> String {
    let entries = |end_to_end: bool| -> Value {
        Value::Array(
            METRICS
                .iter()
                .filter(|d| is_end_to_end(d) == end_to_end)
                .map(|d| {
                    let mut fields = vec![
                        ("name", Value::from(d.name)),
                        ("unit", d.unit.into()),
                        ("better", d.better.label().into()),
                    ];
                    if let Kind::EndToEnd { bound } = d.kind {
                        fields.push(("bound", bound.into()));
                    }
                    Value::object(fields)
                })
                .collect(),
        )
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::object(vec![
        (
            "command",
            Value::Array(command.iter().map(|s| (*s).into()).collect()),
        ),
        ("paths", Value::Array(vec!["benchmark".into()])),
        ("run_seconds", DEFAULT_SECONDS.into()),
        (
            "workloads",
            Value::Array(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::object(vec![("name", w.name().into()), ("why", w.why().into())])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", entries(true)),
        ("per_layer", entries(false)),
    ])
    .to_string_pretty()
        + "\n"
}

fn main() -> ExitCode {
    let started = Instant::now();
    // The sweep dashboard is a stderr display; nothing here reads it.
    std::env::set_var("XP_DASH", "0");
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            if args.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return die("compare takes two result directories");
            };
            let load = |p: &String| ledger::compare::load_dir(std::path::Path::new(p));
            match (load(a), load(b)) {
                (Ok(a), Ok(b)) => {
                    let (table, failed) = ledger::compare::compare(&a, &b);
                    print!("{table}");
                    if failed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                (Err(e), _) | (_, Err(e)) => die(&e),
            }
        }
        Some("manifest") => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        Some("expected") => match parse_flags(&args[1..]) {
            Ok(f) => {
                print!("{}", run::expected_json(&f.out));
                ExitCode::SUCCESS
            }
            Err(e) => die(&e),
        },
        Some("all") => match parse_flags(&args[1..]) {
            Ok(f) if f.workload.is_none() => run_all(&f),
            Ok(_) => die("all takes no --workload"),
            Err(e) => die(&e),
        },
        Some(_) => match parse_flags(&args) {
            Ok(f) => match f.workload {
                Some(w) => run_one(f, w, started),
                None => die("--workload is required"),
            },
            Err(e) => die(&e),
        },
    }
}
