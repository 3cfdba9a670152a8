//! One workload run: size it from `--seconds`, measure, check, report.
//!
//! The untraced run yields the end-to-end metrics. The traced run is a
//! separate process: two rounds (or a few passes) of the same workload,
//! the odd ones under the benchmark's span recorder and the even ones not
//! (their ratio is the tracing overhead), then the rungs listed under that
//! workload. A per-layer metric has a value on the workloads that exercise
//! its layer ([`On`]) and nowhere else.

use crate::metrics::{is_end_to_end, Kind, MetricDef, Metrics, On, METRICS};
use crate::ops::Ops;
use crate::rungs::{self, Group};
use crate::sim::{self, CellDef, SimKind};
use crate::spans::Recorder;
use crate::stats::odd_over_even;
use crate::sweep::{self, Phase, SweepParams};
use nas::{BenchName, Scale};
use obs::json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed when `--seed` is not given: the one `expected.json` covers in full.
pub const DEFAULT_SEED: u64 = xp::seed::DEFAULT_SEED;
/// `--seconds` the round counts below are calibrated for.
pub const DEFAULT_SECONDS: u64 = 25;
/// Schema tag of the result files.
pub const SCHEMA: &str = "ddnomp-ledger v1";
/// Id of a sweep's report digest among the digests of a run.
const REPORT: &str = "sweep-report";

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Exact,
    Replay,
    Migrate,
    SweepCold,
    SweepWarm,
    SweepServed,
}

/// What a workload runs: simulator cells on this thread, or one phase of
/// the experiment pipeline.
enum Family {
    Sim(SimKind),
    Sweep(Phase),
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Exact,
        Workload::Replay,
        Workload::Migrate,
        Workload::SweepCold,
        Workload::SweepWarm,
        Workload::SweepServed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Exact => "exact",
            Workload::Replay => "replay",
            Workload::Migrate => "migrate",
            Workload::SweepCold => "sweep-cold",
            Workload::SweepWarm => "sweep-warm",
            Workload::SweepServed => "sweep-served",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Exact => "BT, CG, MG, FT at medium, first-touch, fast path off: every access goes through Machine::touch under omp, so ccnuma and omp are nearly all of the time; upmlib, exec and svc are idle",
            Workload::Replay => "the same four cells with the fast path on: each region is recorded once and bulk-replayed after, so recording and validation costs show here and per-access gains mostly do not",
            Workload::Migrate => "fast path on, cells whose engines move pages (BT recrep, FT and CG rand-upmlib, MG rr-IRIXmig, CG wc-IRIXmig): only here do upmlib, the vmm kernel engine and migrate_page run",
            Workload::SweepCold => "a 30-cell CG+MG small grid computed on the exec pool into a fresh result cache: pool scheduling, nas cells and cache stores; nothing is served or looked up",
            Workload::SweepWarm => "the same grid resolved from a filled cache: no cell runs, so lint re-deriving the static placement, spec keys and cache lookups are the whole pass; the pool and the simulator are idle",
            Workload::SweepServed => "the same grid resolved through an in-process svc server over a filled cache, no local cache: protocol, accept loop and server-side lookups on top of the plan build; no cell runs",
        }
    }

    fn family(self) -> Family {
        match self {
            Workload::Exact => Family::Sim(SimKind::Exact),
            Workload::Replay => Family::Sim(SimKind::Replay),
            Workload::Migrate => Family::Sim(SimKind::Migrate),
            Workload::SweepCold => Family::Sweep(Phase::Cold),
            Workload::SweepWarm => Family::Sweep(Phase::Warm),
            Workload::SweepServed => Family::Sweep(Phase::Served),
        }
    }

    /// Whether this workload measures the metrics marked `on`.
    pub fn measures(self, on: On) -> bool {
        let sim = matches!(self.family(), Family::Sim(_));
        match on {
            On::All => true,
            On::Sim => sim,
            On::Sweep => !sim,
            On::Exact => self == Workload::Exact,
            On::Migrate => self == Workload::Migrate,
            On::Cold => self == Workload::SweepCold,
            On::Warm => self == Workload::SweepWarm,
            On::Served => self == Workload::SweepServed,
        }
    }

    /// The rungs listed under this workload; `replay` has none.
    fn rungs(self) -> Option<Group> {
        match self {
            Workload::Exact => Some(Group::Exact),
            Workload::Replay => None,
            Workload::Migrate => Some(Group::Migrate),
            Workload::SweepCold => Some(Group::Cold),
            Workload::SweepWarm => Some(Group::Warm),
            Workload::SweepServed => Some(Group::Served),
        }
    }
}

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny scale, one round: a functional check, not a measurement.
    pub smoke: bool,
    /// Directory the result, the trace and the cache directories go under.
    pub out: PathBuf,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics this workload measured (see [`On`]).
    pub metrics: Metrics,
    pub ops: Ops,
    /// `(id, digest)` of the simulated results checked: one per cell, or
    /// the sweep's report.
    pub digests: Vec<(String, u64)>,
    /// The raw timings behind the reported ones, by name: per cell and
    /// round the step times, per sweep the pass times.
    pub samples: Vec<(String, Vec<f64>)>,
}

fn scaled(base: usize, seconds: u64, floor: usize) -> usize {
    ((base as u64 * seconds + DEFAULT_SECONDS / 2) / DEFAULT_SECONDS).max(floor as u64) as usize
}

/// Rounds of a simulator workload: calibrated so that the default
/// `--seconds` measures for about that long on a 2-core box (an exact
/// round takes 5-7 s, a replay round 4.5-6 s, a migrate round 5-7.5 s).
fn sim_rounds(kind: SimKind, seconds: u64) -> usize {
    let base = match kind {
        SimKind::Exact | SimKind::Replay => 4,
        SimKind::Migrate => 3,
    };
    scaled(base, seconds, 2)
}

fn workers() -> usize {
    exec::Pool::available().min(4)
}

/// Passes and requests of a sweep workload. A cold pass takes 5-7 s here,
/// a warm or served one a quarter of a second after a 5-7 s cache fill.
/// The traced run measures a few passes, half of them traced, and is the
/// one that sends the single-cell requests.
fn sweep_params(phase: Phase, args: &RunArgs) -> SweepParams {
    let (passes, requests) = match (phase, args.trace, args.smoke) {
        (Phase::Cold, false, false) => (scaled(4, args.seconds, 2), 0),
        (Phase::Warm, false, false) => (scaled(40, args.seconds, 4), 0),
        (Phase::Served, false, false) => (scaled(30, args.seconds, 4), 0),
        (Phase::Cold, true, _) => (2, 0),
        (Phase::Warm, true, _) => (6, 0),
        (Phase::Served, true, false) => (6, 400),
        (Phase::Served, true, true) => (6, 20),
        (Phase::Cold, false, true) => (1, 0),
        (_, false, true) => (2, 0),
    };
    SweepParams {
        phase,
        scale: if args.smoke {
            Scale::Tiny
        } else {
            Scale::Small
        },
        kernels: vec![BenchName::Cg, BenchName::Mg],
        passes,
        requests,
        jobs: workers(),
    }
}

/// The committed digests: `{scale: {id: 16 hex digits}}`, valid for every
/// seed on unseeded cells and for [`DEFAULT_SEED`] on seeded ones and on
/// the sweep's report (its grid has random placements).
fn expected() -> Value {
    Value::parse(include_str!("../expected.json")).expect("expected.json is valid JSON")
}

/// What is wrong with `digest` of `id` at `scale`, going by `expected`.
fn expected_problem(expected: &Value, scale: Scale, id: &str, digest: u64) -> Option<String> {
    let got = format!("{digest:016x}");
    match expected[scale.label()][id].as_str() {
        Some(want) if want == got => None,
        Some(want) => Some(format!(
            "{id} at {}: digest {got} differs from expected.json's {want}",
            scale.label()
        )),
        None => Some(format!(
            "{id} at {}: no digest in expected.json (regenerate it with `ledger expected`)",
            scale.label()
        )),
    }
}

/// Every simulator cell's digest and the sweep's report digest at the
/// scales the workloads and their smoke runs use, as `expected.json`.
/// `dir` holds the sweeps' cache directories.
pub fn expected_json(dir: &Path) -> String {
    // `(scale label, id, digest)`, grouped by label in first-seen order.
    let mut rows: Vec<(&str, String, u64)> = Vec::new();
    for (sim_scale, sweep_scale) in [(Scale::Tiny, Scale::Tiny), (Scale::Medium, Scale::Small)] {
        for kind in [SimKind::Replay, SimKind::Migrate] {
            let defs = sim::cells(kind, DEFAULT_SEED);
            let rounds = sim::run_rounds(
                &defs,
                sim_scale,
                true,
                1,
                &|_, _| None,
                &mut Recorder::new(false),
            );
            assert_eq!(rounds.ops.failed, 0, "{:?}", rounds.ops.problems);
            for (id, digest) in rounds.digests() {
                rows.push((sim_scale.label(), id, digest));
            }
        }
        let params = SweepParams {
            phase: Phase::Cold,
            scale: sweep_scale,
            kernels: vec![BenchName::Cg, BenchName::Mg],
            passes: 1,
            requests: 0,
            jobs: workers(),
        };
        let sweep = sweep::run(
            &params,
            DEFAULT_SEED,
            &dir.join("expected"),
            &mut Recorder::new(false),
        );
        assert_eq!(sweep.ops.failed, 0, "{:?}", sweep.ops.problems);
        rows.push((sweep_scale.label(), REPORT.to_string(), sweep.report_digest));
    }
    let mut labels: Vec<&str> = Vec::new();
    for (label, ..) in &rows {
        if !labels.contains(label) {
            labels.push(label);
        }
    }
    let tables = labels
        .into_iter()
        .map(|label| {
            let ids = rows
                .iter()
                .filter(|(l, ..)| *l == label)
                .map(|(_, id, d)| (id.as_str(), Value::from(format!("{d:016x}"))))
                .collect();
            (label, Value::object(ids))
        })
        .collect();
    Value::object(tables).to_string_pretty() + "\n"
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Shares of `exact`'s wall the access and region rungs account for: its
/// counts and wall, unit costs from its rungs.
fn coverage(m: &mut Metrics) {
    let get = |m: &Metrics, name: &str| m.get(name).unwrap_or(0.0);
    let accesses = get(m, "ccnuma.accesses");
    let wall_ns = accesses * get(m, "ccnuma.wall_ns_per_access");
    if wall_ns <= 0.0 {
        return;
    }
    let l1 = accesses * get(m, "ccnuma.l1_hit_frac");
    let l2 = accesses * get(m, "ccnuma.l2_hit_frac");
    let mem = accesses - l1 - l2;
    let remote = mem * get(m, "ccnuma.mem_remote_frac");
    let parts = [
        ("ladder.l1_frac", l1 * get(m, "ccnuma.touch_l1_hit_ns")),
        ("ladder.l2_frac", l2 * get(m, "ccnuma.touch_l2_hit_ns")),
        (
            "ladder.mem_local_frac",
            (mem - remote) * get(m, "ccnuma.touch_mem_local_ns"),
        ),
        (
            "ladder.mem_remote_frac",
            remote * get(m, "ccnuma.touch_mem_remote_ns"),
        ),
        (
            "ladder.region_frac",
            get(m, "ccnuma.regions") * get(m, "omp.region_empty_ns"),
        ),
    ];
    let mut total = 0.0;
    for (name, ns) in parts {
        m.set(name, ns / wall_ns);
        total += ns / wall_ns;
    }
    m.set("ladder.coverage_frac", total);
}

fn run_sim(
    kind: SimKind,
    args: &RunArgs,
    init_s: f64,
    expected: &Value,
    rec: &mut Recorder,
) -> Outcome {
    let scale = if args.smoke {
        Scale::Tiny
    } else {
        Scale::Medium
    };
    let cells = sim::cells(kind, args.seed);
    let check = |cell: &CellDef, digest: u64| {
        if cell.seeded() && args.seed != DEFAULT_SEED {
            return None;
        }
        expected_problem(expected, scale, &cell.id(), digest)
    };
    // Traced: one untraced round, then one traced.
    let n = match (args.trace, args.smoke) {
        (true, _) => 2,
        (false, true) => 1,
        (false, false) => sim_rounds(kind, args.seconds),
    };
    let rounds = sim::run_rounds(&cells, scale, kind.fastpath(), n, &check, rec);
    let mut out = Outcome::default();
    if !rounds.runs.is_empty() {
        if args.trace {
            out.metrics.extend(rounds.layer_metrics());
            out.metrics.set("noise.iqr_frac", rounds.noise());
            if let Some(overhead) = odd_over_even(&rounds.round_walls()) {
                out.metrics.set("trace.overhead_frac", overhead);
            }
        } else {
            out.metrics.set("wall_s", rounds.wall_s());
            out.metrics.set("setup_s", init_s + rounds.new_s());
        }
    }
    out.digests = rounds.digests();
    out.samples = rounds.samples();
    out.ops = rounds.ops;
    out
}

fn run_sweep(
    phase: Phase,
    args: &RunArgs,
    init_s: f64,
    expected: &Value,
    rec: &mut Recorder,
) -> Outcome {
    let params = sweep_params(phase, args);
    let sweep = sweep::run(&params, args.seed, &args.out.join("cache"), rec);
    let mut out = Outcome::default();
    if sweep.complete() {
        if args.trace {
            out.metrics.extend(sweep.layer_metrics(phase));
            if let Some(overhead) = odd_over_even(&sweep.pass_s) {
                out.metrics.set("trace.overhead_frac", overhead);
            }
        } else {
            out.metrics.set("wall_s", sweep.wall_s());
            out.metrics.set("setup_s", init_s + sweep.setup_s());
        }
        out.digests = vec![(REPORT.to_string(), sweep.report_digest)];
    }
    out.samples = sweep.samples();
    out.ops = sweep.ops;
    if args.seed == DEFAULT_SEED && !out.digests.is_empty() {
        let problem = expected_problem(expected, params.scale, REPORT, sweep.report_digest);
        out.ops.record(problem.into_iter().collect());
    }
    out
}

/// Run one workload. `started` is when the process began, so that argument
/// parsing and the golden load count as set-up.
pub fn run(args: &RunArgs, started: Instant) -> Outcome {
    let expected = expected();
    let init_s = started.elapsed().as_secs_f64();
    let mut rec = Recorder::new(args.trace);
    let mut outcome = match args.workload.family() {
        Family::Sim(kind) => run_sim(kind, args, init_s, &expected, &mut rec),
        Family::Sweep(phase) => run_sweep(phase, args, init_s, &expected, &mut rec),
    };
    if args.trace {
        if let Some(group) = args.workload.rungs() {
            let batches = if args.smoke { 3 } else { rungs::BATCHES };
            let ladder = rungs::run(group, &args.out, workers(), batches, &mut rec);
            outcome.metrics.extend(ladder.metrics);
            outcome.ops.absorb(ladder.ops);
        }
        if args.workload == Workload::Exact {
            coverage(&mut outcome.metrics);
        }
        let path = args.out.join("trace.jsonl");
        outcome.ops.value(
            std::fs::create_dir_all(&args.out)
                .and_then(|()| std::fs::write(&path, rec.to_jsonl()))
                .map_err(|e| format!("writing {}: {e}", path.display())),
        );
        print_self_times(&rec);
    } else {
        outcome.metrics.set("peak_rss_mb", peak_rss_mb());
    }
    // An untraced run reports every end-to-end metric, a traced run every
    // per-layer metric its workload measures. A hole fails this check.
    let holes: Vec<String> = METRICS
        .iter()
        .filter(|d| is_end_to_end(d) != args.trace && args.workload.measures(d.on))
        .filter(|d| outcome.metrics.get(d.name).is_none())
        .map(|d| format!("metric {} was not measured", d.name))
        .collect();
    outcome.ops.record(holes);
    outcome
}

fn print_self_times(rec: &Recorder) {
    println!(
        "# self time by layer of the benchmark's own spans ({} spans)",
        rec.spans().len()
    );
    for (layer, secs) in rec.self_secs_by_layer() {
        println!("#   {layer:<8} {secs:>10.4} s");
    }
}

fn metric_json(d: &MetricDef, v: f64) -> (&'static str, Value) {
    (
        d.name,
        Value::object(vec![("value", v.into()), ("unit", d.unit.into())]),
    )
}

/// The run as the result-file JSON document.
pub fn result_json(args: &RunArgs, o: &Outcome) -> Value {
    let digests: Vec<(&str, Value)> = o
        .digests
        .iter()
        .map(|(id, d)| (id.as_str(), format!("{d:016x}").into()))
        .collect();
    Value::object(vec![
        ("schema", SCHEMA.into()),
        ("workload", args.workload.name().into()),
        ("seed", (args.seed as f64).into()),
        ("seconds", (args.seconds as f64).into()),
        ("trace", args.trace.into()),
        ("smoke", args.smoke.into()),
        ("nproc", exec::Pool::available().into()),
        ("correct", (o.ops.failed == 0).into()),
        ("attempted", (o.ops.attempted as f64).into()),
        ("failed", (o.ops.failed as f64).into()),
        (
            "metrics",
            Value::object(o.metrics.iter().map(|(d, v)| metric_json(d, v)).collect()),
        ),
        ("digests", Value::object(digests)),
        (
            "samples",
            Value::object(
                o.samples
                    .iter()
                    .map(|(name, v)| (name.as_str(), Value::from(v.clone())))
                    .collect(),
            ),
        ),
        (
            "failures",
            Value::Array(o.ops.problems.iter().map(|f| f.as_str().into()).collect()),
        ),
    ])
}

/// Print the human-readable report and, last, the one-line result the
/// driver reads: every end-to-end metric of an untraced run, every
/// per-layer metric of a traced one — 0 for those this workload does not
/// measure, because the driver wants every name from every workload.
pub fn print_report(args: &RunArgs, o: &Outcome) {
    println!(
        "# ledger {} seed={} seconds={} trace={} smoke={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        exec::Pool::available()
    );
    for (d, v) in o.metrics.iter() {
        let note = match d.kind {
            Kind::EndToEnd { bound } => format!(
                "{} is better, bound {:.0} %",
                d.better.label(),
                bound * 100.0
            ),
            Kind::Layer => format!("{} is better", d.better.label()),
            Kind::Count => "repeats exactly".to_string(),
        };
        println!("{:<36} {:>16.6} {:<6} ({note})", d.name, v, d.unit);
    }
    for (id, d) in &o.digests {
        println!("# digest {id:<18} {d:016x}");
    }
    for f in &o.ops.problems {
        println!("# FAILED: {f}");
    }
    println!(
        "fail_frac {:.6} ({} of {} operations)",
        o.ops.fail_frac(),
        o.ops.failed,
        o.ops.attempted
    );
    let line: Vec<(&str, Value)> = METRICS
        .iter()
        .filter(|d| is_end_to_end(d) != args.trace)
        .map(|d| metric_json(d, o.metrics.get(d.name).unwrap_or(0.0)))
        .collect();
    println!(
        "{}",
        Value::object(vec![
            ("correct", (o.ops.failed == 0).into()),
            ("attempted", (o.ops.attempted as f64).into()),
            ("failed", (o.ops.failed as f64).into()),
            ("metrics", Value::object(line)),
        ])
    );
}

/// Write the result file under `dir`, as the first free
/// `trace<0|1>-seed<seed>-<n>.json`. Returns its path.
pub fn write_result(args: &RunArgs, o: &Outcome, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = (0..)
        .map(|n| {
            dir.join(format!(
                "trace{}-seed{}-{n}.json",
                u8::from(args.trace),
                args.seed
            ))
        })
        .find(|p| !p.exists())
        .expect("an unbounded range has a free index");
    std::fs::write(&path, result_json(args, o).to_string_pretty() + "\n")?;
    Ok(path)
}
