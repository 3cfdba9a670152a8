//! Event tracing for experiment runs (the driver side of the `obs` crate).
//!
//! Two entry points:
//!
//! * **`xp trace <bench>`** — [`run`] executes one benchmark under
//!   round-robin placement with the UPMlib engine (a configuration where
//!   pages actually move), then writes `trace.jsonl` (one event per line)
//!   and `trace.chrome.json` (load it in Perfetto or `chrome://tracing`)
//!   under the output directory and returns a per-iteration metrics table.
//! * **`--trace DIR` on any other command** — [`set_dir`] installs a trace
//!   directory; every [`crate::grid::Cell`] run (a planned cell or a
//!   [`crate::run_one`] call) then runs with the sink attached and dumps
//!   its events as
//!   `trace-<seq>-<bench>-<label>.{jsonl,chrome.json}` (the sequence number
//!   keeps repeated configurations from overwriting each other).

use crate::report::Report;
use nas::{BenchName, EngineMode, RunConfig, RunResult, Scale};
use obs::export::{chrome_trace, to_jsonl};
use obs::{EventKind, Tracer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vmm::PlacementScheme;

static TRACE_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Route every subsequent experiment run's trace into `dir` (the binary's
/// `--trace DIR` flag). `None` turns the plumbing back off.
pub fn set_dir(dir: Option<PathBuf>) {
    *TRACE_DIR.lock().unwrap() = dir;
}

/// The installed trace directory, if any.
pub fn dir() -> Option<PathBuf> {
    TRACE_DIR.lock().unwrap().clone()
}

/// Force tracing on in `cfg` when a trace directory is installed (called
/// by [`crate::grid::Cell::run_with`]).
pub(crate) fn arm(cfg: &mut RunConfig) {
    if dir().is_some() {
        cfg.trace = true;
    }
}

/// A trace dump captured mid-run but not yet written: the file name's
/// sequence number is assigned at write time, so dumps deferred by the
/// cell executor land on disk in canonical plan order whatever the worker
/// count (see [`crate::cells`]).
pub(crate) struct PendingTrace {
    bench: String,
    label: String,
    tracer: Box<Tracer>,
}

impl std::fmt::Debug for PendingTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingTrace")
            .field("bench", &self.bench)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// If a trace directory is installed and the run collected a trace, stage
/// it for writing: deferred to the merge when a cell is executing,
/// written immediately otherwise. The tracer stays on the result so
/// callers that requested tracing themselves keep access to it.
pub(crate) fn dump(result: &RunResult) {
    if dir().is_none() {
        return;
    }
    let Some(tracer) = result.trace.as_deref() else {
        return;
    };
    let pending = PendingTrace {
        bench: result.bench.label().to_ascii_lowercase(),
        label: result.label(),
        tracer: Box::new(tracer.clone()),
    };
    if let Some(pending) = crate::cells::defer_trace(pending) {
        write_pending(pending);
    }
}

/// Write a staged trace under the installed directory, taking the next
/// file sequence number. No-op when the directory was uninstalled in the
/// meantime.
pub(crate) fn write_pending(pending: PendingTrace) {
    let Some(dir) = dir() else { return };
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    let stem = format!("trace-{seq:03}-{}-{}", pending.bench, pending.label);
    match write_files(&dir, &stem, &pending.tracer) {
        Ok((jsonl, _)) => eprintln!("[trace {}]", jsonl.display()),
        Err(e) => eprintln!("[warn: could not write trace {stem}: {e}]"),
    }
}

/// Write `<dir>/<stem>.jsonl` and `<dir>/<stem>.chrome.json`; returns both
/// paths.
fn write_files(dir: &Path, stem: &str, tracer: &Tracer) -> std::io::Result<(PathBuf, PathBuf)> {
    let dropped = tracer.dropped_events();
    let jsonl = to_jsonl(tracer.ring.iter(), dropped);
    let doc = chrome_trace(tracer.ring.iter(), stem, dropped);
    crate::artifacts::write(dir, stem, None, &jsonl, &doc)
}

/// The `xp trace` reference configuration: round-robin placement with the
/// UPMlib engine, so the trace shows the engine pulling pages home.
pub fn traced_config() -> RunConfig {
    RunConfig {
        placement: PlacementScheme::RoundRobin,
        engine: EngineMode::Upmlib(Default::default()),
        trace: true,
        ..RunConfig::paper_default()
    }
}

/// Run `bench` at `scale` under [`traced_config`] and detach the tracer.
pub fn run_traced(bench: BenchName, scale: Scale) -> (RunResult, Box<Tracer>) {
    let mut result = crate::run_one(bench, scale, &traced_config());
    let tracer = result.trace.take().expect("traced run yields a tracer");
    (result, tracer)
}

/// The `xp trace <bench>` command: run, export, and build the
/// per-iteration metrics table.
pub fn run(bench: BenchName, scale: Scale, out_dir: &Path) -> Report {
    let (result, tracer) = run_traced(bench, scale);
    let mut report = report_for(bench, &result, &tracer);
    match write_files(out_dir, "trace", &tracer) {
        Ok((jsonl, chrome)) => {
            report.note(format!("events: {}", jsonl.display()));
            report.note(format!(
                "chrome trace (open in Perfetto): {}",
                chrome.display()
            ));
        }
        Err(e) => report.note(format!("could not write trace files: {e}")),
    }
    report
}

/// Per-iteration metrics table built from the run's `IterationBoundary`
/// events, plus headline counters from the metrics registry.
pub fn report_for(bench: BenchName, result: &RunResult, tracer: &Tracer) -> Report {
    let mut report = Report::new(
        "trace",
        &format!(
            "Event trace of NAS {} ({}): per-iteration migration activity",
            bench.label(),
            result.label()
        ),
        &[
            "Iter",
            "Time (s)",
            "Migrations",
            "Remote fraction",
            "Stall (ms)",
        ],
    );
    let mut boundaries = 0usize;
    for event in tracer.ring.iter() {
        if let EventKind::IterationBoundary {
            iter,
            migrations,
            remote_fraction,
            stall_ns,
        } = event.kind
        {
            let time = result.per_iter_secs.get(iter).copied().unwrap_or(0.0);
            report.row(vec![
                iter.to_string(),
                format!("{time:.4}"),
                migrations.to_string(),
                format!("{remote_fraction:.3}"),
                format!("{:.2}", stall_ns * 1e-6),
            ]);
            boundaries += 1;
        }
    }
    report.note(format!(
        "{} events collected ({} dropped by the ring), {} iteration boundaries",
        tracer.ring.len(),
        tracer.ring.dropped(),
        boundaries
    ));
    for name in [
        "page_migrations",
        "upm_invocations",
        "upm_vetoed_moves",
        "counter_overflow_spills",
    ] {
        report.note(format!("{name}: {}", tracer.metrics.counter(name)));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_collects_migration_events() {
        let (result, tracer) = run_traced(BenchName::Cg, Scale::Tiny);
        assert!(result.verification.passed, "traced run must still verify");
        assert!(!tracer.ring.is_empty(), "trace must collect events");
        let boundaries = tracer
            .ring
            .iter()
            .filter(|e| matches!(e.kind, EventKind::IterationBoundary { .. }))
            .count();
        assert_eq!(boundaries, result.per_iter_secs.len());
        // Round-robin placement + UPMlib must actually move pages.
        assert!(tracer.metrics.counter("page_migrations") > 0);
        let report = report_for(BenchName::Cg, &result, &tracer);
        assert_eq!(report.rows.len(), boundaries);
    }
}
