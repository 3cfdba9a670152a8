//! Differential determinism: the same experiment run serially (`jobs=1`)
//! and host-parallel (`jobs=4`) must render byte-identical JSON and
//! markdown reports, and credit bit-identical simulated seconds.
//!
//! This is the executor's core contract (see `crates/xp/src/cells.rs`):
//! cell results merge in plan order, and each spec cell's one merge step
//! has its effects there, so the worker count is invisible in every
//! artifact.

use nas::Scale;
use std::sync::Mutex;
use xp::Report;

/// `xp::jobs` is a process-global knob; tests in this file that flip it
/// take the guard so the two runs under comparison cannot interleave with
/// another test's setting.
static JOBS_GUARD: Mutex<()> = Mutex::new(());

/// Run `f` with the worker count pinned to `jobs`, restoring the default
/// afterwards; `f` returns its report and the simulated seconds it
/// credited.
fn render_with_jobs(jobs: usize, f: impl Fn() -> (Report, f64)) -> (String, String, u64) {
    xp::jobs::set(jobs);
    let (report, sim_secs) = f();
    let sim_bits = sim_secs.to_bits();
    xp::jobs::set(0);
    (
        report.to_json().to_string_pretty(),
        report.to_markdown(),
        sim_bits,
    )
}

fn assert_jobs_invariant(f: impl Fn() -> (Report, f64)) {
    let _guard = JOBS_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let (json_1, md_1, sim_1) = render_with_jobs(1, &f);
    let (json_4, md_4, sim_4) = render_with_jobs(4, &f);
    assert_eq!(
        json_1, json_4,
        "JSON report differs between jobs=1 and jobs=4"
    );
    assert_eq!(
        md_1, md_4,
        "markdown report differs between jobs=1 and jobs=4"
    );
    assert_eq!(
        sim_1, sim_4,
        "simulated-seconds credit differs between jobs=1 and jobs=4"
    );
}

/// The experiment `id` run alone as a sweep: its report and the
/// simulated seconds its summary entry credits.
fn experiment(id: &str) -> (Report, f64) {
    let row = xp::cli::EXPERIMENTS.iter().find(|(name, _)| *name == id);
    let (entry, mut reports) = xp::grid::sweep(&[*row.unwrap()], Scale::Tiny).remove(0);
    (reports.remove(0), entry.tally.sim_secs)
}

#[test]
fn fig1_is_identical_under_one_and_four_workers() {
    assert_jobs_invariant(|| experiment("fig1"));
}

#[test]
fn multiprog_is_identical_under_one_and_four_workers() {
    assert_jobs_invariant(|| experiment("multiprog"));
}

#[test]
fn table2_is_identical_under_one_and_four_workers() {
    assert_jobs_invariant(|| experiment("table2"));
}

#[test]
fn prof_is_identical_under_one_and_four_workers() {
    // The profiler's report is a pure function of the analysed trace
    // (artifact stems in the notes, never paths), so the full `xp prof`
    // pipeline must be jobs-invariant like every other command, and it
    // credits its run's simulated seconds.
    let dir = std::env::temp_dir().join(format!("ddnomp-prof-det-{}", std::process::id()));
    assert_jobs_invariant(|| {
        let (mut reports, tally) = xp::prof::run(&[nas::BenchName::Cg], Scale::Tiny, &dir);
        assert!(tally.sim_secs > 0.0, "prof credits its run");
        (reports.pop().expect("one report per bench"), tally.sim_secs)
    });
    let _ = std::fs::remove_dir_all(&dir);
}
