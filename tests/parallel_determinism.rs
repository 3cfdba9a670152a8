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
/// afterwards. Also snapshots the simulated-seconds accumulator so each
/// run's credit is observed in isolation.
fn render_with_jobs(jobs: usize, f: impl Fn() -> Report) -> (String, String, u64) {
    xp::jobs::set(jobs);
    xp::summary::take();
    let report = f();
    let sim_bits = xp::summary::take().sim_secs.to_bits();
    xp::jobs::set(0);
    (
        report.to_json().to_string_pretty(),
        report.to_markdown(),
        sim_bits,
    )
}

fn assert_jobs_invariant(f: impl Fn() -> Report) {
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

#[test]
fn fig1_is_identical_under_one_and_four_workers() {
    assert_jobs_invariant(|| xp::fig1::run(Scale::Tiny));
}

#[test]
fn multiprog_is_identical_under_one_and_four_workers() {
    assert_jobs_invariant(|| xp::multiprog::run(Scale::Tiny));
}

#[test]
fn table2_is_identical_under_one_and_four_workers() {
    assert_jobs_invariant(|| xp::table2::run(Scale::Tiny));
}

#[test]
fn prof_is_identical_under_one_and_four_workers() {
    // The profiler's report is a pure function of the analysed trace
    // (artifact stems in the notes, never paths), so the full `xp prof`
    // pipeline must be jobs-invariant like every other command.
    let dir = std::env::temp_dir().join(format!("ddnomp-prof-det-{}", std::process::id()));
    assert_jobs_invariant(|| {
        xp::prof::run(&[nas::BenchName::Cg], Scale::Tiny, &dir)
            .pop()
            .expect("one report per bench")
    });
    let _ = std::fs::remove_dir_all(&dir);
}
