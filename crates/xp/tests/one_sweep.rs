//! One sweep runs all the work of several experiments as one plan that
//! holds each distinct cell once: Figure 1's MG grid, Figure 4's (Figure
//! 1's ten cells plus five UPMlib cells), Table 2's and the
//! static-placement sweep's (all cells of Figure 4's) list 34 cells and
//! compute 15. Each experiment still credits the simulated seconds of every
//! output it lists, in its listing order — its jobs' makespans included —
//! and every output is its cell run alone. A failed cell or job fails the
//! run only after every report is rendered. Its own process, because the
//! tally is process-global; its tests take turns for the same reason.

use nas::{BenchName, EngineMode, RunResult, Scale};
use std::collections::HashMap;
use std::sync::Mutex;
use vmm::PlacementScheme;
use xp::cli::Experiment;
use xp::grid::{Cell, Group, JobOutputs, Jobs, Output, Sweep};
use xp::summary::SummaryEntry;
use xp::Report;

/// One test at a time: the tally is process-global.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// What each experiment's report was handed, in row order.
static HANDED: Mutex<Vec<(Vec<Group>, JobOutputs)>> = Mutex::new(Vec::new());

fn keep(_: Scale, groups: Vec<Group>, jobs: JobOutputs) -> Vec<Report> {
    HANDED.lock().unwrap().push((groups, jobs));
    Vec::new()
}

/// The rows' reports, handed over and forgotten.
fn take_handed() -> Vec<(Vec<Group>, JobOutputs)> {
    std::mem::take(&mut *HANDED.lock().unwrap())
}

const MG: BenchName = BenchName::Mg;

fn no_jobs(_: Scale) -> Jobs {
    Vec::new()
}

#[rustfmt::skip]
const ROWS: [Experiment; 4] = [
    ("fig1", Sweep { grid: |s| vec![xp::fig1::cells(MG, s, false)], jobs: no_jobs, report: keep }),
    ("fig4", Sweep { grid: |s| vec![xp::fig4::cells(MG, s)], jobs: no_jobs, report: keep }),
    ("table2", Sweep { grid: |s| vec![xp::table2::cells(MG, s)], jobs: no_jobs, report: keep }),
    ("staticplace", Sweep { grid: |s| vec![xp::staticplace::cells(MG, s)], jobs: no_jobs, report: keep }),
];

fn bytes(r: &RunResult) -> String {
    r.to_cache_json().to_string()
}

/// A schedule that took `makespan_secs` and ran no job: cheap to compute.
fn schedule(makespan_secs: f64) -> Output {
    Output::Sched(sched::SchedOutcome {
        policy: "none".into(),
        quanta: 0,
        makespan_secs,
        thread_migrations: 0,
        team_resizes: 0,
        jobs: Vec::new(),
        trace: None,
    })
}

fn three_jobs(_: Scale) -> Jobs {
    let kernel = || Output::Kernel {
        secs: vec![2.0],
        upm: Default::default(),
    };
    vec![
        ("s-0.25".into(), Box::new(|| schedule(0.25))),
        ("kernel".into(), Box::new(kernel)),
        ("s-0.125".into(), Box::new(|| schedule(0.125))),
    ]
}

fn one_job(_: Scale) -> Jobs {
    vec![("s-1.5".into(), Box::new(|| schedule(1.5)))]
}

#[rustfmt::skip]
const JOB_ROWS: [Experiment; 2] = [
    ("grid+jobs", Sweep { grid: |s| vec![xp::fig1::cells(MG, s, false)], jobs: three_jobs, report: keep }),
    ("again+job", Sweep { grid: |s| vec![xp::fig1::cells(MG, s, false)], jobs: one_job, report: keep }),
];

/// Every output's simulated seconds in listing order: the runs', then the
/// schedules' makespans.
fn listing_fold(groups: &[Group], jobs: &JobOutputs) -> f64 {
    let runs = groups
        .iter()
        .flatten()
        .map(|c| c.ok().expect("every cell ran").total_secs);
    let makespans = jobs
        .iter()
        .filter_map(|c| match c.ok().expect("every job ran") {
            Output::Sched(outcome) => Some(outcome.makespan_secs),
            _ => None,
        });
    runs.chain(makespans).fold(0.0, |sum, s| sum + s)
}

#[test]
fn one_sweep_computes_each_distinct_cell_once() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let swept = xp::grid::sweep(&ROWS, Scale::Tiny);
    let handed = take_handed();
    let listed: Vec<usize> = (handed.iter())
        .map(|(groups, _)| groups.iter().map(Vec::len).sum())
        .collect();
    assert_eq!(listed, [10, 15, 5, 4]);
    // A cell is computed at its first listing and resolved at the others.
    let computed: Vec<usize> = (swept.iter())
        .map(|(entry, _)| entry.tally.cells_computed)
        .collect();
    assert_eq!(computed, [10, 5, 0, 0]);
    for ((entry, _), (groups, jobs)) in swept.iter().zip(handed.iter()) {
        let tally = &entry.tally;
        let listed: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(tally.cells_computed + tally.cells_resolved, listed);
        let in_order = listing_fold(groups, jobs);
        assert_eq!(tally.sim_secs.to_bits(), in_order.to_bits(), "{}", entry.id);
    }

    let cells = ROWS.iter().flat_map(|(_, sweep)| (sweep.grid)(Scale::Tiny));
    let mut alone: HashMap<String, String> = HashMap::new();
    let outputs = handed
        .iter()
        .flat_map(|(groups, _)| groups.iter().flatten());
    for (cell, out) in cells.flatten().zip(outputs) {
        let want = (alone.entry(cell.spec().canonical()))
            .or_insert_with(|| bytes(&Cell::run(cell.clone())));
        assert_eq!(&bytes(out.ok().unwrap()), want, "{}", out.id);
    }
    assert_eq!(alone.len(), 15);
}

#[test]
fn jobs_run_in_the_sweeps_one_plan_and_credit_in_listing_order() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let swept = xp::grid::sweep(&JOB_ROWS, Scale::Tiny);
    let handed = take_handed();
    // Each row's work, grid cells and jobs alike, ran on the sweep's one
    // plan; no report ran one of its own.
    for (entry, _) in &swept {
        assert_eq!(entry.tally.plans, 1, "{}", entry.id);
    }
    // The jobs reach their reports in listing order, after the grid's
    // cells; the second row's cells were the first row's.
    let ids: Vec<Vec<&str>> = (handed.iter())
        .map(|(_, jobs)| jobs.iter().map(|c| c.id.as_str()).collect())
        .collect();
    assert_eq!(ids, [vec!["s-0.25", "kernel", "s-0.125"], vec!["s-1.5"]]);
    let computed: Vec<(usize, usize)> = (swept.iter())
        .map(|(e, _)| (e.tally.cells_computed, e.tally.cells_resolved))
        .collect();
    assert_eq!(computed, [(10 + 3, 0), (1, 10)]);
    for ((entry, _), (groups, jobs)) in swept.iter().zip(&handed) {
        assert!(jobs.iter().all(|c| c.wall_secs > 0.0), "a job always runs");
        let in_order = listing_fold(groups, jobs);
        assert_eq!(
            entry.tally.sim_secs.to_bits(),
            in_order.to_bits(),
            "{}",
            entry.id
        );
    }
}

fn cg(placement: PlacementScheme) -> Cell {
    Cell::paper(BenchName::Cg, Scale::Tiny, placement, EngineMode::None)
}

fn boom(_: Scale) -> Jobs {
    vec![("boom".into(), Box::new(|| panic!("boom")))]
}

#[test]
fn a_failed_cell_or_job_fails_the_run_once_every_report_is_rendered() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let rows: [Experiment; 2] = [
        (
            "good",
            Sweep {
                grid: |_| vec![vec![cg(PlacementScheme::FirstTouch)]],
                jobs: one_job,
                report: keep,
            },
        ),
        (
            "bad",
            Sweep {
                // A node the machine lacks: the cell's run panics.
                grid: |_| vec![vec![cg(PlacementScheme::WorstCase { node: 99 })]],
                jobs: boom,
                report: keep,
            },
        ),
    ];
    let swept = xp::grid::sweep(&rows, Scale::Tiny);
    let handed = take_handed();
    assert_eq!(handed.len(), 2, "every report is rendered");
    assert!(handed[1].0[0][0].value.is_err() && handed[1].1[0].value.is_err());
    let entries: Vec<SummaryEntry> = swept.into_iter().map(|(entry, _)| entry).collect();
    assert_eq!(xp::summary::failures(&entries[..1]), None);
    assert_eq!(
        xp::summary::failures(&entries).as_deref(),
        Some("failed cells: bad (2)")
    );
}
