//! One sweep runs all the work of several experiments as one plan that
//! holds each distinct cell once: Figure 1's MG grid, Figure 4's (Figure
//! 1's ten cells plus five UPMlib cells), Table 2's and the
//! static-placement sweep's (all cells of Figure 4's) list 34 cells and
//! compute 15. Each experiment still credits the simulated seconds of every
//! output it lists, in its listing order — its jobs' makespans included —
//! and every output is its cell run alone. A failed cell or job fails the
//! run only after every report is rendered.

use nas::{BenchName, EngineMode, RunResult, Scale};
use std::collections::HashMap;
use vmm::PlacementScheme;
use xp::cli::Experiment;
use xp::grid::{Cell, Group, JobOutputs, Jobs, Output, Sweep};
use xp::summary::SummaryEntry;
use xp::Report;

/// Render what an experiment is handed, one row per output — its id,
/// whether it ran here, and its value or panic — in a report of the grid's
/// cells (a run's value is its cache bytes) and one of the jobs (a
/// schedule's is its makespan, a kernel's is empty).
fn keep(_: Scale, groups: Vec<Group>, jobs: JobOutputs) -> Vec<Report> {
    fn render<T>(id: &str, outputs: &[xp::CellOutput<T>], value: fn(&T) -> String) -> Report {
        let mut report = Report::new(id, id, &["Id", "Ran", "Value"]);
        for c in outputs {
            let ran = (c.wall_secs > 0.0).to_string();
            match &c.value {
                Ok(v) => report.row(vec![c.id.clone(), ran, value(v)]),
                Err(p) => report.failed_row(&c.id, &p.message),
            }
        }
        report
    }
    let makespan = |output: &Output| match output {
        Output::Sched(outcome) => outcome.makespan_secs.to_string(),
        _ => String::new(),
    };
    vec![
        render("cells", &groups.concat(), bytes),
        render("jobs", &jobs, makespan),
    ]
}

/// Run `rows` as one sweep: per row its summary entry and what its report
/// was handed, as `keep` rendered it — the cells' rows and the jobs'.
fn sweep(rows: &[Experiment]) -> Vec<(SummaryEntry, Report, Report)> {
    (xp::grid::sweep(rows, Scale::Tiny).into_iter())
        .map(|(entry, reports)| {
            let [cells, jobs] = <[Report; 2]>::try_from(reports).ok().unwrap();
            (entry, cells, jobs)
        })
        .collect()
}

/// Whether a rendered output is a panic.
fn failed(row: &[String]) -> bool {
    row.last().unwrap().starts_with("PANIC:")
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
fn listing_fold(cells: &Report, jobs: &Report) -> f64 {
    let runs = cells.rows.iter().map(|row| {
        let json = obs::json::Value::parse(&row[2]).expect("every cell ran");
        RunResult::from_cache_json(&json).unwrap().total_secs
    });
    let makespans = (jobs.rows.iter())
        .filter(|row| !row[2].is_empty())
        .map(|row| row[2].parse::<f64>().expect("every job ran"));
    runs.chain(makespans).fold(0.0, |sum, s| sum + s)
}

#[test]
fn one_sweep_computes_each_distinct_cell_once() {
    let swept = sweep(&ROWS);
    let listed: Vec<usize> = swept.iter().map(|(_, cells, _)| cells.rows.len()).collect();
    assert_eq!(listed, [10, 15, 5, 4]);
    // A cell is computed at its first listing and resolved at the others.
    let computed: Vec<usize> = (swept.iter())
        .map(|(entry, _, _)| entry.tally.cells_computed)
        .collect();
    assert_eq!(computed, [10, 5, 0, 0]);
    for (entry, cells, jobs) in &swept {
        let tally = &entry.tally;
        let ran = cells.rows.iter().filter(|row| row[1] == "true").count();
        assert_eq!(tally.cells_computed, ran, "{}", entry.id);
        assert_eq!(
            tally.cells_computed + tally.cells_resolved,
            cells.rows.len()
        );
        let in_order = listing_fold(cells, jobs);
        assert_eq!(tally.sim_secs.to_bits(), in_order.to_bits(), "{}", entry.id);
    }

    let grids = ROWS.iter().flat_map(|(_, sweep)| (sweep.grid)(Scale::Tiny));
    let mut alone: HashMap<String, String> = HashMap::new();
    let outputs = swept.iter().flat_map(|(_, cells, _)| &cells.rows);
    for (cell, row) in grids.flatten().zip(outputs) {
        let want = (alone.entry(cell.spec().canonical()))
            .or_insert_with(|| bytes(&Cell::run(cell.clone())));
        assert_eq!(&row[2], want, "{}", row[0]);
    }
    assert_eq!(alone.len(), 15);
}

#[test]
fn jobs_run_in_the_sweeps_one_plan_and_credit_in_listing_order() {
    let swept = sweep(&JOB_ROWS);
    // Each row's work, grid cells and jobs alike, ran on the sweep's one
    // plan; no report ran one of its own.
    for (entry, _, _) in &swept {
        assert_eq!(entry.tally.plans, 1, "{}", entry.id);
    }
    // The jobs reach their reports in listing order, after the grid's
    // cells; the second row's cells were the first row's.
    let ids: Vec<Vec<&str>> = (swept.iter())
        .map(|(_, _, jobs)| jobs.rows.iter().map(|row| row[0].as_str()).collect())
        .collect();
    assert_eq!(ids, [vec!["s-0.25", "kernel", "s-0.125"], vec!["s-1.5"]]);
    let computed: Vec<(usize, usize)> = (swept.iter())
        .map(|(e, _, _)| (e.tally.cells_computed, e.tally.cells_resolved))
        .collect();
    assert_eq!(computed, [(10 + 3, 0), (1, 10)]);
    for (entry, cells, jobs) in &swept {
        let ran = jobs.rows.iter().all(|row| row[1] == "true");
        assert!(ran, "a job always runs");
        let in_order = listing_fold(cells, jobs);
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
    let swept = sweep(&rows);
    assert_eq!(swept.len(), 2, "every report is rendered");
    let (_, cells, jobs) = &swept[1];
    assert!(failed(&cells.rows[0]) && failed(&jobs.rows[0]));
    let entries: Vec<SummaryEntry> = swept.into_iter().map(|(entry, _, _)| entry).collect();
    assert_eq!(xp::summary::failures(&entries[..1]), None);
    assert_eq!(
        xp::summary::failures(&entries).as_deref(),
        Some("failed cells: bad (2)")
    );
}
