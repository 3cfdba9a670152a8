//! One sweep runs the grids of several experiments as one plan that holds
//! each distinct cell once: Figure 1's MG grid, Figure 4's (Figure 1's ten
//! cells plus five UPMlib cells), Table 2's and the static-placement
//! sweep's (all cells of Figure 4's) list 34 cells and compute 15. Each
//! experiment still credits the simulated seconds of every cell it lists,
//! in its listing order, and every output is its cell run alone. Its own
//! process, because the tally is process-global.

use nas::{BenchName, RunResult, Scale};
use std::collections::HashMap;
use std::sync::Mutex;
use xp::cli::Experiment;
use xp::grid::{Cell, Group, Sweep};
use xp::Report;

/// What each experiment's report was handed, in row order.
static HANDED: Mutex<Vec<Vec<Group>>> = Mutex::new(Vec::new());

fn keep(_: Scale, groups: Vec<Group>) -> Vec<Report> {
    HANDED.lock().unwrap().push(groups);
    Vec::new()
}

const MG: BenchName = BenchName::Mg;

#[rustfmt::skip]
const ROWS: [Experiment; 4] = [
    ("fig1", Sweep { grid: |s| vec![xp::fig1::cells(MG, s, false)], report: keep }),
    ("fig4", Sweep { grid: |s| vec![xp::fig4::cells(MG, s)], report: keep }),
    ("table2", Sweep { grid: |s| vec![xp::table2::cells(MG, s)], report: keep }),
    ("staticplace", Sweep { grid: |s| vec![xp::staticplace::cells(MG, s)], report: keep }),
];

fn bytes(r: &RunResult) -> String {
    r.to_cache_json().to_string()
}

#[test]
fn one_sweep_computes_each_distinct_cell_once() {
    let swept = xp::grid::sweep(&ROWS, Scale::Tiny);
    let handed = HANDED.lock().unwrap();
    let listed: Vec<usize> = (handed.iter())
        .map(|groups| groups.iter().map(Vec::len).sum())
        .collect();
    assert_eq!(listed, [10, 15, 5, 4]);
    // A cell is computed at its first listing and resolved at the others.
    let computed: Vec<usize> = (swept.iter())
        .map(|(entry, _)| entry.tally.cells_computed)
        .collect();
    assert_eq!(computed, [10, 5, 0, 0]);
    for ((entry, _), groups) in swept.iter().zip(handed.iter()) {
        let tally = &entry.tally;
        let listed: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(tally.cells_computed + tally.cells_resolved, listed);
        let in_order = (groups.iter().flatten()).fold(0.0, |sum, c| {
            sum + c.ok().expect("every cell ran").total_secs
        });
        assert_eq!(tally.sim_secs.to_bits(), in_order.to_bits(), "{}", entry.id);
    }

    let cells = ROWS.iter().flat_map(|(_, sweep)| (sweep.grid)(Scale::Tiny));
    let mut alone: HashMap<String, String> = HashMap::new();
    for (cell, out) in cells.flatten().zip(handed.iter().flatten().flatten()) {
        let want = (alone.entry(cell.spec().canonical()))
            .or_insert_with(|| bytes(&Cell::run(cell.clone())));
        assert_eq!(&bytes(out.ok().unwrap()), want, "{}", out.id);
    }
    assert_eq!(alone.len(), 15);
}
