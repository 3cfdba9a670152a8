//! A plan computes the IRIX, UPMlib and record–replay cells of one problem
//! and placement as one fork chain, on one worker: the first cell's run is
//! stepped through its first timed iteration once, and the others fork
//! from it. The outputs must be the bytes each cell computes alone, every
//! computed cell must report a wall time, and the cells' walls must add up
//! to the pool's. Its own process, because the session and the tally are
//! process-global.

use nas::{BenchName, RunResult, Scale};
use xp::grid::Cell;
use xp::{CellOutput, CellPlan};

fn bytes(r: &RunResult) -> String {
    r.to_cache_json().to_string()
}

/// The CG and MG grids of Figure 4 at tiny: per placement, an IRIX, an
/// IRIXmig and a UPMlib cell.
fn grid() -> Vec<Cell> {
    [BenchName::Cg, BenchName::Mg]
        .into_iter()
        .flat_map(|bench| xp::fig1::cells(bench, Scale::Tiny, true))
        .collect()
}

/// Execute `cells` as one plan on `workers` seats; hold every output to
/// the cell run alone and every computed cell to a positive wall, and the
/// tally's cell walls to its pool jobs' busy time. Returns the outputs.
fn execute(cells: Vec<Cell>, workers: usize, alone: &[String]) -> Vec<CellOutput<RunResult>> {
    xp::summary::take();
    xp::jobs::set(workers);
    let mut plan = CellPlan::new();
    for cell in cells {
        plan.add_cell(cell);
    }
    let outputs = plan.execute();
    let tally = xp::summary::take();
    for (out, want) in outputs.iter().zip(alone) {
        assert_eq!(
            &bytes(out.ok().expect("every cell ran")),
            want,
            "{}",
            out.id
        );
    }
    let computed = outputs.iter().filter(|c| c.wall_secs > 0.0).count();
    assert_eq!(
        computed, tally.cells_computed,
        "a computed cell without a wall"
    );
    let drift = (tally.busy_secs - tally.cells_wall_secs).abs();
    assert!(
        drift <= 1e-9 * tally.busy_secs,
        "cell walls {} vs pool jobs {}",
        tally.cells_wall_secs,
        tally.busy_secs
    );
    outputs
}

#[test]
fn fork_chains_compute_what_each_cell_computes_alone() {
    let alone: Vec<String> = grid().into_iter().map(|c| bytes(&c.run())).collect();
    for workers in [1, 2] {
        let outputs = execute(grid(), workers, &alone);
        assert_eq!(outputs.len(), 30);
        assert!(outputs.iter().all(|c| c.wall_secs > 0.0));
    }

    // With the IRIX cells recalled by the open session, each UPMlib cell
    // is a chain of one: it runs alone, from its own cold start.
    xp::session::begin();
    let irix: Vec<Cell> = grid()
        .into_iter()
        .filter(|c| c.cfg.engine.label() == "IRIX")
        .collect();
    let irix_alone: Vec<String> = (alone.iter())
        .zip(grid())
        .filter(|(_, c)| c.cfg.engine.label() == "IRIX")
        .map(|(b, _)| b.clone())
        .collect();
    execute(irix, 2, &irix_alone);
    let outputs = execute(grid(), 2, &alone);
    for (out, cell) in outputs.iter().zip(grid()) {
        let recalled = cell.cfg.engine.label() == "IRIX";
        assert_eq!(out.wall_secs == 0.0, recalled, "{}", out.id);
    }
    xp::session::end();
}
