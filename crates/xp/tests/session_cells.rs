//! The open session remembers every spec cell a plan merged: a later plan
//! asking for the same cells recalls them instead of computing them,
//! credits the same simulated seconds in plan order, and hands back the
//! same bytes. Its own process, because the session and the tally are
//! process-global.

use nas::{BenchName, RunResult, Scale};
use xp::grid::{self, Cell};

fn fig4_mg() -> Vec<Cell> {
    xp::fig4::cells(BenchName::Mg, Scale::Tiny)
}

fn bytes(r: &RunResult) -> String {
    r.to_cache_json().to_string()
}

#[test]
fn an_open_session_computes_each_distinct_cell_once() {
    xp::session::begin();
    grid::execute(vec![xp::fig1::cells(BenchName::Mg, Scale::Tiny, false)]);
    xp::summary::take();
    let outputs = grid::execute(vec![fig4_mg()]).remove(0);
    let tally = xp::summary::take();
    // Figure 4's MG grid is Figure 1's ten cells plus five UPMlib cells.
    assert_eq!(tally.cells_computed, 5);
    assert_eq!(tally.cells_resolved, 10);
    let in_order = outputs
        .iter()
        .fold(0.0, |sum, c| sum + c.ok().unwrap().total_secs);
    assert_eq!(tally.sim_secs.to_bits(), in_order.to_bits());
    for (cell, out) in fig4_mg().into_iter().zip(&outputs) {
        assert_eq!(bytes(out.ok().unwrap()), bytes(&cell.run()), "{}", out.id);
    }

    // A closed session remembers nothing: the same plan computes again.
    xp::session::end();
    grid::execute(vec![fig4_mg()]);
    assert_eq!(xp::summary::take().cells_computed, 15);
}
