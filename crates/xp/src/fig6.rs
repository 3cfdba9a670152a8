//! Figure 6: the synthetic phase-scaling experiment on BT.
//!
//! The paper lengthens every phase 4x ("we enclosed each function that
//! comprises the main body ... in a sequential loop with 4 iterations")
//! without changing the access pattern, so the record–replay mechanism can
//! amortize its migration overhead over more computation. Paper shape: with
//! the scaled phases, ft-recrep beats ft-upmlib by ~5%.
//!
//! On the simulated machine the crossover needs more scaling than the
//! paper's 4x: a replayed migration's latency saving is divided across the
//! 16 CPUs that share the phase, while its cost (page copy + machine-wide
//! TLB shootdown) is serial on the critical path, and the scaled-down grids
//! carry less per-page traffic per phase than Class A. The experiment
//! therefore reports a phase-scale *sweep*, showing the monotone approach
//! to (and crossing of) break-even; EXPERIMENTS.md discusses the scale
//! analysis.

use crate::grid::{self, Cell, Problem};
use crate::report::{pct, secs, Report};
use crate::run_one::default_engine_configs;
use nas::{BenchName, EngineMode, Scale};
use vmm::PlacementScheme;

/// The phase-scale sweep points — also the only phase scales a server
/// rebuilds from a spec ([`Cell::from_spec`]).
pub const PHASE_SCALES: [usize; 3] = [1, 4, 16];

/// One sweep point's cells: first-touch BT with `phase_scale`-lengthened
/// phases under UPMlib, then under record-replay.
pub fn cells(scale: Scale, phase_scale: usize) -> Vec<Cell> {
    let (_, upm_opts) = default_engine_configs();
    [EngineMode::Upmlib(upm_opts), EngineMode::RecRep(upm_opts)]
        .into_iter()
        .map(|engine| Cell {
            problem: Problem::BtPhases(phase_scale),
            ..Cell::paper(BenchName::Bt, scale, PlacementScheme::FirstTouch, engine)
        })
        .collect()
}

/// Run Figure 6: the paper's 4x experiment plus a wider sweep.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig6",
        "Record-replay on BT with synthetically lengthened phases (paper: 4x)",
        &[
            "Phase scale",
            "upmlib (s)",
            "recrep (s)",
            "recrep overhead (s)",
            "recrep vs upmlib",
        ],
    );
    let outputs = grid::execute(PHASE_SCALES.map(|ps| cells(scale, ps)).to_vec());
    let mut ratios = Vec::new();
    for (phase_scale, pair) in PHASE_SCALES.into_iter().zip(&outputs) {
        let Some(pair) = grid::all_ok(&mut report, pair) else {
            continue;
        };
        let (upm, rec) = (pair[0], pair[1]);
        assert!(
            upm.verification.passed && rec.verification.passed,
            "fig6 runs must verify"
        );
        let ratio = rec.total_secs / upm.total_secs;
        ratios.push(ratio);
        report.row(vec![
            format!("{phase_scale}x"),
            secs(upm.total_secs),
            secs(rec.total_secs),
            secs(rec.recrep_overhead_secs),
            pct(ratio),
        ]);
    }
    if ratios.len() == PHASE_SCALES.len() {
        report.note(format!(
            "recrep's position improves monotonically with phase length ({} -> {} -> {}); the paper \
             crosses break-even at 4x on Class A, where per-page phase traffic is ~30x larger \
             relative to the serial migration cost (see EXPERIMENTS.md)",
            pct(ratios[0]),
            pct(ratios[1]),
            pct(ratios[2]),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_phases_improves_recreps_relative_position() {
        let ratio_at = |ps: usize| {
            let pair = grid::run_cells(cells(Scale::Tiny, ps));
            pair[1].total_secs / pair[0].total_secs
        };
        let normal = ratio_at(1);
        let scaled = ratio_at(4);
        assert!(
            scaled < normal,
            "scaling phases must shrink recrep's relative cost: {scaled} vs {normal}"
        );
    }
}
