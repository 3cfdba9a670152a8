//! Figure 5: the record–replay mechanism on BT and SP under first-touch.
//!
//! Four bars per benchmark: ft-IRIX, ft-IRIXmig, ft-upmlib, ft-recrep, with
//! the recrep bar split into useful time and the non-overlapped migration
//! overhead (the paper's striped segment).
//!
//! Paper shape: record–replay speeds up the *useful computation* (up to 10%
//! on BT) but its on-critical-path migration overhead outweighs the gain at
//! normal phase lengths — the total recrep bar is not better than upmlib.

use crate::grid::{self, Cell, Group, Sweep};
use crate::report::{secs, Report};
use crate::run_one::default_engine_configs;
use nas::{BenchName, EngineMode, Scale};
use vmm::PlacementScheme;

/// The benchmarks of the figure.
pub const BENCHES: [BenchName; 2] = [BenchName::Bt, BenchName::Sp];

/// Figure 5's sweep: one group of [`cells`] per benchmark of [`BENCHES`].
pub const SWEEP: Sweep = Sweep {
    grid: |scale| BENCHES.map(|b| cells(b, scale)).to_vec(),
    jobs: |_| Vec::new(),
    report: |_, outputs, _| vec![report(&outputs)],
};

/// One benchmark's cells, in bar order: first-touch under each of the four
/// engine modes.
pub fn cells(bench: BenchName, scale: Scale) -> Vec<Cell> {
    let (kcfg, upm_opts) = default_engine_configs();
    [
        EngineMode::None,
        EngineMode::IrixMig(kcfg),
        EngineMode::Upmlib(upm_opts),
        EngineMode::RecRep(upm_opts),
    ]
    .into_iter()
    .map(|engine| Cell::paper(bench, scale, PlacementScheme::FirstTouch, engine))
    .collect()
}

/// Run Figure 5 (BT and SP).
pub fn run(scale: Scale) -> Report {
    SWEEP.run(scale).remove(0)
}

/// Render Figure 5 from its cells' outputs.
fn report(outputs: &[Group]) -> Report {
    let mut report = Report::new(
        "fig5",
        "Record-replay on BT and SP, first-touch placement",
        &[
            "Benchmark",
            "Config",
            "Time (s)",
            "of which migration overhead (s)",
            "vs ft-IRIX",
            "Verified",
        ],
    );
    grid::report_benches(
        &mut report,
        &BENCHES,
        outputs,
        " (execution time; recrep bar includes its overhead)",
        |r, base| vec![secs(r.recrep_overhead_secs), grid::vs(r, base)],
        |report, bench, ok| {
            let upm = ok.iter().find(|r| r.engine == "upmlib");
            let recrep = ok.iter().find(|r| r.engine == "recrep");
            if let (Some(upm), Some(recrep)) = (upm, recrep) {
                let useful_recrep = recrep.total_secs - recrep.recrep_overhead_secs;
                report.note(format!(
                    "{}: recrep useful time {} vs upmlib total {} (paper: useful computation up to \
                     10% faster on BT, but overhead outweighs it)",
                    bench.label(),
                    secs(useful_recrep),
                    secs(upm.total_secs),
                ));
            }
        },
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recrep_pays_visible_overhead() {
        let results = grid::run_cells(cells(BenchName::Bt, Scale::Tiny));
        let recrep = results.iter().find(|r| r.engine == "recrep").unwrap();
        assert!(
            recrep.verification.passed,
            "recrep must not corrupt the numerics"
        );
        assert!(
            recrep.recrep_overhead_secs > 0.0,
            "record-replay must charge on-critical-path migration overhead"
        );
        let upm = results.iter().find(|r| r.engine == "upmlib").unwrap();
        assert_eq!(upm.recrep_overhead_secs, 0.0);
    }
}
