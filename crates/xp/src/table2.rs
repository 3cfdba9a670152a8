//! Table 2: statistics of the UPMlib engine under the three non-optimal
//! placement schemes plus the lint-synthesized static placement — the
//! residual slowdown in the last 75% of the
//! iterations (is the memory performance stable once the engine settles?)
//! and the fraction of page migrations performed after the first iteration
//! (is the migration cost concentrated at the start?).
//!
//! Paper values: residual slowdown always < 2.7%; first-iteration migration
//! share 100% for CG/FT/MG and >= 78% for BT/SP.

use crate::grid::{Cell, Group, Sweep};
use crate::report::{pct, Report};
use crate::run_one::default_engine_configs;
use nas::{BenchName, EngineMode, RunResult, Scale};
use vmm::PlacementScheme;

/// Table 2's sweep: one group of [`cells`] per benchmark.
pub const SWEEP: Sweep = Sweep {
    grid: |scale| BenchName::all().map(|b| cells(b, scale)).to_vec(),
    report: |_, outputs| vec![report(&outputs)],
};

/// One benchmark's cells: first the ft-IRIX reference run, then the three
/// non-optimal schemes and the synthesized static placement under UPMlib.
pub fn cells(bench: BenchName, scale: Scale) -> Vec<Cell> {
    let (_, upm_opts) = default_engine_configs();
    let ft = Cell::paper(bench, scale, PlacementScheme::FirstTouch, EngineMode::None);
    let schemes = [
        PlacementScheme::RoundRobin,
        PlacementScheme::Random {
            seed: crate::seed::get(),
        },
        PlacementScheme::WorstCase { node: 0 },
        // static+UPMlib: how much work is left for the engine when the
        // initial placement is already the synthesized prescription?
        crate::lint::static_scheme(bench, scale),
    ];
    let upm = schemes
        .into_iter()
        .map(|placement| Cell::paper(bench, scale, placement, EngineMode::Upmlib(upm_opts)));
    std::iter::once(ft).chain(upm).collect()
}

/// One scheme's entries, measured against the benchmark's ft-IRIX run:
/// the mean per-iteration time over the last 75% of iterations relative
/// to ft's same statistic, and the fraction of distribution migrations in
/// the engine's first invocation.
fn stats_vs(ft: &RunResult, r: &RunResult) -> (f64, f64) {
    let stats = r.upm.as_ref().expect("upmlib runs carry stats");
    (
        r.last75_mean_secs() / ft.last75_mean_secs(),
        stats.first_invocation_fraction(),
    )
}

/// Run Table 2 for all five benchmarks.
pub fn run(scale: Scale) -> Report {
    SWEEP.run(scale).remove(0)
}

/// Render Table 2 from its cells' outputs.
fn report(outputs: &[Group]) -> Report {
    let mut report = Report::new(
        "table2",
        "UPMlib statistics: residual slowdown in the last 75% of iterations; share of migrations in the first iteration",
        &[
            "Benchmark",
            "Scheme",
            "Slowdown, last 75% (vs ft)",
            "Migrations in first invocation",
        ],
    );
    let mut worst_res = 0.0f64;
    let mut best_frac = 1.0f64;
    for (bench, chunk) in BenchName::all().into_iter().zip(outputs) {
        let ft = match &chunk[0].value {
            Ok(r) => r,
            Err(p) => {
                // Without the reference run no slowdown is computable:
                // every row of this benchmark degrades to a failure note.
                for cell in chunk {
                    report.failed_row(&cell.id, &p.message);
                }
                continue;
            }
        };
        for cell in &chunk[1..] {
            let r = match &cell.value {
                Ok(r) => r,
                Err(p) => {
                    report.failed_row(&cell.id, &p.message);
                    continue;
                }
            };
            let (last75_slowdown, first_iter_fraction) = stats_vs(ft, r);
            worst_res = worst_res.max(last75_slowdown);
            best_frac = best_frac.min(first_iter_fraction);
            report.row(vec![
                bench.label().into(),
                r.placement.clone(),
                pct(last75_slowdown),
                format!("{:.0}%", first_iter_fraction * 100.0),
            ]);
        }
    }
    report.note(format!(
        "worst residual slowdown {} (paper: always < 2.7%); lowest first-invocation share {:.0}% (paper: >= 78%)",
        pct(worst_res),
        best_frac * 100.0
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_slowdown_is_small_once_settled() {
        let _gate = crate::summary::gate::crediting();
        // MG Tiny under round-robin + upmlib: after the engine settles, the
        // steady-state iterations should be close to first-touch speed.
        let results = crate::grid::run_cells(cells(BenchName::Mg, Scale::Tiny));
        let rr = results.iter().find(|r| r.placement == "rr").unwrap();
        let (last75_slowdown, first_iter_fraction) = stats_vs(&results[0], rr);
        assert!(
            last75_slowdown < 1.35,
            "residual slowdown too large: {last75_slowdown}"
        );
        assert!(first_iter_fraction > 0.0);
    }
}
