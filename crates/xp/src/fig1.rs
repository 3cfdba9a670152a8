//! Figure 1: impact of page placement on the five benchmarks, with and
//! without the IRIX kernel migration engine.
//!
//! For each benchmark, ten bars: {ft, rr, rand, wc, static} x {IRIX,
//! IRIXmig} — the paper's eight plus the lint-synthesized static placement
//! the paper couldn't generate (no such tool existed for OpenMP).
//! The paper's shape: worst-case placement slows programs 24%–248% (avg
//! ~90%); round-robin and random are modest (8%–45%); kernel migration
//! recovers part but not all of the gap, is a near-no-op under first-touch,
//! and *hurts* FT (page-level false sharing).
//!
//! Execution model: the benchmark x placement x engine grid is a list of
//! [`Cell`]s — every cell an independent simulated machine — executed as
//! one [`CellPlan`] and rendered by [`grid::report_benches`].

use crate::cells::CellPlan;
use crate::grid::{self, Cell, Group, Sweep};
use crate::report::{pct, Report};
use crate::run_one::default_engine_configs;
use nas::{BenchName, EngineMode, RunResult, Scale};
use vmm::PlacementScheme;

/// Figure 1's sweep: one group of [`cells`] per benchmark.
pub const SWEEP: Sweep = Sweep {
    grid: |scale| BenchName::all().map(|b| cells(b, scale, false)).to_vec(),
    jobs: |_| Vec::new(),
    report: |_, outputs, _| vec![report(&outputs)],
};

/// One benchmark's placement x engine cells, in the canonical order
/// (placement-major, engine-minor): five placement schemes
/// (ft/rr/rand/wc/static) times two engines, or three when `with_upmlib`
/// adds the `*-upmlib` configurations (Figure 4's extra bars). The random
/// placement scheme draws from the global experiment seed
/// ([`crate::seed`]).
pub fn cells(bench: BenchName, scale: Scale, with_upmlib: bool) -> Vec<Cell> {
    let (kcfg, upm_opts) = default_engine_configs();
    let mut engines = vec![EngineMode::None, EngineMode::IrixMig(kcfg)];
    if with_upmlib {
        engines.push(EngineMode::Upmlib(upm_opts));
    }
    let mut placements = PlacementScheme::all(crate::seed::get()).to_vec();
    // Fifth scheme: the lint-synthesized static placement (PlacementMap is
    // a pure function of bench x scale, so the cell keys stay stable).
    // Synthesized once here; the benchmark's static cells share the map.
    placements.push(crate::lint::static_scheme(bench, scale));
    let mut cells = Vec::new();
    for placement in &placements {
        for engine in &engines {
            cells.push(Cell::paper(bench, scale, placement.clone(), engine.clone()));
        }
    }
    cells
}

/// Append [`cells`] to `plan`.
pub fn plan_grid(
    plan: &mut CellPlan<RunResult>,
    bench: BenchName,
    scale: Scale,
    with_upmlib: bool,
) {
    for cell in cells(bench, scale, with_upmlib) {
        plan.add_cell(cell);
    }
}

/// Run Figure 1 for all five benchmarks.
pub fn run(scale: Scale) -> Report {
    SWEEP.run(scale).remove(0)
}

/// Render Figure 1 from its cells' outputs.
fn report(outputs: &[Group]) -> Report {
    let mut report = Report::new(
        "fig1",
        "Impact of page placement on the NAS benchmarks (execution time, simulated seconds)",
        &["Benchmark", "Config", "Time (s)", "vs ft-IRIX", "Verified"],
    );
    // Slowdowns without migration, per non-optimal scheme.
    let mut slowdowns = [("rr", vec![]), ("rand", vec![]), ("wc", vec![])];
    grid::report_benches(
        &mut report,
        &BenchName::all(),
        outputs,
        " (execution time, simulated seconds)",
        |r, base| {
            if let (Some(base), "IRIX") = (base, r.engine.as_str()) {
                if let Some((_, v)) = slowdowns.iter_mut().find(|(p, _)| *p == r.placement) {
                    v.push(r.total_secs / base.total_secs);
                }
            }
            vec![grid::vs(r, base)]
        },
        |_, _, _| {},
    );
    if slowdowns.iter().all(|(_, v)| !v.is_empty()) {
        let avg = |i: usize| {
            let v: &Vec<f64> = &slowdowns[i].1;
            pct(v.iter().sum::<f64>() / v.len() as f64)
        };
        report.note(format!(
            "average slowdown without migration: rr {}, rand {}, wc {} (paper: 22%, 23%, 90%)",
            avg(0),
            avg(1),
            avg(2),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_configs() {
        let results = grid::run_cells(cells(BenchName::Mg, Scale::Tiny, true));
        assert_eq!(results.len(), 15);
        let labels: Vec<_> = results.iter().map(|r| r.label()).collect();
        for want in [
            "ft-IRIX",
            "rr-IRIXmig",
            "rand-upmlib",
            "wc-upmlib",
            "static-IRIX",
            "static-upmlib",
        ] {
            assert!(
                labels.contains(&want.to_string()),
                "{want} missing from {labels:?}"
            );
        }
    }

    #[test]
    fn worst_case_is_slowest_class() {
        let results = grid::run_cells(cells(BenchName::Cg, Scale::Small, false));
        let find = |label: &str| results.iter().find(|r| r.label() == label).unwrap();
        let base = find("ft-IRIX").total_secs;
        let wc = find("wc-IRIX");
        assert!(
            wc.total_secs > base,
            "worst-case ({}) must beat first-touch ({base}) for slowness",
            wc.total_secs
        );
    }
}
