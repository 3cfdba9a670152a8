//! `xp staticplace`: the four-way head-to-head the paper could not run —
//! static data distribution versus first-touch, each with and without the
//! UPMlib engine.
//!
//! The paper argues data distribution directives are unnecessary in OpenMP
//! because first-touch plus dynamic page migration recovers the gap. The
//! counterfactual it could not test (no distribution tool existed for
//! OpenMP) is a *static* placement synthesized offline. `lint::synth`
//! provides exactly that, so this experiment asks the paper's question
//! from the other side: with a perfect offline prescription in hand, does
//! the dynamic engine still earn its keep?
//!
//! Per benchmark, four configurations:
//!
//! * `ft-IRIX`      — first-touch, no engine (the paper's baseline)
//! * `static-IRIX`  — synthesized placement, no engine (pure offline)
//! * `ft-upmlib`    — first-touch + UPMlib (the paper's answer)
//! * `static-upmlib`— hybrid: offline prescription + dynamic engine
//!
//! All four cells share cache keys with the fig1/fig4 grids (same specs),
//! so a warm sweep recomputes nothing. The notes quantify the synthesis
//! itself: pages mapped, flip pages (no phase-invariant home), predicted
//! residual migrations, and the migrations the hybrid actually performed.

use crate::grid::{self, Cell, Group, Sweep};
use crate::report::{pct, Report};
use crate::run_one::default_engine_configs;
use nas::{BenchName, EngineMode, Scale};
use vmm::PlacementScheme;

/// The four-way sweep: one group of [`cells`] per benchmark.
pub const SWEEP: Sweep = Sweep {
    grid: |scale| BenchName::all().map(|b| cells(b, scale)).to_vec(),
    jobs: |_| Vec::new(),
    report: |scale, outputs, _| vec![report(scale, &outputs)],
};

/// One benchmark's four head-to-head cells, in the canonical order:
/// ft-IRIX, static-IRIX, ft-upmlib, static-upmlib.
pub fn cells(bench: BenchName, scale: Scale) -> Vec<Cell> {
    let static_placement = crate::lint::static_scheme(bench, scale);
    let (_, upm_opts) = default_engine_configs();
    [
        (PlacementScheme::FirstTouch, EngineMode::None),
        (static_placement.clone(), EngineMode::None),
        (PlacementScheme::FirstTouch, EngineMode::Upmlib(upm_opts)),
        (static_placement, EngineMode::Upmlib(upm_opts)),
    ]
    .into_iter()
    .map(|(placement, engine)| Cell::paper(bench, scale, placement, engine))
    .collect()
}

/// Run the four-way head-to-head for all five benchmarks.
pub fn run(scale: Scale) -> Report {
    SWEEP.run(scale).remove(0)
}

/// Render the head-to-head from its cells' outputs.
fn report(scale: Scale, outputs: &[Group]) -> Report {
    let mut report = Report::new(
        "staticplace",
        "Static data distribution vs first-touch, with and without UPMlib (the four-way head-to-head)",
        &[
            "Benchmark",
            "Config",
            "Time (s)",
            "vs ft-IRIX",
            "Last-75% vs ft",
            "UPM migrations",
            "Verified",
        ],
    );
    let mut static_vs_ft: Vec<f64> = Vec::new();
    let mut hybrid_vs_upm: Vec<f64> = Vec::new();
    grid::report_benches(
        &mut report,
        &BenchName::all(),
        outputs,
        " four-way (execution time, simulated seconds)",
        |r, base| {
            let last75 = base.map(|b| pct(r.last75_mean_secs() / b.last75_mean_secs()));
            vec![
                grid::vs(r, base),
                last75.unwrap_or_else(|| "-".into()),
                grid::upm_migrations(r),
            ]
        },
        |report, bench, ok| {
            let find = |placement: &str, engine: &str| {
                ok.iter()
                    .find(|r| r.placement == placement && r.engine == engine)
                    .copied()
            };
            // Synthesis accounting: what did the offline pass prescribe, and
            // how much dynamic work was left for the hybrid?
            let (_, map) = crate::lint::static_placement(bench, scale);
            let hybrid_migrations = find("static", "upmlib")
                .and_then(|r| r.upm.as_ref())
                .map(|s| s.total_distribution_migrations())
                .unwrap_or(0);
            report.note(format!(
                "{}: synthesized {} pages ({} flip), predicted residual {} migrations; static+upmlib performed {}",
                bench.label(),
                map.pages().len(),
                map.flip_pages().len(),
                map.residual_migrations(),
                hybrid_migrations
            ));
            if let (Some(base), Some(st)) = (find("ft", "IRIX"), find("static", "IRIX")) {
                static_vs_ft.push(st.total_secs / base.total_secs);
            }
            if let (Some(ft_upm), Some(hy)) = (find("ft", "upmlib"), find("static", "upmlib")) {
                hybrid_vs_upm.push(hy.total_secs / ft_upm.total_secs);
            }
        },
    );
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    if !static_vs_ft.is_empty() {
        report.note(format!(
            "average static-IRIX vs ft-IRIX: {} — the offline prescription alone, no runtime engine",
            pct(avg(&static_vs_ft))
        ));
    }
    if !hybrid_vs_upm.is_empty() {
        report.note(format!(
            "average static-upmlib vs ft-upmlib: {} — what the engine adds once placement starts converged",
            pct(avg(&hybrid_vs_upm))
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_placement_matches_or_beats_first_touch() {
        // The synthesized map reproduces UPMlib's converged placement, so
        // running it cold (no engine) must not lose to plain first-touch
        // by more than noise, and the hybrid must not add migrations over
        // what ft+upmlib performs (it starts where the engine would end).
        let results = grid::run_cells(cells(BenchName::Mg, Scale::Tiny));
        assert_eq!(results.len(), 4);
        let find = |label: &str| {
            results
                .iter()
                .find(|r| r.label() == label)
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        let ft = find("ft-IRIX");
        let st = find("static-IRIX");
        assert!(
            st.total_secs <= ft.total_secs * 1.05,
            "static-IRIX ({}) should not lose to ft-IRIX ({})",
            st.total_secs,
            ft.total_secs
        );
        let ft_upm = find("ft-upmlib");
        let hy = find("static-upmlib");
        let m = |r: &nas::RunResult| {
            r.upm
                .as_ref()
                .map(|s| s.total_distribution_migrations())
                .unwrap_or(0)
        };
        assert!(
            m(hy) <= m(ft_upm),
            "hybrid migrations ({}) should not exceed ft+upmlib ({})",
            m(hy),
            m(ft_upm)
        );
        assert!(results.iter().all(|r| r.verification.passed));
    }
}
