//! Figure 4: the Figure 1 grid extended with the UPMlib iterative page
//! migration engine (`*-upmlib` bars).
//!
//! The paper's shape: with UPMlib enabled, the slowdown of non-optimal
//! placements versus first-touch collapses — on average ~5% (rr), ~6%
//! (rand), ~14% (wc) — and under first-touch UPMlib even *gains* 6–22% on
//! most codes by fixing the pages first-touch put in the wrong place.

use crate::grid::{self, Cell, Group, Sweep};
use crate::report::{pct, Report};
use nas::{BenchName, Scale};

/// Figure 4's sweep: one group of [`cells`] per benchmark.
pub const SWEEP: Sweep = Sweep {
    grid: |scale| BenchName::all().map(|b| cells(b, scale)).to_vec(),
    report: |_, outputs| vec![report(&outputs)],
};

/// One benchmark's cells: the Figure 1 grid plus the `*-upmlib` bars.
pub fn cells(bench: BenchName, scale: Scale) -> Vec<Cell> {
    crate::fig1::cells(bench, scale, true)
}

/// Run Figure 4 for all five benchmarks.
pub fn run(scale: Scale) -> Report {
    SWEEP.run(scale).remove(0)
}

/// Render Figure 4 from its cells' outputs.
fn report(outputs: &[Group]) -> Report {
    let mut report = Report::new(
        "fig4",
        "Performance of the UPMlib page migration engine under the five placement schemes",
        &[
            "Benchmark",
            "Config",
            "Time (s)",
            "vs ft-IRIX",
            "UPM migrations",
            "Verified",
        ],
    );
    let mut upm_slow: Vec<(String, f64)> = Vec::new();
    grid::report_benches(
        &mut report,
        &BenchName::all(),
        outputs,
        " with UPMlib (execution time, simulated seconds)",
        |r, base| {
            if let (Some(base), "upmlib") = (base, r.engine.as_str()) {
                if r.placement != "ft" {
                    upm_slow.push((r.placement.clone(), r.total_secs / base.total_secs));
                }
            }
            vec![grid::vs(r, base), grid::upm_migrations(r)]
        },
        |_, _, _| {},
    );
    for scheme in ["rr", "rand", "wc", "static"] {
        let v: Vec<f64> = upm_slow
            .iter()
            .filter(|(s, _)| s == scheme)
            .map(|&(_, r)| r)
            .collect();
        if !v.is_empty() {
            let avg = v.iter().sum::<f64>() / v.len() as f64;
            let paper = match scheme {
                "rr" => "~5%",
                "rand" => "~6%",
                "wc" => "~14%",
                // The paper had no static-placement tool; this column is
                // the question it left open (see `xp staticplace`).
                _ => "not run",
            };
            report.note(format!(
                "average {scheme}-upmlib slowdown vs ft-IRIX: {} (paper: {paper})",
                pct(avg)
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upmlib_recovers_worst_case() {
        let _gate = crate::summary::gate::crediting();
        // The paper's headline: wc-upmlib is dramatically better than
        // wc-IRIX and lands near ft-IRIX.
        let results = grid::run_cells(cells(BenchName::Cg, Scale::Small));
        let find = |label: &str| results.iter().find(|r| r.label() == label).unwrap();
        let wc_plain = find("wc-IRIX");
        let wc_upm = find("wc-upmlib");
        assert!(
            wc_upm.total_secs < wc_plain.total_secs,
            "upmlib ({}) must improve on plain worst-case ({})",
            wc_upm.total_secs,
            wc_plain.total_secs
        );
        // Once the engine settles (the paper's Table 2 view), per-iteration
        // time approaches the first-touch baseline; the total still carries
        // the slow pre-migration first iteration.
        let ft = find("ft-IRIX");
        assert!(
            wc_upm.last75_mean_secs() < ft.last75_mean_secs() * 1.3,
            "settled wc-upmlib ({}) should approach settled ft-IRIX ({})",
            wc_upm.last75_mean_secs(),
            ft.last75_mean_secs()
        );
    }
}
