//! Golden-report regression tests: the tiny-scale JSON reports are pinned
//! byte-for-byte against fixtures under `tests/golden/`.
//!
//! The simulator is deterministic, so any diff here is a behaviour change,
//! not noise. After an *intentional* change (new column, different model
//! constants), regenerate the fixtures and commit them together with the
//! change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```

use nas::Scale;
use std::path::PathBuf;
use xp::Report;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, report: Report) {
    check_text(name, report.to_json().to_string_pretty() + "\n");
}

fn check_text(name: &str, rendered: String) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {}: {e}\n\
             regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_reports`",
            path.display()
        )
    });
    if rendered != expected {
        let diff_line = rendered
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .map(|i| {
                format!(
                    "first differing line {}:\n  got:      {}\n  expected: {}",
                    i + 1,
                    rendered.lines().nth(i).unwrap_or(""),
                    expected.lines().nth(i).unwrap_or(""),
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: got {}, expected {}",
                    rendered.lines().count(),
                    expected.lines().count()
                )
            });
        panic!(
            "{name} drifted from its golden fixture.\n{diff_line}\n\
             if the change is intentional, regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test golden_reports` and commit the fixture"
        );
    }
}

#[test]
fn fig1_tiny_matches_golden() {
    check("fig1_tiny.json", xp::fig1::run(Scale::Tiny));
}

#[test]
fn fig4_tiny_matches_golden() {
    check("fig4_tiny.json", xp::fig4::run(Scale::Tiny));
}

#[test]
fn fig4_tiny_pins_the_reference_and_static_cells_of_every_benchmark() {
    // This fixture is the only pin on each benchmark's reference cell
    // (rr-upmlib, what `xp trace`/`selfprof` run) and its static-placement
    // companion: simulated seconds as the chart bar, migrations as the
    // row's "UPM migrations". An edit to fig4's grid must not drop either
    // from the fixture unnoticed.
    let text = std::fs::read_to_string(golden_path("fig4_tiny.json")).unwrap();
    let fixture = obs::json::Value::parse(&text).unwrap();
    let charts = fixture["charts"].as_array().unwrap();
    let rows = fixture["rows"].as_array().unwrap();
    for bench in nas::BenchName::all() {
        let title = format!("NAS {} ", bench.label());
        let chart = charts
            .iter()
            .find(|c| c["title"].as_str().unwrap().starts_with(&title))
            .unwrap_or_else(|| panic!("no {title}chart"));
        for config in ["rr-upmlib", "static-upmlib"] {
            let bar = chart["bars"]
                .as_array()
                .unwrap()
                .iter()
                .find(|b| b["label"].as_str() == Some(config))
                .unwrap_or_else(|| panic!("{title}chart has no {config} bar"));
            assert!(bar["value"].as_f64().unwrap() > 0.0);
            let row = rows
                .iter()
                .find(|r| r[0].as_str() == Some(bench.label()) && r[1].as_str() == Some(config))
                .unwrap_or_else(|| panic!("no {} {config} row", bench.label()));
            let migrations = row[4].as_str().unwrap();
            assert!(migrations.parse::<u64>().is_ok(), "{migrations}");
        }
    }
    assert_eq!(fixture["headers"][4].as_str(), Some("UPM migrations"));
}

#[test]
fn table2_tiny_matches_golden() {
    check("table2_tiny.json", xp::table2::run(Scale::Tiny));
}

#[test]
fn staticplace_tiny_matches_golden() {
    // The four-way head-to-head (ft/static x IRIX/upmlib) plus the
    // synthesis accounting notes: pins the placement synthesizer's output
    // end-to-end through the run pipeline.
    check("staticplace_tiny.json", xp::staticplace::run(Scale::Tiny));
}

#[test]
fn prof_cg_tiny_matches_golden() {
    // The analysis-only report (no artifact or verification notes): pins
    // the phase attribution, convergence summary and heatmap totals of
    // the reference rr-upmlib CG run at Tiny.
    let (_result, _tracer, profile) = xp::prof::profile_one(nas::BenchName::Cg, Scale::Tiny);
    check("prof_cg_tiny.json", xp::prof::report_for(&profile));
}

#[test]
fn lint_tiny_matches_golden() {
    // The full `xp lint --all` report with no deny set and no allowlist:
    // pins every finding (code, site, subject, count and message) at Tiny.
    let run = xp::lint::run(
        &nas::BenchName::all(),
        Scale::Tiny,
        &std::collections::BTreeSet::new(),
        &lint::Allowlist::empty(),
    );
    check("lint_tiny.json", run.report);
}

#[test]
fn cell_keys_tiny_match_the_fixture() {
    // Every spec-carrying cell's cache key, in plan order, at the default
    // seed — generated at the commit before `xp::grid` replaced the
    // per-experiment planners. A diff here means on-disk caches and
    // resident servers stop matching: that takes a `CODE_VERSION` bump and
    // a reason, never a refactor.
    use xp::{ablation, fig1, fig4, fig5, fig6, staticplace, table2};
    let scale = Scale::Tiny;
    let benches = nas::BenchName::all();
    let mut plans: Vec<(&str, Vec<xp::grid::Cell>)> = Vec::new();
    plans.extend(benches.map(|b| ("fig1", fig1::cells(b, scale, false))));
    plans.extend(benches.map(|b| ("fig4", fig4::cells(b, scale))));
    plans.extend(benches.map(|b| ("table2", table2::cells(b, scale))));
    plans.extend(fig5::BENCHES.map(|b| ("fig5", fig5::cells(b, scale))));
    plans.extend(fig6::PHASE_SCALES.map(|ps| ("fig6", fig6::cells(scale, ps))));
    plans.extend(benches.map(|b| ("staticplace", staticplace::cells(b, scale))));
    plans.extend(ablation::RATIOS.map(|r| {
        (
            "ablation-latency-ratio",
            ablation::latency_ratio_cells(scale, r),
        )
    }));
    plans.push(("ablation-threshold", ablation::threshold_cells(scale)));
    plans.extend(
        ablation::NODES.map(|n| ("ablation-machine-size", ablation::machine_size_cells(n))),
    );
    let mut rendered = String::new();
    for (experiment, cells) in plans {
        for spec in cells.iter().map(xp::grid::Cell::spec) {
            rendered += &format!("{} {experiment} {}\n", spec.key(), spec.cell_id());
        }
    }
    check_text("cell_keys_tiny.txt", rendered);
}
