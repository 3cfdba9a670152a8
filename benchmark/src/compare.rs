//! `ledger compare A B`: two result directories, one row per (metric,
//! workload).
//!
//! A directory holds `<workload>/trace<0|1>-seed<seed>-<n>.json` files as
//! the runs write them; those of `--smoke` runs are not measurements and
//! are left out. End-to-end rows carry both medians, the relative
//! difference, the bound and a verdict; per-layer rows carry the numbers
//! only; count metrics and digests must be exactly equal for equal seeds.
//! Runs of different `--seconds` measure different amounts of work, so a
//! comparison that mixes them fails.

use crate::metrics::{Better, Kind, METRICS};
use crate::run::Workload;
use crate::stats::{iqr_frac, median};
use obs::json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One result file, reduced to what `compare` reads.
#[derive(Debug, Clone)]
pub struct RunFile {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    pub digests: Digests,
}

fn parse_run(text: &str) -> Result<RunFile, String> {
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    if v["schema"].as_str() != Some(crate::run::SCHEMA) {
        return Err(format!("not a {} file", crate::run::SCHEMA));
    }
    let pairs = |v: &Value| v.as_object().cloned().unwrap_or_default();
    Ok(RunFile {
        workload: v["workload"].as_str().ok_or("no workload")?.to_string(),
        seed: v["seed"].as_u64().ok_or("no seed")?,
        seconds: v["seconds"].as_u64().ok_or("no seconds")?,
        trace: v["trace"].as_bool().ok_or("no trace flag")?,
        smoke: v["smoke"].as_bool().ok_or("no smoke flag")?,
        correct: v["correct"].as_bool().unwrap_or(false),
        metrics: pairs(&v["metrics"])
            .into_iter()
            .filter_map(|(k, m)| m["value"].as_f64().map(|x| (k, x)))
            .collect(),
        digests: pairs(&v["digests"])
            .into_iter()
            .filter_map(|(k, d)| d.as_str().map(|s| (k, s.to_string())))
            .collect(),
    })
}

/// Every result file of a measuring (not `--smoke`) run under
/// `dir/<workload>/`.
pub fn load_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut runs = Vec::new();
    for w in Workload::ALL {
        let Ok(entries) = std::fs::read_dir(dir.join(w.name())) else {
            continue;
        };
        let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("trace") && name.ends_with(".json")) {
                continue;
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let run = parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            if !run.smoke {
                runs.push(run);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("no result files under {}", dir.display()));
    }
    Ok(runs)
}

/// Verdict of one end-to-end row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    /// The run-to-run spread is wider than the bound, and the sides overlap.
    Unresolved,
}

/// Judge `b` against `a` for one end-to-end metric: no worse than `a`'s
/// median by more than `bound`; unresolved when either side's IQR / median
/// exceeds the bound, unless every run of `b` is better than every run of
/// `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = iqr_frac(a).max(iqr_frac(b));
    let verdict = if spread > bound {
        let b_always_better = match better {
            Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
            Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
        };
        if b_always_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        }
    } else if worse_by <= bound {
        Verdict::Pass
    } else {
        Verdict::Fail
    };
    (worse_by, verdict)
}

fn values(runs: &[RunFile], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Per seed, the value of `metric` in the traced runs of `workload`; `Err`
/// if two runs of one seed disagree.
fn by_seed(runs: &[RunFile], workload: &str, metric: &str) -> Result<BTreeMap<u64, f64>, ()> {
    let mut out = BTreeMap::new();
    for r in runs.iter().filter(|r| r.workload == workload && r.trace) {
        if let Some(v) = r.metrics.get(metric) {
            if out.insert(r.seed, *v).is_some_and(|old| old != *v) {
                return Err(());
            }
        }
    }
    Ok(out)
}

/// Cell id -> digest of one run.
type Digests = BTreeMap<String, String>;

/// Per `(trace, seed)`, the digests of `workload`; `Err` if two runs of
/// one seed disagree.
fn digests_by_seed(runs: &[RunFile], workload: &str) -> Result<BTreeMap<(bool, u64), Digests>, ()> {
    let mut out = BTreeMap::new();
    for r in runs.iter().filter(|r| r.workload == workload) {
        if out
            .insert((r.trace, r.seed), r.digests.clone())
            .is_some_and(|old| old != r.digests)
        {
            return Err(());
        }
    }
    Ok(out)
}

/// Row counts by verdict.
#[derive(Default)]
struct Tally {
    pass: usize,
    fail: usize,
    unresolved: usize,
}

impl Tally {
    /// Count an exact-equality row and name its verdict.
    fn equality(&mut self, equal: bool) -> &'static str {
        if equal {
            self.pass += 1;
            "EQUAL"
        } else {
            self.fail += 1;
            "DIFFERENT"
        }
    }
}

/// Over the `(trace, seed)` runs both sides have: how many there are and
/// whether their digests agree. `None` when they share none.
fn shared_digests(
    x: &BTreeMap<(bool, u64), Digests>,
    y: &BTreeMap<(bool, u64), Digests>,
) -> Option<(usize, bool)> {
    let shared: Vec<_> = x.keys().filter(|k| y.contains_key(k)).collect();
    (!shared.is_empty()).then(|| (shared.len(), shared.iter().all(|k| x[k] == y[k])))
}

/// Compare two sets of runs; returns the printed table and whether any
/// row failed (FAIL or DIFFERENT).
pub fn compare(a: &[RunFile], b: &[RunFile]) -> (String, bool) {
    let mut out = String::new();
    let mut tally = Tally::default();
    out.push_str(&format!(
        "{:<34} {:<8} {:>14} {:>14} {:>9} {:>6}  {}\n",
        "metric", "workload", "A", "B", "B vs A", "bound", "verdict"
    ));
    let seconds: std::collections::BTreeSet<u64> = a.iter().chain(b).map(|r| r.seconds).collect();
    if seconds.len() > 1 {
        tally.fail += 1;
        out.push_str(&format!(
            "{:<34} {:<8} runs of different --seconds are mixed: {seconds:?}  FAIL\n",
            "seconds", "-"
        ));
    }
    for side in [a, b] {
        for r in side.iter().filter(|r| !r.correct) {
            tally.fail += 1;
            out.push_str(&format!(
                "{:<34} {:<8} a run of seed {} reported failed operations  FAIL\n",
                "correct", r.workload, r.seed
            ));
        }
    }
    for w in Workload::ALL.map(Workload::name) {
        for d in METRICS {
            let trace = !matches!(d.kind, Kind::EndToEnd { .. });
            let (va, vb) = (values(a, w, trace, d.name), values(b, w, trace, d.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let row = |diff: String, bound: String, verdict: &str| {
                format!(
                    "{:<34} {:<8} {:>14.6} {:>14.6} {:>9} {:>6}  {verdict}\n",
                    d.name, w, ma, mb, diff, bound
                )
            };
            match d.kind {
                Kind::EndToEnd { bound } => {
                    let (worse_by, verdict) = judge(&va, &vb, d.better, bound);
                    let label = match verdict {
                        Verdict::Pass => {
                            tally.pass += 1;
                            "PASS"
                        }
                        Verdict::Fail => {
                            tally.fail += 1;
                            "FAIL"
                        }
                        Verdict::Unresolved => {
                            tally.unresolved += 1;
                            "UNRESOLVED (spread wider than bound)"
                        }
                    };
                    let signed = if d.better == Better::Lower {
                        worse_by
                    } else {
                        -worse_by
                    };
                    out.push_str(&row(
                        format!("{:+.2}%", signed * 100.0),
                        format!("{:.0}%", bound * 100.0),
                        &format!("{label} [n={}/{}]", va.len(), vb.len()),
                    ));
                }
                Kind::Layer => {
                    let diff = if ma != 0.0 {
                        format!("{:+.2}%", (mb - ma) / ma * 100.0)
                    } else {
                        "-".into()
                    };
                    out.push_str(&row(diff, "-".into(), "-"));
                }
                Kind::Count => {
                    let equal = match (by_seed(a, w, d.name), by_seed(b, w, d.name)) {
                        (Ok(sa), Ok(sb)) => sa
                            .iter()
                            .all(|(seed, x)| sb.get(seed).is_none_or(|y| x == y)),
                        _ => false,
                    };
                    out.push_str(&row("-".into(), "exact".into(), tally.equality(equal)));
                }
            }
        }
        // Digests: equal between the sides for equal seeds.
        match (digests_by_seed(a, w), digests_by_seed(b, w)) {
            (Ok(da), Ok(db)) => {
                if let Some((n, equal)) = shared_digests(&da, &db) {
                    out.push_str(&format!(
                        "{:<34} {:<8} {n} run(s) with the same seed on both sides  {}\n",
                        "digests",
                        w,
                        tally.equality(equal)
                    ));
                }
            }
            _ => out.push_str(&format!(
                "{:<34} {:<8} runs of one seed disagree  {}\n",
                "digests",
                w,
                tally.equality(false)
            )),
        }
    }
    // Workloads that simulate the same cells: exact and replay (the fast
    // path is bit-invisible), and the three phases of the sweep (a cached
    // or served report is the computed one).
    for (x, y) in [
        ("exact", "replay"),
        ("sweep-cold", "sweep-warm"),
        ("sweep-cold", "sweep-served"),
    ] {
        for (side, runs) in [("A", a), ("B", b)] {
            if let (Ok(dx), Ok(dy)) = (digests_by_seed(runs, x), digests_by_seed(runs, y)) {
                if let Some((_, equal)) = shared_digests(&dx, &dy) {
                    out.push_str(&format!(
                        "{:<34} {:<8} {x} vs {y} digests within {side}  {}\n",
                        "digests",
                        "-",
                        tally.equality(equal)
                    ));
                }
            }
        }
    }
    out.push_str(&format!(
        "{} passed, {} failed, {} unresolved\n",
        tally.pass, tally.fail, tally.unresolved
    ));
    (out, tally.fail > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        workload: &str,
        seed: u64,
        trace: bool,
        metrics: &[(&str, f64)],
        digest: &str,
    ) -> RunFile {
        RunFile {
            workload: workload.into(),
            seed,
            seconds: 25,
            trace,
            smoke: false,
            correct: true,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            digests: [("bt:ft-IRIX".to_string(), digest.to_string())].into(),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        // 5 % worse with a 10 % bound passes; 20 % worse fails.
        assert_eq!(
            judge(&a, &[10.5, 10.4, 10.6, 10.5], Better::Lower, 0.10).1,
            Verdict::Pass
        );
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0], Better::Lower, 0.10).1,
            Verdict::Fail
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0], Better::Higher, 0.10).1,
            Verdict::Pass
        );
        assert_eq!(
            judge(&a, &[8.0, 8.1, 7.9, 8.0], Better::Higher, 0.10).1,
            Verdict::Fail
        );
        // A spread wider than the bound is unresolved ...
        let noisy = [8.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&noisy, &[10.0, 10.2, 9.8, 10.1], Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[5.0, 5.2, 4.8, 5.1], Better::Lower, 0.10).1,
            Verdict::Pass
        );
    }

    #[test]
    fn counts_and_digests_compare_exactly() {
        let a = vec![
            run("exact", 1, false, &[("wall_s", 10.0)], "aa"),
            run(
                "exact",
                1,
                true,
                &[("ccnuma.accesses", 100.0), ("nas.new_ms", 5.0)],
                "aa",
            ),
            run("replay", 1, false, &[("wall_s", 8.0)], "aa"),
        ];
        let (table, failed) = compare(&a, &a);
        assert!(!failed, "{table}");
        assert!(table.contains("EQUAL") && table.contains("PASS"));
        assert!(table.contains("exact vs replay digests within A  EQUAL"));

        let mut b = a.clone();
        b[1].metrics.insert("ccnuma.accesses".into(), 101.0);
        let (table, failed) = compare(&a, &b);
        assert!(failed && table.contains("DIFFERENT"), "{table}");

        let mut b = a.clone();
        b[2].digests.insert("bt:ft-IRIX".into(), "bb".into());
        let (table, failed) = compare(&a, &b);
        assert!(failed, "{table}");
        assert!(table.contains("exact vs replay digests within B  DIFFERENT"));
    }

    #[test]
    fn runs_of_different_seconds_do_not_compare() {
        let a = vec![run("exact", 1, false, &[("wall_s", 10.0)], "aa")];
        let mut b = a.clone();
        b[0].seconds = 10;
        let (table, failed) = compare(&a, &b);
        assert!(failed, "{table}");
        assert!(table.contains("runs of different --seconds are mixed"));
    }

    #[test]
    fn result_files_round_trip_through_the_loader() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-compare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = crate::run::RunArgs {
            workload: Workload::Exact,
            seed: 7,
            seconds: 25,
            trace: false,
            smoke: false,
            out: dir.clone(),
        };
        let mut metrics = crate::metrics::Metrics::default();
        metrics.set("wall_s", 1.25);
        let mut ops = crate::ops::Ops::default();
        ops.record(vec![]);
        let outcome = crate::run::Outcome {
            metrics,
            ops,
            digests: vec![("cg:ft-IRIX".into(), 0xabc)],
            samples: vec![("round_s".into(), vec![1.25])],
        };
        let first = crate::run::write_result(&args, &outcome, &dir.join("exact")).unwrap();
        let second = crate::run::write_result(&args, &outcome, &dir.join("exact")).unwrap();
        assert_ne!(first, second, "a second run takes the next free index");
        // A smoke run of the same seed lands beside them with tiny-scale
        // times and digests; the loader must leave it out.
        let smoke = crate::run::RunArgs {
            smoke: true,
            ..args.clone()
        };
        let mut tiny = crate::metrics::Metrics::default();
        tiny.set("wall_s", 0.01);
        let tiny = crate::run::Outcome {
            metrics: tiny,
            digests: vec![("cg:ft-IRIX".into(), 0xdef)],
            ..Default::default()
        };
        crate::run::write_result(&smoke, &tiny, &dir.join("exact")).unwrap();
        let runs = load_dir(&dir).unwrap();
        assert_eq!(runs.len(), 2);
        let (table, failed) = compare(&runs, &runs);
        assert!(!failed, "{table}");
        assert_eq!(runs[0].metrics["wall_s"], 1.25);
        assert_eq!(runs[0].digests["cg:ft-IRIX"], "0000000000000abc");
        assert!(runs[0].correct && !runs[0].trace && runs[0].seed == 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
