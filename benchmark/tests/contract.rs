//! The contract between the program, `BENCHMARK.json` and the metric table:
//! the committed manifest is the one the table generates, and a `--smoke`
//! run of every workload emits exactly the manifest's names — end-to-end
//! names untraced, per-layer names traced — with its units. The driver
//! that runs `BENCHMARK.json` reads "every `end_to_end` metric" from the
//! result line of a `--trace 0` run and "every `per_layer` metric" from
//! that of a `--trace 1` run, of every workload.

use obs::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Value::parse(&text).expect("BENCHMARK.json is JSON")
}

fn ledger() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `name -> unit` of one manifest section.
fn section(manifest: &Value, key: &str) -> BTreeMap<String, String> {
    manifest[key]
        .as_array()
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn the_committed_manifest_is_the_one_the_table_generates() {
    let out = ledger()
        .arg("manifest")
        .output()
        .expect("running ledger manifest");
    assert!(out.status.success());
    let generated = Value::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(
        generated,
        manifest(),
        "BENCHMARK.json is stale: regenerate it with `ledger manifest > BENCHMARK.json`"
    );
}

#[test]
fn the_manifest_is_within_the_contracts_limits() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = m["workloads"].as_array().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert!(name_ok(w["name"].as_str().unwrap()));
        let why = w["why"].as_str().unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {}: {} chars",
            w["name"],
            why.len()
        );
    }
    let e2e = m["end_to_end"].as_array().unwrap();
    assert!((1..=16).contains(&e2e.len()));
    for metric in e2e {
        let bound = metric["bound"].as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = e2e
        .iter()
        .find(|x| x["name"] == "setup_s")
        .expect("setup_s");
    assert!(setup["unit"] == "s" && setup["better"] == "lower");
    assert!((1..=128).contains(&m["per_layer"].as_array().unwrap().len()));
    assert!((1..=60).contains(&m["run_seconds"].as_u64().unwrap()));
    let command = m["command"].as_array().unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
}

fn smoke(workload: &str, trace: &str, out: &Path) -> Value {
    let run = ledger()
        .args([
            "--workload",
            workload,
            "--smoke",
            "--trace",
            trace,
            "--seed",
            "4242",
        ])
        .arg("--out")
        .arg(out)
        .output()
        .expect("running a smoke workload");
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(
        run.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    Value::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn check_workload(workload: &str) {
    let m = manifest();
    assert!(m["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .any(|w| w["name"] == workload));
    let out: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
        "out/test-contract-{}-{workload}",
        std::process::id()
    ));
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = smoke(workload, trace, &out);
        let keys: Vec<&str> = result
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result["correct"].as_bool(), Some(true));
        assert!(result["attempted"].as_u64().unwrap() >= 1);
        assert_eq!(result["failed"].as_u64(), Some(0));
        let emitted: BTreeMap<String, String> = result["metrics"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(name, v)| {
                assert!(name_ok(name), "bad metric name {name}");
                assert!(v["value"].as_f64().is_some(), "{name} has no numeric value");
                (name.clone(), v["unit"].as_str().expect("unit").to_string())
            })
            .collect();
        assert_eq!(
            emitted,
            section(&m, key),
            "{workload} --trace {trace}: emitted names and units differ from BENCHMARK.json's {key}"
        );
        if trace == "0" {
            for (name, v) in result["metrics"].as_object().unwrap() {
                assert!(v["value"].as_f64().unwrap() > 0.0, "{name} is 0");
            }
        }
    }
    assert!(
        out.join(workload).join("trace.jsonl").exists(),
        "the traced run wrote its spans"
    );
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn smoke_exact_emits_the_manifests_names() {
    check_workload("exact");
}

#[test]
fn smoke_replay_emits_the_manifests_names() {
    check_workload("replay");
}

#[test]
fn smoke_migrate_emits_the_manifests_names() {
    check_workload("migrate");
}

#[test]
fn smoke_sweep_cold_emits_the_manifests_names() {
    check_workload("sweep-cold");
}

#[test]
fn smoke_sweep_warm_emits_the_manifests_names() {
    check_workload("sweep-warm");
}

#[test]
fn smoke_sweep_served_emits_the_manifests_names() {
    check_workload("sweep-served");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &[],
    ] {
        let out = ledger().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8(out.stdout)
            .unwrap()
            .contains("\"correct\""));
    }
}
