//! `--trace DIR` writes one trace per run, numbered at the cell's merge
//! step in plan order: the directory is the same, byte for byte, at any
//! worker count.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `xp fig5 --scale tiny --trace` at `jobs` workers; its trace dir.
fn traced_fig5(jobs: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-dir-jobs{jobs}"));
    let _ = std::fs::remove_dir_all(&root);
    let out = Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(["fig5", "--scale", "tiny", "--jobs", jobs, "--trace"])
        .arg(root.join("traces"))
        .arg("--out")
        .arg(root.join("out"))
        .env("XP_DASH", "0")
        .output()
        .expect("xp runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    root.join("traces")
}

/// Every file under `dir`, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn fig5_traces_follow_plan_order_at_any_worker_count() {
    let serial = files(&traced_fig5("1"));
    let parallel = files(&traced_fig5("2"));
    let names: Vec<&str> = serial.iter().map(|(n, _)| n.as_str()).collect();
    let mut expected = Vec::new();
    for (seq, bench) in ["bt", "sp"].iter().enumerate() {
        for (i, engine) in ["IRIX", "IRIXmig", "upmlib", "recrep"].iter().enumerate() {
            for ext in ["chrome.json", "jsonl"] {
                expected.push(format!(
                    "trace-{:03}-{bench}-ft-{engine}.{ext}",
                    seq * 4 + i
                ));
            }
        }
    }
    assert_eq!(names, expected);
    for ((name, a), (other, b)) in serial.iter().zip(&parallel) {
        assert_eq!(name, other);
        assert!(a == b, "{name} differs between --jobs 1 and --jobs 2");
    }
    assert_eq!(serial.len(), parallel.len());
}
