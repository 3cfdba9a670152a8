//! The benchmark must time the crates as `xp` builds them. Build settings
//! live in `[profile.*]` tables of a workspace's root manifest, and this
//! package is a workspace of its own, so a profile added to the repository's
//! manifest would silently not apply here. Fail until it is mirrored.

use std::collections::BTreeMap;
use std::path::Path;

/// The `[profile.*]` tables of a manifest: header -> its `key = value`
/// lines, comments and blank lines dropped.
fn profiles(manifest: &Path) -> BTreeMap<String, Vec<String>> {
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("reading {}: {e}", manifest.display()));
    let mut tables: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
    {
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            current = line.starts_with("[profile").then(|| line.to_string());
            if let Some(header) = &current {
                tables.entry(header.clone()).or_default();
            }
        } else if let Some(header) = &current {
            let setting: String = line.split_whitespace().collect();
            tables
                .get_mut(header)
                .expect("inserted above")
                .push(setting);
        }
    }
    tables
}

#[test]
fn the_nested_manifest_mirrors_every_root_profile() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = profiles(&here.join("../Cargo.toml"));
    let nested = profiles(&here.join("Cargo.toml"));
    assert_eq!(
        root, nested,
        "the root Cargo.toml and benchmark/Cargo.toml must carry the same [profile.*] tables"
    );
}

#[test]
fn profile_tables_are_found_and_normalized() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("test-parity-{}.toml", std::process::id()));
    std::fs::write(
        &path,
        "[package]\nname = \"x\"\n\n[profile.release]\n# tuned\nlto = \"fat\"  # slow\nopt-level=3\n\n[dependencies]\nlto = 1\n[profile.bench]\n",
    )
    .unwrap();
    let got = profiles(&path);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(got.len(), 2);
    assert_eq!(got["[profile.release]"], vec!["lto=\"fat\"", "opt-level=3"]);
    assert!(got["[profile.bench]"].is_empty());
}
