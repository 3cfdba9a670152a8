//! The artifact triple `xp trace`, `xp prof`, `xp selfprof`, `--trace DIR`
//! and `xp serve --spans` leave behind: `<stem>.md` (optional),
//! `<stem>.jsonl` and `<stem>.chrome.json`. The callers bring the content
//! (`obs::export` / `hostprof::export` build it); this is the one place
//! that names the files and writes them.

use obs::json::Value;
use std::path::{Path, PathBuf};

/// Write `<dir>/<stem>.md` (when `md` is given), `<dir>/<stem>.jsonl` and
/// the pretty-printed `<dir>/<stem>.chrome.json`, creating `dir`; returns
/// the `.jsonl` and `.chrome.json` paths.
pub fn write(
    dir: &Path,
    stem: &str,
    md: Option<&str>,
    jsonl: &str,
    chrome: &Value,
) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    if let Some(md) = md {
        std::fs::write(dir.join(format!("{stem}.md")), md)?;
    }
    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&jsonl_path, jsonl)?;
    let chrome_path = dir.join(format!("{stem}.chrome.json"));
    std::fs::write(&chrome_path, format!("{}\n", chrome.to_string_pretty()))?;
    Ok((jsonl_path, chrome_path))
}

/// The report note for the outcome of a [`write`] with an `.md`: file
/// names relative to the output directory, never paths, so reports stay
/// byte-identical wherever they are written.
pub fn note(stem: &str, written: std::io::Result<(PathBuf, PathBuf)>) -> String {
    match written {
        Ok(_) => format!("artifacts: {stem}.md, {stem}.jsonl, {stem}.chrome.json"),
        Err(e) => format!("could not write artifacts: {e}"),
    }
}
