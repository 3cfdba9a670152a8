//! The content-addressed on-disk result cache.
//!
//! One file per cell result, under `<root>/<first 2 key hex>/<key>.json`
//! (the fan-out directory keeps listings shallow). Each entry is a single
//! JSON document:
//!
//! ```json
//! {
//!   "schema": "ddnomp-cache v1",
//!   "key": "<32 hex>",
//!   "canonical": "bench=cg;placement=wc;...",
//!   "spec": { ... },
//!   "created_unix": 1754650000,
//!   "payload_hash": "<32 hex>",
//!   "payload": { ... }
//! }
//! ```
//!
//! Publication is atomic: entries are written to a `.tmp` sibling and
//! `rename`d into place, so readers never observe a half-written file and
//! concurrent writers of the same key settle on one winner (the payloads
//! are byte-identical by determinism, so the winner does not matter).
//!
//! Integrity: `payload_hash` is a 128-bit digest over the *compact*
//! serialization of `payload`, and `canonical` must equal the requesting
//! spec's canonical string. A lookup that fails any check — unparseable
//! file, foreign schema major, key/spec mismatch, hash mismatch — counts
//! as corruption, **removes the entry**, and reports a miss, so a damaged
//! entry is recomputed and never served.

use crate::hash::digest128;
use crate::spec::CellSpec;
use obs::json::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Entry schema tag; the major (the integer in `v1`) gates compatibility.
pub const CACHE_SCHEMA: &str = "ddnomp-cache v1";

/// In-process cache counters, shared by clones of one [`Cache`].
#[derive(Default)]
struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
}

/// A point-in-time copy of one cache's in-process counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries found damaged and removed during lookup or verify.
    pub corrupt: u64,
}

/// What one on-disk scan found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Number of entry files.
    pub entries: u64,
    /// Total entry bytes.
    pub bytes: u64,
    /// Oldest entry's `created_unix`, when any.
    pub oldest_unix: Option<u64>,
    /// Newest entry's `created_unix`, when any.
    pub newest_unix: Option<u64>,
}

/// Outcome of [`Cache::verify`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Entries whose integrity checks all passed.
    pub ok: u64,
    /// Damaged entries (removed).
    pub corrupt: Vec<PathBuf>,
}

/// Outcome of [`Cache::gc`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Entries removed.
    pub evicted: u64,
    /// Bytes those entries occupied.
    pub evicted_bytes: u64,
    /// Entries kept.
    pub kept: u64,
    /// Bytes the kept entries occupy.
    pub kept_bytes: u64,
}

/// The content-addressed result cache rooted at one directory. Cloning
/// shares the statistics counters (the clones are views of one cache).
#[derive(Clone)]
pub struct Cache {
    root: PathBuf,
    stats: Arc<Stats>,
}

impl Cache {
    /// A cache rooted at `root` (created lazily on first store).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Cache {
            root: root.into(),
            stats: Arc::new(Stats::default()),
        }
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The in-process counters so far.
    pub fn stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.stats.hits.load(Relaxed),
            misses: self.stats.misses.load(Relaxed),
            stores: self.stats.stores.load(Relaxed),
            corrupt: self.stats.corrupt.load(Relaxed),
        }
    }

    /// The entry path for a key.
    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(&key[..2]).join(format!("{key}.json"))
    }

    /// Look `spec` up. `Some(payload)` only when the entry exists and
    /// passes every integrity check; a damaged entry is removed and
    /// reported as a miss (the caller recomputes).
    pub fn lookup(&self, spec: &CellSpec) -> Option<Value> {
        let path = self.entry_path(&spec.key());
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                self.stats.misses.fetch_add(1, Relaxed);
                return None;
            }
        };
        match validate_entry(&text, Some(spec)) {
            Ok(payload) => {
                self.stats.hits.fetch_add(1, Relaxed);
                Some(payload)
            }
            Err(_) => {
                // Detected corruption: never serve it, drop the entry so
                // the recomputed result can be stored cleanly.
                self.stats.corrupt.fetch_add(1, Relaxed);
                self.stats.misses.fetch_add(1, Relaxed);
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Store `payload` as `spec`'s result. Atomic: the entry appears
    /// complete or not at all.
    pub fn store(&self, spec: &CellSpec, payload: &Value) -> std::io::Result<PathBuf> {
        let key = spec.key();
        let path = self.entry_path(&key);
        let dir = path.parent().expect("entry path has a parent");
        std::fs::create_dir_all(dir)?;
        let doc = Value::object(vec![
            ("schema", CACHE_SCHEMA.into()),
            ("key", key.as_str().into()),
            ("canonical", spec.canonical().as_str().into()),
            ("spec", spec.to_json()),
            ("created_unix", (now_unix() as f64).into()),
            (
                "payload_hash",
                digest128(payload.to_string().as_bytes()).as_str().into(),
            ),
            ("payload", payload.clone()),
        ]);
        // Unique tmp name per writer so concurrent stores of one key never
        // interleave inside a file; rename publishes atomically.
        let tmp = dir.join(format!(
            ".tmp-{key}-{}-{:x}",
            std::process::id(),
            &payload as *const _ as usize
        ));
        let published = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(doc.to_string_pretty().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, &path)
        })();
        if let Err(e) = published {
            // Nothing else reclaims it: `entry_files` skips tmp names, so
            // neither `gc` nor `verify` would ever see the leftover.
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        self.stats.stores.fetch_add(1, Relaxed);
        Ok(path)
    }

    /// Every entry file currently on disk.
    fn entry_files(&self) -> Vec<PathBuf> {
        let mut files = Vec::new();
        let Ok(fanout) = std::fs::read_dir(&self.root) else {
            return files;
        };
        for dir in fanout.flatten() {
            if !dir.path().is_dir() {
                continue;
            }
            if let Ok(entries) = std::fs::read_dir(dir.path()) {
                for e in entries.flatten() {
                    let p = e.path();
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    if name.ends_with(".json") && !name.starts_with(".tmp-") {
                        files.push(p);
                    }
                }
            }
        }
        files.sort();
        files
    }

    /// Size and age statistics from a full directory scan.
    pub fn scan(&self) -> ScanReport {
        let mut report = ScanReport::default();
        for path in self.entry_files() {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            report.entries += 1;
            report.bytes += text.len() as u64;
            if let Some(created) = created_unix_of(&text) {
                report.oldest_unix = Some(report.oldest_unix.map_or(created, |o| o.min(created)));
                report.newest_unix = Some(report.newest_unix.map_or(created, |n| n.max(created)));
            }
        }
        report
    }

    /// Re-hash every entry; damaged ones are removed and reported.
    pub fn verify(&self) -> VerifyOutcome {
        let mut outcome = VerifyOutcome::default();
        for path in self.entry_files() {
            let ok = std::fs::read_to_string(&path)
                .ok()
                .is_some_and(|text| validate_entry(&text, None).is_ok());
            if ok {
                outcome.ok += 1;
            } else {
                self.stats.corrupt.fetch_add(1, Relaxed);
                let _ = std::fs::remove_file(&path);
                outcome.corrupt.push(path);
            }
        }
        outcome
    }

    /// Evict entries older than `max_age_secs` (against `now_unix`), then
    /// evict oldest-first until the remainder fits `max_bytes`.
    pub fn gc(&self, max_bytes: Option<u64>, max_age_secs: Option<u64>) -> GcOutcome {
        let now = now_unix();
        // (created, size, path); unreadable/undated entries count as oldest
        // so damage is reclaimed first.
        let mut entries: Vec<(u64, u64, PathBuf)> = self
            .entry_files()
            .into_iter()
            .map(|path| {
                let (created, size) = match std::fs::read_to_string(&path) {
                    Ok(text) => (created_unix_of(&text).unwrap_or(0), text.len() as u64),
                    Err(_) => (0, 0),
                };
                (created, size, path)
            })
            .collect();
        entries.sort();
        let mut outcome = GcOutcome::default();
        let total: u64 = entries.iter().map(|(_, size, _)| size).sum();
        let mut remaining = total;
        for (created, size, path) in entries {
            let too_old = max_age_secs.is_some_and(|max| now.saturating_sub(created) > max);
            let too_big = max_bytes.is_some_and(|max| remaining > max);
            if too_old || too_big {
                let _ = std::fs::remove_file(&path);
                outcome.evicted += 1;
                outcome.evicted_bytes += size;
                remaining -= size;
            } else {
                outcome.kept += 1;
                outcome.kept_bytes += size;
            }
        }
        outcome
    }
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("root", &self.root)
            .field("stats", &self.stats())
            .finish()
    }
}

impl std::fmt::Debug for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} stores={} corrupt={}",
            self.hits.load(Relaxed),
            self.misses.load(Relaxed),
            self.stores.load(Relaxed),
            self.corrupt.load(Relaxed)
        )
    }
}

/// Parse and integrity-check one entry's text; `Ok` returns the payload.
/// `expect` additionally pins the entry to a specific requesting spec.
fn validate_entry(text: &str, expect: Option<&CellSpec>) -> Result<Value, String> {
    let doc = Value::parse(text).map_err(|e| format!("unparseable entry: {e:?}"))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("entry has no schema tag")?;
    let major_ok = schema
        .strip_prefix("ddnomp-cache v")
        .and_then(|v| v.split('.').next())
        .and_then(|v| v.parse::<u64>().ok())
        == Some(1);
    if !major_ok {
        return Err(format!("foreign schema '{schema}'"));
    }
    let canonical = doc
        .get("canonical")
        .and_then(Value::as_str)
        .ok_or("entry has no canonical spec")?;
    let key = doc
        .get("key")
        .and_then(Value::as_str)
        .ok_or("entry has no key")?;
    if key != digest128(canonical.as_bytes()) {
        return Err("key does not hash the canonical spec".into());
    }
    if let Some(spec) = expect {
        // The full-string comparison makes even a 128-bit digest collision
        // unable to cross results between specs.
        if canonical != spec.canonical() {
            return Err("entry stores a different spec".into());
        }
    }
    let payload = doc.get("payload").ok_or("entry has no payload")?;
    let stored_hash = doc
        .get("payload_hash")
        .and_then(Value::as_str)
        .ok_or("entry has no payload hash")?;
    if stored_hash != digest128(payload.to_string().as_bytes()) {
        return Err("payload hash mismatch".into());
    }
    Ok(payload.clone())
}

/// `created_unix` of an entry's text, when parseable.
fn created_unix_of(text: &str) -> Option<u64> {
    Value::parse(text)
        .ok()?
        .get("created_unix")
        .and_then(Value::as_u64)
}

fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bench: &str) -> CellSpec {
        CellSpec {
            bench: bench.into(),
            placement: "wc".into(),
            placement_fp: String::new(),
            engine: "upmlib".into(),
            scale: "tiny".into(),
            seed: 0,
            variant: String::new(),
            config_fp: "0123456789abcdef".into(),
            code_version: "c1".into(),
        }
    }

    fn payload(x: f64) -> Value {
        Value::object(vec![("total_secs", x.into()), ("ok", true.into())])
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("ddnomp-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = Cache::new(tmp_root("roundtrip"));
        assert!(cache.lookup(&spec("cg")).is_none(), "cold cache misses");
        cache.store(&spec("cg"), &payload(1.25)).unwrap();
        let got = cache.lookup(&spec("cg")).expect("stored entry hits");
        assert_eq!(got, payload(1.25));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.corrupt), (1, 1, 1, 0));
        // A different spec does not hit the same entry.
        assert!(cache.lookup(&spec("mg")).is_none());
    }

    #[test]
    fn a_failed_store_leaves_no_tmp_file_behind() {
        let cache = Cache::new(tmp_root("store-fails"));
        // Occupy the entry path with a non-empty directory: the write and
        // the sync succeed, the publishing rename cannot.
        let path = cache.entry_path(&spec("cg").key());
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        let err = cache.store(&spec("cg"), &payload(1.0)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::IsADirectory, "{err}");
        let fanout = path.parent().unwrap();
        let left: Vec<_> = std::fs::read_dir(fanout)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, [path.file_name().unwrap()], "only the directory");
        assert_eq!(cache.stats().stores, 0);
    }

    #[test]
    fn damaged_entries_are_never_served_and_get_removed() {
        let cache = Cache::new(tmp_root("damage"));
        let path = cache.store(&spec("cg"), &payload(2.0)).unwrap();
        // Flip payload bytes without updating the hash.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("1.25", "9.99").replace("2", "3")).unwrap();
        assert!(cache.lookup(&spec("cg")).is_none(), "corruption => miss");
        assert!(!path.exists(), "damaged entry removed for recompute");
        assert_eq!(cache.stats().corrupt, 1);
        // Truncation likewise.
        let path = cache.store(&spec("cg"), &payload(2.0)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.lookup(&spec("cg")).is_none());
        assert_eq!(cache.stats().corrupt, 2);
    }

    #[test]
    fn verify_reports_and_removes_damage() {
        let cache = Cache::new(tmp_root("verify"));
        cache.store(&spec("cg"), &payload(1.0)).unwrap();
        let bad = cache.store(&spec("mg"), &payload(2.0)).unwrap();
        let text = std::fs::read_to_string(&bad).unwrap();
        std::fs::write(&bad, text.replace("payload_hash", "payload_hush")).unwrap();
        let outcome = cache.verify();
        assert_eq!(outcome.ok, 1);
        assert_eq!(outcome.corrupt, vec![bad.clone()]);
        assert!(!bad.exists());
    }

    #[test]
    fn scan_counts_entries_and_bytes() {
        let cache = Cache::new(tmp_root("scan"));
        assert_eq!(cache.scan(), ScanReport::default());
        cache.store(&spec("cg"), &payload(1.0)).unwrap();
        cache.store(&spec("mg"), &payload(2.0)).unwrap();
        let report = cache.scan();
        assert_eq!(report.entries, 2);
        assert!(report.bytes > 0);
        assert!(report.oldest_unix.is_some());
        assert!(report.oldest_unix <= report.newest_unix);
    }

    #[test]
    fn gc_by_size_evicts_oldest_first() {
        let cache = Cache::new(tmp_root("gc-size"));
        let first = cache.store(&spec("cg"), &payload(1.0)).unwrap();
        // Backdate the first entry so eviction order is deterministic even
        // within one wall-clock second.
        let text = std::fs::read_to_string(&first).unwrap();
        let backdated = backdate(&text, 1_000_000);
        std::fs::write(&first, backdated).unwrap();
        let second = cache.store(&spec("mg"), &payload(2.0)).unwrap();
        let one_entry = std::fs::metadata(&second).unwrap().len();
        let outcome = cache.gc(Some(one_entry), None);
        assert_eq!(outcome.evicted, 1);
        assert_eq!(outcome.kept, 1);
        assert!(!first.exists(), "older entry evicted");
        assert!(second.exists(), "newer entry kept");
    }

    #[test]
    fn gc_by_age_evicts_only_stale_entries() {
        let cache = Cache::new(tmp_root("gc-age"));
        let old = cache.store(&spec("cg"), &payload(1.0)).unwrap();
        let text = std::fs::read_to_string(&old).unwrap();
        std::fs::write(&old, backdate(&text, 10_000)).unwrap();
        let fresh = cache.store(&spec("mg"), &payload(2.0)).unwrap();
        let outcome = cache.gc(None, Some(3_600));
        assert_eq!((outcome.evicted, outcome.kept), (1, 1));
        assert!(!old.exists());
        assert!(fresh.exists());
    }

    /// Rewrite an entry's `created_unix` to `secs` seconds in the past.
    /// (GC trusts the header date; the payload hash stays valid because it
    /// covers only the payload.)
    fn backdate(text: &str, secs: u64) -> String {
        let doc = Value::parse(text).unwrap();
        let created = doc.get("created_unix").and_then(Value::as_u64).unwrap();
        text.replace(
            &format!("\"created_unix\": {created}"),
            &format!("\"created_unix\": {}", created.saturating_sub(secs)),
        )
    }
}
