//! Result-cache wiring for offline `xp` runs (`--cache`).
//!
//! The binary installs an [`svc::Cache`] here at startup; every
//! [`crate::cells::CellPlan`] execution then resolves its grid cells
//! against it — before the server and the worker pool — and stores freshly
//! computed runs back at merge time. Only grid cells are keyed: a plan's
//! jobs (schedules, synthetic kernels, Table 1's probe) always run. The
//! cache is bypassed entirely while a `--trace DIR` is installed: traced
//! runs must actually execute (and their results carry tracers the cache
//! encoding deliberately drops).
//!
//! A cache hit must be indistinguishable from a recompute in every saved
//! artifact. Two properties deliver that:
//!
//! * the payload codec is **exact** (`nas::codec`: every `f64` round-trips
//!   bit-identically);
//! * a run has no effects of its own on the process-globals: a grid cell,
//!   computed or resolved, has them in one merge step at its canonical plan
//!   position, and its simulated seconds are credited from the outputs
//!   ([`crate::summary::credit_sweep`]), so `bench_summary.json` totals
//!   stay the same fixed-order float sum.

use std::sync::Mutex;

static CACHE: Mutex<Option<svc::Cache>> = Mutex::new(None);

/// Install (or clear) the process-wide result cache. `svc::Cache` clones
/// share their statistics counters, so the stats printed at exit reflect
/// every plan's traffic.
pub fn install(cache: Option<svc::Cache>) {
    *CACHE.lock().unwrap() = cache;
}

/// The installed cache.
pub fn installed() -> Option<svc::Cache> {
    CACHE.lock().unwrap().clone()
}

/// One human-readable stats line for the installed cache, or `None` when
/// no cache is installed.
pub fn stats_line() -> Option<String> {
    let cache = installed()?;
    let s = cache.stats();
    Some(format!(
        "cache {}: {} hits, {} misses, {} stores{}",
        cache.root().display(),
        s.hits,
        s.misses,
        s.stores,
        if s.corrupt > 0 {
            format!(", {} corrupt entries recomputed", s.corrupt)
        } else {
            String::new()
        }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_stats_line() {
        let dir = std::env::temp_dir().join(format!("ddnomp-xpcache-{}", std::process::id()));
        install(Some(svc::Cache::new(&dir)));
        let line = stats_line().expect("cache installed");
        assert!(line.contains("0 hits"), "{line}");
        install(None);
        assert!(stats_line().is_none());
    }
}
