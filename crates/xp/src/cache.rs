//! Result-cache wiring for offline `xp` runs (`--cache`).
//!
//! The binary installs an [`svc::Cache`] here at startup; every
//! [`crate::cells::CellPlan`] execution then resolves its spec-carrying
//! cells against it before dispatching anything to the worker pool, and
//! stores freshly computed payloads back at merge time. The cache is
//! bypassed entirely while a `--trace DIR` is installed: traced runs must
//! actually execute (and their results carry tracers the cache encoding
//! deliberately drops).
//!
//! A cache hit must be indistinguishable from a recompute in every saved
//! artifact. Two properties deliver that:
//!
//! * the payload codec is **exact** (`nas::codec`: every `f64` round-trips
//!   bit-identically), and
//! * [`CachePayload::replay_side_effects`] re-credits whatever the
//!   computed run credited to the process-global accumulators — for a
//!   [`RunResult`], the run's simulated seconds — at the cell's canonical
//!   merge position, so `bench_summary.json` totals stay the same fixed-
//!   order float sum.

use nas::RunResult;
use obs::json::Value;
use std::sync::Mutex;

static CACHE: Mutex<Option<svc::Cache>> = Mutex::new(None);

/// Install (or clear) the process-wide result cache. `svc::Cache` clones
/// share their statistics counters, so the stats printed at exit reflect
/// every plan's traffic.
pub fn install(cache: Option<svc::Cache>) {
    *CACHE.lock().unwrap() = cache;
}

/// The installed cache, if caching is effective right now (a cache is
/// installed and no trace directory forces real execution).
pub(crate) fn effective() -> Option<svc::Cache> {
    if crate::trace::dir().is_some() {
        return None;
    }
    CACHE.lock().unwrap().clone()
}

/// The installed cache regardless of trace state (for the stats line).
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

/// A cell value the result cache can round-trip exactly.
pub trait CachePayload: Sized {
    /// Encode for the cache. Must round-trip bit-identically through
    /// serialized JSON text.
    fn to_cache(&self) -> Value;
    /// Decode a cached payload.
    fn from_cache(v: &Value) -> Result<Self, String>;
    /// Re-credit the process-global side effects the computed run would
    /// have credited (called at the cell's merge position on a hit).
    fn replay_side_effects(&self);
}

impl CachePayload for RunResult {
    fn to_cache(&self) -> Value {
        self.to_cache_json()
    }

    fn from_cache(v: &Value) -> Result<Self, String> {
        RunResult::from_cache_json(v)
    }

    fn replay_side_effects(&self) {
        // The exact credit `run_one`'s finish path adds for a computed
        // run; replaying it at merge keeps summary totals bit-identical.
        crate::summary::add_sim_secs(self.total_secs);
    }
}

/// The codec a spec-carrying cell captures at plan-build time: plain
/// function pointers, so [`crate::cells::CellPlan::execute`] needs no
/// `CachePayload` bound on `T`.
pub(crate) struct CellCodec<T> {
    pub(crate) encode: fn(&T) -> Value,
    pub(crate) decode: fn(&Value) -> Result<T, String>,
    pub(crate) replay: fn(&T),
}

impl<T> Clone for CellCodec<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for CellCodec<T> {}

/// The codec for a cacheable payload type.
pub(crate) fn codec_for<T: CachePayload>() -> CellCodec<T> {
    CellCodec {
        encode: T::to_cache,
        decode: T::from_cache,
        replay: T::replay_side_effects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_credits_the_runs_simulated_seconds() {
        let r = RunResult::from_cache_json(
            &nas::RunResult {
                bench: nas::BenchName::Cg,
                placement: "ft".into(),
                engine: "IRIX".into(),
                total_secs: 2.5,
                per_iter_secs: vec![1.25, 1.25],
                verification: nas::Verification::check(1.0, 1.0, 1e-9),
                upm: None,
                kernel_migrations: 0,
                remote_fraction: 0.0,
                recrep_overhead_secs: 0.0,
                trace: None,
            }
            .to_cache_json(),
        )
        .unwrap();
        crate::summary::take();
        r.replay_side_effects();
        assert_eq!(crate::summary::take().sim_secs, 2.5);
    }

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
