//! The host worker count (the binary's `--jobs N` flag).
//!
//! Like [`crate::seed`], this is a process-global knob installed once at
//! startup: every [`crate::cells::CellPlan`] execution draws its pool size
//! from here. `0` means "not set" and resolves to the host's available
//! parallelism, so `xp` saturates the machine by default while tests can
//! pin an explicit count.

use std::sync::atomic::{AtomicUsize, Ordering};

static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Install the worker count (the binary calls this before dispatching).
/// `set(0)` restores the default (available parallelism).
pub fn set(jobs: usize) {
    JOBS.store(jobs, Ordering::Relaxed);
}

/// The effective worker count: the installed value, or the host's
/// available parallelism when none was installed.
pub fn get() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => exec::Pool::available(),
        n => n,
    }
}

/// Run `f` with the worker count pinned to `jobs`, serialized against
/// every other test that pins it (the knob is process-global).
#[cfg(test)]
pub(crate) fn with_pinned<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    static PIN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _pin = PIN.lock().unwrap_or_else(|p| p.into_inner());
    set(jobs);
    let out = f();
    set(0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_then_set_then_reset() {
        assert!(get() >= 1);
        with_pinned(3, || assert_eq!(get(), 3));
        assert!(get() >= 1);
    }
}
