//! The span runtime: the enabled flag, per-thread span stacks, and the
//! session registry the report is collected from.
//!
//! Concurrency model: one profiling **session** at a time per process
//! ([`start`] holds a global lock). While a session is open, every thread
//! that opens a span lazily registers a [`ThreadLog`] keyed by the
//! session **epoch**; guards remember their epoch, so a guard that
//! outlives its session (or straddles an enable flip) closes as a no-op
//! instead of corrupting the next session's stacks.

use crate::report::{HostReport, SpanEvent, SpanNode, ThreadSpans};
use std::borrow::Cow;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Per-thread cap on recorded span events (aggregation is uncapped; the
/// event log feeds the Perfetto export and is bounded to keep long runs
/// from eating the host's memory). Overflow is counted, not silent.
pub const EVENT_CAP: usize = 1 << 15;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Whether a profiling session is currently collecting spans.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

type SharedLog = Arc<Mutex<ThreadLog>>;

struct Registry {
    t0: Instant,
    logs: Vec<SharedLog>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            t0: Instant::now(),
            logs: Vec::new(),
        })
    })
}

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One aggregation node: a distinct span path on one thread.
struct Node {
    name: Cow<'static, str>,
    calls: u64,
    incl_ns: u64,
    children: Vec<usize>,
}

/// One open span on a thread's stack. The guard that closes it carries
/// only this frame's depth, so everything the close needs lives here.
struct Frame {
    node: usize,
    start: Instant,
    record_event: bool,
}

/// One thread's span state for the current session.
struct ThreadLog {
    label: String,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<Frame>,
    events: Vec<SpanEvent>,
    dropped_events: u64,
}

impl ThreadLog {
    fn new(label: String) -> Self {
        ThreadLog {
            label,
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
        }
    }

    /// Find-or-create the child of the current stack top named `name`,
    /// push its frame, and return the new stack depth (1 = root).
    fn open(&mut self, name: Cow<'static, str>, record_event: bool) -> u32 {
        let parent = self.stack.last().map(|f| f.node);
        let siblings: &[usize] = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        let node = match found {
            Some(idx) => idx,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    name,
                    calls: 0,
                    incl_ns: 0,
                    children: Vec::new(),
                });
                match parent {
                    Some(p) => self.nodes[p].children.push(idx),
                    None => self.roots.push(idx),
                }
                idx
            }
        };
        // The clock is read last, so the span's interval excludes its own
        // open bookkeeping.
        self.stack.push(Frame {
            node,
            record_event,
            start: Instant::now(),
        });
        self.stack.len() as u32
    }

    /// Close the frame at `depth`, which ended at `end`. Guards close in
    /// LIFO order on a thread, so that frame is the stack top — unless an
    /// inner guard was leaked, whose frames are dropped here with it: they
    /// can never unbalance their parent. The other way round, a guard
    /// dropped after its parent finds its frame gone and closes nothing.
    fn close(&mut self, depth: u32, end: Instant, t0: Instant) {
        if self.stack.len() < depth as usize {
            return;
        }
        self.stack.truncate(depth as usize);
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let dur_ns = end.saturating_duration_since(frame.start).as_nanos() as u64;
        let node = &mut self.nodes[frame.node];
        node.calls += 1;
        node.incl_ns += dur_ns;
        if frame.record_event {
            if self.events.len() < EVENT_CAP {
                self.events.push(SpanEvent {
                    name: node.name.to_string(),
                    start_ns: frame.start.saturating_duration_since(t0).as_nanos() as u64,
                    dur_ns,
                    depth: depth - 1,
                });
            } else {
                self.dropped_events += 1;
            }
        }
    }

    fn to_spans(&self) -> ThreadSpans {
        fn build(log: &ThreadLog, idx: usize) -> SpanNode {
            let node = &log.nodes[idx];
            SpanNode {
                name: node.name.to_string(),
                calls: node.calls,
                incl_ns: node.incl_ns,
                children: node.children.iter().map(|&c| build(log, c)).collect(),
            }
        }
        ThreadSpans {
            label: self.label.clone(),
            roots: self.roots.iter().map(|&r| build(self, r)).collect(),
            events: self.events.clone(),
            dropped_events: self.dropped_events,
        }
    }
}

struct TlState {
    epoch: u64,
    log: SharedLog,
    t0: Instant,
}

thread_local! {
    static TL: RefCell<Option<TlState>> = const { RefCell::new(None) };
}

/// Register a fresh log for the calling thread in session `epoch`.
fn register(epoch: u64) -> TlState {
    let label = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
    let log = Arc::new(Mutex::new(ThreadLog::new(label)));
    let mut reg = lock_ignoring_poison(registry());
    reg.logs.push(log.clone());
    TlState {
        epoch,
        log,
        t0: reg.t0,
    }
}

/// An open span; closing happens on drop. Two words: the session it was
/// opened in (`epoch == 0` is the inert guard of a disabled profiler) and
/// the depth of its frame on the opening thread's stack — which is why it
/// is not `Send`. Disabled, a span costs one relaxed load at open and one
/// register test at drop; both bodies are out of line.
pub struct SpanGuard {
    epoch: u64,
    depth: u32,
    _on_its_thread: PhantomData<*const ()>,
}

const INERT: SpanGuard = SpanGuard {
    epoch: 0,
    depth: 0,
    _on_its_thread: PhantomData,
};

// The structural half of `tests/host_spans.rs`'s disabled-path gate: a guard
// that fits two registers has no drop glue worth the name.
const _: () = assert!(std::mem::size_of::<SpanGuard>() <= 16);

// `SpanGuard: !Send`: if it were `Send` both impls would apply and the
// inferred `_` below would be ambiguous, which fails the build.
const _: fn() = || {
    trait AmbiguousIfSend<A> {
        fn check() {}
    }
    impl<T: ?Sized> AmbiguousIfSend<()> for T {}
    impl<T: ?Sized + Send> AmbiguousIfSend<u8> for T {}
    let _ = <SpanGuard as AmbiguousIfSend<_>>::check;
};

impl Drop for SpanGuard {
    #[inline(always)]
    fn drop(&mut self) {
        if self.epoch != 0 {
            close_cold(self.epoch, self.depth);
        }
    }
}

#[cold]
#[inline(never)]
fn open_cold(name: Cow<'static, str>, record_event: bool) -> SpanGuard {
    let epoch = EPOCH.load(Ordering::Acquire);
    let depth = TL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let state = match &mut *slot {
            Some(state) if state.epoch == epoch => state,
            stale => stale.insert(register(epoch)),
        };
        let mut log = lock_ignoring_poison(&state.log);
        log.open(name, record_event)
    });
    SpanGuard {
        epoch,
        depth,
        _on_its_thread: PhantomData,
    }
}

#[cold]
#[inline(never)]
fn close_cold(epoch: u64, depth: u32) {
    let end = Instant::now();
    // A guard from a finished session closes as a no-op: its log is
    // already detached and the next session must not see it. So does one
    // whose thread has no log for its session (or is tearing down).
    if EPOCH.load(Ordering::Acquire) != epoch {
        return;
    }
    let _ = TL.try_with(|cell| {
        if let Some(state) = cell.borrow().as_ref().filter(|s| s.epoch == epoch) {
            lock_ignoring_poison(&state.log).close(depth, end, state.t0);
        }
    });
}

/// Open a span named by a static string, recorded in both the aggregate
/// tree and the per-thread event log.
#[inline(always)]
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return INERT;
    }
    open_cold(Cow::Borrowed(name), true)
}

/// Open a **hot** span: aggregated (calls + time) but kept out of the
/// event log, so per-access instrumentation does not flood the Perfetto
/// export or burn the event cap.
#[inline(always)]
pub fn span_hot(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return INERT;
    }
    open_cold(Cow::Borrowed(name), false)
}

/// Open a span with a runtime-built name (e.g. `cell:<id>` roots). The
/// allocation only happens when profiling is enabled.
#[inline(always)]
pub fn span_named(name: impl FnOnce() -> String) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return INERT;
    }
    open_cold(Cow::Owned(name()), true)
}

/// The process-wide session lock: callers that run profiling sessions
/// from tests (which share one process) take this to serialize them.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static SESSION: OnceLock<Mutex<()>> = OnceLock::new();
    lock_ignoring_poison(SESSION.get_or_init(|| Mutex::new(())))
}

/// Reset all state and start collecting spans. Prefer [`start`], which
/// also takes the session lock.
pub fn begin() {
    let mut reg = lock_ignoring_poison(registry());
    reg.logs.clear();
    reg.t0 = Instant::now();
    drop(reg);
    EPOCH.fetch_add(1, Ordering::AcqRel);
    ENABLED.store(true, Ordering::Release);
}

/// Stop collecting and build the report. Spans still open when `end` runs
/// are discarded (their guards observe a bumped epoch).
pub fn end() -> HostReport {
    ENABLED.store(false, Ordering::Release);
    EPOCH.fetch_add(1, Ordering::AcqRel);
    let (t0, logs) = {
        let mut reg = lock_ignoring_poison(registry());
        (reg.t0, std::mem::take(&mut reg.logs))
    };
    let wall_secs = t0.elapsed().as_secs_f64();
    let threads = logs
        .iter()
        .map(|log| lock_ignoring_poison(log).to_spans())
        .collect();
    HostReport { threads, wall_secs }
}

/// An exclusive profiling session: [`start`] locks out other sessions and
/// begins collecting; [`Session::finish`] ends collection and returns the
/// report.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

/// Start an exclusive profiling session.
pub fn start() -> Session {
    let guard = exclusive();
    begin();
    Session { _guard: guard }
}

impl Session {
    /// End the session and collect the report.
    pub fn finish(self) -> HostReport {
        end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        let _outer = exclusive();
        assert!(!enabled());
        let g = span("never.recorded");
        assert_eq!(g.epoch, 0);
        drop(g);
    }

    #[test]
    fn a_guard_opened_while_disabled_stays_inert_inside_a_session() {
        let guard = exclusive();
        let early = span("opened.before.begin");
        begin();
        let a = span("a");
        drop(early); // inert: must not close `a`'s frame, or anything
        drop(span_hot("a.b"));
        drop(a);
        let report = end();
        drop(guard);
        let merged = report.merged();
        assert_eq!(merged.len(), 1, "{merged:?}");
        assert_eq!((merged[0].name.as_str(), merged[0].calls), ("a", 1));
        assert_eq!(merged[0].children.len(), 1);
        assert_eq!(merged[0].children[0].calls, 1);

        let guard = exclusive();
        let early = span("opened.before.begin");
        begin();
        drop(early);
        let report = end();
        drop(guard);
        assert!(report.merged().is_empty());
    }

    #[test]
    fn a_leaked_inner_guard_cannot_unbalance_its_parent() {
        let guard = exclusive();
        begin();
        let a = span("a");
        std::mem::forget(span("a.b"));
        drop(a);
        drop(span("c"));
        let report = end();
        drop(guard);
        assert_eq!(report.merged().len(), 2, "`c` is a root beside `a`");
        let a = report.root("a").expect("a closed");
        assert_eq!(a.calls, 1);
        assert_eq!(a.children.len(), 1);
        assert_eq!(a.children[0].name, "a.b");
        assert_eq!(a.children[0].calls, 0);
        let c = report.root("c").expect("c is a root");
        assert_eq!(c.calls, 1);
        assert!(c.children.is_empty());
    }

    #[test]
    fn a_guard_dropped_after_its_parent_closes_nothing() {
        let guard = exclusive();
        begin();
        let r = span("r");
        let a = span("r.a");
        let b = span("r.a.b");
        drop(a); // takes `r.a.b`'s frame with it
        drop(b); // must not pop `r`
        drop(span("r.c"));
        drop(r);
        let report = end();
        drop(guard);
        let r = report.root("r").expect("r closed");
        assert_eq!(r.calls, 1);
        let child = |name: &str| r.children.iter().find(|n| n.name == name).unwrap();
        assert_eq!(child("r.a").calls, 1);
        assert_eq!(child("r.a").children[0].calls, 0);
        assert_eq!(child("r.c").calls, 1, "`r` was still open for `r.c`");
    }

    #[test]
    fn nesting_aggregates_inclusive_time_and_calls() {
        let guard = exclusive();
        begin();
        for _ in 0..3 {
            let _a = span("a");
            for _ in 0..2 {
                let _b = span_hot("a.b");
                std::hint::black_box(0u64);
            }
        }
        let report = end();
        drop(guard);
        let merged = report.merged();
        assert_eq!(merged.len(), 1);
        let a = &merged[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.calls, 3);
        assert_eq!(a.children.len(), 1);
        assert_eq!(a.children[0].name, "a.b");
        assert_eq!(a.children[0].calls, 6);
        assert!(a.incl_ns >= a.children[0].incl_ns);
        // Only `a` records events (`a.b` is hot): 3 of them.
        let events: usize = report.threads.iter().map(|t| t.events.len()).sum();
        assert_eq!(events, 3);
    }

    #[test]
    fn guard_outliving_its_session_is_discarded() {
        let guard = exclusive();
        begin();
        let stale = span("stale");
        let _ = end();
        begin();
        // Same depth as `stale`, live session: the stale close must leave
        // this frame alone.
        let live = span("live");
        drop(stale); // closes against a bumped epoch: must not register
        drop(live);
        let report = end();
        drop(guard);
        let merged = report.merged();
        assert_eq!(merged.len(), 1);
        assert_eq!((merged[0].name.as_str(), merged[0].calls), ("live", 1));
    }

    #[test]
    fn event_log_caps_and_counts_drops() {
        let guard = exclusive();
        begin();
        for _ in 0..(EVENT_CAP + 10) {
            let _s = span("spin");
        }
        let report = end();
        drop(guard);
        assert_eq!(report.dropped_events(), 10);
        let merged = report.merged();
        assert_eq!(merged[0].calls, (EVENT_CAP + 10) as u64);
    }
}
