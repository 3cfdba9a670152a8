//! Host-side wall-clock span profiler.
//!
//! The simulator's own `obs`/`prof` stack measures *simulated* time; this
//! crate measures where the *host's* wall-clock goes while the simulator
//! runs — the measurement substrate for hot-path optimization work.
//!
//! * [`span`]/[`span_hot`]/[`span_named`] open a scoped span on the
//!   calling thread; the returned [`SpanGuard`] closes it on drop.
//!   Each thread keeps its own span stack, so spans opened on different
//!   pool workers never interleave into one tree path.
//! * Profiling is off by default. The disabled path is a single relaxed
//!   atomic load and returns an inert guard — cheap enough to leave the
//!   instrumentation in the simulator's per-access hot paths.
//! * [`start`] returns a [`Session`] (process-exclusive); dropping into
//!   [`Session::finish`] collects every thread's spans into a
//!   [`HostReport`]: an inclusive/exclusive self-time tree with call
//!   counts, per-thread span event logs, and export helpers
//!   ([`export::to_jsonl`], [`export::chrome_trace`] for Perfetto — both
//!   on host time, both written by `obs::export`).
//!
//! Span names use a `component.detail` convention (`ccnuma.touch`,
//! `vmm.place`, …); [`component_breakdown`] buckets exclusive time by the
//! prefix so regressions are attributable component-by-component.

pub mod export;
pub mod report;
mod span;

pub use report::{component_breakdown, component_of, HostReport, SpanEvent, SpanNode, ThreadSpans};
pub use span::{
    begin, enabled, end, exclusive, span, span_hot, span_named, start, Session, SpanGuard,
    EVENT_CAP,
};
