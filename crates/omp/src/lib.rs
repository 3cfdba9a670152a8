//! An OpenMP-like fork/join runtime over the simulated ccNUMA machine.
//!
//! OpenMP enters the paper only as the layer that decides *which processor
//! executes which iterations* — and therefore which CPU first touches and
//! subsequently re-touches each page. This runtime reproduces that layer:
//!
//! * [`Runtime::parallel_for`] — the `PARALLEL DO` worksharing construct,
//!   with `SCHEDULE(STATIC)`, `SCHEDULE(STATIC, chunk)`,
//!   `SCHEDULE(DYNAMIC, chunk)` and `SCHEDULE(GUIDED)` semantics;
//! * [`Runtime::parallel_reduce`] — `REDUCTION` clauses;
//! * [`Runtime::serial`] — sequential program text between constructs.
//!
//! Simulated CPUs execute sequentially and deterministically; dynamic and
//! guided schedules are *simulated* faithfully by an event loop that always
//! hands the next chunk to the simulated CPU with the least accumulated
//! virtual time — exactly what a real dynamic schedule's chunk queue does.
//!
//! Each construct is one fork/join region on the machine: the fork cost,
//! per-CPU times, the memory-contention correction and the barrier cost are
//! folded into the global simulated clock when the construct completes. The
//! IRIX kernel migration engine (when enabled) is given its scan at each
//! region boundary, the granularity at which simulated time advances.
//!
//! The runtime also owns the two things the phase fast path leaves to its
//! caller. It tells the engine (`ccnuma::fastpath`) which region is opening,
//! by name: [`Runtime::phase`] and [`Runtime::name_region`] label exactly
//! the next region `"phase/name"`, the label its proof was installed under,
//! and a region nobody named runs exactly. And a thread whose CPU the engine
//! replayed takes its turn on a [`Par`] that holds no machine, so its body
//! runs for the data side only — or, on a timing-only runtime
//! ([`Runtime::set_timing_only`]), takes no turn at all. `ccnuma` simulates
//! whatever reaches it.

pub mod runtime;
pub mod schedule;

pub use runtime::{
    reduction_block_count, reduction_block_ownership, reduction_chunks, Par, Runtime,
    REDUCTION_BLOCKS,
};
pub use schedule::Schedule;
