//! Host-span profiler overhead on the simulator's hottest path.
//!
//! The contract (DESIGN.md §14): with no session open, an instrumented
//! site costs one relaxed atomic load — `touch/span_disabled` must sit
//! within noise of the perf ledger's `ccnuma.touch_*_ns` rungs.
//! With a session open, `span_hot` pays a thread-local stack push/pop
//! and an aggregate update; that cost is visible here so regressions in
//! the *enabled* path are caught too (tests/host_spans.rs carries the
//! CI-armed disabled-path assert).

use ccnuma::{AccessKind, Machine, MachineConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_span_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("hostprof");
    group.throughput(Throughput::Elements(1));

    // The bare guard, disabled: the near-zero-cost path.
    group.bench_function("span/disabled", |b| {
        b.iter(|| {
            let _hp = hostprof::span_hot("bench.raw");
            black_box(0u64)
        })
    });

    // The bare guard with a session open: stack push/pop + aggregate.
    group.bench_function("span/enabled", |b| {
        let session = hostprof::start();
        b.iter(|| {
            let _hp = hostprof::span_hot("bench.raw");
            black_box(0u64)
        });
        drop(session.finish());
    });

    // The instrumented hot path end to end: an L1-hit touch, with the
    // profiler disabled and enabled.
    group.bench_function("touch/span_disabled", |b| {
        let mut m = Machine::new(MachineConfig::origin2000_16p_scaled());
        m.touch(0, 0, AccessKind::Read);
        b.iter(|| black_box(m.touch(0, 0, AccessKind::Read)))
    });
    group.bench_function("touch/span_enabled", |b| {
        let mut m = Machine::new(MachineConfig::origin2000_16p_scaled());
        m.touch(0, 0, AccessKind::Read);
        let session = hostprof::start();
        b.iter(|| black_box(m.touch(0, 0, AccessKind::Read)));
        drop(session.finish());
    });

    group.finish();
}

criterion_group!(benches, bench_span_paths);
criterion_main!(benches);
