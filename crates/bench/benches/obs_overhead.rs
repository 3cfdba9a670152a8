//! Tracing overhead on the simulator's hottest path: `Machine::touch` with
//! the default `TraceSink::Null` (one not-taken branch per instrumentation
//! site) versus an active sink recording latency samples and events.
//!
//! The Null rows are directly comparable to the perf ledger's
//! `ccnuma.touch_*_ns` rungs (`benchmark/`) — the acceptance bar for the
//! instrumentation is a Null-sink regression under 2% against those.

use ccnuma::{AccessKind, Machine, MachineConfig, PAGE_SIZE};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn machine_with_sink(active: bool) -> Machine {
    let mut m = Machine::new(MachineConfig::origin2000_16p_scaled());
    if active {
        m.set_trace(obs::TraceSink::enabled(1 << 16));
    }
    m
}

fn bench_null_vs_active(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_touch");
    group.throughput(Throughput::Elements(1));

    for (label, active) in [("null_sink", false), ("active_sink", true)] {
        group.bench_function(format!("l1_hit/{label}"), |b| {
            let mut m = machine_with_sink(active);
            m.touch(0, 0, AccessKind::Read);
            b.iter(|| black_box(m.touch(0, 0, AccessKind::Read)))
        });

        group.bench_function(format!("memory_streaming/{label}"), |b| {
            let mut m = machine_with_sink(active);
            let span = 256 * PAGE_SIZE;
            let base = m.reserve_vspace(span);
            let mut addr = base;
            b.iter(|| {
                addr += 128;
                if addr >= base + span {
                    addr = base;
                }
                black_box(m.touch(0, addr, AccessKind::Read))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_null_vs_active);
criterion_main!(benches);
