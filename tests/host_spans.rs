//! Cross-thread integrity of the host span profiler: every worker thread
//! of the exec pool keeps its own span stack, so spans opened by jobs on
//! worker 0 and by stolen jobs on other workers must never interleave
//! into one tree — each job's root stays a root on exactly one thread,
//! with its children nested under it and nothing orphaned.
//!
//! Sibling tests in this binary may run their own hostprof sessions or
//! touch instrumented hot paths concurrently (sessions serialize on the
//! process-wide session lock, but non-session threads still record while
//! a session is open), so every assertion here is scoped to span names
//! only this file uses.

use exec::{Job, Pool};
use hostprof::SpanNode;

/// Find a node by name anywhere in a forest, returning every match with
/// its depth.
fn find_all<'a>(
    nodes: &'a [SpanNode],
    name: &str,
    depth: usize,
    out: &mut Vec<(&'a SpanNode, usize)>,
) {
    for node in nodes {
        if node.name == name {
            out.push((node, depth));
        }
        find_all(&node.children, name, depth + 1, out);
    }
}

#[test]
fn worker_span_stacks_never_interleave() {
    const JOBS: usize = 16;
    let session = hostprof::start();
    let pool = Pool::new(4);
    let jobs: Vec<Job<()>> = (0..JOBS)
        .map(|i| {
            Box::new(move || {
                let _root = hostprof::span_named(|| format!("hsx-job:{i}"));
                for _ in 0..3 {
                    let _inner = hostprof::span("hsx-work.inner");
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }) as Job<()>
        })
        .collect();
    let (results, telemetry) = pool.run_timed(jobs, None);
    assert!(results.iter().all(|r| r.result.is_ok()));
    assert_eq!(telemetry.jobs_total, JOBS);
    let report = session.finish();

    for i in 0..JOBS {
        let name = format!("hsx-job:{i}");
        // Exactly one occurrence across every thread, and it is a root:
        // a stolen job opening its root while another worker has a span
        // open must not end up nested under that other worker's stack.
        let mut hits = Vec::new();
        for thread in &report.threads {
            let mut found = Vec::new();
            find_all(&thread.roots, &name, 0, &mut found);
            for (node, depth) in found {
                hits.push((thread.label.clone(), node, depth));
            }
        }
        assert_eq!(hits.len(), 1, "span {name} appears once: {hits:?}");
        // Worker 0 runs on the calling thread, the rest on `xp-worker-N`
        // threads; either way the job's root must be a root there.
        let (label, node, depth) = &hits[0];
        assert_eq!(*depth, 0, "{name} is a root, not nested under {label}");
        assert_eq!(node.calls, 1);
        assert_eq!(
            node.children.len(),
            1,
            "{name} children: {:?}",
            node.children
        );
        assert_eq!(node.children[0].name, "hsx-work.inner");
        assert_eq!(node.children[0].calls, 3);
    }
    // The inner span never leaks to a root on any thread: it is only ever
    // opened while its job's root is on the same thread's stack.
    for thread in &report.threads {
        assert!(
            !thread.roots.iter().any(|r| r.name == "hsx-work.inner"),
            "orphaned inner span on {}",
            thread.label
        );
    }
}

#[test]
fn a_panicking_job_leaves_its_worker_stack_balanced() {
    let session = hostprof::start();
    let pool = Pool::new(1);
    let jobs: Vec<Job<()>> = vec![
        Box::new(|| {
            let _outer = hostprof::span("hsx-doomed.outer");
            let _inner = hostprof::span("hsx-doomed.inner");
            panic!("mid-span panic");
        }),
        Box::new(|| {
            let _after = hostprof::span("hsx-after.root");
        }),
    ];
    let (results, _telemetry) = pool.run_timed(jobs, None);
    assert!(results[0].result.is_err());
    assert!(results[1].result.is_ok());
    let report = session.finish();

    // The unwind closed both spans in order, so the tree is balanced...
    let doomed = report.root("hsx-doomed.outer").expect("doomed root exists");
    assert_eq!(doomed.children.len(), 1);
    assert_eq!(doomed.children[0].name, "hsx-doomed.inner");
    // ...and the next job on the same worker starts a fresh root instead
    // of nesting under the dead job's spans.
    let mut nested = Vec::new();
    for thread in &report.threads {
        find_all(&thread.roots, "hsx-after.root", 0, &mut nested);
    }
    assert_eq!(nested.len(), 1);
    assert_eq!(nested[0].1, 0, "after.root is a root");
}

/// The phase fast path's effect where it must show: with the fast path on,
/// a CG run spends strictly less host time inside `ccnuma` spans than the
/// exact path — replayed regions suppress the per-access simulation, and
/// the engine's own `ccnuma.fastpath` spans are counted against it in the
/// same component bucket, so the comparison includes its overhead.
#[test]
fn fastpath_cg_spends_less_ccnuma_self_time_than_exact() {
    fn ccnuma_self_secs(fast: bool) -> f64 {
        let session = hostprof::start();
        let cfg = xp::selfprof::reference_config();
        let r = xp::run_one_fastpath(nas::BenchName::Cg, nas::Scale::Tiny, &cfg, fast);
        assert!(r.total_secs > 0.0);
        let report = session.finish();
        hostprof::component_breakdown(&report.merged())
            .into_iter()
            .filter(|(c, _)| c == "ccnuma")
            .map(|(_, s)| s)
            .sum()
    }
    // Warm once (allocator, page tables, code paths), then measure.
    let _ = ccnuma_self_secs(false);
    let slow = ccnuma_self_secs(false);
    let fast = ccnuma_self_secs(true);
    eprintln!("ccnuma self-time: exact {slow:.4}s, fastpath {fast:.4}s");
    assert!(
        fast < slow,
        "fast path must lower ccnuma self-time: exact {slow:.4}s vs fastpath {fast:.4}s"
    );
}

/// The CI guard: with no session open, an instrumented hot path costs one
/// relaxed atomic load per span and a register test at drop —
/// indistinguishable from noise. The bound arms in release builds only: a
/// debug build doesn't optimise the guard (~5 ns/op debug vs ~0.3 ns
/// release, against a 1.5 ns bound). Debug runs still exercise the
/// disabled path.
#[test]
fn disabled_span_path_stays_within_noise() {
    // Holding the session lock guarantees no sibling test has profiling
    // enabled while we measure the disabled path.
    let _lock = hostprof::exclusive();
    assert!(!hostprof::enabled());

    fn time(f: impl Fn()) -> std::time::Duration {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed()
    }
    const N: u64 = 2_000_000;
    let work = || {
        let mut acc = 0u64;
        for i in 0..N {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
    };
    let spanned = || {
        let mut acc = 0u64;
        for i in 0..N {
            let _hp = hostprof::span_hot("hsx-bench.disabled");
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
    };
    // Warm both paths, then measure: the minimum of 5 base/with pairs, so
    // a loud neighbour on the box cannot fail the gate.
    work();
    spanned();
    let per_op_ns = (0..5)
        .map(|_| {
            let (base, with) = (time(work), time(spanned));
            let per_op = with.as_nanos().saturating_sub(base.as_nanos()) as f64 / N as f64;
            eprintln!("disabled span overhead: {per_op:.2} ns/span (base {base:?}, with {with:?})");
            per_op
        })
        .fold(f64::INFINITY, f64::min);
    if !cfg!(debug_assertions) {
        assert!(
            per_op_ns < 1.5,
            "disabled hostprof span costs {per_op_ns:.2} ns/op — the disabled \
             path must be a single relaxed load"
        );
    }
}
