//! Property-based tests of the worksharing runtime.

use ccnuma::{Machine, MachineConfig, SimArray};
use omp::{Runtime, Schedule};
use proptest::prelude::*;

fn runtime() -> Runtime {
    Runtime::new(Machine::new(MachineConfig::tiny_test()))
}

/// The first `take` entries of a seed-determined Fisher–Yates shuffle of
/// `0..cpus` — a valid distinct CPU binding for a `take`-thread team.
fn permutation(seed: u64, cpus: usize, take: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cpus).collect();
    let mut state = seed | 1;
    for i in (1..cpus).rev() {
        // xorshift64 step per swap: cheap, deterministic, seed-sensitive.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state as usize) % (i + 1));
    }
    order.truncate(take);
    order
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static),
        (1usize..16).prop_map(Schedule::StaticChunk),
        (1usize..16).prop_map(Schedule::Dynamic),
        (1usize..8).prop_map(Schedule::Guided),
    ]
}

proptest! {
    #[test]
    fn every_schedule_covers_every_iteration_exactly_once(
        n in 0usize..500,
        schedule in schedule_strategy(),
    ) {
        let mut rt = runtime();
        let mut seen = vec![0u32; n];
        rt.parallel_for(n, schedule, |_, i| seen[i] += 1);
        prop_assert!(seen.iter().all(|&c| c == 1), "{schedule:?} n={n}");
    }

    #[test]
    fn static_partition_is_disjoint_and_complete(
        n in 0usize..1000,
        threads in 1usize..32,
        chunk in 1usize..64,
    ) {
        for schedule in [Schedule::Static, Schedule::StaticChunk(chunk)] {
            let parts = schedule.static_chunks(n, threads);
            prop_assert_eq!(parts.len(), threads);
            let mut seen = vec![false; n];
            for chunks in &parts {
                for &(s, e) in chunks {
                    prop_assert!(s <= e && e <= n);
                    for (i, slot) in seen.iter_mut().enumerate().take(e).skip(s) {
                        prop_assert!(!*slot, "iteration {i} assigned twice");
                        *slot = true;
                    }
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn guided_chunks_shrink_and_terminate(
        n in 1usize..100_000,
        threads in 1usize..32,
        min_chunk in 1usize..16,
    ) {
        let s = Schedule::Guided(min_chunk);
        let mut remaining = n;
        let mut last = usize::MAX;
        let mut dispatches = 0;
        while remaining > 0 {
            let c = s.next_chunk_len(remaining, threads);
            prop_assert!(c >= 1 && c <= remaining);
            prop_assert!(c <= last, "guided chunks must not grow");
            last = c;
            remaining -= c;
            dispatches += 1;
            prop_assert!(dispatches <= 2 * n, "dispatch loop must terminate");
        }
    }

    #[test]
    fn reduction_matches_blocked_sequential_fold(
        values in proptest::collection::vec(-1000.0f64..1000.0, 1..300),
    ) {
        let n = values.len();
        let mut rt = runtime();
        let vals = values.clone();
        let a = SimArray::from_fn(rt.machine_mut(), "a", n, |i| vals[i]);
        let sum = rt.parallel_reduce(
            n,
            Schedule::Static,
            0.0,
            |par, i, acc| acc + par.get(&a, i),
            |x, y| x + y,
        );
        // Reference: fixed-block partials folded in block order — the
        // reduction's defined summation order, independent of team size.
        let blocks = omp::REDUCTION_BLOCKS.max(rt.threads());
        let block = n.div_ceil(blocks).max(1);
        let mut expect = 0.0;
        for b in 0..blocks {
            let (s, e) = ((b * block).min(n), ((b + 1) * block).min(n));
            let mut acc = 0.0;
            for v in &values[s..e] {
                acc += v;
            }
            if s < e {
                expect += acc;
            }
        }
        prop_assert_eq!(sum, expect);
    }

    #[test]
    fn reduction_is_bitwise_invariant_under_team_size(
        values in proptest::collection::vec(-1000.0f64..1000.0, 1..300),
        threads in 1usize..8,
    ) {
        // The fixed-block reduction order makes the result identical no
        // matter how many threads run it — the property a scheduler-driven
        // team resize relies on.
        let n = values.len();
        let run = |team: usize| {
            let mut rt = runtime();
            let binding: Vec<usize> = (0..team).collect();
            rt.resize_team(&binding);
            let vals = values.clone();
            let a = SimArray::from_fn(rt.machine_mut(), "a", n, |i| vals[i]);
            rt.parallel_reduce(
                n,
                Schedule::Static,
                0.0,
                |par, i, acc| acc + par.get(&a, i),
                |x, y| x + y,
            )
        };
        prop_assert_eq!(run(threads).to_bits(), run(1).to_bits());
    }

    #[test]
    fn region_count_matches_constructs(constructs in 1usize..20) {
        let mut rt = runtime();
        for _ in 0..constructs {
            rt.parallel_for(4, Schedule::Static, |par, _| par.flops(1));
        }
        prop_assert_eq!(rt.regions(), constructs as u64);
    }

    #[test]
    fn rebind_installs_exactly_the_permutation(
        seed in any::<u64>(),
        team in 1usize..9,
    ) {
        let mut rt = Runtime::with_threads(Machine::new(MachineConfig::tiny_test()), team);
        let cpus = rt.machine().topology().cpus();
        let perm = permutation(seed, cpus, team);
        rt.rebind_threads(&perm);
        prop_assert_eq!(rt.binding(), perm.as_slice());
        for (tid, &cpu) in perm.iter().enumerate() {
            prop_assert_eq!(rt.cpu_of_thread(tid), cpu);
        }
        // The binding stays a valid assignment: distinct, in-range CPUs.
        let mut seen = vec![false; cpus];
        for &cpu in rt.binding() {
            prop_assert!(cpu < cpus, "cpu {} out of range", cpu);
            prop_assert!(!seen[cpu], "cpu {} bound twice", cpu);
            seen[cpu] = true;
        }
        // The team still runs worksharing correctly after the rebind.
        let mut seen_iter = [0u32; 40];
        rt.parallel_for(40, Schedule::Static, |_, i| seen_iter[i] += 1);
        prop_assert!(seen_iter.iter().all(|&c| c == 1));
    }

    #[test]
    fn rebind_rejects_wrong_arity(
        seed in any::<u64>(),
        team in 1usize..9,
        delta in 1usize..4,
    ) {
        let mut rt = Runtime::with_threads(Machine::new(MachineConfig::tiny_test()), team);
        let cpus = rt.machine().topology().cpus();
        // Too short (when possible) and too long must both panic.
        if team > delta {
            let short = permutation(seed, cpus, team - delta);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.rebind_threads(&short)
            }));
            prop_assert!(r.is_err(), "short binding accepted");
        }
        if team + delta <= cpus {
            let long = permutation(seed, cpus, team + delta);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.rebind_threads(&long)
            }));
            prop_assert!(r.is_err(), "long binding accepted");
        }
    }

    #[test]
    fn rebind_rejects_duplicate_and_out_of_range_cpus(
        seed in any::<u64>(),
        team in 2usize..9,
        dup_at in 0usize..8,
    ) {
        let mut rt = Runtime::with_threads(Machine::new(MachineConfig::tiny_test()), team);
        let cpus = rt.machine().topology().cpus();
        let mut dup = permutation(seed, cpus, team);
        dup[dup_at % team] = dup[(dup_at + 1) % team];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.rebind_threads(&dup)
        }));
        prop_assert!(r.is_err(), "duplicate CPU accepted: {:?}", dup);
        let mut oob = permutation(seed, cpus, team);
        oob[dup_at % team] = cpus;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.rebind_threads(&oob)
        }));
        prop_assert!(r.is_err(), "out-of-range CPU accepted: {:?}", oob);
    }

    #[test]
    fn dynamic_dispatch_is_deterministic(
        n in 1usize..200,
        chunk in 1usize..8,
    ) {
        let run = || {
            let mut rt = runtime();
            let mut owners = vec![usize::MAX; n];
            rt.parallel_for(n, Schedule::Dynamic(chunk), |par, i| {
                owners[i] = par.tid;
                par.flops((i as u64 % 7) * 50);
            });
            (owners, rt.machine().clock().now_ns())
        };
        prop_assert_eq!(run(), run());
    }
}
