//! Property tests for the static analyzer's foundations (vendored proptest
//! shim): schedule chunk maps partition the iteration space, and the race
//! checker is sound on disjoint chunks and complete on injected overlaps.

use ccnuma::{AccessKind, Machine, MachineConfig, SimArray};
use lint::{Code, LintConfig};
use nas::{BenchName, KernelModel, LoopModel, PhaseModel};
use omp::Schedule;
use proptest::prelude::*;
use upmlib::UpmOptions;

/// A strategy over the statically-chunkable schedules.
fn static_schedules() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static),
        (1usize..9).prop_map(Schedule::StaticChunk),
    ]
}

fn lint_cfg(threads: usize) -> LintConfig {
    LintConfig {
        threads,
        machine: MachineConfig::tiny_test(),
        upm: UpmOptions::default(),
        iterations: 4,
    }
}

/// Analyze a single `n`-iteration loop over a fresh array, where iteration
/// `i` writes element `write_of(i)`.
fn analyze_loop(
    n: usize,
    threads: usize,
    schedule: Schedule,
    write_of: impl Fn(usize) -> usize + 'static,
) -> Vec<lint::Finding> {
    let mut m = Machine::new(MachineConfig::tiny_test());
    let arr = SimArray::<f64>::new(&mut m, "p.a", n, 0.0);
    let base = arr.vrange().0;
    let lp = LoopModel::parallel("loop", n, schedule, move |i, emit| {
        emit(base + 8 * write_of(i) as u64, AccessKind::Write)
    });
    let model = KernelModel::new(
        BenchName::Cg,
        vec![arr.layout()],
        vec![],
        vec![PhaseModel::new("p", vec![lp])],
    );
    lint::analyze(&model, &lint_cfg(threads)).findings
}

/// The page fold of a single `n`-iteration loop in which iteration `i`
/// stores to byte `at + 8 * i` of the address space.
fn fold_loop(n: usize, threads: usize, schedule: Schedule, at: u64) -> lint::Footprint {
    let lp = LoopModel::parallel("loop", n, schedule, move |i, emit| {
        emit(at + 8 * i as u64, AccessKind::Write)
    });
    let model = KernelModel::new(
        BenchName::Cg,
        vec![],
        vec![],
        vec![PhaseModel::new("p", vec![lp])],
    );
    lint::Footprint::build(&model, &lint_cfg(threads))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The page fold counts every access of a generated loop exactly once,
    /// on the pages the loop touches and no others, wherever they lie: the
    /// slot table behind it hashes page numbers, it does not index by them
    /// (the fold against its ordered-map oracle is `lint`'s own unit test).
    #[test]
    fn the_page_fold_counts_every_access_once_wherever_the_pages_lie(
        n in 1usize..3000,
        threads in 1usize..9,
        schedule in static_schedules(),
        far_page in prop_oneof![Just(0u64), Just(1u64 << 40)],
    ) {
        let at = far_page << ccnuma::PAGE_SHIFT;
        let fp = fold_loop(n, threads, schedule, at);
        let pages: Vec<u64> = (far_page..=far_page + ((8 * (n as u64 - 1)) >> ccnuma::PAGE_SHIFT)).collect();
        prop_assert_eq!(fp.homes.keys().copied().collect::<Vec<_>>(), pages.clone());
        prop_assert_eq!(fp.totals.keys().copied().collect::<Vec<_>>(), pages);
        let counted: u64 = fp.totals.values().flatten().sum();
        prop_assert_eq!(counted, n as u64);
        prop_assert_eq!(&fp.writes, &fp.totals);
        prop_assert_eq!(&fp.phase_counts[0].1, &fp.totals);
    }

    /// `static_chunks` chunks are pairwise disjoint and cover `0..n`
    /// exactly once, for arbitrary (n, threads, schedule).
    #[test]
    fn static_chunks_partition_the_iteration_space(
        n in 0usize..400,
        threads in 1usize..17,
        schedule in static_schedules(),
    ) {
        let chunks = schedule.static_chunks(n, threads);
        prop_assert_eq!(chunks.len(), threads);
        let mut seen = vec![0u32; n];
        for per_thread in &chunks {
            for &(start, end) in per_thread {
                prop_assert!(start <= end && end <= n, "chunk ({start},{end}) out of 0..{n}");
                for slot in &mut seen[start..end] {
                    *slot += 1;
                }
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "each iteration owned exactly once");
    }

    /// The race checker finds zero conflicts when every thread writes only
    /// elements of its own chunks.
    #[test]
    fn disjoint_chunks_have_no_races(
        n in 1usize..300,
        threads in 1usize..17,
        schedule in static_schedules(),
    ) {
        let findings = analyze_loop(n, threads, schedule, |i| i);
        prop_assert!(
            findings.iter().all(|f| f.code != Code::WriteWriteRace
                && f.code != Code::ReadWriteRace),
            "spurious race on a disjoint loop: {:?}",
            findings
        );
    }

    /// An injected overlap — every iteration also writes element 0 — is
    /// always reported as a write-write race once two threads own work.
    #[test]
    fn injected_overlap_is_always_found(
        n in 2usize..300,
        threads in 2usize..17,
        schedule in static_schedules(),
    ) {
        // Every iteration writes element 0, so any two threads that own
        // work collide there — the classic unsynchronized accumulation.
        let findings = analyze_loop(n, threads, schedule, |_i| 0);
        let owners = schedule
            .static_chunks(n, threads)
            .iter()
            .filter(|c| !c.is_empty())
            .count();
        if owners >= 2 {
            prop_assert!(
                findings.iter().any(|f| f.code == Code::WriteWriteRace),
                "overlap must be reported (n={}, threads={}): {:?}",
                n,
                threads,
                findings
            );
        }
    }
}
