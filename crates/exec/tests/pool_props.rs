//! Property tests for the job queue — the determinism contract the
//! differential `parallel ≡ serial` experiment suite stands on:
//!
//! * every submitted job runs exactly once;
//! * the merged result order is the submission order, independent of
//!   worker count and schedule;
//! * a panicking job never poisons its siblings, and still reports a wall
//!   time.
//!
//! Each property runs through both entry points of the one
//! implementation: the one-shot `Pool::run` (helping caller) and
//! `ResidentPool::submit` from concurrent submitter threads (waits only).

use exec::{Job, Pool, ResidentPool, TimedResult};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// One-shot worker counts for `njobs` jobs: serial, two, eight, more than
/// there are jobs.
fn one_shot_workers(njobs: usize) -> [usize; 4] {
    [1, 2, 8, njobs + 3]
}

/// Build jobs that tally their own execution count and return `i * 7`,
/// sleeping `delays_us[i]` first so different cases exercise different
/// schedules.
fn tallied_jobs(
    counts: &Arc<Vec<AtomicUsize>>,
    delays_us: &[u64],
    panic_at: Option<usize>,
) -> Vec<Job<'static, usize>> {
    (0..counts.len())
        .map(|i| {
            let counts = Arc::clone(counts);
            let delay = delays_us[i];
            Box::new(move || {
                if delay > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(delay));
                }
                counts[i].fetch_add(1, Ordering::SeqCst);
                if panic_at == Some(i) {
                    panic!("planned failure in job {i}");
                }
                i * 7
            }) as Job<'static, usize>
        })
        .collect()
}

fn tallies(njobs: usize) -> Arc<Vec<AtomicUsize>> {
    Arc::new((0..njobs).map(|_| AtomicUsize::new(0)).collect())
}

fn delays(njobs: usize, seed: u64) -> Vec<u64> {
    (0..njobs as u64)
        .map(|i| seed.wrapping_mul(7 * i + 3) % 50)
        .collect()
}

/// One submitter's tallies and its collected batch.
type Submitted = (Arc<Vec<AtomicUsize>>, Vec<TimedResult<usize>>);

/// `submitters` threads each submit their own batch of tallied jobs to one
/// shared resident pool, all released together, and wait for all of it.
fn submit_concurrently(
    workers: usize,
    submitters: usize,
    njobs: usize,
    delay_seed: u64,
    panic_at: Option<usize>,
) -> Vec<Submitted> {
    let pool = Arc::new(ResidentPool::<usize>::new(workers));
    let start = Arc::new(Barrier::new(submitters));
    let joins: Vec<_> = (0..submitters)
        .map(|s| {
            let (pool, start) = (Arc::clone(&pool), Arc::clone(&start));
            std::thread::spawn(move || {
                let counts = tallies(njobs);
                let jobs = tallied_jobs(&counts, &delays(njobs, delay_seed + s as u64), panic_at);
                start.wait();
                let out = pool.submit(jobs).wait_all();
                (counts, out)
            })
        })
        .collect();
    joins.into_iter().map(|j| j.join().unwrap()).collect()
}

fn assert_ran_once(counts: &[AtomicUsize]) -> Result<(), TestCaseError> {
    for (i, c) in counts.iter().enumerate() {
        prop_assert_eq!(
            c.load(Ordering::SeqCst),
            1,
            "job {} ran a wrong number of times",
            i
        );
    }
    Ok(())
}

fn assert_isolated(out: &[TimedResult<usize>], panic_at: usize) -> Result<(), TestCaseError> {
    for (i, t) in out.iter().enumerate() {
        prop_assert!(t.wall_secs >= 0.0);
        if i == panic_at {
            let err = t
                .result
                .as_ref()
                .expect_err("planned panic must surface as Err");
            prop_assert_eq!(err.index, i);
            prop_assert!(
                err.message.contains("planned failure"),
                "payload: {}",
                err.message
            );
            prop_assert!(t.wall_secs > 0.0, "the panicking slot carries no wall time");
        } else {
            prop_assert_eq!(
                t.result.as_ref().ok().copied(),
                Some(i * 7),
                "sibling {} poisoned",
                i
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_job_runs_exactly_once(
        njobs in 0usize..40,
        submitters in 1usize..5,
        delay_seed in 0u64..1000,
    ) {
        for workers in one_shot_workers(njobs) {
            let counts = tallies(njobs);
            let out = Pool::new(workers).run(tallied_jobs(&counts, &delays(njobs, delay_seed), None));
            prop_assert_eq!(out.len(), njobs);
            assert_ran_once(&counts)?;
        }
        for (counts, out) in submit_concurrently(3, submitters, njobs, delay_seed, None) {
            prop_assert_eq!(out.len(), njobs);
            assert_ran_once(&counts)?;
        }
    }

    #[test]
    fn merge_order_is_independent_of_workers_and_schedule(
        njobs in 1usize..40,
        submitters in 1usize..5,
        delay_seed in 0u64..1000,
    ) {
        let expected: Vec<usize> = (0..njobs).map(|i| i * 7).collect();
        for workers in one_shot_workers(njobs) {
            let jobs = tallied_jobs(&tallies(njobs), &delays(njobs, delay_seed), None);
            let out: Vec<usize> = Pool::new(workers).run(jobs).into_iter().map(|r| r.unwrap()).collect();
            prop_assert_eq!(&out, &expected, "workers = {}", workers);
        }
        for (_, out) in submit_concurrently(4, submitters, njobs, delay_seed, None) {
            let out: Vec<usize> = out.into_iter().map(|t| t.result.unwrap()).collect();
            prop_assert_eq!(&out, &expected);
        }
    }

    #[test]
    fn a_panicking_job_never_poisons_siblings(
        njobs in 1usize..30,
        which in 0usize..30,
        submitters in 1usize..5,
    ) {
        let panic_at = which % njobs;
        for workers in one_shot_workers(njobs) {
            let counts = tallies(njobs);
            let jobs = tallied_jobs(&counts, &vec![0; njobs], Some(panic_at));
            let (out, telemetry) = Pool::new(workers).run_timed(jobs, None);
            assert_isolated(&out, panic_at)?;
            assert_ran_once(&counts)?;
            prop_assert_eq!(telemetry.jobs_failed, 1);
        }
        for (counts, out) in submit_concurrently(2, submitters, njobs, 0, Some(panic_at)) {
            assert_isolated(&out, panic_at)?;
            assert_ran_once(&counts)?;
        }
    }
}

/// Thread census of a one-shot run: `n` workers means the caller plus
/// `n - 1` threads, never `n` threads and a blocked caller — cells must
/// keep running on the main thread's allocator arena (a blocking caller
/// cost +31 % peak RSS on the ledger's `sweep-cold`).
#[test]
fn a_one_shot_run_uses_at_most_n_threads_including_the_caller() {
    let caller = std::thread::current().id();
    for n in [1usize, 2, 4] {
        // `n` jobs that all meet at a barrier need `n` concurrent
        // executors — and exactly one of them must be the caller.
        let meet = Arc::new(Barrier::new(n));
        let jobs: Vec<Job<'static, std::thread::ThreadId>> = (0..n)
            .map(|_| {
                let meet = Arc::clone(&meet);
                Box::new(move || {
                    meet.wait();
                    std::thread::current().id()
                }) as _
            })
            .collect();
        let ids: Vec<_> = Pool::new(n)
            .run(jobs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(ids.iter().filter(|&&id| id == caller).count(), 1, "n = {n}");
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), n);

        // Many short jobs never spread over more than the `n` seats.
        let jobs: Vec<Job<'static, std::thread::ThreadId>> = (0..200)
            .map(|_| Box::new(|| std::thread::current().id()) as _)
            .collect();
        let ids: HashSet<_> = Pool::new(n)
            .run(jobs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert!(ids.len() <= n, "n = {n}: jobs ran on {} threads", ids.len());
        if n == 1 {
            assert_eq!(ids, HashSet::from([caller]));
        }
    }
}
