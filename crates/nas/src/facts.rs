//! What is true of a kernel whatever cell runs it, derived once per process.
//!
//! A sweep runs the same (benchmark, scale, team) under many placements and
//! engines, and two analyses of it depend on none of those: the fast path's
//! proofs and the synthesized static placement. [`Facts`] is the one table
//! type both live in — a key's value is derived by whoever asks first and
//! handed to everyone after, for the life of the process. There is nothing
//! to configure and nothing is ever dropped: the keys are the problems, teams
//! and layouts a process runs, a handful per experiment, and what a key
//! holds is small (a proof keeps its lines as runs).
//!
//! This module owns the table of proof sets ([`proof_set`]) and the table
//! of the host references the kernels verify against ([`reference`]);
//! `xp::lint::static_scheme` owns the table of placements. A third fact
//! lives in each proof set: the memos its runs record before their first
//! page migration, one `ccnuma::MemoLibrary` per machine configuration
//! ([`ProofSet::library`]), kept as long as the set.

use crate::common::{BenchName, NasBenchmark};
use crate::model::KernelModel;
use crate::proof::Deriver;
use ccnuma::fastpath::LibraryStats;
use ccnuma::{MachineConfig, MemoLibrary, ProofTable};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock};

/// A once-per-key table. The map lock is held only to fetch a key's cell;
/// the derivation runs outside it, inside the cell, so a second asker of a
/// key being derived waits on that cell instead of deriving again, and
/// askers of other keys are not held up. A derivation that panics leaves
/// its cell empty — the next asker derives — and the table unharmed.
pub struct Facts<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    derived: AtomicU64,
    shared: AtomicU64,
}

/// How often a [`Facts`] table derived a value and how often it handed out
/// one it already had.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactsStats {
    /// Askers that ran their derivation.
    pub derived: u64,
    /// Askers that got a value another asker derived.
    pub shared: u64,
}

impl<K: Eq + Hash, V: Clone> Facts<K, V> {
    /// `key`'s value, from `derive` if nobody derived it yet.
    pub fn get(&self, key: K, derive: impl FnOnce() -> V) -> V {
        let cell = {
            let mut cells = self
                .cells
                .lock()
                .expect("no derivation runs under the lock");
            Arc::clone(cells.entry(key).or_default())
        };
        let mut ran = false;
        let value = cell.get_or_init(|| {
            ran = true;
            derive()
        });
        // Statistics only: they publish nothing.
        let count = if ran { &self.derived } else { &self.shared };
        count.fetch_add(1, Ordering::Relaxed);
        value.clone()
    }

    /// Whether `key`'s value has been derived.
    pub fn holds(&self, key: &K) -> bool {
        let cells = self
            .cells
            .lock()
            .expect("no derivation runs under the lock");
        cells.get(key).is_some_and(|cell| cell.get().is_some())
    }

    /// Every value derived so far.
    pub fn values(&self) -> Vec<V> {
        let cells = self
            .cells
            .lock()
            .expect("no derivation runs under the lock");
        cells
            .values()
            .filter_map(|cell| cell.get().cloned())
            .collect()
    }

    /// The table's counters so far.
    pub fn stats(&self) -> FactsStats {
        FactsStats {
            derived: self.derived.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
        }
    }
}

impl<K, V> Default for Facts<K, V> {
    /// An empty table.
    fn default() -> Self {
        Self {
            cells: Mutex::default(),
            derived: AtomicU64::new(0),
            shared: AtomicU64::new(0),
        }
    }
}

/// The fast-path proofs of one kernel for one team size: the folded label
/// table of the cold start and of one timed iteration — what
/// `omp::Runtime::install_fastpath` takes before each of the two. A loop
/// both texts run with the same proof is held once.
pub struct ProofSet {
    /// The cold-start iteration's proofs.
    pub cold: ProofTable,
    /// One timed iteration's proofs.
    pub iteration: ProofTable,
    /// Region instances the two texts run.
    pub instances: usize,
    /// Distinct constructs derived for them: each once, however many
    /// instances a block made of it.
    pub constructs: usize,
    /// The memo library of each machine configuration asked for.
    libraries: Mutex<Vec<(MachineConfig, MemoLibrary)>>,
}

impl ProofSet {
    /// Derive and fold the proofs of `model` for a team of `threads`, each
    /// construct once across both texts: what the process's table
    /// ([`proof_set`]) holds, under the `nas.facts.derive` span.
    pub fn derive(model: &KernelModel, threads: usize) -> Self {
        let _hp = hostprof::span("nas.facts.derive");
        let mut deriver = Deriver::new(threads);
        let cold = ProofTable::fold(deriver.text(model.cold()));
        let mut iteration = ProofTable::fold(deriver.text(model.iteration()));
        iteration.share_with(&cold);
        let (instances, constructs) = deriver.counts();
        Self {
            cold,
            iteration,
            instances,
            constructs,
            libraries: Mutex::default(),
        }
    }

    /// The memo library the runs that install this set share on machines
    /// configured as `config`: made by the first to ask and kept as long as
    /// the set, so each run of the key finds what the earlier ones
    /// published.
    pub fn library(&self, config: &MachineConfig) -> MemoLibrary {
        let mut libraries = self.libraries();
        if let Some((_, library)) = libraries.iter().find(|(made_for, _)| made_for == config) {
            return library.clone();
        }
        let library = MemoLibrary::default();
        libraries.push((config.clone(), library.clone()));
        library
    }

    fn libraries(&self) -> MutexGuard<'_, Vec<(MachineConfig, MemoLibrary)>> {
        self.libraries
            .lock()
            .expect("nothing panics under the lock")
    }
}

/// What the proof sets of the process's table cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Derivations {
    /// Region instances the derived proof sets cover.
    pub instances: u64,
    /// Constructs derived for those instances.
    pub constructs: u64,
}

/// Every proof set derived in this process so far, summed (statistics
/// only).
pub fn derivations() -> Derivations {
    let mut total = Derivations::default();
    for set in PROOFS.values() {
        total.instances += set.instances as u64;
        total.constructs += set.constructs as u64;
    }
    total
}

/// What a proof set is a function of. The proofs follow from the kernel's
/// text, which its name and problem decide (`bench`, `problem`: see
/// [`NasBenchmark::problem`]), from the ownership partition (`threads`) and
/// from where the arrays lie — so the layout is part of the key, not a
/// check made after the lookup: a run that laid its arrays out differently
/// (something allocated first) has an entry of its own.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProofKey {
    bench: BenchName,
    problem: String,
    threads: usize,
    /// `(name, base, bytes)` of every array of the model.
    layout: Vec<(String, u64, u64)>,
}

impl ProofKey {
    fn of(bench: &dyn NasBenchmark, threads: usize, model: &KernelModel) -> Self {
        let layout = model.arrays().iter().map(|a| {
            let (base, bytes) = a.vrange();
            (a.name().to_string(), base, bytes)
        });
        Self {
            bench: bench.name(),
            problem: bench.problem(),
            threads,
            layout: layout.collect(),
        }
    }
}

static PROOFS: LazyLock<Facts<ProofKey, Arc<ProofSet>>> = LazyLock::new(Facts::default);

/// The proof set of the kernel `bench` for a team of `threads`, where
/// `model` is its model as the asking run allocated it. Derived by the
/// first run of the process to ask, shared by every later one.
pub fn proof_set(bench: &dyn NasBenchmark, threads: usize, model: &KernelModel) -> Arc<ProofSet> {
    PROOFS.get(ProofKey::of(bench, threads, model), || {
        Arc::new(ProofSet::derive(model, threads))
    })
}

/// Counters of the proof-set table.
pub fn stats() -> FactsStats {
    PROOFS.stats()
}

/// What a verification reference is a function of: the kernel and its
/// problem ([`NasBenchmark::problem`]), and the iterations it covers.
type ReferenceKey = (BenchName, String, usize);

static REFERENCES: LazyLock<Facts<ReferenceKey, Arc<[f64]>>> = LazyLock::new(Facts::default);

/// The host reference `bench`'s `verify` compares a run of `iterations`
/// timed iterations with, from `derive` (a host-only replay of the
/// kernel's arithmetic) if no run of the process verified that many
/// iterations of the problem yet. Only the reference is shared: each run
/// still compares its own values with it.
pub fn reference(
    bench: &dyn NasBenchmark,
    iterations: usize,
    derive: impl FnOnce() -> Vec<f64>,
) -> Arc<[f64]> {
    let key = (bench.name(), bench.problem(), iterations);
    REFERENCES.get(key, || derive().into())
}

/// What the memo libraries of the process's proof sets hold, summed.
pub fn library_stats() -> LibraryStats {
    let mut total = LibraryStats::default();
    for set in PROOFS.values() {
        for (_, library) in set.libraries().iter() {
            let held = library.stats();
            total.libraries += held.libraries;
            total.images += held.images;
            total.class_bytes += held.class_bytes;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adi::AdiConfig;
    use crate::common::Scale;
    use crate::harness::{instantiate, BenchRun, RunConfig};
    use crate::model::{redescribed, LoopModel};
    use crate::proof::derive_proofs;
    use ccnuma::{Machine, MachineConfig, SimArray};
    use omp::Runtime;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    fn model_of(bench: BenchName, scale: Scale, threads: usize) -> KernelModel {
        let machine = Machine::new(MachineConfig::origin2000_16p_scaled());
        let mut rt = Runtime::with_threads(machine, threads);
        instantiate(bench, &mut rt, scale)
            .access_model()
            .expect("all five kernels are modeled")
    }

    /// `bench` at `scale` for a team of `threads`, BT and SP with every
    /// phase repeated `phase_scale` times (Figure 6's problem).
    fn kernel_of(
        bench: BenchName,
        scale: Scale,
        threads: usize,
        phase_scale: usize,
    ) -> Box<dyn NasBenchmark> {
        let machine = Machine::new(MachineConfig::origin2000_16p_scaled());
        let mut rt = Runtime::with_threads(machine, threads);
        let cfg = AdiConfig {
            phase_scale,
            ..AdiConfig::for_scale(scale)
        };
        match bench {
            BenchName::Bt => Box::new(crate::bt::Bt::with_config(&mut rt, cfg)),
            BenchName::Sp => Box::new(crate::sp::Sp::with_config(&mut rt, cfg)),
            _ => instantiate(bench, &mut rt, scale),
        }
    }

    /// Every loop of a model in program order, cold start first.
    fn loops(model: &KernelModel) -> Vec<(String, &LoopModel)> {
        let phases = model.cold().iter().chain(model.iteration());
        let each = phases.flat_map(|p| p.loops().iter().map(move |l| (p.name(), l)));
        each.map(|(phase, l)| (format!("{phase}/{}", l.name()), &**l))
            .collect()
    }

    /// Whether two instances are the same construct: shape and, iteration
    /// by iteration, the access stream (walk order follows from the shape).
    fn same_walk(a: &LoopModel, b: &LoopModel) -> bool {
        let shape = |l: &LoopModel| (l.n(), l.schedule(), l.kind());
        let stream = |l: &LoopModel, i| {
            let mut got = Vec::new();
            l.for_each_access(i, &mut |vaddr, kind| got.push((vaddr, kind)));
            got
        };
        shape(a) == shape(b) && (0..a.n()).all(|i| stream(a, i) == stream(b, i))
    }

    #[test]
    fn a_shared_description_proves_and_walks_what_a_redescription_does() {
        // Small derives for seconds unoptimized; CI's `fastpath` job runs
        // this test in release.
        let mut cases = vec![(Scale::Tiny, 16)];
        if !cfg!(debug_assertions) {
            cases.push((Scale::Small, 4));
        }
        for (scale, top_phase_scale) in cases {
            for bench in BenchName::all() {
                let adi = matches!(bench, BenchName::Bt | BenchName::Sp);
                let phase_scales = if adi { &[1, 4, 16][..] } else { &[1] };
                for &phase_scale in phase_scales.iter().filter(|&&p| p <= top_phase_scale) {
                    for threads in [1, 4, 16] {
                        let what = format!(
                            "{} {} x{threads} phases x{phase_scale}",
                            bench.label(),
                            scale.label()
                        );
                        let kernel = kernel_of(bench, scale, threads, phase_scale);
                        let shared = kernel.access_model().expect("modeled");
                        let fresh = redescribed(|| kernel.access_model()).expect("modeled");
                        let (a, b) = (
                            ProofSet::derive(&shared, threads),
                            ProofSet::derive(&fresh, threads),
                        );
                        assert!(a.cold == b.cold, "{what}: cold proofs");
                        assert!(a.iteration == b.iteration, "{what}: iteration proofs");
                        assert_eq!(a.instances, b.instances, "{what}");
                        assert_eq!(b.constructs, b.instances, "{what}: nothing shared");
                        assert!(a.constructs < a.instances, "{what}: nothing repeated");
                        // The team decides the layout, so each team's model
                        // is walked.
                        let (a, b) = (loops(&shared), loops(&fresh));
                        assert_eq!(a.len(), b.len(), "{what}");
                        for ((label, l), (fresh_label, f)) in a.iter().zip(&b) {
                            assert_eq!(label, fresh_label, "{what}");
                            assert!(same_walk(l, f), "{what}: {label} walks apart");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_construct_is_derived_once_per_model() {
        let bt = kernel_of(BenchName::Bt, Scale::Tiny, 16, 16);
        let set = ProofSet::derive(&bt.access_model().unwrap(), 16);
        assert_eq!((set.instances, set.constructs), (130, 5), "BT phases x16");
        let cg = model_of(BenchName::Cg, Scale::Medium, 16);
        let set = ProofSet::derive(&cg, 16);
        assert_eq!((set.instances, set.constructs), (106, 9), "CG medium");
        // The table's totals grow by what a key new to it derives. No other
        // test asks for a team of three; tests derive concurrently, so
        // others may add to the totals too.
        let before = derivations();
        let kernel = kernel_of(BenchName::Cg, Scale::Tiny, 3, 1);
        let set = proof_set(&*kernel, 3, &kernel.access_model().unwrap());
        let after = derivations();
        assert!(set.constructs < set.instances, "{}", set.instances);
        assert!(after.instances >= before.instances + set.instances as u64);
        assert!(after.constructs >= before.constructs + set.constructs as u64);
    }

    #[test]
    fn eight_askers_of_a_fresh_key_make_one_derivation() {
        let table: Facts<u32, Arc<String>> = Facts::default();
        let start = Barrier::new(8);
        let (asking, derivations) = (AtomicU64::new(0), AtomicU64::new(0));
        let got: Vec<Arc<String>> = std::thread::scope(|s| {
            let askers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        asking.fetch_add(1, Ordering::SeqCst);
                        table.get(7, || {
                            derivations.fetch_add(1, Ordering::SeqCst);
                            // The value appears only once all eight ask.
                            while asking.load(Ordering::SeqCst) < 8 {
                                std::thread::yield_now();
                            }
                            Arc::new("seven".to_string())
                        })
                    })
                })
                .collect();
            askers.into_iter().map(|a| a.join().unwrap()).collect()
        });
        assert_eq!(derivations.load(Ordering::SeqCst), 1);
        assert!(got.iter().all(|v| Arc::ptr_eq(v, &got[0])));
        let stats = table.stats();
        assert_eq!((stats.derived, stats.shared), (1, 7));
        assert!(table.holds(&7) && !table.holds(&8));
    }

    #[test]
    fn a_panicking_derivation_leaves_the_table_servable() {
        let table: Facts<u32, u32> = Facts::default();
        assert_eq!(table.get(1, || 10), 10);
        let boom = catch_unwind(AssertUnwindSafe(|| table.get(2, || panic!("no value"))));
        assert!(boom.is_err());
        assert!(!table.holds(&2));
        // Other keys are served, old and new, and the failed one may be
        // derived by whoever asks next.
        assert_eq!(table.get(1, || unreachable!("held")), 10);
        assert_eq!(table.get(3, || 30), 30);
        assert_eq!(table.get(2, || 20), 20);
        assert_eq!(table.stats().derived, 3);
    }

    #[test]
    fn the_shared_proof_set_is_the_freshly_derived_one() {
        // Small derives for seconds unoptimized; CI's `fastpath` job runs
        // this test in release.
        let scales: &[Scale] = if cfg!(debug_assertions) {
            &[Scale::Tiny]
        } else {
            &[Scale::Tiny, Scale::Small]
        };
        for &scale in scales {
            for bench in BenchName::all() {
                for threads in [1, 4, 16] {
                    let kernel = kernel_of(bench, scale, threads, 1);
                    let model = kernel.access_model().expect("modeled");
                    let shared = proof_set(&*kernel, threads, &model);
                    let fresh = |text| ProofTable::fold(derive_proofs(text, threads));
                    let what = format!("{} {} x{threads}", bench.label(), scale.label());
                    assert!(shared.cold == fresh(model.cold()), "{what}: cold");
                    assert!(
                        shared.iteration == fresh(model.iteration()),
                        "{what}: iteration"
                    );
                    assert!(
                        shared.iteration != ProofTable::default(),
                        "{what}: nothing proven"
                    );
                    let again = proof_set(&*kernel, threads, &model);
                    assert!(Arc::ptr_eq(&shared, &again), "{what}: derived twice");
                }
            }
        }
    }

    /// Every observable of a finished run: the cached bytes and the
    /// engine's counters.
    fn outcome(run: BenchRun) -> (String, Option<ccnuma::FastpathStats>) {
        let mut run = run;
        while !run.is_done() {
            run.step();
        }
        let stats = run.fastpath_stats();
        (run.finish().to_cache_json().to_string(), stats)
    }

    /// Regions the engine counted: each replayed, missed or was refused.
    fn regions(s: ccnuma::FastpathStats) -> u64 {
        s.replays + s.misses + s.rejects
    }

    #[test]
    fn a_run_is_the_same_through_either_door() {
        // A machine one virtual page larger than the paper's is a key no
        // other test of this binary runs: the run of the kernel's own type
        // is the first of its library, and records what a run alone would.
        let mut cfg = RunConfig::paper_default();
        cfg.machine.max_vpages += 1;
        let own_type = |bench, rt: &mut Runtime| -> Box<dyn NasBenchmark> {
            match bench {
                BenchName::Cg => Box::new(crate::cg::Cg::new(rt, Scale::Tiny)),
                _ => Box::new(crate::mg::Mg::new(rt, Scale::Tiny)),
            }
        };
        for bench in [BenchName::Cg, BenchName::Mg] {
            let (bytes, stats) = outcome(BenchRun::new(|rt| own_type(bench, rt), &cfg));
            let first = stats.expect("installed");
            assert!(first.replays > 0);
            // The kernel by its type and by its name is one problem: both
            // doors ask for one proof set.
            let fresh = || Runtime::with_threads(Machine::new(cfg.machine.clone()), 16);
            let by_type = own_type(bench, &mut fresh());
            let by_name = instantiate(bench, &mut fresh(), Scale::Tiny);
            let set = |kernel: &dyn NasBenchmark| {
                proof_set(kernel, 16, &kernel.access_model().expect("modeled"))
            };
            assert!(Arc::ptr_eq(&set(&*by_type), &set(&*by_name)));
            // Each run by name borrows what the earlier runs of the key
            // published, so what the engine counts depends on history, but
            // not the bytes, nor how many regions it saw, and a borrowed
            // memo is never recorded again.
            for round in ["first", "second"] {
                let what = format!("{} {round} run by name", bench.label());
                let (named_bytes, stats) = outcome(BenchRun::for_bench(bench, Scale::Tiny, &cfg));
                let named = stats.expect("installed");
                assert_eq!(named_bytes, bytes, "{what}");
                assert_eq!(regions(named), regions(first), "{what}: {named:?}");
                assert!(named.cpu_borrowed > 0, "{what}: {named:?}");
                assert!(named.cpu_records < first.cpu_records, "{what}: {named:?}");
            }
        }
    }

    #[test]
    fn another_layout_under_the_same_name_has_its_own_entry_and_replays() {
        // A team size nothing else in this test binary runs CG with: each
        // run below is the first of its key — the shift gives the second a
        // proof set, and so a library, of its own — so nothing was
        // published to its library before it.
        let (bench, scale, threads) = (BenchName::Cg, Scale::Tiny, 5);
        let cfg = RunConfig {
            threads,
            ..RunConfig::paper_default()
        };
        let padded = |rt: &mut Runtime| {
            SimArray::new(rt.machine_mut(), "pad", 3 * 4096, 0.0f64);
            instantiate(bench, rt, scale)
        };
        let plain = outcome(BenchRun::for_bench(bench, scale, &cfg));
        let shifted = outcome(BenchRun::new(padded, &cfg));
        let mut exact = BenchRun::new(padded, &cfg);
        exact.set_fastpath(false);
        assert_eq!(
            shifted.0,
            outcome(exact).0,
            "bit-identical to the exact path"
        );
        assert!(shifted.1.expect("installed").replays > 0, "{shifted:?}");
        assert_eq!(shifted.1, plain.1, "the shift moves no line across a page");

        let plain_kernel = kernel_of(bench, scale, threads, 1);
        let plain_model = plain_kernel.access_model().unwrap();
        let machine = Machine::new(MachineConfig::origin2000_16p_scaled());
        let shifted_kernel = padded(&mut Runtime::with_threads(machine, threads));
        let shifted_model = shifted_kernel.access_model().unwrap();
        let (a, b) = (
            ProofKey::of(&*plain_kernel, threads, &plain_model),
            ProofKey::of(&*shifted_kernel, threads, &shifted_model),
        );
        assert_ne!(a, b);
        assert!(PROOFS.holds(&a) && PROOFS.holds(&b));
        let plain_set = proof_set(&*plain_kernel, threads, &plain_model);
        let shifted_set = proof_set(&*shifted_kernel, threads, &shifted_model);
        assert!(plain_set.iteration != shifted_set.iteration);
    }
}
