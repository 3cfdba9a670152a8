//! The page-level fold of a kernel model: what both the analyzer and the
//! placement synthesizer read.
//!
//! [`Footprint::build`] walks a [`nas::KernelModel`] once, the way the
//! sequential simulator executes it (threads in tid order under the
//! identity thread→cpu binding of a fresh runtime), and keeps per page:
//! the first-touch home and the loop that touched it first, per-node
//! reference counts for every timed phase and their totals, and per-node
//! write counts. The rules that are functions of those tables alone —
//! the dominant node, the `L007` flip predicate, the symbolic UPMlib
//! fixpoint — are defined here, once. The fold is page-granular only:
//! per-element and per-line conflict analysis stays in the analyzer.
//!
//! The public tables are ordered maps, which is what their readers want
//! (ascending page scans, lookups by page); the fold itself is dense. Every
//! page of the kernel gets a slot the first time any loop reaches it
//! ([`nas::PageSlots`], the table the proof derivation folds through too),
//! counts are flat rows indexed `[slot * nodes + node]`, and the maps are
//! built from the rows once per phase — so an access costs one hash probe
//! and an add, not a descent of an ordered map.

use crate::analyze::LintConfig;
use crate::replay::{CountTable, UpmReplay};
use ccnuma::{vpage_of, AccessKind, NodeId};
use nas::{KernelModel, PageSlots};
use std::collections::BTreeMap;

/// Per-page tables of one kernel model under one [`LintConfig`].
#[derive(Debug, Default, PartialEq)]
pub struct Footprint {
    /// Predicted first-touch placement (vpage → home node).
    pub homes: BTreeMap<u64, NodeId>,
    /// The loop that touched each page first.
    pub first_site: BTreeMap<u64, String>,
    /// Per-node reference counts of each timed phase, in program order.
    /// Cold-start loops place pages but are not counted.
    pub phase_counts: Vec<(String, CountTable)>,
    /// `phase_counts` summed: one timed iteration's references.
    pub totals: CountTable,
    /// Per-node write counts over one timed iteration (written pages only).
    pub writes: CountTable,
}

impl Footprint {
    /// Fold `model` for the team and machine of `cfg`.
    pub fn build(model: &KernelModel, cfg: &LintConfig) -> Self {
        let topo = &cfg.machine.topology;
        let nodes = topo.nodes();
        let node_of_tid: Vec<NodeId> = (0..cfg.threads)
            .map(|tid| topo.node_of_cpu(tid % topo.cpus()))
            .collect();
        // Per slot: the page's home and the loop that touched it first.
        let mut slots = PageSlots::default();
        let mut homes: Vec<NodeId> = Vec::new();
        let mut first: Vec<&str> = Vec::new();
        for lp in model.cold().iter().flat_map(|p| p.loops()) {
            lp.walk(cfg.threads, |tid, va, _| {
                if slots.slot(vpage_of(va)) == homes.len() {
                    homes.push(node_of_tid[tid]);
                    first.push(lp.name());
                }
            });
        }
        // Flat `[slot * nodes + node]` rows; `writes` spans the iteration,
        // `counts` one phase, and both grow with the slots.
        let mut writes = vec![0u64; homes.len() * nodes];
        let mut totals = Vec::new();
        let mut phase_counts = Vec::new();
        for phase in model.iteration() {
            let mut counts = vec![0u64; homes.len() * nodes];
            for lp in phase.loops() {
                lp.walk(cfg.threads, |tid, va, kind| {
                    let node = node_of_tid[tid];
                    let slot = slots.slot(vpage_of(va));
                    if slot == homes.len() {
                        homes.push(node);
                        first.push(lp.name());
                        counts.resize(homes.len() * nodes, 0);
                        writes.resize(homes.len() * nodes, 0);
                    }
                    counts[slot * nodes + node] += 1;
                    if kind == AccessKind::Write {
                        writes[slot * nodes + node] += 1;
                    }
                });
            }
            totals.resize(counts.len(), 0);
            for (t, &c) in totals.iter_mut().zip(&counts) {
                *t += c;
            }
            let table = count_table(&slots.sorted(), &counts, nodes);
            phase_counts.push((phase.name().to_string(), table));
        }
        let by_page = slots.sorted();
        Footprint {
            homes: by_page.iter().map(|&(p, slot)| (p, homes[slot])).collect(),
            first_site: by_page
                .iter()
                .map(|&(p, slot)| (p, first[slot].to_string()))
                .collect(),
            phase_counts,
            totals: count_table(&by_page, &totals, nodes),
            writes: count_table(&by_page, &writes, nodes),
        }
    }

    /// The node with the most references, ties toward the lower node id.
    pub fn dominant(cnts: &[u64]) -> NodeId {
        let mut best = 0;
        for (n, &c) in cnts.iter().enumerate() {
            if c > cnts[best] {
                best = n;
            }
        }
        best
    }

    /// The `L007` predicate. For each pair of consecutive, differently
    /// named timed phases: the pages (ascending) both phases reference at
    /// least `min` times and whose dominant node differs between them.
    pub fn flips(&self, min: u64) -> Vec<(&str, &str, Vec<u64>)> {
        let mut out = Vec::new();
        for pair in self.phase_counts.windows(2) {
            let ((a_name, a), (b_name, b)) = (&pair[0], &pair[1]);
            if a_name == b_name {
                continue;
            }
            let busy = |cnts: &[u64]| cnts.iter().sum::<u64>() >= min;
            let pages = a
                .iter()
                .filter(|&(page, ca)| {
                    b.get(page).is_some_and(|cb| {
                        busy(ca) && busy(cb) && Self::dominant(ca) != Self::dominant(cb)
                    })
                })
                .map(|(&page, _)| page)
                .collect();
            out.push((a_name.as_str(), b_name.as_str(), pages));
        }
        out
    }

    /// The symbolic UPMlib engine, seeded with the first-touch homes and
    /// run over the per-iteration totals until it deactivates (or
    /// `cfg.iterations` invocations).
    pub fn replay(&self, cfg: &LintConfig) -> UpmReplay {
        let nodes = cfg.machine.topology.nodes();
        let mut replay = UpmReplay::new(self.homes.clone(), nodes, cfg.upm);
        replay.run_to_fixpoint(&self.totals, cfg.iterations);
        replay
    }

    /// `page`'s per-node counts over one timed iteration with every write
    /// counted `weight` times (saturating). A page the iteration never
    /// references counts zero on every node.
    pub fn write_weighted(&self, page: u64, weight: u64) -> Vec<u64> {
        let Some(totals) = self.totals.get(&page) else {
            let nodes = self.totals.values().next().map_or(0, Vec::len);
            return vec![0; nodes];
        };
        let mut cnts = totals.clone();
        if let Some(writes) = self.writes.get(&page) {
            for (c, &w) in cnts.iter_mut().zip(writes) {
                // Every write is also one of the references in `c`.
                *c = c.saturating_sub(w).saturating_add(weight.saturating_mul(w));
            }
        }
        cnts
    }
}

/// The rows of `flat` (indexed `[slot * nodes + node]`) that count anything,
/// keyed by page. `by_page` is ascending; a slot past the end of `flat` was
/// handed out after `flat` was counted.
fn count_table(by_page: &[(u64, usize)], flat: &[u64], nodes: usize) -> CountTable {
    let rows = by_page.iter().filter_map(|&(page, slot)| {
        let row = flat.get(slot * nodes..(slot + 1) * nodes)?;
        row.iter().any(|&c| c != 0).then(|| (page, row.to_vec()))
    });
    rows.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::{Machine, MachineConfig, PAGE_SIZE};
    use nas::{BenchName, LoopModel, PhaseModel, Scale};
    use omp::{Runtime, Schedule};
    use proptest::prelude::*;

    /// The oracle for [`Footprint::build`]: the same fold through one
    /// ordered-map entry per access (and a second per write), which needs
    /// no slot bookkeeping to be right.
    fn build_reference(model: &KernelModel, cfg: &LintConfig) -> Footprint {
        let topo = &cfg.machine.topology;
        let nodes = topo.nodes();
        let node_of_tid: Vec<NodeId> = (0..cfg.threads)
            .map(|tid| topo.node_of_cpu(tid % topo.cpus()))
            .collect();
        let mut fp = Footprint::default();
        for lp in model.cold().iter().flat_map(|p| p.loops()) {
            lp.walk(cfg.threads, |tid, va, _| {
                let page = vpage_of(va);
                fp.homes.entry(page).or_insert_with(|| {
                    fp.first_site.insert(page, lp.name().to_string());
                    node_of_tid[tid]
                });
            });
        }
        for phase in model.iteration() {
            let mut table = CountTable::new();
            for lp in phase.loops() {
                lp.walk(cfg.threads, |tid, va, kind| {
                    let (page, node) = (vpage_of(va), node_of_tid[tid]);
                    // A page already in this phase's table has its home.
                    let row = table.entry(page).or_insert_with(|| {
                        fp.homes.entry(page).or_insert_with(|| {
                            fp.first_site.insert(page, lp.name().to_string());
                            node
                        });
                        vec![0; nodes]
                    });
                    row[node] += 1;
                    if kind == AccessKind::Write {
                        fp.writes.entry(page).or_insert_with(|| vec![0; nodes])[node] += 1;
                    }
                });
            }
            for (&page, cnts) in &table {
                let total = fp.totals.entry(page).or_insert_with(|| vec![0; nodes]);
                for (t, &c) in total.iter_mut().zip(cnts) {
                    *t += c;
                }
            }
            fp.phase_counts.push((phase.name().to_string(), table));
        }
        fp
    }

    #[test]
    fn every_kernel_folds_to_what_the_reference_folds() {
        // Small takes minutes unoptimized; CI's `fastpath` job runs this
        // test in release.
        let scales: &[Scale] = if cfg!(debug_assertions) {
            &[Scale::Tiny]
        } else {
            &[Scale::Tiny, Scale::Small]
        };
        let cfg = LintConfig::paper_default();
        for &scale in scales {
            for bench in BenchName::all() {
                let machine = Machine::new(cfg.machine.clone());
                let mut rt = Runtime::with_threads(machine, cfg.threads);
                let model = nas::instantiate(bench, &mut rt, scale).access_model();
                let got = Footprint::build(&model, &cfg);
                assert!(!got.totals.is_empty());
                assert!(
                    got == build_reference(&model, &cfg),
                    "{} {}: dense fold differs from the ordered fold",
                    bench.label(),
                    scale.label()
                );
            }
        }
    }

    /// A model of `phases` timed phases after one cold loop, every loop `n`
    /// iterations under `schedule`, whose pages are `1 << spread` apart:
    /// iteration `i` of loop `k` reads one pseudo-random page of a dozen,
    /// read-modify-writes one of five, and the last iteration of each timed
    /// loop stores to a page no earlier loop reached.
    fn scattered(n: usize, schedule: Schedule, spread: u32, phases: usize) -> KernelModel {
        let lp = move |k: usize| {
            LoopModel::parallel(&format!("l{k}"), n, schedule, move |i, emit| {
                let page = |p: usize| (p as u64) << spread << ccnuma::PAGE_SHIFT;
                emit(page((i * 7 + k * 3) % 12) + 8 * i as u64, AccessKind::Read);
                let rmw = page(20 + (i + k) % 5);
                emit(rmw, AccessKind::Read);
                emit(rmw, AccessKind::Write);
                if k > 0 && i + 1 == n {
                    emit(page(40 + k), AccessKind::Write);
                }
            })
        };
        model(
            vec![PhaseModel::new("cold", vec![lp(0)])],
            (1..=phases)
                .map(|k| PhaseModel::new(&format!("p{}", k % 2), vec![lp(k), lp(k + 1)]))
                .collect(),
        )
    }

    #[test]
    fn far_apart_pages_fold_like_neighbours() {
        let far = scattered(64, Schedule::Static, 40, 2);
        let fp = Footprint::build(&far, &cfg());
        assert!(fp == build_reference(&far, &cfg()));
        assert!(fp.homes.contains_key(&(1 << 40)));
        // The same model on adjacent pages has the same tables, page
        // numbers aside.
        let near = Footprint::build(&scattered(64, Schedule::Static, 0, 2), &cfg());
        let rows = |fp: &Footprint| fp.totals.values().cloned().collect::<Vec<_>>();
        assert_eq!(rows(&fp), rows(&near));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Dense = ordered on generated models: any extent, team, static
        /// schedule, phase count and page spacing.
        #[test]
        fn generated_models_fold_to_what_the_reference_folds(
            n in 1usize..120,
            threads in 1usize..9,
            schedule in prop_oneof![
                Just(Schedule::Static),
                (1usize..9).prop_map(Schedule::StaticChunk),
            ],
            spread in 0u32..41,
            phases in 1usize..5,
        ) {
            let cfg = LintConfig { threads, ..cfg() };
            let m = scattered(n, schedule, spread, phases);
            prop_assert!(Footprint::build(&m, &cfg) == build_reference(&m, &cfg));
        }
    }

    /// Four threads on `tiny_test`'s four two-CPU nodes: tids 0 and 1 run
    /// on node 0, tids 2 and 3 on node 1.
    fn cfg() -> LintConfig {
        LintConfig {
            threads: 4,
            machine: MachineConfig::tiny_test(),
            upm: upmlib::UpmOptions::default(),
            iterations: 8,
        }
    }

    /// A four-iteration static loop — iteration `tid` runs on thread `tid` —
    /// in which thread `tid` performs `accesses(tid)`: `(vpage, kind, times)`.
    fn per_thread(
        name: &str,
        accesses: impl Fn(usize) -> Vec<(u64, AccessKind, usize)> + 'static,
    ) -> LoopModel {
        LoopModel::parallel(name, 4, Schedule::Static, move |tid, emit| {
            for (page, kind, times) in accesses(tid) {
                (0..times).for_each(|_| emit(page * PAGE_SIZE, kind));
            }
        })
    }

    fn model(cold: Vec<PhaseModel>, iteration: Vec<PhaseModel>) -> KernelModel {
        KernelModel::new(BenchName::Cg, vec![], cold, iteration)
    }

    use AccessKind::{Read, Write};

    #[test]
    fn first_touch_goes_to_the_lowest_tid_and_cold_loops_are_not_counted() {
        // Every thread touches page 10 in the cold loop; thread `tid` also
        // touches page 20 + tid. The timed phase reads page 10 and first
        // touches page 30, both from thread 3.
        let cold = per_thread("init", |tid| {
            vec![(10, Write, 1), (20 + tid as u64, Write, 1)]
        });
        let hot = per_thread("hot", |tid| match tid {
            3 => vec![(10, Read, 3), (30, Write, 1)],
            _ => vec![],
        });
        let fp = Footprint::build(
            &model(
                vec![PhaseModel::new("cold", vec![cold])],
                vec![PhaseModel::new("it", vec![hot])],
            ),
            &cfg(),
        );
        let homes: Vec<(u64, NodeId)> = fp.homes.iter().map(|(&p, &n)| (p, n)).collect();
        assert_eq!(
            homes,
            [(10, 0), (20, 0), (21, 0), (22, 1), (23, 1), (30, 1)],
            "tid order: thread 0 wins page 10 although every thread touches it"
        );
        assert_eq!(fp.first_site[&10], "init");
        assert_eq!(fp.first_site[&30], "hot");
        assert_eq!(fp.phase_counts.len(), 1);
        assert_eq!(fp.phase_counts[0].0, "it");
        assert_eq!(fp.phase_counts[0].1, fp.totals);
        let counted: Vec<(u64, Vec<u64>)> = fp.totals.clone().into_iter().collect();
        assert_eq!(counted, [(10, vec![0, 3, 0, 0]), (30, vec![0, 1, 0, 0])]);
        let written: Vec<(u64, Vec<u64>)> = fp.writes.clone().into_iter().collect();
        assert_eq!(
            written,
            [(30, vec![0, 1, 0, 0])],
            "cold-start stores don't count"
        );
    }

    #[test]
    fn writes_weigh_more_and_ties_go_to_the_lower_node() {
        let hot = per_thread("hot", |tid| match tid {
            0 => vec![(5, Read, 4), (6, Read, 2)],
            3 => vec![(5, Write, 3), (6, Read, 2)],
            _ => vec![],
        });
        let fp = Footprint::build(
            &model(vec![], vec![PhaseModel::new("it", vec![hot])]),
            &cfg(),
        );
        assert_eq!(fp.totals[&5], [4, 3, 0, 0]);
        assert_eq!(fp.write_weighted(5, 1), [4, 3, 0, 0]);
        assert_eq!(fp.write_weighted(5, 2), [4, 6, 0, 0]);
        assert_eq!(Footprint::dominant(&fp.totals[&5]), 0);
        assert_eq!(Footprint::dominant(&fp.write_weighted(5, 2)), 1);
        assert_eq!(fp.write_weighted(6, 2), [2, 2, 0, 0], "never written");
        assert_eq!(Footprint::dominant(&fp.totals[&6]), 0);
    }

    /// Page 5: node 0 reads four times, node 1 writes three times.
    fn read_and_written() -> Footprint {
        let hot = per_thread("hot", |tid| match tid {
            0 => vec![(5, Read, 4)],
            3 => vec![(5, Write, 3)],
            _ => vec![],
        });
        Footprint::build(
            &model(vec![], vec![PhaseModel::new("it", vec![hot])]),
            &cfg(),
        )
    }

    #[test]
    fn a_weight_of_zero_leaves_the_reads_and_a_huge_one_saturates() {
        let fp = read_and_written();
        assert_eq!(fp.write_weighted(5, 0), [4, 0, 0, 0], "writes not counted");
        assert_eq!(fp.write_weighted(5, u64::MAX), [4, u64::MAX, 0, 0]);
        assert_eq!(fp.write_weighted(5, u64::MAX / 2), [4, u64::MAX, 0, 0]);
    }

    #[test]
    fn an_uncounted_page_weighs_nothing_anywhere() {
        let fp = read_and_written();
        assert_eq!(fp.write_weighted(6, 2), [0, 0, 0, 0]);
        assert_eq!(Footprint::dominant(&fp.write_weighted(6, 2)), 0);
        assert_eq!(Footprint::default().write_weighted(6, 2), [0u64; 0]);
    }

    #[test]
    fn a_flip_needs_both_phases_busy_and_differently_named() {
        // Which node references pages 1, 2 and 3 how often, per phase.
        let phase = |name: &str, node0: [usize; 3], node1: [usize; 3]| {
            let lp = per_thread(name, move |tid| {
                let times = match tid {
                    0 => node0,
                    3 => node1,
                    _ => return vec![],
                };
                (1u64..).zip(times).map(|(p, n)| (p, Read, n)).collect()
            });
            PhaseModel::new(name, vec![lp])
        };
        let fp = Footprint::build(
            &model(
                vec![],
                vec![
                    // Page 1 flips; page 2 is one reference short in `b`;
                    // page 3 is absent from `b`.
                    phase("a", [8, 8, 8], [0, 0, 0]),
                    phase("b", [0, 0, 0], [8, 7, 0]),
                    // Page 1 flips back between two phases named `b`.
                    phase("b", [8, 0, 0], [0, 0, 0]),
                    phase("c", [8, 0, 0], [0, 0, 0]),
                ],
            ),
            &cfg(),
        );
        assert_eq!(
            fp.flips(8),
            [("a", "b", vec![1]), ("b", "c", vec![])],
            "the b/b pair is skipped; b -> c keeps its dominant node"
        );
        assert_eq!(fp.flips(7)[0], ("a", "b", vec![1, 2]));
    }
}
