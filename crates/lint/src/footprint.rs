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

use crate::analyze::LintConfig;
use crate::replay::{CountTable, UpmReplay};
use ccnuma::{vpage_of, AccessKind, NodeId};
use nas::KernelModel;
use std::collections::BTreeMap;

/// Per-page tables of one kernel model under one [`LintConfig`].
#[derive(Debug, Default)]
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
    /// counted `weight` times.
    pub fn write_weighted(&self, page: u64, weight: u64) -> Vec<u64> {
        let mut cnts = self.totals[&page].clone();
        if let Some(writes) = self.writes.get(&page) {
            for (c, &w) in cnts.iter_mut().zip(writes) {
                *c += (weight - 1) * w;
            }
        }
        cnts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::{MachineConfig, PAGE_SIZE};
    use nas::{BenchName, LoopModel, PhaseModel};
    use omp::Schedule;

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
