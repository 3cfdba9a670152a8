//! The static analyzer: races, false sharing and NUMA hazards from access
//! models alone.
//!
//! The analyzer consumes a [`nas::KernelModel`] — region/phase structure,
//! `omp::Schedule::static_chunks` ownership maps and per-iteration access
//! descriptors — and checks it without running the machine simulation:
//!
//! * **conflicts** (`L001`/`L002`/`L003`): for every parallel loop, element
//!   addresses are attributed to the owning thread via the schedule's chunk
//!   map; overlapping writes between threads are races, co-located writes
//!   in one [`ccnuma::LINE_SIZE`]-byte line are false sharing;
//! * **placement** (`L005`/`L006`/`L007`): read off the model's
//!   [`Footprint`] — first-touch placement replayed symbolically and
//!   per-page per-node reference counts per phase;
//! * **migration** (`L004`): the [`UpmReplay`] engine predicts which pages
//!   the UPMlib competitive mechanism would move and which the ping-pong
//!   freezer would freeze;
//! * **determinism** (`L008`): reductions are flagged when their
//!   fixed-block partial-sum partition varies with the team size.

use crate::finding::{Code, Finding};
use crate::footprint::Footprint;
use crate::replay::UpmReplay;
use ccnuma::{line_of, AccessKind, MachineConfig, NodeId, LINE_SIZE};
use nas::{KernelModel, LoopKind};
use std::collections::{BTreeMap, BTreeSet};
use upmlib::UpmOptions;

/// Analyzer configuration: the machine and engine the predictions target.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Team size the ownership maps are evaluated for.
    pub threads: usize,
    /// Machine model supplying topology, latencies and migration cost.
    pub machine: MachineConfig,
    /// UPMlib tuning used by the symbolic migration replay.
    pub upm: UpmOptions,
    /// Upper bound on symbolic `migrate_memory` invocations (the replay
    /// normally deactivates much earlier, like the dynamic engine).
    pub iterations: usize,
}

impl LintConfig {
    /// The paper's configuration: 16 threads on the scaled Origin2000 with
    /// default UPMlib tuning.
    pub fn paper_default() -> Self {
        Self {
            threads: 16,
            machine: MachineConfig::origin2000_16p_scaled(),
            upm: UpmOptions::default(),
            iterations: 8,
        }
    }
}

/// The analyzer's full output.
#[derive(Debug)]
pub struct Analysis {
    /// Findings, ordered by stable key (code, bench, site, subject).
    pub findings: Vec<Finding>,
    /// Pages the symbolic UPMlib replay froze (sorted vpages) — compared
    /// against `UpmEngine::frozen_pages()` by the differential suite.
    pub predicted_frozen: Vec<u64>,
    /// Predicted first-touch placement (vpage → home node) — compared
    /// against `Machine::node_of_vpage` after a real cold start.
    pub first_touch: BTreeMap<u64, NodeId>,
}

/// Per-(code, array) aggregation while scanning one loop.
#[derive(Default)]
struct Agg {
    count: u64,
    example: u64,
    mask: u64,
}

/// Run every check against `model`.
pub fn analyze(model: &KernelModel, cfg: &LintConfig) -> Analysis {
    let fp = Footprint::build(model, cfg);
    analyze_footprint(model, cfg, &fp, &fp.replay(cfg))
}

/// [`analyze`] over a footprint already built from `model` under `cfg` and
/// the replay [`Footprint::replay`] converged from it.
pub fn analyze_footprint(
    model: &KernelModel,
    cfg: &LintConfig,
    fp: &Footprint,
    converged: &UpmReplay,
) -> Analysis {
    assert!(
        (1..=64).contains(&cfg.threads),
        "thread bitmasks are u64: team size {} out of range",
        cfg.threads
    );
    let topo = &cfg.machine.topology;
    let nodes = topo.nodes();
    let bench = model.bench().label();
    let subject_of = |va: u64| -> String {
        model
            .array_of(va)
            .map(|a| a.name().to_string())
            .unwrap_or_else(|| "?".to_string())
    };
    let mut sink: BTreeMap<String, Finding> = BTreeMap::new();
    let record = |sink: &mut BTreeMap<String, Finding>, f: Finding| {
        sink.entry(f.key()).or_insert(f);
    };

    // ---- Per-loop conflict analysis (L001, L002, L003): element- and
    // line-granular, which the page-level footprint is not. ----
    let mut seen_loops: BTreeSet<String> = BTreeSet::new();
    for phase in model.cold().iter().chain(model.iteration()) {
        for lp in phase.loops() {
            if !seen_loops.insert(lp.name().to_string()) {
                continue;
            }
            let mut elems: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // va -> (readers, writers)
            let mut lines: BTreeMap<u64, u64> = BTreeMap::new(); // line -> writers
            lp.walk(cfg.threads, |tid, va, kind| {
                let bit = 1u64 << tid;
                let entry = elems.entry(va).or_insert((0, 0));
                if kind == AccessKind::Write {
                    entry.1 |= bit;
                    *lines.entry(line_of(va)).or_insert(0) |= bit;
                } else {
                    entry.0 |= bit;
                }
            });
            let mut aggs: BTreeMap<(Code, String), Agg> = BTreeMap::new();
            for (&va, &(readers, writers)) in &elems {
                let code = if writers.count_ones() > 1 {
                    Code::WriteWriteRace
                } else if writers != 0 && readers & !writers != 0 {
                    Code::ReadWriteRace
                } else {
                    continue;
                };
                let agg = aggs.entry((code, subject_of(va))).or_default();
                if agg.count == 0 {
                    agg.example = va;
                    agg.mask = writers | readers;
                }
                agg.count += 1;
            }
            for (&line, &writers) in &lines {
                if writers.count_ones() > 1 {
                    let va = line * LINE_SIZE;
                    let agg = aggs
                        .entry((Code::FalseSharing, subject_of(va)))
                        .or_default();
                    if agg.count == 0 {
                        agg.example = va;
                        agg.mask = writers;
                    }
                    agg.count += 1;
                }
            }
            for ((code, subject), agg) in aggs {
                let what = match code {
                    Code::WriteWriteRace => "elements written by multiple threads",
                    Code::ReadWriteRace => "elements read and written by different threads",
                    _ => "cache lines written by multiple threads",
                };
                let message = format!(
                    "{} {} (e.g. vaddr {:#x}, thread mask {:#x})",
                    agg.count, what, agg.example, agg.mask
                );
                record(
                    &mut sink,
                    Finding {
                        code,
                        bench: bench.to_string(),
                        site: lp.name().to_string(),
                        subject,
                        count: agg.count,
                        message,
                    },
                );
            }
        }
    }

    // ---- The page-level checks, read off the footprint. ----
    let Footprint {
        homes,
        first_site,
        phase_counts,
        totals,
        ..
    } = fp;

    // L005: first touch by a thread whose node is not the page's dominant
    // accessor over the timed iterations.
    let min = cfg.upm.min_accesses as u64;
    let mut mismatches: BTreeMap<String, Agg> = BTreeMap::new();
    for (&page, cnts) in totals {
        if cnts.iter().sum::<u64>() < min {
            continue;
        }
        if homes[&page] != Footprint::dominant(cnts) {
            let agg = mismatches
                .entry(subject_of(page * ccnuma::PAGE_SIZE))
                .or_default();
            if agg.count == 0 {
                agg.example = page;
            }
            agg.count += 1;
        }
    }
    for (subject, agg) in mismatches {
        let example = agg.example;
        let message = format!(
            "{} pages first-touched on a non-dominant node (e.g. vpage {:#x}, \
             first touched in `{}`); first-touch placement leaves them remote",
            agg.count,
            example,
            first_site.get(&example).map(String::as_str).unwrap_or("?")
        );
        record(
            &mut sink,
            Finding {
                code: Code::FirstTouchMismatch,
                bench: bench.to_string(),
                site: "first_touch".to_string(),
                subject,
                count: agg.count,
                message,
            },
        );
    }

    // L006: static upper bound on per-phase migration benefit.
    let lat = &cfg.machine.latency;
    let mig_cost = cfg.machine.migration_cost_ns();
    for (name, table) in phase_counts {
        let mut pages = 0u64;
        let mut benefit_ns = 0.0f64;
        for (&page, cnts) in table {
            let cost = |node: NodeId| -> f64 {
                cnts.iter()
                    .enumerate()
                    .map(|(src, &c)| c as f64 * lat.memory_ns(topo.hops(src, node)))
                    .sum()
            };
            let here = cost(homes[&page]);
            let best = (0..nodes).map(cost).fold(f64::INFINITY, f64::min);
            let gain = here - best - mig_cost;
            if gain > 0.0 {
                pages += 1;
                benefit_ns += gain;
            }
        }
        if pages > 0 {
            let message = format!(
                "moving {} pages to their per-phase optimum would save at most \
                 {:.1} us of memory latency per iteration (counts are an upper \
                 bound on misses; {:.0} ns migration cost per page deducted)",
                pages,
                benefit_ns / 1000.0,
                mig_cost
            );
            record(
                &mut sink,
                Finding {
                    code: Code::MigrationBenefit,
                    bench: bench.to_string(),
                    site: name.clone(),
                    subject: "*".to_string(),
                    count: pages,
                    message,
                },
            );
        }
    }

    // L007: dominant accessor flips between consecutive phases — the fuel
    // that makes per-phase migration ping-pong (and the freezer necessary).
    for (a_name, b_name, pages) in fp.flips(min) {
        let mut flips: BTreeMap<String, Agg> = BTreeMap::new();
        for page in pages {
            let agg = flips
                .entry(subject_of(page * ccnuma::PAGE_SIZE))
                .or_default();
            if agg.count == 0 {
                agg.example = page;
            }
            agg.count += 1;
        }
        for (subject, agg) in flips {
            let message = format!(
                "{} pages change dominant node between `{}` and `{}` \
                 (e.g. vpage {:#x}); per-phase migration would ping-pong them",
                agg.count, a_name, b_name, agg.example
            );
            record(
                &mut sink,
                Finding {
                    code: Code::DominantFlip,
                    bench: bench.to_string(),
                    site: format!("{a_name}->{b_name}"),
                    subject,
                    count: agg.count,
                    message,
                },
            );
        }
    }

    // L004: symbolic UPMlib replay over the per-iteration totals.
    let predicted_frozen = converged.frozen_pages();
    let mut frozen_by_array: BTreeMap<String, Agg> = BTreeMap::new();
    for &page in &predicted_frozen {
        let agg = frozen_by_array
            .entry(subject_of(page * ccnuma::PAGE_SIZE))
            .or_default();
        if agg.count == 0 {
            agg.example = page;
        }
        agg.count += 1;
    }
    for (subject, agg) in frozen_by_array {
        let message = format!(
            "{} pages predicted to ping-pong between nodes; the UPMlib freezer \
             would freeze them (e.g. vpage {:#x})",
            agg.count, agg.example
        );
        record(
            &mut sink,
            Finding {
                code: Code::PredictedFrozen,
                bench: bench.to_string(),
                site: "upm_replay".to_string(),
                subject,
                count: agg.count,
                message,
            },
        );
    }

    // L008: reductions whose fixed-block partition depends on team size.
    // `parallel_reduce` splits into REDUCTION_BLOCKS.max(threads) blocks and
    // combines per-block partials in block order, so results are
    // bit-identical across team sizes iff the block count is constant over
    // the sizes in play.
    let block_counts: BTreeSet<usize> = (1..=cfg.threads).map(omp::reduction_block_count).collect();
    if block_counts.len() > 1 {
        for phase in model.cold().iter().chain(model.iteration()) {
            for lp in phase.loops() {
                if lp.kind() != LoopKind::Reduction {
                    continue;
                }
                let message = format!(
                    "reduction splits into REDUCTION_BLOCKS.max(threads) partial \
                     blocks; the block count varies over team sizes 1..={} \
                     ({:?}), so combination order is not team-size reproducible",
                    cfg.threads, block_counts
                );
                record(
                    &mut sink,
                    Finding {
                        code: Code::TeamSensitiveReduction,
                        bench: bench.to_string(),
                        site: lp.name().to_string(),
                        subject: "partials".to_string(),
                        count: 1,
                        message,
                    },
                );
            }
        }
    }

    Analysis {
        findings: sink.into_values().collect(),
        predicted_frozen,
        first_touch: homes.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::Machine;
    use nas::{BenchName, LoopModel, PhaseModel};
    use omp::Schedule;

    fn tiny_cfg() -> LintConfig {
        LintConfig {
            threads: 4,
            machine: MachineConfig::tiny_test(),
            upm: UpmOptions::default(),
            iterations: 8,
        }
    }

    #[test]
    fn disjoint_writes_are_clean() {
        let (model, _) = {
            let mut m = Machine::new(MachineConfig::tiny_test());
            let arr = ccnuma::SimArray::<f64>::new(&mut m, "t.a", 4096, 0.0);
            let base = arr.vrange().0;
            let lp = LoopModel::parallel("own", 4096, Schedule::Static, move |i, emit| {
                emit(base + 8 * i as u64, AccessKind::Write)
            });
            (
                KernelModel::new(
                    BenchName::Cg,
                    vec![arr.layout()],
                    vec![],
                    vec![PhaseModel::new("p", vec![lp])],
                ),
                base,
            )
        };
        let a = analyze(&model, &tiny_cfg());
        assert!(
            a.findings
                .iter()
                .all(|f| f.code != Code::WriteWriteRace && f.code != Code::ReadWriteRace),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn injected_overlap_is_a_write_write_race() {
        let (model, base) = {
            let mut m = Machine::new(MachineConfig::tiny_test());
            let arr = ccnuma::SimArray::<f64>::new(&mut m, "t.a", 4096, 0.0);
            let base = arr.vrange().0;
            // Every thread writes element 0: a classic unsynchronized
            // accumulation bug.
            let lp = LoopModel::parallel("accum", 4096, Schedule::Static, move |_i, emit| {
                emit(base, AccessKind::Write)
            });
            (
                KernelModel::new(
                    BenchName::Cg,
                    vec![arr.layout()],
                    vec![],
                    vec![PhaseModel::new("p", vec![lp])],
                ),
                base,
            )
        };
        let a = analyze(&model, &tiny_cfg());
        let f = a
            .findings
            .iter()
            .find(|f| f.code == Code::WriteWriteRace)
            .expect("race must be found");
        assert_eq!(f.site, "accum");
        assert_eq!(f.subject, "t.a");
        assert_eq!(f.key(), "L001 CG accum t.a");
        assert_eq!(f.example_vaddr_for_test(), base);
    }

    #[test]
    fn unaligned_chunk_boundary_is_false_sharing_not_a_race() {
        // 20 elements over 2 effective chunk owners: the boundary falls
        // mid-line (10 * 8 B = 80 B into a 128 B line).
        let (model, _) = {
            let mut m = Machine::new(MachineConfig::tiny_test());
            let arr = ccnuma::SimArray::<f64>::new(&mut m, "t.a", 20, 0.0);
            let base = arr.vrange().0;
            let lp = LoopModel::parallel("edge", 20, Schedule::Static, move |i, emit| {
                emit(base + 8 * i as u64, AccessKind::Write)
            });
            (
                KernelModel::new(
                    BenchName::Cg,
                    vec![arr.layout()],
                    vec![],
                    vec![PhaseModel::new("p", vec![lp])],
                ),
                base,
            )
        };
        let mut cfg = tiny_cfg();
        cfg.threads = 2;
        let a = analyze(&model, &cfg);
        assert!(a.findings.iter().any(|f| f.code == Code::FalseSharing));
        assert!(a.findings.iter().all(|f| f.code != Code::WriteWriteRace));
    }

    #[test]
    fn wrong_first_touch_is_flagged_and_fixed_by_replay() {
        // Cold start touches everything from thread 0; the iteration is
        // dominated by the last thread. tiny_test has 4 cpus on 2 nodes.
        let (model, _base) = {
            let mut m = Machine::new(MachineConfig::tiny_test());
            let arr = ccnuma::SimArray::<f64>::new(&mut m, "t.a", 4096, 0.0);
            let base = arr.vrange().0;
            let cold = LoopModel::serial("cold_init", move |_i, emit| {
                for i in 0..4096u64 {
                    emit(base + 8 * i, AccessKind::Write)
                }
            });
            let hot = LoopModel::parallel("hot", 4096, Schedule::Static, move |i, emit| {
                // All threads' iterations hit the SAME page set, with the
                // owner pattern of thread 3 (node 1) repeated 4x per index
                // so node 1 dominates every page.
                let va = base + 8 * (i % 4096) as u64;
                emit(va, AccessKind::Read);
                if i >= 3072 {
                    emit(va, AccessKind::Read);
                    emit(va, AccessKind::Read);
                }
            });
            (
                KernelModel::new(
                    BenchName::Cg,
                    vec![arr.layout()],
                    vec![PhaseModel::new("cold", vec![cold])],
                    vec![PhaseModel::new("it", vec![hot])],
                ),
                base,
            )
        };
        let a = analyze(&model, &tiny_cfg());
        assert!(
            a.findings
                .iter()
                .any(|f| f.code == Code::FirstTouchMismatch),
            "{:?}",
            a.findings
        );
        // All first touches came from the serial cold loop on node 0.
        assert!(a.first_touch.values().all(|&n| n == 0));
        // And the replay migrates but never freezes (invariant counts).
        assert!(a.predicted_frozen.is_empty());
    }

    impl Finding {
        /// Test helper: recover the example vaddr from the message.
        fn example_vaddr_for_test(&self) -> u64 {
            let hex = self
                .message
                .split("vaddr 0x")
                .nth(1)
                .and_then(|s| s.split([',', ')']).next())
                .expect("message carries an example vaddr");
            u64::from_str_radix(hex, 16).unwrap()
        }
    }
}
