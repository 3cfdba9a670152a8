//! Placement synthesis: turn the analyzer's diagnostics into prescriptions.
//!
//! [`synthesize`] reads the same [`Footprint`] of a [`nas::KernelModel`] the
//! analyzer does — first-touch homes, per-phase per-page per-node reference
//! counts — and emits a [`PlacementMap`]: a deterministic vpage → node
//! prescription that a run can install *before* the cold start
//! (`vmm::PlacementScheme::Static`), answering the question the paper left
//! open: what does dynamic migration still buy when a static tool already
//! placed every page on its dominant node?
//!
//! The placement rule has two tiers:
//!
//! * **Stable pages** (no `L007` phase-dominance flip): the page is placed
//!   where the symbolic UPMlib replay ([`crate::UpmReplay`]) *converges* it
//!   when seeded from the predicted first-touch placement and run over the
//!   per-iteration count totals. With iteration-invariant counts the replay
//!   lands every moved page on its global argmax node and deactivates, so
//!   this matches the dynamic engine's converged placement page-for-page —
//!   the differential suite in `tests/` asserts exactly that against real
//!   ft+UPMlib runs.
//! * **Flip pages** (dominant node changes between consecutive phases, the
//!   `L007` predicate): no single home is right for every phase, so the
//!   conflict is resolved by *write-biased weighted dominance* — per-node
//!   counts summed over all timed phases with writes weighted
//!   [`WRITE_WEIGHT`]× (a store to a remote line costs a read-for-ownership
//!   plus the writeback), ties toward the lower node id. These pages carry
//!   [`Confidence::Flip`] and surface as `L009` findings; the residual
//!   migration traffic the static placement leaves behind is quantified by
//!   re-running the replay seeded with the synthesized map.

use crate::analyze::LintConfig;
use crate::finding::{Code, Finding};
use crate::footprint::Footprint;
use crate::replay::UpmReplay;
use ccnuma::{vpages, NodeId};
use nas::KernelModel;
use obs::json::Value;
use std::collections::{BTreeMap, BTreeSet};
use vmm::StaticMap;

/// Weight applied to write accesses when resolving flip-page conflicts.
/// A remote store costs a read-for-ownership plus the eventual writeback,
/// so writes pull a page toward the writing node harder than reads do.
pub const WRITE_WEIGHT: u64 = 2;

/// How sure the synthesizer is about one page's prescription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// The page's dominant node is phase-invariant; the prescription equals
    /// the placement the dynamic UPMlib engine converges to.
    Stable,
    /// The dominant node flips between consecutive phases (`L007`); the
    /// prescription is the write-biased weighted dominant and some remote
    /// traffic is unavoidable wherever the page lands.
    Flip,
}

impl Confidence {
    /// Lower-case label used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Confidence::Stable => "stable",
            Confidence::Flip => "flip",
        }
    }
}

/// One page's synthesized prescription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAssignment {
    /// Home node the page should be placed on before the cold start.
    pub node: NodeId,
    /// Whether the dominant node is phase-invariant.
    pub confidence: Confidence,
}

/// Per-array explanation of what was prescribed and why.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayRationale {
    /// Array name (e.g. `cg.a`).
    pub array: String,
    /// Pages of this array that received a prescription.
    pub pages: u64,
    /// Pages whose dominant node flips across phases ([`Confidence::Flip`]).
    pub flip_pages: u64,
    /// First vpage of the array's virtual range (inclusive).
    pub first_vpage: u64,
    /// Last vpage of the array's virtual range (inclusive).
    pub last_vpage: u64,
    /// `node:count` histogram of the prescribed homes, node-id order.
    pub distribution: String,
    /// One-line human rationale.
    pub rationale: String,
}

/// A deterministic, JSON-serializable static placement prescription for one
/// benchmark: every touched page mapped to exactly one node, with per-array
/// rationale and per-page confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementMap {
    bench: String,
    threads: usize,
    nodes: usize,
    pages: BTreeMap<u64, PageAssignment>,
    arrays: Vec<ArrayRationale>,
    /// vpage → times the re-seeded replay still moved it (flip residue).
    residual: BTreeMap<u64, u64>,
}

impl PlacementMap {
    /// Benchmark label the map was synthesized for.
    pub fn bench(&self) -> &str {
        &self.bench
    }

    /// Team size the ownership maps were evaluated for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Node count of the target machine.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The prescription: vpage → assignment, sorted by vpage.
    pub fn pages(&self) -> &BTreeMap<u64, PageAssignment> {
        &self.pages
    }

    /// Per-array rationale, in `KernelModel::arrays` order.
    pub fn arrays(&self) -> &[ArrayRationale] {
        &self.arrays
    }

    /// Sorted vpages carrying [`Confidence::Flip`].
    pub fn flip_pages(&self) -> Vec<u64> {
        self.pages
            .iter()
            .filter(|(_, a)| a.confidence == Confidence::Flip)
            .map(|(&p, _)| p)
            .collect()
    }

    /// Per-page residual migration counts: how often the symbolic UPMlib
    /// replay, seeded with *this* map, still moves each page. Empty when the
    /// static placement is already the engine's fixpoint.
    pub fn residual_by_page(&self) -> &BTreeMap<u64, u64> {
        &self.residual
    }

    /// Total residual migrations the static placement leaves behind.
    pub fn residual_migrations(&self) -> u64 {
        self.residual.values().sum()
    }

    /// The installable `vmm` placement map (page → node, content
    /// fingerprint).
    pub fn to_static(&self) -> StaticMap {
        StaticMap::new(self.pages.iter().map(|(&p, a)| (p, a.node)).collect())
    }

    /// Content fingerprint of the prescription (stable across processes;
    /// identical to [`StaticMap::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        self.to_static().fingerprint().to_string()
    }

    /// Deterministic JSON rendering: byte-identical across runs and
    /// processes (all maps are ordered, all numbers integral).
    pub fn to_json(&self) -> Value {
        let pages = self
            .pages
            .iter()
            .map(|(&vpage, a)| {
                Value::object(vec![
                    ("vpage", vpage.into()),
                    ("node", (a.node as u64).into()),
                    ("confidence", a.confidence.as_str().into()),
                ])
            })
            .collect();
        let arrays = self
            .arrays
            .iter()
            .map(|a| {
                Value::object(vec![
                    ("array", a.array.as_str().into()),
                    ("pages", a.pages.into()),
                    ("flip_pages", a.flip_pages.into()),
                    ("distribution", a.distribution.as_str().into()),
                    ("rationale", a.rationale.as_str().into()),
                ])
            })
            .collect();
        let residual = self
            .residual
            .iter()
            .map(|(&vpage, &moves)| {
                Value::object(vec![("vpage", vpage.into()), ("migrations", moves.into())])
            })
            .collect();
        Value::object(vec![
            ("bench", self.bench.as_str().into()),
            ("threads", (self.threads as u64).into()),
            ("nodes", (self.nodes as u64).into()),
            ("fingerprint", self.fingerprint().as_str().into()),
            ("pages", Value::Array(pages)),
            ("arrays", Value::Array(arrays)),
            ("residual", Value::Array(residual)),
            ("residual_migrations", self.residual_migrations().into()),
        ])
    }

    /// `L009` findings: one per array that owns flip pages. The key format
    /// for `lint.allow` is `L009 BENCH synth ARRAY`.
    pub fn findings(&self) -> Vec<Finding> {
        let mut per_array: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (&page, a) in &self.pages {
            if a.confidence != Confidence::Flip {
                continue;
            }
            let subject = self
                .arrays
                .iter()
                .find(|r| (r.first_vpage..=r.last_vpage).contains(&page))
                .map(|r| r.array.clone())
                .unwrap_or_else(|| "?".to_string());
            let entry = per_array.entry(subject).or_insert((0, 0, 0));
            if entry.0 == 0 {
                entry.1 = page;
            }
            entry.0 += 1;
            entry.2 += self.residual.get(&page).copied().unwrap_or(0);
        }
        per_array
            .into_iter()
            .map(|(subject, (count, example, residual))| Finding {
                code: Code::LowConfidencePlacement,
                bench: self.bench.clone(),
                site: "synth".to_string(),
                subject,
                count,
                message: format!(
                    "{count} pages have no phase-invariant home (e.g. vpage \
                     {example:#x}); placed on the write-biased weighted \
                     dominant node, leaving {residual} residual migrations \
                     if UPMlib also runs"
                ),
            })
            .collect()
    }
}

/// Synthesize a static placement prescription for `model` on the machine and
/// team described by `cfg`. Deterministic: same model + config → the same
/// map, bit for bit.
pub fn synthesize(model: &KernelModel, cfg: &LintConfig) -> PlacementMap {
    let fp = Footprint::build(model, cfg);
    synthesize_footprint(model, cfg, &fp, &fp.replay(cfg))
}

/// [`synthesize`] over a footprint already built from `model` under `cfg`
/// and the replay [`Footprint::replay`] converged from it.
pub fn synthesize_footprint(
    model: &KernelModel,
    cfg: &LintConfig,
    fp: &Footprint,
    converged: &UpmReplay,
) -> PlacementMap {
    let nodes = cfg.machine.topology.nodes();
    let totals = &fp.totals;

    // Stable tier: where the dynamic engine converges. Flip tier (the L007
    // predicate, page-granular): write-biased weighted dominance.
    let flips: BTreeSet<u64> = fp
        .flips(cfg.upm.min_accesses as u64)
        .into_iter()
        .flat_map(|(_, _, pages)| pages)
        .collect();
    let mut pages: BTreeMap<u64, PageAssignment> = BTreeMap::new();
    for (&page, &home) in converged.homes() {
        let (node, confidence) = if flips.contains(&page) {
            let weighted = fp.write_weighted(page, WRITE_WEIGHT);
            (Footprint::dominant(&weighted), Confidence::Flip)
        } else {
            (home, Confidence::Stable)
        };
        pages.insert(page, PageAssignment { node, confidence });
    }

    // ---- Residual traffic: re-run the engine seeded with the map. ----
    let static_homes: BTreeMap<u64, NodeId> = pages.iter().map(|(&p, a)| (p, a.node)).collect();
    let mut residual: BTreeMap<u64, u64> = BTreeMap::new();
    let mut recheck = UpmReplay::new(static_homes, nodes, cfg.upm);
    for _ in 0..cfg.iterations {
        if !recheck.is_active() {
            break;
        }
        let before = recheck.homes().clone();
        recheck.invoke(totals);
        for (&p, &n) in recheck.homes() {
            if before.get(&p) != Some(&n) {
                *residual.entry(p).or_insert(0) += 1;
            }
        }
    }

    // ---- Per-array rationale. ----
    let mut arrays = Vec::new();
    for layout in model.arrays() {
        let (base, bytes) = layout.vrange();
        let span = vpages(base, bytes);
        let mut count = 0u64;
        let mut flip_count = 0u64;
        let mut hist = vec![0u64; nodes];
        for (_, a) in pages.range(span.clone()) {
            count += 1;
            hist[a.node] += 1;
            if a.confidence == Confidence::Flip {
                flip_count += 1;
            }
        }
        if count == 0 {
            continue;
        }
        let distribution = hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(n, c)| format!("{n}:{c}"))
            .collect::<Vec<_>>()
            .join(" ");
        let rationale = if flip_count == 0 {
            format!(
                "{count} pages on the replay-converged dominant nodes \
                 (phase-invariant; matches UPMlib's converged placement)"
            )
        } else {
            format!(
                "{} pages on replay-converged nodes; {flip_count} flip pages \
                 on the write-biased weighted dominant (no phase-invariant \
                 home exists)",
                count - flip_count
            )
        };
        arrays.push(ArrayRationale {
            array: layout.name().to_string(),
            pages: count,
            flip_pages: flip_count,
            first_vpage: span.start,
            last_vpage: span.end - 1,
            distribution,
            rationale,
        });
    }

    PlacementMap {
        bench: model.bench().label().to_string(),
        threads: cfg.threads,
        nodes,
        pages,
        arrays,
        residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::{AccessKind, Machine, MachineConfig, SimArray};
    use nas::{BenchName, LoopModel, PhaseModel};
    use omp::Schedule;

    fn tiny_cfg() -> LintConfig {
        LintConfig {
            threads: 4,
            machine: MachineConfig::tiny_test(),
            upm: upmlib::UpmOptions::default(),
            iterations: 8,
        }
    }

    /// A model whose hot loop is striped: each thread owns its pages, so
    /// every page is stable and home = first-touch = converged.
    fn striped_model() -> KernelModel {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let arr = SimArray::<f64>::new(&mut m, "t.a", 8192, 0.0);
        let base = arr.vrange().0;
        let hot = LoopModel::parallel("hot", 8192, Schedule::Static, move |i, emit| {
            emit(base + 8 * i as u64, AccessKind::Write)
        });
        KernelModel::new(
            BenchName::Cg,
            vec![arr.layout()],
            vec![],
            vec![PhaseModel::new("it", vec![hot])],
        )
    }

    /// Two phases with opposite dominance over one shared page set: every
    /// hot page flips.
    fn flipping_model() -> (KernelModel, u64) {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let arr = SimArray::<f64>::new(&mut m, "t.f", 4096, 0.0);
        let base = arr.vrange().0;
        // Phase A: thread 0 (node 0) re-reads everything heavily.
        let a = LoopModel::parallel("phase_a", 4, Schedule::Static, move |i, emit| {
            if i == 0 {
                for k in 0..4096u64 {
                    for _ in 0..4 {
                        emit(base + 8 * k, AccessKind::Read);
                    }
                }
            }
        });
        // Phase B: thread 3 (node 1 on tiny_test) WRITES everything heavily.
        let b = LoopModel::parallel("phase_b", 4, Schedule::Static, move |i, emit| {
            if i == 3 {
                for k in 0..4096u64 {
                    for _ in 0..4 {
                        emit(base + 8 * k, AccessKind::Write);
                    }
                }
            }
        });
        (
            KernelModel::new(
                BenchName::Cg,
                vec![arr.layout()],
                vec![],
                vec![PhaseModel::new("a", vec![a]), PhaseModel::new("b", vec![b])],
            ),
            base,
        )
    }

    #[test]
    fn striped_pages_are_stable_and_match_first_touch() {
        let model = striped_model();
        let cfg = tiny_cfg();
        let map = synthesize(&model, &cfg);
        assert!(!map.pages().is_empty());
        assert!(map
            .pages()
            .values()
            .all(|a| a.confidence == Confidence::Stable));
        assert!(map.flip_pages().is_empty());
        assert_eq!(map.residual_migrations(), 0);
        assert!(map.findings().is_empty());
        // Stable prescriptions equal the analyzer's converged prediction.
        let analysis = crate::analyze(&model, &cfg);
        for (page, a) in map.pages() {
            assert_eq!(analysis.first_touch[page], a.node, "vpage {page:#x}");
        }
        // Every node id is in range.
        assert!(map.pages().values().all(|a| a.node < map.nodes()));
    }

    #[test]
    fn flip_pages_get_write_biased_dominant_and_l009() {
        let (model, _) = flipping_model();
        let cfg = tiny_cfg();
        let map = synthesize(&model, &cfg);
        let flips = map.flip_pages();
        assert!(!flips.is_empty(), "opposite dominance must flip");
        // Phase B writes (weight 2) from node 1 outweigh phase A reads from
        // node 0 at equal raw counts: flip pages land on node 1.
        for page in &flips {
            assert_eq!(map.pages()[page].node, 1, "vpage {page:#x}");
            assert_eq!(map.pages()[page].confidence, Confidence::Flip);
        }
        let findings = map.findings();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, Code::LowConfidencePlacement);
        assert_eq!(findings[0].key(), "L009 CG synth t.f");
        assert_eq!(findings[0].count, flips.len() as u64);
    }

    #[test]
    fn json_is_deterministic_and_round_trips() {
        let (model, _) = flipping_model();
        let cfg = tiny_cfg();
        let a = synthesize(&model, &cfg);
        let b = synthesize(&model, &cfg);
        assert_eq!(a, b);
        let ja = a.to_json().to_string_pretty();
        let jb = b.to_json().to_string_pretty();
        assert_eq!(ja, jb, "synthesis must be bit-identical across runs");
        let parsed = obs::json::Value::parse(&ja).expect("valid JSON");
        assert_eq!(
            parsed.get("fingerprint").and_then(Value::as_str),
            Some(a.fingerprint().as_str())
        );
        assert_eq!(parsed["bench"].as_str(), Some("CG"));
    }

    #[test]
    fn static_map_agrees_with_prescription() {
        let model = striped_model();
        let map = synthesize(&model, &tiny_cfg());
        let stat = map.to_static();
        assert_eq!(stat.len(), map.pages().len());
        for (&page, a) in map.pages() {
            assert_eq!(stat.node_of(page), Some(a.node));
        }
        assert_eq!(stat.fingerprint(), map.fingerprint());
    }
}
