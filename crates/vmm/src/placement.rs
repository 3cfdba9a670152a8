//! The four page-placement schemes of the paper's sensitivity study, plus
//! a fifth the paper could not run: a statically synthesized placement.
//!
//! Paper §2.1: *"Assuming that first-touch is the best page placement
//! strategy for the benchmarks, we ran the codes using three alternative
//! page placement schemes, namely round-robin, random and worst-case page
//! placement."*
//!
//! * **First-touch** — each page lands on the node of the first CPU to touch
//!   it (IRIX default; the NAS codes run a discarded cold-start iteration to
//!   exploit it).
//! * **Round-robin** — pages are dealt to nodes cyclically in fault order
//!   (IRIX `DSM_PLACEMENT=ROUND_ROBIN`).
//! * **Random** — each page lands on a uniformly random node. The paper
//!   emulated this with an `mprotect(PROT_NONE)` + SIGSEGV handler placing
//!   pages through MLDs; in the simulator the fault hook *is* programmable,
//!   so the policy is expressed directly. Seeded, hence reproducible.
//! * **Worst-case** — every page lands on a single node, "the allocation
//!   performed by a buddy system which would allocate the pages with a
//!   best-fit strategy on a node with sufficient free memory". Maximizes
//!   both remote accesses and contention.
//! * **Static** — an explicit page→node map synthesized offline from the
//!   kernels' access models (`lint::synth`); pages outside the map fall
//!   back to first-touch. The head-to-head the paper left open: does
//!   dynamic migration still matter when a compiler-style tool hands the
//!   OS the right initial distribution for free?

use ccnuma::machine::Placer;
use ccnuma::{CpuId, Machine, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An explicit, immutable page→node assignment for the static scheme.
///
/// The fingerprint is computed once from the full content (FNV-1a over the
/// sorted `(vpage, node)` pairs), so two maps compare equal exactly when
/// they place every page identically; the `Debug` form is compact (length
/// plus fingerprint) because run-configuration fingerprints hash the
/// `Debug` output of everything they contain.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct StaticMap {
    pages: BTreeMap<u64, NodeId>,
    fingerprint: String,
}

impl StaticMap {
    /// Build a map from explicit `vpage → node` assignments.
    pub fn new(pages: BTreeMap<u64, NodeId>) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (&vpage, &node) in &pages {
            eat(vpage);
            eat(node as u64);
        }
        Self {
            pages,
            fingerprint: format!("{h:016x}"),
        }
    }

    /// The node assigned to `vpage`, if the map covers it.
    pub fn node_of(&self, vpage: u64) -> Option<NodeId> {
        self.pages.get(&vpage).copied()
    }

    /// Number of pages the map assigns.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the map assigns nothing.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The content fingerprint (16 hex chars), stable across processes.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The full assignment, sorted by vpage.
    pub fn pages(&self) -> &BTreeMap<u64, NodeId> {
        &self.pages
    }
}

impl std::fmt::Debug for StaticMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StaticMap {{ pages: {}, fp: {} }}",
            self.pages.len(),
            self.fingerprint
        )
    }
}

/// Which placement scheme to install — the experiment-level knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementScheme {
    /// IRIX default: place on the faulting CPU's node.
    FirstTouch,
    /// Deal pages to nodes cyclically.
    RoundRobin,
    /// Uniform random node, from the given seed.
    Random {
        /// RNG seed (fixed seeds keep experiments reproducible).
        seed: u64,
    },
    /// All pages on one node (buddy-allocator behaviour).
    WorstCase {
        /// The node that receives everything.
        node: NodeId,
    },
    /// Explicit synthesized placement; unmapped pages fall back to
    /// first-touch. Shared via `Arc`: one synthesized map serves every run
    /// configuration cloned from it.
    Static {
        /// The page→node map to install.
        map: Arc<StaticMap>,
    },
}

impl PlacementScheme {
    /// Short label used in experiment output, matching the paper's figure
    /// labels (`ft-`, `rr-`, `rand-`, `wc-`).
    pub fn label(&self) -> &'static str {
        match self {
            PlacementScheme::FirstTouch => "ft",
            PlacementScheme::RoundRobin => "rr",
            PlacementScheme::Random { .. } => "rand",
            PlacementScheme::WorstCase { .. } => "wc",
            PlacementScheme::Static { .. } => "static",
        }
    }

    /// All four schemes with defaults, in the paper's figure order.
    pub fn all(seed: u64) -> [PlacementScheme; 4] {
        [
            PlacementScheme::FirstTouch,
            PlacementScheme::RoundRobin,
            PlacementScheme::Random { seed },
            PlacementScheme::WorstCase { node: 0 },
        ]
    }
}

/// Install the chosen scheme as the machine's fault-time placer.
pub fn install_placement(machine: &mut Machine, scheme: PlacementScheme) {
    let placer: Box<dyn Placer> = match scheme {
        PlacementScheme::FirstTouch => Box::new(FirstTouch),
        PlacementScheme::RoundRobin => Box::new(RoundRobin {
            next: 0,
            nodes: machine.topology().nodes(),
        }),
        PlacementScheme::Random { seed } => Box::new(RandomPlace {
            rng: SmallRng::seed_from_u64(seed),
            nodes: machine.topology().nodes(),
        }),
        PlacementScheme::WorstCase { node } => {
            assert!(node < machine.topology().nodes());
            Box::new(WorstCase { node })
        }
        PlacementScheme::Static { map } => {
            let nodes = machine.topology().nodes();
            assert!(
                map.pages().values().all(|&n| n < nodes),
                "static map assigns a node beyond the machine's {nodes}"
            );
            Box::new(StaticPlace { map })
        }
    };
    machine.set_placer(placer);
}

#[derive(Debug, Clone, Copy)]
struct FirstTouch;

impl Placer for FirstTouch {
    fn place(&mut self, _vpage: u64, _cpu: CpuId, cpu_node: NodeId) -> NodeId {
        cpu_node
    }

    fn name(&self) -> &'static str {
        "first-touch"
    }

    fn boxed_clone(&self) -> Box<dyn Placer> {
        Box::new(*self)
    }
}

#[derive(Debug, Clone, Copy)]
struct RoundRobin {
    next: NodeId,
    nodes: usize,
}

impl Placer for RoundRobin {
    fn place(&mut self, _vpage: u64, _cpu: CpuId, _cpu_node: NodeId) -> NodeId {
        let n = self.next;
        self.next = (self.next + 1) % self.nodes;
        n
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn boxed_clone(&self) -> Box<dyn Placer> {
        Box::new(*self)
    }
}

#[derive(Clone)]
struct RandomPlace {
    rng: SmallRng,
    nodes: usize,
}

impl Placer for RandomPlace {
    fn place(&mut self, _vpage: u64, _cpu: CpuId, _cpu_node: NodeId) -> NodeId {
        self.rng.gen_range(0..self.nodes)
    }

    fn name(&self) -> &'static str {
        "random"
    }

    fn boxed_clone(&self) -> Box<dyn Placer> {
        Box::new(self.clone())
    }
}

#[derive(Debug, Clone, Copy)]
struct WorstCase {
    node: NodeId,
}

impl Placer for WorstCase {
    fn place(&mut self, _vpage: u64, _cpu: CpuId, _cpu_node: NodeId) -> NodeId {
        self.node
    }

    fn name(&self) -> &'static str {
        "worst-case"
    }

    fn boxed_clone(&self) -> Box<dyn Placer> {
        Box::new(*self)
    }
}

#[derive(Debug, Clone)]
struct StaticPlace {
    map: Arc<StaticMap>,
}

impl Placer for StaticPlace {
    fn place(&mut self, vpage: u64, _cpu: CpuId, cpu_node: NodeId) -> NodeId {
        // Pages the synthesis never saw (runtime scratch, reductions)
        // behave like first-touch.
        self.map.node_of(vpage).unwrap_or(cpu_node)
    }

    fn name(&self) -> &'static str {
        "static"
    }

    fn boxed_clone(&self) -> Box<dyn Placer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::{AccessKind, MachineConfig, PAGE_SIZE};

    fn touch_pages(machine: &mut Machine, cpu: CpuId, pages: usize) -> Vec<NodeId> {
        (0..pages)
            .map(|_| {
                let addr = machine.reserve_vspace(PAGE_SIZE);
                machine.touch(cpu, addr, AccessKind::Read);
                machine.node_of_vpage(addr >> ccnuma::PAGE_SHIFT).unwrap()
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_nodes() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        install_placement(&mut m, PlacementScheme::RoundRobin);
        let homes = touch_pages(&mut m, 0, 8);
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn worst_case_stacks_one_node() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        install_placement(&mut m, PlacementScheme::WorstCase { node: 2 });
        let homes = touch_pages(&mut m, 0, 6);
        assert!(homes.iter().all(|&n| n == 2));
    }

    #[test]
    fn random_is_seeded_and_reasonably_balanced() {
        let run = |seed| {
            let mut m = Machine::new(MachineConfig::tiny_test());
            install_placement(&mut m, PlacementScheme::Random { seed });
            touch_pages(&mut m, 0, 64)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce the same placement");
        let c = run(7);
        assert_ne!(a, c, "different seeds should differ");
        // Balance: every node gets something out of 64 pages over 4 nodes.
        for node in 0..4 {
            let got = a.iter().filter(|&&n| n == node).count();
            assert!(got > 0, "node {node} starved: {a:?}");
        }
    }

    #[test]
    fn first_touch_follows_the_faulting_cpu() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        install_placement(&mut m, PlacementScheme::FirstTouch);
        let a = m.reserve_vspace(PAGE_SIZE);
        let b = m.reserve_vspace(PAGE_SIZE);
        m.touch(0, a, AccessKind::Read); // cpu0 -> node0
        m.touch(7, b, AccessKind::Read); // cpu7 -> node3
        assert_eq!(m.node_of_vpage(a >> ccnuma::PAGE_SHIFT), Some(0));
        assert_eq!(m.node_of_vpage(b >> ccnuma::PAGE_SHIFT), Some(3));
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PlacementScheme::FirstTouch.label(), "ft");
        assert_eq!(PlacementScheme::RoundRobin.label(), "rr");
        assert_eq!(PlacementScheme::Random { seed: 0 }.label(), "rand");
        assert_eq!(PlacementScheme::WorstCase { node: 0 }.label(), "wc");
        let map = Arc::new(StaticMap::new(BTreeMap::new()));
        assert_eq!(PlacementScheme::Static { map }.label(), "static");
    }

    #[test]
    fn static_map_places_mapped_pages_and_falls_back_to_first_touch() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = m.reserve_vspace(PAGE_SIZE);
        let b = m.reserve_vspace(PAGE_SIZE);
        let map = StaticMap::new([(a >> ccnuma::PAGE_SHIFT, 3usize)].into_iter().collect());
        install_placement(&mut m, PlacementScheme::Static { map: Arc::new(map) });
        m.touch(0, a, AccessKind::Read); // mapped: node 3 regardless of cpu
        m.touch(0, b, AccessKind::Read); // unmapped: first-touch (cpu0 -> node0)
        assert_eq!(m.node_of_vpage(a >> ccnuma::PAGE_SHIFT), Some(3));
        assert_eq!(m.node_of_vpage(b >> ccnuma::PAGE_SHIFT), Some(0));
    }

    #[test]
    fn static_map_fingerprint_tracks_content() {
        let m1 = StaticMap::new([(1u64, 0usize), (2, 1)].into_iter().collect());
        let m2 = StaticMap::new([(1u64, 0usize), (2, 1)].into_iter().collect());
        let m3 = StaticMap::new([(1u64, 0usize), (2, 2)].into_iter().collect());
        assert_eq!(m1.fingerprint(), m2.fingerprint());
        assert_ne!(m1.fingerprint(), m3.fingerprint());
        assert_eq!(m1.fingerprint().len(), 16);
        assert_eq!(m1, m2);
        assert_ne!(m1, m3);
        // Debug stays compact: fingerprints of run configurations hash it.
        let dbg = format!("{m1:?}");
        assert!(dbg.contains(m1.fingerprint()), "{dbg}");
        assert!(dbg.len() < 64, "{dbg}");
    }
}
