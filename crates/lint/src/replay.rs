//! Symbolic replay of the UPMlib competitive-migration loop.
//!
//! [`UpmReplay`] runs the exact decision procedure of
//! `upmlib::UpmEngine::migrate_memory` — the §3.3 competitive criterion,
//! vpage scan order, the deactivate-on-no-move rule and the ping-pong
//! freezer (it reuses `upmlib::freeze::FreezeTracker` verbatim) — but over
//! *static per-page access-count tables* instead of the simulated machine's
//! hardware counters. The static analyzer derives those tables from the
//! kernels' access models, which lets it predict, without running the
//! machine simulation, which pages the dynamic engine would migrate and
//! which it would freeze.
//!
//! Two fidelity caveats, both conservative:
//!
//! * static counts include every modelled access, while the hardware
//!   counters only count the cache-miss slow path — so static dominance
//!   ratios are an upper bound on what the engine observes;
//! * the replay applies one count table per invocation (the engine resets
//!   its counters after every invocation, so each dynamic invocation also
//!   sees exactly one iteration's worth of references).

use ccnuma::{competitive_view, NodeId};
use std::collections::BTreeMap;
use upmlib::freeze::{FreezeTracker, Verdict};
use upmlib::UpmOptions;

/// Per-page, per-node access counts for one observation window (one timed
/// iteration), keyed by virtual page number.
pub type CountTable = BTreeMap<u64, Vec<u64>>;

/// The symbolic migration engine.
#[derive(Debug)]
pub struct UpmReplay {
    options: UpmOptions,
    nodes: usize,
    homes: BTreeMap<u64, NodeId>,
    freeze: FreezeTracker,
    invocations: u64,
    active: bool,
    migrations: Vec<u64>,
}

impl UpmReplay {
    /// Create a replay over `nodes` NUMA nodes with the given initial page
    /// placement (vpage → home node, normally the first-touch prediction).
    pub fn new(homes: BTreeMap<u64, NodeId>, nodes: usize, options: UpmOptions) -> Self {
        Self {
            options,
            nodes,
            homes,
            freeze: FreezeTracker::new(),
            invocations: 0,
            active: true,
            migrations: Vec::new(),
        }
    }

    /// Whether the engine is still armed (it self-deactivates the first
    /// time an invocation moves nothing, like the dynamic engine).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Current predicted placement.
    pub fn homes(&self) -> &BTreeMap<u64, NodeId> {
        &self.homes
    }

    /// Pages the ping-pong freezer froze, sorted by vpage.
    pub fn frozen_pages(&self) -> Vec<u64> {
        self.freeze.frozen_pages()
    }

    /// Pages moved per invocation, in invocation order.
    pub fn migrations_per_invocation(&self) -> &[u64] {
        &self.migrations
    }

    /// One `migrate_memory` invocation against `counts`. Returns the number
    /// of pages moved. It is `UpmEngine::migrate_memory` over a table: the
    /// same vpage scan order, the engine's own view of a page's counts
    /// ([`competitive_view`]) and its own per-page decision
    /// ([`FreezeTracker::verdict`]), and deactivation when nothing moves.
    pub fn invoke(&mut self, counts: &CountTable) -> usize {
        if !self.active {
            return 0;
        }
        self.invocations += 1;
        let invocation = self.invocations;
        let mut moved = 0usize;
        for (&vpage, node_counts) in counts {
            let Some(&home) = self.homes.get(&vpage) else {
                continue;
            };
            let seen = competitive_view(node_counts.iter().copied().take(self.nodes), home);
            if let Verdict::Move(target) =
                self.freeze
                    .verdict(&self.options, vpage, home, seen, invocation)
            {
                self.homes.insert(vpage, target);
                moved += 1;
            }
        }
        self.migrations.push(moved as u64);
        if moved == 0 {
            self.active = false;
        }
        moved
    }

    /// Run `invoke` with the same table once per iteration until the engine
    /// deactivates or `max_invocations` is reached. This models the steady
    /// state: an iterative benchmark produces the same reference trace every
    /// timed iteration.
    pub fn run_to_fixpoint(&mut self, counts: &CountTable, max_invocations: usize) -> usize {
        let mut total = 0;
        for _ in 0..max_invocations {
            if !self.active {
                break;
            }
            total += self.invoke(counts);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: &[(u64, Vec<u64>)]) -> CountTable {
        entries.iter().cloned().collect()
    }

    /// With iteration-invariant counts the first move lands each page on
    /// its global argmax node, after which `local` is the maximum count and
    /// no ratio can exceed `thr` again: the engine converges without ever
    /// reversing a move, so nothing is frozen. This is the theorem behind
    /// the real-model differential suite (the dynamic engine freezes no
    /// page on any benchmark either).
    #[test]
    fn invariant_counts_converge_without_freezing() {
        let homes = [(10u64, 0usize)].into_iter().collect();
        let mut replay = UpmReplay::new(homes, 4, UpmOptions::default());
        let counts = table(&[(10, vec![3, 50, 2, 0])]);
        let moved = replay.run_to_fixpoint(&counts, 16);
        assert_eq!(moved, 1);
        assert!(!replay.is_active());
        assert_eq!(replay.homes()[&10], 1);
        assert!(replay.frozen_pages().is_empty());
        assert_eq!(replay.migrations_per_invocation(), &[1, 0]);
    }

    /// Alternating dominance reproduces the ping-pong freeze: move 0→1,
    /// then the 1→0 reversal in the next invocation is vetoed and the page
    /// frozen, exactly like `FreezeTracker` under the dynamic engine.
    #[test]
    fn alternating_dominance_freezes_the_page() {
        let homes = [(7u64, 0usize)].into_iter().collect();
        let mut replay = UpmReplay::new(homes, 2, UpmOptions::default());
        let toward_1 = table(&[(7, vec![1, 40])]);
        let toward_0 = table(&[(7, vec![40, 1])]);
        assert_eq!(replay.invoke(&toward_1), 1);
        assert_eq!(replay.invoke(&toward_0), 0);
        assert_eq!(replay.frozen_pages(), vec![7]);
        assert_eq!(replay.homes()[&7], 1, "vetoed move leaves the page put");
    }

    #[test]
    fn respects_min_accesses_floor_and_threshold() {
        let homes = [(1u64, 0usize), (2, 0), (3, 0)].into_iter().collect();
        let mut replay = UpmReplay::new(homes, 2, UpmOptions::default());
        let counts = table(&[
            (1, vec![0, 7]),   // rmax below min_accesses: ignored
            (2, vec![10, 15]), // ratio 1.5 <= thr 2.0: ignored
            (3, vec![4, 9]),   // ratio 2.25 > thr: moves
        ]);
        assert_eq!(replay.invoke(&counts), 1);
        assert_eq!(replay.homes()[&1], 0);
        assert_eq!(replay.homes()[&2], 0);
        assert_eq!(replay.homes()[&3], 1);
    }

    #[test]
    fn remote_tie_breaks_toward_lower_node() {
        let homes = [(5u64, 0usize)].into_iter().collect();
        let mut replay = UpmReplay::new(homes, 4, UpmOptions::default());
        let counts = table(&[(5, vec![1, 0, 30, 30])]);
        assert_eq!(replay.invoke(&counts), 1);
        assert_eq!(replay.homes()[&5], 2);
    }
}
