//! The UPMlib engine core: hot-area registration and the iterative
//! competitive-migration mechanism that emulates data distribution.

use crate::freeze::{FreezeTracker, Verdict};
use crate::stats::UpmStats;
use crate::tuning::UpmOptions;
use ccnuma::{Machine, NodeId, SimArray};
use vmm::procfs::PageView;
use vmm::{MldSet, ProcCounters};

/// The user-level page migration engine (`upmlib_init` creates one).
///
/// Construction, hot-area registration and the distribution mechanism live
/// here; the record–replay redistribution mechanism is in
/// [`crate::recrep`] (same type, second `impl` block).
#[derive(Clone)]
pub struct UpmEngine {
    pub(crate) options: UpmOptions,
    /// Hot memory areas `(base, byte_len)` registered by `memrefcnt` — the
    /// shared arrays the compiler identifies as both read and written in
    /// disjoint parallel constructs.
    pub(crate) hot_areas: Vec<(u64, u64)>,
    pub(crate) mlds: MldSet,
    pub(crate) proc: ProcCounters,
    pub(crate) freeze: FreezeTracker,
    pub(crate) stats: UpmStats,
    /// Distribution-mechanism invocation counter.
    pub(crate) invocations: u64,
    /// Self-deactivation flag: cleared the first time `migrate_memory`
    /// finds nothing to move.
    pub(crate) active: bool,
    // ---- record–replay state (see recrep.rs) ----
    pub(crate) recordings: Vec<Vec<PageView>>,
    pub(crate) replay_lists: Vec<Vec<ReplayEntry>>,
    pub(crate) replay_cursor: usize,
    pub(crate) undo_list: Vec<(u64, NodeId)>,
    /// Read-only replication state (see `replicate.rs`).
    pub(crate) replication: crate::replicate::ReplicationState,
    /// Pages whose freeze has already been traced (one PageFrozen event per
    /// page, not one per vetoed attempt).
    pub(crate) frozen_traced: std::collections::HashSet<u64>,
}

/// One migration the record–replay mechanism replays each iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ReplayEntry {
    pub vpage: u64,
    pub target: NodeId,
    pub original_home: NodeId,
}

impl UpmEngine {
    /// `upmlib_init`: create an engine for `machine`.
    pub fn new(machine: &Machine, options: UpmOptions) -> Self {
        Self {
            options,
            hot_areas: Vec::new(),
            mlds: MldSet::for_machine(machine),
            proc: ProcCounters,
            freeze: FreezeTracker::new(),
            stats: UpmStats::default(),
            invocations: 0,
            active: true,
            recordings: Vec::new(),
            replay_lists: Vec::new(),
            replay_cursor: 0,
            undo_list: Vec::new(),
            replication: crate::replicate::ReplicationState::default(),
            frozen_traced: std::collections::HashSet::new(),
        }
    }

    /// `upmlib_memrefcnt(addr, size)`: activate reference monitoring for a
    /// hot shared array.
    pub fn memrefcnt<T: Copy>(&mut self, array: &SimArray<T>) {
        self.hot_areas.push(array.vrange());
    }

    /// Register a raw `(base, byte_len)` range as hot.
    pub fn memrefcnt_range(&mut self, base: u64, len: u64) {
        self.hot_areas.push((base, len));
    }

    /// The registered hot areas, as `(base, byte_len)` ranges.
    pub fn hot_areas(&self) -> &[(u64, u64)] {
        &self.hot_areas
    }

    /// Whether the distribution mechanism is still armed (it self-deactivates
    /// the first time it finds no page to migrate).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Re-arm the distribution mechanism — used when the runtime learns
    /// that the reference pattern changed underneath it, e.g. after the OS
    /// scheduler rebinds threads to different processors (the
    /// multiprogramming scenario the paper defers to its companion work).
    /// Restarts the observation window and thaws the ping-pong freezer:
    /// the rebind legitimately changes every page's dominant node, so
    /// oscillation observed under the old binding is no longer evidence
    /// that a page is unstable — keeping pages frozen across rebinds would
    /// permanently lock the placement to wherever the first rotation left
    /// it.
    pub fn reactivate(&mut self, machine: &Machine) {
        self.active = true;
        self.reset_counters(machine);
        self.freeze.thaw();
        self.frozen_traced.clear();
    }

    /// Scheduler-aware response to a thread migration: replay the tuned
    /// placement under the new binding instead of forgetting it. Threads
    /// moved `old[t] -> new[t]`; every hot page homed on a node that lost
    /// its threads is migrated to the node those threads moved to — "page
    /// migration follows thread migration", the behaviour the paper's
    /// companion work on multiprogrammed machines builds on.
    ///
    /// The replay is only well-defined when the thread moves induce a
    /// consistent node→node map (every thread leaving node A lands on the
    /// same node B) and the team size is unchanged. Otherwise — a team
    /// resize, or threads of one node scattered — the engine falls back to
    /// forget-and-relearn ([`Self::reactivate`]) and returns 0.
    ///
    /// Either way the engine ends re-armed with a fresh observation window,
    /// so the competitive mechanism cleans up whatever the replay missed.
    pub fn follow_rebind(&mut self, machine: &mut Machine, old: &[usize], new: &[usize]) -> usize {
        let moved = match self.rebind_node_map(machine, old, new) {
            Some(map) => self.replay_node_map(machine, &map),
            None => 0,
        };
        self.reactivate(machine);
        moved
    }

    /// The node→node map induced by a thread rebinding, if consistent.
    fn rebind_node_map(
        &self,
        machine: &Machine,
        old: &[usize],
        new: &[usize],
    ) -> Option<Vec<Option<NodeId>>> {
        if old.len() != new.len() || old.is_empty() {
            return None;
        }
        let topo = machine.topology();
        let mut map: Vec<Option<NodeId>> = vec![None; topo.nodes()];
        for (&o, &n) in old.iter().zip(new) {
            let (from, to) = (topo.node_of_cpu(o), topo.node_of_cpu(n));
            match map[from] {
                None => map[from] = Some(to),
                Some(prev) if prev == to => {}
                Some(_) => return None, // threads of one node scattered
            }
        }
        Some(map)
    }

    /// Migrate every hot page through `map` (old home node → new home node).
    fn replay_node_map(&mut self, machine: &mut Machine, map: &[Option<NodeId>]) -> usize {
        let migration_ns_before = machine.stats().migration_ns;
        let mut moved = 0usize;
        for view in self.hot_page_views(machine) {
            let Some(target) = map[view.home] else {
                continue;
            };
            if target == view.home {
                continue;
            }
            if self
                .mlds
                .migrate_page(machine, view.vpage, self.mlds.mld(target))
                .is_ok()
            {
                moved += 1;
            }
        }
        self.stats.rebind_replays += moved as u64;
        self.stats.rebind_replay_ns += machine.stats().migration_ns - migration_ns_before;
        moved
    }

    /// Engine statistics (Table 2 inputs).
    pub fn stats(&self) -> &UpmStats {
        &self.stats
    }

    /// The pages the ping-pong freezer has frozen, sorted by vpage — the
    /// dynamic ground truth for the static analyzer's differential suite.
    pub fn frozen_pages(&self) -> Vec<u64> {
        self.freeze.frozen_pages()
    }

    /// The engine's tuning options.
    pub fn options(&self) -> &UpmOptions {
        &self.options
    }

    /// Hot pages currently mapped, as counter views.
    pub(crate) fn hot_page_views(&self, machine: &Machine) -> Vec<PageView> {
        let mut views = Vec::new();
        for &(base, len) in &self.hot_areas {
            views.extend(self.proc.read_range(machine, base, len));
        }
        views
    }

    /// Zero the hardware counters of every hot page — called when reference
    /// monitoring (re)starts, e.g. after the discarded cold-start iteration,
    /// so the first observation window covers exactly one timed iteration.
    /// Without this the 11-bit counters saturate during the cold start and
    /// every node reads 2047, destroying the dominance signal.
    pub fn reset_counters(&self, machine: &Machine) {
        for &(base, len) in &self.hot_areas {
            self.proc.reset_range(machine, base, len);
        }
    }

    /// `upmlib_migrate_memory`: scan the hot areas' counters, migrate every
    /// page that satisfies the competitive criterion to its dominant node,
    /// and reset the hot counters so the next invocation observes exactly
    /// one iteration's trace. Self-deactivates when nothing moves. Returns
    /// the number of pages migrated (the paper's `num_migrations`).
    pub fn migrate_memory(&mut self, machine: &mut Machine) -> usize {
        if !self.active {
            return 0;
        }
        let _hp = hostprof::span_hot("upmlib.migrate_memory");
        self.invocations += 1;
        let invocation = self.invocations;
        let views = self.hot_page_views(machine);
        if machine.trace_mut().is_active() {
            // Sample every hot page that saw traffic this observation
            // window: the raw input of the profiler's access heatmaps.
            for view in &views {
                if view.total() == 0 {
                    continue;
                }
                let (local, rmax, rnode) = view.competitive_view();
                let (vpage, home) = (view.vpage, view.home);
                machine.trace_event(|| obs::EventKind::PageCounterSample {
                    vpage,
                    home,
                    local,
                    rmax,
                    rnode,
                });
            }
        }
        // Deterministic order: scan in vpage order.
        let mut moved = 0usize;
        let migration_ns_before = machine.stats().migration_ns;
        for view in &views {
            let (vpage, from) = (view.vpage, view.home);
            let seen = view.competitive_view();
            match self
                .freeze
                .verdict(&self.options, vpage, from, seen, invocation)
            {
                Verdict::Stay => {}
                Verdict::Vetoed(to) => {
                    self.stats.vetoed_moves += 1;
                    machine.trace_event(|| obs::EventKind::MoveVetoed { vpage, from, to });
                    machine.trace_mut().inc("upm_vetoed_moves", 1);
                    if self.freeze.is_frozen(vpage) && self.frozen_traced.insert(vpage) {
                        machine.trace_event(|| obs::EventKind::PageFrozen { vpage });
                    }
                }
                Verdict::Move(to) => {
                    let target = self.mlds.mld(to);
                    if self.mlds.migrate_page(machine, vpage, target).is_ok() {
                        moved += 1;
                    }
                }
            }
        }
        self.stats.distribution_ns += machine.stats().migration_ns - migration_ns_before;
        self.stats.frozen_pages = self.freeze.frozen_count() as u64;
        self.stats.migrations_per_invocation.push(moved as u64);
        machine.trace_event(|| obs::EventKind::UpmInvoked {
            invocation: invocation as usize,
            moved,
        });
        // Fresh observation window for the next iteration.
        for &(base, len) in &self.hot_areas {
            self.proc.reset_range(machine, base, len);
        }
        if moved == 0 {
            self.active = false;
            machine.trace_event(|| obs::EventKind::EngineDeactivated {
                invocation: invocation as usize,
            });
        }
        machine.trace_mut().inc("upm_invocations", 1);
        moved
    }
}

impl std::fmt::Debug for UpmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpmEngine")
            .field("hot_areas", &self.hot_areas.len())
            .field("active", &self.active)
            .field("invocations", &self.invocations)
            .field("frozen", &self.freeze.frozen_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::{AccessKind, MachineConfig, PAGE_SIZE};
    use vmm::{install_placement, PlacementScheme};

    /// Make `cpu` the dominant accessor of the page at `base`.
    fn hammer(machine: &mut Machine, cpu: usize, base: u64, sweeps: usize) {
        for _ in 0..sweeps {
            for line in 0..(PAGE_SIZE / 128) {
                machine.touch(cpu, base + line * 128, AccessKind::Write);
                machine.touch(cpu, base + line * 128, AccessKind::Read);
            }
        }
    }

    #[test]
    fn migrates_hot_page_to_dominant_node() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        install_placement(&mut m, PlacementScheme::WorstCase { node: 0 });
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        // CPU 6 (node 3) is the real owner; page was placed on node 0.
        hammer(&mut m, 6, a.vrange().0, 2);
        let moved = upm.migrate_memory(&mut m);
        assert_eq!(moved, 1);
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(a.vrange().0)), Some(3));
        assert!(
            upm.is_active(),
            "engine stays armed after a productive pass"
        );
    }

    #[test]
    fn self_deactivates_when_quiescent() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        // First-touch placement by the dominant accessor: nothing to move.
        hammer(&mut m, 6, a.vrange().0, 2);
        assert_eq!(upm.migrate_memory(&mut m), 0);
        assert!(!upm.is_active());
        // Further calls are no-ops.
        hammer(&mut m, 0, a.vrange().0, 4);
        assert_eq!(upm.migrate_memory(&mut m), 0);
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(a.vrange().0)), Some(3));
    }

    #[test]
    fn an_empty_hot_range_covers_no_page() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let base = a.vrange().0;
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt_range(base, 0);
        hammer(&mut m, 6, base, 2);
        assert!(upm.hot_page_views(&m).is_empty());
        // ... and resetting the hot counters leaves the page's alone.
        upm.reset_counters(&m);
        let view = ProcCounters.read(&m, ccnuma::vpage_of(base)).unwrap();
        assert!(view.total() > 0);
    }

    #[test]
    fn counters_reset_between_invocations() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        hammer(&mut m, 6, a.vrange().0, 2);
        upm.migrate_memory(&mut m);
        let view = ProcCounters
            .read(&m, ccnuma::vpage_of(a.vrange().0))
            .unwrap();
        assert_eq!(view.total(), 0, "hot counters must be reset");
    }

    #[test]
    fn ping_pong_page_gets_frozen() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        let base = a.vrange().0;
        // Page starts on node 0 (first touch by cpu 0 via the hammer below
        // faults it), but node 3 dominates iteration 1.
        m.touch(0, base, AccessKind::Read);
        hammer(&mut m, 6, base, 2);
        assert_eq!(upm.migrate_memory(&mut m), 1); // 0 -> 3
                                                   // Iteration 2: node 0 dominates (false sharing flip).
        hammer(&mut m, 0, base, 2);
        assert_eq!(upm.migrate_memory(&mut m), 0, "reverse move vetoed");
        assert_eq!(upm.stats().vetoed_moves, 1);
        assert_eq!(upm.stats().frozen_pages, 1);
        // Iteration 3: still node 0 dominant, page frozen, still no move.
        hammer(&mut m, 0, base, 2);
        assert_eq!(upm.migrate_memory(&mut m), 0);
        assert!(!upm.is_active());
    }

    #[test]
    fn min_accesses_suppresses_noise() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let mut upm = UpmEngine::new(
            &m,
            UpmOptions {
                min_accesses: 50,
                ..Default::default()
            },
        );
        upm.memrefcnt(&a);
        let base = a.vrange().0;
        m.touch(0, base, AccessKind::Read);
        // Only a couple of remote touches: below the floor.
        m.touch(6, base + 128, AccessKind::Read);
        m.touch(6, base + 256, AccessKind::Read);
        assert_eq!(upm.migrate_memory(&mut m), 0);
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(base)), Some(0));
    }

    #[test]
    fn reactivate_rearms_a_deactivated_engine() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        hammer(&mut m, 6, a.vrange().0, 2);
        upm.migrate_memory(&mut m); // moves to node 3
        assert_eq!(upm.migrate_memory(&mut m), 0);
        assert!(!upm.is_active());
        // The scheduler moves the consumer to node 0; re-arm and re-learn.
        upm.reactivate(&m);
        assert!(upm.is_active());
        hammer(&mut m, 0, a.vrange().0, 2);
        // Freezing would veto an immediate reversal; this is a later epoch,
        // but the tracker is conservative — disable freezing to observe the
        // re-learning in isolation.
        let mut upm2 = UpmEngine::new(
            &m,
            UpmOptions {
                freeze_ping_pong: false,
                ..Default::default()
            },
        );
        upm2.memrefcnt(&a);
        assert_eq!(upm2.migrate_memory(&mut m), 1);
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(a.vrange().0)), Some(0));
    }

    #[test]
    fn follow_rebind_replays_placement_under_new_binding() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", 2 * (PAGE_SIZE / 8) as usize, 0.0f64);
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        let base = a.vrange().0;
        // Page 0 tuned to node 3 (cpu 6/7), page 1 to node 0 (cpu 0/1):
        // first touch places each page on its dominant accessor's node.
        hammer(&mut m, 6, base, 2);
        hammer(&mut m, 0, base + PAGE_SIZE, 2);
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(base)), Some(3));
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(base + PAGE_SIZE)), Some(0));
        // The OS swaps the node-0 and node-3 pairs: 0,1<->6,7 (2,3<->4,5).
        let old: Vec<usize> = (0..8).collect();
        let new = vec![6, 7, 4, 5, 2, 3, 0, 1];
        let moved = upm.follow_rebind(&mut m, &old, &new);
        assert_eq!(moved, 2, "both tuned pages follow their threads");
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(base)), Some(0));
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(base + PAGE_SIZE)), Some(3));
        assert_eq!(upm.stats().rebind_replays, 2);
        assert!(upm.stats().rebind_replay_ns > 0.0);
        assert!(upm.is_active(), "engine is re-armed after the replay");
    }

    #[test]
    fn follow_rebind_falls_back_on_inconsistent_map() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        hammer(&mut m, 6, a.vrange().0, 2);
        upm.migrate_memory(&mut m);
        upm.migrate_memory(&mut m); // quiescent -> deactivates
        assert!(!upm.is_active());
        // Threads of node 0 (cpus 0,1) land on different nodes: no
        // consistent map, so nothing replays — but the engine re-arms.
        let old: Vec<usize> = (0..8).collect();
        let new = vec![2, 4, 0, 1, 3, 5, 6, 7];
        assert_eq!(upm.follow_rebind(&mut m, &old, &new), 0);
        assert_eq!(upm.stats().rebind_replays, 0);
        assert!(upm.is_active(), "fallback is forget-and-relearn");
    }

    #[test]
    fn follow_rebind_rejects_team_resize() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        hammer(&mut m, 6, a.vrange().0, 2);
        upm.migrate_memory(&mut m);
        assert_eq!(upm.follow_rebind(&mut m, &[0, 1, 2, 3], &[0, 1]), 0);
        assert!(upm.is_active());
    }

    #[test]
    fn table2_fraction_tracks_invocations() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", 2 * (PAGE_SIZE / 8) as usize, 0.0f64);
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        let base = a.vrange().0;
        m.touch(0, base, AccessKind::Read);
        m.touch(0, base + PAGE_SIZE, AccessKind::Read);
        // Iteration 1: node 3 dominates page 0 only.
        hammer(&mut m, 6, base, 2);
        assert_eq!(upm.migrate_memory(&mut m), 1);
        // Iteration 2: node 2 dominates page 1 (late phase shift).
        hammer(&mut m, 4, base + PAGE_SIZE, 2);
        assert_eq!(upm.migrate_memory(&mut m), 1);
        let frac = upm.stats().first_invocation_fraction();
        assert!((frac - 0.5).abs() < 1e-12, "frac {frac}");
    }
}
