//! The record–replay mechanism: emulating data *redistribution*.
//!
//! Paper §3.3: a *phase* is a sequence of parallel constructs with a uniform
//! communication pattern; a phase change (e.g. the z-sweep of BT/SP after
//! x/y-aligned sweeps) distorts the locality that the initial distribution
//! established. Redistribution is approximated like this:
//!
//! * During one designated iteration, the program calls
//!   [`UpmEngine::record`] at every phase-transition point, snapshotting the
//!   hardware counters of the hot pages (vectors `V_{i,j}` in the paper).
//! * [`UpmEngine::compare_counters`] then isolates each phase's reference
//!   trace by subtracting consecutive snapshots (`U_{i,j} = V_{i,j} -
//!   V_{i,j-1}`), applies the competitive criterion to the isolated traces,
//!   and keeps only the `n` most critical pages per transition, ranked by
//!   their `raccmax/lacc` ratio.
//! * In every subsequent iteration, [`UpmEngine::replay`] is called at the
//!   same transition points and re-executes exactly those migrations, and
//!   [`UpmEngine::undo`] at the end of the iteration reverses them,
//!   recovering the iteration-start placement.
//!
//! Replayed migrations run **on the critical path** — the paper's Figure 5
//! charges their cost as a visible striped overhead segment — so the
//! mechanism only pays off when phases are long enough (Figure 6).

use crate::engine::{ReplayEntry, UpmEngine};
use ccnuma::Machine;
use vmm::procfs::PageView;

impl UpmEngine {
    /// `upmlib_record`: snapshot the hot pages' counters at a
    /// phase-transition point of the recording iteration.
    pub fn record(&mut self, machine: &Machine) {
        self.recordings.push(self.hot_page_views(machine));
    }

    /// Number of snapshots recorded so far.
    pub fn recordings(&self) -> usize {
        self.recordings.len()
    }

    /// `upmlib_compare_counters`: turn the recorded snapshots into per-phase
    /// replay lists. Requires at least two snapshots (k record points define
    /// k-1 phases). Returns the total number of migrations scheduled for
    /// replay.
    pub fn compare_counters(&mut self) -> usize {
        assert!(
            self.recordings.len() >= 2,
            "compare_counters needs at least two recorded snapshots"
        );
        self.replay_lists.clear();
        let mut scheduled = 0;
        for j in 1..self.recordings.len() {
            let (before, after) = (&self.recordings[j - 1], &self.recordings[j]);
            let mut candidates: Vec<(f64, ReplayEntry)> = Vec::new();
            for view_after in after {
                // Match by vpage; a page unmapped at `before` has no trace.
                let Some(view_before) = before.iter().find(|v| v.vpage == view_after.vpage) else {
                    continue;
                };
                let delta = phase_delta(view_before, view_after);
                let (local, rmax, target) = delta.competitive_view();
                let Some(ratio) = self.options().competitive(local, rmax) else {
                    continue;
                };
                if target == delta.home {
                    continue;
                }
                candidates.push((
                    ratio,
                    ReplayEntry {
                        vpage: delta.vpage,
                        target,
                        original_home: delta.home,
                    },
                ));
            }
            // "the pages are sorted in descending order according to the
            // ratio raccmax/lacc ... the n pages with the highest ratios are
            // migrated" — ties break by vpage for determinism.
            candidates.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .expect("ratios are comparable")
                    .then(a.1.vpage.cmp(&b.1.vpage))
            });
            candidates.truncate(self.options.critical_pages);
            scheduled += candidates.len();
            self.replay_lists
                .push(candidates.into_iter().map(|(_, e)| e).collect());
        }
        self.recordings.clear();
        scheduled
    }

    /// `upmlib_replay`: execute the migrations recorded for the next phase
    /// transition of the current iteration. Returns pages moved.
    pub fn replay(&mut self, machine: &mut Machine) -> usize {
        let _hp = hostprof::span_hot("upmlib.replay");
        let Some(list) = self.replay_lists.get(self.replay_cursor) else {
            return 0;
        };
        self.replay_cursor += 1;
        let ns_before = machine.stats().migration_ns;
        let mut moved = 0;
        for entry in list.clone() {
            if machine.node_of_vpage(entry.vpage) == Some(entry.target) {
                continue;
            }
            if self
                .mlds
                .migrate_page(machine, entry.vpage, self.mlds.mld(entry.target))
                .is_ok()
            {
                self.undo_list.push((entry.vpage, entry.original_home));
                moved += 1;
            }
        }
        self.stats.replay_migrations += moved as u64;
        self.stats.recrep_ns += machine.stats().migration_ns - ns_before;
        let phase = self.replay_cursor - 1;
        machine.trace_event(|| obs::EventKind::ReplayBatch { phase, moved });
        machine.trace_mut().inc("replay_batches", 1);
        moved
    }

    /// `upmlib_undo`: reverse every migration replayed during this
    /// iteration, recovering the iteration-start placement, and rewind the
    /// replay cursor for the next iteration. Returns pages moved back.
    pub fn undo(&mut self, machine: &mut Machine) -> usize {
        let ns_before = machine.stats().migration_ns;
        let mut moved = 0;
        for (vpage, home) in std::mem::take(&mut self.undo_list) {
            if machine.node_of_vpage(vpage) == Some(home) {
                continue;
            }
            if self
                .mlds
                .migrate_page(machine, vpage, self.mlds.mld(home))
                .is_ok()
            {
                moved += 1;
            }
        }
        let phase = self.replay_cursor;
        self.replay_cursor = 0;
        self.stats.undo_migrations += moved as u64;
        self.stats.recrep_ns += machine.stats().migration_ns - ns_before;
        machine.trace_event(|| obs::EventKind::Undo { phase, moved });
        machine.trace_mut().inc("undo_batches", 1);
        moved
    }

    /// Pages scheduled per phase transition (diagnostics).
    pub fn replay_list_sizes(&self) -> Vec<usize> {
        self.replay_lists.iter().map(Vec::len).collect()
    }
}

/// Isolate one phase's trace: per-node counter difference of two snapshots
/// of the same page (saturating — the 11-bit counters may have clamped).
fn phase_delta(before: &PageView, after: &PageView) -> PageView {
    PageView {
        vpage: after.vpage,
        home: after.home,
        counts: after
            .counts
            .iter()
            .zip(&before.counts)
            .map(|(&a, &b)| a.saturating_sub(b))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UpmOptions;
    use ccnuma::{AccessKind, MachineConfig, SimArray, PAGE_SIZE};

    fn hammer(machine: &mut Machine, cpu: usize, base: u64, sweeps: usize) {
        for _ in 0..sweeps {
            for line in 0..(PAGE_SIZE / 128) {
                machine.touch(cpu, base + line * 128, AccessKind::Write);
                machine.touch(cpu, base + line * 128, AccessKind::Read);
            }
        }
    }

    /// Build a machine with one hot page homed on node 0 and an engine
    /// watching it.
    fn setup() -> (Machine, SimArray<f64>, UpmEngine) {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        m.touch(0, a.vrange().0, AccessKind::Read); // first-touch on node 0
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        (m, a, upm)
    }

    #[test]
    fn record_compare_replay_undo_cycle() {
        let (mut m, a, mut upm) = setup();
        let base = a.vrange().0;
        let vp = ccnuma::vpage_of(base);

        // Recording iteration: phase X is node-0 dominated, phase Z is
        // node-3 dominated.
        hammer(&mut m, 0, base, 1); // phase X
        upm.record(&m); // transition point: X -> Z
        hammer(&mut m, 6, base, 3); // phase Z (node 3)
        upm.record(&m); // end of Z
        let scheduled = upm.compare_counters();
        assert_eq!(scheduled, 1);
        assert_eq!(upm.replay_list_sizes(), vec![1]);

        // Later iteration: replay before Z, undo at iteration end.
        assert_eq!(m.node_of_vpage(vp), Some(0));
        assert_eq!(upm.replay(&mut m), 1);
        assert_eq!(m.node_of_vpage(vp), Some(3));
        assert_eq!(upm.undo(&mut m), 1);
        assert_eq!(m.node_of_vpage(vp), Some(0), "undo recovers placement");

        // And again next iteration (cursor rewound).
        assert_eq!(upm.replay(&mut m), 1);
        assert_eq!(m.node_of_vpage(vp), Some(3));
        upm.undo(&mut m);
    }

    #[test]
    fn phase_delta_isolates_the_phase() {
        let before = PageView {
            vpage: 1,
            home: 0,
            counts: vec![100u64, 0, 5, 0],
        };
        let after = PageView {
            vpage: 1,
            home: 0,
            counts: vec![110, 0, 250, 0],
        };
        let d = phase_delta(&before, &after);
        assert_eq!(d.counts, vec![10, 0, 245, 0]);
        let (local, rmax, rnode) = d.competitive_view();
        assert_eq!((local, rmax, rnode), (10, 245, 2));
    }

    #[test]
    fn critical_pages_limit_is_enforced() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let pages = 8usize;
        let a = SimArray::new(&mut m, "a", pages * (PAGE_SIZE / 8) as usize, 0.0f64);
        let base = a.vrange().0;
        for p in 0..pages as u64 {
            m.touch(0, base + p * PAGE_SIZE, AccessKind::Read);
        }
        let mut upm = UpmEngine::new(
            &m,
            UpmOptions {
                critical_pages: 3,
                ..Default::default()
            },
        );
        upm.memrefcnt(&a);
        upm.record(&m);
        for p in 0..pages as u64 {
            hammer(&mut m, 6, base + p * PAGE_SIZE, 2);
        }
        upm.record(&m);
        let scheduled = upm.compare_counters();
        assert_eq!(scheduled, 3, "only the n most critical pages are scheduled");
        assert_eq!(upm.replay(&mut m), 3);
        assert_eq!(upm.undo(&mut m), 3);
    }

    #[test]
    fn stable_phase_schedules_nothing() {
        let (mut m, a, mut upm) = setup();
        let base = a.vrange().0;
        hammer(&mut m, 0, base, 1);
        upm.record(&m);
        hammer(&mut m, 0, base, 2); // same node dominates: no phase change
        upm.record(&m);
        assert_eq!(upm.compare_counters(), 0);
        assert_eq!(upm.replay(&mut m), 0);
        assert_eq!(upm.undo(&mut m), 0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn compare_without_records_panics() {
        let (m, _a, mut upm) = setup();
        upm.record(&m);
        upm.compare_counters();
    }

    #[test]
    fn recrep_overhead_is_accounted() {
        let (mut m, a, mut upm) = setup();
        let base = a.vrange().0;
        hammer(&mut m, 0, base, 1);
        upm.record(&m);
        hammer(&mut m, 6, base, 3);
        upm.record(&m);
        upm.compare_counters();
        upm.replay(&mut m);
        upm.undo(&mut m);
        let s = upm.stats();
        assert_eq!(s.replay_migrations, 1);
        assert_eq!(s.undo_migrations, 1);
        let expected = 2.0 * m.config().migration_cost_ns();
        assert!(
            (s.recrep_ns - expected).abs() < 1e-6,
            "recrep_ns {}",
            s.recrep_ns
        );
    }
}
