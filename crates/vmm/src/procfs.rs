//! The `/proc`-style user-level view of the hardware reference counters.
//!
//! Paper §3.1: *"The hardware counters attached to the physical memory
//! frames of the Origin2000 can be accessed via the /proc interface."*
//!
//! This module is the entire user/kernel information boundary of UPMlib:
//! user code may *read* per-page counters and homes through it, and nothing
//! else. Mutation goes through MLD migration requests, which the OS is free
//! to redirect.

use ccnuma::{Machine, NodeId};

/// Snapshot of one page's counters as user code sees them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageView {
    /// Virtual page number.
    pub vpage: u64,
    /// Node currently hosting the page.
    pub home: NodeId,
    /// Accesses from each node since the page last changed frames
    /// (kernel-extended values; the 11-bit hardware counters spill into
    /// software counters on overflow, as in IRIX).
    pub counts: Vec<u64>,
}

impl PageView {
    /// `(local, max_remote, argmax node)` — the competitive-criterion view
    /// ([`ccnuma::competitive_view`]).
    pub fn competitive_view(&self) -> (u64, u64, NodeId) {
        ccnuma::competitive_view(self.counts.iter().copied(), self.home)
    }

    /// Total accesses recorded for the page.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Read-only accessor over the machine's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcCounters;

impl ProcCounters {
    /// Read the counters of one virtual page; `None` if unmapped.
    pub fn read(&self, machine: &Machine, vpage: u64) -> Option<PageView> {
        let frame = machine.frame_of(vpage)?;
        let home = machine.memory().node_of_frame(frame);
        Some(PageView {
            vpage,
            home,
            counts: machine.counters().snapshot(frame),
        })
    }

    /// Read every mapped page of a byte range.
    pub fn read_range(&self, machine: &Machine, base: u64, len: u64) -> Vec<PageView> {
        ccnuma::vpages(base, len)
            .filter_map(|vp| self.read(machine, vp))
            .collect()
    }

    /// Zero the counters of one mapped page (UPMlib does this between
    /// observation windows; the hardware exposes counter reset to the OS).
    pub fn reset(&self, machine: &Machine, vpage: u64) -> bool {
        match machine.frame_of(vpage) {
            Some(frame) => {
                machine.counters().reset_frame(frame);
                true
            }
            None => false,
        }
    }

    /// Zero the counters of every mapped page in a byte range.
    pub fn reset_range(&self, machine: &Machine, base: u64, len: u64) {
        for vp in ccnuma::vpages(base, len) {
            self.reset(machine, vp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::{AccessKind, MachineConfig, PAGE_SIZE};

    #[test]
    fn reads_counts_and_home() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let base = m.reserve_vspace(PAGE_SIZE);
        // cpu0 (node0) faults it in, then cpu6 (node3) hammers it.
        m.touch(0, base, AccessKind::Read);
        for i in 0..5 {
            // Different lines so they all reach memory.
            m.touch(6, base + i * 128, AccessKind::Read);
        }
        let view = ProcCounters.read(&m, ccnuma::vpage_of(base)).unwrap();
        assert_eq!(view.home, 0);
        assert_eq!(view.counts[0], 1);
        // cpu6 hit line 0 from cache? No: cpu6 has its own cache, first
        // access of each line goes to memory.
        assert_eq!(view.counts[3], 5);
        let (local, rmax, rnode) = view.competitive_view();
        assert_eq!((local, rmax, rnode), (1, 5, 3));
        assert_eq!(view.total(), 6);
    }

    #[test]
    fn unmapped_reads_none() {
        let m = Machine::new(MachineConfig::tiny_test());
        assert!(ProcCounters.read(&m, 17).is_none());
    }

    #[test]
    fn reset_range_zeroes() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let base = m.reserve_vspace(2 * PAGE_SIZE);
        m.touch(0, base, AccessKind::Read);
        m.touch(0, base + PAGE_SIZE, AccessKind::Read);
        ProcCounters.reset_range(&m, base, 2 * PAGE_SIZE);
        for view in ProcCounters.read_range(&m, base, 2 * PAGE_SIZE) {
            assert_eq!(view.total(), 0);
        }
    }

    #[test]
    fn read_range_spans_partial_pages() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let base = m.reserve_vspace(2 * PAGE_SIZE);
        m.touch(0, base, AccessKind::Read);
        m.touch(0, base + PAGE_SIZE, AccessKind::Read);
        // A range that starts mid-page and ends mid-page still sees both.
        let views = ProcCounters.read_range(&m, base + 8, PAGE_SIZE);
        assert_eq!(views.len(), 2);
    }
}
