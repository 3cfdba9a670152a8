//! Ping-pong detection and page freezing.
//!
//! Paper §3.2: *"there are some cases in which page-level false sharing
//! might incur some excessive page migrations. This is circumvented by
//! freezing the pages that bounce between two nodes in consecutive
//! iterations."*
//!
//! A page that migrates `A -> B` in one engine invocation and is proposed
//! `B -> A` in the next is bouncing: its reference pattern is not settling
//! because two nodes genuinely share it at page grain. Freezing takes it out
//! of the candidate set permanently.

use crate::tuning::UpmOptions;
use ccnuma::NodeId;
use std::collections::{HashMap, HashSet};

/// What one `upmlib_migrate_memory` pass decides for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not remote-dominated enough to move.
    Stay,
    /// Eligible for this node, but the ping-pong freezer refused the move.
    Vetoed(NodeId),
    /// Move to this node.
    Move(NodeId),
}

/// Record of each page's last migration, plus the frozen set.
#[derive(Debug, Clone, Default)]
pub struct FreezeTracker {
    /// vpage -> (from, to, invocation index of the move).
    last_move: HashMap<u64, (NodeId, NodeId, u64)>,
    frozen: HashSet<u64>,
}

impl FreezeTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a page is frozen.
    pub fn is_frozen(&self, vpage: u64) -> bool {
        self.frozen.contains(&vpage)
    }

    /// Number of frozen pages.
    pub fn frozen_count(&self) -> usize {
        self.frozen.len()
    }

    /// The frozen pages, sorted — the ground truth the static analyzer's
    /// ping-pong predictions are differentially tested against.
    pub fn frozen_pages(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.frozen.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Ask whether moving `vpage` from `from` to `to` during `invocation`
    /// is allowed; if the move reverses the previous invocation's move, the
    /// page is frozen instead and `false` is returned. An allowed move is
    /// recorded.
    pub fn approve(&mut self, vpage: u64, from: NodeId, to: NodeId, invocation: u64) -> bool {
        if self.frozen.contains(&vpage) {
            return false;
        }
        if let Some(&(prev_from, prev_to, prev_inv)) = self.last_move.get(&vpage) {
            let reverses = prev_from == to && prev_to == from;
            let consecutive = invocation == prev_inv + 1;
            if reverses && consecutive {
                self.frozen.insert(vpage);
                self.last_move.remove(&vpage);
                return false;
            }
        }
        self.last_move.insert(vpage, (from, to, invocation));
        true
    }

    /// The per-page decision of `upmlib_migrate_memory`, shared by the engine
    /// and the static analyzer's symbolic replay: [`UpmOptions::competitive`]
    /// on the page's `ccnuma::competitive_view`, a target other than its
    /// home, then (with `freeze_ping_pong`) [`approve`](Self::approve).
    pub fn verdict(
        &mut self,
        options: &UpmOptions,
        vpage: u64,
        home: NodeId,
        (local, rmax, target): (u64, u64, NodeId),
        invocation: u64,
    ) -> Verdict {
        if options.competitive(local, rmax).is_none() || target == home {
            Verdict::Stay
        } else if options.freeze_ping_pong && !self.approve(vpage, home, target, invocation) {
            Verdict::Vetoed(target)
        } else {
            Verdict::Move(target)
        }
    }

    /// Forget all freeze state: every frozen page thaws and the move
    /// history clears. Called when the engine re-arms after a scheduler
    /// rebind — the threads moved, so a page that ping-ponged under the
    /// old binding has a legitimately different dominant node now, and the
    /// old oscillation history is evidence about a placement that no
    /// longer exists.
    pub fn thaw(&mut self) {
        self.frozen.clear();
        self.last_move.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_move_is_approved() {
        let mut f = FreezeTracker::new();
        assert!(f.approve(1, 0, 3, 1));
        assert!(!f.is_frozen(1));
    }

    #[test]
    fn immediate_bounce_freezes() {
        let mut f = FreezeTracker::new();
        assert!(f.approve(1, 0, 3, 1));
        assert!(!f.approve(1, 3, 0, 2), "reverse move must be refused");
        assert!(f.is_frozen(1));
        assert_eq!(f.frozen_count(), 1);
        // Frozen forever.
        assert!(!f.approve(1, 0, 3, 5));
    }

    #[test]
    fn non_consecutive_reverse_is_allowed() {
        let mut f = FreezeTracker::new();
        assert!(f.approve(1, 0, 3, 1));
        // The reference pattern changed much later: not false sharing.
        assert!(f.approve(1, 3, 0, 7));
        assert!(!f.is_frozen(1));
    }

    #[test]
    fn forward_chain_is_allowed() {
        let mut f = FreezeTracker::new();
        assert!(f.approve(1, 0, 2, 1));
        assert!(f.approve(1, 2, 3, 2)); // onward, not a bounce
        assert!(!f.is_frozen(1));
    }

    #[test]
    fn pages_are_independent() {
        let mut f = FreezeTracker::new();
        assert!(f.approve(1, 0, 3, 1));
        assert!(f.approve(2, 3, 0, 2)); // different page, fine
        assert!(!f.is_frozen(2));
    }
}
