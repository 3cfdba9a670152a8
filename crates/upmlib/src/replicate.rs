//! Read-only page replication — the extension the paper sketches in §1.2:
//! *"Read-only pages can be replicated in multiple nodes. Page migration and
//! replication are the direct analogue to multiprocessor cache coherence
//! with the virtual memory page serving as the coherence unit."*
//!
//! The migration mechanisms leave one class of pages unserved: pages that
//! many nodes *read* heavily but that have no dominant accessor — moving
//! them just moves the hot spot. If such a page is also read-only (its
//! coherence versions did not change over an observation window), a copy on
//! each consuming node removes both the remote latency and the contention.
//! Writes collapse the copies, so correctness never depends on the
//! detection being right — a wrongly replicated page just pays one
//! collapse.
//!
//! Detection is two-phase, like the distribution mechanism: invocation `k`
//! fingerprints each hot page (sum of its lines' coherence versions);
//! invocation `k+1` replicates the pages whose fingerprints are unchanged
//! and whose counters show substantial multi-node read traffic.

use crate::engine::UpmEngine;
use ccnuma::Machine;
use std::collections::HashMap;

/// State of the replication mechanism (owned by [`UpmEngine`]).
#[derive(Debug, Clone, Default)]
pub struct ReplicationState {
    /// vpage -> version fingerprint at the previous invocation.
    fingerprints: HashMap<u64, u64>,
    /// Pages already replicated (avoid repeated scans).
    replicated: std::collections::HashSet<u64>,
}

impl UpmEngine {
    /// One invocation of the replication mechanism: fingerprint hot pages,
    /// and replicate those that stayed read-only since the last invocation
    /// onto every node that reads them at least `options.min_accesses`
    /// times per window. Returns the number of replicas created.
    ///
    /// Call it where `migrate_memory` is called (after each iteration).
    pub fn replicate_readonly(&mut self, machine: &mut Machine) -> usize {
        let views = self.hot_page_views(machine);
        let mut created = 0;
        for view in &views {
            let vpage = view.vpage;
            let fingerprint = machine.page_version_sum(vpage);
            let was = self.replication.fingerprints.insert(vpage, fingerprint);
            if was != Some(fingerprint) {
                // First sighting, or written during the window: not (yet)
                // read-only.
                continue;
            }
            if self.replication.replicated.contains(&vpage) {
                continue;
            }
            // Read-only. Count how many nodes consume it substantially.
            let consumers: Vec<usize> = view
                .counts
                .iter()
                .enumerate()
                .filter(|&(n, &c)| n != view.home && c >= self.options.min_accesses as u64)
                .map(|(n, _)| n)
                .collect();
            if consumers.len() < 2 {
                // A single remote consumer is migration's job, not
                // replication's.
                continue;
            }
            let mut any = false;
            for node in consumers {
                if machine.replicate_page(vpage, node).is_ok() {
                    any = true;
                    created += 1;
                }
            }
            if any {
                self.replication.replicated.insert(vpage);
            }
        }
        self.stats.replications += created as u64;
        created
    }
}

#[cfg(test)]
mod tests {
    use crate::{UpmEngine, UpmOptions};
    use ccnuma::{AccessKind, Machine, MachineConfig, SimArray, PAGE_SIZE};

    /// All CPUs read the page; nobody writes after init.
    fn read_from_everywhere(machine: &mut Machine, base: u64) {
        for cpu in 0..8 {
            for line in 0..(PAGE_SIZE / 128) {
                machine.touch(cpu, base + line * 128, AccessKind::Read);
            }
        }
    }

    #[test]
    fn replicates_read_only_multi_consumer_pages() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let base = a.vrange().0;
        m.touch(0, base, AccessKind::Read); // home node 0
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);

        // Window 1: fingerprint recorded, nothing replicated yet.
        read_from_everywhere(&mut m, base);
        assert_eq!(upm.replicate_readonly(&mut m), 0);
        // Window 2: unchanged fingerprint + multi-node readers => replicas
        // on the three remote consumer nodes.
        read_from_everywhere(&mut m, base);
        let created = upm.replicate_readonly(&mut m);
        assert_eq!(created, 3, "one replica per remote consumer node");
        assert_eq!(m.replica_count(ccnuma::vpage_of(base)), 3);
        // Third call: already replicated, no churn.
        read_from_everywhere(&mut m, base);
        assert_eq!(upm.replicate_readonly(&mut m), 0);
    }

    #[test]
    fn written_pages_are_never_replicated() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let base = a.vrange().0;
        m.touch(0, base, AccessKind::Read);
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        for _ in 0..3 {
            read_from_everywhere(&mut m, base);
            // One write per window keeps the fingerprint moving.
            m.touch(2, base, AccessKind::Write);
            assert_eq!(upm.replicate_readonly(&mut m), 0);
        }
        assert_eq!(m.replica_count(ccnuma::vpage_of(base)), 0);
    }

    #[test]
    fn single_consumer_pages_are_left_to_migration() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", (PAGE_SIZE / 8) as usize, 0.0f64);
        let base = a.vrange().0;
        m.touch(0, base, AccessKind::Read);
        let mut upm = UpmEngine::new(&m, UpmOptions::default());
        upm.memrefcnt(&a);
        let read_one = |m: &mut Machine| {
            for line in 0..(PAGE_SIZE / 128) {
                m.touch(6, base + line * 128, AccessKind::Read);
            }
        };
        read_one(&mut m);
        upm.replicate_readonly(&mut m);
        read_one(&mut m);
        assert_eq!(upm.replicate_readonly(&mut m), 0);
    }
}
