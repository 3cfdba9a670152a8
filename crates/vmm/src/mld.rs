//! Memory Locality Domains — the IRIX `mmci` user-level placement API.
//!
//! Paper §2.1: *"IRIX enables the user to virtualize the physical memory of
//! the system and use a namespace for placing virtual memory pages to
//! specific nodes in the system. The namespace is composed of entities
//! called Memory Locality Domains (MLDs). A MLD is the abstract
//! representation of the physical memory of a node in the system. The user
//! can associate one MLD with each node and then place or migrate pages
//! between MLDs to implement application-specific memory management
//! schemes."*
//!
//! This is the only OS service UPMlib needs for *moving* pages (it reads
//! counters through [`crate::procfs`]). Placement/migration through an MLD
//! is **best-effort**: if the target node is out of memory, "IRIX ... forwards
//! the page to another node as physically close as possible to the target
//! node" — the machine's allocator implements exactly that, and the return
//! value reports where the page actually landed.

use ccnuma::machine::MemError;
use ccnuma::{Machine, NodeId};

/// One MLD: a handle on the physical memory of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mld {
    node: NodeId,
}

impl Mld {
    /// The node this MLD represents.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

/// The per-process MLD namespace: one MLD per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MldSet {
    mlds: Vec<Mld>,
}

impl MldSet {
    /// Create the full namespace for a machine (one MLD per node, as the
    /// paper's runtime does).
    pub fn for_machine(machine: &Machine) -> Self {
        Self {
            mlds: (0..machine.topology().nodes())
                .map(|node| Mld { node })
                .collect(),
        }
    }

    /// Number of MLDs (= nodes).
    pub fn len(&self) -> usize {
        self.mlds.len()
    }

    /// Whether the namespace is empty (never, for a real machine).
    pub fn is_empty(&self) -> bool {
        self.mlds.is_empty()
    }

    /// MLD handle for a node.
    pub fn mld(&self, node: NodeId) -> Mld {
        self.mlds[node]
    }

    /// Place an *unmapped* virtual page onto an MLD (used by the paper's
    /// SIGSEGV-handler emulation of random placement). Best-effort; returns
    /// the node actually used.
    pub fn place_page(
        &self,
        machine: &mut Machine,
        vpage: u64,
        mld: Mld,
    ) -> Result<NodeId, MemError> {
        machine.map_page(vpage, mld.node)
    }

    /// Migrate a mapped virtual page to an MLD. Best-effort; returns the
    /// node actually used. The full coherent-migration cost (page copy +
    /// TLB shootdown on every CPU) is charged to the simulated clock.
    pub fn migrate_page(
        &self,
        machine: &mut Machine,
        vpage: u64,
        mld: Mld,
    ) -> Result<NodeId, MemError> {
        machine.migrate_page(vpage, mld.node)
    }

    /// Migrate every mapped page of a byte range to an MLD; unmapped pages
    /// are skipped. Returns the number of pages moved.
    pub fn migrate_range(
        &self,
        machine: &mut Machine,
        base: u64,
        len: u64,
        mld: Mld,
    ) -> Result<usize, MemError> {
        let mut moved = 0;
        for vp in ccnuma::vpages(base, len) {
            match machine.migrate_page(vp, mld.node) {
                Ok(_) => moved += 1,
                Err(MemError::Unmapped) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::{AccessKind, MachineConfig, PAGE_SIZE};

    #[test]
    fn namespace_covers_all_nodes() {
        let m = Machine::new(MachineConfig::tiny_test());
        let mlds = MldSet::for_machine(&m);
        assert_eq!(mlds.len(), 4);
        assert_eq!(mlds.mld(3).node(), 3);
    }

    #[test]
    fn place_and_migrate_through_mlds() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let mlds = MldSet::for_machine(&m);
        assert_eq!(mlds.place_page(&mut m, 5, mlds.mld(1)), Ok(1));
        assert_eq!(m.node_of_vpage(5), Some(1));
        assert_eq!(mlds.migrate_page(&mut m, 5, mlds.mld(3)), Ok(3));
        assert_eq!(m.node_of_vpage(5), Some(3));
    }

    #[test]
    fn migrate_range_skips_unmapped() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let mlds = MldSet::for_machine(&m);
        let base = m.reserve_vspace(4 * PAGE_SIZE);
        // Map only pages 0 and 2 of the range by touching them.
        m.touch(0, base, AccessKind::Read);
        m.touch(0, base + 2 * PAGE_SIZE, AccessKind::Read);
        let moved = mlds
            .migrate_range(&mut m, base, 4 * PAGE_SIZE, mlds.mld(2))
            .unwrap();
        assert_eq!(moved, 2);
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(base)), Some(2));
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(base) + 1), None);
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(base) + 2), Some(2));
    }

    #[test]
    fn migrate_range_of_zero_bytes_moves_nothing() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let mlds = MldSet::for_machine(&m);
        let base = m.reserve_vspace(PAGE_SIZE);
        m.touch(0, base, AccessKind::Read);
        assert_eq!(mlds.migrate_range(&mut m, base, 0, mlds.mld(2)), Ok(0));
        assert_eq!(m.node_of_vpage(ccnuma::vpage_of(base)), Some(0));
        assert_eq!(m.stats().page_migrations, 0);
    }
}
