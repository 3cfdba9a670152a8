//! Per-processor simulation state.
//!
//! A [`CpuContext`] owns the private caches of one simulated R10000, its
//! event statistics, and the per-region accounting consumed by the
//! contention model. The memory-access logic itself lives in
//! [`crate::Machine::touch`], which needs simultaneous access to the CPU and
//! to the machine-shared structures (directory, counters, page table).

use crate::cache::{CacheConfig, SetAssocCache};
use crate::contention::CpuRegionAccount;
use crate::stats::CpuStats;
use crate::topology::NodeId;

/// Identifier of a simulated processor.
pub type CpuId = usize;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (bumps the line's coherence version).
    Write,
}

/// One simulated processor: private caches plus accounting.
#[derive(Debug, Clone)]
pub struct CpuContext {
    /// This CPU's id.
    pub id: CpuId,
    /// The NUMA node hosting this CPU.
    pub node: NodeId,
    /// Private L1 data cache.
    pub l1: SetAssocCache,
    /// Private unified L2 cache.
    pub l2: SetAssocCache,
    /// Cumulative event statistics (whole run).
    pub stats: CpuStats,
    /// Accounting for the parallel region currently executing.
    pub account: CpuRegionAccount,
}

impl CpuContext {
    /// Build a CPU with the given cache geometries on `node`.
    pub fn new(id: CpuId, node: NodeId, l1: CacheConfig, l2: CacheConfig, nodes: usize) -> Self {
        Self {
            id,
            node,
            l1: SetAssocCache::new(l1),
            l2: SetAssocCache::new(l2),
            stats: CpuStats::default(),
            account: CpuRegionAccount::new(nodes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let c = CpuContext::new(3, 1, CacheConfig::origin_l1(), CacheConfig::origin_l2(), 8);
        assert_eq!(c.id, 3);
        assert_eq!(c.node, 1);
        assert_eq!(c.stats, CpuStats::default());
        assert_eq!(c.account.stall_by_node.len(), 8);
    }
}
