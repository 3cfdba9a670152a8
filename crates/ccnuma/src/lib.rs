//! A deterministic, software-simulated ccNUMA multiprocessor modeled on the
//! SGI Origin2000, the machine used in *"Is Data Distribution Necessary in
//! OpenMP?"* (SC 2000).
//!
//! The simulator is a *cost model*, not a cycle-accurate core model: simulated
//! CPUs execute real Rust computation over [`array::SimArray`]s, and every
//! element access is routed through [`machine::Machine::touch`], which walks a
//! simulated cache hierarchy, a write-invalidate coherence directory, and the
//! NUMA latency table of the Origin2000 (Table 1 of the paper). Secondary
//! cache misses increment per-frame, per-node 11-bit hardware reference
//! counters — the same events counted by the Origin2000 Hub and consumed by
//! both the IRIX kernel migration engine and the paper's user-level UPMlib
//! engine.
//!
//! Everything is deterministic: simulated CPUs are executed sequentially by
//! the `omp` runtime, simulated time is accumulated per CPU, and a parallel
//! region's wall time is the maximum over its CPUs plus a contention
//! correction computed from per-node memory-module load (see
//! [`contention`]).
//!
//! # Example
//!
//! ```
//! use ccnuma::{Machine, MachineConfig, AccessKind};
//!
//! let mut machine = Machine::new(MachineConfig::origin2000_16p());
//! // Map one page on node 3 and touch it from CPU 0 (node 0): remote access.
//! let vaddr = 0x10000;
//! machine.map_page_for_test(vaddr, 3);
//! let ns = machine.touch(0, vaddr, AccessKind::Read);
//! assert!(ns > 300.0); // memory, not cache
//! ```

pub mod array;
pub mod cache;
pub mod clock;
pub mod coherence;
pub mod contention;
pub mod counters;
pub mod cpu;
pub mod fastpath;
pub mod latency;
pub mod machine;
pub mod memory;
pub mod stats;
pub mod topology;

pub use array::{ArrayLayout, SimArray};
pub use cache::{CacheConfig, SetAssocCache};
pub use clock::GlobalClock;
pub use coherence::Directory;
pub use contention::{ContentionConfig, ContentionModel};
pub use counters::{competitive_view, RefCounters, COUNTER_MAX};
pub use cpu::{AccessKind, CpuContext, CpuId};
pub use fastpath::{
    FastpathEngine, FastpathOutcome, FastpathStats, MemoLibrary, PhaseProof, ProofTable,
};
pub use latency::LatencyModel;
pub use machine::{Machine, MachineConfig};
pub use memory::{FrameId, PhysicalMemory};
pub use stats::{CpuStats, MachineStats};
pub use topology::{NodeId, Topology};

/// Base-2 logarithm of the page size. The Origin2000 used 16 KB pages.
pub const PAGE_SHIFT: u32 = 14;
/// Page size in bytes (16 KB, as on the Origin2000).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// Base-2 logarithm of the cache line size. The R10000 L2 used 128 B lines.
pub const LINE_SHIFT: u32 = 7;
/// Cache line size in bytes.
pub const LINE_SIZE: u64 = 1 << LINE_SHIFT;

/// Virtual page number of a virtual address.
#[inline(always)]
pub fn vpage_of(vaddr: u64) -> u64 {
    vaddr >> PAGE_SHIFT
}

/// The virtual pages overlapped by the `len` bytes at `base`; empty when
/// `len == 0`.
pub fn vpages(base: u64, len: u64) -> std::ops::Range<u64> {
    let first = vpage_of(base);
    match len {
        0 => first..first,
        _ => first..vpage_of(base + len - 1) + 1,
    }
}

/// Cache line number of a virtual address.
#[inline(always)]
pub fn line_of(vaddr: u64) -> u64 {
    vaddr >> LINE_SHIFT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_and_line_arithmetic() {
        assert_eq!(PAGE_SIZE, 16 * 1024);
        assert_eq!(LINE_SIZE, 128);
        assert_eq!(vpage_of(0), 0);
        assert_eq!(vpage_of(PAGE_SIZE - 1), 0);
        assert_eq!(vpage_of(PAGE_SIZE), 1);
        assert_eq!(line_of(127), 0);
        assert_eq!(line_of(128), 1);
        // 128 lines per page
        assert_eq!(PAGE_SIZE / LINE_SIZE, 128);
    }

    #[test]
    fn byte_ranges_cover_the_pages_they_overlap() {
        assert_eq!(vpages(PAGE_SIZE, 1), 1..2);
        assert_eq!(vpages(PAGE_SIZE, PAGE_SIZE), 1..2);
        assert_eq!(vpages(PAGE_SIZE - 1, 2), 0..2);
        assert_eq!(vpages(100, 3 * PAGE_SIZE), 0..4);
        assert!(vpages(PAGE_SIZE, 0).is_empty());
    }
}
