//! The assembled machine: topology, caches, coherence, memory, counters,
//! page table and clock, with the `touch` fast path that everything above
//! (the `omp` runtime, the NAS kernels) drives.
//!
//! # Layering
//!
//! `ccnuma` provides *mechanism*: frames, a virtual→physical map, a
//! best-effort page allocator/migrator, and per-frame reference counters.
//! *Policy* — which node a freshly faulted page should live on, when the
//! kernel migrates pages, how user-level engines react — lives in the `vmm`
//! and `upmlib` crates. The one policy hook the machine itself needs is the
//! [`Placer`] consulted on a page fault, because faults happen in the middle
//! of the access fast path.

use crate::cache::Probe;
use crate::coherence::Directory;
use crate::contention::{ContentionModel, RegionTiming};
use crate::counters::RefCounters;
use crate::cpu::{AccessKind, CpuContext, CpuId};
use crate::fastpath::{ClassStream, CLASS_L1, CLASS_L2, CLASS_MEM};
use crate::latency::LatencyModel;
use crate::memory::{FrameId, PhysicalMemory};
use crate::stats::{CpuStats, MachineStats};
use crate::topology::{NodeId, Topology};
use crate::{CacheConfig, ContentionConfig, GlobalClock, LINE_SHIFT, PAGE_SHIFT};
use obs::{EventKind, TraceSink, Tracer};

/// Page-placement policy consulted on a page fault.
///
/// Implementations live in the `vmm` crate (first-touch, round-robin,
/// random, worst-case); the machine ships with first-touch as the built-in
/// default, which is also IRIX's default.
pub trait Placer: Send {
    /// Preferred home node for `vpage`, faulted on by `cpu` (whose home node
    /// is `cpu_node`). The machine falls back to the nearest node with free
    /// memory if the preferred node is full.
    fn place(&mut self, vpage: u64, cpu: CpuId, cpu_node: NodeId) -> NodeId;

    /// Human-readable policy name (experiment labels).
    fn name(&self) -> &'static str;

    /// A copy in this policy's current state, for a cloned machine: it
    /// places the clone's later faults as this one places its own.
    fn boxed_clone(&self) -> Box<dyn Placer>;
}

/// The built-in default policy: first-touch, as in IRIX.
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstTouchPlacer;

impl Placer for FirstTouchPlacer {
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

/// Errors from explicit page operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The virtual page is not mapped.
    Unmapped,
    /// No frame is free anywhere in the machine.
    OutOfMemory,
    /// The page is mapped already (double map).
    AlreadyMapped,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Unmapped => write!(f, "virtual page is not mapped"),
            MemError::OutOfMemory => write!(f, "no free frame on any node"),
            MemError::AlreadyMapped => write!(f, "virtual page is already mapped"),
        }
    }
}

impl std::error::Error for MemError {}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Interconnect topology.
    pub topology: Topology,
    /// NUMA latency table.
    pub latency: LatencyModel,
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Contention model tunables.
    pub contention: ContentionConfig,
    /// Physical frames per node.
    pub frames_per_node: usize,
    /// Size of the simulated virtual address space, in pages.
    pub max_vpages: usize,
    /// Simulated cost of one floating-point operation, ns (R10000 @ 250 MHz,
    /// 2 flops/cycle => 2 ns/flop).
    pub flop_ns: f64,
    /// OS cost of servicing a minor page fault, ns.
    pub fault_ns: f64,
    /// Fork overhead charged when a parallel region opens, ns.
    pub fork_ns: f64,
    /// Barrier overhead charged when a parallel region closes, ns.
    pub barrier_ns: f64,
    /// Fixed per-migration kernel cost (policy run + bookkeeping), ns.
    pub migration_base_ns: f64,
    /// Cost of copying one 16 KB page across the interconnect, ns.
    pub migration_copy_ns: f64,
    /// Per-CPU TLB-shootdown interrupt cost, ns (the paper singles out "the
    /// high overhead of page migration due to the maintenance of TLB
    /// coherence").
    pub migration_percpu_shootdown_ns: f64,
}

impl MachineConfig {
    /// The paper's machine: 16-processor Origin2000 (8 nodes x 2 CPUs),
    /// Table-1 latencies, 4 MB L2, 16 KB pages.
    pub fn origin2000_16p() -> Self {
        Self {
            topology: Topology::origin2000_16p(),
            latency: LatencyModel::origin2000(),
            l1: CacheConfig::origin_l1(),
            l2: CacheConfig::origin_l2(),
            contention: ContentionConfig::default(),
            frames_per_node: 4096, // 64 MB per node of simulated memory
            max_vpages: 16384,     // 256 MB of simulated virtual address space
            flop_ns: 2.0,
            fault_ns: 2_000.0,
            fork_ns: 8_000.0,
            barrier_ns: 4_000.0,
            migration_base_ns: 10_000.0,
            migration_copy_ns: 30_000.0,
            migration_percpu_shootdown_ns: 1_500.0,
        }
    }

    /// The experiment machine: the Origin2000's topology, latencies and
    /// page size, but with caches scaled down by the same factor as the
    /// benchmark problem sizes (the NAS Class A working sets are ~30x the
    /// simulator's, so a faithful *miss-rate* requires L1/L2 scaled by the
    /// same ratio — a 4 MB L2 would swallow a scaled working set whole and
    /// hide every placement effect the paper measures). See DESIGN.md.
    pub fn origin2000_16p_scaled() -> Self {
        Self {
            l1: CacheConfig {
                capacity: 4 * 1024,
                ways: 2,
            },
            l2: CacheConfig {
                capacity: 32 * 1024,
                ways: 2,
            },
            ..Self::origin2000_16p()
        }
    }

    /// A scaled-cache Origin2000 with an arbitrary node count (2 CPUs per
    /// node) — the "truly large-scale Origin2000 systems" experiment the
    /// paper could not run (§2.2: "access to a system of that scale was
    /// impossible for our experiments"). The hypercube grows with the node
    /// count, so maximum hop distances (and with them remote latencies)
    /// rise beyond Table 1's three hops.
    pub fn origin2000_scaled_nodes(nodes: usize) -> Self {
        Self {
            topology: Topology::fat_hypercube(nodes, 2),
            ..Self::origin2000_16p_scaled()
        }
    }

    /// A small machine for unit tests: 4 nodes x 2 CPUs, tiny caches so
    /// cache effects are easy to trigger.
    pub fn tiny_test() -> Self {
        Self {
            topology: Topology::fat_hypercube(4, 2),
            latency: LatencyModel::origin2000(),
            l1: CacheConfig {
                capacity: 1024,
                ways: 2,
            },
            l2: CacheConfig {
                capacity: 8 * 1024,
                ways: 2,
            },
            contention: ContentionConfig::default(),
            frames_per_node: 64,
            max_vpages: 256,
            flop_ns: 2.0,
            fault_ns: 2_000.0,
            fork_ns: 8_000.0,
            barrier_ns: 4_000.0,
            migration_base_ns: 10_000.0,
            migration_copy_ns: 30_000.0,
            migration_percpu_shootdown_ns: 1_500.0,
        }
    }

    /// Total cost of migrating one page on this machine.
    pub fn migration_cost_ns(&self) -> f64 {
        self.migration_base_ns
            + self.migration_copy_ns
            + self.migration_percpu_shootdown_ns * self.topology.cpus() as f64
    }
}

/// Region-recording log filled by the access path while the phase fast path
/// records a region (see [`crate::fastpath`]).
#[derive(Clone, Default)]
pub(crate) struct FpRecording {
    /// `(cpu, frame)` of every access that reached memory, 8 bytes an
    /// entry (a BT medium region logs millions);
    /// [`Machine::fp_begin_recording`] checks that frame numbers fit.
    pub(crate) mem_log: Vec<(u32, u32)>,
    /// `(cpu, level 0|1, set)` of every cache set probed, in first-probe
    /// order, deduplicated per recording.
    pub(crate) sets: Vec<(u32, u8, u32)>,
    /// Pre-image of each logged set: `assoc` raw `(tag, version, stamp)`
    /// entries per `sets` element, concatenated. Logged before the first
    /// probe mutates the set, and caches are CPU-private, so this is exactly
    /// the set's region-entry state.
    pub(crate) ways: Vec<(u64, u32, u64)>,
    /// What every access resolved to (L1 hit, L2 hit, memory), in walk
    /// order, per CPU: the class stream a memo is re-timed from when its
    /// pages move.
    pub(crate) classes: Vec<ClassStream>,
    /// `(vpage, cpu)` of every page fault, in the order they were taken.
    pub(crate) faults: Vec<(u64, u32)>,
    /// Best-effort redirects the logged faults' allocations made.
    pub(crate) fault_redirects: u64,
}

/// The simulated ccNUMA machine.
///
/// Hot-state fields are `pub(crate)` so the phase fast path
/// ([`crate::fastpath`]) can snapshot and reconstruct them; the public API
/// surface is unchanged.
pub struct Machine {
    pub(crate) config: MachineConfig,
    pub(crate) directory: Directory,
    pub(crate) counters: RefCounters,
    pub(crate) memory: PhysicalMemory,
    pub(crate) page_table: Vec<Option<FrameId>>,
    /// Read-only replicas: vpage -> extra frames on other nodes.
    pub(crate) replicas: std::collections::HashMap<u64, Vec<FrameId>>,
    placer: Box<dyn Placer>,
    pub(crate) cpus: Vec<CpuContext>,
    pub(crate) clock: GlobalClock,
    pub(crate) stats: MachineStats,
    contention: ContentionModel,
    /// Memory latency of every `(cpu_node, home)` pair, at
    /// `cpu_node * nodes + home`: `latency.memory_ns(topology.hops(..))`
    /// tabulated once (`config` never changes after construction), so the
    /// memory path indexes instead of dividing and extrapolating.
    pub(crate) mem_ns: Vec<f64>,
    /// Bump allocator for virtual address space handed to `SimArray`s.
    next_vaddr: u64,
    /// One past the highest virtual page reserved or ever mapped. A line
    /// is written only on a page that was mapped, so every directory
    /// version above this page's first line is 0 (what a clone copies).
    vpage_top: u64,
    in_region: bool,
    /// When recording a region, the fast path installs a log here; the
    /// access path appends `(cpu, frame)` per memory access (the per-CPU
    /// attribution that the aggregate reference counters cannot provide),
    /// the class every access resolved to, and snapshots each cache set's
    /// pre-image on the first probe that reaches it — the copy-on-write
    /// entry state the memo keys are built from, so recording costs are
    /// proportional to what the region touches, not to the proof footprint.
    pub(crate) fp_rec: Option<FpRecording>,
    /// First-probe dedup marks for the pre-image log: one word per
    /// `(cpu, level, set)`, holding the recording epoch that last logged it.
    /// Allocated lazily on the first recording.
    fp_marks: Vec<u32>,
    fp_epoch: u32,
    /// Cached `config.l1.sets()` / `l1+l2 sets` (the per-CPU `fp_marks`
    /// stride) so the per-access log check stays division-free.
    fp_l1_sets: usize,
    fp_set_span: usize,
    /// Observability sink: `TraceSink::Null` unless a trace was requested.
    trace: TraceSink,
}

impl Machine {
    /// Build a machine with the built-in first-touch placer.
    pub fn new(config: MachineConfig) -> Self {
        let nodes = config.topology.nodes();
        let cpus = (0..config.topology.cpus())
            .map(|id| {
                CpuContext::new(
                    id,
                    config.topology.node_of_cpu(id),
                    config.l1,
                    config.l2,
                    nodes,
                )
            })
            .collect();
        let lines = config.max_vpages << (PAGE_SHIFT - LINE_SHIFT);
        let mem_ns = (0..nodes * nodes)
            .map(|i| {
                let hops = config.topology.hops(i / nodes, i % nodes);
                config.latency.memory_ns(hops)
            })
            .collect();
        Self {
            directory: Directory::new(lines),
            counters: RefCounters::new(nodes * config.frames_per_node, nodes),
            memory: PhysicalMemory::new(nodes, config.frames_per_node),
            page_table: vec![None; config.max_vpages],
            replicas: std::collections::HashMap::new(),
            placer: Box::new(FirstTouchPlacer),
            cpus,
            clock: GlobalClock::new(),
            stats: MachineStats::default(),
            contention: ContentionModel::new(config.contention),
            mem_ns,
            next_vaddr: 0,
            vpage_top: 0,
            in_region: false,
            fp_rec: None,
            fp_marks: Vec::new(),
            fp_epoch: 0,
            fp_l1_sets: config.l1.sets(),
            fp_set_span: config.l1.sets() + config.l2.sets(),
            trace: TraceSink::Null,
            config,
        }
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Interconnect topology.
    pub fn topology(&self) -> &Topology {
        &self.config.topology
    }

    /// Replace the page-placement policy (normally done once, before any
    /// page has faulted). Returns the previous placer.
    pub fn set_placer(&mut self, placer: Box<dyn Placer>) -> Box<dyn Placer> {
        std::mem::replace(&mut self.placer, placer)
    }

    /// Name of the active placement policy.
    pub fn placer_name(&self) -> &'static str {
        self.placer.name()
    }

    /// The global clock.
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// Machine-wide statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Install a trace sink (observability). Returns the previous sink so a
    /// caller can restore it.
    pub fn set_trace(&mut self, sink: TraceSink) -> TraceSink {
        std::mem::replace(&mut self.trace, sink)
    }

    /// The active trace sink — other layers (vmm, upmlib, omp, nas) emit
    /// their events through the machine so everything shares one timeline.
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Detach the collected trace, disabling tracing.
    pub fn take_trace(&mut self) -> Option<Box<Tracer>> {
        self.trace.take()
    }

    /// Emit an event stamped with the current simulated time. No-op (one
    /// branch) when tracing is off.
    #[inline]
    pub fn trace_event(&mut self, kind: impl FnOnce() -> EventKind) {
        self.trace.emit(self.clock.now_ns(), kind);
    }

    /// Statistics of one CPU.
    pub fn cpu_stats(&self, cpu: CpuId) -> &CpuStats {
        &self.cpus[cpu].stats
    }

    /// Aggregated statistics over all CPUs.
    pub fn aggregate_cpu_stats(&self) -> CpuStats {
        let mut total = CpuStats::default();
        for c in &self.cpus {
            total.merge(&c.stats);
        }
        total
    }

    /// LRU clocks of a CPU's `(L1, L2)`: each advances by one per probe and
    /// per fill, so accesses between two equal readings reached neither
    /// cache (diagnostics/tests).
    pub fn cache_ticks(&self, cpu: CpuId) -> (u64, u64) {
        let ctx = &self.cpus[cpu];
        (ctx.l1.tick(), ctx.l2.tick())
    }

    /// Number of simulated CPUs.
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Per-frame reference counters (the "hardware" view; user-level code
    /// should go through `vmm`'s `/proc` interface).
    pub fn counters(&self) -> &RefCounters {
        &self.counters
    }

    /// Physical memory pools.
    pub fn memory(&self) -> &PhysicalMemory {
        &self.memory
    }

    // ----------------------------------------------------------------
    // Virtual address space and page table
    // ----------------------------------------------------------------

    /// Reserve `bytes` of virtual address space, page-aligned. Pages are not
    /// mapped until touched (demand paging).
    pub fn reserve_vspace(&mut self, bytes: u64) -> u64 {
        let base = self.next_vaddr;
        let pages = bytes.div_ceil(crate::PAGE_SIZE);
        self.next_vaddr = base + pages * crate::PAGE_SIZE;
        assert!(
            crate::vpage_of(self.next_vaddr) as usize <= self.config.max_vpages,
            "simulated virtual address space exhausted ({} pages)",
            self.config.max_vpages
        );
        self.vpage_top = self.vpage_top.max(crate::vpage_of(self.next_vaddr));
        base
    }

    /// Current frame of a virtual page, if mapped.
    #[inline]
    pub fn frame_of(&self, vpage: u64) -> Option<FrameId> {
        self.page_table[vpage as usize]
    }

    /// Home node of a virtual page, if mapped.
    #[inline]
    pub fn node_of_vpage(&self, vpage: u64) -> Option<NodeId> {
        self.frame_of(vpage).map(|f| self.memory.node_of_frame(f))
    }

    /// Explicitly map `vpage` on `preferred` (or the closest node with free
    /// memory). This is the mechanism under both page faults and the MLD
    /// placement API. Returns the node actually used.
    pub fn map_page(&mut self, vpage: u64, preferred: NodeId) -> Result<NodeId, MemError> {
        if self.page_table[vpage as usize].is_some() {
            return Err(MemError::AlreadyMapped);
        }
        let frame = self
            .alloc_best_effort(preferred)
            .ok_or(MemError::OutOfMemory)?;
        self.counters.reset_frame(frame);
        self.page_table[vpage as usize] = Some(frame);
        self.vpage_top = self.vpage_top.max(vpage + 1);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        let node = self.memory.node_of_frame(frame);
        self.trace_event(|| EventKind::PageMapped { vpage, node });
        Ok(node)
    }

    /// Verify the page-table/frame bookkeeping invariants that the rest of
    /// the stack — the migration engines and the static analyzer in the
    /// `lint` crate — builds on:
    ///
    /// 1. every frame referenced by the page table or a replica list is
    ///    allocated, and referenced exactly once;
    /// 2. every allocated frame is referenced (no leaks);
    /// 3. replicas belong to mapped pages and each copy of a page (primary
    ///    plus replicas) lives on a distinct node.
    ///
    /// Page operations re-check this in `debug_assert!`s; release builds
    /// skip the scan. Returns `Err(description)` on the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for (vp, frame) in self.page_table.iter().enumerate() {
            if let Some(f) = *frame {
                if !self.memory.is_allocated(f) {
                    return Err(format!("vpage {vp} maps free frame {f}"));
                }
                if !seen.insert(f) {
                    return Err(format!("frame {f} referenced twice (vpage {vp})"));
                }
            }
        }
        for (&vp, reps) in &self.replicas {
            let Some(primary) = self.page_table.get(vp as usize).copied().flatten() else {
                return Err(format!("replica list for unmapped vpage {vp}"));
            };
            let mut nodes = std::collections::HashSet::new();
            nodes.insert(self.memory.node_of_frame(primary));
            for &f in reps {
                if !self.memory.is_allocated(f) {
                    return Err(format!("replica of vpage {vp} on free frame {f}"));
                }
                if !seen.insert(f) {
                    return Err(format!(
                        "frame {f} referenced twice (replica of vpage {vp})"
                    ));
                }
                let node = self.memory.node_of_frame(f);
                if !nodes.insert(node) {
                    return Err(format!("vpage {vp} has two copies on node {node}"));
                }
            }
        }
        let allocated = self.memory.total_frames() - self.memory.total_free();
        if allocated != seen.len() {
            return Err(format!(
                "{allocated} frames allocated but {} referenced (leak)",
                seen.len()
            ));
        }
        Ok(())
    }

    /// Allocate on `preferred`, falling back to the nearest node with a free
    /// frame (IRIX's best-effort strategy).
    fn alloc_best_effort(&mut self, preferred: NodeId) -> Option<FrameId> {
        if let Some(f) = self.memory.alloc_on(preferred) {
            return Some(f);
        }
        for node in self.config.topology.nodes_by_distance(preferred) {
            if let Some(f) = self.memory.alloc_on(node) {
                self.stats.best_effort_redirects += 1;
                return Some(f);
            }
        }
        None
    }

    /// Replicate `vpage` onto `target`: reads from CPUs nearer to the
    /// replica are served by it; any write collapses all replicas (paper
    /// §1.2: "Read-only pages can be replicated in multiple nodes"). Charges
    /// one page-copy cost. Returns the node the replica landed on, or an
    /// error if the page is unmapped / memory is exhausted.
    pub fn replicate_page(&mut self, vpage: u64, target: NodeId) -> Result<NodeId, MemError> {
        let primary = self.page_table[vpage as usize].ok_or(MemError::Unmapped)?;
        let primary_node = self.memory.node_of_frame(primary);
        if primary_node == target
            || self
                .replicas
                .get(&vpage)
                .is_some_and(|r| r.iter().any(|&f| self.memory.node_of_frame(f) == target))
        {
            return Ok(target); // already served locally from there
        }
        let frame = self.memory.alloc_on(target).ok_or(MemError::OutOfMemory)?;
        self.counters.reset_frame(frame);
        self.replicas.entry(vpage).or_default().push(frame);
        // A replica creation is one coherent page copy (no TLB shootdown:
        // existing mappings stay valid; new mappings are added lazily).
        let cost = self.config.migration_base_ns + self.config.migration_copy_ns;
        self.clock.advance(cost);
        self.stats.page_replications += 1;
        self.stats.migration_ns += cost;
        self.trace
            .emit(self.clock.now_ns(), || EventKind::PageReplicated {
                vpage,
                node: target,
            });
        self.trace.inc("page_replications", 1);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(target)
    }

    /// Drop all replicas of `vpage` (the write-collapse path, also usable
    /// explicitly). Returns how many replicas were freed.
    pub fn collapse_page(&mut self, vpage: u64) -> usize {
        let Some(frames) = self.replicas.remove(&vpage) else {
            return 0;
        };
        let n = frames.len();
        for frame in frames {
            self.counters.reset_frame(frame);
            self.memory.free(frame);
        }
        // Collapsing must invalidate stale mappings machine-wide.
        let cost = self.config.migration_base_ns
            + self.config.migration_percpu_shootdown_ns * self.cpus.len() as f64;
        self.clock.advance(cost);
        self.stats.page_collapses += 1;
        self.trace
            .emit(self.clock.now_ns(), || EventKind::PageCollapsed { vpage });
        self.trace.inc("page_collapses", 1);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        n
    }

    /// Replica count of a page (diagnostics).
    pub fn replica_count(&self, vpage: u64) -> usize {
        self.replicas.get(&vpage).map_or(0, Vec::len)
    }

    /// Sum of the coherence-directory versions of a page's lines — a cheap
    /// user-visible "has anyone written this page?" fingerprint, used by
    /// UPMlib's read-only detection.
    pub fn page_version_sum(&self, vpage: u64) -> u64 {
        let first_line = vpage << (PAGE_SHIFT - LINE_SHIFT);
        let lines = 1u64 << (PAGE_SHIFT - LINE_SHIFT);
        (first_line..first_line + lines)
            .map(|l| self.directory.version(l) as u64)
            .sum()
    }

    /// Migrate `vpage` to `target` (best effort). Charges the full migration
    /// cost (copy + TLB shootdown on every CPU) to the global clock and
    /// invalidates the page's lines in every cache, exactly the costs the
    /// paper identifies as the price of coherent page movement. Returns the
    /// node the page actually landed on.
    pub fn migrate_page(&mut self, vpage: u64, target: NodeId) -> Result<NodeId, MemError> {
        let _hp = hostprof::span_hot("ccnuma.migrate_page");
        if self.replicas.contains_key(&vpage) {
            self.collapse_page(vpage);
        }
        let old_frame = self.page_table[vpage as usize].ok_or(MemError::Unmapped)?;
        let old_node = self.memory.node_of_frame(old_frame);
        if old_node == target {
            return Ok(target);
        }
        let new_frame = self
            .alloc_best_effort(target)
            .ok_or(MemError::OutOfMemory)?;
        let landed = self.memory.node_of_frame(new_frame);
        self.counters.reset_frame(new_frame);
        self.counters.reset_frame(old_frame);
        self.memory.free(old_frame);
        self.page_table[vpage as usize] = Some(new_frame);
        // Post-copy, cached lines of the page must be re-fetched.
        let first_line = vpage << (PAGE_SHIFT - LINE_SHIFT);
        let lines_per_page = 1u64 << (PAGE_SHIFT - LINE_SHIFT);
        for cpu in &mut self.cpus {
            for line in first_line..first_line + lines_per_page {
                cpu.l1.invalidate_line(line);
                cpu.l2.invalidate_line(line);
            }
        }
        let cost = self.config.migration_cost_ns();
        self.clock.advance(cost);
        self.stats.page_migrations += 1;
        self.stats.migration_ns += cost;
        self.trace
            .emit(self.clock.now_ns(), || EventKind::PageMigrated {
                vpage,
                from: old_node,
                to: landed,
            });
        self.trace.inc("page_migrations", 1);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(landed)
    }

    // ----------------------------------------------------------------
    // The access fast path
    // ----------------------------------------------------------------

    /// Start a fast-path recording: subsequent accesses log memory traffic
    /// and cache-set pre-images until [`Machine::fp_take_recording`].
    pub(crate) fn fp_begin_recording(&mut self) {
        assert!(
            self.memory.total_frames() <= u32::MAX as usize,
            "the recording log stores frame numbers as u32"
        );
        if self.fp_marks.is_empty() {
            self.fp_marks = vec![0; self.cpus.len() * self.fp_set_span];
        }
        self.fp_epoch = self.fp_epoch.wrapping_add(1);
        if self.fp_epoch == 0 {
            self.fp_marks.fill(0);
            self.fp_epoch = 1;
        }
        self.fp_rec = Some(FpRecording {
            classes: vec![ClassStream::default(); self.cpus.len()],
            ..Default::default()
        });
    }

    /// Detach the active recording, if any, disabling logging.
    pub(crate) fn fp_take_recording(&mut self) -> Option<FpRecording> {
        self.fp_rec.take()
    }

    /// Log the pre-image of the cache set `line` maps to in `cpu`'s level-
    /// `level` cache, once per recording. Must be called before anything
    /// mutates the set (probe, fill, or version refresh) — the first log of
    /// a set therefore captures its region-entry state, because a CPU's
    /// caches are modified only through its own accesses.
    #[inline]
    fn fp_log_set(&mut self, cpu: CpuId, level: usize, line: u64) {
        let l1_sets = self.fp_l1_sets;
        let span = self.fp_set_span;
        let cache = if level == 0 {
            &self.cpus[cpu].l1
        } else {
            &self.cpus[cpu].l2
        };
        let set = (line & cache.set_mask()) as usize;
        let mark = cpu * span + if level == 0 { 0 } else { l1_sets } + set;
        if self.fp_marks[mark] == self.fp_epoch {
            return;
        }
        self.fp_marks[mark] = self.fp_epoch;
        let assoc = cache.assoc();
        let base = set * assoc;
        let rec = self.fp_rec.as_mut().expect("logging requires a recording");
        rec.sets.push((cpu as u32, level as u8, set as u32));
        for w in 0..assoc {
            rec.ways.push(cache.way(base + w));
        }
    }

    /// Page fault of `vpage` by `cpu`: ask the placement policy, allocate
    /// best-effort, and map the page on a frame with cleared counters. The
    /// one fault path: the access path takes it on a miss to an unmapped
    /// page (and charges the fault's time to the access), and the fast path
    /// takes it to fault a replayed region's pages in, in the order the
    /// access path took them, so stateful policies and the allocator follow
    /// the same sequence. A recording logs the fault.
    pub(crate) fn fault(&mut self, vpage: u64, cpu: CpuId) -> FrameId {
        // The policy code lives in `vmm`, hence the span name.
        let preferred = {
            let _hp = hostprof::span_hot("vmm.place");
            self.placer.place(vpage, cpu, self.cpus[cpu].node)
        };
        let redirects = self.stats.best_effort_redirects;
        let frame = self
            .alloc_best_effort(preferred)
            .expect("simulated machine out of physical memory");
        self.counters.reset_frame(frame);
        self.page_table[vpage as usize] = Some(frame);
        self.vpage_top = self.vpage_top.max(vpage + 1);
        self.stats.page_faults += 1;
        if let Some(rec) = self.fp_rec.as_mut() {
            rec.faults.push((vpage, cpu as u32));
            rec.fault_redirects += self.stats.best_effort_redirects - redirects;
        }
        frame
    }

    /// Simulate one memory access by `cpu` to `vaddr`. Returns the simulated
    /// latency in nanoseconds (also accumulated into the CPU's region
    /// account and statistics).
    pub fn touch(&mut self, cpu: CpuId, vaddr: u64, kind: AccessKind) -> f64 {
        let _hp = hostprof::span_hot("ccnuma.touch");
        let line = vaddr >> LINE_SHIFT;
        let version = self.directory.version(line);
        let recording = self.fp_rec.is_some();
        if recording {
            self.fp_log_set(cpu, 0, line);
        }
        let l1_probe = self.cpus[cpu].l1.probe(line, version);
        let (class, cost) = match l1_probe {
            Probe::Hit => {
                let ctx = &mut self.cpus[cpu];
                ctx.stats.l1_hits += 1;
                let ns = self.config.latency.l1_ns;
                ctx.account.cache_ns += ns;
                (CLASS_L1, ns)
            }
            l1_probe => {
                if recording {
                    self.fp_log_set(cpu, 1, line);
                }
                match self.cpus[cpu].l2.probe(line, version) {
                    Probe::Hit => {
                        let ctx = &mut self.cpus[cpu];
                        ctx.stats.l2_hits += 1;
                        ctx.l1.fill(line, version);
                        let ns = self.config.latency.l2_ns;
                        ctx.account.cache_ns += ns;
                        (CLASS_L2, ns)
                    }
                    l2_probe => {
                        // Count at most one coherence miss per access: the
                        // line was cached somewhere but invalidated by
                        // another CPU's write.
                        if l1_probe == Probe::Stale || l2_probe == Probe::Stale {
                            self.cpus[cpu].stats.coherence_misses += 1;
                        }
                        (
                            CLASS_MEM,
                            self.memory_access(cpu, vaddr, line, version, kind),
                        )
                    }
                }
            }
        };
        if recording {
            let rec = self.fp_rec.as_mut().expect("logging requires a recording");
            rec.classes[cpu].push(class);
        }
        if kind == AccessKind::Write {
            let _hp = hostprof::span_hot("ccnuma.directory");
            if recording {
                // The version refresh below modifies the line's L1/L2 sets
                // even when this access never probed them (an L1 hit still
                // refreshes a resident L2 copy) — log their pre-images too.
                self.fp_log_set(cpu, 0, line);
                self.fp_log_set(cpu, 1, line);
            }
            let new_version = self.directory.write(line);
            let ctx = &mut self.cpus[cpu];
            ctx.l1.refresh_version(line, new_version);
            ctx.l2.refresh_version(line, new_version);
            // A write to a replicated page must collapse the replicas even
            // when it hits a cache (the memory slow path never sees it).
            if !self.replicas.is_empty() {
                let vpage = vaddr >> PAGE_SHIFT;
                if self.replicas.contains_key(&vpage) {
                    self.collapse_page(vpage);
                }
            }
        }
        let ctx = &mut self.cpus[cpu];
        if self.in_region {
            // Staged in the region account; folded into the run-cumulative
            // stats once at `end_region` so the fast path can bulk-apply a
            // region's stall time with bit-exact f64 results.
            ctx.account.stall_ns += cost;
        } else {
            ctx.stats.stall_ns += cost;
        }
        if self.trace.is_active() {
            self.trace.observe("access_latency_ns", cost as u64);
        }
        cost
    }

    /// Slow path: access reaches memory. Handles demand paging, replica
    /// selection, reference counting, NUMA latency, and cache fills.
    #[cold]
    fn memory_access(
        &mut self,
        cpu: CpuId,
        vaddr: u64,
        line: u64,
        version: u32,
        kind: AccessKind,
    ) -> f64 {
        let _hp = hostprof::span_hot("ccnuma.memory");
        let vpage = vaddr >> PAGE_SHIFT;
        let cpu_node = self.cpus[cpu].node;
        let mut frame = match self.page_table[vpage as usize] {
            Some(f) => f,
            None => {
                let frame = self.fault(vpage, cpu);
                self.cpus[cpu].account.cache_ns += self.config.fault_ns;
                frame
            }
        };
        if !self.replicas.is_empty() {
            match kind {
                AccessKind::Write => {
                    // Writes collapse any replicas (write-invalidate at page
                    // grain, the replication analogue of cache coherence).
                    if self.replicas.contains_key(&vpage) {
                        self.collapse_page(vpage);
                    }
                }
                AccessKind::Read => {
                    // Reads are served by the nearest copy.
                    if let Some(reps) = self.replicas.get(&vpage) {
                        let mut best = frame;
                        let mut best_hops = self
                            .config
                            .topology
                            .hops(cpu_node, self.memory.node_of_frame(frame));
                        for &f in reps {
                            let h = self
                                .config
                                .topology
                                .hops(cpu_node, self.memory.node_of_frame(f));
                            if h < best_hops {
                                best_hops = h;
                                best = f;
                            }
                        }
                        frame = best;
                    }
                }
            }
        }
        if let Some(rec) = self.fp_rec.as_mut() {
            rec.mem_log.push((cpu as u32, frame as u32));
        }
        let home = self.memory.node_of_frame(frame);
        let ns = self.mem_ns[cpu_node * self.config.topology.nodes() + home];
        let spilled = {
            let _hp = hostprof::span_hot("ccnuma.counters");
            self.counters.record(frame, cpu_node)
        };
        if spilled {
            self.trace
                .emit(self.clock.now_ns(), || EventKind::CounterOverflowSpill {
                    frame,
                    node: cpu_node,
                });
            self.trace.inc("counter_overflow_spills", 1);
        }
        let ctx = &mut self.cpus[cpu];
        // `hops` is 0 for no other pair.
        if cpu_node == home {
            ctx.stats.mem_local += 1;
        } else {
            ctx.stats.mem_remote += 1;
        }
        ctx.account.stall_by_node[home] += ns;
        ctx.account.accesses_by_node[home] += 1;
        ctx.l2.fill(line, version);
        ctx.l1.fill(line, version);
        ns
    }

    /// Charge simulated computation to a CPU (the kernels' flop accounting).
    #[inline]
    pub fn compute(&mut self, cpu: CpuId, flops: u64) {
        self.compute_ns(cpu, flops as f64 * self.config.flop_ns);
    }

    /// Charge raw nanoseconds of computation to a CPU.
    #[inline]
    pub fn compute_ns(&mut self, cpu: CpuId, ns: f64) {
        let ctx = &mut self.cpus[cpu];
        ctx.account.compute_ns += ns;
        if !self.in_region {
            // In-region compute reaches the cumulative stats via the
            // `end_region` fold (see `touch`); out-of-region compute has no
            // region account to stage in.
            ctx.stats.compute_ns += ns;
        }
    }

    // ----------------------------------------------------------------
    // Region protocol (driven by the omp runtime)
    // ----------------------------------------------------------------

    /// Open a parallel region: clears per-CPU region accounts and charges
    /// the fork overhead.
    pub fn begin_region(&mut self) {
        assert!(!self.in_region, "nested begin_region");
        for c in &mut self.cpus {
            c.account.clear();
        }
        self.clock.advance(self.config.fork_ns);
        self.in_region = true;
        let region = self.stats.regions;
        self.trace
            .emit(self.clock.now_ns(), || EventKind::RegionBegin { region });
    }

    /// Close a parallel region: applies the contention correction, advances
    /// the global clock by the region's wall time plus the barrier overhead,
    /// and returns the timing breakdown.
    pub fn end_region(&mut self) -> RegionTiming {
        assert!(self.in_region, "end_region without begin_region");
        self.in_region = false;
        // Fold the region's staged stall/compute time into the cumulative
        // per-CPU stats. One add per CPU per region keeps the f64 results
        // identical whether the region ran line-by-line or was replayed in
        // bulk by the fast path (which installs recorded accounts wholesale).
        for c in &mut self.cpus {
            c.stats.stall_ns += c.account.stall_ns;
            c.stats.compute_ns += c.account.compute_ns;
        }
        let nodes = self.config.topology.nodes();
        let accounts = self.cpus.iter().map(|c| &c.account);
        let timing = self.contention.close_region(accounts, nodes);
        self.clock.advance(timing.wall_ns + self.config.barrier_ns);
        let region = self.stats.regions;
        self.stats.regions += 1;
        self.trace
            .emit(self.clock.now_ns(), || EventKind::RegionEnd { region });
        timing
    }

    /// Whether a region is currently open.
    pub fn in_region(&self) -> bool {
        self.in_region
    }

    /// Virtual time a CPU has accumulated in the current region, ns. The
    /// `omp` runtime's dynamic-schedule event loop dispatches each chunk to
    /// the CPU with the least accumulated time — the deterministic
    /// simulation of a real dynamic chunk queue.
    pub fn region_cpu_ns(&self, cpu: CpuId) -> f64 {
        self.cpus[cpu].account.base_ns()
    }

    /// Iterate over all mapped virtual pages as `(vpage, frame)` pairs —
    /// the kernel's view for migration-daemon scans.
    pub fn mapped_pages(&self) -> impl Iterator<Item = (u64, FrameId)> + '_ {
        self.page_table
            .iter()
            .enumerate()
            .filter_map(|(vp, f)| f.map(|frame| (vp as u64, frame)))
    }

    /// Test helper: map one page on a specific node.
    pub fn map_page_for_test(&mut self, vaddr: u64, node: NodeId) {
        self.map_page(vaddr >> PAGE_SHIFT, node)
            .expect("map_page_for_test");
    }
}

/// An exact copy: the clone continues as this machine would, op for op.
/// Its directory copies only the lines below the highest page ever
/// reserved or mapped, the rest allocated zeroed, so a clone is resident
/// for what its run touched. A traced machine is not cloned: its events
/// belong to one run.
impl Clone for Machine {
    fn clone(&self) -> Self {
        assert!(!self.trace.is_active(), "a traced machine is not cloned");
        let lines = (self.vpage_top as usize) << (PAGE_SHIFT - LINE_SHIFT);
        Self {
            config: self.config.clone(),
            directory: self.directory.clone_below(lines),
            counters: self.counters.clone(),
            memory: self.memory.clone(),
            page_table: self.page_table.clone(),
            replicas: self.replicas.clone(),
            placer: self.placer.boxed_clone(),
            cpus: self.cpus.clone(),
            clock: self.clock,
            stats: self.stats,
            contention: self.contention,
            mem_ns: self.mem_ns.clone(),
            next_vaddr: self.next_vaddr,
            vpage_top: self.vpage_top,
            in_region: self.in_region,
            fp_rec: self.fp_rec.clone(),
            fp_marks: self.fp_marks.clone(),
            fp_epoch: self.fp_epoch,
            fp_l1_sets: self.fp_l1_sets,
            fp_set_span: self.fp_set_span,
            trace: TraceSink::Null,
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cpus", &self.cpus.len())
            .field("nodes", &self.config.topology.nodes())
            .field("placer", &self.placer.name())
            .field("clock_ns", &self.clock.now_ns())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::COUNTER_MAX;
    use crate::AccessKind::{Read, Write};

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny_test())
    }

    #[test]
    fn first_touch_places_locally() {
        let mut m = machine();
        // CPU 5 lives on node 2 in the 4x2 tiny topology.
        m.touch(5, 0, Read);
        assert_eq!(m.node_of_vpage(0), Some(2));
        assert_eq!(m.stats().page_faults, 1);
    }

    #[test]
    fn local_access_cheaper_than_remote() {
        let mut m = machine();
        m.map_page_for_test(0, 0); // page 0 on node 0
        m.map_page_for_test(crate::PAGE_SIZE, 3); // page 1 on node 3
        let local = m.touch(0, 0, Read); // cpu0 = node0
        let remote = m.touch(0, crate::PAGE_SIZE, Read);
        assert_eq!(local, 329.0);
        assert!(remote > local);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = machine();
        let first = m.touch(0, 64, Read);
        let second = m.touch(0, 64, Read);
        assert!(first >= 329.0);
        assert_eq!(second, 5.5);
        assert_eq!(m.cpu_stats(0).l1_hits, 1);
    }

    #[test]
    fn write_by_other_cpu_invalidates() {
        let mut m = machine();
        m.touch(0, 0, Read);
        assert_eq!(m.touch(0, 0, Read), 5.5);
        // CPU 2 (different node) writes the same line.
        m.touch(2, 0, Write);
        // CPU 0's copy is now stale: next read goes to memory.
        let ns = m.touch(0, 0, Read);
        assert!(ns >= 329.0, "expected coherence miss, got {ns}");
        assert_eq!(m.cpu_stats(0).coherence_misses, 1);
    }

    #[test]
    fn own_write_keeps_line_fresh() {
        let mut m = machine();
        m.touch(0, 0, Write);
        assert_eq!(m.touch(0, 0, Read), 5.5);
    }

    #[test]
    fn counters_count_memory_accesses_only() {
        let mut m = machine();
        m.touch(0, 0, Read); // memory access, counted
        m.touch(0, 0, Read); // L1 hit, not counted
        let frame = m.frame_of(0).unwrap();
        assert_eq!(m.counters().get(frame, 0), 1);
    }

    #[test]
    fn migration_moves_and_invalidates() {
        let mut m = machine();
        m.touch(0, 0, Read);
        assert_eq!(m.node_of_vpage(0), Some(0));
        let before = m.clock().now_ns();
        let landed = m.migrate_page(0, 3).unwrap();
        assert_eq!(landed, 3);
        assert_eq!(m.node_of_vpage(0), Some(3));
        assert!(m.clock().now_ns() > before);
        assert_eq!(m.stats().page_migrations, 1);
        // Cache copy was invalidated: next access is remote memory.
        let ns = m.touch(0, 0, Read);
        assert!(ns > 329.0);
    }

    #[test]
    fn migration_to_same_node_is_noop() {
        let mut m = machine();
        m.touch(0, 0, Read);
        let before = m.clock().now_ns();
        assert_eq!(m.migrate_page(0, 0), Ok(0));
        assert_eq!(m.clock().now_ns(), before);
        assert_eq!(m.stats().page_migrations, 0);
    }

    #[test]
    fn migration_best_effort_redirects_when_full() {
        let mut cfg = MachineConfig::tiny_test();
        cfg.frames_per_node = 1;
        let mut m = Machine::new(cfg);
        m.map_page(0, 3).unwrap(); // fills node 3
        m.map_page(1, 0).unwrap();
        let landed = m.migrate_page(1, 3).unwrap();
        assert_ne!(landed, 3);
        assert_eq!(m.stats().best_effort_redirects, 1);
    }

    #[test]
    fn migrate_unmapped_fails() {
        let mut m = machine();
        assert_eq!(m.migrate_page(7, 1), Err(MemError::Unmapped));
    }

    #[test]
    fn region_protocol_advances_clock() {
        let mut m = machine();
        m.begin_region();
        for i in 0..100 {
            m.touch(0, i * 8, Read);
        }
        m.compute(0, 1000);
        let t = m.end_region();
        assert!(t.wall_ns > 0.0);
        assert!(m.clock().now_ns() >= t.wall_ns);
        assert_eq!(m.stats().regions, 1);
    }

    #[test]
    fn reserve_vspace_is_page_aligned_and_disjoint() {
        let mut m = machine();
        let a = m.reserve_vspace(100);
        let b = m.reserve_vspace(crate::PAGE_SIZE + 1);
        let c = m.reserve_vspace(1);
        assert_eq!(a, 0);
        assert_eq!(b, crate::PAGE_SIZE);
        assert_eq!(c, 3 * crate::PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "nested begin_region")]
    fn nested_region_panics() {
        let mut m = machine();
        m.begin_region();
        m.begin_region();
    }

    #[test]
    fn replication_serves_reads_locally_until_a_write() {
        let mut m = machine();
        m.map_page_for_test(0, 0);
        // CPU 6 (node 3) reads remotely at first.
        let remote = m.touch(6, 0, Read);
        assert!(remote > 329.0);
        m.replicate_page(0, 3).unwrap();
        assert_eq!(m.replica_count(0), 1);
        assert_eq!(m.stats().page_replications, 1);
        // New line on the page: node 3's read is now local.
        let local = m.touch(6, 256, Read);
        assert_eq!(local, 329.0);
        // Node 0 still reads its own copy locally.
        assert_eq!(m.touch(0, 384, Read), 329.0);
        // A write collapses the replica...
        m.touch(0, 512, Write);
        assert_eq!(m.replica_count(0), 0);
        assert_eq!(m.stats().page_collapses, 1);
        // ...and node 3 is remote again.
        let after = m.touch(6, 640, Read);
        assert!(after > 329.0);
    }

    #[test]
    fn replication_counts_on_the_serving_frame() {
        let mut m = machine();
        m.map_page_for_test(0, 0);
        let primary = m.frame_of(0).unwrap();
        m.replicate_page(0, 3).unwrap();
        m.touch(6, 0, Read); // served by the node-3 replica
        assert_eq!(
            m.counters().get(primary, 3),
            0,
            "primary must not be charged"
        );
    }

    #[test]
    fn migrate_collapses_replicas_and_frees_frames() {
        let mut m = machine();
        m.map_page_for_test(0, 0);
        let free_before = m.memory().total_free();
        m.replicate_page(0, 1).unwrap();
        m.replicate_page(0, 2).unwrap();
        assert_eq!(m.memory().total_free(), free_before - 2);
        m.migrate_page(0, 3).unwrap();
        assert_eq!(m.replica_count(0), 0);
        assert_eq!(m.memory().total_free(), free_before);
    }

    #[test]
    fn replicate_same_node_is_noop() {
        let mut m = machine();
        m.map_page_for_test(0, 2);
        assert_eq!(m.replicate_page(0, 2), Ok(2));
        assert_eq!(m.replica_count(0), 0);
        m.replicate_page(0, 1).unwrap();
        assert_eq!(
            m.replicate_page(0, 1),
            Ok(1),
            "duplicate replica requests are no-ops"
        );
        assert_eq!(m.replica_count(0), 1);
    }

    #[test]
    fn page_version_sum_tracks_writes() {
        let mut m = machine();
        m.map_page_for_test(0, 0);
        let v0 = m.page_version_sum(0);
        m.touch(0, 0, Read);
        assert_eq!(m.page_version_sum(0), v0, "reads leave versions alone");
        m.touch(0, 0, Write);
        assert_eq!(m.page_version_sum(0), v0 + 1);
    }

    #[test]
    fn invariants_hold_through_page_operations() {
        let mut m = machine();
        m.map_page(0, 0).unwrap();
        m.map_page(1, 1).unwrap();
        m.replicate_page(0, 2).unwrap();
        m.migrate_page(1, 3).unwrap();
        m.collapse_page(0);
        m.replicate_page(1, 0).unwrap();
        m.migrate_page(1, 2).unwrap();
        assert_eq!(m.replica_count(1), 0, "a migration collapses the replicas");
        assert_eq!(m.check_invariants(), Ok(()));
    }

    #[test]
    fn invariants_detect_corruption() {
        // Negative test: hand-corrupt the private bookkeeping and check the
        // invariant scan names each violation.
        let mut m = machine();
        m.map_page(0, 0).unwrap();
        m.map_page(1, 1).unwrap();

        // Double-mapped frame.
        let saved = m.page_table[1];
        m.page_table[1] = m.page_table[0];
        assert!(m
            .check_invariants()
            .is_err_and(|e| e.contains("referenced twice")));
        m.page_table[1] = saved;

        // Leaked frame: allocated but unreachable from the page table.
        let saved = m.page_table[1].take();
        assert!(m.check_invariants().is_err_and(|e| e.contains("leak")));
        m.page_table[1] = saved;

        // Replica list for an unmapped page.
        m.replicas.insert(7, Vec::new());
        assert!(m
            .check_invariants()
            .is_err_and(|e| e.contains("unmapped vpage 7")));
        m.replicas.remove(&7);

        // Replica on the same node as the primary.
        let dup = m.memory.alloc_on(0).unwrap();
        m.replicas.insert(0, vec![dup]);
        assert!(m
            .check_invariants()
            .is_err_and(|e| e.contains("two copies on node 0")));
        m.replicas.remove(&0);
        m.memory.free(dup);

        assert_eq!(m.check_invariants(), Ok(()));
    }

    /// Everything a run can observe of a machine: clock bits, machine and
    /// per-CPU statistics, cache clocks, free frames per node, and for every
    /// mapped page its frame, replicas, per-node counters and line versions.
    fn fingerprint(m: &Machine) -> String {
        let mut out = format!("{} {:?}\n", m.clock().now_ns().to_bits(), m.stats());
        for cpu in 0..m.cpus() {
            out += &format!("{:?} {:?}\n", m.cpu_stats(cpu), m.cache_ticks(cpu));
        }
        let nodes = m.topology().nodes();
        out += &format!(
            "{:?}\n",
            (0..nodes)
                .map(|n| m.memory().free_on(n))
                .collect::<Vec<_>>()
        );
        for (vp, frame) in m.mapped_pages() {
            out += &format!(
                "{vp} {frame} {} {:?} {}\n",
                m.replica_count(vp),
                m.counters().snapshot(frame),
                m.page_version_sum(vp)
            );
        }
        out
    }

    #[test]
    fn a_clone_continues_as_the_original_would() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let ops: Vec<(u8, usize, u64, usize)> = (0..1500)
                .map(|_| {
                    let op = rng.gen_range(0..20u8);
                    (
                        op,
                        rng.gen_range(0..8),
                        rng.gen_range(0..6),
                        rng.gen_range(0..128),
                    )
                })
                .collect();
            let fork_at = rng.gen_range(0..ops.len());
            let mut m = machine();
            let base = m.reserve_vspace(6 * crate::PAGE_SIZE);
            let apply = |m: &mut Machine, &(op, cpu, page, line): &(u8, usize, u64, usize)| {
                let vpage = crate::vpage_of(base) + page;
                let node = cpu % m.topology().nodes();
                let addr = base + page * crate::PAGE_SIZE + line as u64 * 128;
                match op {
                    0 => {
                        let _ = m.migrate_page(vpage, node);
                    }
                    1 => {
                        let _ = m.replicate_page(vpage, node);
                    }
                    2 => {
                        m.collapse_page(vpage);
                    }
                    4 => {
                        if let Some(frame) = m.frame_of(vpage) {
                            // Enough traffic to spill the hardware counter.
                            for _ in 0..=COUNTER_MAX {
                                m.counters().record(frame, node);
                            }
                            m.counters().decay_frame(frame);
                        }
                    }
                    5 if !m.in_region() => m.begin_region(),
                    6 if m.in_region() => {
                        m.end_region();
                    }
                    7..=11 => {
                        m.touch(cpu, addr, Write);
                    }
                    _ => {
                        m.touch(cpu, addr, Read);
                    }
                }
            };
            for op in &ops[..fork_at] {
                apply(&mut m, op);
            }
            let mut clone = m.clone();
            assert_eq!(
                fingerprint(&clone),
                fingerprint(&m),
                "seed {seed}: the clone"
            );
            for op in &ops[fork_at..] {
                apply(&mut m, op);
                apply(&mut clone, op);
            }
            assert_eq!(fingerprint(&clone), fingerprint(&m), "seed {seed}: after");
            assert_eq!(clone.check_invariants(), Ok(()));
        }
    }

    #[test]
    fn a_cloned_directory_reads_zero_above_the_reserved_space() {
        let mut m = machine();
        let base = m.reserve_vspace(3 * crate::PAGE_SIZE);
        for line in 0..3 * 128u64 {
            m.touch(line as usize % 8, base + line * 128, Write);
        }
        let clone = m.clone();
        let top = m.next_vaddr >> LINE_SHIFT;
        for line in 0..clone.directory.lines() as u64 {
            let want = if line < top {
                m.directory.version(line)
            } else {
                0
            };
            assert_eq!(clone.directory.version(line), want, "line {line}");
        }
        assert_eq!(clone.directory.version(top - 1), 1);
        assert_eq!(clone.directory.total_writes(), m.directory.total_writes());
    }

    #[test]
    fn map_errors() {
        let mut m = machine();
        m.map_page(0, 0).unwrap();
        assert_eq!(m.map_page(0, 1), Err(MemError::AlreadyMapped));
        assert_eq!(m.migrate_page(1, 1), Err(MemError::Unmapped));
        assert_eq!(m.replicate_page(1, 1), Err(MemError::Unmapped));
    }
}
