//! Per-frame, per-node hardware reference counters, with kernel-extended
//! software counters.
//!
//! Paper §2.1: *"Each physical memory frame is equipped with a set of 11-bit
//! hardware counters. Each set of counters contains one counter per node in
//! the system ... The counters track the number of accesses from each node to
//! each page frame in memory."*
//!
//! The hardware counters are incremented by the memory system on every
//! access that reaches memory (i.e. every secondary-cache miss), exactly as
//! on the Origin2000 Hub, and saturate at `2^11 - 1 = 2047`. Because real
//! workloads overflow 11 bits within one observation window, IRIX maintains
//! *extended reference counters* in software: an overflow interrupt folds
//! the hardware count into a wide kernel counter (this is the `mmci`
//! extended-counter facility the paper's `/proc` interface reads). The
//! simulator reproduces that split: [`RefCounters::record`] drives the
//! 11-bit hardware counter and spills full blocks into a 64-bit extension;
//! [`RefCounters::get`] returns the combined (kernel-visible) value.
//!
//! Only a counter that overflowed ever holds an extended value, so the
//! extension is sparse: it is allocated in blocks of [`EXT_BLOCK`]
//! counters, each on the first spill that lands in it. A machine costs the
//! 2 bytes of its hardware counters per (frame, node), and 8 more only
//! where a run overflowed one.

use crate::topology::NodeId;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Saturation value of the Origin2000's 11-bit hardware counters.
pub const COUNTER_MAX: u16 = (1 << 11) - 1;

/// Counters per block of the sparse extension: one 4 KB page of `u64`s.
const EXT_BLOCK: usize = 512;

/// One block of extended counters, allocated on its first spill.
type ExtBlock = OnceLock<Box<[AtomicU64]>>;

/// Counter banks for every frame in the machine, one counter per node.
#[derive(Debug)]
pub struct RefCounters {
    nodes: usize,
    /// 11-bit hardware counters, flat `[frame][node]` layout.
    hw: Vec<AtomicU16>,
    /// Kernel-extended counters: completed 2047-blocks spilled on overflow,
    /// laid out as `hw` in blocks of [`EXT_BLOCK`]; a block no spill
    /// reached is unallocated and reads 0.
    extended: Vec<ExtBlock>,
    /// Total accesses ever recorded (monotone; unaffected by per-frame
    /// resets/decay). The phase fast path validates a recorded region's
    /// aggregate counter traffic against this in O(1).
    recorded: AtomicU64,
}

impl RefCounters {
    /// Counters for `frames` frames on a machine with `nodes` nodes.
    pub fn new(frames: usize, nodes: usize) -> Self {
        let mut hw = Vec::with_capacity(frames * nodes);
        hw.resize_with(frames * nodes, || AtomicU16::new(0));
        let mut extended = Vec::new();
        extended.resize_with((frames * nodes).div_ceil(EXT_BLOCK), ExtBlock::new);
        Self {
            nodes,
            hw,
            extended,
            recorded: AtomicU64::new(0),
        }
    }

    /// Total accesses ever recorded via [`RefCounters::record`] or
    /// [`RefCounters::bulk_add`]. Monotone: per-frame resets and decay do
    /// not subtract from it.
    #[inline]
    pub fn total_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    #[inline(always)]
    fn idx(&self, frame: usize, node: NodeId) -> usize {
        debug_assert!(node < self.nodes);
        frame * self.nodes + node
    }

    /// Extended counter `i`, when its block has been allocated.
    #[inline]
    fn ext(&self, i: usize) -> Option<&AtomicU64> {
        self.extended[i / EXT_BLOCK]
            .get()
            .map(|b| &b[i % EXT_BLOCK])
    }

    /// Fold `count` accesses into extended counter `i`, allocating its
    /// block on the first spill that reaches it.
    #[cold]
    #[inline(never)]
    fn spill(&self, i: usize, count: u64) {
        let block = self.extended[i / EXT_BLOCK]
            .get_or_init(|| (0..EXT_BLOCK).map(|_| AtomicU64::new(0)).collect());
        block[i % EXT_BLOCK].fetch_add(count, Ordering::Relaxed);
    }

    /// Record one memory access to `frame` from `node`. On hardware-counter
    /// overflow the block is folded into the kernel's extended counter (the
    /// IRIX overflow-interrupt path). Returns `true` when this access
    /// triggered an overflow spill (the observability layer traces these).
    #[inline(always)]
    pub fn record(&self, frame: usize, node: NodeId) -> bool {
        let i = self.idx(frame, node);
        let hw = &self.hw[i];
        // Relaxed is fine: simulated CPUs run sequentially.
        self.recorded
            .store(self.recorded.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        let cur = hw.load(Ordering::Relaxed);
        if cur >= COUNTER_MAX {
            // Overflow interrupt: fold the full block (including this
            // access) into the kernel's extended counter and restart the
            // hardware counter.
            hw.store(0, Ordering::Relaxed);
            self.spill(i, cur as u64 + 1);
            true
        } else {
            hw.store(cur + 1, Ordering::Relaxed);
            false
        }
    }

    /// Record `count` memory accesses to `frame` from `node` in one step —
    /// exactly equivalent to `count` calls to [`RefCounters::record`],
    /// including the overflow-spill arithmetic: the hardware counter ends at
    /// `(hw + count) mod 2048` and every completed 2048-block folds into the
    /// extended counter. Used by the phase fast path to land a region's
    /// counter samples in bulk; callers that need per-spill observability
    /// events must use `record`.
    pub fn bulk_add(&self, frame: usize, node: NodeId, count: u64) {
        if count == 0 {
            return;
        }
        self.recorded.store(
            self.recorded.load(Ordering::Relaxed) + count,
            Ordering::Relaxed,
        );
        let i = self.idx(frame, node);
        let block = COUNTER_MAX as u64 + 1;
        let total = self.hw[i].load(Ordering::Relaxed) as u64 + count;
        self.hw[i].store((total % block) as u16, Ordering::Relaxed);
        let blocks = total / block;
        if blocks > 0 {
            self.spill(i, blocks * block);
        }
    }

    /// Kernel-visible count: extended blocks plus the live hardware counter.
    #[inline]
    pub fn get(&self, frame: usize, node: NodeId) -> u64 {
        let i = self.idx(frame, node);
        let ext = self.ext(i).map_or(0, |e| e.load(Ordering::Relaxed));
        ext + self.hw[i].load(Ordering::Relaxed) as u64
    }

    /// Raw 11-bit hardware counter value (diagnostics/tests).
    pub fn hw_value(&self, frame: usize, node: NodeId) -> u16 {
        self.hw[self.idx(frame, node)].load(Ordering::Relaxed)
    }

    /// Snapshot all per-node counts of a frame (kernel-visible values).
    pub fn snapshot(&self, frame: usize) -> Vec<u64> {
        (0..self.nodes).map(|n| self.get(frame, n)).collect()
    }

    /// Zero the counters of one frame (done when a frame is freed or
    /// reallocated — a migrated page lands on a fresh frame whose counters
    /// start from zero — and by user-level observation-window resets).
    pub fn reset_frame(&self, frame: usize) {
        for n in 0..self.nodes {
            let i = self.idx(frame, n);
            self.hw[i].store(0, Ordering::Relaxed);
            if let Some(ext) = self.ext(i) {
                ext.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Halve the counters of one frame — the aging step of the IRIX kernel
    /// migration daemon, which keeps the comparison windowed toward recent
    /// behaviour instead of accumulating forever.
    pub fn decay_frame(&self, frame: usize) {
        for n in 0..self.nodes {
            let i = self.idx(frame, n);
            let hw = &self.hw[i];
            hw.store(hw.load(Ordering::Relaxed) / 2, Ordering::Relaxed);
            if let Some(ext) = self.ext(i) {
                ext.store(ext.load(Ordering::Relaxed) / 2, Ordering::Relaxed);
            }
        }
    }

    /// Number of nodes per counter bank.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// [`competitive_view`] of a frame homed on `home`.
    pub fn competitive_view(&self, frame: usize, home: NodeId) -> (u64, u64, NodeId) {
        competitive_view((0..self.nodes).map(|n| self.get(frame, n)), home)
    }
}

/// Every counter copied; the copy holds extension blocks where this one
/// does.
impl Clone for RefCounters {
    fn clone(&self) -> Self {
        let copy = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Relaxed));
        let extended = self.extended.iter().map(|block| match block.get() {
            Some(b) => ExtBlock::from(b.iter().map(copy).collect::<Box<[_]>>()),
            None => ExtBlock::new(),
        });
        Self {
            nodes: self.nodes,
            hw: (self.hw.iter())
                .map(|h| AtomicU16::new(h.load(Ordering::Relaxed)))
                .collect(),
            extended: extended.collect(),
            recorded: copy(&self.recorded),
        }
    }
}

/// `(local, max_remote, argmax_remote_node)` of a page homed on `home` whose
/// per-node access counts are `counts` (node 0, 1, …). This is the triple
/// every competitive migration criterion in the paper consumes. A remote
/// node takes the maximum only by being strictly greater, so ties break
/// toward the lower node id, deterministically, and a page with no remote
/// access names its own home.
pub fn competitive_view(counts: impl IntoIterator<Item = u64>, home: NodeId) -> (u64, u64, NodeId) {
    let (mut local, mut best, mut best_node) = (0, 0, home);
    for (n, c) in counts.into_iter().enumerate() {
        if n == home {
            local = c;
        } else if c > best {
            best = c;
            best_node = n;
        }
    }
    (local, best, best_node)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read() {
        let c = RefCounters::new(4, 8);
        c.record(2, 5);
        c.record(2, 5);
        c.record(2, 1);
        assert_eq!(c.get(2, 5), 2);
        assert_eq!(c.get(2, 1), 1);
        assert_eq!(c.get(2, 0), 0);
        assert_eq!(c.get(3, 5), 0);
    }

    #[test]
    fn hardware_counter_spills_into_extension() {
        let c = RefCounters::new(1, 2);
        for _ in 0..5000 {
            c.record(0, 1);
        }
        // The kernel-visible value keeps counting past 11 bits...
        assert_eq!(c.get(0, 1), 5000);
        // ...while the live hardware counter stays within its width.
        assert!(c.hw_value(0, 1) <= COUNTER_MAX);
        assert_eq!(COUNTER_MAX, 2047);
    }

    #[test]
    fn record_reports_exactly_the_spilling_access() {
        let c = RefCounters::new(1, 2);
        // 2047 accesses saturate the hardware counter without spilling...
        for _ in 0..COUNTER_MAX {
            assert!(!c.record(0, 0));
        }
        assert_eq!(c.hw_value(0, 0), COUNTER_MAX);
        // ...the 2048th takes the overflow-interrupt path: the full block
        // folds into the extended counter and the hw counter restarts.
        assert!(c.record(0, 0));
        assert_eq!(c.hw_value(0, 0), 0);
        assert_eq!(c.get(0, 0), COUNTER_MAX as u64 + 1);
        // The next access is an ordinary increment again.
        assert!(!c.record(0, 0));
        assert_eq!(c.get(0, 0), COUNTER_MAX as u64 + 2);
    }

    #[test]
    fn saturation_is_per_counter_not_per_frame() {
        let c = RefCounters::new(2, 2);
        for _ in 0..=COUNTER_MAX {
            c.record(0, 0);
        }
        // Node 0's bank spilled; node 1's and frame 1's banks are untouched.
        assert_eq!(c.hw_value(0, 0), 0);
        assert_eq!(c.hw_value(0, 1), 0);
        assert_eq!(c.get(0, 1), 0);
        assert_eq!(c.get(1, 0), 0);
    }

    #[test]
    fn concurrent_record_is_safe_and_bounded() {
        use std::sync::Arc;
        // `record` is deliberately a racy load/store pair (the simulated
        // CPUs run sequentially), but the type is Sync: concurrent use must
        // stay memory-safe. Racing increments may be lost (overwritten
        // stores) and racing spills may double-fold a block, so the only
        // hard bounds are: the hardware counter never leaves its 11-bit
        // range (every store writes 0 or a value that was < COUNTER_MAX),
        // and each call contributes at most one full block to the total.
        const THREADS: usize = 4;
        const PER_THREAD: usize = 10_000;
        const JOIN_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);
        let calls = (THREADS * PER_THREAD) as u64;
        let c = Arc::new(RefCounters::new(1, 2));
        // Every recorder reports through the channel before exiting;
        // `recv_timeout` turns a wedged recorder into a test failure
        // instead of a hung test run.
        let (tx, rx) = std::sync::mpsc::channel::<u64>();
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let c = Arc::clone(&c);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let mut spilled = 0u64;
                    for _ in 0..PER_THREAD {
                        if c.record(0, 0) {
                            spilled += 1;
                        }
                    }
                    tx.send(spilled).expect("main thread waits on the channel");
                })
            })
            .collect();
        drop(tx);
        let mut spills = 0u64;
        for _ in 0..THREADS {
            spills += rx
                .recv_timeout(JOIN_TIMEOUT)
                .expect("a recorder thread wedged or died");
        }
        for h in handles {
            // Reporting is each recorder's last act, so these joins cannot
            // block.
            h.join().expect("recorder thread must not panic");
        }
        assert!(c.hw_value(0, 0) <= COUNTER_MAX);
        let total = c.get(0, 0);
        assert!(total > 0);
        assert!(
            total <= calls * (COUNTER_MAX as u64 + 1),
            "each call folds at most one block"
        );
        assert!(spills <= calls);
        // The other bank stayed untouched through all of it.
        assert_eq!(c.get(0, 1), 0);
        // Back on one thread the counter is exact again: the racy window is
        // over, so a known number of records advances the total by exactly
        // that much.
        for _ in 0..100 {
            c.record(0, 0);
        }
        assert_eq!(c.get(0, 0), total + 100, "single-threaded totals are exact");
    }

    #[test]
    fn bulk_add_matches_repeated_record() {
        // Every interesting phase alignment: starting below, at, and just
        // past a spill boundary, with bulk sizes spanning several blocks.
        for start in [0u64, 1, 2046, 2047, 2048] {
            for count in [0u64, 1, 2046, 2047, 2048, 2049, 5000] {
                let a = RefCounters::new(1, 2);
                let b = RefCounters::new(1, 2);
                for _ in 0..start {
                    a.record(0, 1);
                    b.record(0, 1);
                }
                for _ in 0..count {
                    a.record(0, 1);
                }
                b.bulk_add(0, 1, count);
                assert_eq!(
                    a.get(0, 1),
                    b.get(0, 1),
                    "totals diverge at start={start} count={count}"
                );
                assert_eq!(
                    a.hw_value(0, 1),
                    b.hw_value(0, 1),
                    "hw state diverges at start={start} count={count}"
                );
            }
        }
    }

    #[test]
    fn a_clone_holds_every_count_and_counts_on_alone() {
        let c = RefCounters::new(EXT_BLOCK, 2);
        for _ in 0..5000 {
            c.record(7, 1);
        }
        c.record(3, 0);
        let d = c.clone();
        for frame in 0..EXT_BLOCK {
            assert_eq!(d.snapshot(frame), c.snapshot(frame));
        }
        assert_eq!(d.total_recorded(), c.total_recorded());
        d.record(7, 1);
        assert_eq!(d.get(7, 1), 5001);
        assert_eq!(c.get(7, 1), 5000);
    }

    #[test]
    fn competitive_view_finds_max_remote() {
        let c = RefCounters::new(1, 4);
        for _ in 0..5 {
            c.record(0, 0); // home
        }
        for _ in 0..9 {
            c.record(0, 2);
        }
        for _ in 0..3 {
            c.record(0, 3);
        }
        let (local, rmax, rnode) = c.competitive_view(0, 0);
        assert_eq!((local, rmax, rnode), (5, 9, 2));
    }

    #[test]
    fn competitive_view_tie_breaks_low_node() {
        let c = RefCounters::new(1, 4);
        c.record(0, 3);
        c.record(0, 1);
        let (_, rmax, rnode) = c.competitive_view(0, 0);
        assert_eq!((rmax, rnode), (1, 1));
    }

    #[test]
    fn reset_frame_clears_only_that_frame() {
        let c = RefCounters::new(2, 2);
        for _ in 0..3000 {
            c.record(0, 0);
        }
        c.record(1, 1);
        c.reset_frame(0);
        assert_eq!(c.get(0, 0), 0);
        assert_eq!(c.get(1, 1), 1);
    }

    #[test]
    fn decay_halves_combined_value() {
        let c = RefCounters::new(1, 2);
        for _ in 0..4000 {
            c.record(0, 0);
        }
        let before = c.get(0, 0);
        c.decay_frame(0);
        let after = c.get(0, 0);
        assert!(after <= before / 2 + 1, "decay {before} -> {after}");
        assert!(after >= before / 2 - 1);
    }
}
