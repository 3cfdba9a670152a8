//! Phase-level bulk-access engine: per-CPU record-and-replay memoization of
//! proven parallel regions.
//!
//! The simulator models every line access individually, which makes iterative
//! kernels pay the full cache/coherence walk on every iteration even though
//! the machine-visible effect of a steady-state phase is identical each time.
//! The `lint` crate's KernelModels are address-exact, so the `nas` layer can
//! derive a [`PhaseProof`] — the complete set of lines a region touches, with
//! per-line write counts and the (unique) writing thread, for loops whose
//! ownership analysis shows no cross-CPU write sharing.
//!
//! **Granularity.** Memos are per *team CPU*, not per region. For an eligible
//! region, one CPU's walk is provably independent of every other CPU's:
//! caches are private; reference counters are written, never read, in-region;
//! and the directory versions a CPU observes cannot be moved by another
//! thread's in-region writes (a written line is accessed by its writer only).
//! So each CPU independently hits, is re-timed, or misses on its own. A
//! region replays wholesale when no CPU misses; when only some miss (in
//! practice the master CPU, whose cache carries long-memory junk from serial
//! regions, drifts while the workers stabilize), the others' effects are
//! applied in bulk and they sit the region out while the drifters execute the
//! exact path and re-record. The engine only reports who does what
//! ([`FastpathOutcome`]); keeping a replayed CPU's accesses away from the
//! machine is the caller's job.
//!
//! **Keys and cost.** A memo is an *image* — everything about one CPU's walk
//! that is true wherever its pages live — holding one *placement* per frame
//! assignment the walk has been timed under. The image's key covers exactly
//! the cache sets the walk probed: untouched state cannot influence the walk,
//! and excluding it makes small regions insensitive to ambient cache junk.
//! Matching normalizes each touched set of the *live* cache on the fly (tags
//! classified as proof-line / empty / other, coherence freshness relative to
//! the directory, LRU as per-set rank permutations — absolute ticks and
//! versions grow monotonically and would never repeat) and compares it
//! against the stored key, so a lookup costs what the memoized walk touched,
//! never what the proof footprint spans. At most one image of a CPU can match
//! (a recording happens only when none did), and images are held in recency
//! order, so a steady state compares its own image first. A placement's key
//! is the frames of the pages the walk reached memory on — a handful of word
//! compares once the image is found. A CPU whose caches match an image with
//! no placement on the live frames — its pages moved, none of their lines
//! was resident — is **retimed**: the image is
//! applied at entry on the frames the pages are in now, and the CPU's thread
//! walks the body against the image's *class stream* (one 2-bit class per
//! access: L1 hit, L2 hit, memory) instead of the machine, adding up the
//! latencies the new homes give ([`Retime`]); the result is kept as one more
//! placement, so a page that ping-pongs hits both ways. Recording is
//! copy-on-write: the machine logs each probed set's pre-image the first time
//! the region reaches it (see `Machine::fp_log_set`), and the exit diff runs
//! over exactly those sets.
//!
//! **Soundness.** The simulator is sequential and deterministic. Caches are
//! virtually tagged, so under the preconditions that gate the engine (no
//! replicas, every proof page mapped, no trace) an eligible CPU's per-access
//! outcomes — its class sequence — are a function of the touched sets' way
//! states (captured up to the exact equivalences the normalization encodes —
//! a non-proof tag can never match a probed proof line and matters only
//! through its LRU rank; absolute versions matter only through freshness) and
//! the directory versions of proof lines (freshness bits, evaluated against
//! the region-entry directory on both the record and the match side), and of
//! nothing else: the frames decide only *where* a memory access is counted
//! and what it costs. Identical image key ⇒ identical class sequence ⇒ the
//! image reconstructs the exact cache, directory and hit-count state
//! line-by-line execution would have produced, and its per-page access
//! counts land on whatever frames the pages are in (counter bulk adds land
//! exact final values including overflow spills because the counters are
//! never read in-region). What is left is time. `stall_by_node`,
//! `accesses_by_node` and local/remote are per-home counts re-bucketed, but
//! `CpuRegionAccount::stall_ns` is an in-order `f64` sum of cache and memory
//! latencies whose rounding depends on the order of the addends, so it cannot
//! be rebuilt from counts: the retime walk performs the same adds in the same
//! order and therefore lands the same bits — non-integer latencies included —
//! and a placement stores them for the frames they were summed under.
//! Bit-identical f64s survive the fold into cumulative stats because region
//! stall/compute time is staged in per-region accounts and folded once per
//! region (see `Machine::end_region`). Apply order mirrors execution:
//! replayed and retimed threads' directory bumps land before any cache fix-up
//! reads versions back, and a live thread can never observe a replayed
//! thread's lines (or vice versa) by eligibility.
//!
//! **Labels.** A region meets its proof by its `"phase/loop"` label and by
//! nothing else. A label may name several region instances (one loop run
//! many times per iteration, its cold-start and timed copies); it has a pool
//! only if every instance derived the same proof ([`ProofTable::fold`]), so
//! one instance's memo is never replayed for another. A label without a
//! pool runs exactly. A folded table is immutable and its proofs sit behind
//! `Arc`s: any number of engines install the same table, none copies a
//! line vector.
//!
//! **The memo library.** An engine may share memos with the other engines
//! of its process through a [`MemoLibrary`]: a named run's, keyed by the
//! proof set it installed and its machine's configuration (compared by
//! value), and within that by proof, thread and bound CPU. A CPU whose own
//! images all miss looks there before it records, and an engine publishes
//! what it records and retimes until its machine's first page migration —
//! the prefix every run of the key shares, because caches are virtually
//! tagged and a placement only chooses frames. An image is an immutable
//! [`Arc`]'d core once built; its placements stay per engine, and the
//! library's copies behind its lock, which is taken once per region that
//! misses or publishes. A library lives while an engine holds it, and the
//! last one an engine released lives on until another is released.
//!
//! **Fallback.** Every precondition failure — unmapped proof page, active
//! replicas, active trace, team mismatch — returns an empty
//! [`FastpathOutcome`] and the region runs the exact line-by-line path.
//! Recording re-validates the proof at region exit (did the directory move
//! exactly as the full team's claims say? do the reference-counter deltas
//! match the memory accesses the machine logged? did anything outside the
//! footprint change?); a violated contract discards the memos in release
//! builds and fires a `debug_assert!` in debug builds, so a lying proof can
//! degrade performance but never correctness. A retime walk that does not
//! consume its class stream exactly, or reaches memory more or less often
//! than its image says, is the engine's own bug and an `assert!`.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use crate::cache::{SetAssocCache, INVALID_TAG};
use crate::coherence::Directory;
use crate::cpu::CpuId;
use crate::machine::{FpRecording, Machine, MachineConfig};
use crate::memory::FrameId;
use crate::stats::MachineStats;
use crate::{LINE_SHIFT, PAGE_SHIFT};

/// Maximum associativity the fast path handles (normalization scratch
/// buffers are fixed-size; the modeled machines are 2-way).
const MAX_ASSOC: usize = 8;

/// Memo variants kept per (label, team CPU) before LRU eviction — in an
/// engine and in a library alike.
const MAX_VARIANTS: usize = 8;

/// Key tag for an empty way.
const KEY_EMPTY: u64 = u64::MAX;
/// Key tag for a valid line outside the proof's access set. Sound because
/// such a line can never tag-match a probed proof line — it matters only as
/// an eviction victim, which its LRU rank captures. Proof lines are bounded
/// by the virtual address space (≪ 2^40), so the sentinels cannot collide
/// with a real line number.
const KEY_OTHER: u64 = u64::MAX - 1;

/// The `nas`→`ccnuma` contract: a static guarantee, derived from lint's
/// KernelModel, that one parallel region touches exactly `lines` (writing
/// each line the claimed number of times, from the claimed thread) and
/// nothing else, with no line written by one CPU and accessed by another.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProof {
    /// Phase label (`"phase/loop"`); memo pools are shared per label, so the
    /// cold-start and iteration instances of the same loop reuse each other's
    /// recordings.
    pub label: String,
    /// Team size the proof was derived for.
    pub threads: usize,
    /// Every line the region touches, sorted and deduplicated.
    pub lines: Vec<u64>,
    /// `(line, write count, writer thread)`, sorted by line, zero-count
    /// entries omitted. Eligibility guarantees the writer is unique per line.
    pub line_writes: Vec<(u64, u32, u32)>,
    /// Every page the region touches, sorted (derived from `lines`).
    pub pages: Vec<u64>,
}

impl PhaseProof {
    /// Assemble a proof; `lines` must be sorted and unique, `line_writes`
    /// sorted with nonzero counts over a subset of `lines` and writer
    /// threads below `threads`.
    pub fn new(
        label: String,
        threads: usize,
        lines: Vec<u64>,
        line_writes: Vec<(u64, u32, u32)>,
    ) -> Self {
        debug_assert!(threads > 0);
        debug_assert!(lines.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(line_writes.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(line_writes
            .iter()
            .all(|&(l, c, t)| c > 0 && (t as usize) < threads && lines.binary_search(&l).is_ok()));
        let mut pages: Vec<u64> = lines
            .iter()
            .map(|&l| l >> (PAGE_SHIFT - LINE_SHIFT))
            .collect();
        pages.dedup(); // lines sorted => page list sorted
        Self {
            label,
            threads,
            lines,
            line_writes,
            pages,
        }
    }

    /// Claimed total write count of `line` (0 when never written).
    fn writes_of(&self, line: u64) -> u32 {
        match self.line_writes.binary_search_by_key(&line, |e| e.0) {
            Ok(i) => self.line_writes[i].1,
            Err(_) => 0,
        }
    }
}

/// The proofs of one program text by label — what an engine installs.
///
/// A label may name several region instances; a running region finds its
/// proof by label alone, so the label has an entry only when every instance
/// derived the same proof (see [`ProofTable::fold`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProofTable(HashMap<String, Arc<PhaseProof>>);

impl ProofTable {
    /// Fold the region instances of a program text — one `(label, proof)`
    /// each, `None` where none could be derived — into the label table: a
    /// label any of whose instances is `None` or differs from another gets
    /// no entry. Instances handed one allocation (one construct, derived
    /// once) agree by pointer; others are compared by value.
    pub fn fold<P: Into<Arc<PhaseProof>>>(
        instances: impl IntoIterator<Item = (String, Option<P>)>,
    ) -> Self {
        let mut table: HashMap<String, Option<Arc<PhaseProof>>> = HashMap::new();
        for (label, proof) in instances {
            let proof = proof.map(Into::into);
            if let Some(seen) = table.get_mut(&label) {
                let agree = match (&*seen, &proof) {
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
                    _ => false,
                };
                if !agree {
                    *seen = None;
                }
            } else {
                table.insert(label, proof);
            }
        }
        let proven = table
            .into_iter()
            .filter_map(|(label, proof)| Some((label, proof?)));
        Self(proven.collect())
    }

    /// Point every entry that equals `other`'s entry of the same label at
    /// `other`'s allocation, so the two tables hold one copy of what they
    /// have in common (a loop's cold-start and timed instances).
    pub fn share_with(&mut self, other: &ProofTable) {
        for (label, proof) in &mut self.0 {
            match other.0.get(label) {
                Some(theirs) if Arc::ptr_eq(theirs, proof) || theirs == proof => {
                    *proof = Arc::clone(theirs)
                }
                _ => {}
            }
        }
    }
}

/// Engine counters (diagnostics; surfaced by the `omp` runtime and the
/// experiment harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastpathStats {
    /// Regions replayed wholesale (no team CPU missed: each hit a memo or
    /// was retimed).
    pub replays: u64,
    /// Regions that recorded at least one CPU memo.
    pub records: u64,
    /// Regions where at least one CPU missed (each starts a recording).
    pub misses: u64,
    /// Regions rejected by a precondition or a failed exit validation.
    pub rejects: u64,
    /// Individual CPU memo hits (includes the hitters of partial regions).
    pub cpu_replays: u64,
    /// Individual CPU memos recorded.
    pub cpu_records: u64,
    /// Individual CPUs whose caches matched a memo but whose pages had
    /// moved: their walk was re-timed, not re-simulated.
    pub cpu_retimes: u64,
    /// Individual CPU hits and retimes (counted there too) served by the
    /// memo library after the engine's own memos missed: an image another
    /// run recorded.
    pub cpu_borrowed: u64,
    /// Individual CPU misses whose slot held no memo yet.
    pub cpu_misses_cold: u64,
    /// Individual CPU misses where some memo was timed on the frames the
    /// pages are in, and the cache sets disagreed with every memo.
    pub cpu_misses_sets: u64,
    /// Individual CPU misses where the pages had moved and the cache sets
    /// disagreed with every memo too (the move invalidated resident lines).
    pub cpu_misses_frames: u64,
}

/// What the engine did for a region, and what the caller owes it.
///
/// The region effects of every CPU in `replayed` have been applied in bulk:
/// those CPUs must not reach the machine during the region body. Their
/// threads run for the data side only — except a CPU that
/// [`retime_of`](Self::retime_of) has a walk for, whose thread must also
/// hand that walk every access it makes, in order. Every other team CPU
/// executes the exact path. After the body and *before* `end_region` the
/// outcome goes back through [`FastpathEngine::finish_region`]. The cases
/// are values, not variants: the whole team replayed and no recording (no
/// CPU missed), a recording (at least one did), or neither (a precondition
/// failed).
#[derive(Default)]
pub struct FastpathOutcome {
    /// Team CPUs that sit the region out: memo hits and retimed CPUs.
    pub replayed: Vec<CpuId>,
    /// The walks of the retimed CPUs.
    retimed: Vec<Retime>,
    /// Present when some CPU missed and is being recorded.
    record: Option<RecordToken>,
    /// The region's label; set only when there is something to finish.
    label: String,
}

impl FastpathOutcome {
    /// The walk `cpu`'s thread owes its accesses to, if `cpu` is retimed.
    pub fn retime_of(&mut self, cpu: CpuId) -> Option<&mut Retime> {
        self.retimed.iter_mut().find(|r| r.cpu == cpu)
    }
}

/// Access classes of a class stream: what `Machine::touch` resolved an
/// access to.
pub(crate) const CLASS_L1: u8 = 0;
pub(crate) const CLASS_L2: u8 = 1;
pub(crate) const CLASS_MEM: u8 = 2;

/// One 2-bit class per access of one CPU's walk, in walk order, 32 to a
/// word. Filled through `cur`, so a push touches no heap word but every
/// 32nd; read only once [`ClassStream::seal`]ed.
#[derive(Clone, Default)]
pub(crate) struct ClassStream {
    words: Vec<u64>,
    /// The word being filled: classes `len & !31 ..`.
    cur: u64,
    len: usize,
}

impl ClassStream {
    #[inline]
    pub(crate) fn push(&mut self, class: u8) {
        self.cur |= u64::from(class) << ((self.len & 31) * 2);
        self.len += 1;
        if self.len & 31 == 0 {
            self.words.push(std::mem::take(&mut self.cur));
        }
    }

    /// Flush the word being filled, if any, into a vector of exactly the
    /// stream's size: a sealed stream is kept as long as its image, and the
    /// buffer it grew in (up to twice that) goes back whole, for the next
    /// recording to grow in.
    fn seal(&mut self) {
        if self.words.len() * 32 < self.len {
            self.words.push(std::mem::take(&mut self.cur));
        }
        self.words = self.words.as_slice().to_vec();
    }

    /// Class of access `i`; past the end it reads [`CLASS_L1`] (the walk's
    /// exit check compares lengths).
    #[inline]
    fn get(&self, i: usize) -> u8 {
        let word = self.words.get(i >> 5).copied().unwrap_or(0);
        (word >> ((i & 31) * 2)) as u8 & 3
    }
}

/// The frame-dependent numbers of one CPU's walk: what a memory access
/// costs and where it is counted.
#[derive(Clone)]
struct Timing {
    stall_ns: f64,
    stall_by_node: Vec<f64>,
    accesses_by_node: Vec<u64>,
    mem_local: u64,
    mem_remote: u64,
}

/// A retimed CPU's walk: its thread calls [`Retime::touch`] for every access
/// of the region body, in order, in place of `Machine::touch`. The walk
/// probes no cache and writes no directory or counter — the image was
/// applied at entry — it only adds up what `touch` would have returned. It
/// carries what it reads of the machine (latencies, the homes of its pages
/// as the page table had them at entry), so the thread holds one pointer.
pub struct Retime {
    thread: usize,
    cpu: CpuId,
    /// Frames of the image's pages at region entry, in `ImageCore::pages`
    /// order.
    frames: Vec<FrameId>,
    /// Home node by virtual page, for the image's pages; [`NO_HOME`]
    /// elsewhere.
    homes: Vec<u16>,
    /// The image walked, by identity rather than position: its placement
    /// lands on this image, in the run's slot and (while it holds the
    /// image) the library, however other runs reorder or evict.
    image: Arc<ImageCore>,
    pos: usize,
    l1_ns: f64,
    l2_ns: f64,
    /// The CPU's row of the machine's memory-latency table, by home node.
    mem_ns: Vec<f64>,
    node: usize,
    timing: Timing,
}

/// [`Retime::homes`] of a page the image never reached memory on.
const NO_HOME: u16 = u16::MAX;

impl Retime {
    /// Account the next access of the walk, to `vaddr`: the same adds, in
    /// the same order, as `Machine::touch` makes for an access of that
    /// class. Out of line and cold: the call sits in every kernel loop
    /// beside the exact and the data-only lane, and runs for an iteration or
    /// two after a migration.
    #[cold]
    #[inline(never)]
    pub fn touch(&mut self, vaddr: u64) {
        let class = self.image.classes.get(self.pos);
        self.pos += 1;
        let t = &mut self.timing;
        t.stall_ns += match class {
            CLASS_L1 => self.l1_ns,
            CLASS_L2 => self.l2_ns,
            _ => {
                let home = self.homes.get((vaddr >> PAGE_SHIFT) as usize);
                let home = usize::from(home.copied().unwrap_or(NO_HOME));
                let Some(&ns) = self.mem_ns.get(home) else {
                    panic!("a retime walk reached memory on a page its image never did");
                };
                if home == self.node {
                    t.mem_local += 1;
                } else {
                    t.mem_remote += 1;
                }
                t.stall_by_node[home] += ns;
                t.accesses_by_node[home] += 1;
                ns
            }
        };
    }
}

/// Entry snapshot carried from `begin_region_fastpath` to `finish_region`.
struct RecordToken {
    /// `(vpage, frame)` of every proof page at entry.
    frames: Vec<(u64, FrameId)>,
    entry_stats: MachineStats,
    entry_clock_bits: u64,
    /// [`Directory::total_writes`] at region entry, *before* the hitters'
    /// bumps. The exit delta must equal the full team's claimed writes —
    /// an O(1) aggregate check in place of scanning the proof footprint.
    /// Per-line entry versions are not stored: validation makes them
    /// recoverable as `current − claimed` (see `diff_level`).
    entry_dir_writes: u64,
    /// [`RefCounters::total_recorded`] after the hitters' bulk adds; the
    /// exit delta must equal the live threads' logged accesses.
    entry_accesses: u64,
    /// Debug builds only (empty in release): per-proof-line entry versions
    /// and per-(frame, node) counter totals, for the exhaustive footprint
    /// re-validation backing the aggregate checks above.
    key_dir: Vec<u32>,
    entry_counters: Vec<u64>,
    live: Vec<LiveCpu>,
}

/// Entry scalars of one live (recording) team CPU; the cache pre-images come
/// from the machine's copy-on-write recording log.
struct LiveCpu {
    thread: usize,
    cpu: CpuId,
    l1_tick: u64,
    l2_tick: u64,
    /// Entry values of the five integer `CpuStats` fields.
    stats: [u64; 5],
}

/// Per-set key: the touched set indices and their normalized entry states
/// (`assoc × 2` words per set — `(class, rank<<1|fresh)` per way — in
/// `sets` order, which is sorted).
#[derive(Clone, PartialEq)]
struct LevelKey {
    sets: Vec<u32>,
    key: Vec<u64>,
}

/// One CPU's memoized region delta, keyed on the cache state it can
/// observe: everything that holds wherever its pages live. Immutable once
/// built, so engines and libraries share it.
#[derive(Clone)]
struct ImageCore {
    l1: LevelKey,
    l2: LevelKey,
    l1_fix: CacheFix,
    l2_fix: CacheFix,
    /// `(position in proof.pages, accesses)` of every page this CPU reached
    /// memory on, ascending: the reference-counter increments at this CPU's
    /// node, on whatever frame holds the page.
    pages: Vec<(u32, u64)>,
    l1_hits: u64,
    l2_hits: u64,
    coherence_misses: u64,
    /// Exit `compute_ns` and `cache_ns` of the region account.
    compute_ns: f64,
    cache_ns: f64,
    /// The walk's class per access; empty when it never reaches memory (its
    /// one placement, on no frames, always hits).
    classes: ClassStream,
}

impl ImageCore {
    /// Accesses of the walk that reach memory.
    fn memory_accesses(&self) -> u64 {
        self.pages.iter().map(|&(_, count)| count).sum()
    }

    /// Whether `other` is keyed on the same cache state — and so, for the
    /// same proof and CPU, is the same image.
    fn same_key(&self, other: &ImageCore) -> bool {
        self.l1 == other.l1 && self.l2 == other.l2
    }
}

/// A memo: an image and its timing under each frame assignment seen so
/// far, MRU first.
struct Image {
    core: Arc<ImageCore>,
    placements: Vec<Placement>,
}

impl Image {
    /// Position of the placement on the `frames` a region entered with.
    fn on_frames(&self, frames: &[(u64, FrameId)]) -> Option<usize> {
        self.placements.iter().position(|p| {
            let pages = self.core.pages.iter().zip(&p.frames);
            pages
                .into_iter()
                .all(|(&(page, _), &f)| frames[page as usize].1 == f)
        })
    }

    /// Keep `placement` unless one on its frames is held already.
    fn keep_placement(&mut self, placement: Placement) {
        if !self.placements.iter().any(|p| p.frames == placement.frames) {
            keep_mru(&mut self.placements, placement);
        }
    }
}

/// An [`Image`]'s timing with its pages on `frames` (in `ImageCore::pages`
/// order).
#[derive(Clone)]
struct Placement {
    frames: Vec<FrameId>,
    timing: Timing,
}

/// Keep `entry` in front of `entries`. They are held MRU first (a lookup
/// rotates what it finds to the front), so the last one is the least recently
/// used: it goes when [`MAX_VARIANTS`] are held already.
fn keep_mru<T>(entries: &mut Vec<T>, entry: T) {
    entries.truncate(MAX_VARIANTS - 1);
    entries.insert(0, entry);
}

/// How to rebuild one cache's touched sets at region exit.
#[derive(Clone, Default)]
struct CacheFix {
    tick_delta: u64,
    /// `(set, entry LRU rank, new tag, stamp offset from entry tick)`,
    /// sorted by set. The target way is addressed by its *rank at region
    /// entry*, not its index: the simulator's per-set behaviour is invariant
    /// under way permutation (probes scan all ways; victim selection goes by
    /// stamp), so keys are canonicalized to rank order and a memo recorded
    /// against one way layout replays onto any rank-equivalent layout — the
    /// fix lands on the live way holding the same rank. Stamp offset 0 means
    /// "keep the way's current stamp" (version-only refresh); real restamps
    /// always have offset ≥ 1 because new stamps come from ticks issued
    /// after entry. The new version is *not* stored: it is read from the
    /// directory at apply time (after the bulk bumps), which is exactly
    /// where line-by-line execution gets it.
    fixes: Vec<(u32, u8, u64, u64)>,
}

/// Dense proof-line membership bitmap (bit `line & 63` of word `line >> 6`)
/// — match-time tag classification in O(1) instead of a binary search over
/// the (possibly huge) footprint.
#[derive(Default)]
struct LineSet(Vec<u64>);

impl LineSet {
    /// The set of `lines` (sorted); sized by the last of them.
    fn of(lines: &[u64]) -> Self {
        let words = lines.last().map_or(0, |&l| (l >> 6) as usize + 1);
        let mut bits = vec![0u64; words];
        for &l in lines {
            bits[(l >> 6) as usize] |= 1 << (l & 63);
        }
        Self(bits)
    }

    #[inline]
    fn contains(&self, tag: u64) -> bool {
        self.0
            .get((tag >> 6) as usize)
            .is_some_and(|w| w >> (tag & 63) & 1 != 0)
    }
}

/// Per-label pool: the proof every instance of the label derived, per-thread
/// write claims, and one memo slot per team thread.
struct Pool {
    proof: Arc<PhaseProof>,
    /// The proof's lines, built at the first region entry that finds every
    /// proof page mapped: from then on the bitmap is bounded by the
    /// machine's virtual address space, not by what the proof claims, and a
    /// pool that is never admitted never has one.
    lines: LineSet,
    /// `(line, count)` write claims indexed by thread.
    writes_by_thread: Vec<Vec<(u64, u32)>>,
    /// Sum of all claimed write counts — the full team's directory traffic
    /// per region, validated against [`Directory::total_writes`] in O(1).
    claimed_writes: u64,
    /// Indexed by thread; holds that thread's bound CPU and its images.
    slots: Vec<CpuSlot>,
}

struct CpuSlot {
    cpu: CpuId,
    /// MRU first.
    images: Vec<Image>,
}

impl Pool {
    fn new(proof: Arc<PhaseProof>) -> Self {
        let mut writes_by_thread = vec![Vec::new(); proof.threads];
        for &(line, count, writer) in &proof.line_writes {
            writes_by_thread[writer as usize].push((line, count));
        }
        let claimed_writes = proof
            .line_writes
            .iter()
            .map(|&(_, c, _)| u64::from(c))
            .sum();
        Self {
            proof,
            lines: LineSet::default(),
            writes_by_thread,
            claimed_writes,
            slots: Vec::new(),
        }
    }

    /// The key of `thread`'s slot in a library.
    fn slot_key(&self, thread: usize) -> (usize, usize, CpuId) {
        let proof = Arc::as_ptr(&self.proof) as usize;
        (proof, thread, self.slots[thread].cpu)
    }

    /// `thread`'s images in a library's `slots`, created empty.
    fn shelf<'a>(&self, slots: &'a mut Slots, thread: usize) -> &'a mut Vec<Image> {
        let entry = slots.entry(self.slot_key(thread));
        &mut entry
            .or_insert_with(|| (Arc::clone(&self.proof), Vec::new()))
            .1
    }

    /// Realign the per-thread slots with the current binding; a rebound
    /// thread drops its images (they key another CPU's caches).
    fn align_slots(&mut self, binding: &[CpuId]) {
        if self.slots.len() != binding.len() {
            self.slots = binding
                .iter()
                .map(|&cpu| CpuSlot {
                    cpu,
                    images: Vec::new(),
                })
                .collect();
            return;
        }
        for (slot, &cpu) in self.slots.iter_mut().zip(binding) {
            if slot.cpu != cpu {
                slot.cpu = cpu;
                slot.images.clear();
            }
        }
    }
}

/// A process-wide memo library: the images the engines of one key have
/// published, and where each has been timed. The key is an *owner* — the
/// proof set the engines install, compared by identity — and the machine
/// configuration, compared by value; within a library, images are held per
/// (proof, thread, bound CPU), at most [`MAX_VARIANTS`] each, MRU first.
///
/// A handle is what an engine holds ([`FastpathEngine::install`]). The
/// library lives while an engine holds it, and the one an engine released
/// last lives on until another engine releases one: enough for the next
/// run of a key to find the previous run's memos, and never more than one
/// library nobody runs. There is no capacity to set.
#[derive(Clone)]
pub struct MemoLibrary(Arc<Shelf>);

/// What a [`MemoLibrary`] handle points at.
struct Shelf {
    /// Held, so its address names the key for as long as the library lives.
    owner: Arc<dyn Any + Send + Sync>,
    config: MachineConfig,
    slots: Mutex<Slots>,
}

/// `(proof address, thread, CPU)` → the proof (held, so its address names
/// it while the entry lives) and its images.
type Slots = HashMap<(usize, usize, CpuId), (Arc<PhaseProof>, Vec<Image>)>;

/// Every library of the process that some holder keeps alive.
static LIBRARIES: Mutex<Vec<Weak<Shelf>>> = Mutex::new(Vec::new());
/// The library an engine released last.
static RELEASED: Mutex<Option<Arc<Shelf>>> = Mutex::new(None);

/// Every update of a library's state leaves it valid at every step (images
/// are immutable; a list insert, rotation or truncation is whole), so a lock
/// a panicking thread poisoned is taken as it stands — and a release runs in
/// `Drop`, which must not panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What memo libraries hold ([`library_stats`], [`MemoLibrary::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LibraryStats {
    /// Libraries alive.
    pub libraries: usize,
    /// Images held.
    pub images: usize,
    /// Bytes of class stream the images hold.
    pub class_bytes: usize,
}

impl MemoLibrary {
    /// The library of the engines that install `owner`'s proofs on a
    /// machine configured as `config`: the one alive, or a new one.
    pub fn of<K: Send + Sync + 'static>(owner: &Arc<K>, config: &MachineConfig) -> Self {
        let mut libraries = lock(&LIBRARIES);
        libraries.retain(|shelf| shelf.strong_count() > 0);
        let held = libraries.iter().filter_map(Weak::upgrade).find(|shelf| {
            std::ptr::addr_eq(Arc::as_ptr(&shelf.owner), Arc::as_ptr(owner))
                && shelf.config == *config
        });
        Self(held.unwrap_or_else(|| {
            let owner: Arc<dyn Any + Send + Sync> = owner.clone();
            let shelf = Arc::new(Shelf {
                owner,
                config: config.clone(),
                slots: Mutex::default(),
            });
            libraries.push(Arc::downgrade(&shelf));
            shelf
        }))
    }

    /// What this library holds.
    pub fn stats(&self) -> LibraryStats {
        let slots = lock(&self.0.slots);
        let images: Vec<&Image> = slots.values().flat_map(|(_, images)| images).collect();
        LibraryStats {
            libraries: 1,
            images: images.len(),
            class_bytes: images.iter().map(|i| i.core.classes.words.len() * 8).sum(),
        }
    }

    /// Keep this library alive as the one released last; the one that was
    /// goes, unless an engine holds it. A library the releasing engine was
    /// the last to hold is first copied into fresh allocations: its images
    /// were allocated among the runs' own memory, and a library that
    /// outlives its runs must not pin the heap they freed around it (a
    /// `sweep-served` pass after a cold pass read +22 % without the copy).
    fn release(self) {
        let mut released = lock(&RELEASED);
        let retained = released.as_ref().is_some_and(|r| Arc::ptr_eq(r, &self.0));
        if Arc::strong_count(&self.0) == 1 + usize::from(retained) {
            for (_, images) in lock(&self.0.slots).values_mut() {
                for image in images {
                    image.core = Arc::new(ImageCore::clone(&image.core));
                }
            }
        }
        let previous = released.replace(self.0);
        drop(released);
        drop(previous);
    }

    /// Serve each CPU of `pool` whose `lanes` entry is still open from the
    /// library's images of its slot, copying what served it into the slot.
    fn lend(
        &self,
        m: &Machine,
        pool: &mut Pool,
        lanes: &mut [Option<Lane>],
        frames: &[(u64, FrameId)],
        stats: &mut FastpathStats,
    ) {
        let mut slots = lock(&self.0.slots);
        for (t, lane) in lanes.iter_mut().enumerate() {
            if lane.is_some() {
                continue;
            }
            let Some((_, held)) = slots.get_mut(&pool.slot_key(t)) else {
                continue;
            };
            let slot = &mut pool.slots[t];
            let Some(found) = find(m, slot.cpu, held, &pool.lines, frames) else {
                continue;
            };
            let image = &held[0];
            let placements = match found {
                Lane::Hit => vec![image.placements[0].clone()],
                _ => Vec::new(),
            };
            let core = Arc::clone(&image.core);
            keep_mru(&mut slot.images, Image { core, placements });
            *lane = Some(found);
            stats.cpu_borrowed += 1;
        }
    }

    /// Shelve what one region of `pool` timed: the placements of retime
    /// walks (`(thread, image, placement)`), on their images while the
    /// library holds them, and the `recorded` images. A recorded image
    /// keyed like one held keeps the held one, and the engine is handed its
    /// core to hold instead of its own copy.
    fn publish(
        &self,
        pool: &Pool,
        timed: &[(usize, Arc<ImageCore>, Placement)],
        recorded: &mut [(usize, Image)],
    ) {
        let mut slots = lock(&self.0.slots);
        for (thread, core, placement) in timed {
            let held = pool.shelf(&mut slots, *thread);
            if let Some(image) = held.iter_mut().find(|h| Arc::ptr_eq(&h.core, core)) {
                image.keep_placement(placement.clone());
            }
        }
        for (thread, image) in recorded {
            let held = pool.shelf(&mut slots, *thread);
            match held.iter_mut().find(|h| h.core.same_key(&image.core)) {
                Some(twin) => {
                    debug_assert!(twin.core.pages == image.core.pages, "equal keys, one walk");
                    twin.keep_placement(image.placements[0].clone());
                    image.core = Arc::clone(&twin.core);
                }
                None => keep_mru(
                    held,
                    Image {
                        core: Arc::clone(&image.core),
                        placements: image.placements.clone(),
                    },
                ),
            }
        }
    }
}

/// What every memo library of the process holds, summed.
pub fn library_stats() -> LibraryStats {
    let libraries: Vec<_> = lock(&LIBRARIES).iter().filter_map(Weak::upgrade).collect();
    let each = libraries
        .into_iter()
        .map(|shelf| MemoLibrary(shelf).stats());
    each.fold(LibraryStats::default(), |a, b| LibraryStats {
        libraries: a.libraries + b.libraries,
        images: a.images + b.images,
        class_bytes: a.class_bytes + b.class_bytes,
    })
}

/// The memoization engine. One per `omp` runtime (it is tied to one machine's
/// geometry through its memos).
#[derive(Default)]
pub struct FastpathEngine {
    pools: HashMap<String, Pool>,
    stats: FastpathStats,
    /// Where the engine borrows memos from and publishes them to, if it
    /// shares any.
    library: Option<MemoLibrary>,
    /// Working table of the recording exit pass: each frame's proof page
    /// ([`NO_PAGE`] between recordings), sized to the machine once.
    frame_page: Vec<u32>,
}

impl Drop for FastpathEngine {
    /// An engine that goes releases its library.
    fn drop(&mut self) {
        if let Some(library) = self.library.take() {
            library.release();
        }
    }
}

/// What a team CPU does in a region the engine admitted.
#[derive(Clone, Copy, PartialEq)]
enum Lane {
    /// Its front image hit under its front placement.
    Hit,
    /// Its front image's sets match; the pages are on frames it has no
    /// placement for.
    Retime,
    /// No image matches: exact path, recorded.
    Live,
}

impl FastpathEngine {
    /// Fresh engine with empty pools.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the proofs of a program text. The table replaces the pools: a
    /// label whose proof equals the one its pool already holds keeps its
    /// memos (cold-start recordings seed the timed iterations), every other
    /// pool starts empty or is gone. A pool shares the table's proof.
    /// `library`, when given, is where the engine borrows and publishes
    /// memos from now on: the library of the proof set `table` comes from
    /// (see [`MemoLibrary::of`]).
    pub fn install(&mut self, table: &ProofTable, library: Option<&MemoLibrary>) {
        self.library = library.cloned();
        let mut old = std::mem::take(&mut self.pools);
        for (label, proof) in &table.0 {
            let pool = match old.remove(label) {
                Some(pool) if Arc::ptr_eq(&pool.proof, proof) || pool.proof == *proof => pool,
                _ => Pool::new(Arc::clone(proof)),
            };
            self.pools.insert(label.clone(), pool);
        }
    }

    /// Engine counters so far.
    pub fn stats(&self) -> FastpathStats {
        self.stats
    }

    /// Consult the engine for the region named `label`, about to run on the
    /// team `binding` (CPU of thread 0, 1, …). Must be called between
    /// `begin_region` and the region body. See [`FastpathOutcome`] for the
    /// caller's obligations. A label with no pool is none of the engine's
    /// business: the region runs exactly and nothing is counted.
    pub fn begin_region_fastpath(
        &mut self,
        m: &mut Machine,
        label: &str,
        binding: &[CpuId],
    ) -> FastpathOutcome {
        let _hp = hostprof::span_hot("ccnuma.fastpath");
        let Some(pool) = self.pools.get_mut(label) else {
            return Default::default();
        };
        if binding.len() != pool.proof.threads
            || !m.replicas.is_empty()
            || m.trace_mut().is_active()
            || m.cpus[0].l1.assoc() > MAX_ASSOC
            || m.cpus[0].l2.assoc() > MAX_ASSOC
        {
            self.stats.rejects += 1;
            return Default::default();
        }
        // Every proof page must already be mapped (a fault mid-region would
        // consult the placement policy, which the replay could not reproduce).
        let mut frames = Vec::with_capacity(pool.proof.pages.len());
        for &vp in &pool.proof.pages {
            match m.page_table.get(vp as usize).copied().flatten() {
                Some(f) => frames.push((vp, f)),
                None => {
                    self.stats.rejects += 1;
                    return Default::default();
                }
            }
        }
        if pool.lines.0.is_empty() {
            pool.lines = LineSet::of(&pool.proof.lines);
        }
        pool.align_slots(binding);

        // Per-CPU lookup — all *before* any effect is applied, so every
        // check reads true region-entry state: the CPU's own images, then
        // the library's, then a miss counted by what disagreed.
        let stats = &mut self.stats;
        let mut found: Vec<Option<Lane>> = (pool.slots.iter_mut())
            .map(|slot| find(m, slot.cpu, &mut slot.images, &pool.lines, &frames))
            .collect();
        if let Some(library) = self.library.as_ref().filter(|_| found.contains(&None)) {
            library.lend(m, pool, &mut found, &frames, stats);
        }
        let lanes = found.iter().zip(&pool.slots).map(|(&lane, slot)| {
            lane.unwrap_or_else(|| {
                count_miss(slot, &frames, stats);
                Lane::Live
            })
        });
        let lanes: Vec<Lane> = lanes.collect();
        let live_cpus = lanes.iter().filter(|&&lane| lane == Lane::Live).count();

        // Aggregate snapshot *before* the bumps; debug builds also take the
        // full per-line snapshot the exhaustive check diffs against.
        let entry_dir_writes = m.directory.total_writes();
        let key_dir: Vec<u32> = if cfg!(debug_assertions) && live_cpus > 0 {
            let lines = pool.proof.lines.iter();
            lines.map(|&l| m.directory.version(l)).collect()
        } else {
            Vec::new()
        };
        let mut outcome = apply_lanes(m, pool, &lanes, &frames);
        let retimes = outcome.retimed.len();
        stats.cpu_retimes += retimes as u64;
        stats.cpu_replays += (outcome.replayed.len() - retimes) as u64;
        if retimes > 0 || live_cpus > 0 {
            outcome.label = label.to_string();
        }
        if live_cpus == 0 {
            stats.replays += 1;
            return outcome;
        }
        stats.misses += 1;

        // Counter snapshots *after* the applied effects so the exit diff
        // isolates the live threads (whose accesses the mem log attributes).
        let entry_accesses = m.counters.total_recorded();
        let mut entry_counters = Vec::new();
        if cfg!(debug_assertions) {
            let nodes = m.config.topology.nodes();
            entry_counters.reserve(frames.len() * nodes);
            for &(_, frame) in &frames {
                for node in 0..nodes {
                    entry_counters.push(m.counters.get(frame, node));
                }
            }
        }
        let mut live = Vec::with_capacity(live_cpus);
        for (t, _) in lanes.iter().enumerate().filter(|(_, &l)| l == Lane::Live) {
            let cpu = binding[t];
            let ctx = &m.cpus[cpu];
            live.push(LiveCpu {
                thread: t,
                cpu,
                l1_tick: ctx.l1.tick(),
                l2_tick: ctx.l2.tick(),
                stats: int_stats(m, cpu),
            });
        }
        m.fp_begin_recording();
        outcome.record = Some(RecordToken {
            frames,
            entry_stats: m.stats,
            entry_clock_bits: m.clock.now_ns().to_bits(),
            entry_dir_writes,
            entry_accesses,
            key_dir,
            entry_counters,
            live,
        });
        outcome
    }

    /// Finish the region `outcome` came from. Must be called after the body
    /// and *before* `end_region` (the recording's entry/exit diff needs the
    /// still-open region state). Every retimed CPU's walk is checked — always
    /// on — landed in its account and statistics, and kept as one more
    /// placement of its image; a recording is validated (did the region
    /// behave exactly as the proof claims?) and stored, one memo per live
    /// CPU. Until the machine's first page migration, both are published to
    /// the engine's library too.
    pub fn finish_region(&mut self, m: &mut Machine, outcome: FastpathOutcome) {
        if outcome.retimed.is_empty() && outcome.record.is_none() {
            return;
        }
        let _hp = hostprof::span_hot("ccnuma.fastpath");
        let rec = m.fp_take_recording().unwrap_or_default();
        let pool = self.pools.get_mut(&outcome.label);
        let pool = pool.expect("no install runs inside a region");
        let mut timed = Vec::with_capacity(outcome.retimed.len());
        for walk in outcome.retimed {
            assert_eq!(
                (walk.pos, walk.timing.mem_local + walk.timing.mem_remote),
                (walk.image.classes.len, walk.image.memory_accesses()),
                "{}: cpu {}'s retime walk (accesses, of them memory) left its image's",
                outcome.label,
                walk.cpu,
            );
            land_timing(m, walk.cpu, &walk.timing);
            let placement = Placement {
                frames: walk.frames,
                timing: walk.timing,
            };
            timed.push((walk.thread, walk.image, placement));
        }
        let mut recorded = Vec::new();
        if let Some(token) = outcome.record {
            match build_images(m, pool, &token, rec, &mut self.frame_page) {
                Some(images) => {
                    self.stats.records += 1;
                    self.stats.cpu_records += images.len() as u64;
                    recorded = images;
                }
                None => self.stats.rejects += 1,
            }
        }
        // Until the first migration, every run of the key walks this prefix.
        if let Some(library) = self.library.as_ref() {
            if m.stats.page_migrations == 0 {
                library.publish(pool, &timed, &mut recorded);
            }
        }
        for (thread, core, placement) in timed {
            let images = &mut pool.slots[thread].images;
            let image = images.iter_mut().find(|i| Arc::ptr_eq(&i.core, &core));
            let image = image.expect("a retimed image stays in its slot for the region");
            image.keep_placement(placement);
        }
        for (thread, image) in recorded {
            keep_mru(&mut pool.slots[thread].images, image);
        }
    }
}

/// The lane `images` give `cpu` in the region. At most one image can match
/// the live sets (a recording happens only when none did, and a library
/// keeps one image per key): with a placement on the live frames it is a
/// hit, without one it is retimed; `None` when none matches. The image (and
/// placement) found rotates to the front, so images stay in recency order:
/// the steady-state memo is compared first (stale keys can share long
/// prefixes with the live state before diverging) and the last one is the
/// eviction victim.
fn find(
    m: &Machine,
    cpu: CpuId,
    images: &mut [Image],
    lines: &LineSet,
    frames: &[(u64, FrameId)],
) -> Option<Lane> {
    let ctx = &m.cpus[cpu];
    let i = images.iter().position(|image| {
        level_matches(&ctx.l1, &image.core.l1, lines, &m.directory)
            && level_matches(&ctx.l2, &image.core.l2, lines, &m.directory)
    })?;
    images[..=i].rotate_right(1);
    let image = &mut images[0];
    let Some(p) = image.on_frames(frames) else {
        return Some(Lane::Retime);
    };
    image.placements[..=p].rotate_right(1);
    Some(Lane::Hit)
}

/// Count a miss of `slot`'s CPU by what disagreed: no image yet, the sets
/// (some image is timed on the live frames), or the frames as well.
fn count_miss(slot: &CpuSlot, frames: &[(u64, FrameId)], stats: &mut FastpathStats) {
    if slot.images.is_empty() {
        stats.cpu_misses_cold += 1;
    } else if slot
        .images
        .iter()
        .any(|image| image.on_frames(frames).is_some())
    {
        stats.cpu_misses_sets += 1;
    } else {
        stats.cpu_misses_frames += 1;
    }
}

/// Apply the front image of every CPU that sits the region out: directory
/// bumps for all of them first (cache fix-ups read the post-region
/// versions), then per-CPU state — a hitter's with its front placement's
/// timing, a retimed CPU's without (its walk lands that at region exit). A
/// live thread cannot observe any of this by eligibility.
fn apply_lanes(
    m: &mut Machine,
    pool: &mut Pool,
    lanes: &[Lane],
    frames: &[(u64, FrameId)],
) -> FastpathOutcome {
    for (t, _) in lanes.iter().enumerate().filter(|(_, &l)| l != Lane::Live) {
        for &(line, k) in &pool.writes_by_thread[t] {
            m.directory.bump(line, k);
        }
    }
    let mut outcome: FastpathOutcome = Default::default();
    for (t, &lane) in lanes.iter().enumerate() {
        if lane == Lane::Live {
            continue;
        }
        let slot = &mut pool.slots[t];
        let Image { core, placements } = &slot.images[0];
        apply_image(m, slot.cpu, core, frames);
        outcome.replayed.push(slot.cpu);
        if lane == Lane::Hit {
            land_timing(m, slot.cpu, &placements[0].timing);
            continue;
        }
        let nodes = m.config.topology.nodes();
        let node = m.cpus[slot.cpu].node;
        let mut homes = vec![NO_HOME; m.page_table.len()];
        let mut on = Vec::with_capacity(core.pages.len());
        for &(page, _) in &core.pages {
            let (vpage, frame) = frames[page as usize];
            homes[vpage as usize] = m.memory.node_of_frame(frame) as u16;
            on.push(frame);
        }
        outcome.retimed.push(Retime {
            thread: t,
            cpu: slot.cpu,
            frames: on,
            homes,
            image: Arc::clone(core),
            pos: 0,
            l1_ns: m.config.latency.l1_ns,
            l2_ns: m.config.latency.l2_ns,
            mem_ns: m.mem_ns[node * nodes..][..nodes].to_vec(),
            node,
            timing: Timing {
                stall_ns: 0.0,
                stall_by_node: vec![0.0; nodes],
                accesses_by_node: vec![0; nodes],
                mem_local: 0,
                mem_remote: 0,
            },
        });
    }
    outcome
}

/// LRU rank of each way by `(stamp, way index)` — the exact order the fill
/// victim scan resolves ties in (strict `<`, first index wins). Valid ways
/// have unique stamps (they come from unique ticks), so ranks identify ways
/// unambiguously; empty ways tie on stamp 0 and rank in index order, which
/// is also the order fills consume them in.
#[inline]
fn way_ranks(ways: &[(u64, u32, u64)]) -> [u8; MAX_ASSOC] {
    let assoc = ways.len();
    let mut rank = [0u8; MAX_ASSOC];
    for w in 0..assoc {
        for o in 0..assoc {
            if ways[o].2 < ways[w].2 || (ways[o].2 == ways[w].2 && o < w) {
                rank[w] += 1;
            }
        }
    }
    rank
}

/// Normalize one set's raw ways into key words: `(class, fresh)` per way,
/// written in **LRU rank order** — the key is therefore invariant under way
/// permutation, which the simulator's per-set behaviour also is (probes scan
/// every way for a tag match; fills pick victims by stamp, reusing empties
/// in rank order). `classify` maps a *valid* tag and its cached version to
/// the `(class, fresh)` pair — proof lines keep their tag and a freshness
/// bit judged against the region-entry directory, everything else collapses
/// to [`KEY_OTHER`].
/// Permutation-invariance has two index-ordered exceptions, both requiring
/// states only invalidations (page migrations) can produce. A probe returns
/// the *first* way whose tag matches, so duplicate tags (a stale copy
/// shadowed by a refill into an empty way) make the outcome depend on way
/// order. And a fill reuses the first same-tag-**or**-empty way by index, so
/// a set holding both an empty way and a proof line resolves the choice by
/// position. For such sets the key also pins each way's physical index, so
/// only a layout-identical live set matches.
#[inline]
fn needs_index_pin(ways: &[(u64, u32, u64)], classes: &[u64; MAX_ASSOC]) -> bool {
    let assoc = ways.len();
    let mut empty = false;
    let mut proof = false;
    for w in 0..assoc {
        empty |= classes[w] == KEY_EMPTY;
        proof |= classes[w] < KEY_OTHER;
        for o in w + 1..assoc {
            if ways[w].0 != INVALID_TAG && ways[w].0 == ways[o].0 {
                return true;
            }
        }
    }
    empty && proof
}

#[inline]
fn norm_ways(
    ways: &[(u64, u32, u64)],
    mut classify: impl FnMut(u64, u32) -> (u64, u64),
    out: &mut [u64],
) {
    let assoc = ways.len();
    let ranks = way_ranks(ways);
    let mut classes = [0u64; MAX_ASSOC];
    let mut freshes = [0u64; MAX_ASSOC];
    for w in 0..assoc {
        let (tag, version, _) = ways[w];
        let (class, fresh) = if tag == INVALID_TAG {
            (KEY_EMPTY, 0)
        } else {
            classify(tag, version)
        };
        classes[w] = class;
        freshes[w] = fresh;
    }
    let pin = needs_index_pin(ways, &classes);
    for w in 0..assoc {
        let r = ranks[w] as usize;
        out[r * 2] = classes[w];
        out[r * 2 + 1] = freshes[w] | if pin { (w as u64 + 1) << 8 } else { 0 };
    }
}

/// Whether one cache level of the live machine normalizes to an image's
/// key on every set the image's walk touched.
fn level_matches(cache: &SetAssocCache, lk: &LevelKey, lines: &LineSet, dir: &Directory) -> bool {
    let assoc = cache.assoc();
    let w2 = assoc * 2;
    let mut ways = [(0u64, 0u32, 0u64); MAX_ASSOC];
    let mut out = [0u64; 2 * MAX_ASSOC];
    for (nth, &set) in lk.sets.iter().enumerate() {
        let base = set as usize * assoc;
        for (w, slot) in ways[..assoc].iter_mut().enumerate() {
            *slot = cache.way(base + w);
        }
        norm_ways(
            &ways[..assoc],
            |t, v| {
                if lines.contains(t) {
                    (t, u64::from(v == dir.version(t)))
                } else {
                    (KEY_OTHER, 0)
                }
            },
            &mut out,
        );
        if out[..w2] != lk.key[nth * w2..][..w2] {
            return false;
        }
    }
    true
}

/// Apply what one CPU's image says wherever its pages live: counters (on
/// the frames the pages are in now), caches, hit counts, compute and cache
/// time. (Directory bumps are applied by the caller for the whole team
/// first; the frame-dependent rest is [`land_timing`]'s.)
fn apply_image(m: &mut Machine, cpu: CpuId, image: &ImageCore, frames: &[(u64, FrameId)]) {
    let node = m.cpus[cpu].node;
    for &(page, count) in &image.pages {
        m.counters.bulk_add(frames[page as usize].1, node, count);
    }
    let ctx = &mut m.cpus[cpu];
    apply_cache(&mut ctx.l1, &image.l1_fix, &m.directory);
    apply_cache(&mut ctx.l2, &image.l2_fix, &m.directory);
    ctx.stats.l1_hits += image.l1_hits;
    ctx.stats.l2_hits += image.l2_hits;
    ctx.stats.coherence_misses += image.coherence_misses;
    ctx.account.compute_ns = image.compute_ns;
    ctx.account.cache_ns = image.cache_ns;
}

/// Land the frame-dependent numbers of one CPU's walk in its region account
/// (folded by `end_region`) and statistics.
fn land_timing(m: &mut Machine, cpu: CpuId, timing: &Timing) {
    let ctx = &mut m.cpus[cpu];
    ctx.stats.mem_local += timing.mem_local;
    ctx.stats.mem_remote += timing.mem_remote;
    ctx.account.stall_ns = timing.stall_ns;
    ctx.account.stall_by_node.clone_from(&timing.stall_by_node);
    ctx.account
        .accesses_by_node
        .clone_from(&timing.accesses_by_node);
}

fn int_stats(m: &Machine, cpu: CpuId) -> [u64; 5] {
    let s = &m.cpus[cpu].stats;
    [
        s.l1_hits,
        s.l2_hits,
        s.mem_local,
        s.mem_remote,
        s.coherence_misses,
    ]
}

/// `frame_page` entry of a frame outside the footprint being recorded.
const NO_PAGE: u32 = u32::MAX;

/// Diff exit state against the entry token; `None` discards the recording.
/// `frame_page` is the engine's working table: proof page by frame.
fn build_images(
    m: &Machine,
    pool: &Pool,
    token: &RecordToken,
    mut rec: FpRecording,
    frame_page: &mut Vec<u32>,
) -> Option<Vec<(usize, Image)>> {
    let proof = &*pool.proof;
    // Environmental checks first (silent discard): these can fail without the
    // proof being wrong — e.g. an explicit mid-region page operation.
    if m.stats != token.entry_stats
        || m.clock.now_ns().to_bits() != token.entry_clock_bits
        || !m.replicas.is_empty()
    {
        return None;
    }
    for &(vp, f) in &token.frames {
        if m.page_table[vp as usize] != Some(f) {
            return None;
        }
    }
    // Contract checks: a failure here means the PhaseProof lied about the
    // region's footprint. The always-on checks are O(1) aggregates plus
    // O(touched) membership; debug builds back them with exhaustive
    // footprint scans (the `debug_assert` re-validation of the contract).
    //
    // Relative to the pre-apply snapshot, the directory's global write
    // total must have moved by exactly the full team's claims — the
    // hitters' bumps were applied verbatim, so any disagreement (an extra
    // write anywhere in the machine, or a missing one) is the live
    // threads'. This also pins every proof line's entry version to
    // `current − claimed`, which `diff_level` relies on to rebuild
    // record-time key freshness without a per-line snapshot.
    let dir_delta = m
        .directory
        .total_writes()
        .wrapping_sub(token.entry_dir_writes);
    if dir_delta != pool.claimed_writes {
        debug_assert!(
            false,
            "PhaseProof {:?}: region wrote {dir_delta} lines, proof claims {}",
            proof.label, pool.claimed_writes,
        );
        return None;
    }
    if cfg!(debug_assertions) {
        for (i, &line) in proof.lines.iter().enumerate() {
            let delta = m.directory.version(line).wrapping_sub(token.key_dir[i]);
            let claimed = proof.writes_of(line);
            debug_assert!(
                delta == claimed,
                "PhaseProof {:?}: line {line} saw {delta} writes, proof claims {claimed}",
                proof.label,
            );
        }
    }
    // The counters' global total must have moved by exactly the accesses
    // the machine logged for the live threads, and every logged access must
    // land inside the proof's page footprint.
    let acc_delta = m
        .counters
        .total_recorded()
        .wrapping_sub(token.entry_accesses);
    if acc_delta != rec.mem_log.len() as u64 {
        debug_assert!(
            false,
            "PhaseProof {:?}: counters moved {acc_delta}, log has {}",
            proof.label,
            rec.mem_log.len(),
        );
        return None;
    }
    // One pass over the log: every access must land inside the proof's page
    // footprint, and each live CPU's accesses are counted per proof page
    // (`hits[slot * pages + page]`). A CPU streams through a page line by
    // line, so most entries repeat the previous entry's frame; a stencil
    // changes frame on nearly every one, so the frame's page is an index,
    // not a hash. `frame_page` is all `NO_PAGE` between calls: the
    // footprint's entries are set here and cleared before any return.
    if frame_page.len() < m.memory.total_frames() {
        frame_page.resize(m.memory.total_frames(), NO_PAGE);
    }
    for (pi, &(_, frame)) in token.frames.iter().enumerate() {
        frame_page[frame] = pi as u32;
    }
    let pages = token.frames.len();
    let mut live_slot = vec![usize::MAX; m.cpus.len()];
    for (slot, lc) in token.live.iter().enumerate() {
        live_slot[lc.cpu] = slot;
    }
    let mut hits = vec![0u64; token.live.len() * pages];
    let mut last = (u32::MAX, 0usize);
    let mut outside = None;
    for &(cpu, frame) in &rec.mem_log {
        if frame != last.0 {
            let pi = frame_page.get(frame as usize).copied().unwrap_or(NO_PAGE);
            if pi == NO_PAGE {
                outside = Some(frame);
                break;
            }
            last = (frame, pi as usize);
        }
        let slot = live_slot[cpu as usize];
        if slot != usize::MAX {
            hits[slot * pages + last.1] += 1;
        }
    }
    for &(_, frame) in &token.frames {
        frame_page[frame] = NO_PAGE;
    }
    if let Some(frame) = outside {
        debug_assert!(
            false,
            "PhaseProof {:?}: memory access outside the proof footprint (frame {frame})",
            proof.label,
        );
        return None;
    }
    if cfg!(debug_assertions) {
        // Exhaustive per-(frame, node) re-validation of the aggregate check.
        let nodes = m.config.topology.nodes();
        let mut logged: BTreeMap<(FrameId, usize), u64> = BTreeMap::new();
        for &(cpu, frame) in &rec.mem_log {
            *logged
                .entry((frame as FrameId, m.cpus[cpu as usize].node))
                .or_insert(0) += 1;
        }
        for (fi, &(_, frame)) in token.frames.iter().enumerate() {
            for node in 0..nodes {
                let delta = m
                    .counters
                    .get(frame, node)
                    .wrapping_sub(token.entry_counters[fi * nodes + node]);
                debug_assert!(
                    delta == logged.get(&(frame, node)).copied().unwrap_or(0),
                    "PhaseProof {:?}: counter ({frame},{node}) moved {delta}, log disagrees",
                    proof.label,
                );
            }
        }
    }
    // Group the pre-image log per (cpu, level), sorted by set — the memo's
    // touched-set lists are canonical regardless of probe order.
    let mut pre: HashMap<(CpuId, u8), Vec<(u32, usize)>> = HashMap::new();
    let mut cursor = 0usize;
    for &(cpu, level, set) in &rec.sets {
        let cpu = cpu as usize;
        let assoc = if level == 0 {
            m.cpus[cpu].l1.assoc()
        } else {
            m.cpus[cpu].l2.assoc()
        };
        pre.entry((cpu, level)).or_default().push((set, cursor));
        cursor += assoc;
    }
    if cursor != rec.ways.len() {
        debug_assert!(false, "pre-image log length mismatch");
        return None;
    }
    for entries in pre.values_mut() {
        entries.sort_unstable_by_key(|&(set, _)| set);
    }
    let empty: Vec<(u32, usize)> = Vec::new();
    let mut images = Vec::with_capacity(token.live.len());
    for (slot, lc) in token.live.iter().enumerate() {
        debug_assert_eq!(pool.slots[lc.thread].cpu, lc.cpu);
        let exit = int_stats(m, lc.cpu);
        let mut stats = [0u64; 5];
        for k in 0..5 {
            stats[k] = exit[k].checked_sub(lc.stats[k])?;
        }
        let [l1_hits, l2_hits, mem_local, mem_remote, coherence_misses] = stats;
        let ctx = &m.cpus[lc.cpu];
        let l1_pre = pre.get(&(lc.cpu, 0)).unwrap_or(&empty);
        let l2_pre = pre.get(&(lc.cpu, 1)).unwrap_or(&empty);
        let (l1, l1_fix) = diff_level(
            &ctx.l1, l1_pre, &rec.ways, lc.l1_tick, proof, pool, token, m,
        )?;
        let (l2, l2_fix) = diff_level(
            &ctx.l2, l2_pre, &rec.ways, lc.l2_tick, proof, pool, token, m,
        )?;
        // This CPU's memory accesses per proof page, in page order.
        let pages: Vec<(u32, u64)> = hits[slot * pages..][..pages]
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(pi, &count)| (pi as u32, count))
            .collect();
        let frames = pages.iter().map(|&(pi, _)| token.frames[pi as usize].1);
        let mut classes = std::mem::take(&mut rec.classes[lc.cpu]);
        classes.seal();
        assert_eq!(
            (classes.len as u64, mem_local + mem_remote),
            (
                l1_hits + l2_hits + mem_local + mem_remote,
                pages.iter().map(|&(_, count)| count).sum()
            ),
            "{}: cpu {}'s class stream and memory log disagree with its statistics",
            proof.label,
            lc.cpu,
        );
        let placement = Placement {
            frames: frames.collect(),
            timing: Timing {
                stall_ns: ctx.account.stall_ns,
                stall_by_node: ctx.account.stall_by_node.clone(),
                accesses_by_node: ctx.account.accesses_by_node.clone(),
                mem_local,
                mem_remote,
            },
        };
        // A walk that never reaches memory is timed the same everywhere.
        if pages.is_empty() {
            classes = ClassStream::default();
        }
        let core = ImageCore {
            l1,
            l2,
            l1_fix,
            l2_fix,
            pages,
            l1_hits,
            l2_hits,
            coherence_misses,
            compute_ns: ctx.account.compute_ns,
            cache_ns: ctx.account.cache_ns,
            classes,
        };
        images.push((
            lc.thread,
            Image {
                core: Arc::new(core),
                placements: vec![placement],
            },
        ));
    }
    Some(images)
}

/// Build one level's key from the logged pre-images and diff its exit state
/// into a [`CacheFix`]. `entries` is `(set, offset into pre-image ways)`,
/// sorted by set.
#[allow(clippy::too_many_arguments)]
fn diff_level(
    cache: &SetAssocCache,
    entries: &[(u32, usize)],
    pre_ways: &[(u64, u32, u64)],
    entry_tick: u64,
    proof: &PhaseProof,
    pool: &Pool,
    token: &RecordToken,
    m: &Machine,
) -> Option<(LevelKey, CacheFix)> {
    let assoc = cache.assoc();
    let w2 = assoc * 2;
    let tick_delta = cache.tick().checked_sub(entry_tick)?;
    let mut sets = Vec::with_capacity(entries.len());
    let mut key = Vec::with_capacity(entries.len() * w2);
    let mut out = [0u64; 2 * MAX_ASSOC];
    let mut fixes = Vec::new();
    for &(set, off) in entries {
        let entry_ways = &pre_ways[off..off + assoc];
        sets.push(set);
        // Freshness in the key is judged against the region-entry directory,
        // the same state match-time normalization reads. The entry version
        // is not snapshotted: the aggregate write check above pinned every
        // proof line's delta to its claim, so it is `current − claimed`.
        norm_ways(
            entry_ways,
            |t, v| {
                if pool.lines.contains(t) {
                    let entry_ver = m.directory.version(t).wrapping_sub(proof.writes_of(t));
                    debug_assert!(
                        token.key_dir.is_empty()
                            || token.key_dir[proof.lines.binary_search(&t).unwrap()] == entry_ver,
                        "arithmetic entry version disagrees with the snapshot"
                    );
                    (t, u64::from(v == entry_ver))
                } else {
                    (KEY_OTHER, 0)
                }
            },
            &mut out,
        );
        key.extend_from_slice(&out[..w2]);
        let entry_ranks = way_ranks(entry_ways);
        let base = set as usize * assoc;
        for w in 0..assoc {
            let (t, v, s) = cache.way(base + w);
            let (et, ev, es) = entry_ways[w];
            if t == et && v == ev && s == es {
                continue;
            }
            // Every way a proven region modifies must (a) hold a proof line —
            // the region fills only lines it accesses; (b) at the directory's
            // current version — fills take the current version and a writer
            // refreshes its own copy, while eligibility forbids another CPU
            // staling it; (c) be stamped after region entry, or not restamped
            // at all.
            if !pool.lines.contains(t) || v != m.directory.version(t) {
                debug_assert!(
                    false,
                    "PhaseProof {:?}: modified way holds line {t} v{v} (directory v{})",
                    proof.label,
                    m.directory.version(t)
                );
                return None;
            }
            let stamp_off = if s == es {
                0
            } else if s > entry_tick {
                s - entry_tick
            } else {
                debug_assert!(
                    false,
                    "PhaseProof {:?}: exit stamp predates entry",
                    proof.label
                );
                return None;
            };
            fixes.push((set, entry_ranks[w], t, stamp_off));
        }
    }
    Some((LevelKey { sets, key }, CacheFix { tick_delta, fixes }))
}

fn apply_cache(cache: &mut SetAssocCache, fix: &CacheFix, dir: &Directory) {
    let t0 = cache.tick();
    let assoc = cache.assoc();
    let mut ways = [(0u64, 0u32, 0u64); MAX_ASSOC];
    let mut i = 0;
    // Fixes are grouped by set; resolve each set's entry-rank → way-index
    // map from its (still untouched) live state, then land that set's fixes.
    while i < fix.fixes.len() {
        let set = fix.fixes[i].0;
        let base = set as usize * assoc;
        for (w, slot) in ways[..assoc].iter_mut().enumerate() {
            *slot = cache.way(base + w);
        }
        let ranks = way_ranks(&ways[..assoc]);
        let mut idx_of = [0usize; MAX_ASSOC];
        for w in 0..assoc {
            idx_of[ranks[w] as usize] = w;
        }
        while i < fix.fixes.len() && fix.fixes[i].0 == set {
            let (_, rank, tag, off) = fix.fixes[i];
            let idx = base + idx_of[rank as usize];
            let stamp = if off == 0 { cache.way(idx).2 } else { t0 + off };
            cache.set_way(idx, tag, dir.version(tag), stamp);
            i += 1;
        }
    }
    cache.set_tick(t0 + fix.tick_delta);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::AccessKind::{self, Read, Write};
    use crate::machine::MachineConfig;
    use crate::PAGE_SIZE;

    const LABEL: &str = "test/loop";

    fn proof() -> PhaseProof {
        let mut lines: Vec<u64> = (0..8).collect();
        lines.extend(128..132); // page 1's first four lines
        PhaseProof::new(LABEL.into(), 2, lines, vec![(0, 2, 0)])
    }

    /// [`proof`] with one more claimed line: same label, another footprint.
    fn wider_proof() -> PhaseProof {
        let p = proof();
        let mut lines = p.lines;
        lines.push(132);
        PhaseProof::new(p.label, p.threads, lines, p.line_writes)
    }

    fn instance(proof: Option<PhaseProof>) -> (String, Option<PhaseProof>) {
        (LABEL.to_string(), proof)
    }

    /// An engine whose [`LABEL`] pool holds [`proof`].
    fn engine() -> FastpathEngine {
        let mut engine = FastpathEngine::new();
        engine.install(&ProofTable::fold([instance(Some(proof()))]), None);
        engine
    }

    /// One access of the region body. The lane is the caller's to keep: a
    /// CPU in `replayed` had its effects applied by the engine and sits out,
    /// handing its accesses to its retime walk if it has one.
    fn access(
        m: &mut Machine,
        lanes: &mut FastpathOutcome,
        cpu: CpuId,
        vaddr: u64,
        kind: AccessKind,
    ) {
        if let Some(walk) = lanes.retime_of(cpu) {
            walk.touch(vaddr);
        } else if !lanes.replayed.contains(&cpu) {
            m.touch(cpu, vaddr, kind);
        }
    }

    /// The region body.
    fn workload(m: &mut Machine, lanes: &mut FastpathOutcome) {
        for i in 0..8 {
            access(m, lanes, 0, i * 128, Read);
        }
        access(m, lanes, 0, 0, Write);
        access(m, lanes, 0, 0, Write);
        if !lanes.replayed.contains(&0) {
            m.compute(0, 100);
        }
        for i in 0..4 {
            access(m, lanes, 1, PAGE_SIZE + i * 128, Read);
        }
    }

    fn prepared() -> Machine {
        let mut m = Machine::new(MachineConfig::tiny_test());
        m.map_page(0, 0).unwrap();
        m.map_page(1, 0).unwrap();
        m
    }

    /// One region of `body` on the team `binding`, under `engine` if given.
    fn run_body(
        m: &mut Machine,
        engine: Option<&mut FastpathEngine>,
        binding: &[CpuId],
        body: impl Fn(&mut Machine, &mut FastpathOutcome),
    ) {
        m.begin_region();
        match engine {
            None => body(m, &mut Default::default()),
            Some(e) => {
                let mut outcome = e.begin_region_fastpath(m, LABEL, binding);
                body(m, &mut outcome);
                e.finish_region(m, outcome);
            }
        }
        m.end_region();
    }

    fn run_region(m: &mut Machine, engine: Option<&mut FastpathEngine>) {
        run_body(m, engine, &[0, 1], workload);
    }

    /// Full observable state: clock bits, machine stats, per-CPU stats,
    /// counters of every mapped frame, page version sums.
    fn fingerprint(m: &Machine) -> (u64, String) {
        let mut counters = Vec::new();
        for (_, f) in m.mapped_pages() {
            for n in 0..m.topology().nodes() {
                counters.push(m.counters().get(f, n));
            }
        }
        let per_cpu: Vec<_> = (0..m.cpus()).map(|c| *m.cpu_stats(c)).collect();
        (
            m.clock().now_ns().to_bits(),
            format!(
                "{:?} {:?} {:?} {} {}",
                m.stats(),
                per_cpu,
                counters,
                m.page_version_sum(0),
                m.page_version_sum(1)
            ),
        )
    }

    #[test]
    fn a_class_stream_reads_back_what_was_pushed() {
        // Across a word boundary, with and without a partial last word.
        for len in [0usize, 1, 31, 32, 33, 64, 70] {
            let class = |i: usize| [CLASS_MEM, CLASS_L1, CLASS_L2][i % 3];
            let mut stream = ClassStream::default();
            (0..len).for_each(|i| stream.push(class(i)));
            stream.seal();
            stream.seal(); // sealing twice flushes once
            assert_eq!((stream.len, stream.words.len()), (len, len.div_ceil(32)));
            assert!((0..len).all(|i| stream.get(i) == class(i)), "{len}");
            assert_eq!(stream.get(len + 40), CLASS_L1, "past the end");
        }
    }

    #[test]
    fn replayed_regions_are_bit_identical_to_reference() {
        let mut reference = prepared();
        let mut fast = prepared();
        let mut engine = engine();
        for _ in 0..4 {
            run_region(&mut reference, None);
            run_region(&mut fast, Some(&mut engine));
            assert_eq!(fingerprint(&reference), fingerprint(&fast));
        }
        // Iteration 1 records the cold variant, iteration 2 the steady-state
        // variant; iterations 3 and 4 replay it wholesale.
        let s = engine.stats();
        assert_eq!(s.records, 2, "{s:?}");
        assert_eq!(s.replays, 2, "{s:?}");
        assert_eq!(s.rejects, 0, "{s:?}");
        assert_eq!(s.cpu_records, 4, "{s:?}");
        assert_eq!(s.cpu_replays, 4, "{s:?}");
    }

    #[test]
    fn an_equal_proof_keeps_its_memos_and_another_footprint_starts_over() {
        let mut engine = engine();
        let mut m = prepared();
        for _ in 0..3 {
            run_region(&mut m, Some(&mut engine));
        }
        let before = engine.stats();
        assert!(before.replays >= 1, "{before:?}");
        // The same loop installed again (its iteration instances after the
        // cold-start one, several of them): the label's memos stay.
        engine.install(
            &ProofTable::fold([instance(Some(proof())), instance(Some(proof()))]),
            None,
        );
        run_region(&mut m, Some(&mut engine));
        assert_eq!(engine.stats().replays, before.replays + 1);
        // Same label, different footprint: an empty pool.
        engine.install(&ProofTable::fold([instance(Some(wider_proof()))]), None);
        run_region(&mut m, Some(&mut engine));
        let s = engine.stats();
        assert_eq!(
            (s.replays, s.misses),
            (before.replays + 1, before.misses + 1)
        );
    }

    #[test]
    fn a_label_whose_instances_disagree_has_no_pool() {
        let mixed = [
            vec![instance(Some(proof())), instance(Some(wider_proof()))],
            vec![instance(Some(proof())), instance(None)],
            vec![instance(None), instance(Some(proof()))],
            // Not in the installed text at all.
            vec![("test/other".to_string(), Some(proof()))],
        ];
        for instances in mixed {
            let mut reference = prepared();
            let mut fast = prepared();
            // A pool an earlier install recorded into goes too.
            let mut engine = engine();
            for _ in 0..3 {
                run_region(&mut reference, None);
                run_region(&mut fast, Some(&mut engine));
            }
            let before = engine.stats();
            assert!(before.replays >= 1, "{before:?}");
            engine.install(&ProofTable::fold(instances), None);
            for _ in 0..3 {
                run_region(&mut reference, None);
                run_region(&mut fast, Some(&mut engine));
                assert_eq!(fingerprint(&reference), fingerprint(&fast));
            }
            assert_eq!(engine.stats(), before, "exact, and not counted");
            // Installed consistently again, the label starts from nothing.
            engine.install(&ProofTable::fold([instance(Some(proof()))]), None);
            run_region(&mut fast, Some(&mut engine));
            assert_eq!(engine.stats().misses, before.misses + 1);
        }
    }

    #[test]
    fn partial_replay_records_only_the_drifted_cpu() {
        let mut reference = prepared();
        let mut fast = prepared();
        let mut engine = engine();
        // Reach steady state on both machines.
        for _ in 0..3 {
            run_region(&mut reference, None);
            run_region(&mut fast, Some(&mut engine));
        }
        let before = engine.stats();
        assert!(before.replays >= 1, "{before:?}");
        // Perturb CPU 0's cache outside any region (a non-proof line on a
        // mapped page): its key drifts, CPU 1's does not.
        reference.touch(0, 120 * 128, Read);
        fast.touch(0, 120 * 128, Read);
        run_region(&mut reference, None);
        run_region(&mut fast, Some(&mut engine));
        assert_eq!(fingerprint(&reference), fingerprint(&fast));
        let s = engine.stats();
        assert_eq!(s.misses, before.misses + 1, "CPU 0 must miss: {s:?}");
        assert_eq!(
            s.cpu_replays,
            before.cpu_replays + 1,
            "CPU 1 must still replay through CPU 0's drift: {s:?}"
        );
        assert_eq!(s.cpu_records, before.cpu_records + 1, "{s:?}");
        // The re-recorded variant serves the perturbed state from now on.
        reference.touch(0, 120 * 128, Read);
        fast.touch(0, 120 * 128, Read);
        run_region(&mut reference, None);
        run_region(&mut fast, Some(&mut engine));
        assert_eq!(fingerprint(&reference), fingerprint(&fast));
        assert_eq!(engine.stats().replays, s.replays + 1, "full replay resumes");
    }

    fn rejected(outcome: FastpathOutcome) -> bool {
        outcome.replayed.is_empty() && outcome.record.is_none()
    }

    #[test]
    fn preconditions_reject() {
        let mut engine = engine();

        // Unmapped proof page.
        let mut m = Machine::new(MachineConfig::tiny_test());
        m.begin_region();
        assert!(rejected(engine.begin_region_fastpath(
            &mut m,
            LABEL,
            &[0, 1]
        )));
        m.end_region();

        // Replicas present.
        let mut m = prepared();
        m.replicate_page(0, 1).unwrap();
        m.begin_region();
        assert!(rejected(engine.begin_region_fastpath(
            &mut m,
            LABEL,
            &[0, 1]
        )));
        m.end_region();

        // Team-size mismatch.
        let mut m = prepared();
        m.begin_region();
        assert!(rejected(engine.begin_region_fastpath(&mut m, LABEL, &[0])));
        m.end_region();

        assert_eq!(engine.stats().rejects, 3);
        assert_eq!(engine.stats().records, 0);
    }

    #[test]
    fn recording_discarded_when_region_has_side_effects() {
        let mut engine = engine();
        let mut m = prepared();
        m.begin_region();
        let mut outcome = engine.begin_region_fastpath(&mut m, LABEL, &[0, 1]);
        assert!(outcome.replayed.is_empty());
        assert!(outcome.record.is_some(), "a recording on first sight");
        workload(&mut m, &mut outcome);
        // An explicit page operation mid-region: environmental state moved,
        // so the memos must be dropped (silently, even in debug builds).
        m.migrate_page(1, 3).unwrap();
        engine.finish_region(&mut m, outcome);
        m.end_region();
        let s = engine.stats();
        assert_eq!(s.records, 0, "{s:?}");
        assert_eq!(s.rejects, 1, "{s:?}");
    }

    /// A one-CPU region that streams four lines through one L1 and one L2
    /// set (both 2-way): line 128 of page 1, lines 0 and 32 of page 0, line
    /// 256 of page 2. Every access reaches memory, every time, and between
    /// two runs lines 32 and 256 are resident, none of page 1's.
    fn thrash(m: &mut Machine, lanes: &mut FastpathOutcome) {
        for line in [128, 0, 32, 256] {
            access(m, lanes, 0, line * 128, Read);
        }
    }

    /// The proofs of [`thrash`].
    fn thrash_table() -> ProofTable {
        let proof = PhaseProof::new(LABEL.into(), 1, vec![0, 32, 128, 256], vec![]);
        ProofTable::fold([instance(Some(proof))])
    }

    /// Twin machines `(reference, fast)` on `config` with [`thrash`]'s pages
    /// on `node`.
    fn thrash_twins(config: &MachineConfig, node: usize) -> (Machine, Machine) {
        let twin = || {
            let mut m = Machine::new(config.clone());
            for page in 0..3 {
                m.map_page(page, node).unwrap();
            }
            m
        };
        (twin(), twin())
    }

    /// The twins `(reference, fast)` of [`thrash`] with its engine, on the
    /// machine `config`, run to their steady state.
    fn thrashing(config: MachineConfig) -> (Machine, Machine, FastpathEngine) {
        let mut engine = FastpathEngine::new();
        engine.install(&thrash_table(), None);
        let (mut reference, mut fast) = thrash_twins(&config, 0);
        for _ in 0..3 {
            thrash_both(&mut reference, &mut fast, &mut engine);
        }
        (reference, fast, engine)
    }

    /// One more run of [`thrash`] on both twins, which must stay equal.
    fn thrash_both(reference: &mut Machine, fast: &mut Machine, engine: &mut FastpathEngine) {
        run_body(reference, None, &[0], thrash);
        run_body(fast, Some(engine), &[0], thrash);
        assert_eq!(fingerprint(reference), fingerprint(fast));
    }

    #[test]
    fn a_moved_page_is_retimed_unless_its_lines_were_resident() {
        // Non-integer memory latencies: the order of the walk's adds shows.
        let mut config = MachineConfig::tiny_test();
        config.latency = crate::LatencyModel::with_remote_ratio(2.3);
        let (mut reference, mut fast, mut engine) = thrashing(config);
        let steady = engine.stats();
        assert!(steady.replays >= 1, "{steady:?}");
        assert_eq!(steady.cpu_retimes, 0, "{steady:?}");

        // Page 1 moves; the CPU holds none of its lines, so its caches still
        // match the memo: the walk is re-timed on the new home.
        let mut move_page = |page, node, engine: &mut FastpathEngine| {
            reference.migrate_page(page, node).unwrap();
            fast.migrate_page(page, node).unwrap();
            thrash_both(&mut reference, &mut fast, engine);
            engine.stats()
        };
        let moved = move_page(1, 3, &mut engine);
        let want = FastpathStats {
            replays: steady.replays + 1,
            cpu_retimes: 1,
            ..steady
        };
        assert_eq!(moved, want);

        // Moved back — onto the frame it was recorded on — and away again:
        // the image is timed under both assignments by now, plain hits.
        let back = move_page(1, 0, &mut engine);
        let again = move_page(1, 3, &mut engine);
        let want = FastpathStats {
            replays: moved.replays + 2,
            cpu_replays: moved.cpu_replays + 2,
            ..moved
        };
        assert_eq!((back.cpu_retimes, again), (1, want));

        // Page 2 has a resident line: moving it invalidates that, the sets
        // disagree with every memo, and the region is recorded as ever.
        let invalidated = move_page(2, 2, &mut engine);
        let want = FastpathStats {
            misses: again.misses + 1,
            records: again.records + 1,
            cpu_records: again.cpu_records + 1,
            cpu_misses_frames: again.cpu_misses_frames + 1,
            ..again
        };
        assert_eq!(invalidated, want);
    }

    #[test]
    #[should_panic(expected = "retime walk")]
    fn a_retime_walk_that_leaves_its_stream_is_an_engine_bug() {
        let (_, mut fast, mut engine) = thrashing(MachineConfig::tiny_test());
        fast.migrate_page(1, 3).unwrap();
        // The body makes one access fewer than the image was recorded with.
        run_body(&mut fast, Some(&mut engine), &[0], |m, lanes| {
            for line in [128, 0, 32] {
                access(m, lanes, 0, line * 128, Read);
            }
        });
    }

    /// [`thrash`]'s table and a library of its own on `config`, and a fresh
    /// engine sharing them.
    fn sharing(config: &MachineConfig) -> (MemoLibrary, impl Fn() -> FastpathEngine) {
        let table = Arc::new(thrash_table());
        let library = MemoLibrary::of(&table, config);
        let lent = library.clone();
        let engine = move || {
            let mut engine = FastpathEngine::new();
            engine.install(&table, Some(&lent));
            engine
        };
        (library, engine)
    }

    #[test]
    fn a_published_image_is_retimed_on_other_frames_and_hits_on_the_same() {
        // Non-integer memory latencies: the order of the walk's adds shows.
        let mut config = MachineConfig::tiny_test();
        config.latency = crate::LatencyModel::with_remote_ratio(2.3);
        let (library, engine) = sharing(&config);
        // The publisher records the cold image, then the steady one, and
        // replays that; nothing moves, so both are published.
        let mut first = engine();
        let (mut reference, mut fast) = thrash_twins(&config, 0);
        for _ in 0..3 {
            thrash_both(&mut reference, &mut fast, &mut first);
        }
        let recorded = first.stats();
        assert_eq!((recorded.cpu_records, recorded.cpu_borrowed), (2, 0));
        assert_eq!(library.stats().images, 2);

        // Later runs start with the caches the first one started with, so
        // each borrows both images and records nothing. On other frames
        // the walk is retimed — and published, so the next run on those
        // frames hits — and on the publisher's frames it hits.
        for (node, retimes) in [(2, 2), (0, 0), (2, 0)] {
            let mut later = engine();
            let (mut reference, mut fast) = thrash_twins(&config, node);
            for _ in 0..3 {
                thrash_both(&mut reference, &mut fast, &mut later);
            }
            let want = FastpathStats {
                replays: 3,
                cpu_replays: 3 - retimes,
                cpu_retimes: retimes,
                cpu_borrowed: 2,
                ..Default::default()
            };
            assert_eq!(later.stats(), want, "pages on node {node}");
        }
        assert_eq!(library.stats().images, 2, "a borrowed image is held once");
    }

    #[test]
    fn an_image_recorded_after_a_migration_is_not_published() {
        let config = MachineConfig::tiny_test();
        let (library, engine) = sharing(&config);
        let mut engine = engine();
        let (mut reference, mut fast) = thrash_twins(&config, 0);
        for _ in 0..3 {
            thrash_both(&mut reference, &mut fast, &mut engine);
        }
        let held = library.stats();
        // Page 2 has a resident line: the move invalidates it, the sets
        // match no image, and the region is recorded — for this run only.
        reference.migrate_page(2, 2).unwrap();
        fast.migrate_page(2, 2).unwrap();
        let before = engine.stats();
        thrash_both(&mut reference, &mut fast, &mut engine);
        assert_eq!(engine.stats().cpu_records, before.cpu_records + 1);
        assert_eq!(library.stats(), held);
        // The run keeps its own memo: the next region replays it.
        thrash_both(&mut reference, &mut fast, &mut engine);
        assert_eq!(engine.stats().replays, before.replays + 1);
    }

    #[test]
    fn a_far_apart_proof_is_rejected_without_a_bitmap() {
        // A line at 2^37 (an array at 2^44 bytes): a bitmap sized by the
        // proof's last line would be 16 GiB.
        let far = 1u64 << 37;
        let proof = PhaseProof::new(LABEL.into(), 1, vec![0, far], vec![]);
        let mut engine = FastpathEngine::new();
        engine.install(&ProofTable::fold([instance(Some(proof))]), None);
        let (mut reference, mut fast) = (prepared(), prepared());
        let near_only = |m: &mut Machine, lanes: &mut FastpathOutcome| {
            assert!(lanes.replayed.is_empty() && lanes.record.is_none());
            access(m, lanes, 0, 0, Read);
        };
        run_body(&mut reference, None, &[0], near_only);
        run_body(&mut fast, Some(&mut engine), &[0], near_only);
        assert_eq!(fingerprint(&reference), fingerprint(&fast));
        let want = FastpathStats {
            rejects: 1,
            ..Default::default()
        };
        assert_eq!(engine.stats(), want, "rejected, exact, counted once");
        // The far page lies beyond the machine: the pool was never admitted.
        assert!(engine.pools[LABEL].lines.0.is_empty());

        // Admitted, a pool's bitmap spans what the machine can map.
        let (_, fast, engine) = thrashing(MachineConfig::tiny_test());
        let span = fast.config.max_vpages << (PAGE_SHIFT - LINE_SHIFT);
        let words = engine.pools[LABEL].lines.0.len();
        assert!(0 < words && words <= span / 64, "{words} words");
    }
}
