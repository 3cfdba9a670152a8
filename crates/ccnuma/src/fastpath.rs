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
//! So each CPU independently hits or misses on its own. A region replays
//! wholesale when every CPU hits; when only some hit (in practice the master
//! CPU, whose cache carries long-memory junk from serial regions, drifts
//! while the workers stabilize), the hitters' effects are applied in bulk and
//! they sit the region out while the drifters execute the exact path and
//! re-record. The engine only reports who hit ([`FastpathOutcome`]); keeping
//! a replayed CPU's accesses away from the machine is the caller's job.
//!
//! **Keys and cost.** A memo's key covers exactly the cache sets its walk
//! probed and the frames it reached memory on — untouched state cannot
//! influence the walk, and excluding it makes small regions insensitive to
//! ambient cache junk. Matching normalizes each touched set of the *live*
//! cache on the fly (tags classified as proof-line / empty / other, coherence
//! freshness relative to the directory, LRU as per-set rank permutations —
//! absolute ticks and versions grow monotonically and would never repeat) and
//! compares it against the stored key, so a lookup costs what the memoized
//! walk touched, never what the proof footprint spans. Recording is
//! copy-on-write: the machine logs each probed set's pre-image the first time
//! the region reaches it (see `Machine::fp_log_set`), and the exit diff runs
//! over exactly those sets.
//!
//! **Soundness.** The simulator is sequential and deterministic. An eligible
//! CPU's per-access outcomes depend only on the touched sets' way states
//! (captured up to the exact equivalences the normalization encodes — a
//! non-proof tag can never match a probed proof line and matters only through
//! its LRU rank; absolute versions matter only through freshness), the
//! directory versions of proof lines (freshness bits, evaluated against the
//! region-entry directory on both the record and the match side), and the
//! frames of the pages it accesses memory on (in the key verbatim). Counter
//! bulk adds land exact final values including overflow spills because the
//! counters are never read in-region. Identical key ⇒ identical per-access
//! outcomes ⇒ the memo reconstructs the exact machine state line-by-line
//! execution would have produced — bit-identical f64s included, because
//! region stall/compute time is staged in per-region accounts and folded into
//! cumulative stats once per region (see `Machine::end_region`). Apply order
//! mirrors execution: replayed threads' directory bumps land before any cache
//! fix-up reads versions back, and a live thread can never observe a replayed
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
//! **Fallback.** Every precondition failure — unmapped proof page, active
//! replicas, active trace, team mismatch — returns an empty
//! [`FastpathOutcome`] and the region runs the exact line-by-line path.
//! Recording re-validates the proof at region exit (did the directory move
//! exactly as the full team's claims say? do the reference-counter deltas
//! match the memory accesses the machine logged? did anything outside the
//! footprint change?); a violated contract discards the memos in release
//! builds and fires a `debug_assert!` in debug builds, so a lying proof can
//! degrade performance but never correctness.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::cache::{SetAssocCache, INVALID_TAG};
use crate::coherence::Directory;
use crate::contention::CpuRegionAccount;
use crate::cpu::CpuId;
use crate::machine::{FpRecording, Machine};
use crate::memory::FrameId;
use crate::stats::MachineStats;
use crate::{LINE_SHIFT, PAGE_SHIFT};

/// Maximum associativity the fast path handles (normalization scratch
/// buffers are fixed-size; the modeled machines are 2-way).
const MAX_ASSOC: usize = 8;

/// Memo variants kept per (label, team CPU) before LRU eviction.
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
    /// no entry.
    pub fn fold(instances: impl IntoIterator<Item = (String, Option<PhaseProof>)>) -> Self {
        let mut table: HashMap<String, Option<PhaseProof>> = HashMap::new();
        for (label, proof) in instances {
            if let Some(seen) = table.get_mut(&label) {
                if *seen != proof {
                    *seen = None;
                }
            } else {
                table.insert(label, proof);
            }
        }
        let proven = table
            .into_iter()
            .filter_map(|(label, proof)| Some((label, Arc::new(proof?))));
        Self(proven.collect())
    }

    /// Point every entry that equals `other`'s entry of the same label at
    /// `other`'s allocation, so the two tables hold one copy of what they
    /// have in common (a loop's cold-start and timed instances).
    pub fn share_with(&mut self, other: &ProofTable) {
        for (label, proof) in &mut self.0 {
            match other.0.get(label) {
                Some(theirs) if theirs == proof => *proof = Arc::clone(theirs),
                _ => {}
            }
        }
    }
}

/// Engine counters (diagnostics; surfaced by the `omp` runtime and the
/// experiment harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastpathStats {
    /// Regions replayed wholesale (every team CPU hit its memo).
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
}

/// What the engine did for a region, and what the caller owes it.
///
/// The region effects of every CPU in `replayed` have been applied in bulk:
/// those CPUs must not reach the machine during the region body (their
/// threads run for the data side only); every other team CPU executes the
/// exact path. The three cases are values, not variants: all CPUs replayed
/// and no token (every memo hit), a token (at least one CPU missed and is
/// being recorded), or neither (a precondition failed).
#[derive(Default)]
pub struct FastpathOutcome {
    /// Team CPUs whose memos hit.
    pub replayed: Vec<CpuId>,
    /// Present when some CPU missed: hand it back via
    /// [`FastpathEngine::finish_record`] after the body, *before*
    /// `end_region`.
    pub record: Option<RecordToken>,
}

/// Entry snapshot carried from `begin_region_fastpath` to `finish_record`.
pub struct RecordToken {
    label: String,
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
struct LevelKey {
    sets: Vec<u32>,
    key: Vec<u64>,
}

/// One CPU's memoized region delta, keyed on the state it can observe.
struct CpuMemo {
    l1: LevelKey,
    l2: LevelKey,
    /// Positions (into `proof.pages`) of pages this CPU reached memory on,
    /// with the frame each was in at record time.
    page_idx: Vec<u32>,
    frames: Vec<FrameId>,
    /// Deltas of the five integer `CpuStats` fields.
    stats: [u64; 5],
    l1_fix: CacheFix,
    l2_fix: CacheFix,
    /// Reference-counter increments at this CPU's node, per frame.
    counter_adds: Vec<(FrameId, u64)>,
    /// Exit region account (folded by `end_region`).
    account: CpuRegionAccount,
    last_used: u64,
}

/// How to rebuild one cache's touched sets at region exit.
#[derive(Default)]
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

/// Per-label pool: the proof every instance of the label derived, per-thread
/// write claims, and one memo slot per team thread.
struct Pool {
    proof: Arc<PhaseProof>,
    /// Dense proof-line membership bitmap (bit `line & 63` of word
    /// `line >> 6`) — match-time tag classification in O(1) instead of a
    /// binary search over the (possibly huge) footprint.
    line_bit: Vec<u64>,
    /// `(line, count)` write claims indexed by thread.
    writes_by_thread: Vec<Vec<(u64, u32)>>,
    /// Sum of all claimed write counts — the full team's directory traffic
    /// per region, validated against [`Directory::total_writes`] in O(1).
    claimed_writes: u64,
    /// Indexed by thread; holds that thread's bound CPU and its variants.
    slots: Vec<CpuSlot>,
}

struct CpuSlot {
    cpu: CpuId,
    variants: Vec<CpuMemo>,
}

impl Pool {
    fn new(proof: Arc<PhaseProof>) -> Self {
        let mut writes_by_thread = vec![Vec::new(); proof.threads];
        for &(line, count, writer) in &proof.line_writes {
            writes_by_thread[writer as usize].push((line, count));
        }
        let words = proof.lines.last().map_or(0, |&l| (l >> 6) as usize + 1);
        let mut line_bit = vec![0u64; words];
        for &l in &proof.lines {
            line_bit[(l >> 6) as usize] |= 1 << (l & 63);
        }
        let claimed_writes = proof
            .line_writes
            .iter()
            .map(|&(_, c, _)| u64::from(c))
            .sum();
        Self {
            proof,
            line_bit,
            writes_by_thread,
            claimed_writes,
            slots: Vec::new(),
        }
    }

    /// O(1) proof-line membership.
    #[inline]
    fn is_line(&self, tag: u64) -> bool {
        self.line_bit
            .get((tag >> 6) as usize)
            .is_some_and(|w| w >> (tag & 63) & 1 != 0)
    }

    /// Realign the per-thread slots with the current binding; a rebound
    /// thread drops its variants (they key another CPU's caches).
    fn align_slots(&mut self, binding: &[CpuId]) {
        if self.slots.len() != binding.len() {
            self.slots = binding
                .iter()
                .map(|&cpu| CpuSlot {
                    cpu,
                    variants: Vec::new(),
                })
                .collect();
            return;
        }
        for (slot, &cpu) in self.slots.iter_mut().zip(binding) {
            if slot.cpu != cpu {
                slot.cpu = cpu;
                slot.variants.clear();
            }
        }
    }
}

/// The memoization engine. One per `omp` runtime (it is tied to one machine's
/// geometry through its memos).
pub struct FastpathEngine {
    pools: HashMap<String, Pool>,
    use_clock: u64,
    stats: FastpathStats,
    /// `DDNOMP_FASTPATH_DEBUG` was set when the engine was built: explain
    /// every CPU miss on stderr.
    explain_misses: bool,
}

impl Default for FastpathEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl FastpathEngine {
    /// Fresh engine with empty pools.
    pub fn new() -> Self {
        Self {
            pools: HashMap::new(),
            use_clock: 0,
            stats: FastpathStats::default(),
            explain_misses: std::env::var_os("DDNOMP_FASTPATH_DEBUG").is_some(),
        }
    }

    /// Install the proofs of a program text. The table replaces the pools: a
    /// label whose proof equals the one its pool already holds keeps its
    /// memos (cold-start recordings seed the timed iterations), every other
    /// pool starts empty or is gone. A pool shares the table's proof.
    pub fn install(&mut self, table: &ProofTable) {
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
        pool.align_slots(binding);
        self.use_clock += 1;
        let now = self.use_clock;

        // Per-CPU lookup — all *before* any effect is applied, so every
        // check reads true region-entry state.
        let explain = self.explain_misses;
        let mut hits: Vec<Option<usize>> = Vec::with_capacity(binding.len());
        for t in 0..binding.len() {
            let slot = &pool.slots[t];
            let mut why = Vec::new();
            let hit = slot.variants.iter().position(|v| {
                let mismatch = memo_mismatch(m, slot.cpu, v, pool, &frames);
                let hit = mismatch.is_none();
                if explain {
                    why.extend(mismatch);
                }
                hit
            });
            if explain && hit.is_none() {
                eprintln!(
                    "fastpath miss {label}: thread {t} (cpu {}) vs {why:?}",
                    slot.cpu,
                );
            }
            // Keep variants in MRU order: the steady-state variant ends up in
            // front, so lookups stop scanning stale variants (whose keys can
            // share long prefixes with the live state before diverging).
            hits.push(hit.map(|i| {
                if i != 0 {
                    pool.slots[t].variants.swap(0, i);
                }
                0
            }));
        }
        let all_hit = hits.iter().all(Option::is_some);

        // Aggregate snapshot *before* the hitters' bumps; debug builds also
        // take the full per-line snapshot the exhaustive check diffs against.
        let entry_dir_writes = m.directory.total_writes();
        let key_dir: Vec<u32> = if cfg!(debug_assertions) && !all_hit {
            let lines = pool.proof.lines.iter();
            lines.map(|&l| m.directory.version(l)).collect()
        } else {
            Vec::new()
        };
        let replayed = apply_hitters(m, pool, &hits, now);
        self.stats.cpu_replays += replayed.len() as u64;
        if all_hit {
            self.stats.replays += 1;
            return FastpathOutcome {
                replayed,
                record: None,
            };
        }
        self.stats.misses += 1;

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
        let mut live = Vec::new();
        for (t, hit) in hits.iter().enumerate() {
            if hit.is_some() {
                continue;
            }
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
        FastpathOutcome {
            replayed,
            record: Some(RecordToken {
                label: label.to_string(),
                frames,
                entry_stats: m.stats,
                entry_clock_bits: m.clock.now_ns().to_bits(),
                entry_dir_writes,
                entry_accesses,
                key_dir,
                entry_counters,
                live,
            }),
        }
    }

    /// Finish a recording: validate that the region behaved exactly as the
    /// proof claims and store one memo per live CPU. Must be called *before*
    /// `end_region` (the entry/exit diff needs the still-open region state).
    pub fn finish_record(&mut self, m: &mut Machine, token: RecordToken) {
        let _hp = hostprof::span_hot("ccnuma.fastpath");
        let rec = m.fp_take_recording().unwrap_or_default();
        let Some(pool) = self.pools.get_mut(&token.label) else {
            self.stats.rejects += 1;
            return;
        };
        self.use_clock += 1;
        let Some(memos) = build_memos(m, pool, &token, &rec, self.use_clock) else {
            self.stats.rejects += 1;
            return;
        };
        let recorded = memos.len() as u64;
        for (thread, memo) in memos {
            let variants = &mut pool.slots[thread].variants;
            if variants.len() >= MAX_VARIANTS {
                let lru = variants
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, v)| v.last_used)
                    .map(|(i, _)| i)
                    .expect("MAX_VARIANTS > 0");
                variants[lru] = memo;
            } else {
                variants.push(memo);
            }
        }
        self.stats.records += 1;
        self.stats.cpu_records += recorded;
    }
}

/// Apply every hitter's memo: directory bumps for all of them first (cache
/// fix-ups read the post-region versions), then per-CPU state. A live thread
/// cannot observe any of this by eligibility. Returns the replayed CPUs.
fn apply_hitters(m: &mut Machine, pool: &mut Pool, hits: &[Option<usize>], now: u64) -> Vec<CpuId> {
    for (t, hit) in hits.iter().enumerate() {
        if hit.is_some() {
            for &(line, k) in &pool.writes_by_thread[t] {
                m.directory.bump(line, k);
            }
        }
    }
    let mut replayed = Vec::new();
    for (t, hit) in hits.iter().enumerate() {
        let Some(vi) = *hit else { continue };
        let slot = &mut pool.slots[t];
        slot.variants[vi].last_used = now;
        apply_cpu(m, slot.cpu, &slot.variants[vi]);
        replayed.push(slot.cpu);
    }
    replayed
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

/// The first component of a memo's key that the live machine disagrees with
/// (what `DDNOMP_FASTPATH_DEBUG` prints per variant of a missed CPU).
#[derive(Debug)]
#[allow(dead_code)] // the fields are read by that print alone, through `Debug`
enum Mismatch {
    /// Proof page `page` (a position in `proof.pages`) changed frames.
    Frame {
        page: u32,
        recorded: FrameId,
        live: FrameId,
    },
    /// The `nth` of the memo's `of` touched sets in cache `level` (1 or 2)
    /// normalizes to different key words.
    Set {
        level: u8,
        set: u32,
        nth: usize,
        of: usize,
    },
}

/// Where, if anywhere, one cache level of the live machine departs from a
/// memo's key.
fn level_mismatch(
    level: u8,
    cache: &SetAssocCache,
    lk: &LevelKey,
    pool: &Pool,
    dir: &Directory,
) -> Option<Mismatch> {
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
                if pool.is_line(t) {
                    (t, u64::from(v == dir.version(t)))
                } else {
                    (KEY_OTHER, 0)
                }
            },
            &mut out,
        );
        if out[..w2] != lk.key[nth * w2..][..w2] {
            let of = lk.sets.len();
            return Some(Mismatch::Set {
                level,
                set,
                nth,
                of,
            });
        }
    }
    None
}

/// Where, if anywhere, `memo` departs from the current entry state (`None`
/// is a hit). Checks only what the memoized walk can observe: its accessed
/// frames and its touched sets.
fn memo_mismatch(
    m: &Machine,
    cpu: CpuId,
    memo: &CpuMemo,
    pool: &Pool,
    frames: &[(u64, FrameId)],
) -> Option<Mismatch> {
    for (&page, &recorded) in memo.page_idx.iter().zip(&memo.frames) {
        let live = frames[page as usize].1;
        if live != recorded {
            return Some(Mismatch::Frame {
                page,
                recorded,
                live,
            });
        }
    }
    let ctx = &m.cpus[cpu];
    level_mismatch(1, &ctx.l1, &memo.l1, pool, &m.directory)
        .or_else(|| level_mismatch(2, &ctx.l2, &memo.l2, pool, &m.directory))
}

/// Apply one CPU's memo: caches, integer stats, counters, region account.
/// (Directory bumps are applied by the caller for all hitters first.)
fn apply_cpu(m: &mut Machine, cpu: CpuId, memo: &CpuMemo) {
    let node = m.cpus[cpu].node;
    for &(frame, k) in &memo.counter_adds {
        m.counters.bulk_add(frame, node, k);
    }
    let ctx = &mut m.cpus[cpu];
    apply_cache(&mut ctx.l1, &memo.l1_fix, &m.directory);
    apply_cache(&mut ctx.l2, &memo.l2_fix, &m.directory);
    ctx.stats.l1_hits += memo.stats[0];
    ctx.stats.l2_hits += memo.stats[1];
    ctx.stats.mem_local += memo.stats[2];
    ctx.stats.mem_remote += memo.stats[3];
    ctx.stats.coherence_misses += memo.stats[4];
    ctx.account.clone_from(&memo.account);
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

/// Diff exit state against the entry token; `None` discards the recording.
fn build_memos(
    m: &Machine,
    pool: &Pool,
    token: &RecordToken,
    rec: &FpRecording,
    now: u64,
) -> Option<Vec<(usize, CpuMemo)>> {
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
    // line, so most entries repeat the previous entry's frame.
    let mut frame_page: HashMap<FrameId, u32> = HashMap::with_capacity(token.frames.len());
    for (pi, &(_, frame)) in token.frames.iter().enumerate() {
        frame_page.insert(frame, pi as u32);
    }
    let pages = token.frames.len();
    let mut live_slot = vec![usize::MAX; m.cpus.len()];
    for (slot, lc) in token.live.iter().enumerate() {
        live_slot[lc.cpu] = slot;
    }
    let mut hits = vec![0u64; token.live.len() * pages];
    let mut last = (u32::MAX, 0usize);
    for &(cpu, frame) in &rec.mem_log {
        if frame != last.0 {
            let Some(&pi) = frame_page.get(&(frame as FrameId)) else {
                debug_assert!(
                    false,
                    "PhaseProof {:?}: memory access outside the proof footprint (frame {frame})",
                    proof.label,
                );
                return None;
            };
            last = (frame, pi as usize);
        }
        let slot = live_slot[cpu as usize];
        if slot != usize::MAX {
            hits[slot * pages + last.1] += 1;
        }
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
    let mut memos = Vec::with_capacity(token.live.len());
    for (slot, lc) in token.live.iter().enumerate() {
        debug_assert_eq!(pool.slots[lc.thread].cpu, lc.cpu);
        let exit = int_stats(m, lc.cpu);
        let mut stats = [0u64; 5];
        for k in 0..5 {
            stats[k] = exit[k].checked_sub(lc.stats[k])?;
        }
        let ctx = &m.cpus[lc.cpu];
        let l1_pre = pre.get(&(lc.cpu, 0)).unwrap_or(&empty);
        let l2_pre = pre.get(&(lc.cpu, 1)).unwrap_or(&empty);
        let (l1, l1_fix) = diff_level(
            &ctx.l1, l1_pre, &rec.ways, lc.l1_tick, proof, pool, token, m,
        )?;
        let (l2, l2_fix) = diff_level(
            &ctx.l2, l2_pre, &rec.ways, lc.l2_tick, proof, pool, token, m,
        )?;
        // This CPU's memory accesses per frame, in frame order.
        let mut adds: Vec<(FrameId, u32, u64)> = hits[slot * pages..][..pages]
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(pi, &count)| (token.frames[pi].1, pi as u32, count))
            .collect();
        adds.sort_unstable_by_key(|&(frame, _, _)| frame);
        let page_idx = adds.iter().map(|&(_, pi, _)| pi).collect();
        let frames = adds.iter().map(|&(frame, _, _)| frame).collect();
        let counter_adds = adds
            .iter()
            .map(|&(frame, _, count)| (frame, count))
            .collect();
        memos.push((
            lc.thread,
            CpuMemo {
                l1,
                l2,
                page_idx,
                frames,
                stats,
                l1_fix,
                l2_fix,
                counter_adds,
                account: ctx.account.clone(),
                last_used: now,
            },
        ));
    }
    Some(memos)
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
                if pool.is_line(t) {
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
            if !pool.is_line(t) || v != m.directory.version(t) {
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
    use crate::cpu::AccessKind::{Read, Write};
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
        engine.install(&ProofTable::fold([instance(Some(proof()))]));
        engine
    }

    /// The region body. The lane is the caller's to keep: a CPU in
    /// `replayed` had its effects applied by the engine and sits out.
    fn workload(m: &mut Machine, replayed: &[CpuId]) {
        if !replayed.contains(&0) {
            for i in 0..8 {
                m.touch(0, i * 128, Read);
            }
            m.touch(0, 0, Write);
            m.touch(0, 0, Write);
            m.compute(0, 100);
        }
        if !replayed.contains(&1) {
            for i in 0..4 {
                m.touch(1, PAGE_SIZE + i * 128, Read);
            }
        }
    }

    fn prepared() -> Machine {
        let mut m = Machine::new(MachineConfig::tiny_test());
        m.map_page(0, 0).unwrap();
        m.map_page(1, 0).unwrap();
        m
    }

    fn run_region(m: &mut Machine, engine: Option<&mut FastpathEngine>) {
        m.begin_region();
        match engine {
            None => workload(m, &[]),
            Some(e) => {
                let outcome = e.begin_region_fastpath(m, LABEL, &[0, 1]);
                workload(m, &outcome.replayed);
                if let Some(token) = outcome.record {
                    e.finish_record(m, token);
                }
            }
        }
        m.end_region();
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
        engine.install(&ProofTable::fold([
            instance(Some(proof())),
            instance(Some(proof())),
        ]));
        run_region(&mut m, Some(&mut engine));
        assert_eq!(engine.stats().replays, before.replays + 1);
        // Same label, different footprint: an empty pool.
        engine.install(&ProofTable::fold([instance(Some(wider_proof()))]));
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
            engine.install(&ProofTable::fold(instances));
            for _ in 0..3 {
                run_region(&mut reference, None);
                run_region(&mut fast, Some(&mut engine));
                assert_eq!(fingerprint(&reference), fingerprint(&fast));
            }
            assert_eq!(engine.stats(), before, "exact, and not counted");
            // Installed consistently again, the label starts from nothing.
            engine.install(&ProofTable::fold([instance(Some(proof()))]));
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
        let outcome = engine.begin_region_fastpath(&mut m, LABEL, &[0, 1]);
        assert!(outcome.replayed.is_empty());
        let tok = outcome.record.expect("a recording on first sight");
        workload(&mut m, &[]);
        // An explicit page operation mid-region: environmental state moved,
        // so the memos must be dropped (silently, even in debug builds).
        m.migrate_page(1, 3).unwrap();
        engine.finish_record(&mut m, tok);
        m.end_region();
        let s = engine.stats();
        assert_eq!(s.records, 0, "{s:?}");
        assert_eq!(s.rejects, 1, "{s:?}");
    }
}
