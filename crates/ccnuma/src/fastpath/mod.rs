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
//! replicas, no trace) an eligible CPU's per-access
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
//! **First touches.** A proof page that is not mapped at entry is faulted
//! in by the region. The exact path runs a static region's threads in
//! thread order, so which thread faults which page, in what order, follows
//! from the walks, not from the placement; an image keeps its CPU's faults,
//! and serves only where they are exactly the unmapped pages its walk
//! reaches at its thread's turn (on states the exact path produces, the
//! same as the threads' lists concatenating to the unmapped pages; the two
//! differ only where an unmapped page has lines cached, and no public
//! operation produces that state). A region with unmapped pages replays
//! only if every thread is served and together they fault all of them: the
//! engine then faults them in at entry, in order, through the machine's
//! one fault path (`Machine::fault`), so stateful placement policies and
//! the allocator see the exact sequence. Otherwise every thread runs live.
//!
//! **Labels.** A region meets its proof by its `"phase/loop"` label and by
//! nothing else. A label may name several region instances (one loop run
//! many times per iteration, its cold-start and timed copies); it has a pool
//! only if every instance derived the same proof ([`ProofTable::fold`]), so
//! one instance's memo is never replayed for another. A label without a
//! pool runs exactly. A folded table is immutable and its proofs sit behind
//! `Arc`s: any number of engines install the same table, none copies a
//! proof.
//!
//! **The memo library.** An engine shares memos with the other engines of
//! its process through a [`MemoLibrary`]: the one its caller keeps for the
//! proof set it installed and its machine's configuration, and within that
//! by proof, thread and bound CPU. A CPU whose own images all miss looks
//! there before it records, and an engine publishes what it records and retimes until its machine's first page
//! migration — the prefix every run of the key shares, because caches are
//! virtually tagged and a placement only chooses frames. An image is an
//! immutable [`Arc`]'d core once built; its placements stay per engine, and
//! the library's copies behind its lock, which is taken once per region
//! that misses or publishes. A library lives as long as its last handle:
//! the engine's goes with the engine, the owner's with the owner.
//!
//! **Fallback.** Every precondition failure — a proof page beyond the page
//! table, active replicas, active trace, team mismatch — returns an empty
//! [`FastpathOutcome`] and the region runs the exact line-by-line path.
//! Recording re-validates the proof at region exit (did the directory move
//! exactly as the full team's claims say? do the reference-counter deltas
//! match the memory accesses the machine logged? did anything outside the
//! footprint change?); a violated contract discards the memos in release
//! builds and fires a `debug_assert!` in debug builds, so a lying proof can
//! degrade performance but never correctness. A retime walk that does not
//! consume its class stream exactly, or reaches memory more or less often
//! than its image says, is the engine's own bug and an `assert!`.

mod engine;
mod image;
mod library;
mod proof;
mod retime;

pub use engine::{FastpathEngine, FastpathOutcome, FastpathStats};
pub use library::{LibraryStats, MemoLibrary};
pub use proof::{PhaseProof, ProofTable};
pub use retime::Retime;
pub(crate) use retime::{ClassStream, CLASS_L1, CLASS_L2, CLASS_MEM};

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
