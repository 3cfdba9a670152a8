use std::sync::Arc;

use super::proof::PhaseProof;
use super::retime::{ClassStream, Timing};
use super::{KEY_EMPTY, KEY_OTHER, MAX_ASSOC, MAX_VARIANTS};
use crate::cache::{SetAssocCache, INVALID_TAG};
use crate::coherence::Directory;
use crate::cpu::CpuId;
use crate::machine::Machine;
use crate::memory::FrameId;

/// Per-set key: the touched set indices and their normalized entry states
/// (`assoc × 2` words per set — `(class, rank<<1|fresh)` per way — in
/// `sets` order, which is sorted).
#[derive(Clone, PartialEq)]
pub(super) struct LevelKey {
    pub(super) sets: Vec<u32>,
    pub(super) key: Vec<u64>,
}

/// One CPU's memoized region delta, keyed on the cache state it can
/// observe: everything that holds wherever its pages live. Immutable once
/// built, so engines and libraries share it.
#[derive(Clone)]
pub(super) struct ImageCore {
    pub(super) l1: LevelKey,
    pub(super) l2: LevelKey,
    pub(super) l1_fix: CacheFix,
    pub(super) l2_fix: CacheFix,
    /// `(position in proof.pages, accesses)` of every page this CPU reached
    /// memory on, ascending: the reference-counter increments at this CPU's
    /// node, on whatever frame holds the page.
    pub(super) pages: Vec<(u32, u64)>,
    /// Positions in `proof.pages` of the pages this CPU faulted in, in the
    /// order it faulted them: those of its `pages` that were unmapped when
    /// its turn came. Part of the image's identity: each fault adds the
    /// fault time to `cache_ns` at its place in the walk.
    pub(super) faults: Vec<u32>,
    pub(super) l1_hits: u64,
    pub(super) l2_hits: u64,
    pub(super) coherence_misses: u64,
    /// Exit `compute_ns` and `cache_ns` of the region account.
    pub(super) compute_ns: f64,
    pub(super) cache_ns: f64,
    /// The walk's class per access; empty when it never reaches memory (its
    /// one placement, on no frames, always hits).
    pub(super) classes: ClassStream,
}

impl ImageCore {
    /// Accesses of the walk that reach memory.
    pub(super) fn memory_accesses(&self) -> u64 {
        self.pages.iter().map(|&(_, count)| count).sum()
    }

    /// Whether `other` is keyed on the same cache state and faults the same
    /// pages — and so, for the same proof and CPU, is the same image.
    pub(super) fn same_key(&self, other: &ImageCore) -> bool {
        self.l1 == other.l1 && self.l2 == other.l2 && self.faults == other.faults
    }

    /// Whether the walk faults exactly the pages it reaches that are still
    /// `unmapped` at its turn: the pages it faulted when recorded are all
    /// unmapped, and every other page it reaches memory on is mapped.
    pub(super) fn faults_fit(&self, unmapped: &Unmapped) -> bool {
        if unmapped.left == 0 {
            return self.faults.is_empty();
        }
        let reached = self.pages.iter().filter(|&&(p, _)| unmapped.contains(p));
        self.faults.iter().all(|&p| unmapped.contains(p)) && reached.count() == self.faults.len()
    }
}

/// The proof pages a region entry found unmapped and no earlier thread's
/// image has faulted in yet, by position in `proof.pages`.
#[derive(Default)]
pub(super) struct Unmapped {
    at: Vec<bool>,
    pub(super) left: usize,
}

impl Unmapped {
    /// The pages `frames` holds no frame for.
    pub(super) fn of(frames: &[(u64, FrameId)]) -> Self {
        let mut unmapped = Self::default();
        for (p, &(_, frame)) in frames.iter().enumerate() {
            if frame == NO_FRAME {
                unmapped.at.resize(frames.len(), false);
                unmapped.at[p] = true;
                unmapped.left += 1;
            }
        }
        unmapped
    }

    #[inline]
    pub(super) fn contains(&self, page: u32) -> bool {
        self.at.get(page as usize).copied().unwrap_or(false)
    }

    /// Take `faults` (unmapped pages, each once) off the set.
    pub(super) fn claim(&mut self, faults: &[u32]) {
        for &p in faults {
            debug_assert!(self.at[p as usize], "a page faults once");
            self.at[p as usize] = false;
        }
        self.left -= faults.len();
    }
}

/// The frame of a proof page that is not mapped yet, in a region's
/// `(vpage, frame)` table.
pub(super) const NO_FRAME: FrameId = FrameId::MAX;

/// A memo: an image and its timing under each frame assignment seen so
/// far, MRU first.
#[derive(Clone)]
pub(super) struct Image {
    pub(super) core: Arc<ImageCore>,
    pub(super) placements: Vec<Placement>,
}

impl Image {
    /// Position of the placement on the `frames` a region entered with.
    pub(super) fn on_frames(&self, frames: &[(u64, FrameId)]) -> Option<usize> {
        self.placements.iter().position(|p| {
            let pages = self.core.pages.iter().zip(&p.frames);
            pages
                .into_iter()
                .all(|(&(page, _), &f)| frames[page as usize].1 == f)
        })
    }

    /// Keep `placement` unless one on its frames is held already.
    pub(super) fn keep_placement(&mut self, placement: Placement) {
        if !self.placements.iter().any(|p| p.frames == placement.frames) {
            keep_mru(&mut self.placements, placement);
        }
    }
}

/// An [`Image`]'s timing with its pages on `frames` (in `ImageCore::pages`
/// order).
#[derive(Clone)]
pub(super) struct Placement {
    pub(super) frames: Vec<FrameId>,
    pub(super) timing: Timing,
}

/// Keep `entry` in front of `entries`. They are held MRU first (a lookup
/// rotates what it finds to the front), so the last one is the least recently
/// used: it goes when [`MAX_VARIANTS`] are held already.
pub(super) fn keep_mru<T>(entries: &mut Vec<T>, entry: T) {
    entries.truncate(MAX_VARIANTS - 1);
    entries.insert(0, entry);
}

/// How to rebuild one cache's touched sets at region exit.
#[derive(Clone, Default)]
pub(super) struct CacheFix {
    pub(super) tick_delta: u64,
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
    pub(super) fixes: Vec<(u32, u8, u64, u64)>,
}

/// Dense proof-line membership bitmap (bit `line & 63` of word `line >> 6`)
/// — match-time tag classification in O(1) instead of a binary search over
/// the (possibly huge) footprint.
#[derive(Clone, Default)]
pub(super) struct LineSet(pub(super) Vec<u64>);

impl LineSet {
    /// The set of `proof`'s lines; sized by the last of them.
    pub(super) fn of(proof: &PhaseProof) -> Self {
        let last = proof.lines().next_back();
        let mut bits = vec![0u64; last.map_or(0, |l| (l >> 6) as usize + 1)];
        for l in proof.lines() {
            bits[(l >> 6) as usize] |= 1 << (l & 63);
        }
        Self(bits)
    }

    #[inline]
    pub(super) fn contains(&self, tag: u64) -> bool {
        self.0
            .get((tag >> 6) as usize)
            .is_some_and(|w| w >> (tag & 63) & 1 != 0)
    }
}

/// LRU rank of each way by `(stamp, way index)` — the exact order the fill
/// victim scan resolves ties in (strict `<`, first index wins). Valid ways
/// have unique stamps (they come from unique ticks), so ranks identify ways
/// unambiguously; empty ways tie on stamp 0 and rank in index order, which
/// is also the order fills consume them in.
#[inline]
pub(super) fn way_ranks(ways: &[(u64, u32, u64)]) -> [u8; MAX_ASSOC] {
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
pub(super) fn norm_ways(
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
pub(super) fn level_matches(
    cache: &SetAssocCache,
    lk: &LevelKey,
    lines: &LineSet,
    dir: &Directory,
) -> bool {
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
pub(super) fn apply_image(
    m: &mut Machine,
    cpu: CpuId,
    image: &ImageCore,
    frames: &[(u64, FrameId)],
) {
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
pub(super) fn land_timing(m: &mut Machine, cpu: CpuId, timing: &Timing) {
    let ctx = &mut m.cpus[cpu];
    ctx.stats.mem_local += timing.mem_local;
    ctx.stats.mem_remote += timing.mem_remote;
    ctx.account.stall_ns = timing.stall_ns;
    ctx.account.stall_by_node.clone_from(&timing.stall_by_node);
    ctx.account
        .accesses_by_node
        .clone_from(&timing.accesses_by_node);
}

pub(super) fn apply_cache(cache: &mut SetAssocCache, fix: &CacheFix, dir: &Directory) {
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
