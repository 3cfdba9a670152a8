//! Set-associative cache models for the simulated R10000 hierarchy.
//!
//! Each simulated CPU owns a private L1 (32 KB, 2-way in our model; the real
//! R10000 L1 is 2-way) and a private unified L2 (4 MB, 2-way, 128 B lines).
//! Caches store `(tag, coherence version)` pairs; a hit requires both the tag
//! to match *and* the stored version to equal the line's current version in
//! the global coherence [`crate::Directory`]. A version mismatch is a
//! coherence miss — another CPU wrote the line since we cached it — and is
//! serviced from memory, which is where the Origin2000's per-frame reference
//! counters count it.
//!
//! LRU is exact per set (tiny associativities make this cheap).

use crate::LINE_SHIFT;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// R10000 L1: 32 KB, 2-way (split I/D on the real chip; we model the
    /// data side only, since the simulator only sees data accesses).
    pub fn origin_l1() -> Self {
        Self {
            capacity: 32 * 1024,
            ways: 2,
        }
    }

    /// R10000 board-level L2: 4 MB unified, 2-way.
    pub fn origin_l2() -> Self {
        Self {
            capacity: 4 * 1024 * 1024,
            ways: 2,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        let lines = self.capacity >> LINE_SHIFT;
        assert!(lines >= self.ways, "cache too small for its associativity");
        let sets = lines / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

pub(crate) const INVALID_TAG: u64 = u64::MAX;

/// One way of one set: the cached line number and the coherence version it
/// was loaded at.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    version: u32,
    /// Monotone per-cache LRU stamp; larger = more recently used.
    stamp: u64,
}

impl Way {
    const EMPTY: Way = Way {
        tag: INVALID_TAG,
        version: 0,
        stamp: 0,
    };
}

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Tag present with the current coherence version.
    Hit,
    /// Tag present but the line was written by another CPU since it was
    /// cached (version mismatch) — a coherence miss.
    Stale,
    /// Tag absent.
    Miss,
}

/// A set-associative cache with exact LRU and version-tagged lines.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    ways: Vec<Way>,
    set_mask: u64,
    assoc: usize,
    tick: u64,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            ways: vec![Way::EMPTY; sets * config.ways],
            set_mask: (sets - 1) as u64,
            assoc: config.ways,
            tick: 0,
        }
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line & self.set_mask) as usize;
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Probe for `line`, expecting coherence version `current_version`.
    /// On a hit, refreshes LRU. On a stale hit, the entry is left in place
    /// (the caller is expected to follow up with [`Self::fill`]).
    #[inline]
    pub fn probe(&mut self, line: u64, current_version: u32) -> Probe {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        for w in &mut self.ways[range] {
            if w.tag == line {
                return if w.version == current_version {
                    w.stamp = tick;
                    Probe::Hit
                } else {
                    Probe::Stale
                };
            }
        }
        Probe::Miss
    }

    /// Install `line` at `version`, evicting the LRU way if needed.
    /// Returns the evicted line, if a valid one was displaced.
    #[inline]
    pub fn fill(&mut self, line: u64, version: u32) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        // Reuse an existing entry for this tag (stale refresh) or an empty way.
        let mut victim = range.start;
        let mut victim_stamp = u64::MAX;
        for i in range.clone() {
            let w = &mut self.ways[i];
            if w.tag == line || w.tag == INVALID_TAG {
                let evicted = None; // same tag or empty: nothing displaced
                w.tag = line;
                w.version = version;
                w.stamp = tick;
                return evicted;
            }
            if w.stamp < victim_stamp {
                victim_stamp = w.stamp;
                victim = i;
            }
        }
        let w = &mut self.ways[victim];
        let evicted = Some(w.tag);
        w.tag = line;
        w.version = version;
        w.stamp = tick;
        evicted
    }

    /// Update the stored version of `line` if present (used on writes, which
    /// bump the directory version and must keep the writer's own copy fresh).
    #[inline]
    pub fn refresh_version(&mut self, line: u64, version: u32) {
        let range = self.set_range(line);
        for w in &mut self.ways[range] {
            if w.tag == line {
                w.version = version;
                return;
            }
        }
    }

    /// Invalidate one line if present. Returns whether it was present.
    pub fn invalidate_line(&mut self, line: u64) -> bool {
        let range = self.set_range(line);
        for w in &mut self.ways[range] {
            if w.tag == line {
                *w = Way::EMPTY;
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently cached (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.tag != INVALID_TAG).count()
    }

    // ---- fast-path introspection (crate-internal) --------------------------
    //
    // The phase fast path (see `crate::fastpath`) snapshots and reconstructs
    // cache state around memoized regions. It needs raw access to ways and
    // the LRU tick; everything stays `pub(crate)` so the public cache model
    // remains probe/fill/invalidate only.

    /// Set-index mask (`sets - 1`).
    #[inline]
    pub(crate) fn set_mask(&self) -> u64 {
        self.set_mask
    }

    /// Associativity (ways per set).
    #[inline]
    pub(crate) fn assoc(&self) -> usize {
        self.assoc
    }

    /// Current LRU tick.
    #[inline]
    pub(crate) fn tick(&self) -> u64 {
        self.tick
    }

    /// Overwrite the LRU tick.
    #[inline]
    pub(crate) fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// Raw `(tag, version, stamp)` of way `idx` (flat index: `set * assoc + way`).
    #[inline]
    pub(crate) fn way(&self, idx: usize) -> (u64, u32, u64) {
        let w = &self.ways[idx];
        (w.tag, w.version, w.stamp)
    }

    /// Overwrite way `idx` (flat index) with the given raw fields.
    #[inline]
    pub(crate) fn set_way(&mut self, idx: usize, tag: u64, version: u32, stamp: u64) {
        self.ways[idx] = Way {
            tag,
            version,
            stamp,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways = 8 lines of 128 B => capacity 1 KB.
        SetAssocCache::new(CacheConfig {
            capacity: 1024,
            ways: 2,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::origin_l1().sets(), 128);
        assert_eq!(CacheConfig::origin_l2().sets(), 16384);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe(42, 0), Probe::Miss);
        c.fill(42, 0);
        assert_eq!(c.probe(42, 0), Probe::Hit);
    }

    #[test]
    fn version_mismatch_is_stale() {
        let mut c = tiny();
        c.fill(42, 0);
        assert_eq!(c.probe(42, 1), Probe::Stale);
        // Refill at the new version restores hits.
        c.fill(42, 1);
        assert_eq!(c.probe(42, 1), Probe::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, 0);
        c.fill(4, 0);
        assert_eq!(c.probe(0, 0), Probe::Hit); // touch 0: now 4 is LRU
        let evicted = c.fill(8, 0);
        assert_eq!(evicted, Some(4));
        assert_eq!(c.probe(0, 0), Probe::Hit);
        assert_eq!(c.probe(4, 0), Probe::Miss);
        assert_eq!(c.probe(8, 0), Probe::Hit);
    }

    #[test]
    fn fill_same_tag_does_not_evict() {
        let mut c = tiny();
        c.fill(0, 0);
        c.fill(4, 0);
        assert_eq!(c.fill(0, 3), None);
        assert_eq!(c.probe(0, 3), Probe::Hit);
        assert_eq!(c.probe(4, 0), Probe::Hit);
    }

    #[test]
    fn invalidate() {
        let mut c = tiny();
        c.fill(1, 0);
        c.fill(2, 0);
        assert!(c.invalidate_line(1));
        assert!(!c.invalidate_line(1));
        assert_eq!(c.probe(1, 0), Probe::Miss);
        assert_eq!(c.probe(2, 0), Probe::Hit);
    }

    #[test]
    fn refresh_version_keeps_writers_copy_fresh() {
        let mut c = tiny();
        c.fill(7, 0);
        c.refresh_version(7, 5);
        assert_eq!(c.probe(7, 5), Probe::Hit);
    }
}
