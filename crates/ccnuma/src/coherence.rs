//! Write-invalidate coherence directory.
//!
//! The Origin2000 keeps caches coherent with a directory-based protocol. The
//! simulator approximates it with a flat per-line *version* table: a write to
//! a line by any CPU bumps the line's version, so every other CPU's cached
//! copy (tagged with the version it loaded) becomes stale and its next access
//! is a coherence miss serviced from memory. This reproduces the sharing
//! effects the paper depends on — in particular page-level **false sharing**,
//! which causes pages to "bounce between two nodes in consecutive iterations"
//! and is what UPMlib's page-freezing heuristic exists for — without a full
//! MESI state machine.
//!
//! Versions are a dense `Vec<u32>`: the simulator executes simulated CPUs
//! sequentially, and the machine owns the directory exclusively, so writes
//! go through `&mut self` — no per-access atomic read-modify-write on the
//! hottest path of the whole simulator. The [`Directory::bump`] entry point
//! lets the phase fast path (see [`crate::fastpath`]) apply a region's worth
//! of write traffic to a line in one add.

/// Versions a copy allocates room for at least: 32 MiB of them. The C
/// allocator maps a request that large fresh from the system, whose pages
/// are zero and cost nothing until written. A smaller one made mid-sweep
/// is recycled heap memory that `calloc` zeroes, and so makes resident, in
/// full (a machine's 8 MB table, once one was freed).
const FRESH_VERSIONS: usize = (32 << 20) / std::mem::size_of::<u32>();

/// Per-line version table covering the simulated virtual address space.
#[derive(Debug)]
pub struct Directory {
    versions: Vec<u32>,
    /// Total writes ever applied (sum of all version bumps). The phase fast
    /// path validates a recorded region's aggregate write traffic against
    /// this in O(1) instead of scanning the whole footprint.
    writes: u64,
}

impl Directory {
    /// Create a directory covering `lines` cache lines of address space.
    pub fn new(lines: usize) -> Self {
        Self {
            versions: vec![0; lines],
            writes: 0,
        }
    }

    /// A copy of the first `lines` lines' versions, reading 0 above them,
    /// for a caller that knows no line above was ever written. The table
    /// is mapped fresh ([`FRESH_VERSIONS`]) and only those lines are
    /// copied, so the rest costs no resident memory until a run writes it.
    pub fn clone_below(&self, lines: usize) -> Self {
        let mut versions = vec![0; self.versions.len().max(FRESH_VERSIONS)];
        versions.truncate(self.versions.len());
        versions[..lines].copy_from_slice(&self.versions[..lines]);
        Self {
            versions,
            writes: self.writes,
        }
    }

    /// Number of lines covered.
    pub fn lines(&self) -> usize {
        self.versions.len()
    }

    /// Current version of `line`.
    #[inline(always)]
    pub fn version(&self, line: u64) -> u32 {
        self.versions[line as usize]
    }

    /// Total writes ever recorded (via [`Directory::write`] or
    /// [`Directory::bump`]).
    #[inline]
    pub fn total_writes(&self) -> u64 {
        self.writes
    }

    /// Record a write to `line`; returns the new version.
    #[inline(always)]
    pub fn write(&mut self, line: u64) -> u32 {
        self.writes += 1;
        let v = &mut self.versions[line as usize];
        *v = v.wrapping_add(1);
        *v
    }

    /// Apply `count` writes to `line` in one step — exactly equivalent to
    /// `count` calls to [`Directory::write`]. Used by the phase fast path to
    /// replay a region's directory traffic in bulk.
    #[inline]
    pub fn bump(&mut self, line: u64, count: u32) {
        self.writes += u64::from(count);
        let v = &mut self.versions[line as usize];
        *v = v.wrapping_add(count);
    }

    /// Reset all versions (test helper; also used when reusing a machine).
    pub fn reset(&mut self) {
        self.versions.fill(0);
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_start_at_zero_and_increment() {
        let mut d = Directory::new(16);
        assert_eq!(d.version(3), 0);
        assert_eq!(d.write(3), 1);
        assert_eq!(d.write(3), 2);
        assert_eq!(d.version(3), 2);
        assert_eq!(d.version(4), 0);
    }

    #[test]
    fn reset_clears() {
        let mut d = Directory::new(4);
        d.write(0);
        d.write(1);
        d.reset();
        assert_eq!(d.version(0), 0);
        assert_eq!(d.version(1), 0);
    }

    #[test]
    fn bump_matches_repeated_writes() {
        let mut a = Directory::new(4);
        let mut b = Directory::new(4);
        for _ in 0..7 {
            a.write(2);
        }
        b.bump(2, 7);
        assert_eq!(a.version(2), b.version(2));
        b.bump(2, 0);
        assert_eq!(b.version(2), 7, "zero bump is a no-op");
        // Wrapping behaviour matches write's wrapping_add.
        let mut c = Directory::new(1);
        c.bump(0, u32::MAX);
        c.write(0);
        assert_eq!(c.version(0), 0);
    }
}
