//! UPMlib tunables.
//!
//! The paper exposes these as environment variables of the runtime system
//! ("we use an environment variable which instructs the mechanism to move
//! only the n most critical pages"); here they are a plain options struct.

/// Tuning knobs of the UPMlib engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpmOptions {
    /// Competitive-criterion threshold `thr`: a page is eligible for
    /// migration when `max_remote_accesses / local_accesses > thr`.
    pub thr: f64,
    /// Minimum counted accesses from the winning remote node before a page
    /// is considered at all — suppresses noise from barely-touched pages.
    pub min_accesses: u16,
    /// `n`, the number of most-critical pages the record–replay mechanism
    /// may move per phase transition (paper: "we set the number of critical
    /// pages to 20").
    pub critical_pages: usize,
    /// Freeze pages that bounce between two nodes in consecutive
    /// invocations (page-level false-sharing defense). On by default, as in
    /// the paper; the ablation experiment turns it off.
    pub freeze_ping_pong: bool,
}

impl Default for UpmOptions {
    fn default() -> Self {
        Self {
            thr: 2.0,
            min_accesses: 8,
            critical_pages: 20,
            freeze_ping_pong: true,
        }
    }
}

impl UpmOptions {
    /// The competitive criterion of §3.3 on one page's counters — `local`
    /// accesses from its home node, `rmax` from the most active remote
    /// node: is the page remote-dominated enough to justify moving it?
    /// Returns the dominance ratio `rmax / local` of an eligible page
    /// (`local == 0` is infinitely remote-dominated).
    pub fn competitive(&self, local: u64, rmax: u64) -> Option<f64> {
        if rmax < self.min_accesses as u64 {
            return None;
        }
        let ratio = if local == 0 {
            f64::INFINITY
        } else {
            rmax as f64 / local as f64
        };
        (ratio > self.thr).then_some(ratio)
    }

    /// The configuration used in the paper's record–replay experiments.
    pub fn paper_recrep() -> Self {
        Self {
            critical_pages: 20,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = UpmOptions::default();
        assert_eq!(o.critical_pages, 20);
        assert!(o.thr >= 1.0);
        assert!(o.freeze_ping_pong);
    }
}
