//! The Origin2000 memory latency model — Table 1 of the paper.
//!
//! | Level              | Distance in hops | Contented latency (ns) |
//! |--------------------|------------------|------------------------|
//! | L1 cache           | 0                | 5.5                    |
//! | L2 cache           | 0                | 56.9                   |
//! | local memory       | 0                | 329                    |
//! | remote memory      | 1                | 564                    |
//! | remote memory      | 2                | 759                    |
//! | remote memory      | 3                | 862                    |
//!
//! Beyond three hops the paper states that "for each additional hop ... the
//! memory latency is increased by 100 to 200 ns"; we extrapolate linearly at
//! the observed 3-hop increment (103 ns/hop).
//!
//! The model is parameterized so the experiment harness can sweep the
//! remote-to-local latency ratio — the paper's central architectural claim is
//! that the low (~2:1) ratio of the Origin2000 is what makes balanced page
//! placement schemes competitive, and that "the impact of page placement
//! would be more significant on ccNUMA architectures with higher remote
//! memory access latencies".

/// Per-level access latencies, in nanoseconds of simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// L1 hit latency.
    pub l1_ns: f64,
    /// L2 hit latency.
    pub l2_ns: f64,
    /// Local-memory (0-hop) latency.
    pub local_ns: f64,
    /// Remote latencies indexed by `hops - 1`; the last entry is extended by
    /// `per_extra_hop_ns` for each hop beyond the table.
    pub remote_ns: Vec<f64>,
    /// Extrapolation increment for hops beyond `remote_ns`.
    pub per_extra_hop_ns: f64,
}

impl LatencyModel {
    /// Table 1 of the paper (16-processor Origin2000).
    pub fn origin2000() -> Self {
        Self {
            l1_ns: 5.5,
            l2_ns: 56.9,
            local_ns: 329.0,
            remote_ns: vec![564.0, 759.0, 862.0],
            per_extra_hop_ns: 103.0,
        }
    }

    /// A hypothetical machine with a higher remote:local ratio, used by the
    /// ablation study of the paper's "low latency ratio" argument. `ratio`
    /// scales the *remote penalty* so that a 1-hop access costs
    /// `local_ns * ratio`, with the same per-hop slope shape as Table 1.
    pub fn with_remote_ratio(ratio: f64) -> Self {
        assert!(ratio >= 1.0, "remote:local ratio must be >= 1");
        let base = Self::origin2000();
        let one_hop = base.local_ns * ratio;
        // Preserve Table 1's relative per-hop growth (759/564, 862/564).
        let scale = one_hop / base.remote_ns[0];
        Self {
            remote_ns: base.remote_ns.iter().map(|r| r * scale).collect(),
            per_extra_hop_ns: base.per_extra_hop_ns * scale,
            ..base
        }
    }

    /// Latency of a memory access that crosses `hops` network hops.
    #[inline]
    pub fn memory_ns(&self, hops: u32) -> f64 {
        if hops == 0 {
            return self.local_ns;
        }
        let idx = hops as usize - 1;
        match self.remote_ns.get(idx) {
            Some(&ns) => ns,
            None => {
                let last = *self.remote_ns.last().expect("remote table non-empty");
                let extra = (idx + 1 - self.remote_ns.len()) as f64;
                last + extra * self.per_extra_hop_ns
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::origin2000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let m = LatencyModel::origin2000();
        assert_eq!(m.l1_ns, 5.5);
        assert_eq!(m.l2_ns, 56.9);
        assert_eq!(m.memory_ns(0), 329.0);
        assert_eq!(m.memory_ns(1), 564.0);
        assert_eq!(m.memory_ns(2), 759.0);
        assert_eq!(m.memory_ns(3), 862.0);
    }

    #[test]
    fn extrapolates_beyond_three_hops() {
        let m = LatencyModel::origin2000();
        assert_eq!(m.memory_ns(4), 862.0 + 103.0);
        assert_eq!(m.memory_ns(5), 862.0 + 206.0);
    }

    #[test]
    fn paper_ratio_is_low() {
        // Paper: "ratio of remote to local memory access latency ranges
        // between 2:1 and 3:1"; at one hop it is < 2:1.
        let m = LatencyModel::origin2000();
        let r = m.memory_ns(1) / m.local_ns;
        assert!(r > 1.5 && r < 2.0, "ratio {r}");
        assert!(m.memory_ns(3) / m.local_ns < 3.0);
    }

    #[test]
    fn ratio_sweep_scales_remote_only() {
        let m = LatencyModel::with_remote_ratio(4.0);
        assert_eq!(m.local_ns, 329.0);
        assert!((m.memory_ns(1) - 329.0 * 4.0).abs() < 1e-9);
        // Shape preserved: 2-hop/1-hop ratio identical to Table 1.
        let base = LatencyModel::origin2000();
        let shape = base.memory_ns(2) / base.memory_ns(1);
        assert!((m.memory_ns(2) / m.memory_ns(1) - shape).abs() < 1e-12);
    }
}
