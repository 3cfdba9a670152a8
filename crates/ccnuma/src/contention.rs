//! Memory-module contention model.
//!
//! The paper attributes much of the worst-case placement penalty to
//! contention: *"All processors except the ones on the node that hosts the
//! data are contending to access the memory modules of one node throughout
//! the execution of the program."* A latency-only model misses this, so the
//! simulator applies a queueing correction per parallel region:
//!
//! 1. While a region executes, each CPU tallies, per home node, how many
//!    memory accesses it issued there and how much base stall time they cost.
//! 2. When the region closes, each node's utilization is estimated as
//!    `u_n = (accesses_to_n * service_ns) / T_0`, where `T_0` is the region's
//!    uncorrected duration (max over CPUs).
//! 3. Every access to node `n` is charged an extra M/M/1-style queueing delay
//!    `service_ns * u_n / (1 - u_n)` (utilization capped below 1).
//! 4. The region's wall time is the max over CPUs of their corrected times.
//!
//! The model is deterministic and deliberately coarse: it only needs to make
//! one overloaded memory module expensive and balanced traffic nearly free,
//! which is exactly the asymmetry the paper's Figure 1 exhibits.

/// Tunables of the contention model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionConfig {
    /// Memory-module occupancy per access, ns. The Origin2000 Hub + SDRAM
    /// pipeline sustained roughly one access per ~100 ns per module.
    pub service_ns: f64,
    /// Utilization cap (queueing delay explodes as u -> 1).
    pub max_utilization: f64,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        Self {
            service_ns: 100.0,
            max_utilization: 0.95,
        }
    }
}

/// Per-CPU accounting accumulated during one parallel region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CpuRegionAccount {
    /// Simulated compute time in the region, ns.
    pub compute_ns: f64,
    /// Cache-hit stall time (not subject to node contention), ns.
    pub cache_ns: f64,
    /// Base memory stall per home node, ns.
    pub stall_by_node: Vec<f64>,
    /// Memory access count per home node.
    pub accesses_by_node: Vec<u64>,
    /// Total access latency accumulated this region, ns — the per-region
    /// staging buffer for the run-cumulative `CpuStats::stall_ns`, folded in
    /// at `end_region`. Not part of [`CpuRegionAccount::base_ns`] (it would
    /// double-count `cache_ns` and `stall_by_node`); unlike `cache_ns` it
    /// excludes page-fault service time, matching what `touch` returns.
    pub stall_ns: f64,
}

impl CpuRegionAccount {
    /// Empty account for a machine with `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            compute_ns: 0.0,
            cache_ns: 0.0,
            stall_by_node: vec![0.0; nodes],
            accesses_by_node: vec![0; nodes],
            stall_ns: 0.0,
        }
    }

    /// Uncorrected busy time of this CPU.
    pub fn base_ns(&self) -> f64 {
        self.compute_ns + self.cache_ns + self.stall_by_node.iter().sum::<f64>()
    }

    /// Zero all fields (reused between regions without reallocating).
    pub fn clear(&mut self) {
        self.compute_ns = 0.0;
        self.cache_ns = 0.0;
        self.stall_by_node.iter_mut().for_each(|v| *v = 0.0);
        self.accesses_by_node.iter_mut().for_each(|v| *v = 0);
        self.stall_ns = 0.0;
    }
}

/// Result of closing a region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionTiming {
    /// Corrected wall time of the region, ns.
    pub wall_ns: f64,
    /// Uncorrected wall time (max base CPU time), ns.
    pub base_ns: f64,
    /// Per-node utilization estimates.
    pub utilization: Vec<f64>,
    /// Per-CPU corrected busy times, ns.
    pub cpu_ns: Vec<f64>,
}

/// The contention model itself (stateless apart from its config).
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentionModel {
    config: ContentionConfig,
}

impl ContentionModel {
    /// Model with the given tunables.
    pub fn new(config: ContentionConfig) -> Self {
        Self { config }
    }

    /// Fold per-CPU region accounts into a corrected region time. The
    /// accounts are walked three times, hence `Clone`: the machine lends
    /// them straight out of its CPUs, once per region.
    pub fn close_region<'a>(
        &self,
        accounts: impl ExactSizeIterator<Item = &'a CpuRegionAccount> + Clone,
        nodes: usize,
    ) -> RegionTiming {
        let base_ns = accounts
            .clone()
            .map(CpuRegionAccount::base_ns)
            .fold(0.0, f64::max);
        // Idle region (no work at all): nothing to correct.
        if base_ns <= 0.0 {
            return RegionTiming {
                wall_ns: 0.0,
                base_ns: 0.0,
                utilization: vec![0.0; nodes],
                cpu_ns: vec![0.0; accounts.len()],
            };
        }
        let mut node_accesses = vec![0u64; nodes];
        for acct in accounts.clone() {
            for (n, &a) in acct.accesses_by_node.iter().enumerate() {
                node_accesses[n] += a;
            }
        }
        let utilization: Vec<f64> = node_accesses
            .iter()
            .map(|&a| {
                ((a as f64 * self.config.service_ns) / base_ns).min(self.config.max_utilization)
            })
            .collect();
        let extra_per_access: Vec<f64> = utilization
            .iter()
            .map(|&u| self.config.service_ns * u / (1.0 - u))
            .collect();
        let cpu_ns: Vec<f64> = accounts
            .map(|acct| {
                let extra: f64 = acct
                    .accesses_by_node
                    .iter()
                    .zip(&extra_per_access)
                    .map(|(&a, &e)| a as f64 * e)
                    .sum();
                acct.base_ns() + extra
            })
            .collect();
        let wall_ns = cpu_ns.iter().copied().fold(0.0, f64::max);
        RegionTiming {
            wall_ns,
            base_ns,
            utilization,
            cpu_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct(
        nodes: usize,
        compute: f64,
        node: usize,
        accesses: u64,
        stall: f64,
    ) -> CpuRegionAccount {
        let mut a = CpuRegionAccount::new(nodes);
        a.compute_ns = compute;
        a.accesses_by_node[node] = accesses;
        a.stall_by_node[node] = stall;
        a
    }

    #[test]
    fn empty_region_is_free() {
        let m = ContentionModel::default();
        let t = m.close_region([CpuRegionAccount::new(4)].iter(), 4);
        assert_eq!(t.wall_ns, 0.0);
    }

    #[test]
    fn balanced_traffic_barely_penalized() {
        let m = ContentionModel::default();
        // 4 CPUs, each hitting its own node with light traffic.
        let accounts: Vec<_> = (0..4)
            .map(|n| acct(4, 90_000.0, n, 100, 10_000.0))
            .collect();
        let t = m.close_region(accounts.iter(), 4);
        // u = 100*100/100_000 = 0.1 -> extra ~11 ns/access -> ~1.1% inflation.
        assert!(
            t.wall_ns < t.base_ns * 1.03,
            "wall {} base {}",
            t.wall_ns,
            t.base_ns
        );
    }

    #[test]
    fn single_hot_node_is_heavily_penalized() {
        let m = ContentionModel::default();
        // 8 CPUs all hammering node 0.
        let accounts: Vec<_> = (0..8)
            .map(|_| acct(8, 50_000.0, 0, 600, 50_000.0))
            .collect();
        let t = m.close_region(accounts.iter(), 8);
        // u = 4800*100/100_000 capped at 0.95 -> extra = 1900 ns/access.
        assert!(t.utilization[0] > 0.9);
        assert!(
            t.wall_ns > t.base_ns * 2.0,
            "wall {} base {}",
            t.wall_ns,
            t.base_ns
        );
    }

    #[test]
    fn hot_node_worse_than_spread_same_traffic() {
        let m = ContentionModel::default();
        let hot: Vec<_> = (0..8)
            .map(|_| acct(8, 50_000.0, 0, 300, 30_000.0))
            .collect();
        let spread: Vec<_> = (0..8)
            .map(|c| acct(8, 50_000.0, c, 300, 30_000.0))
            .collect();
        let t_hot = m.close_region(hot.iter(), 8);
        let t_spread = m.close_region(spread.iter(), 8);
        assert!(t_hot.wall_ns > t_spread.wall_ns);
    }

    #[test]
    fn utilization_is_capped() {
        let m = ContentionModel::new(ContentionConfig {
            service_ns: 100.0,
            max_utilization: 0.9,
        });
        let accounts = [acct(2, 0.0, 0, 1_000_000, 1000.0)];
        let t = m.close_region(accounts.iter(), 2);
        assert!(t.utilization[0] <= 0.9 + 1e-12);
        assert!(t.wall_ns.is_finite());
    }
}
