//! Fat-hypercube interconnect topology of the SGI Origin2000.
//!
//! The Origin2000 groups two dual-processor nodes on each router; routers
//! form a binary hypercube ("fat hypercube ... with two nodes on each edge",
//! paper §2). Hop distance between two nodes is therefore:
//!
//! * `0` — same node (local memory),
//! * `1` — different node, same router,
//! * `1 + hamming(router_a, router_b)` — different routers.
//!
//! For the paper's 16-processor runs (8 nodes, 4 routers in a 2-cube) the
//! maximum distance is 3 hops, matching Table 1 of the paper.

/// Identifier of a NUMA node (a memory module plus its local processors).
pub type NodeId = usize;

/// Interconnect topology: nodes, processors per node, and router layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nodes: usize,
    cpus_per_node: usize,
    nodes_per_router: usize,
}

impl Topology {
    /// Build a fat-hypercube topology.
    ///
    /// # Panics
    /// Panics if `nodes` or `cpus_per_node` is zero, or if the router count
    /// implied by `nodes` is not a power of two (required for a hypercube).
    pub fn fat_hypercube(nodes: usize, cpus_per_node: usize) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(
            cpus_per_node > 0,
            "topology needs at least one CPU per node"
        );
        let nodes_per_router = 2usize.min(nodes);
        let routers = nodes.div_ceil(nodes_per_router);
        assert!(
            routers.is_power_of_two(),
            "router count {routers} must be a power of two for a hypercube"
        );
        Self {
            nodes,
            cpus_per_node,
            nodes_per_router,
        }
    }

    /// The Origin2000 configuration used in the paper: 8 nodes x 2 CPUs.
    pub fn origin2000_16p() -> Self {
        Self::fat_hypercube(8, 2)
    }

    /// Number of NUMA nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of processors on each node.
    #[inline]
    pub fn cpus_per_node(&self) -> usize {
        self.cpus_per_node
    }

    /// Total processor count.
    #[inline]
    pub fn cpus(&self) -> usize {
        self.nodes * self.cpus_per_node
    }

    /// The node that hosts a given CPU. CPUs are numbered consecutively
    /// within nodes: CPUs `2k` and `2k+1` live on node `k` (for 2 CPUs/node).
    #[inline]
    pub fn node_of_cpu(&self, cpu: usize) -> NodeId {
        debug_assert!(cpu < self.cpus());
        cpu / self.cpus_per_node
    }

    /// Router that a node hangs off.
    #[inline]
    pub fn router_of_node(&self, node: NodeId) -> usize {
        node / self.nodes_per_router
    }

    /// Network hop distance between two nodes (0 = local).
    #[inline]
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        debug_assert!(a < self.nodes && b < self.nodes);
        if a == b {
            return 0;
        }
        let ra = self.router_of_node(a);
        let rb = self.router_of_node(b);
        1 + (ra ^ rb).count_ones()
    }

    /// Maximum hop distance in this topology.
    pub fn diameter(&self) -> u32 {
        if self.nodes <= 1 {
            return 0;
        }
        let routers = self.nodes.div_ceil(self.nodes_per_router);
        // 1 hop to leave the local router, plus the hypercube dimension.
        1 + routers.trailing_zeros()
    }

    /// Nodes sorted by distance from `from` (closest first, `from` itself
    /// first of all). Ties broken by node id, so the order is deterministic.
    /// Used by the best-effort migration fallback in the VM subsystem.
    pub fn nodes_by_distance(&self, from: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = (0..self.nodes).collect();
        v.sort_by_key(|&n| (self.hops(from, n), n));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_16p_shape() {
        let t = Topology::origin2000_16p();
        assert_eq!(t.nodes(), 8);
        assert_eq!(t.cpus(), 16);
        assert_eq!(t.node_of_cpu(0), 0);
        assert_eq!(t.node_of_cpu(1), 0);
        assert_eq!(t.node_of_cpu(15), 7);
    }

    #[test]
    fn hop_distances_match_table1_range() {
        let t = Topology::origin2000_16p();
        // local
        assert_eq!(t.hops(0, 0), 0);
        // same router (nodes 0,1 share router 0)
        assert_eq!(t.hops(0, 1), 1);
        // one router hop (routers 0 and 1 differ in one bit)
        assert_eq!(t.hops(0, 2), 2);
        // two router hops (routers 0 and 3 differ in two bits)
        assert_eq!(t.hops(0, 6), 3);
        // symmetric
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(t.hops(a, b), t.hops(b, a));
            }
        }
        // max distance is 3 hops on the 16p machine, as in Table 1
        let max = (0..8)
            .flat_map(|a| (0..8).map(move |b| (a, b)))
            .map(|(a, b)| t.hops(a, b))
            .max()
            .unwrap();
        assert_eq!(max, 3);
    }

    #[test]
    fn nodes_by_distance_is_sorted_and_complete() {
        let t = Topology::origin2000_16p();
        for from in 0..8 {
            let order = t.nodes_by_distance(from);
            assert_eq!(order.len(), 8);
            assert_eq!(order[0], from);
            for w in order.windows(2) {
                assert!(t.hops(from, w[0]) <= t.hops(from, w[1]));
            }
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_node_topology() {
        let t = Topology::fat_hypercube(1, 4);
        assert_eq!(t.cpus(), 4);
        assert_eq!(t.hops(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_router_count_panics() {
        let _ = Topology::fat_hypercube(6, 2);
    }
}
