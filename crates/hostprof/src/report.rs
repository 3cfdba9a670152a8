//! The collected profile: per-thread span trees, the cross-thread merge,
//! and the per-component exclusive-time breakdown.

/// One node of the span tree: a distinct span path with call count and
/// inclusive host time.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name (`component.detail`, or `cell:<id>` for cell roots).
    pub name: String,
    /// Times this exact path was entered.
    pub calls: u64,
    /// Inclusive wall nanoseconds (children included).
    pub incl_ns: u64,
    /// Child spans, in first-seen order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Exclusive (self) nanoseconds: inclusive minus the children's
    /// inclusive time, floored at zero against clock jitter.
    pub fn excl_ns(&self) -> u64 {
        self.incl_ns
            .saturating_sub(self.children.iter().map(|c| c.incl_ns).sum())
    }

    /// Inclusive seconds.
    pub fn incl_secs(&self) -> f64 {
        self.incl_ns as f64 * 1e-9
    }
}

/// One completed span occurrence (event-log form, feeds the Perfetto
/// export). Hot spans are aggregated but not logged here.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name.
    pub name: String,
    /// Start offset from the session origin, host nanoseconds.
    pub start_ns: u64,
    /// Duration, host nanoseconds.
    pub dur_ns: u64,
    /// Stack depth at open time (0 = root).
    pub depth: u32,
}

/// Everything one thread collected during the session.
#[derive(Debug, Clone)]
pub struct ThreadSpans {
    /// Thread label (the OS thread name when set, e.g. `xp-worker-2`).
    pub label: String,
    /// The thread's root spans.
    pub roots: Vec<SpanNode>,
    /// The thread's span event log (capped; see [`crate::EVENT_CAP`]).
    pub events: Vec<SpanEvent>,
    /// Events dropped past the cap.
    pub dropped_events: u64,
}

/// A finished profiling session.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Per-thread span trees, in thread registration order.
    pub threads: Vec<ThreadSpans>,
    /// Host wall seconds the session was open.
    pub wall_secs: f64,
}

fn merge_into(dst: &mut Vec<SpanNode>, src: &SpanNode) {
    if let Some(d) = dst.iter_mut().find(|d| d.name == src.name) {
        d.calls += src.calls;
        d.incl_ns += src.incl_ns;
        for c in &src.children {
            merge_into(&mut d.children, c);
        }
    } else {
        dst.push(src.clone());
    }
}

fn sort_tree(nodes: &mut [SpanNode]) {
    nodes.sort_by(|a, b| b.incl_ns.cmp(&a.incl_ns).then(a.name.cmp(&b.name)));
    for n in nodes {
        sort_tree(&mut n.children);
    }
}

impl HostReport {
    /// The span forest merged across threads (same path ⇒ one node, calls
    /// and time summed), ordered by inclusive time.
    pub fn merged(&self) -> Vec<SpanNode> {
        let mut out = Vec::new();
        for thread in &self.threads {
            for root in &thread.roots {
                merge_into(&mut out, root);
            }
        }
        sort_tree(&mut out);
        out
    }

    /// The merged root span named `name`, if any thread recorded it.
    pub fn root(&self, name: &str) -> Option<SpanNode> {
        self.merged().into_iter().find(|n| n.name == name)
    }

    /// Total events dropped across threads (event cap overflow).
    pub fn dropped_events(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped_events).sum()
    }

    /// Sum of merged root inclusive nanoseconds (the profiled fraction of
    /// the session's wall time).
    pub fn total_span_ns(&self) -> u64 {
        self.merged().iter().map(|n| n.incl_ns).sum()
    }
}

/// The component a span name belongs to: the prefix before the first `.`
/// (`ccnuma.touch` → `ccnuma`); `cell:*` roots — the driver's own
/// bookkeeping around a cell — map to `driver`.
pub fn component_of(name: &str) -> &str {
    if name.starts_with("cell:") {
        "driver"
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

/// Bucket every node's **exclusive** time by component, descending by
/// seconds. Exclusive time partitions the profiled wall time, so the
/// buckets sum to the root spans' inclusive time.
pub fn component_breakdown(roots: &[SpanNode]) -> Vec<(String, f64)> {
    fn walk(node: &SpanNode, acc: &mut Vec<(String, u64)>) {
        let component = component_of(&node.name);
        match acc.iter_mut().find(|(c, _)| c == component) {
            Some((_, ns)) => *ns += node.excl_ns(),
            None => acc.push((component.to_string(), node.excl_ns())),
        }
        for c in &node.children {
            walk(c, acc);
        }
    }
    let mut acc: Vec<(String, u64)> = Vec::new();
    for root in roots {
        walk(root, &mut acc);
    }
    let mut out: Vec<(String, f64)> = acc
        .into_iter()
        .map(|(c, ns)| (c, ns as f64 * 1e-9))
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, calls: u64, incl_ns: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.into(),
            calls,
            incl_ns,
            children,
        }
    }

    #[test]
    fn exclusive_time_subtracts_children() {
        let n = node(
            "a",
            1,
            100,
            vec![node("a.b", 2, 30, vec![]), node("a.c", 1, 50, vec![])],
        );
        assert_eq!(n.excl_ns(), 20);
        // Children reported longer than the parent (clock jitter): floor.
        let weird = node("w", 1, 10, vec![node("w.x", 1, 15, vec![])]);
        assert_eq!(weird.excl_ns(), 0);
    }

    #[test]
    fn merge_sums_same_paths_across_threads() {
        let t0 = ThreadSpans {
            label: "main".into(),
            roots: vec![node(
                "cell:cg",
                1,
                100,
                vec![node("omp.region", 3, 60, vec![])],
            )],
            events: vec![],
            dropped_events: 0,
        };
        let t1 = ThreadSpans {
            label: "xp-worker-1".into(),
            roots: vec![node(
                "cell:cg",
                1,
                40,
                vec![node("omp.region", 1, 10, vec![])],
            )],
            events: vec![],
            dropped_events: 2,
        };
        let report = HostReport {
            threads: vec![t0, t1],
            wall_secs: 1.0,
        };
        let merged = report.merged();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].calls, 2);
        assert_eq!(merged[0].incl_ns, 140);
        assert_eq!(merged[0].children[0].calls, 4);
        assert_eq!(report.dropped_events(), 2);
        assert_eq!(report.total_span_ns(), 140);
        assert_eq!(report.root("cell:cg").unwrap().incl_ns, 140);
        assert!(report.root("nope").is_none());
    }

    #[test]
    fn components_bucket_exclusive_time() {
        assert_eq!(component_of("ccnuma.touch"), "ccnuma");
        assert_eq!(component_of("cell:cg"), "driver");
        assert_eq!(component_of("plain"), "plain");
        let roots = vec![node(
            "cell:cg",
            1,
            100,
            vec![
                node(
                    "ccnuma.touch",
                    10,
                    50,
                    vec![node("ccnuma.memory", 2, 20, vec![])],
                ),
                node("vmm.place", 1, 30, vec![]),
            ],
        )];
        let breakdown = component_breakdown(&roots);
        let get = |c: &str| {
            breakdown
                .iter()
                .find(|(name, _)| name == c)
                .map(|(_, s)| *s)
                .unwrap()
        };
        assert!((get("ccnuma") - 50e-9).abs() < 1e-15); // 30 excl + 20 leaf
        assert!((get("vmm") - 30e-9).abs() < 1e-15);
        assert!((get("driver") - 20e-9).abs() < 1e-15);
        let total: f64 = breakdown.iter().map(|(_, s)| s).sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }
}
