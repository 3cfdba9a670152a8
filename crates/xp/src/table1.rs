//! Table 1: access latency to the different levels of the Origin2000 memory
//! hierarchy, measured by probing the simulated machine (not just echoing
//! the configuration). The probe is the sweep's one job, so it runs on the
//! plan's pool like every other entry and its summary row carries a real
//! cell wall; the report only renders its output.

use crate::grid::{self, Output, Sweep};
use crate::report::Report;
use ccnuma::{AccessKind, Machine, MachineConfig, LINE_SIZE, PAGE_SIZE};
use nas::Scale;

/// Table 1's sweep: no grid cells, one job — the probe.
pub const SWEEP: Sweep = Sweep {
    grid: |_| Vec::new(),
    jobs: |_| {
        let probe = || Output::Table1(measure(&mut Machine::new(MachineConfig::origin2000_16p())));
        vec![grid::job("table1", probe)]
    },
    report: |_, _, mut probe| vec![report(probe.remove(0).value)],
};

/// Measured hierarchy latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// L1 hit, ns.
    pub l1_ns: f64,
    /// L2 hit, ns.
    pub l2_ns: f64,
    /// Local memory, ns.
    pub local_ns: f64,
    /// Remote memory by hop count (1..=3), ns.
    pub remote_ns: Vec<f64>,
}

/// Probe the machine: fault pages on chosen nodes, then time accesses whose
/// cache residency is controlled by construction.
pub fn measure(machine: &mut Machine) -> Table1 {
    // Page 0 on node 0 (local to CPU 0).
    let base = machine.reserve_vspace(PAGE_SIZE);
    machine.map_page_for_test(base, 0);

    // Cold access: local memory.
    let local_ns = machine.touch(0, base, AccessKind::Read);
    // Hot access: L1.
    let l1_ns = machine.touch(0, base, AccessKind::Read);
    // Evict from L1 but not L2: the L1 has capacity/LINE_SIZE lines; sweep
    // enough distinct lines of the same page... the page has 128 lines and
    // the Origin L1 holds 256, so use a second local page to push line 0 out
    // of its L1 set while the 4 MB L2 keeps everything.
    let l1_lines = machine.config().l1.capacity as u64 / LINE_SIZE;
    let spill = machine.reserve_vspace(PAGE_SIZE * 4);
    for p in 0..4u64 {
        machine.map_page_for_test(spill + p * PAGE_SIZE, 0);
    }
    for i in 0..l1_lines * 2 {
        machine.touch(
            0,
            spill + (i * LINE_SIZE) % (4 * PAGE_SIZE),
            AccessKind::Read,
        );
    }
    let l2_ns = machine.touch(0, base, AccessKind::Read);

    // Remote pages at increasing hop distance from node 0. On the 8-node
    // fat hypercube, node 1 is 1 hop, node 2 is 2 hops, node 6 is 3 hops.
    let mut remote_ns = Vec::new();
    for &node in &[1usize, 2, 6] {
        let va = machine.reserve_vspace(PAGE_SIZE);
        machine.map_page_for_test(va, node);
        remote_ns.push(machine.touch(0, va, AccessKind::Read));
    }
    Table1 {
        l1_ns,
        l2_ns,
        local_ns,
        remote_ns,
    }
}

/// Run the Table 1 experiment and render it.
pub fn run() -> Report {
    SWEEP.run(Scale::Tiny).remove(0)
}

/// Render Table 1 from its probe's output: a failed row when it died.
fn report(probe: Result<Output, exec::JobPanic>) -> Report {
    let mut r = Report::new(
        "table1",
        "Access latency to the levels of the memory hierarchy (measured on the simulated machine)",
        &["Level", "Distance in hops", "Latency (ns)", "Paper (ns)"],
    );
    let t = match probe {
        Ok(Output::Table1(t)) => t,
        Ok(_) => unreachable!("Table 1 lists one probe"),
        Err(p) => {
            r.failed_row("table1", &p.message);
            return r;
        }
    };
    r.row(vec![
        "L1 cache".into(),
        "0".into(),
        format!("{:.1}", t.l1_ns),
        "5.5".into(),
    ]);
    r.row(vec![
        "L2 cache".into(),
        "0".into(),
        format!("{:.1}", t.l2_ns),
        "56.9".into(),
    ]);
    r.row(vec![
        "local memory".into(),
        "0".into(),
        format!("{:.0}", t.local_ns),
        "329".into(),
    ]);
    for (i, ns) in t.remote_ns.iter().enumerate() {
        let paper = ["564", "759", "862"][i];
        r.row(vec![
            "remote memory".into(),
            format!("{}", i + 1),
            format!("{ns:.0}"),
            paper.into(),
        ]);
    }
    let ratio = t.remote_ns[0] / t.local_ns;
    r.note(format!(
        "remote:local ratio at 1 hop = {ratio:.2}:1 (paper: between 2:1 and 3:1 overall; \
         the low ratio is the paper's first argument)"
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_values_match_table1() {
        let mut machine = Machine::new(MachineConfig::origin2000_16p());
        let t = measure(&mut machine);
        assert_eq!(t.l1_ns, 5.5);
        assert_eq!(t.l2_ns, 56.9);
        assert_eq!(t.local_ns, 329.0);
        assert_eq!(t.remote_ns, vec![564.0, 759.0, 862.0]);
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert_eq!(r.rows.len(), 6);
        assert!(r.to_markdown().contains("remote memory"));
    }
}
