//! Ablation studies backing the paper's qualitative claims.
//!
//! * [`latency_ratio`] — §6: "the impact of page placement would be more
//!   significant on ccNUMA architectures with higher remote memory access
//!   latencies". We sweep the remote:local ratio and re-measure the
//!   worst-case-placement slowdown.
//! * [`threshold_sweep`] — the competitive criterion's `thr` knob: too low
//!   migrates noise, too high leaves remote-dominated pages in place.
//! * [`freeze_toggle`] — the ping-pong freezing defense (§3.2): with
//!   freezing disabled, page-level false sharing keeps the engine migrating
//!   forever and burning migration cost.
//!
//! The run-config sweeps declare [`Cell`]s, the synthetic-kernel ones plain
//! [`CellPlan`]s (each sweep point an independent machine);
//! [`scheduler_disruption`] is a single evolving timeline and stays
//! serial.

use crate::cells::CellPlan;
use crate::grid::{self, Cell, Problem};
use crate::report::{pct, secs, Report};
use ccnuma::{LatencyModel, MachineConfig};
use nas::{BenchName, EngineMode, RunConfig, Scale};
use upmlib::{UpmOptions, UpmStats};
use vmm::PlacementScheme;

/// Every ablation, in report order (`xp ablations`).
pub fn all(scale: Scale) -> Vec<Report> {
    vec![
        latency_ratio(scale),
        threshold_sweep(scale),
        freeze_toggle(scale),
        replication(scale),
        machine_size(scale),
        scheduler_disruption(scale),
    ]
}

/// The remote:local latency ratios [`latency_ratio`] sweeps.
pub const RATIOS: [f64; 4] = [1.7, 3.0, 5.0, 8.0];

/// One [`latency_ratio`] sweep point: CG under first-touch, then under
/// random placement, on a machine with the given remote:local ratio. A
/// bespoke machine, so a tagged cell: no server rebuilds it, but the
/// fingerprint still keys it in the offline cache.
pub fn latency_ratio_cells(scale: Scale, ratio: f64) -> Vec<Cell> {
    let mut machine = MachineConfig::origin2000_16p_scaled();
    machine.latency = if ratio <= 1.75 {
        LatencyModel::origin2000()
    } else {
        LatencyModel::with_remote_ratio(ratio)
    };
    let placements = [
        PlacementScheme::FirstTouch,
        PlacementScheme::Random {
            seed: crate::seed::get(),
        },
    ];
    let cell = |placement| {
        let cfg = RunConfig {
            placement,
            engine: EngineMode::None,
            threads: 16,
            machine: machine.clone(),
            trace: false,
        };
        Cell {
            tag: format!("-ratio{ratio:.1}"),
            ..Cell::at_scale(BenchName::Cg, scale, cfg)
        }
    };
    placements.into_iter().map(cell).collect()
}

/// Balanced-placement slowdown as a function of the remote:local latency
/// ratio — the paper's §6 claim: "the impact of page placement would be
/// more significant on ccNUMA architectures with higher remote memory
/// access latencies". Random placement is used because its penalty is pure
/// remote latency (worst-case placement is contention-dominated, and
/// stretching the run with slower remote accesses actually *lowers* module
/// utilization).
pub fn latency_ratio(scale: Scale) -> Report {
    let mut report = Report::new(
        "ablation-latency-ratio",
        "Random-placement slowdown vs the machine's remote:local latency ratio (CG)",
        &[
            "Remote:local ratio",
            "ft time (s)",
            "rand time (s)",
            "rand slowdown",
        ],
    );
    let outputs = grid::execute(RATIOS.map(|r| latency_ratio_cells(scale, r)).to_vec());
    for (ratio, pair) in RATIOS.into_iter().zip(&outputs) {
        if let Some(pair) = grid::all_ok(&mut report, pair) {
            let (ft, rand) = (pair[0], pair[1]);
            report.row(vec![
                format!("{ratio:.1}:1"),
                secs(ft.total_secs),
                secs(rand.total_secs),
                pct(rand.total_secs / ft.total_secs),
            ]);
        }
    }
    report.note(
        "the slowdown grows with the ratio — the paper's argument that the Origin2000's \
         aggressive latency optimization is what makes balanced placement schemes viable",
    );
    report
}

/// The competitive thresholds [`threshold_sweep`] sweeps.
pub const THRS: [f64; 4] = [1.2, 2.0, 8.0, 32.0];

/// The [`threshold_sweep`] cells: CG under random placement and UPMlib,
/// one per threshold. Bespoke engine tunables, so tagged cells.
pub fn threshold_cells(scale: Scale) -> Vec<Cell> {
    let cell = |thr| {
        let opts = UpmOptions {
            thr,
            ..Default::default()
        };
        let placement = PlacementScheme::Random {
            seed: crate::seed::get(),
        };
        Cell {
            tag: format!("-thr{thr}"),
            ..Cell::paper(BenchName::Cg, scale, placement, EngineMode::Upmlib(opts))
        }
    };
    THRS.into_iter().map(cell).collect()
}

/// UPMlib competitive-threshold sweep under random placement. CG is the
/// interesting subject: its gathered vector pages are only weakly dominated
/// by their owners, so they sit right at the criterion's decision boundary.
pub fn threshold_sweep(scale: Scale) -> Report {
    let mut report = Report::new(
        "ablation-threshold",
        "UPMlib competitive threshold `thr` sweep (CG, random placement)",
        &[
            "thr",
            "Time (s)",
            "Settled time/iter (s)",
            "Total migrations",
        ],
    );
    let outputs = grid::execute(vec![threshold_cells(scale)]).remove(0);
    for (thr, cell) in THRS.into_iter().zip(outputs) {
        let r = match &cell.value {
            Ok(r) => r,
            Err(p) => {
                report.failed_row(&cell.id, &p.message);
                continue;
            }
        };
        let stats = r.upm.as_ref().expect("upmlib stats");
        report.row(vec![
            format!("{thr}"),
            secs(r.total_secs),
            secs(*r.per_iter_secs.last().expect("iterations ran")),
            stats.total_distribution_migrations().to_string(),
        ]);
    }
    report.note("higher thresholds migrate fewer pages and leave more remote traffic in place");
    report
}

/// Page-freezing on/off on a kernel with page-level false sharing: two
/// halves of the team alternately dominate the same pages (the pattern the
/// paper observed in BT/SP, where "some page-level false sharing forced
/// page migrations after the second and third iterations").
pub fn freeze_toggle(_scale: Scale) -> Report {
    use ccnuma::{Machine, SimArray};
    use omp::{Runtime, Schedule};
    use upmlib::UpmEngine;

    let mut report = Report::new(
        "ablation-freeze",
        "Ping-pong freezing on/off (alternating-dominance kernel, first-touch placement)",
        &[
            "Freezing",
            "Time (s)",
            "Total migrations",
            "Invocations",
            "Frozen pages",
        ],
    );
    let run = |freeze: bool| -> (f64, UpmStats) {
        let mut machine = Machine::new(MachineConfig::origin2000_16p_scaled());
        vmm::install_placement(&mut machine, PlacementScheme::FirstTouch);
        let mut rt = Runtime::new(machine);
        let len = 32 * (ccnuma::PAGE_SIZE as usize / 8);
        let shared = SimArray::new(rt.machine_mut(), "shared", len, 0.0f64);
        let mut upm = UpmEngine::new(
            rt.machine(),
            UpmOptions {
                freeze_ping_pong: freeze,
                ..Default::default()
            },
        );
        upm.memrefcnt(&shared);
        // Odd iterations reverse the index mapping, so every page's
        // dominant node flips each iteration — page-grain false sharing.
        let sweep = |rt: &mut Runtime, flip: bool| {
            rt.parallel_for(len, Schedule::Static, |par, i| {
                let j = if flip { len - 1 - i } else { i };
                par.update(&shared, j, |v| v + 1.0);
                par.flops(1);
            });
        };
        sweep(&mut rt, false); // cold start
        upm.reset_counters(rt.machine());
        let t0 = rt.machine().clock().now_secs();
        for step in 0..10 {
            // Start flipped, so the first observation window already shows
            // the alternating dominance.
            sweep(&mut rt, step % 2 == 0);
            if upm.is_active() {
                upm.migrate_memory(rt.machine_mut());
            }
        }
        (rt.machine().clock().now_secs() - t0, upm.stats().clone())
    };
    let mut plan = CellPlan::new();
    for freeze in [true, false] {
        plan.add(
            format!("freeze-{}", if freeze { "on" } else { "off" }),
            move || run(freeze),
        );
    }
    for (freeze, cell) in [true, false].into_iter().zip(plan.execute()) {
        let (elapsed, stats) = match &cell.value {
            Ok(v) => v,
            Err(p) => {
                report.failed_row(&cell.id, &p.message);
                continue;
            }
        };
        report.row(vec![
            if freeze { "on".into() } else { "off".into() },
            secs(*elapsed),
            stats.total_distribution_migrations().to_string(),
            stats.migrations_per_invocation.len().to_string(),
            stats.frozen_pages.to_string(),
        ]);
    }
    report.note(
        "without freezing, pages whose dominance flips every iteration keep bouncing and the \
         engine keeps paying migration cost instead of deactivating",
    );
    report
}

/// Read-only replication (the paper's §1.2 sketch): a broadcast-pattern
/// kernel — every thread reads a shared coefficient table every iteration
/// while updating its own partition — run with UPMlib migration alone vs
/// migration + read-only replication.
///
/// Migration cannot help the table (it has no dominant accessor; moving it
/// just moves the hot spot); replication puts a copy on every consuming
/// node and removes both the remote latency and the contention.
pub fn replication(_scale: Scale) -> Report {
    use ccnuma::{Machine, SimArray};
    use omp::{Runtime, Schedule};
    use upmlib::UpmEngine;

    let mut report = Report::new(
        "ablation-replication",
        "Read-only page replication on a broadcast-pattern kernel (worst-case placement)",
        &["Config", "Time (s)", "Replicas", "Migrations"],
    );
    let run = |replicate: bool| -> (f64, u64, u64) {
        let mut machine = Machine::new(MachineConfig::origin2000_16p_scaled());
        vmm::install_placement(&mut machine, PlacementScheme::WorstCase { node: 0 });
        let mut rt = Runtime::new(machine);
        // A shared read-only table (16 pages) and a large private-partition
        // working array (64 pages).
        let table_len = 16 * (ccnuma::PAGE_SIZE as usize / 8);
        let work_len = 64 * (ccnuma::PAGE_SIZE as usize / 8);
        let table = SimArray::from_fn(rt.machine_mut(), "table", table_len, |i| {
            1.0 + (i % 97) as f64
        });
        let work = SimArray::new(rt.machine_mut(), "work", work_len, 0.0f64);
        let mut upm = UpmEngine::new(rt.machine(), UpmOptions::default());
        upm.memrefcnt(&table);
        upm.memrefcnt(&work);
        let sweep = |rt: &mut Runtime| {
            rt.parallel_for(work_len, Schedule::Static, |par, i| {
                // A scrambled index spreads every thread's reads over the
                // whole table (the broadcast pattern).
                let coeff = par.get(&table, (i.wrapping_mul(7919)) % table_len);
                par.update(&work, i, |v| v + coeff);
                par.flops(2);
            });
        };
        sweep(&mut rt); // cold start
        upm.reset_counters(rt.machine());
        let t0 = rt.machine().clock().now_secs();
        for _ in 0..12 {
            sweep(&mut rt);
            if upm.is_active() {
                upm.migrate_memory(rt.machine_mut());
            }
            if replicate {
                upm.replicate_readonly(rt.machine_mut());
            }
        }
        let elapsed = rt.machine().clock().now_secs() - t0;
        let stats = upm.stats();
        (
            elapsed,
            stats.replications,
            stats.total_distribution_migrations(),
        )
    };
    const CONFIGS: [(&str, bool); 2] =
        [("migration only", false), ("migration + replication", true)];
    let mut plan = CellPlan::new();
    for (label, replicate) in CONFIGS {
        plan.add(label, move || run(replicate));
    }
    for ((label, _), cell) in CONFIGS.into_iter().zip(plan.execute()) {
        let (elapsed, replicas, migrations) = match &cell.value {
            Ok(v) => v,
            Err(p) => {
                report.failed_row(&cell.id, &p.message);
                continue;
            }
        };
        report.row(vec![
            label.into(),
            secs(*elapsed),
            replicas.to_string(),
            migrations.to_string(),
        ]);
    }
    report.note(
        "the shared table has no dominant accessor, so the competitive migration criterion          leaves it on the hot node; replication is the only mechanism that serves it",
    );
    report
}

/// The machine sizes, in nodes (2 CPUs each), [`machine_size`] sweeps.
pub const NODES: [usize; 4] = [4, 8, 16, 32];

/// One [`machine_size`] sweep point: weak-scaled CG under first-touch,
/// random and worst-case placement on a `nodes`-node machine.
pub fn machine_size_cells(nodes: usize) -> Vec<Cell> {
    let machine = MachineConfig::origin2000_scaled_nodes(nodes);
    // Weak scaling: constant per-processor working set, as the paper's
    // §2.2 extrapolation presumes ("reasonable scaling of the problem
    // size").
    let cg_cfg = nas::cg::CgConfig {
        n: nodes * 2 * 500,
        nz_per_row: 9,
        outer: 4,
        cg_iters: 10,
        shift: 20.0,
        seed: 271828,
    };
    let placements = [
        PlacementScheme::FirstTouch,
        PlacementScheme::Random {
            seed: crate::seed::get(),
        },
        PlacementScheme::WorstCase { node: 0 },
    ];
    let cell = |placement| Cell {
        bench: BenchName::Cg,
        // The problem size comes entirely from cg_cfg (which feeds the
        // fingerprint); the scale is pinned so the cache key does not
        // vary with the ignored --scale flag.
        scale: Scale::Tiny,
        cfg: RunConfig {
            placement,
            engine: EngineMode::None,
            threads: nodes * 2,
            machine: machine.clone(),
            trace: false,
        },
        problem: Problem::Cg(cg_cfg),
        tag: format!("-{}cpu", nodes * 2),
    };
    placements.into_iter().map(cell).collect()
}

/// Machine-size scale-out — the experiment the paper could not run (§2.2:
/// "The impact of page placement ... would be also more significant on truly
/// large-scale Origin2000 systems ... Unfortunately, access to a system of
/// that scale was impossible for our experiments"). The simulator has no
/// such constraint: sweep the machine from 8 to 64 processors (the hypercube
/// deepens, so worst-case hop counts grow past Table 1's three) and measure
/// the placement sensitivity of CG at each size.
pub fn machine_size(_scale: Scale) -> Report {
    let mut report = Report::new(
        "ablation-machine-size",
        "Placement sensitivity vs machine size (CG weak-scaled: 500 rows/CPU; 2 CPUs per node)",
        &["CPUs", "Max hops", "ft (s)", "rand slowdown", "wc slowdown"],
    );
    let outputs = grid::execute(NODES.map(machine_size_cells).to_vec());
    for (nodes, chunk) in NODES.into_iter().zip(&outputs) {
        let diameter = MachineConfig::origin2000_scaled_nodes(nodes)
            .topology
            .diameter();
        if let Some(ok) = grid::all_ok(&mut report, chunk) {
            let (ft, rand, wc) = (ok[0], ok[1], ok[2]);
            report.row(vec![
                format!("{}", nodes * 2),
                format!("{diameter}"),
                secs(ft.total_secs),
                pct(rand.total_secs / ft.total_secs),
                pct(wc.total_secs / ft.total_secs),
            ]);
        }
    }
    report.note(
        "both balanced-scheme and worst-case penalties grow with machine size: more remote          hops per access and, for worst-case, more processors contending for one memory          module — the paper's §2.2 extrapolation, verified",
    );
    report
}

/// Scheduler disruption — the multiprogramming scenario the paper's
/// footnote 3 sets aside ("unless the operating system intervenes and
/// preempts or migrates threads", deferring to the authors' companion
/// work). After UPMlib settles, the OS rebinds every thread to a different
/// node's CPU; the tuned placement is suddenly wrong. Re-arming the engine
/// (`reactivate`) lets it re-learn the new binding within an iteration.
///
/// One machine evolving through a timeline — inherently serial, so no
/// cell plan here.
pub fn scheduler_disruption(_scale: Scale) -> Report {
    use ccnuma::{Machine, SimArray};
    use omp::{Runtime, Schedule};
    use upmlib::UpmEngine;

    let mut report = Report::new(
        "ablation-scheduler",
        "Thread rebinding after UPMlib settles (iteration timeline, simulated ms)",
        &["Iteration", "Event", "Time (ms)"],
    );
    let mut machine = Machine::new(MachineConfig::origin2000_16p_scaled());
    vmm::install_placement(&mut machine, PlacementScheme::RoundRobin);
    let mut rt = Runtime::new(machine);
    let len = 128 * (ccnuma::PAGE_SIZE as usize / 8);
    let data = SimArray::new(rt.machine_mut(), "data", len, 0.0f64);
    let mut upm = UpmEngine::new(rt.machine(), UpmOptions::default());
    upm.memrefcnt(&data);
    let sweep = |rt: &mut Runtime| {
        rt.parallel_for(len, Schedule::Static, |par, i| {
            par.update(&data, i, |v| v + 1.0);
            par.flops(1);
        });
    };
    sweep(&mut rt); // cold start
    upm.reset_counters(rt.machine());
    for step in 0..12 {
        if step == 6 {
            // The OS migrates every thread to the "opposite" CPU: thread t
            // now runs on CPU (t + 8) % 16, i.e. a different node.
            let perm: Vec<usize> = (0..16).map(|t| (t + 8) % 16).collect();
            rt.rebind_threads(&perm);
            upm.reactivate(rt.machine());
        }
        let t0 = rt.machine().clock().now_secs();
        sweep(&mut rt);
        if upm.is_active() {
            upm.migrate_memory(rt.machine_mut());
        }
        let event = match step {
            0 => "engine settling",
            6 => "threads rebound + engine re-armed",
            7 => "re-learned placement",
            _ => "",
        };
        report.row(vec![
            format!("{}", step + 1),
            event.into(),
            format!("{:.3}", (rt.machine().clock().now_secs() - t0) * 1e3),
        ]);
    }
    report.note(
        "the rebinding makes the settled placement wrong for one iteration; the re-armed \
         engine restores steady state in the next — the behaviour the paper's companion \
         work on multiprogrammed machines builds on",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_latency_ratio_hurts_balanced_placement_more() {
        // Compare rand slowdown at the Origin ratio vs a 5x machine.
        let slow = |ratio: f64| {
            let pair = grid::run_cells(latency_ratio_cells(Scale::Small, ratio));
            pair[1].total_secs / pair[0].total_secs
        };
        let at_origin = slow(1.7);
        let at_5x = slow(5.0);
        assert!(
            at_5x > at_origin,
            "5x ratio slowdown {at_5x} <= origin {at_origin}"
        );
    }
}
