//! The ledger's metric table: every name the benchmark emits, with its
//! unit, direction, kind and the end-to-end number it is expected to move.
//! `BENCHMARK.json`, the README glossary, the printed report and `compare`
//! all follow this one table (`tests/contract.rs` checks the first).

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What kind of number a metric is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Measured by the untraced run; may worsen by at most `bound` (a share
    /// of the parent's median) before it counts as a regression.
    EndToEnd { bound: f64 },
    /// Host time of one layer, measured by the traced run. No bound.
    Layer,
    /// A count or ratio of counts taken from the simulator's public
    /// statistics: repeats exactly for a given seed, so two commits compare
    /// by equality and a host-only change must not move it at all.
    Count,
}

/// Which workloads measure a metric. On the others it has no value: the
/// result line of a traced run carries it as 0, because the driver wants
/// every per-layer name from every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    All,
    /// `exact`, `replay`, `migrate`.
    Sim,
    Exact,
    Migrate,
    /// `sweep-cold`, `sweep-warm`, `sweep-served`.
    Sweep,
    Cold,
    Warm,
    Served,
}

/// One row of the metric table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    pub on: On,
    /// What it measures and which end-to-end metric, on which workload, it
    /// should move (the interaction table of the README).
    pub doc: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    doc: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
        on: On::All,
        doc,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: On,
    doc: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Layer,
        on,
        doc,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: On,
    doc: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Count,
        on,
        doc,
    }
}

use Better::{Higher, Lower};

/// Every metric, end-to-end first. Order is the order of the report.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end (untraced run) ------------------------------------
    e2e("wall_s", "s", Lower, 0.25,
        "host seconds of the workload. Simulator workloads: the sum, over cells and steps, of each BenchRun::step at its best over the rounds. sweep-cold: the best CellPlan::execute of a fresh-cache pass; sweep-warm, sweep-served: the best plan_grid + execute of a pass"),
    e2e("setup_s", "s", Lower, 0.25,
        "one-time process init plus, summed over cells, the best-of-rounds BenchRun::new (machine build, placement install, array allocation); sweep-*: init, server bind and the best plan_grid of the run (the plan is rebuilt for every pass, cold, warm or served)"),
    e2e("peak_rss_mb", "MB", Lower, 0.15,
        "VmHWM of the workload's own process at exit"),
    // ---- ccnuma: counts from the workload's cells ----------------------
    count("ccnuma.accesses", "count", Lower, On::Sim,
        "simulated accesses (L1 + L2 hits + memory) summed over cells, cold start included; must not move under a host-only change"),
    count("ccnuma.l1_hit_frac", "frac", Higher, On::Sim, "L1 hits / accesses"),
    count("ccnuma.l2_hit_frac", "frac", Higher, On::Sim, "L2 hits / accesses"),
    count("ccnuma.mem_remote_frac", "frac", Lower, On::Sim, "remote / (local + remote) memory accesses"),
    count("ccnuma.coherence_misses", "count", Lower, On::Sim, "probes that failed only on a stale version"),
    count("ccnuma.page_faults", "count", Lower, On::Sim, "first-touch page faults serviced"),
    count("ccnuma.page_migrations", "count", Lower, On::Sim, "pages moved by any engine (Machine::migrate_page)"),
    count("ccnuma.regions", "count", Lower, On::Sim, "parallel and serial regions completed"),
    count("ccnuma.sim_s", "sim_s", Lower, On::Sim,
        "simulated seconds of the timed iterations, summed over cells (RunResult::total_secs)"),
    layer("ccnuma.wall_ns_per_access", "ns", Lower, On::Sim,
        "wall / accesses: host cost per simulated access -> wall_s on exact"),
    layer("ccnuma.maccess_per_s", "M/s", Higher, On::Sim,
        "simulated accesses per host second, millions -> wall_s on exact"),
    // ---- ccnuma: rungs ---------------------------------------------------
    layer("ccnuma.touch_l1_hit_ns", "ns", Lower, On::Exact,
        "Machine::touch, read hitting L1 -> wall_s on exact in proportion to the L1-hit count"),
    layer("ccnuma.touch_l2_hit_ns", "ns", Lower, On::Exact,
        "Machine::touch, read missing L1 and hitting L2 -> wall_s on exact"),
    layer("ccnuma.touch_mem_local_ns", "ns", Lower, On::Exact,
        "Machine::touch, read missing both caches, page on the CPU's node -> wall_s on exact"),
    layer("ccnuma.touch_mem_remote_ns", "ns", Lower, On::Exact,
        "Machine::touch, read missing both caches, page on another node -> wall_s on exact"),
    layer("ccnuma.touch_write_shared_ns", "ns", Lower, On::Exact,
        "Machine::touch, write to a line another CPU wrote last (coherence miss + directory write) -> wall_s on exact"),
    layer("ccnuma.migrate_page_ns", "ns", Lower, On::Migrate,
        "Machine::migrate_page of a mapped page to another node -> wall_s on migrate"),
    // ---- ccnuma: fast path ------------------------------------------------
    count("ccnuma.fastpath_replays", "count", Higher, On::Sim, "regions replayed wholesale -> wall_s on replay"),
    count("ccnuma.fastpath_records", "count", Lower, On::Sim, "regions that recorded a memo"),
    count("ccnuma.fastpath_misses", "count", Lower, On::Sim, "regions where a CPU missed its memo"),
    count("ccnuma.fastpath_rejects", "count", Lower, On::Sim, "regions rejected by a precondition or exit validation"),
    count("ccnuma.fastpath_replay_frac", "frac", Higher, On::Sim,
        "replays / (replays + misses + rejects): useful over attempted -> wall_s on replay; the number fastpath phase 2 should raise on migrate; 0 on exact, where the fast path is off"),
    // ---- omp: rungs -------------------------------------------------------
    layer("omp.region_empty_ns", "ns", Lower, On::Exact,
        "Runtime::parallel_for over `threads` iterations with an empty body, per region -> wall_s on exact"),
    layer("omp.for_static_iter_ns", "ns", Lower, On::Exact,
        "per iteration of a static-schedule parallel_for whose body is one L1-hit read, region share removed; minus ccnuma.touch_l1_hit_ns it is the dispatch alone -> wall_s on exact"),
    layer("omp.for_dynamic_iter_ns", "ns", Lower, On::Exact,
        "the same under schedule(dynamic, 4) -> wall_s on exact"),
    // ---- nas ----------------------------------------------------------------
    layer("nas.new_ms", "ms", Lower, On::Sim, "BenchRun::new summed over cells -> setup_s"),
    layer("nas.first_step_s", "s", Lower, On::Sim,
        "first BenchRun::step (cold start + first iteration + recording) summed over cells -> wall_s; where a recording cost lands on replay"),
    layer("nas.bt_iter_ms", "ms", Lower, On::Sim, "median warm step (index >= 2, each at its best over rounds) of the first BT cell -> wall_s"),
    layer("nas.cg_iter_ms", "ms", Lower, On::Sim, "median warm step of the first CG cell -> wall_s"),
    layer("nas.mg_iter_ms", "ms", Lower, On::Sim, "median warm step of the first MG cell -> wall_s"),
    layer("nas.ft_iter_ms", "ms", Lower, On::Sim, "median warm step of the first FT cell -> wall_s"),
    // ---- vmm ------------------------------------------------------------------
    count("vmm.kernel_migrations", "count", Lower, On::Sim, "pages the IRIX kernel engine moved; 0 unless migrate"),
    layer("vmm.fault_first_touch_ns", "ns", Lower, On::Migrate,
        "Machine::touch that page-faults under the vmm first-touch placer, fresh range -> nas.first_step_s on every simulator workload, wall_s on migrate"),
    // ---- upmlib ---------------------------------------------------------------
    count("upmlib.migrations", "count", Lower, On::Sim, "distribution + replay + undo migrations by UPMlib; 0 unless migrate"),
    count("upmlib.invocations", "count", Lower, On::Sim, "migrate_memory invocations; 0 unless migrate"),
    layer("upmlib.migrate_memory_ns_per_page", "ns", Lower, On::Migrate,
        "one UpmEngine::migrate_memory over a registered array whose every page is remote-dominated, per page moved -> wall_s on migrate"),
    // ---- lint -------------------------------------------------------------------
    layer("lint.static_scheme_ms", "ms", Lower, On::Warm,
        "xp::lint::static_scheme summed over CG, MG, FT at small -> wall_s on sweep-warm and sweep-served (nearly all of a warm pass), setup_s on sweep-*"),
    // ---- exec -------------------------------------------------------------------
    layer("exec.noop_job_us", "us", Lower, On::Cold,
        "ResidentPool::submit of 10000 no-op jobs then wait_all, per job -> wall_s on sweep-cold"),
    layer("exec.pool_efficiency", "frac", Higher, On::Cold,
        "sum of cell wall / (workers x pass wall), median over the cold passes -> wall_s on sweep-cold"),
    layer("exec.steals", "count", Higher, On::Cold,
        "successful steals in one Pool::run_timed of 2000 uneven jobs (varies run to run)"),
    // ---- svc --------------------------------------------------------------------
    layer("svc.spec_key_us", "us", Lower, On::Warm, "CellSpec::key -> wall_s on sweep-warm, sweep-served"),
    layer("svc.cache_store_us", "us", Lower, On::Cold, "Cache::store of one result payload -> wall_s on sweep-cold"),
    layer("svc.cache_hit_us", "us", Lower, On::Warm, "Cache::lookup of a stored entry -> wall_s on sweep-warm, sweep-served"),
    layer("svc.cache_miss_us", "us", Lower, On::Cold, "Cache::lookup of an absent entry -> wall_s on sweep-cold"),
    layer("svc.ping_us", "us", Lower, On::Served, "Client::ping: connect, hello, ping, pong -> wall_s on sweep-served"),
    layer("svc.warm_cell_p50_us", "us", Lower, On::Served, "median latency of 400 single-cell Client::run_cells served from the server's cache"),
    layer("svc.warm_cell_p95_us", "us", Lower, On::Served, "p95 of the same requests (the highest percentile with ten samples beyond it)"),
    count("svc.cache_hit_frac", "frac", Higher, On::Served, "server cache hits / lookups over the served passes and requests"),
    layer("svc.served_cells_per_s", "1/s", Higher, On::Served, "cells / best served pass -> wall_s on sweep-served"),
    // ---- xp ---------------------------------------------------------------------
    layer("xp.plan_build_ms", "ms", Lower, On::Sweep, "best fig1::plan_grid over the plan's kernels -> setup_s on sweep-*, wall_s on sweep-warm and sweep-served"),
    layer("xp.execute_warm_ms", "ms", Lower, On::Warm, "best CellPlan::execute fully resolved from the cache -> wall_s on sweep-warm"),
    layer("xp.config_fp_us", "us", Lower, On::Warm, "spec::config_fp of a Static-map config (hashes its Debug string) -> wall_s on sweep-warm, sweep-served"),
    layer("xp.cold_cells_per_s", "1/s", Higher, On::Cold, "cells / best cold pass -> wall_s on sweep-cold"),
    layer("xp.warm_cells_per_s", "1/s", Higher, On::Warm, "cells / best warm pass -> wall_s on sweep-warm"),
    // ---- bookkeeping ------------------------------------------------------------
    layer("ladder.coverage_frac", "frac", Higher, On::Exact,
        "(class counts x class rungs + regions x omp.region_empty_ns) / wall: the sum-to-whole check"),
    layer("ladder.l1_frac", "frac", Higher, On::Exact, "L1-hit share of the wall explained by its rung"),
    layer("ladder.l2_frac", "frac", Higher, On::Exact, "L2-hit share"),
    layer("ladder.mem_local_frac", "frac", Higher, On::Exact, "local-memory share"),
    layer("ladder.mem_remote_frac", "frac", Higher, On::Exact, "remote-memory share"),
    layer("ladder.region_frac", "frac", Higher, On::Exact, "region-dispatch share"),
    layer("hostprof.overhead_x", "x", Lower, On::Exact, "CG small wc-upmlib on the exact path: wall under a hostprof session / wall without; every hostprof share below is inflated by it"),
    layer("hostprof.ccnuma_frac", "frac", Lower, On::Exact, "ccnuma share of hostprof exclusive time in that run"),
    layer("hostprof.omp_frac", "frac", Lower, On::Exact, "omp share"),
    layer("hostprof.upmlib_frac", "frac", Lower, On::Exact, "upmlib share"),
    layer("hostprof.vmm_frac", "frac", Lower, On::Exact, "vmm share"),
    layer("trace.overhead_frac", "frac", Lower, On::All, "traced rounds (passes) / untraced ones - 1, alternating in the traced run's process"),
    layer("noise.iqr_frac", "frac", Lower, On::All, "IQR / median of the traced run's repeated timings, each over its group's median: per cell the warm steps (simulator workloads) or its wall in each pass (sweep-cold), the passes (sweep-warm, sweep-served)"),
];

/// The definition of `name`, if the table has it.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// Whether `name` is an end-to-end metric.
pub fn is_end_to_end(m: &MetricDef) -> bool {
    matches!(m.kind, Kind::EndToEnd { .. })
}

/// Measured values, keyed by names from [`METRICS`].
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`. Panics on a name missing from the
    /// table: that is a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = def(name).unwrap_or_else(|| panic!("metric '{name}' is not in the table"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Values of `other` override this one's.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// `(definition, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        METRICS
            .iter()
            .filter_map(|d| self.0.get(d.name).map(|v| (d, *v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(ok_name(m.name), "bad name {}", m.name);
            assert!(ok_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.doc.len() <= 400);
            if let Kind::EndToEnd { bound } = m.kind {
                assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
            }
        }
        let layers = METRICS.iter().filter(|m| !is_end_to_end(m)).count();
        assert!((1..=128).contains(&layers));
        assert!(def("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn setting_an_unknown_metric_is_a_bug() {
        Metrics::default().set("nope", 1.0);
    }
}
