//! The ladder: isolated timings of one public function each, on a fixed
//! synthetic input, independent of seed. A rung runs in the traced run of
//! the one workload whose wall it is meant to explain ([`Group`]).
//!
//! A rung times its operation one batch at a time and reports its best
//! batch, per operation (best, not median, for the reason `sim` gives).
//! The batches of a group's rungs are interleaved — one batch of every
//! rung, then the next of every rung — so that each rung's samples span
//! the group's whole duration and a burst of interference from a neighbour
//! lands on a few batches of every rung, not on all of one.
//!
//! The `ccnuma.touch_*` rungs check, from the `CpuStats` delta of every
//! batch, that at least 95 % of their operations landed in the outcome
//! class they are named after; `upmlib.migrate_memory_ns_per_page` checks
//! that every page moved. A rung that fails its own check is a failed
//! operation.

use crate::metrics::Metrics;
use crate::ops::Ops;
use crate::sim::{self, CellDef};
use crate::spans::Recorder;
use crate::stats::best;
use ccnuma::{AccessKind, CpuStats, Machine, MachineConfig, SimArray, LINE_SIZE, PAGE_SIZE};
use nas::{BenchName, EngineMode, RunConfig, Scale};
use omp::{Runtime, Schedule};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use vmm::PlacementScheme;

/// Batches per rung (the best one is reported); a smoke run takes 3.
pub const BATCHES: usize = 30;
/// Share of a touch rung's operations that must land in its class.
const CLASS_FLOOR: f64 = 0.95;
/// Accesses per batch of the touch rungs.
const TOUCHES: u64 = 100_000;
/// Iterations per region and regions per batch of the `omp.for_*` rungs.
const FOR_N: usize = 4096;
const FOR_REGIONS: usize = 25;

/// The rungs of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// `Machine::touch` by outcome class, region and iteration dispatch,
    /// and the `hostprof` session: what `exact` spends its time in.
    Exact,
    /// Page migration, first-touch faults, `migrate_memory`.
    Migrate,
    /// Pool submission and the cache's store and miss paths.
    Cold,
    /// Placement synthesis, fingerprints, keys and the cache's hit path.
    Warm,
    /// The protocol round trip.
    Served,
}

/// The ladder's results: the metrics, and one operation per rung.
#[derive(Debug, Default)]
pub struct Ladder {
    pub metrics: Metrics,
    pub ops: Ops,
}

/// One rung: `batch` runs one batch and returns its time per operation,
/// in the unit of the metric `name`, or the reason the batch is invalid.
struct Rung<'a> {
    name: &'static str,
    /// Run on every `every`-th pass only (the expensive rungs).
    every: usize,
    batch: Box<dyn FnMut() -> Result<f64, String> + 'a>,
    samples: Vec<f64>,
    error: Option<String>,
}

fn rung<'a>(
    name: &'static str,
    every: usize,
    batch: impl FnMut() -> Result<f64, String> + 'a,
) -> Rung<'a> {
    Rung {
        name,
        every,
        batch: Box::new(batch),
        samples: Vec::new(),
        error: None,
    }
}

fn machine() -> Machine {
    Machine::new(MachineConfig::origin2000_16p_scaled())
}

fn per_op(t: Instant, ops: u64, unit_ns: f64) -> f64 {
    t.elapsed().as_nanos() as f64 / unit_ns / ops as f64
}

fn class_check(what: &str, landed: u64, ops: u64) -> Result<(), String> {
    if (landed as f64) < CLASS_FLOOR * ops as f64 {
        return Err(format!("only {landed} of {ops} operations were {what}"));
    }
    Ok(())
}

/// `cpu` reads line by line, cyclically, over `span` bytes whose pages sit
/// on node 0; every access must bump `counter`. ns per access.
fn touch_rung(
    name: &'static str,
    cpu: usize,
    span: u64,
    what: &'static str,
    counter: fn(&CpuStats) -> u64,
) -> Rung<'static> {
    let mut m = machine();
    let base = m.reserve_vspace(span.max(PAGE_SIZE));
    for page in 0..span.div_ceil(PAGE_SIZE) {
        m.touch(0, base + page * PAGE_SIZE, AccessKind::Read);
    }
    let mut offset = 0;
    let mut sweep = move |m: &mut Machine, n: u64| {
        for _ in 0..n {
            black_box(m.touch(cpu, base + offset, AccessKind::Read));
            offset += LINE_SIZE;
            if offset >= span {
                offset = 0;
            }
        }
    };
    sweep(&mut m, 2 * span / LINE_SIZE); // fill this CPU's caches
    rung(name, 1, move || {
        let before = m.aggregate_cpu_stats();
        let t = Instant::now();
        sweep(&mut m, TOUCHES);
        let ns = per_op(t, TOUCHES, 1.0);
        let after = m.aggregate_cpu_stats();
        class_check(what, counter(&after) - counter(&before), TOUCHES)?;
        Ok(ns)
    })
}

/// Two CPUs on different nodes take turns writing the same 16 lines, so
/// every write finds its cached copy stale: a coherence miss, a memory
/// access and a directory write. ns per write.
fn write_shared_rung() -> Rung<'static> {
    let mut m = machine();
    let base = m.reserve_vspace(PAGE_SIZE);
    let mut i = 0u64;
    let mut sweep = move |m: &mut Machine, n: u64| {
        for _ in 0..n {
            let cpu = if (i >> 4) & 1 == 0 { 0 } else { 2 };
            black_box(m.touch(cpu, base + ((i & 15) << 7), AccessKind::Write));
            i += 1;
        }
    };
    sweep(&mut m, 64);
    rung("ccnuma.touch_write_shared_ns", 1, move || {
        let before = m.aggregate_cpu_stats().coherence_misses;
        let t = Instant::now();
        sweep(&mut m, TOUCHES);
        let ns = per_op(t, TOUCHES, 1.0);
        let after = m.aggregate_cpu_stats().coherence_misses;
        class_check("coherence misses", after - before, TOUCHES)?;
        Ok(ns)
    })
}

/// 256 mapped pages walk the nodes in step, so a call's target is never
/// the node the page is on. ns per `migrate_page`.
fn migrate_page_rung() -> Rung<'static> {
    const PAGES: u64 = 256;
    let mut m = machine();
    let nodes = m.topology().nodes();
    let base = m.reserve_vspace(PAGES * PAGE_SIZE);
    for p in 0..PAGES {
        m.touch(0, base + p * PAGE_SIZE, AccessKind::Read);
    }
    let first = ccnuma::vpage_of(base);
    let mut turn = 0;
    rung("ccnuma.migrate_page_ns", 1, move || {
        let before = m.stats().page_migrations;
        let ops = PAGES * 4;
        let t = Instant::now();
        for _ in 0..4 {
            turn += 1;
            for p in 0..PAGES {
                black_box(
                    m.migrate_page(first + p, turn % nodes)
                        .map_err(|e| e.to_string())?,
                );
            }
        }
        let ns = per_op(t, ops, 1.0);
        match m.stats().page_migrations - before {
            moved if moved == ops => Ok(ns),
            moved => Err(format!("{moved} of {ops} calls migrated a page")),
        }
    })
}

fn runtime() -> Runtime {
    Runtime::with_threads(machine(), 16)
}

/// ns per `parallel_for` over `threads` iterations with an empty body.
fn region_empty_rung() -> Rung<'static> {
    const REGIONS: u64 = 20_000;
    let mut rt = runtime();
    let threads = rt.threads();
    rung("omp.region_empty_ns", 1, move || {
        let t = Instant::now();
        for _ in 0..REGIONS {
            rt.parallel_for(threads, Schedule::Static, |_, _| {});
        }
        Ok(per_op(t, REGIONS, 1.0))
    })
}

/// ns per iteration of a `parallel_for` whose body is one read of a
/// thread-private line (an L1 hit under any schedule), region cost
/// included; [`run`] subtracts the region rung's share afterwards.
fn for_iter_rung(name: &'static str, schedule: Schedule) -> Rung<'static> {
    let mut rt = runtime();
    let a = SimArray::new(rt.machine_mut(), "rung", 16 * 16, 0.0f64);
    let region = move |rt: &mut Runtime| {
        rt.parallel_for(FOR_N, schedule, |par, _| {
            black_box(par.get(&a, par.tid * 16));
        });
    };
    region(&mut rt);
    rung(name, 1, move || {
        let ops = (FOR_N * FOR_REGIONS) as u64;
        let before = rt.machine().aggregate_cpu_stats().l1_hits;
        let t = Instant::now();
        for _ in 0..FOR_REGIONS {
            region(&mut rt);
        }
        let ns = per_op(t, ops, 1.0);
        let after = rt.machine().aggregate_cpu_stats().l1_hits;
        class_check("L1 hits", after - before, ops)?;
        Ok(ns)
    })
}

/// ns per page fault: a fresh machine under the `vmm` first-touch placer,
/// one touch per page of a fresh range.
fn fault_rung() -> Rung<'static> {
    const PAGES: u64 = 8192;
    rung("vmm.fault_first_touch_ns", 1, || {
        let mut m = machine();
        vmm::install_placement(&mut m, PlacementScheme::FirstTouch);
        let cpus = m.cpus() as u64;
        let base = m.reserve_vspace(PAGES * PAGE_SIZE);
        let t = Instant::now();
        for p in 0..PAGES {
            // Rotate the faulting CPU so no node runs out of frames.
            black_box(m.touch((p % cpus) as usize, base + p * PAGE_SIZE, AccessKind::Read));
        }
        let ns = per_op(t, PAGES, 1.0);
        match m.stats().page_faults {
            PAGES => Ok(ns),
            faults => Err(format!("{faults} of {PAGES} touches faulted")),
        }
    })
}

/// One registered array, every page first-touched on node 0 and then read
/// sixteen times from the far node; one `migrate_memory` must move them
/// all. ns per page.
fn migrate_memory_rung() -> Rung<'static> {
    const PAGES: usize = 256;
    let per_page = PAGE_SIZE as usize / std::mem::size_of::<f64>();
    let per_line = LINE_SIZE as usize / std::mem::size_of::<f64>();
    rung("upmlib.migrate_memory_ns_per_page", 1, move || {
        let mut m = machine();
        let far = m.cpus() - 1;
        let a = SimArray::new(&mut m, "hot", PAGES * per_page, 0.0f64);
        for p in 0..PAGES {
            a.get(&mut m, 0, p * per_page);
        }
        let mut engine = upmlib::UpmEngine::new(&m, upmlib::UpmOptions::default());
        engine.memrefcnt(&a);
        engine.reset_counters(&m);
        for p in 0..PAGES {
            for line in 1..=16 {
                a.get(&mut m, far, p * per_page + line * per_line);
            }
        }
        let t = Instant::now();
        let moved = engine.migrate_memory(&mut m);
        let ns = per_op(t, PAGES as u64, 1.0);
        if moved != PAGES {
            return Err(format!("migrate_memory moved {moved} of {PAGES} pages"));
        }
        Ok(ns)
    })
}

/// µs per job: `ResidentPool::submit` of 10 000 no-op jobs, `wait_all`.
fn noop_job_rung(workers: usize) -> Rung<'static> {
    const JOBS: u64 = 10_000;
    let pool = exec::ResidentPool::<()>::new(workers);
    rung("exec.noop_job_us", 1, move || {
        let jobs: Vec<exec::ResidentJob<()>> = (0..JOBS).map(|_| Box::new(|| ()) as _).collect();
        let t = Instant::now();
        black_box(pool.submit(jobs).wait_all());
        Ok(per_op(t, JOBS, 1e3))
    })
}

/// Successful steals when every eighth job is ~50x longer than the rest.
fn steals(workers: usize) -> f64 {
    let jobs: Vec<exec::Job<'static, u64>> = (0..2000u64)
        .map(|i| {
            Box::new(move || {
                let spins = if i % 8 == 0 { 20_000 } else { 400 };
                (0..spins).fold(i, |a, b| black_box(a ^ b))
            }) as _
        })
        .collect();
    let (_, telemetry) = exec::Pool::new(workers).run_timed(jobs, None);
    telemetry.steals().0 as f64
}

fn cg_spec() -> svc::CellSpec {
    xp::spec::plain(BenchName::Cg, Scale::Small, &RunConfig::paper_default())
}

/// µs per `CellSpec::key`.
fn spec_key_rung() -> Rung<'static> {
    const OPS: u64 = 10_000;
    let spec = cg_spec();
    rung("svc.spec_key_us", 1, move || {
        let t = Instant::now();
        for _ in 0..OPS {
            black_box(black_box(&spec).key());
        }
        Ok(per_op(t, OPS, 1e3))
    })
}

/// µs per `config_fp` of a config whose placement is CG's synthesized
/// static map (the `Debug` string of the whole map is what gets hashed).
fn config_fp_rung() -> Rung<'static> {
    const OPS: u64 = 20;
    let cfg = RunConfig {
        placement: xp::lint::static_scheme(BenchName::Cg, Scale::Small),
        ..RunConfig::paper_default()
    };
    rung("xp.config_fp_us", 1, move || {
        let t = Instant::now();
        for _ in 0..OPS {
            black_box(xp::spec::config_fp(black_box(&cfg), &[]));
        }
        Ok(per_op(t, OPS, 1e3))
    })
}

/// ms per synthesis of the static placement of CG, MG and FT at small.
fn static_scheme_rung() -> Rung<'static> {
    rung("lint.static_scheme_ms", 10, || {
        let t = Instant::now();
        for bench in [BenchName::Cg, BenchName::Mg, BenchName::Ft] {
            black_box(xp::lint::static_scheme(bench, Scale::Small));
        }
        Ok(t.elapsed().as_secs_f64() * 1e3)
    })
}

/// Entries a batch of a cache rung stores or looks up.
const ENTRIES: u64 = 40;

/// A real (tiny CG) result payload for the cache rungs.
fn payload() -> obs::json::Value {
    nas::run_benchmark(
        |rt| nas::cg::Cg::new(rt, Scale::Tiny),
        &RunConfig::paper_default(),
    )
    .to_cache_json()
}

/// Distinct specs for the cache rungs.
fn spec(seed: u64) -> svc::CellSpec {
    svc::CellSpec { seed, ..cg_spec() }
}

/// µs per `Cache::store` of the payload under 40 distinct specs.
fn cache_store_rung(cache: svc::Cache) -> Rung<'static> {
    let payload = payload();
    rung("svc.cache_store_us", 1, move || {
        let t = Instant::now();
        for s in 0..ENTRIES {
            cache
                .store(&spec(s), &payload)
                .map_err(|e| format!("store: {e}"))?;
        }
        Ok(per_op(t, ENTRIES, 1e3))
    })
}

/// µs per `Cache::lookup` of an entry stored beforehand.
fn cache_hit_rung(cache: svc::Cache) -> Rung<'static> {
    let payload = payload();
    let stored: Result<(), String> = (0..ENTRIES).try_for_each(|s| {
        cache
            .store(&spec(s), &payload)
            .map(drop)
            .map_err(|e| format!("store: {e}"))
    });
    rung("svc.cache_hit_us", 1, move || {
        stored.clone()?;
        let t = Instant::now();
        for s in 0..ENTRIES {
            if cache.lookup(&spec(s)).is_none() {
                return Err(format!("stored entry {s} missed"));
            }
        }
        Ok(per_op(t, ENTRIES, 1e3))
    })
}

/// µs per `Cache::lookup` of an absent entry.
fn cache_miss_rung(cache: svc::Cache) -> Rung<'static> {
    rung("svc.cache_miss_us", 1, move || {
        let t = Instant::now();
        for s in 0..ENTRIES {
            if cache.lookup(&spec(1_000_000 + s)).is_some() {
                return Err(format!("absent entry {s} hit"));
            }
        }
        Ok(per_op(t, ENTRIES, 1e3))
    })
}

/// µs per `Client::ping` (connect, hello, ping, pong).
fn ping_rung(client: svc::Client) -> Rung<'static> {
    const PINGS: u64 = 10;
    rung("svc.ping_us", 3, move || {
        let t = Instant::now();
        for _ in 0..PINGS {
            if !client.ping() {
                return Err("no pong".to_string());
            }
        }
        Ok(per_op(t, PINGS, 1e3))
    })
}

/// CG small under worst-case placement with UPMlib on the exact path (so
/// ccnuma, omp, upmlib and vmm all run), once plain and once inside a
/// `hostprof` session: the session's slowdown and its component shares.
fn hostprof_probe(ladder: &mut Ladder, rec: &mut Recorder) {
    let cell = CellDef {
        bench: BenchName::Cg,
        placement: PlacementScheme::WorstCase { node: 0 },
        engine: EngineMode::Upmlib(xp::default_engine_configs().1),
    };
    let plain = sim::run_cell(&cell, Scale::Small, false, rec, 0);
    let session = hostprof::start();
    let profiled = sim::run_cell(&cell, Scale::Small, false, rec, 1);
    let report = session.finish();
    let both = match (plain, profiled) {
        (Ok(a), Ok(b)) if a.digest == b.digest => Ok((a, b)),
        (Ok(_), Ok(_)) => Err("hostprof probe: the profiled run digests differently".into()),
        (Err(e), _) | (_, Err(e)) => Err(format!("hostprof probe: {e}")),
    };
    let Some((plain, profiled)) = ladder.ops.value(both) else {
        return;
    };
    let m = &mut ladder.metrics;
    m.set("hostprof.overhead_x", profiled.wall_s() / plain.wall_s());
    let parts = hostprof::report::component_breakdown(&report.merged());
    let total: f64 = parts.iter().map(|(_, s)| s).sum();
    for (layer, name) in [
        ("ccnuma", "hostprof.ccnuma_frac"),
        ("omp", "hostprof.omp_frac"),
        ("upmlib", "hostprof.upmlib_frac"),
        ("vmm", "hostprof.vmm_frac"),
    ] {
        let secs = parts
            .iter()
            .find(|(c, _)| c == layer)
            .map_or(0.0, |(_, s)| *s);
        m.set(name, if total > 0.0 { secs / total } else { 0.0 });
    }
}

/// `batches` passes over `rungs`, one batch of each per pass, each batch
/// in a span. A rung stops at its first invalid batch.
fn interleave(rungs: &mut [Rung<'_>], batches: usize, rec: &mut Recorder) {
    for pass in 0..batches {
        for r in rungs
            .iter_mut()
            .filter(|r| pass % r.every == 0 && r.error.is_none())
        {
            match rec.span(&format!("rung.{}", r.name), r.name, |_| (r.batch)()) {
                Ok(sample) => r.samples.push(sample),
                Err(e) => r.error = Some(e),
            }
        }
    }
}

/// Interleave `rungs` for `batches` passes, then record each as one
/// operation and, if every batch was valid, its best batch as its metric.
fn climb(l: &mut Ladder, mut rungs: Vec<Rung<'_>>, batches: usize, rec: &mut Recorder) {
    interleave(&mut rungs, batches, rec);
    for r in rungs {
        let sample = match r.error {
            None if r.samples.is_empty() => Err(format!("rung {}: no batch ran", r.name)),
            None => Ok(best(&r.samples)),
            Some(e) => Err(format!("rung {}: {e}", r.name)),
        };
        if let Some(v) = l.ops.value(sample) {
            l.metrics.set(r.name, v);
        }
    }
}

/// Run the rungs of `group` for `batches` interleaved passes each. `dir`
/// holds the cache the `svc` rungs write.
pub fn run(group: Group, dir: &Path, workers: usize, batches: usize, rec: &mut Recorder) -> Ladder {
    let mut l = Ladder::default();
    let cache = || {
        let cache_dir = dir.join("rung-cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        svc::Cache::new(&cache_dir)
    };
    rec.span("ledger.ladder", "ladder", |rec| match group {
        Group::Exact => {
            let far = MachineConfig::origin2000_16p_scaled().topology.cpus() - 1;
            // The scaled machine has a 4 KB L1 and a 32 KB L2, both 2-way
            // with 128 B lines: 16 lines sit in L1, 128 lines overflow L1
            // but sit in L2, and 512 pages overflow both.
            let rungs = vec![
                touch_rung(
                    "ccnuma.touch_l1_hit_ns",
                    0,
                    16 * LINE_SIZE,
                    "L1 hits",
                    |s| s.l1_hits,
                ),
                touch_rung(
                    "ccnuma.touch_l2_hit_ns",
                    0,
                    128 * LINE_SIZE,
                    "L2 hits",
                    |s| s.l2_hits,
                ),
                touch_rung(
                    "ccnuma.touch_mem_local_ns",
                    0,
                    512 * PAGE_SIZE,
                    "local memory accesses",
                    |s| s.mem_local,
                ),
                touch_rung(
                    "ccnuma.touch_mem_remote_ns",
                    far,
                    512 * PAGE_SIZE,
                    "remote memory accesses",
                    |s| s.mem_remote,
                ),
                write_shared_rung(),
                region_empty_rung(),
                for_iter_rung("omp.for_static_iter_ns", Schedule::Static),
                for_iter_rung("omp.for_dynamic_iter_ns", Schedule::Dynamic(4)),
            ];
            climb(&mut l, rungs, batches, rec);
            // Per iteration: drop the region's own share of the batch.
            let region = l.metrics.get("omp.region_empty_ns").unwrap_or(0.0);
            for name in ["omp.for_static_iter_ns", "omp.for_dynamic_iter_ns"] {
                if let Some(raw) = l.metrics.get(name) {
                    l.metrics.set(name, raw - region / FOR_N as f64);
                }
            }
            hostprof_probe(&mut l, rec);
        }
        Group::Migrate => {
            let rungs = vec![migrate_page_rung(), fault_rung(), migrate_memory_rung()];
            climb(&mut l, rungs, batches, rec);
        }
        Group::Cold => {
            let cache = cache();
            let rungs = vec![cache_store_rung(cache.clone()), cache_miss_rung(cache)];
            climb(&mut l, rungs, batches, rec);
            // The rung that owns threads runs after the single-threaded
            // ones, so that no helper thread is alive while those are timed.
            climb(&mut l, vec![noop_job_rung(workers)], batches, rec);
            l.metrics.set("exec.steals", steals(workers));
        }
        Group::Warm => {
            let rungs = vec![
                static_scheme_rung(),
                config_fp_rung(),
                spec_key_rung(),
                cache_hit_rung(cache()),
            ];
            climb(&mut l, rungs, batches, rec);
        }
        Group::Served => {
            let served = crate::sweep::with_server(cache(), workers, |client| {
                let mut ping = Ladder::default();
                climb(&mut ping, vec![ping_rung(client.clone())], batches, rec);
                ping
            });
            match served {
                Ok(ping) => {
                    l.metrics.extend(ping.metrics);
                    l.ops.absorb(ping.ops);
                }
                Err(e) => l.ops.record(vec![format!("rung svc.ping_us: {e}")]),
            }
        }
    });
    l
}
