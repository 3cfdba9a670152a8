//! The three sweep workloads: the experiment pipeline around the simulator.
//!
//! One plan — `xp::fig1::plan_grid(.., with_upmlib = true)` over the
//! chosen kernels — is executed closed loop from this one client thread,
//! in the one phase the workload is named after:
//!
//! * **cold** (`sweep-cold`): fresh cache directory, `CellPlan::execute`
//!   computes every cell on the `exec` pool and stores it (`exec`, `nas`,
//!   `svc::Cache`);
//! * **warm** (`sweep-warm`): the same plan rebuilt and resolved from a
//!   filled cache (`lint` re-deriving the static placement, spec keys,
//!   cache lookups);
//! * **served** (`sweep-served`): an in-process `svc::Server` over a filled
//!   cache, no local cache, the plan resolved through `xp::remote`; the
//!   traced run adds single-cell `Client::run_cells` requests for the
//!   latency tail.
//!
//! Each phase is a workload of its own because each is a way the pipeline
//! is used and has to be gated on its own: one cold pass takes as long as
//! thirty warm ones, so any sum of the three is a verdict on the cold pass
//! alone. A warm or served run first fills its cache with one cold pass
//! (the fixture, not measured), and every pass must reproduce that pass's
//! report bytes; a cold pass must reproduce the first cold pass's.

use crate::metrics::Metrics;
use crate::ops::Ops;
use crate::spans::Recorder;
use crate::stats::{best, highest_supported_percentile, median, percentile, pooled_iqr_frac};
use nas::{BenchName, EngineMode, RunConfig, RunResult, Scale};
use std::path::Path;
use std::time::Instant;
use svc::{Cache, CellSpec, Client};
use vmm::PlacementScheme;

/// Which phase a sweep workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Cold,
    Warm,
    Served,
}

/// Size of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepParams {
    pub phase: Phase,
    pub scale: Scale,
    pub kernels: Vec<BenchName>,
    /// Measured passes of `phase`.
    pub passes: usize,
    /// Single-cell requests after the served passes.
    pub requests: usize,
    /// Pool workers, client side and server side.
    pub jobs: usize,
}

/// What one sweep run measured.
#[derive(Debug, Default)]
pub struct SweepOutcome {
    pub cells: usize,
    /// Wall of each measured pass: `CellPlan::execute` of a cold pass,
    /// plan build + execute of a warm or served pass.
    pub pass_s: Vec<f64>,
    /// `plan_grid` wall of each cold (or cache-filling) plan.
    pub cold_plan_s: Vec<f64>,
    /// `plan_grid` and `CellPlan::execute` of each warm or served pass.
    pub plan_s: Vec<f64>,
    pub execute_s: Vec<f64>,
    /// Per cell, its wall on the pool in each cold pass.
    pub cell_s: Vec<Vec<f64>>,
    /// Latency of each single-cell request, µs.
    pub request_us: Vec<f64>,
    /// Per cold pass: sum of cell wall / (workers x pass wall).
    pub pool_efficiency: Vec<f64>,
    /// Server cache hits / lookups over the served passes and requests.
    pub server_hit_frac: f64,
    /// One-time set-up: globals, directories, server bind.
    pub init_s: f64,
    /// FNV-1a digest of the first cold pass's report.
    pub report_digest: u64,
    /// One operation per computed cell, pass, request and check.
    pub ops: Ops,
}

/// Start a resident server over `cache` on an ephemeral loopback port, run
/// `f` with a client for it, then shut it down and join its thread.
pub fn with_server<R>(
    cache: Cache,
    workers: usize,
    f: impl FnOnce(&Client) -> R,
) -> Result<R, String> {
    let server = svc::Server::bind(
        "127.0.0.1:0",
        workers,
        cache,
        xp::spec::compute(),
        xp::spec::CODE_VERSION,
    )
    .map_err(|e| format!("binding the server: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("server address: {e}"))?;
    let client = Client::new(&addr.to_string(), xp::spec::CODE_VERSION);
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run());
        let r = f(&client);
        if client.shutdown().is_err() {
            server.stop();
        }
        match handle.join() {
            Ok(Ok(())) => Ok(r),
            Ok(Err(e)) => Err(format!("server loop: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    })
}

fn build_plan(p: &SweepParams) -> xp::CellPlan<RunResult> {
    let mut plan = xp::CellPlan::new();
    for &bench in &p.kernels {
        xp::fig1::plan_grid(&mut plan, bench, p.scale, true);
    }
    plan
}

/// The specs of the plan's cells, in plan order — the same grid
/// `plan_grid` walks, needed here to address single cells.
fn specs(p: &SweepParams, seed: u64) -> Vec<CellSpec> {
    let (kcfg, upm) = xp::default_engine_configs();
    let mut out = Vec::new();
    for &bench in &p.kernels {
        let mut placements = PlacementScheme::all(seed).to_vec();
        placements.push(xp::lint::static_scheme(bench, p.scale));
        for placement in placements {
            for engine in [
                EngineMode::None,
                EngineMode::IrixMig(kcfg),
                EngineMode::Upmlib(upm),
            ] {
                let cfg = RunConfig {
                    placement: placement.clone(),
                    engine,
                    ..RunConfig::paper_default()
                };
                out.push(xp::spec::plain(bench, p.scale, &cfg));
            }
        }
    }
    out
}

/// One pass's report — per cell, its id and exact cache encoding — and
/// what is wrong with its cells, one entry per cell in plan order.
type Report = Vec<(String, String)>;

fn report(outputs: &[xp::CellOutput<RunResult>], pass: &str) -> (Report, Vec<Vec<String>>) {
    outputs
        .iter()
        .map(|cell| {
            let (body, problems) = match &cell.value {
                Ok(r) if r.verification.passed => (r.to_cache_json().to_string(), vec![]),
                Ok(r) => (
                    r.to_cache_json().to_string(),
                    vec![format!("{pass} {}: NAS verification failed", cell.id)],
                ),
                Err(p) => (
                    String::new(),
                    vec![format!("{pass} {}: {}", cell.id, p.message)],
                ),
            };
            ((cell.id.clone(), body), problems)
        })
        .unzip()
}

/// FNV-1a over the ids and bodies of a report.
fn report_digest(report: &Report) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (id, body) in report {
        for b in id.bytes().chain([0]).chain(body.bytes()).chain([0]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The state the passes of one run share.
struct Session<'a> {
    p: &'a SweepParams,
    out: SweepOutcome,
    /// The first cold pass's report: what every later pass must reproduce.
    reference: Report,
}

impl Session<'_> {
    /// One cold pass: a fresh cache under `cache_dir`, the plan built and
    /// executed, each timed. One operation per cell and one for the pass.
    /// Returns the filled cache and the wall of `execute`.
    fn cold_pass(&mut self, pass: &str, cache_dir: &Path, rec: &mut Recorder) -> (Cache, f64) {
        let _ = std::fs::remove_dir_all(cache_dir);
        let cache = Cache::new(cache_dir);
        xp::cache::install(Some(cache.clone()));
        let p = self.p;
        rec.span("ledger.pass", pass, |rec| {
            let t = Instant::now();
            let plan = rec.span("xp.plan_build", pass, |_| build_plan(p));
            self.out.cold_plan_s.push(t.elapsed().as_secs_f64());
            self.out.cells = plan.len();
            let t = Instant::now();
            let outputs = rec.span("xp.execute", pass, |_| plan.execute());
            let wall = t.elapsed().as_secs_f64();
            let cell_wall: f64 = outputs.iter().map(|c| c.wall_secs).sum();
            self.out
                .pool_efficiency
                .push(cell_wall / (p.jobs as f64 * wall));
            self.out.cell_s.resize(outputs.len(), Vec::new());
            for (samples, cell) in self.out.cell_s.iter_mut().zip(&outputs) {
                samples.push(cell.wall_secs);
            }
            let (rep, cell_problems) = report(&outputs, pass);
            for problems in cell_problems {
                self.out.ops.record(problems);
            }
            let mut problems = Vec::new();
            if cache.stats().stores != outputs.len() as u64 {
                problems.push(format!(
                    "{pass}: {} cells but {} cache stores",
                    outputs.len(),
                    cache.stats().stores
                ));
            }
            if self.reference.is_empty() {
                self.out.report_digest = report_digest(&rep);
                self.reference = rep;
            } else if rep != self.reference {
                problems.push(format!(
                    "{pass}: report bytes differ from the first cold pass"
                ));
            }
            self.out.ops.record(problems);
            (cache, wall)
        })
    }

    /// One warm or served pass: the plan rebuilt and resolved without
    /// computing a cell. One operation.
    fn resolved_pass(&mut self, pass: &str, rec: &mut Recorder) {
        let p = self.p;
        rec.span("ledger.pass", pass, |rec| {
            let t = Instant::now();
            let plan = rec.span("xp.plan_build", pass, |_| build_plan(p));
            let plan_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let outputs = rec.span("xp.execute", pass, |_| plan.execute());
            let execute_s = t.elapsed().as_secs_f64();
            self.out.plan_s.push(plan_s);
            self.out.execute_s.push(execute_s);
            self.out.pass_s.push(plan_s + execute_s);
            let (rep, cell_problems) = report(&outputs, pass);
            let mut problems: Vec<String> = cell_problems.into_iter().flatten().collect();
            let computed = outputs.iter().filter(|c| c.wall_secs > 0.0).count();
            if computed > 0 {
                problems.push(format!("{pass}: {computed} cells were recomputed"));
            }
            if rep != self.reference {
                problems.push(format!("{pass}: report bytes differ from the cold pass"));
            }
            self.out.ops.record(problems);
        })
    }

    /// The served passes and the single-cell requests, against a server
    /// over `filled`.
    fn served(&mut self, filled: &Cache, seed: u64, rec: &mut Recorder) {
        let p = self.p;
        xp::cache::install(None);
        let specs = specs(p, seed);
        let same_grid = specs
            .iter()
            .map(CellSpec::cell_id)
            .eq(self.reference.iter().map(|(id, _)| id.clone()));
        self.out.ops.value(
            same_grid
                .then_some(())
                .ok_or_else(|| "the request grid does not match the plan's cells".to_string()),
        );
        let before = filled.stats();
        let t = Instant::now();
        let served = with_server(filled.clone(), p.jobs, |client| {
            self.out.init_s += t.elapsed().as_secs_f64();
            xp::remote::install(Some(client.clone()));
            for i in 0..p.passes {
                rec.pause(i % 2 == 0);
                self.resolved_pass(&format!("served-{i}"), rec);
            }
            rec.pause(false);
            xp::remote::install(None);
            for i in 0..p.requests {
                let k = i % specs.len();
                let id = format!("request-{i}");
                let t = Instant::now();
                let reply = rec.span("svc.run_cells", &id, |_| {
                    client.run_cells(std::slice::from_ref(&specs[k]), |_| {})
                });
                self.out.request_us.push(t.elapsed().as_secs_f64() * 1e6);
                let body = reply.and_then(|mut cells| match cells.pop() {
                    Some(cell) => cell.result.map(|v| v.to_string()),
                    None => Err("empty reply".into()),
                });
                let want = self.reference.get(k).map(|(_, body)| body);
                self.out.ops.value(match body {
                    Ok(body) if want == Some(&body) => Ok(()),
                    Ok(_) => Err(format!("{id}: payload differs from the cold pass")),
                    Err(e) => Err(format!("{id}: {e}")),
                });
            }
        });
        self.out.ops.value(served);
        let after = filled.stats();
        let hits = after.hits - before.hits;
        let lookups = hits + (after.misses - before.misses);
        self.out.server_hit_frac = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        let expected = (p.passes * self.out.cells + p.requests) as u64;
        self.out.ops.value(if lookups == expected && hits == expected {
            Ok(())
        } else {
            Err(format!(
                "served phase: expected {expected} server cache hits, saw {hits} hits in {lookups} lookups"
            ))
        });
    }
}

/// Run the sweep under `dir` (cache directories are created there). A
/// recording `rec` records the odd passes only, so that the even ones are
/// the untraced reference (`trace.overhead_frac`).
pub fn run(p: &SweepParams, seed: u64, dir: &Path, rec: &mut Recorder) -> SweepOutcome {
    let mut s = Session {
        p,
        out: SweepOutcome::default(),
        reference: Vec::new(),
    };
    let t = Instant::now();
    xp::jobs::set(p.jobs);
    xp::seed::set(seed);
    xp::remote::install(None);
    if s.out
        .ops
        .value(std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display())))
        .is_none()
    {
        return s.out;
    }
    s.out.init_s = t.elapsed().as_secs_f64();

    match p.phase {
        Phase::Cold => {
            for i in 0..p.passes {
                rec.pause(i % 2 == 0);
                let cache_dir = dir.join(format!("cache-{i}"));
                let (_, wall) = s.cold_pass(&format!("cold-{i}"), &cache_dir, rec);
                s.out.pass_s.push(wall);
            }
            rec.pause(false);
        }
        Phase::Warm | Phase::Served => {
            rec.pause(true);
            let (filled, _) = s.cold_pass("fill", &dir.join("cache"), rec);
            rec.pause(false);
            if p.phase == Phase::Warm {
                for i in 0..p.passes {
                    rec.pause(i % 2 == 0);
                    s.resolved_pass(&format!("warm-{i}"), rec);
                }
                rec.pause(false);
            } else {
                s.served(&filled, seed, rec);
            }
        }
    }
    xp::cache::install(None);
    s.out
}

impl SweepOutcome {
    /// Whether the phase measured at least one pass.
    pub fn complete(&self) -> bool {
        !self.pass_s.is_empty() && !self.cold_plan_s.is_empty()
    }

    /// `wall_s`: the phase's best pass (best, not median, for the reason
    /// `sim` gives).
    pub fn wall_s(&self) -> f64 {
        best(&self.pass_s)
    }

    /// Every `plan_grid` of the run: the same plan each time, whichever
    /// kind of pass it was built for.
    fn plan_builds(&self) -> Vec<f64> {
        self.cold_plan_s
            .iter()
            .chain(&self.plan_s)
            .copied()
            .collect()
    }

    /// `setup_s`: one-time init plus the best `plan_grid` of the run. A
    /// run builds the plan once per pass, so set-up is repeated 4 to 41
    /// times; the first build of a process alone read 0.20-0.37 s in runs
    /// whose best read 0.194-0.231 s.
    pub fn setup_s(&self) -> f64 {
        self.init_s + best(&self.plan_builds())
    }

    /// The raw timings.
    pub fn samples(&self) -> Vec<(String, Vec<f64>)> {
        [
            ("pass_s", &self.pass_s),
            ("cold_plan_s", &self.cold_plan_s),
            ("plan_s", &self.plan_s),
            ("execute_s", &self.execute_s),
            ("request_us", &self.request_us),
        ]
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(name, v)| (name.to_string(), v.clone()))
        .collect()
    }

    /// The per-layer numbers `phase` measures itself.
    pub fn layer_metrics(&self, phase: Phase) -> Metrics {
        let mut m = Metrics::default();
        let cells = self.cells as f64;
        m.set("xp.plan_build_ms", best(&self.plan_builds()) * 1e3);
        match phase {
            Phase::Cold => {
                m.set("xp.cold_cells_per_s", cells / self.wall_s());
                m.set("exec.pool_efficiency", median(&self.pool_efficiency));
                m.set("noise.iqr_frac", pooled_iqr_frac(&self.cell_s));
            }
            Phase::Warm => {
                m.set("xp.warm_cells_per_s", cells / self.wall_s());
                m.set("xp.execute_warm_ms", best(&self.execute_s) * 1e3);
                m.set(
                    "noise.iqr_frac",
                    pooled_iqr_frac(std::slice::from_ref(&self.pass_s)),
                );
            }
            Phase::Served => {
                m.set("svc.served_cells_per_s", cells / self.wall_s());
                m.set("svc.cache_hit_frac", self.server_hit_frac);
                m.set(
                    "noise.iqr_frac",
                    pooled_iqr_frac(std::slice::from_ref(&self.pass_s)),
                );
                if !self.request_us.is_empty() {
                    m.set("svc.warm_cell_p50_us", percentile(&self.request_us, 50.0));
                    // p95 needs 200 samples; a smaller (smoke) sample reports
                    // the highest percentile it can support instead.
                    let tail = highest_supported_percentile(self.request_us.len())
                        .unwrap_or(50.0)
                        .min(95.0);
                    m.set("svc.warm_cell_p95_us", percentile(&self.request_us, tail));
                }
            }
        }
        m
    }
}
