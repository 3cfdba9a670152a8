//! The three simulator workloads — `exact`, `replay`, `migrate` — and the
//! per-cell digest that checks their simulated results.
//!
//! A workload is a list of cells (benchmark x placement x engine); a run
//! is `rounds` passes over that list, round-robin, on this one host
//! thread. Every `BenchRun::new` and every `BenchRun::step` is timed on
//! its own, and each is reported at its best over the rounds: the rounds do
//! identical simulated work, and on a shared box a neighbour only ever
//! slows a step down, in bursts of seconds, so the per-step minimum is the
//! estimate that repeats (README, "Noise").

use crate::metrics::Metrics;
use crate::ops::Ops;
use crate::spans::Recorder;
use crate::stats::{best, median, pooled_iqr_frac};
use ccnuma::{CpuStats, FastpathStats, MachineStats};
use nas::{BenchName, BenchRun, EngineMode, RunConfig, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use vmm::PlacementScheme;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Fast path forced off: every access goes through `Machine::touch`.
    Exact,
    /// The same cells with the fast path on: record once, replay after.
    Replay,
    /// Fast path on, cells whose engines migrate pages.
    Migrate,
}

impl SimKind {
    pub fn fastpath(self) -> bool {
        !matches!(self, SimKind::Exact)
    }
}

/// One cell: a benchmark under one placement and one engine.
#[derive(Debug, Clone)]
pub struct CellDef {
    pub bench: BenchName,
    pub placement: PlacementScheme,
    pub engine: EngineMode,
}

impl CellDef {
    /// `bt:ft-IRIX`, the same shape as `svc::CellSpec::cell_id`.
    pub fn id(&self) -> String {
        format!(
            "{}:{}-{}",
            self.bench.label().to_ascii_lowercase(),
            self.placement.label(),
            self.engine.label()
        )
    }

    /// Whether the cell's inputs depend on `--seed`.
    pub fn seeded(&self) -> bool {
        matches!(self.placement, PlacementScheme::Random { .. })
    }

    fn config(&self) -> RunConfig {
        RunConfig {
            placement: self.placement.clone(),
            engine: self.engine.clone(),
            ..RunConfig::paper_default()
        }
    }
}

/// The cell list of a workload. `seed` feeds the random placements.
pub fn cells(kind: SimKind, seed: u64) -> Vec<CellDef> {
    let (kcfg, upm) = xp::default_engine_configs();
    let cell = |bench, placement, engine| CellDef {
        bench,
        placement,
        engine,
    };
    use BenchName::{Bt, Cg, Ft, Mg};
    match kind {
        SimKind::Exact | SimKind::Replay => [Bt, Cg, Mg, Ft]
            .into_iter()
            .map(|b| cell(b, PlacementScheme::FirstTouch, EngineMode::None))
            .collect(),
        SimKind::Migrate => vec![
            cell(Bt, PlacementScheme::FirstTouch, EngineMode::RecRep(upm)),
            cell(
                Ft,
                PlacementScheme::Random { seed },
                EngineMode::Upmlib(upm),
            ),
            cell(
                Cg,
                PlacementScheme::Random { seed },
                EngineMode::Upmlib(upm),
            ),
            cell(Mg, PlacementScheme::RoundRobin, EngineMode::IrixMig(kcfg)),
            cell(
                Cg,
                PlacementScheme::WorstCase { node: 0 },
                EngineMode::IrixMig(kcfg),
            ),
        ],
    }
}

fn new_run(bench: BenchName, scale: Scale, cfg: &RunConfig) -> BenchRun {
    match bench {
        BenchName::Bt => BenchRun::new(|rt| nas::bt::Bt::new(rt, scale), cfg),
        BenchName::Sp => BenchRun::new(|rt| nas::sp::Sp::new(rt, scale), cfg),
        BenchName::Cg => BenchRun::new(|rt| nas::cg::Cg::new(rt, scale), cfg),
        BenchName::Mg => BenchRun::new(|rt| nas::mg::Mg::new(rt, scale), cfg),
        BenchName::Ft => BenchRun::new(|rt| nas::ft::Ft::new(rt, scale), cfg),
    }
}

/// What one execution of one cell measured.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Host seconds of `BenchRun::new`.
    pub new_s: f64,
    /// Host seconds of each `BenchRun::step`.
    pub steps: Vec<f64>,
    /// NAS self-verification outcome.
    pub verified: bool,
    /// Digest of the simulated results (see [`digest`]).
    pub digest: u64,
    pub cpu: CpuStats,
    pub machine: MachineStats,
    pub fastpath: FastpathStats,
    pub upm_migrations: u64,
    pub upm_invocations: u64,
    pub kernel_migrations: u64,
    /// Simulated seconds of the timed iterations.
    pub sim_s: f64,
}

impl CellRun {
    pub fn wall_s(&self) -> f64 {
        self.steps.iter().sum()
    }

    pub fn accesses(&self) -> u64 {
        self.cpu.l1_hits + self.cpu.l2_hits + self.cpu.mem_local + self.cpu.mem_remote
    }
}

/// FNV-1a over the bit patterns of everything a host-only change must leave
/// untouched: simulated times, the aggregate CPU and machine counters, and
/// the engines' migration totals. Hashed here rather than with
/// `svc::hash`, so that `expected.json` outlives a change of the cache's
/// hash.
fn digest(result: &nas::RunResult, cpu: &CpuStats, machine: &MachineStats, upm: (u64, u64)) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(result.total_secs.to_bits());
    eat(result.per_iter_secs.len() as u64);
    for s in &result.per_iter_secs {
        eat(s.to_bits());
    }
    for w in [
        cpu.l1_hits,
        cpu.l2_hits,
        cpu.mem_local,
        cpu.mem_remote,
        cpu.coherence_misses,
        cpu.stall_ns.to_bits(),
        cpu.compute_ns.to_bits(),
        machine.page_migrations,
        machine.migration_ns.to_bits(),
        machine.regions,
        machine.page_faults,
        machine.best_effort_redirects,
        machine.page_replications,
        machine.page_collapses,
        upm.0,
        upm.1,
        result.kernel_migrations,
    ] {
        eat(w);
    }
    h
}

/// Run one cell to completion, timing `new` and every `step`. A panic in
/// the crates comes back as `Err` (one failed operation), not a dead run.
pub fn run_cell(
    cell: &CellDef,
    scale: Scale,
    fastpath: bool,
    rec: &mut Recorder,
    round: usize,
) -> Result<CellRun, String> {
    let id = format!("{}#{round}", cell.id());
    rec.span("ledger.cell", &id, |rec| {
        catch_unwind(AssertUnwindSafe(|| {
            let cfg = cell.config();
            let t = Instant::now();
            let mut run = rec.span("nas.new", &id, |_| {
                let mut run = new_run(cell.bench, scale, &cfg);
                run.set_fastpath(fastpath);
                run
            });
            let new_s = t.elapsed().as_secs_f64();
            let mut steps = Vec::new();
            while !run.is_done() {
                let name = format!("nas.step[{}]", steps.len());
                let t = Instant::now();
                rec.span(&name, &id, |_| run.step());
                steps.push(t.elapsed().as_secs_f64());
            }
            let cpu = run.runtime().machine().aggregate_cpu_stats();
            let machine = *run.runtime().machine().stats();
            let fastpath = run.fastpath_stats().unwrap_or_default();
            let result = rec.span("nas.finish", &id, |_| run.finish());
            let upm = result.upm.as_ref().map_or((0, 0), |u| {
                (
                    u.total_distribution_migrations() + u.total_recrep_migrations(),
                    u.migrations_per_invocation.len() as u64,
                )
            });
            CellRun {
                new_s,
                steps,
                verified: result.verification.passed,
                digest: digest(&result, &cpu, &machine, upm),
                cpu,
                machine,
                fastpath,
                upm_migrations: upm.0,
                upm_invocations: upm.1,
                kernel_migrations: result.kernel_migrations,
                sim_s: result.total_secs,
            }
        }))
    })
    .map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("cell {id} panicked: {msg}")
    })
}

/// The rounds of one workload run: `runs[round][cell]`.
#[derive(Debug, Default)]
pub struct SimRounds {
    pub cells: Vec<CellDef>,
    pub runs: Vec<Vec<CellRun>>,
    /// One operation per cell run.
    pub ops: Ops,
}

/// Run `rounds` interleaved rounds over `cells`. A cell run fails when it
/// panics, fails NAS verification, digests differently from round 0, or
/// `check` (the committed digest of that cell) objects to its digest. A
/// recording `rec` records the odd rounds only, so that the even ones are
/// the untraced reference (`trace.overhead_frac`).
pub fn run_rounds(
    cells: &[CellDef],
    scale: Scale,
    fastpath: bool,
    rounds: usize,
    check: &dyn Fn(&CellDef, u64) -> Option<String>,
    rec: &mut Recorder,
) -> SimRounds {
    let mut out = SimRounds {
        cells: cells.to_vec(),
        ..Default::default()
    };
    for round in 0..rounds {
        rec.pause(round % 2 == 0);
        let row: Vec<CellRun> = rec.span("ledger.round", &format!("round-{round}"), |rec| {
            let mut row = Vec::with_capacity(cells.len());
            for (c, cell) in cells.iter().enumerate() {
                match run_cell(cell, scale, fastpath, rec, round) {
                    Ok(run) => {
                        let mut problems = Vec::new();
                        let id = cell.id();
                        if !run.verified {
                            problems.push(format!("{id} round {round}: NAS verification failed"));
                        }
                        if let Some(first) = out.runs.first().filter(|f| f[c].digest != run.digest)
                        {
                            problems.push(format!(
                                "{id} round {round}: digest {:016x} differs from round 0's {:016x}",
                                run.digest, first[c].digest
                            ));
                        }
                        problems.extend(check(cell, run.digest));
                        out.ops.record(problems);
                        row.push(run);
                    }
                    Err(e) => out.ops.record(vec![e]),
                }
            }
            row
        });
        // A round with a panicked cell has a hole: it is counted, not timed.
        if row.len() == cells.len() {
            out.runs.push(row);
        }
    }
    rec.pause(false);
    out
}

impl SimRounds {
    /// `(cell id, digest)` of round 0.
    pub fn digests(&self) -> Vec<(String, u64)> {
        self.runs.first().map_or(Vec::new(), |row| {
            self.cells
                .iter()
                .zip(row)
                .map(|(c, r)| (c.id(), r.digest))
                .collect()
        })
    }

    /// Host seconds of each round (sum of every step of every cell).
    pub fn round_walls(&self) -> Vec<f64> {
        self.runs
            .iter()
            .map(|row| row.iter().map(CellRun::wall_s).sum())
            .collect()
    }

    /// The raw timings: `<cell>.new_s` over rounds and `<cell>#<round>`
    /// over steps.
    pub fn samples(&self) -> Vec<(String, Vec<f64>)> {
        let mut out = Vec::new();
        for (c, cell) in self.cells.iter().enumerate() {
            let id = cell.id();
            out.push((
                format!("{id}.new_s"),
                self.runs.iter().map(|row| row[c].new_s).collect(),
            ));
            for (round, row) in self.runs.iter().enumerate() {
                out.push((format!("{id}#{round}"), row[c].steps.clone()));
            }
        }
        out
    }

    /// Per cell, its warm steps (index >= 2) of every round: groups of
    /// nominally identical timings, for `noise.iqr_frac`.
    pub fn noise(&self) -> f64 {
        let groups: Vec<Vec<f64>> = (0..self.cells.len())
            .map(|c| {
                self.runs
                    .iter()
                    .flat_map(|row| row[c].steps.iter().skip(2).copied())
                    .collect()
            })
            .collect();
        pooled_iqr_frac(&groups)
    }

    /// Best-of-rounds time of step `i` of cell `c`.
    fn best_step(&self, c: usize, i: usize) -> f64 {
        let rounds: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|row| row[c].steps.get(i).copied())
            .collect();
        best(&rounds)
    }

    /// Best-of-rounds time of every step of cell `c`.
    fn best_steps(&self, c: usize) -> Vec<f64> {
        let n = self.runs.first().map_or(0, |row| row[c].steps.len());
        (0..n).map(|i| self.best_step(c, i)).collect()
    }

    /// `wall_s`: sum over cells and steps of the step's best-of-rounds time.
    pub fn wall_s(&self) -> f64 {
        (0..self.cells.len())
            .map(|c| self.best_steps(c).iter().sum::<f64>())
            .sum()
    }

    /// Sum over cells of the best-of-rounds `BenchRun::new`.
    pub fn new_s(&self) -> f64 {
        (0..self.cells.len())
            .map(|c| best(&self.runs.iter().map(|row| row[c].new_s).collect::<Vec<_>>()))
            .sum()
    }

    /// The per-layer numbers this workload measures itself: counts from
    /// round 0 (they repeat exactly, the digest check enforces it) and the
    /// `nas.*` / `ccnuma.*_per_*` times from the best-of-rounds steps.
    pub fn layer_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let Some(row) = self.runs.first() else {
            return m;
        };
        let sum = |f: &dyn Fn(&CellRun) -> u64| row.iter().map(f).sum::<u64>() as f64;
        let accesses = sum(&|r| r.accesses());
        let mem = sum(&|r| r.cpu.mem_local + r.cpu.mem_remote);
        let frac = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        m.set("ccnuma.accesses", accesses);
        m.set(
            "ccnuma.l1_hit_frac",
            frac(sum(&|r| r.cpu.l1_hits), accesses),
        );
        m.set(
            "ccnuma.l2_hit_frac",
            frac(sum(&|r| r.cpu.l2_hits), accesses),
        );
        m.set(
            "ccnuma.mem_remote_frac",
            frac(sum(&|r| r.cpu.mem_remote), mem),
        );
        m.set("ccnuma.coherence_misses", sum(&|r| r.cpu.coherence_misses));
        m.set("ccnuma.page_faults", sum(&|r| r.machine.page_faults));
        m.set(
            "ccnuma.page_migrations",
            sum(&|r| r.machine.page_migrations),
        );
        m.set("ccnuma.regions", sum(&|r| r.machine.regions));
        m.set("ccnuma.sim_s", row.iter().map(|r| r.sim_s).sum());
        let wall = self.wall_s();
        m.set("ccnuma.wall_ns_per_access", frac(wall * 1e9, accesses));
        m.set("ccnuma.maccess_per_s", frac(accesses / 1e6, wall));
        let replays = sum(&|r| r.fastpath.replays);
        let misses = sum(&|r| r.fastpath.misses);
        let rejects = sum(&|r| r.fastpath.rejects);
        m.set("ccnuma.fastpath_replays", replays);
        m.set("ccnuma.fastpath_records", sum(&|r| r.fastpath.records));
        m.set("ccnuma.fastpath_misses", misses);
        m.set("ccnuma.fastpath_rejects", rejects);
        m.set(
            "ccnuma.fastpath_replay_frac",
            frac(replays, replays + misses + rejects),
        );
        m.set("vmm.kernel_migrations", sum(&|r| r.kernel_migrations));
        m.set("upmlib.migrations", sum(&|r| r.upm_migrations));
        m.set("upmlib.invocations", sum(&|r| r.upm_invocations));
        m.set("nas.new_ms", self.new_s() * 1e3);
        m.set(
            "nas.first_step_s",
            (0..self.cells.len())
                .filter(|&c| !row[c].steps.is_empty())
                .map(|c| self.best_step(c, 0))
                .sum(),
        );
        for (bench, name) in [
            (BenchName::Bt, "nas.bt_iter_ms"),
            (BenchName::Cg, "nas.cg_iter_ms"),
            (BenchName::Mg, "nas.mg_iter_ms"),
            (BenchName::Ft, "nas.ft_iter_ms"),
        ] {
            let Some(c) = self.cells.iter().position(|c| c.bench == bench) else {
                continue;
            };
            // Warm steps: index >= 2 where the run is that long, else
            // whatever follows the first step.
            let steps = self.best_steps(c);
            let from = if steps.len() > 2 { 2 } else { 1 };
            if let Some(warm) = steps.get(from..).filter(|w| !w.is_empty()) {
                m.set(name, median(warm) * 1e3);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_repeat_across_two_in_process_runs_of_a_tiny_cell() {
        let cell = &cells(SimKind::Replay, 1)[1];
        assert_eq!(cell.id(), "cg:ft-IRIX");
        let mut rec = Recorder::new(false);
        let a = run_cell(cell, Scale::Tiny, true, &mut rec, 0).unwrap();
        let b = run_cell(cell, Scale::Tiny, true, &mut rec, 1).unwrap();
        assert!(a.verified && b.verified);
        assert_eq!(a.digest, b.digest);
        // The fast path is bit-invisible: the exact path digests the same.
        let c = run_cell(cell, Scale::Tiny, false, &mut rec, 2).unwrap();
        assert_eq!(a.digest, c.digest);
        assert_eq!(c.fastpath.replays, 0);
        assert!(a.fastpath.replays > 0);
    }

    #[test]
    fn a_seeded_cell_digests_differently_under_another_seed() {
        let run = |seed| {
            let cell = cells(SimKind::Migrate, seed)
                .into_iter()
                .find(CellDef::seeded)
                .unwrap();
            run_cell(&cell, Scale::Tiny, true, &mut Recorder::new(false), 0)
                .unwrap()
                .digest
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn rounds_take_the_best_of_each_step_and_flag_nothing_on_a_clean_run() {
        let cells = cells(SimKind::Replay, 1);
        let mut rec = Recorder::new(true);
        let rounds = run_rounds(&cells[1..3], Scale::Tiny, true, 2, &|_, _| None, &mut rec);
        assert!(rounds.ops.problems.is_empty(), "{:?}", rounds.ops.problems);
        assert_eq!((rounds.ops.attempted, rounds.ops.failed), (4, 0));
        assert_eq!(rounds.runs.len(), 2);
        assert!(rounds.wall_s() > 0.0 && rounds.new_s() > 0.0);
        let walls = rounds.round_walls();
        assert!(rounds.wall_s() <= walls[0].min(walls[1]));
        let m = rounds.layer_metrics();
        assert!(m.get("ccnuma.accesses").unwrap() > 0.0);
        assert!(m.get("nas.cg_iter_ms").unwrap() > 0.0);
        assert!(m.get("nas.bt_iter_ms").is_none());
        // Only the odd round is traced: round > cell > new, steps, finish.
        let spans = rec.spans();
        assert_eq!(spans[0].name, "ledger.round");
        assert_eq!(spans[0].id, "round-1");
        assert_eq!(spans.iter().filter(|s| s.name == "ledger.round").count(), 1);
        assert_eq!(spans[1].name, "ledger.cell");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "nas.new");
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn a_digest_the_check_rejects_fails_that_cell_run_once() {
        let cells = cells(SimKind::Replay, 1);
        let rounds = run_rounds(
            &cells[1..2],
            Scale::Tiny,
            true,
            2,
            &|cell, _| Some(format!("{}: not the committed digest", cell.id())),
            &mut Recorder::new(false),
        );
        assert_eq!((rounds.ops.attempted, rounds.ops.failed), (2, 2));
        assert_eq!(rounds.ops.problems.len(), 2);
    }
}
