//! The one description of a cacheable run, and the grid experiments'
//! shared pipeline.
//!
//! The paper's evaluation is one product — benchmark x placement x engine
//! (Figures 1/4/5/6, Table 2) — so a cell of it is stated once, as a
//! [`Cell`], and everything else is derived from that statement:
//!
//! * [`Cell::spec`] — the [`svc::CellSpec`] that keys the cell in the
//!   result cache and names it to a server;
//! * [`Cell::run`] — the local computation of record;
//! * [`Cell::from_spec`] — the server-side inverse, which rebuilds the cell
//!   from the spec's labels and then **derives the spec back and refuses
//!   on any difference** ([`Refusal`]). A spec this binary cannot
//!   reproduce exactly is never computed, so it can never be served or
//!   stored under a key this binary would not have built itself;
//! * [`crate::CellPlan::add_cell`] — both halves of a planned cell.
//!
//! An experiment is then a [`Sweep`]: a `Vec<Cell>` per benchmark and a
//! report over their outputs. [`execute`] runs groups of cells as one plan
//! that holds each distinct cell once and hands the outputs back group by
//! group, [`sweep`] runs the groups of several experiments so, and
//! [`report_benches`] is the chart-and-rows loop the bar-chart figures
//! share.

use crate::cells::{CellOutput, CellPlan};
use crate::report::{pct, secs, Bar, Report};
use crate::spec::{config_fp, CODE_VERSION};
use crate::summary::SummaryEntry;
use nas::bt::{Bt, BtConfig};
use nas::cg::{Cg, CgConfig};
use nas::{BenchName, BenchRun, EngineMode, RunConfig, RunResult, Scale};
use std::time::Instant;
use svc::CellSpec;
use vmm::PlacementScheme;

/// Which problem instance a cell runs.
#[derive(Debug, Clone)]
pub enum Problem {
    /// The benchmark's own problem at the cell's scale.
    AtScale,
    /// BT at the cell's scale with every phase repeated this many times
    /// (Figure 6). Spec variant `"{N}x"`.
    BtPhases(usize),
    /// CG on an explicit problem (the weak-scaled machine-size ablation);
    /// the cell's scale is only a label.
    Cg(CgConfig),
}

/// One cacheable run: a benchmark, its problem, and the full run
/// configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The benchmark.
    pub bench: BenchName,
    /// The problem scale (a key label only under [`Problem::Cg`]).
    pub scale: Scale,
    /// Placement, engine, machine and team.
    pub cfg: RunConfig,
    /// The problem instance.
    pub problem: Problem,
    /// Names a bespoke `cfg` or problem in the cell id — an ablation's
    /// `-thr2`, `-ratio5.0`, `-32cpu`, spliced after the benchmark label.
    /// The config fingerprint carries the truth; the tag documents it.
    /// Servers refuse tagged cells, which therefore cache offline only.
    /// Empty for the paper-default grids.
    pub tag: String,
}

/// Why [`Cell::from_spec`] will not rebuild a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// The spec was built by another simulator generation.
    CodeVersion(String),
    /// A field (named first) holds a label this binary does not know.
    Unknown(&'static str, String),
    /// The variant names a cell no server rebuilds, for the reason given:
    /// an ablation tag, phase scaling of a benchmark other than BT, or a
    /// phase scale Figure 6 does not sweep.
    NotReconstructible(String, &'static str),
    /// The rebuilt cell derives a different spec: what differs, the cell,
    /// the spec's value, the rebuilt value.
    Mismatch(&'static str, String, String, String),
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refusal::CodeVersion(v) => {
                write!(f, "code version mismatch: spec {v}, binary {CODE_VERSION}")
            }
            Refusal::Unknown(field, v) => write!(f, "unknown {field} '{v}'"),
            Refusal::NotReconstructible(v, why) => {
                write!(
                    f,
                    "variant '{v}' is not reconstructible by a server ({why})"
                )
            }
            Refusal::Mismatch(what, cell, spec, rebuilt) => write!(
                f,
                "{what} mismatch for {cell}: spec {spec}, reconstruction {rebuilt} — this \
                 binary cannot reproduce the cell exactly"
            ),
        }
    }
}

impl Cell {
    /// `bench` at `scale` under `cfg`.
    pub fn at_scale(bench: BenchName, scale: Scale, cfg: RunConfig) -> Cell {
        Cell {
            bench,
            scale,
            cfg,
            problem: Problem::AtScale,
            tag: String::new(),
        }
    }

    /// A paper-default grid cell: `bench` at `scale` on the paper's
    /// machine, deviating from [`RunConfig::paper_default`] only in
    /// placement and engine.
    pub fn paper(
        bench: BenchName,
        scale: Scale,
        placement: PlacementScheme,
        engine: EngineMode,
    ) -> Cell {
        let cfg = RunConfig {
            placement,
            engine,
            ..RunConfig::paper_default()
        };
        Cell::at_scale(bench, scale, cfg)
    }

    /// The spec naming this cell: cache key, cell id, and what a server is
    /// asked to rebuild.
    pub fn spec(&self) -> CellSpec {
        let (variant, extras) = match &self.problem {
            Problem::AtScale => (self.tag.clone(), vec![]),
            Problem::BtPhases(n) => (format!("{n}x"), vec![format!("phase_scale={n}")]),
            Problem::Cg(cg) => (self.tag.clone(), vec![format!("{cg:?}")]),
        };
        let placement = &self.cfg.placement;
        CellSpec {
            bench: self.bench.label().to_ascii_lowercase(),
            placement: placement.label().to_string(),
            // Two `static` cells with different synthesized maps must
            // never alias: the map's content hash is part of the key.
            placement_fp: match placement {
                PlacementScheme::Static { map } => map.fingerprint().to_string(),
                _ => String::new(),
            },
            engine: self.cfg.engine.label().to_string(),
            scale: self.scale.label().to_string(),
            // Unseeded placements record seed 0, so seed sweeps share
            // their seed-independent cells.
            seed: match placement {
                PlacementScheme::Random { seed } => *seed,
                _ => 0,
            },
            variant,
            config_fp: config_fp(&self.cfg, &extras),
            code_version: CODE_VERSION.to_string(),
        }
    }

    /// Run the cell: it only computes. With a `--trace DIR` installed the
    /// run executes with the `obs` sink attached; its planned cell's merge
    /// step writes the events and credits its simulated seconds (see
    /// [`crate::cells`]).
    pub fn run(self) -> RunResult {
        self.run_with(None)
    }

    /// [`Cell::run`], with the phase fast path forced on or off when
    /// `fastpath` is given (the default is on, except traced).
    pub fn run_with(mut self, fastpath: Option<bool>) -> RunResult {
        let mut run = self.build();
        if let Some(on) = fastpath {
            run.set_fastpath(on);
        }
        complete(run)
    }

    /// The cell's run, not started, traced when a `--trace DIR` is
    /// installed.
    pub(crate) fn build(&mut self) -> BenchRun {
        crate::trace::arm(&mut self.cfg);
        match self.problem {
            Problem::AtScale => BenchRun::for_bench(self.bench, self.scale, &self.cfg),
            Problem::BtPhases(phase_scale) => {
                assert_eq!(self.bench, BenchName::Bt, "phase scaling is BT's");
                let bt = BtConfig {
                    phase_scale,
                    ..BtConfig::for_scale(self.scale)
                };
                BenchRun::new(|rt| Bt::with_config(rt, bt), &self.cfg)
            }
            Problem::Cg(cg) => {
                assert_eq!(self.bench, BenchName::Cg, "a CgConfig is CG's problem");
                BenchRun::new(|rt| Cg::with_config(rt, cg), &self.cfg)
            }
        }
    }

    /// What the cells this one forks with share: the canonical spec of its
    /// IRIX sibling. `None` for a cell whose run never forks
    /// ([`BenchRun::fork`]): a traced one, or one under the kernel engine.
    fn fork_key(&self) -> Option<String> {
        if self.cfg.trace || matches!(self.cfg.engine, EngineMode::IrixMig(_)) {
            return None;
        }
        Some(self.irix_sibling_key(self.cfg.placement.clone()))
    }

    /// What the cells whose numerics are this one's share: the canonical
    /// spec of its first-touch IRIX sibling. Team, machine, problem,
    /// variant and tag are kept; placement and engine change the time,
    /// never the result.
    pub(crate) fn numerics_key(&self) -> String {
        self.irix_sibling_key(PlacementScheme::FirstTouch)
    }

    /// The canonical spec of this cell under `placement` and no engine.
    fn irix_sibling_key(&self, placement: PlacementScheme) -> String {
        let cfg = RunConfig {
            placement,
            engine: EngineMode::None,
            ..self.cfg.clone()
        };
        Cell {
            cfg,
            ..self.clone()
        }
        .spec()
        .canonical()
    }

    /// Rebuild the cell a spec names — the server side of [`Cell::spec`].
    ///
    /// The spec is network input, so nothing in it is trusted: the variant
    /// is checked against the closed set of problems a server rebuilds
    /// *before* anything is built (a forged `"1000000000x"` would
    /// otherwise occupy a resident worker forever), and the rebuilt cell
    /// must derive the spec back field for field — the same
    /// [`Cell::spec`] the client used, not a second implementation of it.
    pub fn from_spec(spec: &CellSpec) -> Result<Cell, Refusal> {
        if spec.code_version != CODE_VERSION {
            return Err(Refusal::CodeVersion(spec.code_version.clone()));
        }
        let bench = BenchName::parse(&spec.bench)
            .ok_or_else(|| Refusal::Unknown("benchmark", spec.bench.clone()))?;
        let scale = Scale::parse(&spec.scale)
            .ok_or_else(|| Refusal::Unknown("scale", spec.scale.clone()))?;
        let refuse = |why| Err(Refusal::NotReconstructible(spec.variant.clone(), why));
        let phases = spec.variant.strip_suffix('x').map(str::parse::<usize>);
        let problem = match phases {
            _ if spec.variant.is_empty() => Problem::AtScale,
            Some(Ok(_)) if bench != BenchName::Bt => {
                return refuse("phase scaling is only defined for BT")
            }
            Some(Ok(n)) if crate::fig6::PHASE_SCALES.contains(&n) => Problem::BtPhases(n),
            Some(Ok(_)) => return refuse("not one of Figure 6's phase scales"),
            _ => return refuse("ablation cells cache offline only"),
        };
        // Every label is parsed before the `static` arm runs: that arm may
        // synthesize a placement, and a spec refused for a misspelt engine
        // must not cost a resident worker an analysis first.
        let (kcfg, upm_opts) = crate::default_engine_configs();
        let engine = match spec.engine.as_str() {
            "IRIX" => EngineMode::None,
            "IRIXmig" => EngineMode::IrixMig(kcfg),
            "upmlib" => EngineMode::Upmlib(upm_opts),
            "recrep" => EngineMode::RecRep(upm_opts),
            other => return Err(Refusal::Unknown("engine", other.to_string())),
        };
        let placement = match spec.placement.as_str() {
            "ft" => PlacementScheme::FirstTouch,
            "rr" => PlacementScheme::RoundRobin,
            "rand" => PlacementScheme::Random { seed: spec.seed },
            "wc" => PlacementScheme::WorstCase { node: 0 },
            // The map is a pure function of (bench, scale) under the
            // paper-default lint configuration, held once per process; the
            // derive-back check below compares its fingerprint.
            "static" => crate::lint::static_scheme(bench, scale),
            other => return Err(Refusal::Unknown("placement", other.to_string())),
        };
        let cell = Cell {
            problem,
            ..Cell::paper(bench, scale, placement, engine)
        };
        let rebuilt = cell.spec();
        for (what, theirs, ours) in [
            (
                "placement map fingerprint",
                &spec.placement_fp,
                &rebuilt.placement_fp,
            ),
            ("config fingerprint", &spec.config_fp, &rebuilt.config_fp),
            ("canonical form", &spec.canonical(), &rebuilt.canonical()),
        ] {
            if theirs != ours {
                return Err(Refusal::Mismatch(
                    what,
                    spec.cell_id(),
                    theirs.clone(),
                    ours.clone(),
                ));
            }
        }
        Ok(cell)
    }
}

/// Finish `run`, a cell's run: every remaining iteration, then its result.
pub(crate) fn complete(run: BenchRun) -> RunResult {
    let result = run.complete();
    crate::dash::add_sim_done(result.total_secs);
    result
}

/// Split `cells` (plan index, cell) into fork chains, each computed by
/// one job ([`crate::cells`]): the cells of one fork key, in plan order. A
/// cell without a key is a chain of its own. Chains come in the plan order
/// of their first cells.
pub(crate) fn fork_chains(cells: &[(usize, &Cell)]) -> Vec<Vec<usize>> {
    let mut chains: Vec<Vec<usize>> = Vec::new();
    let mut open: std::collections::HashMap<String, usize> = Default::default();
    for &(index, cell) in cells {
        // A key new to `open` names the chain its cell is about to start.
        let chain = cell
            .fork_key()
            .map(|key| *open.entry(key).or_insert(chains.len()));
        match chain.filter(|&c| c < chains.len()) {
            Some(c) => chains[c].push(index),
            None => chains.push(vec![index]),
        }
    }
    chains
}

/// The borrowers among `cells` (plan index, cell), in plan order, each
/// with its owner ([`crate::cells`]): the first untraced cell of each
/// numerics key ([`Cell::numerics_key`]) owns it, and every later untraced
/// cell of that key borrows from it.
pub(crate) fn borrowers(cells: &[(usize, &Cell)]) -> Vec<(usize, usize)> {
    let mut owners: std::collections::HashMap<String, usize> = Default::default();
    (cells.iter().filter(|(_, cell)| !cell.cfg.trace))
        .filter_map(|&(index, cell)| {
            let owner = *owners.entry(cell.numerics_key()).or_insert(index);
            (owner != index).then_some((index, owner))
        })
        .collect()
}

/// One group's outputs, in its listing order.
pub type Group = Vec<CellOutput<RunResult>>;

/// Execute groups of cells as one plan (cache, server and pool all see one
/// batch) and hand the outputs back group by group, in listing order. Each
/// distinct cell ([`svc::CellSpec::canonical`]) is planned once, at its
/// first listing; a repeat gets a clone of that output, with `wall_secs` 0.
pub fn execute(groups: Vec<Vec<Cell>>) -> Vec<Group> {
    let mut plan = CellPlan::new();
    let mut planned: std::collections::HashMap<String, usize> = Default::default();
    let mut position = |cell: Cell| {
        *planned.entry(cell.spec().canonical()).or_insert_with(|| {
            plan.add_cell(cell);
            plan.len() - 1
        })
    };
    let positions: Vec<Vec<usize>> = (groups.into_iter())
        .map(|group| group.into_iter().map(&mut position).collect())
        .collect();
    // A cell's first listing takes its wall; later ones find 0.
    let mut outputs = plan.execute();
    let mut output = |p: usize| {
        let output = outputs[p].clone();
        outputs[p].wall_secs = 0.0;
        output
    };
    (positions.into_iter())
        .map(|group| group.into_iter().map(&mut output).collect())
        .collect()
}

/// What an experiment runs: its grid cells, in groups, and the reports it
/// renders from their outputs, group by group. Plans of cells that are not
/// grid cells (probes, synthetic kernels, schedules) run inside the report.
#[derive(Clone, Copy)]
pub struct Sweep {
    /// The groups of grid cells, in listing order.
    pub grid: fn(Scale) -> Vec<Vec<Cell>>,
    /// The reports, from the groups' outputs.
    pub report: fn(Scale, Vec<Group>) -> Vec<Report>,
}

impl Sweep {
    /// This one experiment: its grid as one plan, then its reports.
    pub fn run(self, scale: Scale) -> Vec<Report> {
        (self.report)(scale, execute((self.grid)(scale)))
    }
}

/// Run `rows` at `scale` as one sweep: every row's grid cells as one plan
/// ([`execute`]: each distinct cell computed once), then each row's reports
/// from its own cells' outputs, in row order. Returns per row its summary
/// entry, with its part of the plan ([`crate::summary::credit_sweep`]), and
/// its reports.
pub fn sweep(rows: &[crate::cli::Experiment], scale: Scale) -> Vec<(SummaryEntry, Vec<Report>)> {
    crate::summary::take();
    let t0 = Instant::now();
    let grids: Vec<Vec<Vec<Cell>>> = rows.iter().map(|(_, s)| (s.grid)(scale)).collect();
    let widths: Vec<usize> = grids.iter().map(Vec::len).collect();
    let listed = grids.iter().flatten().map(Vec::len).sum();
    let mut outputs = execute(grids.into_iter().flatten().collect()).into_iter();
    let plan = crate::summary::take();
    let plan_wall = t0.elapsed().as_secs_f64();
    (rows.iter().zip(widths))
        .map(|(&(id, sweep), width)| {
            let outputs: Vec<Group> = outputs.by_ref().take(width).collect();
            let share = crate::summary::credit_sweep(&plan, plan_wall, listed, &outputs);
            crate::summary::timed(id, share, || (sweep.report)(scale, outputs))
        })
        .collect()
}

/// A group's results when every cell of it ran; otherwise a failed row per
/// dead cell and `None` — for rows that combine several cells.
pub fn all_ok<'a>(
    report: &mut Report,
    group: &'a [CellOutput<RunResult>],
) -> Option<Vec<&'a RunResult>> {
    for cell in group {
        if let Err(p) = &cell.value {
            report.failed_row(&cell.id, &p.message);
        }
    }
    group.iter().map(CellOutput::ok).collect()
}

/// `r`'s execution time relative to `base`'s, as a table cell (`-` when
/// the baseline cell failed).
pub fn vs(r: &RunResult, base: Option<&RunResult>) -> String {
    base.map(|b| pct(r.total_secs / b.total_secs))
        .unwrap_or_else(|| "-".into())
}

/// The `UPM migrations` table cell: distribution migrations the engine
/// performed, `-` for runs without UPMlib.
pub fn upm_migrations(r: &RunResult) -> String {
    r.upm
        .as_ref()
        .map(|s| s.total_distribution_migrations().to_string())
        .unwrap_or_else(|| "-".into())
}

/// The loop the bar-chart figures share: `outputs` holds each benchmark's
/// cells, in `benches` order. Renders each benchmark's share: a bar chart
/// `NAS <bench><chart_suffix>` of the cells that ran, then per cell either
/// a failed row or the row `[bench, config, time] ++ columns(result, the
/// benchmark's ft-IRIX result) ++ [verified]`, then `after(report, bench,
/// the results that ran)` for per-benchmark notes.
pub fn report_benches(
    report: &mut Report,
    benches: &[BenchName],
    outputs: &[Group],
    chart_suffix: &str,
    mut columns: impl FnMut(&RunResult, Option<&RunResult>) -> Vec<String>,
    mut after: impl FnMut(&mut Report, BenchName, &[&RunResult]),
) {
    for (&bench, chunk) in benches.iter().zip(outputs) {
        let ok: Vec<&RunResult> = chunk.iter().filter_map(CellOutput::ok).collect();
        let base = ok
            .iter()
            .find(|r| r.placement == "ft" && r.engine == "IRIX")
            .copied();
        let bars = ok.iter().map(|r| Bar {
            label: r.label(),
            value: r.total_secs,
        });
        report.chart(
            &format!("NAS {}{chart_suffix}", bench.label()),
            bars.collect(),
        );
        for cell in chunk {
            let r = match &cell.value {
                Ok(r) => r,
                Err(p) => {
                    report.failed_row(&cell.id, &p.message);
                    continue;
                }
            };
            let mut row = vec![bench.label().into(), r.label(), secs(r.total_secs)];
            row.extend(columns(r, base));
            row.push(if r.verification.passed { "ok" } else { "FAIL" }.into());
            report.row(row);
        }
        after(report, bench, &ok);
    }
}

#[cfg(test)]
/// Execute `cells` and return their results, panicking on a failed cell —
/// for the experiments' tests, which require a complete grid.
pub(crate) fn run_cells(cells: Vec<Cell>) -> Vec<RunResult> {
    let outputs = execute(vec![cells]).remove(0);
    outputs.into_iter().map(CellOutput::expect_ok).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_engine_configs;

    #[test]
    fn fork_chains_join_the_engines_of_one_placement() {
        let cells = crate::fig1::cells(BenchName::Cg, Scale::Tiny, true);
        let (kcfg, opts) = default_engine_configs();
        let mut fig6 = crate::fig6::cells(Scale::Tiny, 4);
        let mut other = fig6[0].clone();
        other.cfg.engine = EngineMode::Upmlib(upmlib::UpmOptions {
            critical_pages: 3,
            ..opts
        });
        fig6.push(other);
        let labels = |cells: &[Cell], pending: &dyn Fn(&Cell) -> bool| -> Vec<Vec<String>> {
            let pending: Vec<(usize, &Cell)> = cells
                .iter()
                .enumerate()
                .filter(|(_, c)| pending(c))
                .collect();
            let label = |i: usize| {
                format!(
                    "{}-{}",
                    cells[i].cfg.placement.label(),
                    cells[i].cfg.engine.label()
                )
            };
            let chains = fork_chains(&pending);
            chains
                .into_iter()
                .map(|c| c.into_iter().map(label).collect())
                .collect()
        };
        let all = labels(&cells, &|_| true);
        assert_eq!(all.len(), 10);
        assert_eq!(all[0], ["ft-IRIX", "ft-upmlib"]);
        assert_eq!(all[1], ["ft-IRIXmig"]);
        // An IRIX cell resolved elsewhere (a cache hit) leaves its UPMlib
        // sibling alone.
        let no_irix = labels(&cells, &|c| c.cfg.engine != EngineMode::None);
        assert!(no_irix.iter().all(|c| c.len() == 1), "{no_irix:?}");
        assert_eq!(no_irix.len(), 10);
        // Figure 6's UPMlib cell forks its record–replay sibling, and a
        // UPMlib cell of other options joins them: any engine follows any.
        let chains = labels(&fig6, &|_| true);
        assert_eq!(chains, [vec!["ft-upmlib", "ft-recrep", "ft-upmlib"]]);
        // Under the kernel engine nothing forks.
        assert_eq!(cells[1].cfg.engine, EngineMode::IrixMig(kcfg));
    }

    #[test]
    fn the_first_cell_of_a_problem_owns_its_numerics() {
        // Figure 1's CG and MG grids, then Figure 6's 4x BT pair and a
        // traced CG cell: each problem's first cell owns it, whatever its
        // placement and engine; a traced cell neither owns nor borrows.
        let mut cells = crate::fig1::cells(BenchName::Cg, Scale::Tiny, true);
        cells.extend(crate::fig1::cells(BenchName::Mg, Scale::Tiny, true));
        cells.extend(crate::fig6::cells(Scale::Tiny, 4));
        let mut traced = cells[3].clone();
        traced.cfg.trace = true;
        cells.push(traced);
        let indexed: Vec<(usize, &Cell)> = cells.iter().enumerate().collect();
        let owners: Vec<usize> = borrowers(&indexed).iter().map(|&(_, o)| o).collect();
        let mut want = vec![0; 14];
        want.extend([15; 14]);
        want.push(30);
        assert_eq!(owners, want);
        let keys: std::collections::HashSet<String> =
            cells.iter().map(Cell::numerics_key).collect();
        assert_eq!(keys.len(), 4, "CG, MG, BT 4x and the traced CG cell");
    }

    fn run_spec(spec: &CellSpec) -> Result<RunResult, String> {
        Cell::from_spec(spec)
            .map(Cell::run)
            .map_err(|e| e.to_string())
    }

    fn cached_bytes(r: &RunResult) -> String {
        r.to_cache_json().to_string()
    }

    #[test]
    fn plain_spec_matches_plan_ids_and_round_trips() {
        let cell = Cell::paper(
            BenchName::Cg,
            Scale::Tiny,
            PlacementScheme::WorstCase { node: 0 },
            EngineMode::Upmlib(default_engine_configs().1),
        );
        let spec = cell.spec();
        assert_eq!(spec.cell_id(), "cg:wc-upmlib");
        assert_eq!(spec.seed, 0, "unseeded placements normalize to seed 0");
        // The reconstruction reproduces the exact result, byte for byte
        // through the cache encoding.
        let reconstructed = run_spec(&spec).unwrap();
        assert_eq!(cached_bytes(&reconstructed), cached_bytes(&cell.run()));
    }

    #[test]
    fn random_placement_seed_feeds_the_spec_and_the_reconstruction() {
        let rand = |seed| {
            Cell::paper(
                BenchName::Mg,
                Scale::Tiny,
                PlacementScheme::Random { seed },
                EngineMode::None,
            )
            .spec()
        };
        let spec = rand(777);
        assert_eq!(spec.seed, 777);
        let r = run_spec(&spec).unwrap();
        assert_eq!(r.placement, "rand");
        // A different seed is a different cell.
        assert_ne!(spec.key(), rand(778).key());
        // A seed on an unseeded placement is not a spec this binary
        // builds, so it is not one it serves.
        let mut seeded_ft =
            Cell::at_scale(BenchName::Mg, Scale::Tiny, RunConfig::paper_default()).spec();
        seeded_ft.seed = 5;
        let err = run_spec(&seeded_ft).unwrap_err();
        assert!(err.contains("canonical form mismatch"), "{err}");
    }

    fn bt_phases(n: usize) -> Cell {
        Cell {
            problem: Problem::BtPhases(n),
            ..Cell::paper(
                BenchName::Bt,
                Scale::Tiny,
                PlacementScheme::FirstTouch,
                EngineMode::RecRep(default_engine_configs().1),
            )
        }
    }

    #[test]
    fn phase_scaled_spec_reconstructs_bt_only() {
        let spec = bt_phases(4).spec();
        assert_eq!(spec.cell_id(), "bt4x:ft-recrep");
        let r = run_spec(&spec).unwrap();
        assert!(r.verification.passed);
        let mut wrong = spec.clone();
        wrong.bench = "sp".into();
        let err = run_spec(&wrong).unwrap_err();
        assert!(err.contains("only defined for BT"), "{err}");
    }

    #[test]
    fn forged_phase_scales_are_refused_before_anything_is_built() {
        // The fingerprint is a digest the client computes itself, so a
        // forged spec carries a *matching* one: only the closed set of
        // phase scales stands between the network and a 10^9-fold BT run.
        for n in [0usize, 1_000_000_000] {
            let forged = bt_phases(n).spec();
            let t0 = std::time::Instant::now();
            let err = (crate::spec::compute())(&forged).unwrap_err();
            assert!(err.contains("not reconstructible"), "{n}x: {err}");
            assert!(
                t0.elapsed() < std::time::Duration::from_millis(50),
                "{n}x was refused only after {:?}",
                t0.elapsed()
            );
            assert_eq!(
                Cell::from_spec(&forged).unwrap_err(),
                Refusal::NotReconstructible(format!("{n}x"), "not one of Figure 6's phase scales")
            );
        }
        // The three legal scales still round-trip byte-identically.
        for n in crate::fig6::PHASE_SCALES {
            let cell = bt_phases(n);
            let served = (crate::spec::compute())(&cell.spec()).unwrap();
            assert_eq!(served.to_string(), cached_bytes(&cell.run()), "{n}x");
        }
    }

    #[test]
    fn static_placement_spec_round_trips_and_pins_the_map() {
        let cell = Cell::paper(
            BenchName::Mg,
            Scale::Tiny,
            crate::lint::static_scheme(BenchName::Mg, Scale::Tiny),
            EngineMode::None,
        );
        let spec = cell.spec();
        assert_eq!(spec.cell_id(), "mg:static-IRIX");
        assert_eq!(spec.placement_fp.len(), 16, "map fingerprint recorded");
        // The reconstruction names the same map and reproduces the exact
        // result through the cache encoding.
        let reconstructed = run_spec(&spec).unwrap();
        assert_eq!(cached_bytes(&reconstructed), cached_bytes(&cell.run()));
        // A tampered map fingerprint is refused, not silently re-mapped.
        let mut wrong = spec.clone();
        wrong.placement_fp = "0000000000000000".into();
        let err = run_spec(&wrong).unwrap_err();
        assert!(err.contains("placement map fingerprint mismatch"), "{err}");
    }

    #[test]
    fn a_forged_engine_is_refused_before_any_placement_is_synthesized() {
        // SP at medium: seconds of synthesis, and a key nothing else in
        // this test binary asks for.
        let (bench, scale) = (BenchName::Sp, Scale::Medium);
        let mut forged = Cell::at_scale(bench, scale, RunConfig::paper_default()).spec();
        forged.placement = "static".into();
        forged.engine = "IRIXmig2".into();
        assert_eq!(
            Cell::from_spec(&forged).unwrap_err(),
            Refusal::Unknown("engine", "IRIXmig2".into())
        );
        assert!(
            !crate::lint::static_scheme_held(bench, scale),
            "the refusal cost a synthesis"
        );
    }

    #[test]
    fn tampered_fingerprint_is_refused() {
        let mut spec = crate::spec::plain(BenchName::Cg, Scale::Tiny, &RunConfig::paper_default());
        spec.config_fp = "0000000000000000".into();
        let err = run_spec(&spec).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn tagged_cells_and_stale_code_versions_are_refused() {
        let cfg = RunConfig::paper_default();
        let tagged = Cell {
            tag: "-thr2".into(),
            ..Cell::at_scale(BenchName::Cg, Scale::Tiny, cfg.clone())
        };
        let spec = tagged.spec();
        assert_eq!(spec.cell_id(), "cg-thr2:ft-IRIX");
        let err = run_spec(&spec).unwrap_err();
        assert!(err.contains("not reconstructible"), "{err}");
        let mut stale = crate::spec::plain(BenchName::Cg, Scale::Tiny, &cfg);
        stale.code_version = "older".into();
        let err = run_spec(&stale).unwrap_err();
        assert!(err.contains("code version mismatch"), "{err}");
    }

    #[test]
    fn execute_hands_outputs_back_group_by_group() {
        let _gate = crate::summary::gate::crediting();
        let ft = || Cell::at_scale(BenchName::Cg, Scale::Tiny, RunConfig::paper_default());
        let groups = execute(vec![vec![ft()], vec![], vec![ft(), ft()]]);
        let widths: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert_eq!(widths, [1, 0, 2]);
        assert!(groups.iter().flatten().all(|c| c.id == "cg:ft-IRIX"));
        // One cell computed, at its first listing.
        let ran: Vec<bool> = groups.iter().flatten().map(|c| c.wall_secs > 0.0).collect();
        assert_eq!(ran, [true, false, false]);
    }
}
