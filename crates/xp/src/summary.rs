//! The machine-readable run summary (`results/bench_summary.json`): one
//! entry per experiment with simulated seconds, host wall-clock, and the
//! host-parallel executor's speedup estimate, so future changes have a
//! performance trajectory to compare against.
//!
//! Everything an experiment costs on the host accumulates in one
//! process-global [`Tally`]. Simulated seconds are credited on the calling
//! thread, never inside a running cell: each spec cell's merge step credits
//! its run (see [`crate::cells`]), multiprog its schedules' makespans in
//! its report loop, and `xp trace`/`prof`/`selfprof` their runs once their
//! plans merge — all in plan order, so the accumulated float sum is
//! bit-identical whatever `--jobs` count ran the cells. Every executed
//! [`crate::cells::CellPlan`] credits its pool telemetry and per-cell
//! walls. The binary drains the tally around each experiment with
//! [`take`], prints its [`Tally::footer`] and writes the collected entries
//! with [`write`].
//!
//! The footer goes to **stdout only** — it is never embedded in saved
//! report JSON, so result trees stay byte-identical across `--jobs`
//! settings (pool utilization obviously differs between worker counts).
//!
//! Wall-clock bookkeeping for the speedup estimate: the tally holds the
//! wall seconds every computed cell spent on its worker and the wall
//! seconds every plan's pool was open. An experiment that took
//! `wall_secs` overall would therefore have taken about
//! `wall_secs - pool_wall + cells_wall` serially, and `speedup_vs_serial`
//! is that estimate divided by `wall_secs` — ~1.0 for `--jobs 1` runs,
//! approaching the worker count for cell-dominated experiments, and
//! `null` when every cell was resolved without running — listed first by
//! an earlier experiment, cached or served — so there is nothing to
//! estimate from.
//!
//! A sweep runs every experiment's grid cells as one plan
//! ([`crate::grid::sweep`]), whose tally is split among the experiments
//! ([`credit_sweep`]): each credits the simulated seconds of every cell it
//! lists, in its listing order, and the wall of every cell it lists first;
//! the plan's wall, pool wall, busy and worker time go to each in
//! proportion to those cell walls (to the cells it lists, when none ran).

use crate::grid::Group;
use exec::PoolTelemetry;
use obs::json::Value;
use obs::metrics::Histogram;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Host-side cost of the experiment currently running.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Simulated seconds across every run dispatched.
    pub sim_secs: f64,
    /// Sum of per-cell on-worker wall seconds (0 when no cell ran).
    pub cells_wall_secs: f64,
    /// Wall seconds the plans' pools were open.
    pub pool_wall_secs: f64,
    /// Cells computed on a pool.
    pub cells_computed: usize,
    /// Cells resolved without running here: from the result cache, a
    /// server, or (in a sweep) an earlier experiment's listing.
    pub cells_resolved: usize,
    plans: usize,
    failed: usize,
    /// Σ on-worker seconds of the plans' pool jobs; equal to
    /// `cells_wall_secs`, because a job's wall is split among its cells.
    pub busy_secs: f64,
    /// Σ (plan wall × workers): the capacity the busy time is measured
    /// against, robust to plans running with different worker counts.
    worker_secs: f64,
    max_workers: usize,
    /// Per-cell wall latency, in microseconds.
    wall_us: Histogram,
}

static TALLY: Mutex<Option<Tally>> = Mutex::new(None);

fn with_tally<R>(f: impl FnOnce(&mut Tally) -> R) -> R {
    let mut slot = TALLY.lock().unwrap_or_else(|p| p.into_inner());
    f(slot.get_or_insert_with(Tally::default))
}

/// Credit simulated seconds to the experiment currently running. Call it
/// in plan order from the thread that merges, never from a running cell.
pub fn add_sim_secs(secs: f64) {
    with_tally(|t| t.sim_secs += secs);
}

/// Credit one executed plan: the pool telemetry of each of its batches
/// (none when no cell ran), the on-worker wall seconds of the cells it
/// computed, in plan order, how many of those failed, and how many cells it
/// resolved without running (cache hits, served).
pub(crate) fn record_plan(pools: &[PoolTelemetry], walls: &[f64], failed: usize, resolved: usize) {
    with_tally(|tally| {
        tally.plans += usize::from(!pools.is_empty());
        tally.cells_computed += walls.len();
        tally.cells_resolved += resolved;
        tally.failed += failed;
        for t in pools {
            tally.pool_wall_secs += t.wall_secs;
            tally.busy_secs += t.busy_secs();
            tally.worker_secs += t.wall_secs * t.workers.len() as f64;
            tally.max_workers = tally.max_workers.max(t.workers.len());
        }
        for &w in walls {
            tally.cells_wall_secs += w;
            tally.wall_us.record((w * 1e6) as u64);
        }
    });
}

/// Drain the tally: everything credited since the last call.
pub fn take() -> Tally {
    let mut slot = TALLY.lock().unwrap_or_else(|p| p.into_inner());
    slot.take().unwrap_or_default()
}

/// Run `work` as the experiment `id`: its entry holds the wall it took
/// plus `earlier_secs`, and the tally drained after it.
pub fn timed<R>(id: &str, earlier_secs: f64, work: impl FnOnce() -> R) -> (SummaryEntry, R) {
    let t0 = Instant::now();
    let out = work();
    let wall_secs = earlier_secs + t0.elapsed().as_secs_f64();
    let (id, tally) = (id.to_string(), take());
    (
        SummaryEntry {
            id,
            wall_secs,
            tally,
        },
        out,
    )
}

/// Credit one experiment's part of a sweep's grid plan to the tally:
/// `plan` is the plan's drained tally, `wall_secs` the sweep's wall up to
/// its merge, `listed` the cells all experiments list, `groups` this one's
/// outputs in its listing order (a cell it lists first and that ran here
/// has a wall, any other none). Returns its share of `wall_secs`.
pub(crate) fn credit_sweep(plan: &Tally, wall_secs: f64, listed: usize, groups: &[Group]) -> f64 {
    let outputs: Vec<_> = groups.iter().flatten().collect();
    let ran: Vec<_> = outputs.iter().filter(|c| c.wall_secs > 0.0).collect();
    let walls: Vec<f64> = ran.iter().map(|c| c.wall_secs).collect();
    let failed = ran.iter().filter(|c| c.value.is_err()).count();
    record_plan(&[], &walls, failed, outputs.len() - ran.len());
    let share = if plan.cells_wall_secs > 0.0 {
        walls.iter().sum::<f64>() / plan.cells_wall_secs
    } else {
        outputs.len() as f64 / listed.max(1) as f64
    };
    with_tally(|t| {
        for cell in &outputs {
            t.sim_secs += cell.ok().map_or(0.0, |r| r.total_secs);
        }
        t.plans += usize::from(!ran.is_empty());
        t.pool_wall_secs += plan.pool_wall_secs * share;
        t.busy_secs += plan.busy_secs * share;
        t.worker_secs += plan.worker_secs * share;
        t.max_workers = t.max_workers.max(plan.max_workers);
    });
    wall_secs * share
}

impl Tally {
    /// The `[pool]` footer lines (empty when no cell was computed).
    pub fn footer(&self) -> Vec<String> {
        if self.cells_computed == 0 {
            return Vec::new();
        }
        let busy_pct = if self.worker_secs > 0.0 {
            100.0 * self.busy_secs / self.worker_secs
        } else {
            0.0
        };
        let failed = if self.failed > 0 {
            format!(", {} failed", self.failed)
        } else {
            String::new()
        };
        let mut lines = vec![format!(
            "pool: {} cells{failed} over {} plan(s), {} worker(s) {:.0}% busy",
            self.cells_computed, self.plans, self.max_workers, busy_pct,
        )];
        if self.wall_us.count() > 0 {
            lines.push(format!(
                "cell wall: p50 {} p90 {} max {} (pool wall {:.2}s)",
                fmt_us(self.wall_us.quantile_floor(0.50)),
                fmt_us(self.wall_us.quantile_floor(0.90)),
                fmt_us(self.wall_us.max()),
                self.pool_wall_secs,
            ));
        }
        lines
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// One experiment's timing entry.
#[derive(Debug, Clone)]
pub struct SummaryEntry {
    /// Experiment id (the report id, e.g. `fig1`).
    pub id: String,
    /// Host wall-clock seconds the experiment took.
    pub wall_secs: f64,
    /// What the experiment credited while it ran.
    pub tally: Tally,
}

impl SummaryEntry {
    /// Estimated serial wall seconds: the non-pool part of the experiment
    /// plus every cell's own wall time.
    pub fn serial_estimate_secs(&self) -> f64 {
        (self.wall_secs - self.tally.pool_wall_secs).max(0.0) + self.tally.cells_wall_secs
    }

    /// Estimated wall-clock speedup of this run over a `--jobs 1` run;
    /// `None` when the experiment had cells and every one of them was
    /// resolved without running, so none ran to estimate from.
    pub fn speedup_vs_serial(&self) -> Option<f64> {
        if self.tally.cells_computed == 0 && self.tally.cells_resolved > 0 {
            None
        } else if self.wall_secs > 0.0 {
            Some(self.serial_estimate_secs() / self.wall_secs)
        } else {
            Some(1.0)
        }
    }
}

/// Write `dir/bench_summary.json`. Returns the path.
pub fn write(
    dir: &Path,
    scale: &str,
    seed: u64,
    jobs: usize,
    entries: &[SummaryEntry],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let experiments = Value::Array(
        entries
            .iter()
            .map(|e| {
                Value::object(vec![
                    ("id", e.id.as_str().into()),
                    ("sim_secs", e.tally.sim_secs.into()),
                    ("wall_secs", e.wall_secs.into()),
                    ("cells_wall_secs", e.tally.cells_wall_secs.into()),
                    ("serial_estimate_secs", e.serial_estimate_secs().into()),
                    (
                        "speedup_vs_serial",
                        e.speedup_vs_serial().map_or(Value::Null, Into::into),
                    ),
                ])
            })
            .collect(),
    );
    let total_wall: f64 = entries.iter().map(|e| e.wall_secs).sum();
    let total_serial: f64 = entries.iter().map(|e| e.serial_estimate_secs()).sum();
    let doc = Value::object(vec![
        ("scale", scale.into()),
        ("seed", seed.into()),
        ("jobs", jobs.into()),
        ("experiments", experiments),
        (
            "total_sim_secs",
            entries.iter().map(|e| e.tally.sim_secs).sum::<f64>().into(),
        ),
        ("total_wall_secs", total_wall.into()),
        ("serial_estimate_secs", total_serial.into()),
        (
            "speedup_vs_serial",
            if total_wall > 0.0 {
                (total_serial / total_wall).into()
            } else {
                1.0.into()
            },
        ),
    ]);
    let path = dir.join("bench_summary.json");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(doc.to_string_pretty().as_bytes())?;
    f.write_all(b"\n")?;
    Ok(path)
}

/// The unit tests' gate on the process-global tally: a test that credits
/// it (runs a plan of spec cells) holds [`crediting`], one that reads a
/// total exactly holds [`exact`], so no credit lands inside its window.
#[cfg(test)]
pub(crate) mod gate {
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    static GATE: RwLock<()> = RwLock::new(());

    pub(crate) fn crediting() -> RwLockReadGuard<'static, ()> {
        GATE.read().unwrap_or_else(|p| p.into_inner())
    }

    pub(crate) fn exact() -> RwLockWriteGuard<'static, ()> {
        GATE.write().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec::WorkerTelemetry;

    // The tally is process-global and sibling tests execute plans
    // concurrently, so these tests assert on what they credited being
    // present (>=) and on shapes, not on exact totals.
    #[test]
    fn tally_takes_and_resets() {
        let _gate = gate::exact();
        let t = PoolTelemetry {
            wall_secs: 1.0,
            jobs_total: 4,
            jobs_failed: 1,
            workers: vec![WorkerTelemetry {
                jobs: 4,
                busy_secs: 0.8,
            }],
        };
        add_sim_secs(1.5);
        add_sim_secs(0.5);
        record_plan(&[t], &[0.1, 0.2, 0.3, 0.4], 1, 0);
        let tally = take();
        assert!(tally.sim_secs >= 2.0);
        assert!(tally.cells_wall_secs >= 1.0 - 1e-12);
        assert!(tally.pool_wall_secs >= 1.0);
        let footer = tally.footer();
        assert_eq!(footer.len(), 2, "footer: {footer:?}");
        assert!(footer[0].starts_with("pool:"), "footer: {}", footer[0]);
        assert!(footer[0].contains("failed"), "footer: {}", footer[0]);
        assert!(
            footer[1].starts_with("cell wall: p50"),
            "footer: {}",
            footer[1]
        );
        assert!(Tally::default().footer().is_empty());
    }

    #[test]
    fn microsecond_formatting_scales_units() {
        assert_eq!(fmt_us(250), "250us");
        assert_eq!(fmt_us(4_200), "4.2ms");
        assert_eq!(fmt_us(3_500_000), "3.50s");
    }

    fn entry(id: &str, wall_secs: f64, tally: Tally) -> SummaryEntry {
        SummaryEntry {
            id: id.into(),
            wall_secs,
            tally,
        }
    }

    fn walls(sim_secs: f64, cells_wall_secs: f64, pool_wall_secs: f64) -> Tally {
        Tally {
            sim_secs,
            cells_wall_secs,
            pool_wall_secs,
            ..Tally::default()
        }
    }

    #[test]
    fn speedup_estimate_shapes() {
        // Serial run: pool open as long as the cells ran -> ~1x.
        let speedup = |wall, cells, pool| {
            entry("fig1", wall, walls(1.0, cells, pool))
                .speedup_vs_serial()
                .unwrap()
        };
        let serial: f64 = speedup(10.0, 9.0, 9.0);
        assert!((serial - 1.0).abs() < 1e-12);
        // 4 workers, perfectly parallel cells: 36s of cell work in 9s.
        let parallel: f64 = speedup(10.0, 36.0, 9.0);
        assert!((parallel - 3.7).abs() < 1e-12);
        // No cells at all (table1): estimate equals the wall -> 1x.
        let plain: f64 = speedup(0.5, 0.0, 0.0);
        assert!((plain - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_resolved_cells_have_no_speedup() {
        // A warm-cache or served sweep: cells, but none ran here.
        let served = Tally {
            sim_secs: 12.0,
            cells_resolved: 50,
            ..Tally::default()
        };
        let e = entry("fig1", 0.2, served);
        assert_eq!(e.speedup_vs_serial(), None);
        let dir = std::env::temp_dir().join("ddnomp-summary-null-test");
        let text = std::fs::read_to_string(write(&dir, "tiny", 1, 1, &[e]).unwrap()).unwrap();
        assert!(text.contains("\"speedup_vs_serial\": null"), "{text}");
        // One computed cell is enough to estimate from.
        let mixed = Tally {
            cells_computed: 1,
            cells_resolved: 49,
            ..Tally::default()
        };
        assert!(entry("fig1", 0.2, mixed).speedup_vs_serial().is_some());
    }

    #[test]
    fn summary_file_shape() {
        let dir = std::env::temp_dir().join("ddnomp-summary-test");
        let entries = vec![
            entry("fig1", 0.3, walls(12.0, 0.9, 0.25)),
            entry("multiprog", 1.1, walls(30.0, 2.0, 1.0)),
        ];
        let path = write(&dir, "tiny", 20000, 4, &entries).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"seed\": 20000"));
        assert!(text.contains("\"jobs\": 4"));
        assert!(text.contains("\"id\": \"multiprog\""));
        assert!(text.contains("total_sim_secs"));
        assert!(text.contains("speedup_vs_serial"));
    }
}
