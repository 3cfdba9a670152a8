//! Exec-pool telemetry aggregation for report footers.
//!
//! Every [`crate::cells::CellPlan`] execution records its
//! [`exec::PoolTelemetry`] (plus the per-cell wall times) here; after a
//! driver job finishes, [`take_footer`] drains the accumulated numbers
//! into a couple of human-readable footer lines the CLI prints under the
//! job's report tables.
//!
//! The footer goes to **stdout only** — it is never embedded in saved
//! report JSON, so result trees stay byte-identical across `--jobs`
//! settings (pool utilization obviously differs between worker counts).

use exec::PoolTelemetry;
use obs::metrics::Histogram;
use std::sync::Mutex;

#[derive(Default)]
struct Agg {
    plans: usize,
    cells: usize,
    failed: usize,
    pool_wall_secs: f64,
    busy_secs: f64,
    /// Σ (plan wall × workers): the capacity the busy time is measured
    /// against, robust to plans running with different worker counts.
    worker_secs: f64,
    max_workers: usize,
    /// Per-cell wall latency, in microseconds.
    wall_us: Histogram,
}

static AGG: Mutex<Option<Agg>> = Mutex::new(None);

/// Credit one executed plan's telemetry to the current job's footer.
pub(crate) fn record_plan(t: &PoolTelemetry, cell_walls: &[f64]) {
    let mut slot = AGG.lock().unwrap_or_else(|p| p.into_inner());
    let agg = slot.get_or_insert_with(Agg::default);
    agg.plans += 1;
    agg.cells += t.jobs_total;
    agg.failed += t.jobs_failed;
    agg.pool_wall_secs += t.wall_secs;
    agg.busy_secs += t.busy_secs();
    agg.worker_secs += t.wall_secs * t.workers.len() as f64;
    agg.max_workers = agg.max_workers.max(t.workers.len());
    for &w in cell_walls {
        agg.wall_us.record((w * 1e6) as u64);
    }
}

/// Drain the accumulated telemetry into footer lines (empty when no plan
/// ran since the last call).
pub fn take_footer() -> Vec<String> {
    let agg = match AGG.lock().unwrap_or_else(|p| p.into_inner()).take() {
        Some(agg) if agg.cells > 0 => agg,
        _ => return Vec::new(),
    };
    let busy_pct = if agg.worker_secs > 0.0 {
        100.0 * agg.busy_secs / agg.worker_secs
    } else {
        0.0
    };
    let failed = if agg.failed > 0 {
        format!(", {} failed", agg.failed)
    } else {
        String::new()
    };
    let mut lines = vec![format!(
        "pool: {} cells{failed} over {} plan(s), {} worker(s) {:.0}% busy",
        agg.cells, agg.plans, agg.max_workers, busy_pct,
    )];
    if agg.wall_us.count() > 0 {
        lines.push(format!(
            "cell wall: p50 {} p90 {} max {} (pool wall {:.2}s)",
            fmt_us(agg.wall_us.quantile_floor(0.50)),
            fmt_us(agg.wall_us.quantile_floor(0.90)),
            fmt_us(agg.wall_us.max()),
            agg.pool_wall_secs,
        ));
    }
    lines
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

#[cfg(test)]
mod tests {
    use super::*;
    use exec::{PoolTelemetry, WorkerTelemetry};

    // The aggregator is process-global and sibling tests execute plans
    // concurrently, so this test feeds it synthetic telemetry and only
    // asserts on the footer's shape, not on exact counts.
    #[test]
    fn footer_reflects_recorded_telemetry() {
        let t = PoolTelemetry {
            wall_secs: 1.0,
            jobs_total: 4,
            jobs_failed: 1,
            workers: vec![WorkerTelemetry {
                jobs: 4,
                busy_secs: 0.8,
            }],
        };
        record_plan(&t, &[0.1, 0.2, 0.3, 0.4]);
        let footer = take_footer();
        assert_eq!(footer.len(), 2, "footer: {footer:?}");
        assert!(footer[0].starts_with("pool:"), "footer: {}", footer[0]);
        assert!(footer[0].contains("failed"), "footer: {}", footer[0]);
        assert!(
            footer[1].starts_with("cell wall: p50"),
            "footer: {}",
            footer[1]
        );
    }

    #[test]
    fn microsecond_formatting_scales_units() {
        assert_eq!(fmt_us(250), "250us");
        assert_eq!(fmt_us(4_200), "4.2ms");
        assert_eq!(fmt_us(3_500_000), "3.50s");
    }
}
