//! The live progress line for multi-cell sweeps — the one renderer.
//!
//! While a [`crate::session::Session`]'s pool works, a background thread
//! polls its [`exec::PoolMonitor`] and paints one status line on stderr:
//! cells done/running/failed, a per-worker utilization bar, simulated
//! throughput (sim-secs per host second) and a naive ETA over the cells
//! submitted so far. Throughput reads one process-wide counter of finished
//! simulated microseconds, which every finished run adds to
//! ([`add_sim_done`]); an integer sum has no order, so nothing defers it,
//! and each line subtracts the value it started from. The line is redrawn
//! in place with `\r` on a TTY; on a plain pipe (CI logs) it degrades to a
//! full log line every couple of seconds, and short runs print nothing at
//! all.
//!
//! Everything goes to **stderr** and never into a saved report, so the
//! `--jobs 1` vs `--jobs 4` result trees stay byte-identical. Set
//! `XP_DASH=0` to silence it entirely, `XP_DASH=tty` to force the TTY
//! renderer (useful for eyeballing the escape codes through a pipe).

use exec::{PoolMonitor, ResidentStatus};
use std::io::{IsTerminal, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Utilization glyphs, roughly 0%..100% busy.
const BARS: &[u8] = b" .:-=+*#%@";

/// How often the TTY renderer repaints.
const TTY_PERIOD: Duration = Duration::from_millis(100);

/// How often the plain-log fallback emits a line (and the minimum run
/// length before it says anything).
const PLAIN_PERIOD: Duration = Duration::from_secs(2);

/// Simulated microseconds finished by every run in the process (display
/// only).
static SIM_DONE_US: AtomicU64 = AtomicU64::new(0);

/// Count `secs` of finished simulated time toward the live line.
pub(crate) fn add_sim_done(secs: f64) {
    SIM_DONE_US.fetch_add((secs * 1e6) as u64, Ordering::Relaxed);
}

/// A running progress thread. Dropping it stops polling, joins the thread
/// and (on a TTY) clears the status line so subsequent report output
/// starts on a clean row.
pub(crate) struct Dash {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Dash {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Spawn the progress line for the pool `monitor` watches, or `None` under
/// `XP_DASH=0`.
pub(crate) fn spawn(monitor: PoolMonitor) -> Option<Dash> {
    let mode = std::env::var("XP_DASH").unwrap_or_default();
    if mode == "0" {
        return None;
    }
    let tty = mode == "tty" || std::io::stderr().is_terminal();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("xp-dash".into())
        .spawn(move || run(monitor, stop_flag, tty))
        .ok()?;
    Some(Dash {
        stop,
        handle: Some(handle),
    })
}

fn run(monitor: PoolMonitor, stop: Arc<AtomicBool>, tty: bool) {
    let period = if tty { TTY_PERIOD } else { PLAIN_PERIOD };
    let start_us = SIM_DONE_US.load(Ordering::Relaxed);
    let mut next = Instant::now() + period;
    let mut painted = false;
    while !stop.load(Ordering::Relaxed) {
        if Instant::now() >= next {
            next += period;
            let sim_done_secs = (SIM_DONE_US.load(Ordering::Relaxed) - start_us) as f64 / 1e6;
            if let Some(line) = monitor.status().and_then(|s| render(&s, sim_done_secs)) {
                if tty {
                    eprint!("\r\x1b[2K{line}");
                    let _ = std::io::stderr().flush();
                    painted = true;
                } else {
                    eprintln!("{line}");
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if tty && painted {
        eprint!("\r\x1b[2K");
        let _ = std::io::stderr().flush();
    }
}

/// One status line, or `None` while the pool has nothing to show (idle
/// between plans, or a lone cell).
fn render(status: &ResidentStatus, sim_done_secs: f64) -> Option<String> {
    let running = status.busy_workers();
    let done = status.jobs_done as usize;
    let total = done + running + status.queue_len;
    if total < 2 || done == total {
        return None;
    }
    let bars: String = status
        .workers
        .iter()
        .map(|w| {
            let i = (w.busy_fraction * (BARS.len() - 1) as f64).round() as usize;
            BARS[i.min(BARS.len() - 1)] as char
        })
        .collect();
    let busy = status.workers.iter().map(|w| w.busy_fraction).sum::<f64>()
        / status.workers.len().max(1) as f64;
    let elapsed = status.uptime_secs;
    let rate = if elapsed > 0.0 {
        sim_done_secs / elapsed
    } else {
        0.0
    };
    let eta = if done > 0 {
        fmt_secs(elapsed / done as f64 * (total - done) as f64)
    } else {
        "--".to_string()
    };
    let mut line = format!(
        "[xp] {done}/{total} jobs ({running} running, {failed} failed) | workers [{bars}] {busy:3.0}% | {rate:.2} sim-s/s | ETA {eta}",
        failed = status.jobs_failed,
        busy = busy * 100.0,
    );
    line.truncate(120);
    Some(line)
}

fn fmt_secs(s: f64) -> String {
    if s >= 90.0 {
        format!("{:.0}m{:02.0}s", (s / 60.0).floor(), s % 60.0)
    } else {
        format!("{s:.0}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec::ResidentWorkerStatus;

    fn status(done: u64, busy: usize, queued: usize) -> ResidentStatus {
        ResidentStatus {
            uptime_secs: 10.0,
            queue_len: queued,
            jobs_done: done,
            jobs_failed: 1,
            batches: 1,
            workers: (0..2)
                .map(|w| ResidentWorkerStatus {
                    busy: w < busy,
                    busy_secs: 5.0,
                    busy_fraction: 0.5,
                    jobs: done / 2,
                })
                .collect(),
        }
    }

    #[test]
    fn an_idle_pool_or_a_lone_cell_paints_nothing() {
        assert!(render(&status(0, 0, 0), 0.0).is_none());
        assert!(render(&status(0, 1, 0), 0.0).is_none());
        assert!(render(&status(8, 0, 0), 0.0).is_none(), "between plans");
    }

    #[test]
    fn the_line_counts_jobs_from_the_one_live_view() {
        let line = render(&status(4, 2, 2), 20.0).expect("a sweep in flight");
        assert!(
            line.starts_with("[xp] 4/8 jobs (2 running, 1 failed)"),
            "{line}"
        );
        assert!(line.contains("2.00 sim-s/s"), "{line}");
        assert!(line.ends_with("ETA 10s"), "{line}");
    }

    #[test]
    fn eta_formatting_covers_both_branches() {
        assert_eq!(fmt_secs(42.0), "42s");
        assert_eq!(fmt_secs(150.0), "2m30s");
    }
}
