//! Run one named benchmark at one scale under one configuration — the
//! entry points tests, benches and the perf ledger call. Each is a
//! [`Cell`] built and run on the spot, and like every run it only
//! computes: crediting simulated seconds and writing a `--trace DIR` dump
//! are a planned cell's merge step (see [`crate::cells`]).

use crate::grid::Cell;
use nas::{BenchName, RunConfig, RunResult, Scale};
use upmlib::UpmOptions;
use vmm::KernelMigrationConfig;

/// Run `bench` at `scale` under `cfg`.
pub fn run_one(bench: BenchName, scale: Scale, cfg: &RunConfig) -> RunResult {
    Cell::at_scale(bench, scale, cfg.clone()).run()
}

/// [`run_one`] with the phase fast path forced on or off (the default is
/// on) — used by the differential equivalence suite and the speedup
/// measurement.
pub fn run_one_fastpath(
    bench: BenchName,
    scale: Scale,
    cfg: &RunConfig,
    fastpath: bool,
) -> RunResult {
    Cell::at_scale(bench, scale, cfg.clone()).run_with(Some(fastpath))
}

/// The default engine tunables used across experiments (one place, so every
/// figure runs the same kernel-engine and UPMlib settings).
pub fn default_engine_configs() -> (KernelMigrationConfig, UpmOptions) {
    (KernelMigrationConfig::default(), UpmOptions::default())
}
