//! The `xp` side of the result service's contract: the code generation
//! every spec carries, the run-configuration fingerprint, and the
//! server-side compute binding.
//!
//! What a spec *says* — and how one is turned back into a run — is
//! [`crate::grid::Cell`]'s business: [`Cell::spec`] builds it,
//! [`Cell::from_spec`] rebuilds the cell on a server and refuses anything
//! it cannot reproduce exactly, so a spec this binary would not have built
//! itself can never be served a wrong result (DESIGN.md §15).
//!
//! [`CODE_VERSION`] folds the simulator's code generation into every
//! spec. Bump it whenever a change alters any simulated number (machine
//! model, engine behaviour, benchmark kernels, iteration counts) — see
//! DESIGN.md §15 for the policy. Stale cache entries then miss by key and
//! age out via `xp cache gc`; stale servers are refused at the handshake.

use crate::grid::Cell;
use nas::{BenchName, RunConfig, Scale};
use svc::CellSpec;

/// The simulator code generation baked into every spec this binary
/// builds. Bump on any change that alters simulated results.
pub const CODE_VERSION: &str = "ddnomp-2026.08-1";

/// 64-bit hex fingerprint of a full run configuration plus any extra
/// configuration facts (problem configs that live outside [`RunConfig`]).
/// The `Debug` representation covers every field of the config — machine
/// geometry, latency model, engine tunables — so any deviation from the
/// paper default changes the fingerprint.
pub fn config_fp(cfg: &RunConfig, extras: &[String]) -> String {
    let mut text = format!("{cfg:?}");
    for extra in extras {
        text.push(';');
        text.push_str(extra);
    }
    svc::hash::digest64(text.as_bytes())
}

/// Spec for a paper-default grid cell: `bench` at `scale` under `cfg`,
/// where `cfg` deviates from [`RunConfig::paper_default`] only in
/// placement and engine.
pub fn plain(bench: BenchName, scale: Scale, cfg: &RunConfig) -> CellSpec {
    Cell::at_scale(bench, scale, cfg.clone()).spec()
}

/// The server-side compute binding: rebuild and verify the cell, run it,
/// encode the result.
pub fn compute() -> svc::Compute {
    std::sync::Arc::new(|spec: &CellSpec| match Cell::from_spec(spec) {
        Ok(cell) => Ok(cell.run().to_cache_json()),
        Err(refusal) => Err(refusal.to_string()),
    })
}
