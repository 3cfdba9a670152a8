//! NAS-like OpenMP benchmark kernels over the simulated ccNUMA machine.
//!
//! The paper's experiments run the OpenMP implementations of five NAS
//! Parallel Benchmarks — BT, SP, CG, MG and FT — on a 16-processor SGI
//! Origin2000 (§2.1). This crate reimplements the five codes with:
//!
//! * **real numerics** — BT solves 5x5 block-tridiagonal ADI systems, SP
//!   scalar pentadiagonal systems, CG runs conjugate-gradient eigenvalue
//!   estimation on a sparse SPD matrix, MG a 27-point V-cycle multigrid,
//!   FT a 3-D complex FFT with spectral evolution — so every kernel's
//!   output can be verified;
//! * **faithful parallel structure** — the same worksharing pattern as the
//!   NAS OpenMP codes (z-slab partitioning for BT/SP/MG, row partitioning
//!   for CG, pencil partitioning for FT), which is what determines the
//!   page-access pattern the paper studies; BT and SP keep the z-sweep
//!   phase change the record–replay mechanism targets;
//! * **the cold-start protocol** — a discarded first iteration executed
//!   before timing begins, which the NAS codes use to let first-touch
//!   placement distribute pages (§2.1);
//! * **phase hooks** — callback points at the z-sweep boundaries where the
//!   paper's Figure 3 instrumentation calls `upmlib_record`/`upmlib_replay`.
//!
//! Problem sizes are scaled down from Class A (simulating the full Class A
//! working set is compute-prohibitive on the host; the placement phenomena
//! depend on pages-per-thread, which the scaled sizes preserve — see
//! DESIGN.md).

// Gather/scatter loops over grid coordinates read better indexed than as
// iterator chains in the solver kernels.
#![allow(clippy::needless_range_loop)]

pub mod adi;
pub mod bt;
pub mod cg;
pub mod codec;
pub mod common;
pub mod facts;
pub mod ft;
pub mod harness;
pub mod la;
pub mod mg;
pub mod model;
pub mod proof;
pub mod sp;

pub use common::{BenchName, NasBenchmark, PhasePoint, Scale, Verification};
pub use harness::{instantiate, run_benchmark, BenchRun, EngineMode, RunConfig, RunResult};
pub use model::{KernelModel, LoopKind, LoopModel, PageSlots, PhaseModel};
pub use proof::{derive_loop_proof, derive_proofs};
