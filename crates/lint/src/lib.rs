//! Static NUMA/race analyzer for the benchmark kernels.
//!
//! The paper's whole argument rests on how the NAS kernels' parallel loops
//! touch memory: first-touch placement, remote-dominated pages, the
//! competitive migration criterion, the ping-pong freezer. All of that is a
//! function of the *static* parallel structure — schedules, chunk ownership
//! maps, per-iteration access patterns — which the kernels now expose as
//! [`nas::KernelModel`] descriptors. This crate analyzes those descriptors
//! without running the machine simulation and reports typed findings:
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `L001` | error | write-write element overlap between threads in one region |
//! | `L002` | error | read-write element overlap between threads in one region |
//! | `L003` | warning | distinct-thread writes in one cache line (false sharing) |
//! | `L004` | warning | page the UPMlib ping-pong freezer is predicted to freeze |
//! | `L005` | warning | page first-touched on a non-dominant node |
//! | `L006` | info | static upper bound on per-phase migration benefit |
//! | `L007` | info | dominant node flips between consecutive phases |
//! | `L008` | warning | reduction result depends on team size |
//! | `L009` | warning | static placement prescription is low-confidence (flip pages) |
//!
//! The predictions are *cross-checked against the dynamic simulator* by the
//! differential suite in `tests/`: every statically flagged ping-pong page
//! must be frozen by a real UPMlib run (and no frozen page may go
//! unflagged), predicted first-touch placement must match the machine's
//! page table after a real cold start, and the `L008` predicate must agree
//! with bit-level reproducibility of real runs across team sizes.
//!
//! Entry point: [`analyze`] with a [`LintConfig`]; `xp lint` drives it for
//! all five benchmarks and gates CI with `--deny races,false-sharing`
//! against the checked-in `lint.allow` allowlist.
//!
//! Beyond diagnostics, [`synth::synthesize`] turns the same access models
//! into *prescriptions*: a deterministic [`synth::PlacementMap`] (vpage →
//! node) installable as `vmm::PlacementScheme::Static`, cross-checked
//! page-for-page against the dynamic engine's converged placement.

#![deny(missing_docs)]

pub mod analyze;
pub mod finding;
pub mod footprint;
pub mod replay;
pub mod synth;

pub use analyze::{analyze, analyze_footprint, Analysis, LintConfig};
pub use finding::{parse_deny, Allowlist, Code, Finding, Severity};
pub use footprint::Footprint;
pub use replay::{CountTable, UpmReplay};
pub use synth::{synthesize, synthesize_footprint, Confidence, PlacementMap};
