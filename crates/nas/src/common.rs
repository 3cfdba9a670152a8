//! Shared benchmark infrastructure: the benchmark trait, problem scales,
//! verification results, and 3-D grid index helpers.

use crate::model::KernelModel;
use ccnuma::ArrayLayout;
use omp::Runtime;
use upmlib::UpmEngine;

/// Benchmark identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchName {
    /// Block-tridiagonal CFD solver.
    Bt,
    /// Scalar-pentadiagonal CFD solver.
    Sp,
    /// Conjugate-gradient eigenvalue kernel.
    Cg,
    /// Multigrid Poisson kernel.
    Mg,
    /// 3-D FFT spectral kernel.
    Ft,
}

impl BenchName {
    /// Upper-case label as used in the paper's charts.
    pub fn label(&self) -> &'static str {
        match self {
            BenchName::Bt => "BT",
            BenchName::Sp => "SP",
            BenchName::Cg => "CG",
            BenchName::Mg => "MG",
            BenchName::Ft => "FT",
        }
    }

    /// Parse a benchmark label, case-insensitively (`bt`/`BT` → `Bt`).
    /// The experiment service reconstructs benchmarks from lower-case
    /// cell-spec fields, chart code from upper-case chart labels.
    pub fn parse(label: &str) -> Option<BenchName> {
        BenchName::all()
            .into_iter()
            .find(|b| b.label().eq_ignore_ascii_case(label))
    }

    /// All five benchmarks in the paper's order.
    pub fn all() -> [BenchName; 5] {
        [
            BenchName::Bt,
            BenchName::Sp,
            BenchName::Cg,
            BenchName::Mg,
            BenchName::Ft,
        ]
    }
}

/// Problem-size class. `Tiny` is for unit/integration tests, `Small` for
/// the perf ledger's sweep workloads and the slower differentials, `Medium`
/// for the experiment harness (the analogue of the paper's Class A, scaled
/// to the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Smallest correct instance; seconds matter (tests).
    Tiny,
    /// Small instance (ledger sweeps, release-mode differentials).
    Small,
    /// The experiment harness size.
    Medium,
}

impl Scale {
    /// Lower-case label as used in report ids and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
        }
    }

    /// Parse a scale label (`tiny`/`small`/`medium`).
    pub fn parse(label: &str) -> Option<Scale> {
        [Scale::Tiny, Scale::Small, Scale::Medium]
            .into_iter()
            .find(|s| s.label() == label)
    }
}

/// Outcome of a benchmark's self-verification.
#[derive(Debug, Clone, PartialEq)]
pub struct Verification {
    /// Whether the computed value matched the reference.
    pub passed: bool,
    /// The computed verification value.
    pub value: f64,
    /// The reference value it was compared against.
    pub reference: f64,
    /// Relative tolerance used.
    pub epsilon: f64,
}

impl Verification {
    /// What a timing-only run reports ([`crate::BenchRun::set_timing_only`]):
    /// it computed no value to verify. Not a pass, and NaN, so a borrowed
    /// result that never takes its owner's verification fails as a row.
    pub fn borrowed() -> Self {
        Self {
            passed: false,
            value: f64::NAN,
            reference: f64::NAN,
            epsilon: 0.0,
        }
    }

    /// Compare `value` against `reference` at relative tolerance `epsilon`.
    pub fn check(value: f64, reference: f64, epsilon: f64) -> Self {
        let denom = reference.abs().max(1e-300);
        let passed = ((value - reference).abs() / denom) <= epsilon;
        Self {
            passed,
            value,
            reference,
            epsilon,
        }
    }
}

/// A phase-transition point inside one iteration — where the paper's
/// Figure 3 instrumentation sits. `Before(p)`/`After(p)` bracket phase `p`
/// (for BT/SP, phase 0 is the z-sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhasePoint {
    /// Immediately before phase `p` starts.
    Before(usize),
    /// Immediately after phase `p` completes.
    After(usize),
}

/// Callback invoked by a benchmark at its phase-transition points.
pub type PhaseHook<'h> = dyn FnMut(&mut Runtime, PhasePoint) + 'h;

/// A no-op phase hook for callers that don't use record–replay.
pub fn no_phase_hook() -> impl FnMut(&mut Runtime, PhasePoint) {
    |_rt: &mut Runtime, _pp: PhasePoint| {}
}

/// One NAS-like benchmark instance: allocated arrays plus its iteration
/// body.
pub trait NasBenchmark {
    /// Which benchmark this is.
    fn name(&self) -> BenchName;

    /// The problem this instance solves, as a key: what its text depends
    /// on besides the team and where its arrays lie (its configuration).
    /// Instances of one name and problem run one text, so a process
    /// derives their fast-path proofs once (`facts::proof_set`).
    fn problem(&self) -> String;

    /// Number of timed iterations this instance runs (the paper: BT 200,
    /// SP 400 [sic: 15 in the NAS A config used for upmlib runs], CG 15,
    /// FT 6, MG 4; scaled here).
    fn iterations(&self) -> usize;

    /// The discarded cold-start iteration: runs the full parallel
    /// computation so first-touch can distribute pages, then resets state
    /// so the timed run starts clean.
    fn cold_start(&mut self, rt: &mut Runtime);

    /// One timed iteration. `hook` is called at phase-transition points.
    fn iterate(&mut self, rt: &mut Runtime, hook: &mut PhaseHook<'_>);

    /// The benchmark's compiler-identified hot arrays (the paper's "hot
    /// memory areas"), in registration order: what [`register_hot`]
    /// registers and what the access model attributes findings to.
    ///
    /// [`register_hot`]: NasBenchmark::register_hot
    fn hot_arrays(&self) -> Vec<ArrayLayout>;

    /// Register the hot arrays with a UPMlib engine (`upmlib_memrefcnt`
    /// calls).
    fn register_hot(&self, upm: &mut UpmEngine) {
        for array in self.hot_arrays() {
            let (base, len) = array.vrange();
            upm.memrefcnt_range(base, len);
        }
    }

    /// Host-side self-verification after all iterations.
    fn verify(&self) -> Verification;

    /// The benchmark's static access model (see [`crate::model`]): the
    /// exact per-iteration element accesses of the cold-start and timed
    /// iterations, described from the same text `cold_start` and `iterate`
    /// run and consumed by the `lint` static analyzer.
    fn access_model(&self) -> KernelModel;

    /// A copy in this instance's current state that owns copies of its
    /// arrays: the benchmark a forked run ([`crate::BenchRun::fork`])
    /// steps on, while this one steps on.
    fn boxed_clone(&self) -> Box<dyn NasBenchmark>;
}

/// A benchmark chosen by name ([`crate::instantiate`]) clones as the
/// kernel it boxes, so a forked run ([`crate::BenchRun::fork`]) is a clone.
impl Clone for Box<dyn NasBenchmark> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Index helpers for a 3-D grid of `comps` components stored
/// component-fastest (the Fortran `u(5, nx, ny, nz)` layout of the NAS
/// codes, linearized with x fastest after components).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid3 {
    /// Points along x.
    pub nx: usize,
    /// Points along y.
    pub ny: usize,
    /// Points along z.
    pub nz: usize,
    /// Components per point.
    pub comps: usize,
}

impl Grid3 {
    /// A cubic grid.
    pub fn cube(n: usize, comps: usize) -> Self {
        Self {
            nx: n,
            ny: n,
            nz: n,
            comps,
        }
    }

    /// Total scalar elements.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz * self.comps
    }

    /// Whether the grid is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of component `c` at `(x, y, z)`.
    #[inline(always)]
    pub fn idx(&self, c: usize, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(c < self.comps && x < self.nx && y < self.ny && z < self.nz);
        ((z * self.ny + y) * self.nx + x) * self.comps + c
    }

    /// Number of interior points along each axis (excluding one boundary
    /// layer on each side).
    pub fn interior(&self) -> (usize, usize, usize) {
        (
            self.nx.saturating_sub(2),
            self.ny.saturating_sub(2),
            self.nz.saturating_sub(2),
        )
    }
}

/// The periodic neighbours of `i` on an edge of `n` points: `[i - 1, i,
/// i + 1]`, each wrapped into `0..n` by compare rather than division, the
/// one idiom of every periodic stencil.
#[inline(always)]
pub fn periodic(i: usize, n: usize) -> [usize; 3] {
    debug_assert!(i < n);
    let below = if i == 0 { n - 1 } else { i - 1 };
    let above = if i + 1 == n { 0 } else { i + 1 };
    [below, i, above]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_names_parse_case_insensitively() {
        assert_eq!(BenchName::parse("cg"), Some(BenchName::Cg));
        assert_eq!(BenchName::parse("BT"), Some(BenchName::Bt));
        assert_eq!(BenchName::parse("nope"), None);
    }

    #[test]
    fn grid_indexing_is_component_fastest() {
        let g = Grid3::cube(4, 5);
        assert_eq!(g.idx(0, 0, 0, 0), 0);
        assert_eq!(g.idx(1, 0, 0, 0), 1);
        assert_eq!(g.idx(0, 1, 0, 0), 5);
        assert_eq!(g.idx(0, 0, 1, 0), 20);
        assert_eq!(g.idx(0, 0, 0, 1), 80);
        assert_eq!(g.len(), 320);
    }

    #[test]
    fn grid_indices_are_unique_and_dense() {
        let g = Grid3 {
            nx: 3,
            ny: 2,
            nz: 2,
            comps: 2,
        };
        let mut seen = vec![false; g.len()];
        for z in 0..g.nz {
            for y in 0..g.ny {
                for x in 0..g.nx {
                    for c in 0..g.comps {
                        let i = g.idx(c, x, y, z);
                        assert!(!seen[i]);
                        seen[i] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn periodic_neighbours_are_the_euclidean_remainders() {
        for n in 1..=64usize {
            for i in 0..n {
                let wrap = |d: isize| (i as isize + d).rem_euclid(n as isize) as usize;
                assert_eq!(periodic(i, n), [wrap(-1), wrap(0), wrap(1)], "{i} on {n}");
            }
        }
    }

    #[test]
    fn verification_tolerance() {
        assert!(Verification::check(1.0000001, 1.0, 1e-6).passed);
        assert!(!Verification::check(1.01, 1.0, 1e-6).passed);
        assert!(Verification::check(0.0, 0.0, 1e-6).passed);
    }

    #[test]
    fn labels() {
        assert_eq!(BenchName::Bt.label(), "BT");
        assert_eq!(BenchName::all().len(), 5);
    }
}
