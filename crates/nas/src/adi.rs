//! The one ADI solver BT and SP are: the 5-component 3-D grid state, the
//! explicit right-hand-side evaluation, the final add-and-norm step, and the
//! driver around them ([`Adi`]: configuration, cold start, time step, the
//! `NasBenchmark` impl). A benchmark is the driver plus its [`LineSolve`] —
//! "the programs differ in the factorization method used in the solvers".
//!
//! Both codes integrate a damped diffusion system
//! `du/dt = kappa * lap(u) + forcing` with an approximately factored
//! implicit scheme: `compute_rhs` forms the explicit update
//! `rhs = r * lap(u) + dt * forcing` (periodic boundaries), the three
//! directional solves apply `(I - A_x)^-1`, `(I - A_y)^-1`, `(I - A_z)^-1`
//! to `rhs` in place, and `add` applies `u += rhs`. As the field approaches
//! the steady state `kappa * lap(u) = -forcing`, the update norm decays —
//! the property the benchmarks' self-verification checks.
//!
//! The arrays `u`, `rhs` and `forcing` are exactly the three hot arrays the
//! paper's compiler instrumentation registers for BT (its Figure 2).

use crate::common::{
    no_phase_hook, periodic, BenchName, Grid3, NasBenchmark, PhaseHook, PhasePoint, Scale,
    Verification,
};
use crate::model::{Describe, Exec, KernelModel, Mem};
use ccnuma::{ArrayLayout, SimArray};
use omp::{Runtime, Schedule};
use std::rc::Rc;

/// Axis of a directional ADI sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Line solves along x (parallel over z).
    X,
    /// Line solves along y (parallel over z).
    Y,
    /// Line solves along z (parallel over y — the slab-crossing phase).
    Z,
}

impl SweepAxis {
    /// Name of the sweep's phase and of its loop.
    pub fn name(self) -> &'static str {
        match self {
            SweepAxis::X => "x_solve",
            SweepAxis::Y => "y_solve",
            SweepAxis::Z => "z_solve",
        }
    }

    /// `(line length, parallel extent, inner extent)`: z_solve parallelizes
    /// over y (slab-crossing), the x and y solves over z.
    pub fn extents(self, g: Grid3) -> (usize, usize, usize) {
        match self {
            SweepAxis::X => (g.nx, g.nz, g.ny),
            SweepAxis::Y => (g.ny, g.nz, g.nx),
            SweepAxis::Z => (g.nz, g.ny, g.nx),
        }
    }

    /// Grid coordinates of point `k` on line `(outer, inner)`.
    #[inline(always)]
    pub fn coord(self, outer: usize, inner: usize, k: usize) -> (usize, usize, usize) {
        match self {
            SweepAxis::X => (k, inner, outer),
            SweepAxis::Y => (inner, k, outer),
            SweepAxis::Z => (inner, outer, k),
        }
    }
}

/// Grid state shared by BT and SP.
#[derive(Clone)]
pub struct AdiState {
    /// Grid geometry (5 components).
    pub grid: Grid3,
    /// The solution field.
    pub u: SimArray<f64>,
    /// The update / solver workspace.
    pub rhs: SimArray<f64>,
    /// The forcing term.
    pub forcing: SimArray<f64>,
}

impl AdiState {
    /// Allocate an `nx x ny x nz x 5` state with a smooth deterministic
    /// initial field and forcing.
    pub fn new(rt: &mut Runtime, prefix: &str, nx: usize, ny: usize, nz: usize) -> Self {
        let grid = Grid3 {
            nx,
            ny,
            nz,
            comps: 5,
        };
        let team = rt.threads();
        let m = rt.machine_mut();
        let len = grid.len();
        let wave = move |c: usize, x: usize, y: usize, z: usize| {
            let (fx, fy, fz) = (
                2.0 * std::f64::consts::PI * x as f64 / nx as f64,
                2.0 * std::f64::consts::PI * y as f64 / ny as f64,
                2.0 * std::f64::consts::PI * z as f64 / nz as f64,
            );
            0.4 * (fx + c as f64).sin() * (fy * (1.0 + c as f64 * 0.1)).cos()
                + 0.2 * (fz + 0.3 * c as f64).sin()
        };
        let de_idx = move |i: usize| {
            let c = i % 5;
            let x = (i / 5) % nx;
            let y = (i / (5 * nx)) % ny;
            let z = i / (5 * nx * ny);
            (c, x, y, z)
        };
        // The tuned NAS codes pad the grid arrays so that page boundaries
        // align with the worksharing decomposition. Align each page to one
        // (z-plane, y-slab) tile: x/y sweeps (parallel over z) keep whole
        // planes local, and the z sweep (parallel over y) sees pages owned
        // by exactly one thread — the alignment that makes both first-touch
        // and page-grain (re)distribution effective. Falls back to dense
        // layout when ny is not divisible by the team size.
        let chunks = if ny.is_multiple_of(team) {
            Some(nz * team)
        } else {
            None
        };
        let alloc = |m: &mut ccnuma::Machine, name: String| match chunks {
            Some(chunks) => SimArray::chunk_aligned(m, &name, len, chunks, 0.0),
            None => SimArray::new(m, &name, len, 0.0),
        };
        let u = alloc(m, format!("{prefix}.u"));
        let rhs = alloc(m, format!("{prefix}.rhs"));
        let forcing = alloc(m, format!("{prefix}.forcing"));
        for i in 0..len {
            let (c, x, y, z) = de_idx(i);
            u.poke(i, 1.0 + wave(c, x, y, z));
            forcing.poke(i, 0.05 * wave(c + 2, y, z, x));
        }
        Self {
            grid,
            u,
            rhs,
            forcing,
        }
    }

    /// The three hot arrays (the paper's BT instrumentation), in
    /// registration order.
    pub fn hot_arrays(&self) -> Vec<ArrayLayout> {
        vec![self.u.layout(), self.rhs.layout(), self.forcing.layout()]
    }

    /// Reset `u` to its deterministic initial field (host-only, used when
    /// discarding the cold-start iteration's numeric effects).
    pub fn reset(&self, initial_u: &[f64]) {
        for (i, &v) in initial_u.iter().enumerate() {
            self.u.poke(i, v);
        }
        self.rhs.fill(0.0);
    }

    /// `rhs = r * lap(u) + forcing_scale * forcing`, periodic boundaries,
    /// parallel over z-slabs. This is the `compute_rhs` phase of BT/SP.
    pub fn compute_rhs<E: Exec>(self: &Rc<Self>, ex: &mut E, r: f64, forcing_scale: f64) {
        let g = self.grid;
        let s = self.clone();
        ex.for_each("compute_rhs", g.nz, Schedule::Static, move |m, z| {
            let [zm, _, zp] = periodic(z, g.nz);
            for y in 0..g.ny {
                let [ym, _, yp] = periodic(y, g.ny);
                for x in 0..g.nx {
                    let [xm, _, xp] = periodic(x, g.nx);
                    for c in 0..5 {
                        let center = m.get(&s.u, g.idx(c, x, y, z));
                        let lap = m.get(&s.u, g.idx(c, xm, y, z))
                            + m.get(&s.u, g.idx(c, xp, y, z))
                            + m.get(&s.u, g.idx(c, x, ym, z))
                            + m.get(&s.u, g.idx(c, x, yp, z))
                            + m.get(&s.u, g.idx(c, x, y, zm))
                            + m.get(&s.u, g.idx(c, x, y, zp))
                            - 6.0 * center;
                        let f = m.get(&s.forcing, g.idx(c, x, y, z));
                        m.set(&s.rhs, g.idx(c, x, y, z), r * lap + forcing_scale * f);
                        m.flops(10);
                    }
                }
            }
        });
    }

    /// `u += rhs`, returning the L2 norm of the applied update (the `add`
    /// phase plus the NAS-style rhs-norm diagnostic).
    pub fn add_and_norm<E: Exec>(self: &Rc<Self>, ex: &mut E) -> f64 {
        let g = self.grid;
        let s = self.clone();
        let sum = ex.sum("add", g.nz, Schedule::Static, move |m, z| {
            let mut sq = 0.0;
            for y in 0..g.ny {
                for x in 0..g.nx {
                    for c in 0..5 {
                        let i = g.idx(c, x, y, z);
                        let d = m.get(&s.rhs, i);
                        m.update(&s.u, i, |v| v + d);
                        sq += d * d;
                    }
                }
            }
            m.flops(3 * (g.nx * g.ny * 5) as u64);
            sq
        });
        (sum / g.len() as f64).sqrt()
    }

    /// Read the 5 components of `u` at a grid point into an array.
    #[inline(always)]
    pub fn read_u5<M: Mem>(&self, m: &mut M, x: usize, y: usize, z: usize) -> [f64; 5] {
        let g = self.grid;
        std::array::from_fn(|c| m.get(&self.u, g.idx(c, x, y, z)))
    }
}

/// ADI problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdiConfig {
    /// Grid points along x.
    pub nx: usize,
    /// Grid points along y.
    pub ny: usize,
    /// Grid points along z.
    pub nz: usize,
    /// Timed iterations.
    pub niter: usize,
    /// Diffusion number (implicit coupling strength).
    pub r: f64,
    /// Strength of the u-dependent coupling.
    pub eps: f64,
    /// Repetitions of each phase function (1 = paper's normal runs, 4 =
    /// the synthetically scaled Figure 6 experiment).
    pub phase_scale: usize,
}

impl AdiConfig {
    /// Parameters for a scale class. Class A is 64x64x64; the scaled sizes
    /// keep the 64x64 plane geometry (which sets the page-to-y-slab ratio
    /// that the z-sweep and the record–replay mechanism see) and shrink the
    /// grid along z only.
    pub fn for_scale(scale: Scale) -> Self {
        let (nx, ny, nz, niter) = match scale {
            Scale::Tiny => (8, 8, 8, 3),
            Scale::Small => (64, 64, 16, 3),
            Scale::Medium => (64, 64, 16, 10),
        };
        Self {
            nx,
            ny,
            nz,
            niter,
            r: 0.2,
            eps: 0.02,
            phase_scale: 1,
        }
    }
}

/// The one thing BT and SP do differently: the factorization that solves
/// the lines of a directional sweep.
pub trait LineSolve: Clone + Default + 'static {
    /// Which benchmark the solver makes of the driver; its lower-case label
    /// prefixes the array names.
    const NAME: BenchName;

    /// Solve all lines along `axis` as one construct named
    /// [`SweepAxis::name`]: per line, assemble `(I - A_axis)` from `u` and
    /// solve it against the line's `rhs` in place.
    fn sweep<E: Exec>(&self, ex: &mut E, state: &Rc<AdiState>, cfg: &AdiConfig, axis: SweepAxis);
}

/// An ADI benchmark instance: the driver BT and SP share around the line
/// solve `S`.
pub struct Adi<S: LineSolve> {
    cfg: AdiConfig,
    state: Rc<AdiState>,
    /// Initial field, kept to reset after the cold-start iteration.
    initial_u: Vec<f64>,
    solver: S,
    /// Update norm after each timed iteration.
    norms: Vec<f64>,
}

impl<S: LineSolve> Adi<S> {
    /// Allocate and initialize on the runtime's machine.
    pub fn new(rt: &mut Runtime, scale: Scale) -> Self {
        Self::with_config(rt, AdiConfig::for_scale(scale))
    }

    /// Allocate with explicit parameters.
    pub fn with_config(rt: &mut Runtime, cfg: AdiConfig) -> Self {
        let prefix = S::NAME.label().to_ascii_lowercase();
        let state = Rc::new(AdiState::new(rt, &prefix, cfg.nx, cfg.ny, cfg.nz));
        let initial_u = state.u.to_vec();
        Self {
            cfg,
            state,
            initial_u,
            solver: S::default(),
            norms: Vec::new(),
        }
    }

    /// Problem parameters.
    pub fn config(&self) -> &AdiConfig {
        &self.cfg
    }

    /// The field state (for tests).
    pub fn state(&self) -> &AdiState {
        &self.state
    }

    /// Recorded per-iteration update norms.
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }

    fn sweep<E: Exec>(&self, ex: &mut E, axis: SweepAxis) {
        self.solver.sweep(ex, &self.state, &self.cfg, axis);
    }

    /// The cold start: one full time step, then the field reset.
    fn cold<E: Exec>(&self, ex: &mut E) {
        self.step(ex, &mut no_phase_hook());
        ex.host(|| self.state.reset(&self.initial_u));
    }

    /// One full time step (shared by cold start and timed iterations) —
    /// `compute_rhs`, the three sweeps (the z-sweep crossing slabs,
    /// bracketed by the phase points), `add` — with every phase's loop
    /// repeated `phase_scale` times as in the Figure 6 experiment. The step
    /// and each repeated loop are blocks, so a description holds five
    /// constructs at any phase scale. Returns the update norm.
    fn step<E: Exec>(&self, ex: &mut E, hook: &mut PhaseHook<'_>) -> f64 {
        let AdiConfig { r, phase_scale, .. } = self.cfg;
        ex.block("step", |ex| {
            ex.phase("compute_rhs");
            for _ in 0..phase_scale {
                ex.block("compute_rhs", |ex| self.state.compute_rhs(ex, r, 1.0));
            }
            let solve = |ex: &mut E, axis: SweepAxis| {
                ex.phase(axis.name());
                for _ in 0..phase_scale {
                    ex.block(axis.name(), |ex| self.sweep(ex, axis));
                }
            };
            solve(ex, SweepAxis::X);
            solve(ex, SweepAxis::Y);
            ex.point(hook, PhasePoint::Before(0));
            solve(ex, SweepAxis::Z);
            ex.point(hook, PhasePoint::After(0));
            ex.phase("add");
            self.state.add_and_norm(ex)
        })
    }
}

impl<S: LineSolve> NasBenchmark for Adi<S> {
    fn name(&self) -> BenchName {
        S::NAME
    }

    fn boxed_clone(&self) -> Box<dyn NasBenchmark> {
        Box::new(Adi {
            cfg: self.cfg,
            state: Rc::new((*self.state).clone()),
            initial_u: self.initial_u.clone(),
            solver: self.solver.clone(),
            norms: self.norms.clone(),
        })
    }

    fn problem(&self) -> String {
        format!("{:?}", self.cfg)
    }

    fn iterations(&self) -> usize {
        self.cfg.niter
    }

    fn cold_start(&mut self, rt: &mut Runtime) {
        self.cold(rt);
    }

    fn iterate(&mut self, rt: &mut Runtime, hook: &mut PhaseHook<'_>) {
        let norm = self.step(rt, hook);
        self.norms.push(norm);
    }

    fn hot_arrays(&self) -> Vec<ArrayLayout> {
        self.state.hot_arrays()
    }

    fn verify(&self) -> Verification {
        let (Some(&first), Some(&last)) = (self.norms.first(), self.norms.last()) else {
            return Verification::check(f64::NAN, 0.0, 0.0);
        };
        // The implicit scheme damps the update toward the steady state:
        // norms must stay finite and not grow. (With phase_scale > 1 the
        // repeated solves over-apply the smoother; boundedness is the
        // invariant, as in the paper's synthetic experiment.)
        let bounded = self.norms.iter().all(|n| n.is_finite());
        let damped = self.cfg.phase_scale > 1 || last <= first * 1.0001;
        Verification {
            passed: bounded && damped,
            value: last,
            reference: first,
            epsilon: 1.0,
        }
    }

    fn access_model(&self) -> Option<KernelModel> {
        Some(Describe::kernel(
            self,
            |d| self.cold(d),
            |d| self.step(d, &mut no_phase_hook()),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bt::BlockTri;
    use crate::sp::Penta;
    use ccnuma::{Machine, MachineConfig};

    fn rt() -> Runtime {
        Runtime::new(Machine::new(MachineConfig::origin2000_16p()))
    }

    #[test]
    fn constant_field_zero_forcing_gives_zero_rhs() {
        let mut rt = rt();
        let state = Rc::new(AdiState::new(&mut rt, "t", 6, 6, 6));
        state.u.fill(3.0);
        state.compute_rhs(&mut rt, 0.2, 0.0);
        for i in 0..state.grid.len() {
            assert!(state.rhs.peek(i).abs() < 1e-12, "lap(const) must vanish");
        }
    }

    #[test]
    fn add_applies_update_and_norms() {
        let mut rt = rt();
        let state = Rc::new(AdiState::new(&mut rt, "t", 4, 4, 4));
        state.u.fill(1.0);
        state.rhs.fill(0.5);
        let norm = state.add_and_norm(&mut rt);
        assert!((norm - 0.5).abs() < 1e-12);
        for i in 0..state.grid.len() {
            assert!((state.u.peek(i) - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn initial_field_is_deterministic_and_smooth() {
        let mut rt1 = rt();
        let a = AdiState::new(&mut rt1, "t", 8, 8, 8);
        let mut rt2 = rt();
        let b = AdiState::new(&mut rt2, "t", 8, 8, 8);
        assert_eq!(a.u.to_vec(), b.u.to_vec());
        // Bounded away from zero and from blowup.
        for v in a.u.to_vec() {
            assert!(v > 0.0 && v < 3.0);
        }
    }

    fn cube(n: usize, phase_scale: usize) -> AdiConfig {
        AdiConfig {
            nx: n,
            ny: n,
            nz: n,
            niter: 1,
            phase_scale,
            ..AdiConfig::for_scale(Scale::Tiny)
        }
    }

    fn constant_field_is_a_fixed_point_with_zero_forcing<S: LineSolve>() {
        let mut rt = rt();
        let mut adi = Adi::<S>::with_config(&mut rt, cube(6, 1));
        adi.state.u.fill(1.0);
        adi.state.forcing.fill(0.0);
        let before = adi.state.u.to_vec();
        adi.iterate(&mut rt, &mut no_phase_hook());
        for (b, a) in before.iter().zip(&adi.state.u.to_vec()) {
            assert!((b - a).abs() < 1e-12, "constant field must not move");
        }
        assert!(adi.norms[0].abs() < 1e-12);
    }

    fn update_norm_decays_toward_steady_state<S: LineSolve>() {
        let mut rt = rt();
        let mut adi = Adi::<S>::new(&mut rt, Scale::Tiny);
        adi.cold_start(&mut rt);
        for _ in 0..adi.iterations() {
            adi.iterate(&mut rt, &mut no_phase_hook());
        }
        assert!(adi.verify().passed, "norms {:?}", adi.norms);
        assert!(adi.norms.last().unwrap() < adi.norms.first().unwrap());
    }

    fn phase_hook_brackets_z_solve<S: LineSolve>() {
        let mut rt = rt();
        let mut adi = Adi::<S>::new(&mut rt, Scale::Tiny);
        adi.cold_start(&mut rt);
        let mut points = Vec::new();
        let mut hook = |_: &mut Runtime, pp: PhasePoint| points.push(pp);
        adi.iterate(&mut rt, &mut hook);
        assert_eq!(points, vec![PhasePoint::Before(0), PhasePoint::After(0)]);
    }

    /// Remote accesses of an isolated x-sweep vs z-sweep after first-touch
    /// distribution: the z-sweep must be far more remote.
    fn z_sweep_crosses_slabs_x_sweep_does_not<S: LineSolve>() {
        let mut rt = rt();
        let mut adi = Adi::<S>::new(&mut rt, Scale::Tiny);
        adi.cold_start(&mut rt);
        let mut remote_of = |axis| {
            let before = rt.machine().aggregate_cpu_stats().mem_remote;
            adi.sweep(&mut rt, axis);
            rt.machine().aggregate_cpu_stats().mem_remote - before
        };
        let (x_remote, z_remote) = (remote_of(SweepAxis::X), remote_of(SweepAxis::Z));
        assert!(
            z_remote > 3 * x_remote.max(1),
            "z-sweep remote {z_remote} vs x-sweep remote {x_remote}"
        );
    }

    fn phase_scale_quadruples_the_work<S: LineSolve>() {
        let run = |phase_scale: usize| {
            let mut rt = rt();
            let mut adi = Adi::<S>::with_config(&mut rt, cube(8, phase_scale));
            adi.cold_start(&mut rt);
            let t0 = rt.machine().clock().now_ns();
            adi.iterate(&mut rt, &mut no_phase_hook());
            rt.machine().clock().now_ns() - t0
        };
        let (t1, t4) = (run(1), run(4));
        assert!(t4 > 3.0 * t1 && t4 < 5.0 * t1, "t1 {t1} t4 {t4}");
    }

    /// Every driver property once per line solve.
    macro_rules! adi_properties {
        ($($module:ident: $solver:ty,)*) => {$(
            mod $module {
                use super::*;
                adi_properties!(@tests $solver:
                    constant_field_is_a_fixed_point_with_zero_forcing
                    update_norm_decays_toward_steady_state
                    phase_hook_brackets_z_solve
                    z_sweep_crosses_slabs_x_sweep_does_not
                    phase_scale_quadruples_the_work);
            }
        )*};
        (@tests $solver:ty: $($property:ident)*) => {$(
            #[test]
            fn $property() {
                super::$property::<$solver>();
            }
        )*};
    }
    adi_properties! {
        bt: BlockTri,
        sp: Penta,
    }
}
