//! Shared machinery of the two ADI solvers (BT and SP): the 5-component 3-D
//! grid state, the explicit right-hand-side evaluation, and the final
//! add-and-norm step.
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

use crate::common::{Grid3, PhaseHook, PhasePoint};
use crate::model::{Exec, Mem};
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
            let zm = (z + g.nz - 1) % g.nz;
            let zp = (z + 1) % g.nz;
            for y in 0..g.ny {
                let ym = (y + g.ny - 1) % g.ny;
                let yp = (y + 1) % g.ny;
                for x in 0..g.nx {
                    let xm = (x + g.nx - 1) % g.nx;
                    let xp = (x + 1) % g.nx;
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

    /// One BT/SP time step — `compute_rhs`, the three sweeps (the z-sweep
    /// crossing slabs, bracketed by the phase points), `add` — with every
    /// phase's loop repeated `phase_scale` times as in the Figure 6
    /// experiment. `sweep` states one directional solve as one construct
    /// named [`SweepAxis::name`]. Returns the update norm.
    pub fn step<E: Exec>(
        self: &Rc<Self>,
        ex: &mut E,
        hook: &mut PhaseHook<'_>,
        r: f64,
        phase_scale: usize,
        sweep: impl Fn(&mut E, SweepAxis),
    ) -> f64 {
        ex.phase("compute_rhs");
        for _ in 0..phase_scale {
            self.compute_rhs(ex, r, 1.0);
        }
        let solve = |ex: &mut E, axis: SweepAxis| {
            ex.phase(axis.name());
            for _ in 0..phase_scale {
                sweep(ex, axis);
            }
        };
        solve(ex, SweepAxis::X);
        solve(ex, SweepAxis::Y);
        ex.point(hook, PhasePoint::Before(0));
        solve(ex, SweepAxis::Z);
        ex.point(hook, PhasePoint::After(0));
        ex.phase("add");
        self.add_and_norm(ex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
