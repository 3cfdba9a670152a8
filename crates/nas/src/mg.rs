//! NAS MG: V-cycle multigrid solution of a 3-D Poisson equation with
//! periodic boundaries.
//!
//! Structure follows the NAS benchmark: the right-hand side `v` is a sparse
//! field of +1/-1 charges; each timed iteration performs one V-cycle
//! (`mg3P`: restrict residuals to the coarsest grid with `rprj3`, smooth,
//! then prolongate with `interp`, re-evaluate residuals with `resid` and
//! smooth with `psinv` on the way up) and re-evaluates the fine-grid
//! residual norm. The 27-point operators use NAS's coefficient classes
//! (center / face / edge / corner weights).
//!
//! Parallel structure: every grid operator is a `PARALLEL DO` over the
//! z-planes of its level, so threads own z-slabs — the layout the paper's
//! first-touch tuning assumes.

use crate::common::{periodic, BenchName, NasBenchmark, PhaseHook, Scale, Verification};
use crate::model::{Arr, Describe, Exec, KernelModel, Mem};
use ccnuma::{ArrayLayout, SimArray};
use omp::{Runtime, Schedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// 27-point stencil weights by neighbour class: `[center, face, edge,
/// corner]`.
pub type StencilWeights = [f64; 4];

/// The NAS `A` operator (discrete negative Laplacian flavour). Its weights
/// sum to zero, so constant fields are in its null space.
pub const A_WEIGHTS: StencilWeights = [-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0];

/// The NAS Class-A smoother `S` (approximate inverse).
pub const S_WEIGHTS: StencilWeights = [-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0];

/// MG problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct MgConfig {
    /// Finest grid edge (power of two).
    pub n: usize,
    /// Grid levels (level `lt-1` is the finest; each level halves the edge).
    pub lt: usize,
    /// Timed iterations (NAS Class A uses 4).
    pub niter: usize,
    /// Number of +1 and of -1 charges in the right-hand side.
    pub charges: usize,
    /// RNG seed for charge locations.
    pub seed: u64,
}

impl MgConfig {
    /// Parameters for a scale class.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => Self {
                n: 8,
                lt: 2,
                niter: 3,
                charges: 4,
                seed: 1618,
            },
            Scale::Small => Self {
                n: 32,
                lt: 3,
                niter: 3,
                charges: 8,
                seed: 1618,
            },
            Scale::Medium => Self {
                n: 32,
                lt: 4,
                niter: 4,
                charges: 10,
                seed: 1618,
            },
        }
    }

    /// Edge length of level `k` (finest is `lt - 1`).
    pub fn edge(&self, k: usize) -> usize {
        self.n >> (self.lt - 1 - k)
    }
}

/// The MG benchmark instance.
pub struct Mg {
    cfg: MgConfig,
    /// Solution grids, one per level (coarsest first).
    u: Vec<Arr>,
    /// Residual grids, one per level.
    r: Vec<Arr>,
    /// Right-hand side (finest level only).
    v: Arr,
    /// Fine-grid residual norm after each timed iteration.
    rnm2: Vec<f64>,
    /// Residual norm of the initial state (u = 0), for verification.
    initial_rnm2: f64,
}

#[inline(always)]
fn gidx(n: usize, x: usize, y: usize, z: usize) -> usize {
    (z * n + y) * n + x
}

/// The bases of the nine rows around row `(y, z)` of an edge-`n` grid with
/// periodic wrap, indexed `[dz + 1][dy + 1]`: a neighbour's index is its
/// row's base plus its wrapped `x`.
#[inline(always)]
fn neighbour_rows(n: usize, y: usize, z: usize) -> [[usize; 3]; 3] {
    let ys = periodic(y, n);
    periodic(z, n).map(|z| ys.map(|y| gidx(n, 0, y, z)))
}

/// The 27-point stencil `w` of `src` at the point with neighbour rows
/// `rows` and wrapped `x` neighbours `xs`, reading through the memory
/// system in dz, dy, dx order and skipping zero-weight classes.
#[inline(always)]
fn stencil<M: Mem>(
    m: &mut M,
    src: &SimArray<f64>,
    rows: &[[usize; 3]; 3],
    xs: [usize; 3],
    w: &StencilWeights,
) -> f64 {
    let mut sum = 0.0;
    for (dz, row) in rows.iter().enumerate() {
        for (dy, &base) in row.iter().enumerate() {
            for (dx, &x) in xs.iter().enumerate() {
                let class = (dx != 1) as usize + (dy != 1) as usize + (dz != 1) as usize;
                let weight = w[class];
                if weight == 0.0 {
                    continue;
                }
                sum += weight * m.get(src, base + x);
            }
        }
    }
    sum
}

impl Mg {
    /// Allocate and initialize on the runtime's machine.
    pub fn new(rt: &mut Runtime, scale: Scale) -> Self {
        Self::with_config(rt, MgConfig::for_scale(scale))
    }

    /// Allocate with explicit parameters.
    pub fn with_config(rt: &mut Runtime, cfg: MgConfig) -> Self {
        assert!(cfg.n.is_power_of_two() && cfg.lt >= 1);
        assert!(cfg.n >> (cfg.lt - 1) >= 2, "too many levels for the grid");
        let m = rt.machine_mut();
        let mut u = Vec::new();
        let mut r = Vec::new();
        for k in 0..cfg.lt {
            let e = cfg.edge(k);
            u.push(Rc::new(SimArray::new(
                m,
                &format!("mg.u{k}"),
                e * e * e,
                0.0,
            )));
            r.push(Rc::new(SimArray::new(
                m,
                &format!("mg.r{k}"),
                e * e * e,
                0.0,
            )));
        }
        let v = Rc::new(SimArray::new(m, "mg.v", cfg.n * cfg.n * cfg.n, 0.0));
        // Charges at seeded random sites (NAS zran3 places +1s and -1s at
        // the extrema of a random field).
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        for sign in [1.0, -1.0] {
            for _ in 0..cfg.charges {
                let (x, y, z) = (
                    rng.gen_range(0..cfg.n),
                    rng.gen_range(0..cfg.n),
                    rng.gen_range(0..cfg.n),
                );
                v.poke(gidx(cfg.n, x, y, z), sign);
            }
        }
        let initial_rnm2 = {
            // ||v - A*0|| = ||v||, on the host (pre-run diagnostic).
            let s: f64 = v.to_vec().iter().map(|&x| x * x).sum();
            (s / (cfg.n * cfg.n * cfg.n) as f64).sqrt()
        };
        Self {
            cfg,
            u,
            r,
            v,
            rnm2: Vec::new(),
            initial_rnm2,
        }
    }

    /// Problem parameters.
    pub fn config(&self) -> &MgConfig {
        &self.cfg
    }

    /// `r = src - A u` over one level; one phase of one loop, both `name`.
    fn resid<E: Exec>(ex: &mut E, name: &str, u: &Arr, src: &Arr, r: &Arr, n: usize) {
        let (u, src, r) = (u.clone(), src.clone(), r.clone());
        ex.phase(name);
        ex.for_each(name, n, Schedule::Static, move |m, z| {
            for y in 0..n {
                let rows = neighbour_rows(n, y, z);
                for x in 0..n {
                    let au = stencil(m, &u, &rows, periodic(x, n), &A_WEIGHTS);
                    m.flops(2 * 27);
                    let i = rows[1][1] + x;
                    let s = m.get(&src, i);
                    m.set(&r, i, s - au);
                    m.flops(1);
                }
            }
        });
    }

    /// `u += S r` over one level (the smoother).
    fn psinv<E: Exec>(ex: &mut E, name: &str, r: &Arr, u: &Arr, n: usize) {
        let (r, u) = (r.clone(), u.clone());
        ex.phase(name);
        ex.for_each(name, n, Schedule::Static, move |m, z| {
            for y in 0..n {
                let rows = neighbour_rows(n, y, z);
                for x in 0..n {
                    let sr = stencil(m, &r, &rows, periodic(x, n), &S_WEIGHTS);
                    m.flops(2 * 27);
                    let i = rows[1][1] + x;
                    m.update(&u, i, |v| v + sr);
                    m.flops(1);
                }
            }
        });
    }

    /// Full-weighting restriction of `fine` (edge `2m`) into `coarse`
    /// (edge `m`), NAS `rprj3`. Distance-class weights 1/2, 1/4, 1/8, 1/16.
    fn rprj3<E: Exec>(ex: &mut E, name: &str, fine: &Arr, coarse: &Arr, m: usize) {
        const W: StencilWeights = [0.5, 0.25, 0.125, 0.0625];
        let nf = 2 * m;
        let (fine, coarse) = (fine.clone(), coarse.clone());
        ex.phase(name);
        ex.for_each(name, m, Schedule::Static, move |mem, zc| {
            for yc in 0..m {
                let rows = neighbour_rows(nf, 2 * yc, 2 * zc);
                for xc in 0..m {
                    let sum = stencil(mem, &fine, &rows, periodic(2 * xc, nf), &W);
                    mem.set(&coarse, gidx(m, xc, yc, zc), sum / 4.0);
                    mem.flops(2 * 27 + 1);
                }
            }
        });
    }

    /// Trilinear prolongation of `coarse` (edge `m`) added into `fine`
    /// (edge `2m`), NAS `interp`.
    fn interp<E: Exec>(ex: &mut E, name: &str, coarse: &Arr, fine: &Arr, m: usize) {
        let nf = 2 * m;
        let (coarse, fine) = (coarse.clone(), fine.clone());
        ex.phase(name);
        ex.for_each(name, nf, Schedule::Static, move |mem, zf| {
            // Trilinear weights: each fine point sits between up to 8 coarse
            // points depending on parity, its coarse point and the next.
            let zs = periodic(zf / 2, m);
            for yf in 0..nf {
                let ys = periodic(yf / 2, m);
                for xf in 0..nf {
                    let xs = periodic(xf / 2, m);
                    let mut sum = 0.0;
                    let mut weight_total = 0.0;
                    for dz in 0..=(zf % 2) {
                        for dy in 0..=(yf % 2) {
                            for dx in 0..=(xf % 2) {
                                let i = gidx(m, xs[1 + dx], ys[1 + dy], zs[1 + dz]);
                                sum += mem.get(&coarse, i);
                                weight_total += 1.0;
                            }
                        }
                    }
                    let i = gidx(nf, xf, yf, zf);
                    let contrib = sum / weight_total;
                    mem.update(&fine, i, |v| v + contrib);
                    mem.flops(10);
                }
            }
        });
    }

    /// The fine-grid residual against the true right-hand side.
    fn resid_fine<E: Exec>(&self, ex: &mut E, name: &str) {
        let k = self.cfg.lt - 1;
        Self::resid(ex, name, &self.u[k], &self.v, &self.r[k], self.cfg.n);
    }

    /// Residual L2 norm on the finest grid.
    fn fine_rnm2<E: Exec>(&self, ex: &mut E) -> f64 {
        let n = self.cfg.n;
        let r = self.r[self.cfg.lt - 1].clone();
        ex.phase("rnm2");
        let sum = ex.sum("rnm2", n, Schedule::Static, move |m, z| {
            let mut s = 0.0;
            for y in 0..n {
                for x in 0..n {
                    let v = m.get(&r, gidx(n, x, y, z));
                    s += v * v;
                }
            }
            m.flops(2 * (n * n) as u64);
            s
        });
        (sum / (n * n * n) as f64).sqrt()
    }

    /// The cold start: the initial residual (r = v on the finest grid, with
    /// u = 0), one discarded V-cycle to fault every level's pages, then the
    /// initial residual again on the reset state for the timed run.
    fn cold<E: Exec>(&self, ex: &mut E) {
        let resid_init =
            |ex: &mut E| ex.block("resid_init", |ex| self.resid_fine(ex, "resid_init"));
        resid_init(ex);
        self.step(ex);
        ex.host(|| self.u.iter().chain(&self.r).for_each(|a| a.fill(0.0)));
        resid_init(ex);
    }

    /// One V-cycle (NAS `mg3P`) plus the fine-grid residual update; returns
    /// the residual norm.
    fn step<E: Exec>(&self, ex: &mut E) -> f64 {
        ex.block("step", |ex| self.v_cycle(ex))
    }

    /// The text of [`Mg::step`].
    fn v_cycle<E: Exec>(&self, ex: &mut E) -> f64 {
        let lt = self.cfg.lt;
        let edge = |k| self.cfg.edge(k);
        // Downward: restrict residuals to the coarsest level.
        for k in (1..lt).rev() {
            let name = format!("rprj3_{k}");
            Self::rprj3(ex, &name, &self.r[k], &self.r[k - 1], edge(k - 1));
        }
        // Coarsest: u_0 = S r_0 from scratch.
        ex.host(|| self.u[0].fill(0.0));
        Self::psinv(ex, "psinv_0", &self.r[0], &self.u[0], edge(0));
        // Upward sweep.
        for k in 1..lt {
            let name = |op: &str| format!("{op}_{k}");
            if k < lt - 1 {
                ex.host(|| self.u[k].fill(0.0));
            }
            Self::interp(ex, &name("interp"), &self.u[k - 1], &self.u[k], edge(k - 1));
            // Finest: residual against the true right-hand side;
            // intermediate: re-evaluate the residual in place.
            let src = if k == lt - 1 { &self.v } else { &self.r[k] };
            Self::resid(ex, &name("resid"), &self.u[k], src, &self.r[k], edge(k));
            Self::psinv(ex, &name("psinv"), &self.r[k], &self.u[k], edge(k));
        }
        // Final residual for the norm.
        self.resid_fine(ex, "resid_fine");
        self.fine_rnm2(ex)
    }
}

impl NasBenchmark for Mg {
    fn name(&self) -> BenchName {
        BenchName::Mg
    }

    fn boxed_clone(&self) -> Box<dyn NasBenchmark> {
        let copy = |grids: &[Arr]| grids.iter().map(|g| Rc::new((**g).clone())).collect();
        Box::new(Mg {
            cfg: self.cfg,
            u: copy(&self.u),
            r: copy(&self.r),
            v: Rc::new((*self.v).clone()),
            rnm2: self.rnm2.clone(),
            initial_rnm2: self.initial_rnm2,
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

    fn iterate(&mut self, rt: &mut Runtime, _hook: &mut PhaseHook<'_>) {
        let norm = self.step(rt);
        self.rnm2.push(norm);
    }

    fn hot_arrays(&self) -> Vec<ArrayLayout> {
        let grids = self.u.iter().chain(&self.r).chain([&self.v]);
        grids.map(|a| a.layout()).collect()
    }

    fn verify(&self) -> Verification {
        // Multigrid must reduce the residual norm from ||v|| and keep
        // reducing it monotonically across V-cycles.
        let Some(&last) = self.rnm2.last() else {
            return Verification::check(f64::NAN, 0.0, 0.0);
        };
        let monotone = self.rnm2.windows(2).all(|w| w[1] <= w[0] * 1.0001);
        let reduced = last < 0.5 * self.initial_rnm2;
        Verification {
            passed: monotone && reduced && last.is_finite(),
            value: last,
            reference: self.initial_rnm2,
            epsilon: 0.5,
        }
    }

    fn access_model(&self) -> Option<KernelModel> {
        Some(Describe::kernel(self, |d| self.cold(d), |d| self.step(d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::no_phase_hook;
    use ccnuma::{Machine, MachineConfig};

    fn rt() -> Runtime {
        Runtime::new(Machine::new(MachineConfig::origin2000_16p()))
    }

    #[test]
    fn a_weights_annihilate_constants() {
        // center + 6*face + 12*edge + 8*corner must be 0.
        let total = A_WEIGHTS[0] + 6.0 * A_WEIGHTS[1] + 12.0 * A_WEIGHTS[2] + 8.0 * A_WEIGHTS[3];
        assert!(total.abs() < 1e-12, "{total}");
    }

    #[test]
    fn resid_of_constant_field_is_rhs() {
        let mut rt = rt();
        let n = 4;
        let m = rt.machine_mut();
        let u = Rc::new(SimArray::new(m, "u", n * n * n, 7.5));
        let v = Rc::new(SimArray::new(m, "v", n * n * n, 2.0));
        let r = Rc::new(SimArray::new(m, "r", n * n * n, 0.0));
        Mg::resid(&mut rt, "resid", &u, &v, &r, n);
        for i in 0..n * n * n {
            assert!((r.peek(i) - 2.0).abs() < 1e-12, "A(const) must vanish");
        }
    }

    #[test]
    fn restriction_preserves_constant_fields() {
        let mut rt = rt();
        let m = 4;
        let machine = rt.machine_mut();
        let fine = Rc::new(SimArray::new(
            machine,
            "f",
            (2 * m) * (2 * m) * (2 * m),
            3.0,
        ));
        let coarse = Rc::new(SimArray::new(machine, "c", m * m * m, 0.0));
        Mg::rprj3(&mut rt, "rprj3", &fine, &coarse, m);
        // Weights sum: (0.5 + 6*0.25 + 12*0.125 + 8*0.0625)/4 = 1.
        for i in 0..m * m * m {
            assert!(
                (coarse.peek(i) - 3.0).abs() < 1e-12,
                "got {}",
                coarse.peek(i)
            );
        }
    }

    #[test]
    fn interp_preserves_constant_fields() {
        let mut rt = rt();
        let m = 4;
        let machine = rt.machine_mut();
        let coarse = Rc::new(SimArray::new(machine, "c", m * m * m, 2.0));
        let fine = Rc::new(SimArray::new(
            machine,
            "f",
            (2 * m) * (2 * m) * (2 * m),
            0.0,
        ));
        Mg::interp(&mut rt, "interp", &coarse, &fine, m);
        for i in 0..(2 * m) * (2 * m) * (2 * m) {
            assert!((fine.peek(i) - 2.0).abs() < 1e-12, "got {}", fine.peek(i));
        }
    }

    #[test]
    fn mg_reduces_residual_and_verifies() {
        let mut rt = rt();
        let mut mg = Mg::new(&mut rt, Scale::Tiny);
        mg.cold_start(&mut rt);
        let mut hook = no_phase_hook();
        for _ in 0..mg.iterations() {
            mg.iterate(&mut rt, &mut hook);
        }
        let v = mg.verify();
        assert!(
            v.passed,
            "rnm2 sequence {:?} from initial {}",
            mg.rnm2, mg.initial_rnm2
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut rt = rt();
            let mut mg = Mg::new(&mut rt, Scale::Tiny);
            mg.cold_start(&mut rt);
            let mut hook = no_phase_hook();
            mg.iterate(&mut rt, &mut hook);
            (mg.rnm2[0], rt.machine().clock().now_ns())
        };
        assert_eq!(run(), run());
    }
}
