//! NAS SP: scalar-pentadiagonal ADI solver.
//!
//! Same driver structure as BT (`compute_rhs`, `x_solve`, `y_solve`,
//! `z_solve`, `add`) and the same z-sweep phase change, but each directional
//! sweep solves *scalar pentadiagonal* systems — one independent
//! five-banded system per component per grid line (the factorization-method
//! difference between BT and SP the paper notes: "the programs differ in
//! the factorization method used in the solvers"). The second bands come
//! from the fourth-difference dissipation term, as in NAS SP.

use crate::adi::{AdiState, SweepAxis};
use crate::common::{no_phase_hook, BenchName, NasBenchmark, PhaseHook, Scale, Verification};
use crate::la::penta_solve;
use crate::model::{Describe, Exec, KernelModel, Mem};
use ccnuma::ArrayLayout;
use omp::{Runtime, Schedule};
use std::rc::Rc;

/// SP problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct SpConfig {
    /// Grid points along x.
    pub nx: usize,
    /// Grid points along y.
    pub ny: usize,
    /// Grid points along z.
    pub nz: usize,
    /// Timed iterations.
    pub niter: usize,
    /// Diffusion number.
    pub r: f64,
    /// Strength of the u-dependent coefficients.
    pub eps: f64,
    /// Fourth-difference dissipation band strength.
    pub r4: f64,
    /// Phase-function repetition count (Figure 6 experiment).
    pub phase_scale: usize,
}

impl SpConfig {
    /// Parameters for a scale class (same plane-geometry reasoning as BT).
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
            r4: 0.025,
            phase_scale: 1,
        }
    }
}

/// The SP benchmark instance.
pub struct Sp {
    cfg: SpConfig,
    state: Rc<AdiState>,
    initial_u: Vec<f64>,
    norms: Vec<f64>,
}

impl Sp {
    /// Allocate and initialize on the runtime's machine.
    pub fn new(rt: &mut Runtime, scale: Scale) -> Self {
        Self::with_config(rt, SpConfig::for_scale(scale))
    }

    /// Allocate with explicit parameters.
    pub fn with_config(rt: &mut Runtime, cfg: SpConfig) -> Self {
        let state = Rc::new(AdiState::new(rt, "sp", cfg.nx, cfg.ny, cfg.nz));
        let initial_u = state.u.to_vec();
        Self {
            cfg,
            state,
            initial_u,
            norms: Vec::new(),
        }
    }

    /// Problem parameters.
    pub fn config(&self) -> &SpConfig {
        &self.cfg
    }

    /// The field state (for tests).
    pub fn state(&self) -> &AdiState {
        &self.state
    }

    /// Solve all lines along `axis`: per line and per component, assemble
    /// the pentadiagonal operator `(I - A_axis)` from `u` and solve against
    /// the line's `rhs` in place.
    fn sweep<E: Exec>(&self, ex: &mut E, axis: SweepAxis) {
        let s = self.state.clone();
        let g = s.grid;
        let SpConfig { r, eps, r4, .. } = self.cfg;
        let (n, outer_extent, inner_extent) = axis.extents(g);
        ex.for_each(
            axis.name(),
            outer_extent,
            Schedule::Static,
            move |m, outer| {
                let mut band_e = vec![0.0; n];
                let mut band_a = vec![0.0; n];
                let mut band_d = vec![0.0; n];
                let mut band_c = vec![0.0; n];
                let mut band_f = vec![0.0; n];
                let mut line_u = vec![0.0; n];
                let mut line_rhs = vec![0.0; n];
                for inner in 0..inner_extent {
                    for c in 0..5 {
                        // Gather this component's line.
                        for k in 0..n {
                            let (x, y, z) = axis.coord(outer, inner, k);
                            line_u[k] = m.get(&s.u, g.idx(c, x, y, z));
                            line_rhs[k] = m.get(&s.rhs, g.idx(c, x, y, z));
                        }
                        let mut flops = 0;
                        m.host(|| {
                            // Assemble the five bands (diagonally dominant).
                            for k in 0..n {
                                band_d[k] = 1.0 + 2.0 * r + 2.0 * r4 + eps * line_u[k].abs();
                                band_a[k] = if k >= 1 {
                                    -r - 0.5 * eps * line_u[k - 1]
                                } else {
                                    0.0
                                };
                                band_c[k] = if k + 1 < n {
                                    -r - 0.5 * eps * line_u[k + 1]
                                } else {
                                    0.0
                                };
                                band_e[k] = if k >= 2 { r4 } else { 0.0 };
                                band_f[k] = if k + 2 < n { r4 } else { 0.0 };
                            }
                            flops = penta_solve(
                                &band_e,
                                &band_a,
                                &band_d,
                                &band_c,
                                &band_f,
                                &mut line_rhs,
                            )
                            .expect("SP bands are diagonally dominant");
                        });
                        m.flops(flops + 8 * n as u64);
                        // Scatter the solution.
                        for k in 0..n {
                            let (x, y, z) = axis.coord(outer, inner, k);
                            m.set(&s.rhs, g.idx(c, x, y, z), line_rhs[k]);
                        }
                    }
                }
            },
        );
    }

    /// The cold start: one full time step, then the field reset.
    fn cold<E: Exec>(&self, ex: &mut E) {
        self.step(ex, &mut no_phase_hook());
        ex.host(|| self.state.reset(&self.initial_u));
    }

    /// One full time step (shared by cold start and timed iterations).
    fn step<E: Exec>(&self, ex: &mut E, hook: &mut PhaseHook<'_>) -> f64 {
        let SpConfig { r, phase_scale, .. } = self.cfg;
        self.state
            .step(ex, hook, r, phase_scale, |ex, axis| self.sweep(ex, axis))
    }

    /// Recorded per-iteration update norms.
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }
}

impl NasBenchmark for Sp {
    fn name(&self) -> BenchName {
        BenchName::Sp
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
    use crate::common::PhasePoint;
    use ccnuma::{Machine, MachineConfig};

    fn rt() -> Runtime {
        Runtime::new(Machine::new(MachineConfig::origin2000_16p()))
    }

    #[test]
    fn constant_field_is_a_fixed_point_with_zero_forcing() {
        let mut rt = rt();
        let mut sp = Sp::with_config(
            &mut rt,
            SpConfig {
                nx: 6,
                ny: 6,
                nz: 6,
                niter: 1,
                r: 0.2,
                eps: 0.02,
                r4: 0.025,
                phase_scale: 1,
            },
        );
        sp.state.u.fill(1.0);
        sp.state.forcing.fill(0.0);
        let before = sp.state.u.to_vec();
        let mut hook = no_phase_hook();
        sp.iterate(&mut rt, &mut hook);
        for (b, a) in before.iter().zip(&sp.state.u.to_vec()) {
            assert!((b - a).abs() < 1e-12);
        }
    }

    #[test]
    fn update_norm_decays() {
        let mut rt = rt();
        let mut sp = Sp::new(&mut rt, Scale::Tiny);
        sp.cold_start(&mut rt);
        let mut hook = no_phase_hook();
        for _ in 0..sp.iterations() {
            sp.iterate(&mut rt, &mut hook);
        }
        let v = sp.verify();
        assert!(v.passed, "norms {:?}", sp.norms);
    }

    #[test]
    fn phase_hook_brackets_z_solve() {
        let mut rt = rt();
        let mut sp = Sp::new(&mut rt, Scale::Tiny);
        sp.cold_start(&mut rt);
        let mut points = Vec::new();
        let mut hook = |_: &mut Runtime, pp: PhasePoint| points.push(pp);
        sp.iterate(&mut rt, &mut hook);
        assert_eq!(points, vec![PhasePoint::Before(0), PhasePoint::After(0)]);
    }

    #[test]
    fn z_sweep_is_remote_heavy() {
        let mut rt = rt();
        let mut sp = Sp::new(&mut rt, Scale::Tiny);
        sp.cold_start(&mut rt);
        let r0 = rt.machine().aggregate_cpu_stats().mem_remote;
        sp.sweep(&mut rt, SweepAxis::X);
        let rx = rt.machine().aggregate_cpu_stats().mem_remote - r0;
        let r1 = rt.machine().aggregate_cpu_stats().mem_remote;
        sp.sweep(&mut rt, SweepAxis::Z);
        let rz = rt.machine().aggregate_cpu_stats().mem_remote - r1;
        assert!(rz > 3 * rx.max(1), "z remote {rz} vs x remote {rx}");
    }
}
