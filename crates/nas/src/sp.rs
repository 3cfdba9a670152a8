//! NAS SP: scalar-pentadiagonal ADI solver.
//!
//! Same driver structure as BT (`compute_rhs`, `x_solve`, `y_solve`,
//! `z_solve`, `add`) and the same z-sweep phase change, but each directional
//! sweep solves *scalar pentadiagonal* systems — one independent
//! five-banded system per component per grid line (the factorization-method
//! difference between BT and SP the paper notes: "the programs differ in
//! the factorization method used in the solvers"). The second bands come
//! from the fourth-difference dissipation term, as in NAS SP.

use crate::adi::{Adi, AdiConfig, AdiState, LineSolve, SweepAxis};
use crate::common::BenchName;
use crate::la::penta_solve;
use crate::model::{Exec, Mem};
use omp::Schedule;
use std::rc::Rc;

/// The SP benchmark: the ADI driver around scalar-pentadiagonal line solves.
pub type Sp = Adi<Penta>;
/// SP problem parameters.
pub type SpConfig = AdiConfig;

/// SP's line solve: one scalar pentadiagonal system per component per grid
/// line.
#[derive(Clone)]
pub struct Penta {
    /// Fourth-difference dissipation band strength.
    r4: f64,
}

impl Default for Penta {
    fn default() -> Self {
        Self { r4: 0.025 }
    }
}

impl LineSolve for Penta {
    const NAME: BenchName = BenchName::Sp;

    /// Solve all lines along `axis`: per line and per component, assemble
    /// the pentadiagonal operator `(I - A_axis)` from `u` and solve against
    /// the line's `rhs` in place.
    fn sweep<E: Exec>(&self, ex: &mut E, state: &Rc<AdiState>, cfg: &AdiConfig, axis: SweepAxis) {
        let s = state.clone();
        let g = s.grid;
        let AdiConfig { r, eps, .. } = *cfg;
        let r4 = self.r4;
        let (n, outer_extent, inner_extent) = axis.extents(g);
        ex.for_each(
            axis.name(),
            outer_extent,
            Schedule::Static,
            move |m, outer| {
                // The second bands are the dissipation's alone; the solve
                // works in the other three, rebuilt for every line.
                let band_e: Vec<f64> = (0..n).map(|k| if k >= 2 { r4 } else { 0.0 }).collect();
                let band_f: Vec<f64> = (0..n).map(|k| if k + 2 < n { r4 } else { 0.0 }).collect();
                let mut band_a = vec![0.0; n];
                let mut band_d = vec![0.0; n];
                let mut band_c = vec![0.0; n];
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
                            let _hp = hostprof::span_hot("nas.line_solve");
                            // Assemble the bands (diagonally dominant).
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
                            }
                            flops = penta_solve(
                                &band_e,
                                &mut band_a,
                                &mut band_d,
                                &mut band_c,
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
}
