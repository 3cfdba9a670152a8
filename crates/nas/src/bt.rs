//! NAS BT: block-tridiagonal ADI solver.
//!
//! Each timed iteration performs `compute_rhs`, then the three directional
//! sweeps `x_solve`, `y_solve`, `z_solve` — each solving a 5x5
//! block-tridiagonal system along every grid line of its direction — and
//! finally `add` (`u += rhs`), exactly the call structure of the paper's
//! Figure 2/3 listings.
//!
//! Parallel structure (as in the NAS OpenMP code): `compute_rhs`, `x_solve`
//! and `y_solve` are `PARALLEL DO`s over z, so each thread works entirely
//! within its z-slab; **`z_solve` is a `PARALLEL DO` over y**, so every
//! thread's lines run across *all* z-slabs. Under first-touch placement by
//! z-slab this makes the z-sweep the remote-access-heavy phase — the phase
//! change "in the z_solve function, due to the initial alignment of arrays
//! in memory, performed to improve locality along the x and y directions"
//! that the record–replay mechanism targets. The phase hook brackets it.
//!
//! `phase_scale` reproduces the paper's Figure 6 experiment: "we enclosed
//! each function that comprises the main body of the parallel computation
//! in a sequential loop with 4 iterations", lengthening every phase without
//! changing its access pattern.

use crate::adi::{Adi, AdiConfig, AdiState, LineSolve, SweepAxis};
use crate::common::BenchName;
use crate::la::{self, Block, LaneBlock, LaneVec, B};
use crate::model::{Exec, Mem};
use omp::Schedule;
use std::rc::Rc;

/// The BT benchmark: the ADI driver around block-tridiagonal line solves.
pub type Bt = Adi<BlockTri>;
/// BT problem parameters.
pub type BtConfig = AdiConfig;

/// Lines one [`la::block_tridiag_lanes`] call solves abreast.
const LANES: usize = 4;

/// The constant 5x5 coupling matrix added to the diagonal blocks — small
/// off-diagonal terms that force genuine block (not scalar) solves.
fn coupling() -> Block {
    let mut k = [0.0; 25];
    for r in 0..B {
        for c in 0..B {
            if r != c {
                k[r * B + c] = 0.02 / (1.0 + (r as f64 - c as f64).abs());
            }
        }
    }
    k
}

/// Entry `(r, c)` of the block `identity * I + scale * (K + 0.05 * diag(u5))`
/// (`ur` is `u5[r]`), evaluated as the identity's entry plus the scaled
/// coupling's. Only a diagonal entry depends on `u`.
#[inline(always)]
fn entry(coupling: &Block, r: usize, c: usize, identity: f64, ur: f64, scale: f64) -> f64 {
    let (id, diag) = if r == c { (identity, ur) } else { (0.0, 0.0) };
    id + scale * (coupling[r * B + c] + 0.05 * diag)
}

/// BT's line solve: one 5x5 block-tridiagonal system per grid line.
#[derive(Clone)]
pub struct BlockTri {
    coupling: Block,
}

impl Default for BlockTri {
    fn default() -> Self {
        Self {
            coupling: coupling(),
        }
    }
}

impl LineSolve for BlockTri {
    const NAME: BenchName = BenchName::Bt;

    /// Solve all lines along `axis`: for each line, assemble the 5x5 block
    /// tridiagonal operator `(I - A_axis)` from `u` and solve it against
    /// the line's `rhs`, writing the result back into `rhs`.
    ///
    /// The inner lines of one outer index are solved [`LANES`] abreast (a
    /// short group repeats its first line in its spare lanes). The solve
    /// reads the group's `u` and `rhs` ahead with `peek` — its lines are
    /// disjoint, so that is what their loads return — and each line then
    /// issues its loads, its flop charge and its stores in the order a
    /// line-at-a-time solve would: the simulated access stream, and so the
    /// described model, is the kernel text's.
    fn sweep<E: Exec>(&self, ex: &mut E, state: &Rc<AdiState>, cfg: &AdiConfig, axis: SweepAxis) {
        let s = state.clone();
        let g = s.grid;
        let AdiConfig { r, eps, .. } = *cfg;
        let coupling = self.coupling;
        let (n, outer_extent, inner_extent) = axis.extents(g);
        // (I - A): A couples neighbours with -r plus the u-dependent phi
        // blocks (periodic wrap folded into the first/last off-blocks being
        // dropped — the tridiagonal solver treats the line as
        // Dirichlet-truncated, a standard ADI line treatment). The block
        // built from u[k] is the diagonal of row k, and the off-diagonal
        // of rows k - 1 and k + 1 alike.
        let (diag_id, diag_scale, off_id, off_scale) = (1.0 + 2.0 * r, eps, -r, -0.5 * eps);
        let template = |identity: f64, scale: f64| -> LaneBlock<LANES> {
            std::array::from_fn(|i| [entry(&coupling, i / B, i % B, identity, 0.0, scale); LANES])
        };
        let (diag_template, off_template) =
            (template(diag_id, diag_scale), template(off_id, off_scale));
        ex.for_each(
            axis.name(),
            outer_extent,
            Schedule::Static,
            move |m, outer| {
                // Off-diagonal entries are the templates' for the whole sweep;
                // a group writes the diagonals only.
                let mut diag = vec![diag_template; n];
                let mut off = vec![off_template; n];
                let mut rhs: Vec<LaneVec<LANES>> = vec![[[0.0; LANES]; B]; n];
                let mut cp: Vec<LaneBlock<LANES>> = vec![[[0.0; LANES]; B * B]; n - 1];
                for first in (0..inner_extent).step_by(LANES) {
                    let mut flops = 0;
                    m.host(|| {
                        let _hp = hostprof::span_hot("nas.line_solve");
                        for l in 0..LANES {
                            // A short group's spare lanes repeat its first line.
                            let inner = if first + l < inner_extent {
                                first + l
                            } else {
                                first
                            };
                            for k in 0..n {
                                let (x, y, z) = axis.coord(outer, inner, k);
                                for c in 0..B {
                                    let i = g.idx(c, x, y, z);
                                    let u = s.u.peek(i);
                                    diag[k][c * B + c][l] =
                                        entry(&coupling, c, c, diag_id, u, diag_scale);
                                    off[k][c * B + c][l] =
                                        entry(&coupling, c, c, off_id, u, off_scale);
                                    rhs[k][c][l] = s.rhs.peek(i);
                                }
                            }
                        }
                        flops = la::block_tridiag_lanes(
                            &off[..n - 1],
                            &diag,
                            &off[1..],
                            &mut rhs,
                            &mut cp,
                        )
                        .expect("BT blocks are diagonally dominant");
                    });
                    for (l, inner) in (first..inner_extent).take(LANES).enumerate() {
                        // The line's gathers, whose values the solve read ahead.
                        for k in 0..n {
                            let (x, y, z) = axis.coord(outer, inner, k);
                            s.read_u5(m, x, y, z);
                            for c in 0..B {
                                m.get(&s.rhs, g.idx(c, x, y, z));
                            }
                        }
                        // Assembly arithmetic: ~3 block builds of 25 entries each.
                        m.flops(flops + (n as u64) * 150);
                        // Scatter the solved line back.
                        for k in 0..n {
                            let (x, y, z) = axis.coord(outer, inner, k);
                            for c in 0..B {
                                m.set(&s.rhs, g.idx(c, x, y, z), rhs[k][c][l]);
                            }
                        }
                    }
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{NasBenchmark, Scale};
    use ccnuma::{AccessKind, Machine, MachineConfig};
    use omp::Runtime;

    /// Each sweep's described stream is, per line of every outer index, the
    /// line's gathers (`u` then `rhs`, five components per point) followed
    /// by its scatters — enumerated here independently of the kernel text,
    /// at tiny scale and on a 6-cube whose last group of lines is short.
    #[test]
    fn each_line_is_gathered_then_scattered_in_order() {
        for cfg in [
            AdiConfig::for_scale(Scale::Tiny),
            AdiConfig {
                nx: 6,
                ny: 6,
                nz: 6,
                ..AdiConfig::for_scale(Scale::Tiny)
            },
        ] {
            let mut rt = Runtime::new(Machine::new(MachineConfig::origin2000_16p()));
            let bt = Bt::with_config(&mut rt, cfg);
            let model = bt.access_model().expect("BT describes itself");
            let s = bt.state();
            let g = s.grid;
            for axis in [SweepAxis::X, SweepAxis::Y, SweepAxis::Z] {
                let phase = model.iteration().iter().find(|p| p.name() == axis.name());
                let [sweep] = phase.expect("one phase per sweep").loops() else {
                    panic!("one loop per sweep at phase scale 1");
                };
                let (n, outer_extent, inner_extent) = axis.extents(g);
                assert_eq!(sweep.n(), outer_extent);
                for outer in 0..outer_extent {
                    let mut got = Vec::new();
                    sweep.for_each_access(outer, &mut |vaddr, kind| got.push((vaddr, kind)));
                    let mut want = Vec::new();
                    for inner in 0..inner_extent {
                        let at = |array: &ccnuma::SimArray<f64>, c, k| {
                            let (x, y, z) = axis.coord(outer, inner, k);
                            array.vaddr_of(g.idx(c, x, y, z))
                        };
                        for k in 0..n {
                            want.extend((0..5).map(|c| (at(&s.u, c, k), AccessKind::Read)));
                            want.extend((0..5).map(|c| (at(&s.rhs, c, k), AccessKind::Read)));
                        }
                        for k in 0..n {
                            want.extend((0..5).map(|c| (at(&s.rhs, c, k), AccessKind::Write)));
                        }
                    }
                    assert_eq!(got, want, "{} outer {outer}", axis.name());
                }
            }
        }
    }
}
