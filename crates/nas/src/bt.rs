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
use crate::la::{self, BVec, Block};
use crate::model::{Exec, Mem};
use omp::Schedule;
use std::rc::Rc;

/// The BT benchmark: the ADI driver around block-tridiagonal line solves.
pub type Bt = Adi<BlockTri>;
/// BT problem parameters.
pub type BtConfig = AdiConfig;

/// The constant 5x5 coupling matrix added to the diagonal blocks — small
/// off-diagonal terms that force genuine block (not scalar) solves.
fn coupling() -> Block {
    let mut k = [0.0; 25];
    for r in 0..la::B {
        for c in 0..la::B {
            if r != c {
                k[r * la::B + c] = 0.02 / (1.0 + (r as f64 - c as f64).abs());
            }
        }
    }
    k
}

/// Diagonal-block contribution from the local field value:
/// `K + diag(u) * eps_weight` scaled by `scale`.
fn phi(coupling: &Block, u5: &BVec, scale: f64) -> Block {
    let mut m = [0.0; 25];
    for r in 0..la::B {
        for c in 0..la::B {
            let base = coupling[r * la::B + c];
            let diag = if r == c { u5[r] } else { 0.0 };
            m[r * la::B + c] = scale * (base + 0.05 * diag);
        }
    }
    m
}

/// BT's line solve: one 5x5 block-tridiagonal system per grid line.
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
    fn sweep<E: Exec>(&self, ex: &mut E, state: &Rc<AdiState>, cfg: &AdiConfig, axis: SweepAxis) {
        let s = state.clone();
        let g = s.grid;
        let AdiConfig { r, eps, .. } = *cfg;
        let coupling = self.coupling;
        let (n, outer_extent, inner_extent) = axis.extents(g);
        ex.for_each(
            axis.name(),
            outer_extent,
            Schedule::Static,
            move |m, outer| {
                let mut sub = vec![[0.0; 25]; n];
                let mut diag = vec![[0.0; 25]; n];
                let mut sup = vec![[0.0; 25]; n];
                let mut line_rhs: Vec<BVec> = vec![[0.0; 5]; n];
                let mut line_u: Vec<BVec> = vec![[0.0; 5]; n];
                for inner in 0..inner_extent {
                    // Gather the line's field and rhs.
                    for k in 0..n {
                        let (x, y, z) = axis.coord(outer, inner, k);
                        line_u[k] = s.read_u5(m, x, y, z);
                        for c in 0..5 {
                            line_rhs[k][c] = m.get(&s.rhs, g.idx(c, x, y, z));
                        }
                    }
                    let mut flops = 0;
                    m.host(|| {
                        // Assemble (I - A): A couples neighbours with -r plus
                        // the u-dependent phi blocks (periodic wrap folded into
                        // the first/last off-blocks being dropped — the
                        // tridiagonal solver treats the line as
                        // Dirichlet-truncated, a standard ADI line treatment).
                        let block = |identity: f64, u5: &BVec, scale: f64| {
                            let mut b = la::scaled_identity5(identity);
                            let phi = phi(&coupling, u5, scale);
                            for i in 0..25 {
                                b[i] += phi[i];
                            }
                            b
                        };
                        for k in 0..n {
                            diag[k] = block(1.0 + 2.0 * r, &line_u[k], eps);
                            sub[k] = block(-r, &line_u[(k + n - 1) % n], -0.5 * eps);
                            sup[k] = block(-r, &line_u[(k + 1) % n], -0.5 * eps);
                        }
                        flops = la::block_tridiag_solve(&sub, &diag, &sup, &mut line_rhs)
                            .expect("BT blocks are diagonally dominant");
                    });
                    // Assembly arithmetic: ~3 block builds of 25 entries each.
                    m.flops(flops + (n as u64) * 150);
                    // Scatter the solved line back.
                    for k in 0..n {
                        let (x, y, z) = axis.coord(outer, inner, k);
                        for c in 0..5 {
                            m.set(&s.rhs, g.idx(c, x, y, z), line_rhs[k][c]);
                        }
                    }
                }
            },
        );
    }
}
