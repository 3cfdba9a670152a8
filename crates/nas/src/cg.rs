//! NAS CG: conjugate-gradient approximation of the smallest eigenvalue of a
//! large sparse symmetric positive-definite matrix.
//!
//! Structure follows the NAS benchmark: an outer loop of `outer` iterations,
//! each running `cg_iters` steps of conjugate gradient on `A z = x`,
//! computing `zeta = shift + 1 / (x . z)` and restarting with the normalized
//! `z`. The matrix is a randomly generated sparse SPD matrix in CSR form
//! (diagonally dominant symmetric — same spirit as NAS `makea`, which also
//! builds a random-pattern SPD matrix).
//!
//! Parallel structure (as in the NAS OpenMP code): every vector loop and the
//! sparse matrix-vector product are `PARALLEL DO`s over rows with static
//! scheduling, so each thread owns a contiguous row block, and dot products
//! are reductions. CG has no phase change; the phase hook is never invoked.

use crate::common::{BenchName, NasBenchmark, PhaseHook, Scale, Verification};
use crate::facts;
use crate::model::{Describe, Exec, KernelModel, Mem};
use ccnuma::{ArrayLayout, SimArray};
use omp::{Runtime, Schedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// CG problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct CgConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Nonzeros per row (approximate; symmetrization merges duplicates).
    pub nz_per_row: usize,
    /// Outer (timed) iterations.
    pub outer: usize,
    /// CG steps per outer iteration (NAS uses 25).
    pub cg_iters: usize,
    /// Eigenvalue shift (NAS Class A uses 20).
    pub shift: f64,
    /// RNG seed for the matrix pattern.
    pub seed: u64,
}

impl CgConfig {
    /// Parameters for a scale class.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => Self {
                n: 192,
                nz_per_row: 6,
                outer: 3,
                cg_iters: 5,
                shift: 10.0,
                seed: 271828,
            },
            Scale::Small => Self {
                n: 4000,
                nz_per_row: 9,
                outer: 4,
                cg_iters: 8,
                shift: 15.0,
                seed: 271828,
            },
            Scale::Medium => Self {
                n: 8000,
                nz_per_row: 9,
                outer: 6,
                cg_iters: 12,
                shift: 20.0,
                seed: 271828,
            },
        }
    }
}

/// Host-side CSR matrix (pattern and values are also mirrored into
/// `SimArray`s for the simulated run).
struct Csr {
    rowstr: Vec<usize>,
    col: Vec<u32>,
    val: Vec<f64>,
}

/// Generate a symmetric, strictly diagonally dominant (hence SPD) sparse
/// matrix with a seeded random pattern.
fn make_matrix(cfg: &CgConfig) -> Csr {
    let n = cfg.n;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // Collect symmetric off-diagonal entries.
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    // NAS makea clusters nonzeros geometrically around the diagonal; model
    // that with a banded pattern: offsets drawn from an exponential-ish
    // distribution up to n/8, occasionally long-range.
    let band = (n / 16).max(4) as i64;
    for i in 0..n {
        for _ in 0..cfg.nz_per_row / 2 {
            let off: i64 = if rng.gen_range(0..8) == 0 {
                rng.gen_range(-(n as i64 - 1)..n as i64) // rare long-range link
            } else {
                let magnitude = (band as f64).powf(rng.gen_range(0.0..1.0)) as i64;
                if rng.gen_bool(0.5) {
                    magnitude
                } else {
                    -magnitude
                }
            };
            // Clamp instead of wrapping: NAS's generator never wraps, and a
            // wrapped band would couple the first and last row blocks.
            let j = (i as i64 + off).clamp(0, n as i64 - 1) as usize;
            if j == i {
                continue;
            }
            let v = rng.gen_range(-0.5..0.5);
            rows[i].push((j as u32, v));
            rows[j].push((i as u32, v));
        }
    }
    let mut rowstr = Vec::with_capacity(n + 1);
    let mut col = Vec::new();
    let mut val = Vec::new();
    rowstr.push(0);
    for (i, row) in rows.iter_mut().enumerate() {
        row.sort_by_key(|&(j, _)| j);
        // Merge duplicate columns.
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(row.len() + 1);
        for &(j, v) in row.iter() {
            match merged.last_mut() {
                Some(last) if last.0 == j => last.1 += v,
                _ => merged.push((j, v)),
            }
        }
        let offdiag_sum: f64 = merged.iter().map(|&(_, v)| v.abs()).sum();
        // Insert the dominant diagonal in sorted position.
        let diag = (i as u32, offdiag_sum + 1.0);
        let pos = merged.partition_point(|&(j, _)| j < diag.0);
        merged.insert(pos, diag);
        for (j, v) in merged {
            col.push(j);
            val.push(v);
        }
        rowstr.push(col.len());
    }
    Csr { rowstr, col, val }
}

/// What CG's loop bodies touch: the row pointers (loop metadata) and the
/// simulated matrix and vectors.
#[derive(Clone)]
struct Data {
    rowstr: Vec<usize>,
    a: SimArray<f64>,
    col: SimArray<u32>,
    x: SimArray<f64>,
    z: SimArray<f64>,
    p: SimArray<f64>,
    q: SimArray<f64>,
    r: SimArray<f64>,
}

/// The CG benchmark instance.
pub struct Cg {
    cfg: CgConfig,
    d: Rc<Data>,
    /// Host copy of the matrix pattern and values, for verification.
    host_col: Vec<u32>,
    host_val: Vec<f64>,
    /// zeta after each timed outer iteration.
    zetas: Vec<f64>,
}

impl Cg {
    /// Allocate and initialize a CG instance on the runtime's machine.
    pub fn new(rt: &mut Runtime, scale: Scale) -> Self {
        Self::with_config(rt, CgConfig::for_scale(scale))
    }

    /// Allocate with explicit parameters.
    pub fn with_config(rt: &mut Runtime, cfg: CgConfig) -> Self {
        let csr = make_matrix(&cfg);
        let team = rt.threads();
        let m = rt.machine_mut();
        let a = SimArray::from_fn(m, "cg.a", csr.val.len(), |i| csr.val[i]);
        let col = SimArray::from_fn(m, "cg.col", csr.col.len(), |i| csr.col[i]);
        // The tuned NAS codes pad the shared vectors so each thread's slice
        // sits on its own pages and first-touch distributes them; mirror
        // that with chunk-aligned allocation (one chunk per team thread).
        let x = SimArray::chunk_aligned(m, "cg.x", cfg.n, team, 1.0);
        let z = SimArray::chunk_aligned(m, "cg.z", cfg.n, team, 0.0);
        let p = SimArray::chunk_aligned(m, "cg.p", cfg.n, team, 0.0);
        let q = SimArray::chunk_aligned(m, "cg.q", cfg.n, team, 0.0);
        let r = SimArray::chunk_aligned(m, "cg.r", cfg.n, team, 0.0);
        let rowstr = csr.rowstr;
        Self {
            cfg,
            d: Rc::new(Data {
                rowstr,
                a,
                col,
                x,
                z,
                p,
                q,
                r,
            }),
            host_col: csr.col,
            host_val: csr.val,
            zetas: Vec::new(),
        }
    }

    /// Problem parameters.
    pub fn config(&self) -> &CgConfig {
        &self.cfg
    }

    /// The cold start: one full outer iteration faults every page through
    /// the parallel constructs (first-touch distribution); its numeric
    /// state is then discarded.
    fn cold<E: Exec>(&self, ex: &mut E) {
        self.step(ex);
        ex.host(|| {
            let d = &self.d;
            d.x.fill(1.0);
            for v in [&d.z, &d.p, &d.q, &d.r] {
                v.fill(0.0);
            }
        });
    }

    /// One outer iteration: `cg_iters` CG steps plus the eigenvalue update.
    /// Returns zeta.
    fn step<E: Exec>(&self, ex: &mut E) -> f64 {
        ex.block("step", |ex| self.outer(ex))
    }

    /// The text of [`Cg::step`].
    fn outer<E: Exec>(&self, ex: &mut E) -> f64 {
        let n = self.cfg.n;

        // z = 0, r = x, p = r; rho = r.r
        ex.phase("init");
        let d = self.d.clone();
        ex.for_each("init", n, Schedule::Static, move |m, i| {
            let xi = m.get(&d.x, i);
            m.set(&d.z, i, 0.0);
            m.set(&d.r, i, xi);
            m.set(&d.p, i, xi);
        });
        let d = self.d.clone();
        let mut rho = ex.sum("rho", n, Schedule::Static, move |m, i| {
            let ri = m.get(&d.r, i);
            m.flops(2);
            ri * ri
        });

        ex.phase("cg");
        for _ in 0..self.cfg.cg_iters {
            rho = ex.block("cg_iter", |ex| self.cg_iter(ex, rho));
        }

        // zeta = shift + 1 / (x.z); x = z / ||z||
        ex.phase("tail");
        let d = self.d.clone();
        let xz = ex.sum("xz", n, Schedule::Static, move |m, i| {
            let v = m.get(&d.x, i) * m.get(&d.z, i);
            m.flops(2);
            v
        });
        let d = self.d.clone();
        let zz = ex.sum("zz", n, Schedule::Static, move |m, i| {
            let zi = m.get(&d.z, i);
            m.flops(2);
            zi * zi
        });
        let inv_norm = 1.0 / zz.sqrt();
        let d = self.d.clone();
        ex.for_each("normalize", n, Schedule::Static, move |m, i| {
            let v = m.get(&d.z, i) * inv_norm;
            m.set(&d.x, i, v);
            m.flops(1);
        });
        self.cfg.shift + 1.0 / xz
    }

    /// One CG step from `rho = r.r`; returns the new `r.r`.
    fn cg_iter<E: Exec>(&self, ex: &mut E, rho: f64) -> f64 {
        let n = self.cfg.n;
        // q = A p
        let d = self.d.clone();
        ex.for_each("spmv", n, Schedule::Static, move |m, i| {
            let mut sum = 0.0;
            for k in d.rowstr[i]..d.rowstr[i + 1] {
                let j = m.get(&d.col, k) as usize;
                let v = m.get(&d.a, k);
                sum += v * m.get(&d.p, j);
            }
            m.flops(2 * (d.rowstr[i + 1] - d.rowstr[i]) as u64);
            m.set(&d.q, i, sum);
        });
        // alpha = rho / (p.q)
        let d = self.d.clone();
        let pq = ex.sum("pq", n, Schedule::Static, move |m, i| {
            let v = m.get(&d.p, i) * m.get(&d.q, i);
            m.flops(2);
            v
        });
        let alpha = rho / pq;
        // z += alpha p; r -= alpha q; rho' = r.r
        let d = self.d.clone();
        let rho_new = ex.sum("rho_new", n, Schedule::Static, move |m, i| {
            let pi = m.get(&d.p, i);
            m.update(&d.z, i, |zi| zi + alpha * pi);
            let qi = m.get(&d.q, i);
            let ri = m.get(&d.r, i) - alpha * qi;
            m.set(&d.r, i, ri);
            m.flops(6);
            ri * ri
        });
        let beta = rho_new / rho;
        // p = r + beta p
        let d = self.d.clone();
        ex.for_each("p_update", n, Schedule::Static, move |m, i| {
            let v = m.get(&d.r, i) + beta * m.get(&d.p, i);
            m.set(&d.p, i, v);
            m.flops(2);
        });
        rho_new
    }

    /// Host-only reference run of the identical algorithm — used by
    /// `verify` to check that the simulated data plane produced exactly the
    /// arithmetic it should have. Dot products use the same 16-way blocked
    /// reduction as the OpenMP `REDUCTION` clause, so the floating-point
    /// summation order matches bit-for-bit.
    fn host_reference_zetas(&self, outer_plus_cold: usize) -> Vec<f64> {
        let n = self.cfg.n;
        // Mirror of the runtime's static-schedule reduction: per-thread
        // block partials folded in thread order onto the identity.
        let blocked_dot = |f: &dyn Fn(usize) -> f64| -> f64 {
            let threads = 16;
            let block = n.div_ceil(threads).max(1);
            let mut total = 0.0;
            for t in 0..threads {
                let (start, end) = ((t * block).min(n), ((t + 1) * block).min(n));
                if start >= end {
                    continue;
                }
                let mut acc = 0.0;
                for i in start..end {
                    acc += f(i);
                }
                total += acc;
            }
            total
        };
        let mut x = vec![1.0f64; n];
        let mut zetas = Vec::new();
        for _ in 0..outer_plus_cold {
            let mut z = vec![0.0; n];
            let mut r = x.clone();
            let mut p = x.clone();
            let mut rho: f64 = blocked_dot(&|i| r[i] * r[i]);
            for _ in 0..self.cfg.cg_iters {
                let mut q = vec![0.0; n];
                for i in 0..n {
                    let mut sum = 0.0;
                    for k in self.d.rowstr[i]..self.d.rowstr[i + 1] {
                        sum += self.host_val[k] * p[self.host_col[k] as usize];
                    }
                    q[i] = sum;
                }
                let pq = blocked_dot(&|i| p[i] * q[i]);
                let alpha = rho / pq;
                for i in 0..n {
                    z[i] += alpha * p[i];
                    r[i] -= alpha * q[i];
                }
                let rho_new = blocked_dot(&|i| r[i] * r[i]);
                let beta = rho_new / rho;
                rho = rho_new;
                for i in 0..n {
                    p[i] = r[i] + beta * p[i];
                }
            }
            let xz = blocked_dot(&|i| x[i] * z[i]);
            let zz = blocked_dot(&|i| z[i] * z[i]);
            zetas.push(self.cfg.shift + 1.0 / xz);
            let inv_norm = 1.0 / zz.sqrt();
            for i in 0..n {
                x[i] = z[i] * inv_norm;
            }
        }
        zetas
    }
}

impl NasBenchmark for Cg {
    fn name(&self) -> BenchName {
        BenchName::Cg
    }

    fn boxed_clone(&self) -> Box<dyn NasBenchmark> {
        Box::new(Cg {
            cfg: self.cfg,
            d: Rc::new((*self.d).clone()),
            host_col: self.host_col.clone(),
            host_val: self.host_val.clone(),
            zetas: self.zetas.clone(),
        })
    }

    fn problem(&self) -> String {
        format!("{:?}", self.cfg)
    }

    fn iterations(&self) -> usize {
        self.cfg.outer
    }

    fn cold_start(&mut self, rt: &mut Runtime) {
        self.cold(rt);
    }

    fn iterate(&mut self, rt: &mut Runtime, _hook: &mut PhaseHook<'_>) {
        let zeta = self.step(rt);
        self.zetas.push(zeta);
    }

    fn hot_arrays(&self) -> Vec<ArrayLayout> {
        let d = &self.d;
        let mut arrays = vec![d.a.layout(), d.col.layout()];
        arrays.extend([&d.x, &d.z, &d.p, &d.q, &d.r].map(|v| v.layout()));
        arrays
    }

    fn verify(&self) -> Verification {
        let outer = self.zetas.len();
        let reference = facts::reference(self, outer, || self.host_reference_zetas(outer));
        let value = self.zetas.last().copied().unwrap_or(f64::NAN);
        let expect = reference.last().copied().unwrap_or(f64::NAN);
        Verification::check(value, expect, 1e-10)
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

    fn tiny_rt() -> Runtime {
        Runtime::new(Machine::new(MachineConfig::origin2000_16p()))
    }

    #[test]
    fn matrix_is_symmetric_and_diag_dominant() {
        let cfg = CgConfig::for_scale(Scale::Tiny);
        let csr = make_matrix(&cfg);
        let n = cfg.n;
        // Dense mirror for checking.
        let mut dense = vec![0.0f64; n * n];
        for i in 0..n {
            for k in csr.rowstr[i]..csr.rowstr[i + 1] {
                dense[i * n + csr.col[k] as usize] = csr.val[k];
            }
        }
        for i in 0..n {
            let mut off = 0.0;
            for j in 0..n {
                assert_eq!(dense[i * n + j], dense[j * n + i], "symmetry at ({i},{j})");
                if i != j {
                    off += dense[i * n + j].abs();
                }
            }
            assert!(dense[i * n + i] > off, "row {i} not dominant");
        }
    }

    #[test]
    fn cg_converges_and_verifies() {
        let mut rt = tiny_rt();
        let mut cg = Cg::new(&mut rt, Scale::Tiny);
        cg.cold_start(&mut rt);
        let mut hook = no_phase_hook();
        for _ in 0..cg.iterations() {
            cg.iterate(&mut rt, &mut hook);
        }
        let v = cg.verify();
        assert!(
            v.passed,
            "zeta {} vs host reference {}",
            v.value, v.reference
        );
        assert!(v.value.is_finite());
        // zeta should be settling (successive deltas shrink).
        let z = &cg.zetas;
        assert!(z.len() >= 3);
        let d1 = (z[1] - z[0]).abs();
        let d2 = (z[z.len() - 1] - z[z.len() - 2]).abs();
        assert!(d2 <= d1, "zeta not settling: {z:?}");
    }

    #[test]
    fn a_perturbed_zeta_fails_against_the_shared_reference() {
        let mut rt = tiny_rt();
        let mut cg = Cg::new(&mut rt, Scale::Tiny);
        cg.cold_start(&mut rt);
        let mut hook = no_phase_hook();
        for _ in 0..cg.iterations() {
            cg.iterate(&mut rt, &mut hook);
        }
        assert!(cg.verify().passed);
        let held = facts::reference(&cg, cg.zetas.len(), || unreachable!("verify derived it"));
        *cg.zetas.last_mut().expect("iterated") += 1e-6;
        let v = cg.verify();
        assert!(!v.passed, "zeta {} passed against {}", v.value, v.reference);
        assert_eq!(v.reference, held[held.len() - 1]);
    }

    #[test]
    fn cold_start_distributes_pages_first_touch() {
        let mut rt = tiny_rt();
        let mut cg = Cg::new(&mut rt, Scale::Tiny);
        cg.cold_start(&mut rt);
        // x is partitioned over 16 threads across 8 nodes; its pages should
        // not all be on one node... for Tiny (192 elements = 1 page) at
        // least the page exists. Check the big matrix array instead.
        let (base, len) = cg.d.a.vrange();
        let homes: Vec<_> = ccnuma::vpages(base, len)
            .filter_map(|vp| rt.machine().node_of_vpage(vp))
            .collect();
        assert!(!homes.is_empty());
    }

    #[test]
    fn deterministic_zetas() {
        let run = || {
            let mut rt = tiny_rt();
            let mut cg = Cg::new(&mut rt, Scale::Tiny);
            cg.cold_start(&mut rt);
            let mut hook = no_phase_hook();
            cg.iterate(&mut rt, &mut hook);
            (cg.zetas[0], rt.machine().clock().now_ns())
        };
        assert_eq!(run(), run());
    }
}
