//! NAS FT: 3-D fast Fourier transform with spectral evolution.
//!
//! Structure follows the NAS benchmark: a random complex field is
//! transformed to frequency space once; each timed iteration multiplies the
//! spectrum by decaying evolution factors (`evolve`), inverse-transforms it
//! back (three 1-D FFT passes, one per dimension), and accumulates a
//! checksum over scattered indices.
//!
//! Parallel structure: the x- and y-direction FFT passes parallelize over
//! z-planes (local to a thread's z-slab under first-touch); the z-direction
//! pass parallelizes over y and walks across all z-slabs — FT's all-to-all
//! flavour, and the reason the paper finds FT the most placement-sensitive
//! of the random-placement cases and the one where kernel migration hurts
//! (page-level false sharing between pass directions).

use crate::common::{BenchName, NasBenchmark, PhaseHook, Scale, Verification};
use crate::facts;
use crate::la::{FftPlan, C64};
use crate::model::{Arr, Describe, Exec, KernelModel, Mem};
use ccnuma::{ArrayLayout, SimArray};
use omp::{Runtime, Schedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// FT problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct FtConfig {
    /// Grid edge (power of two); the grid is `n^3` complex values.
    pub n: usize,
    /// Timed iterations (NAS Class A uses 6).
    pub niter: usize,
    /// Evolution decay constant (NAS alpha = 1e-6).
    pub alpha: f64,
    /// RNG seed for the initial field.
    pub seed: u64,
}

impl FtConfig {
    /// Parameters for a scale class.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => Self {
                n: 8,
                niter: 3,
                alpha: 1e-3,
                seed: 314159,
            },
            Scale::Small => Self {
                n: 64,
                niter: 2,
                alpha: 1e-3,
                seed: 314159,
            },
            Scale::Medium => Self {
                n: 64,
                niter: 6,
                alpha: 1e-3,
                seed: 314159,
            },
        }
    }
}

/// The FT benchmark instance.
pub struct Ft {
    cfg: FtConfig,
    /// Frequency-space field (forward transform of the initial conditions).
    u0: Arr<C64>,
    /// Working field: evolved spectrum, then its inverse transform.
    u1: Arr<C64>,
    /// Host copy of the initial conditions, for verification.
    host_init: Vec<C64>,
    /// Checksum after each timed iteration.
    checksums: Vec<C64>,
    /// Whether the one-time forward transform has run.
    transformed: bool,
}

impl Ft {
    /// Allocate and initialize on the runtime's machine.
    pub fn new(rt: &mut Runtime, scale: Scale) -> Self {
        Self::with_config(rt, FtConfig::for_scale(scale))
    }

    /// Allocate with explicit parameters.
    pub fn with_config(rt: &mut Runtime, cfg: FtConfig) -> Self {
        assert!(
            cfg.n.is_power_of_two(),
            "FT grid edge must be a power of two"
        );
        let len = cfg.n * cfg.n * cfg.n;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let host_init: Vec<C64> = (0..len)
            .map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let m = rt.machine_mut();
        let init = host_init.clone();
        let u0 = Rc::new(SimArray::from_fn(m, "ft.u0", len, |i| init[i]));
        let u1 = Rc::new(SimArray::new(m, "ft.u1", len, (0.0, 0.0)));
        Self {
            cfg,
            u0,
            u1,
            host_init,
            checksums: Vec::new(),
            transformed: false,
        }
    }

    /// Problem parameters.
    pub fn config(&self) -> &FtConfig {
        &self.cfg
    }

    #[inline(always)]
    fn idx(n: usize, x: usize, y: usize, z: usize) -> usize {
        (z * n + y) * n + x
    }

    /// Index of point `k` of the pencil along `axis` (0 = x, 1 = y, 2 = z)
    /// whose two fixed coordinates are `(o, s)`.
    #[inline(always)]
    fn pencil(n: usize, axis: usize, o: usize, s: usize, k: usize) -> usize {
        match axis {
            0 => Self::idx(n, k, s, o),
            1 => Self::idx(n, s, k, o),
            _ => Self::idx(n, s, o, k),
        }
    }

    /// Full 3-D FFT of `arr` in place: one 1-D pass per axis, the loops
    /// named `{prefix}_pass{axis}`.
    fn fft3d<E: Exec>(ex: &mut E, prefix: &str, arr: &Arr<C64>, n: usize, inverse: bool) {
        let plan = Rc::new(FftPlan::new(n, inverse));
        for axis in 0..3 {
            // Pencil gather/compute/scatter. The x and y passes parallelize
            // over z (slab-local); the z pass parallelizes over y
            // (slab-crossing).
            let (arr, plan) = (arr.clone(), plan.clone());
            let name = format!("{prefix}_pass{axis}");
            ex.for_each(&name, n, Schedule::Static, move |m, o| {
                let mut line = vec![(0.0, 0.0); n];
                for s in 0..n {
                    for (k, slot) in line.iter_mut().enumerate() {
                        *slot = m.get(&arr, Self::pencil(n, axis, o, s, k));
                    }
                    let mut flops = 0;
                    m.host(|| {
                        let _hp = hostprof::span_hot("nas.line_solve");
                        flops = plan.run(&mut line);
                    });
                    m.flops(flops);
                    for (k, slot) in line.iter().enumerate() {
                        m.set(&arr, Self::pencil(n, axis, o, s, k), *slot);
                    }
                }
            });
        }
    }

    /// Squared "wavenumber" of a grid index (symmetric about n/2, as NAS).
    #[inline]
    fn k2(n: usize, i: usize) -> f64 {
        let k = if i > n / 2 {
            i as isize - n as isize
        } else {
            i as isize
        };
        (k * k) as f64
    }

    /// The cold start: the one-time forward transform of the initial
    /// conditions plus one full evolve/inverse/checksum pass fault every
    /// page through the real parallel constructs. The spectral field u0 it
    /// produces is *kept* (it is the benchmark input); the u1 working state
    /// is overwritten by the first timed iteration.
    fn cold<E: Exec>(&self, ex: &mut E) {
        ex.phase("fft_forward");
        Self::fft3d(ex, "fft", &self.u0, self.cfg.n, false);
        self.step(ex, 1);
    }

    /// Timed iteration `t`: evolve the spectrum to time `t`, transform it
    /// back, checksum the result.
    fn step<E: Exec>(&self, ex: &mut E, t: usize) -> C64 {
        ex.block("step", |ex| self.evolve_and_invert(ex, t))
    }

    /// The text of [`Ft::step`]: `t` scales the evolution factors only.
    fn evolve_and_invert<E: Exec>(&self, ex: &mut E, t: usize) -> C64 {
        let n = self.cfg.n;
        let alpha = self.cfg.alpha;

        // u1 = u0 * exp(-alpha * t * |k|^2) — the spectral evolution step.
        ex.phase("evolve");
        let (u0, u1) = (self.u0.clone(), self.u1.clone());
        ex.for_each("evolve", n, Schedule::Static, move |m, z| {
            for y in 0..n {
                for x in 0..n {
                    let k2 = Self::k2(n, x) + Self::k2(n, y) + Self::k2(n, z);
                    let factor = (-alpha * t as f64 * k2).exp();
                    let i = Self::idx(n, x, y, z);
                    let v = m.get(&u0, i);
                    m.set(&u1, i, (v.0 * factor, v.1 * factor));
                    m.flops(12);
                }
            }
        });

        ex.phase("fft_inverse");
        Self::fft3d(ex, "ifft", &self.u1, n, true);

        // NAS-style checksum: sum of 1024 scattered elements of `u1`, done
        // by the master thread.
        ex.phase("checksum");
        let len = n * n * n;
        let u1 = self.u1.clone();
        ex.serial("checksum", move |m| {
            let mut sum = (0.0, 0.0);
            for j in 1..=1024u64 {
                let q = (j.wrapping_mul(j).wrapping_add(j * 5)) as usize % len;
                let v = m.get(&u1, q);
                sum.0 += v.0;
                sum.1 += v.1;
                m.flops(2);
            }
            (sum.0 / len as f64, sum.1 / len as f64)
        })
    }

    /// Host-only reference of the full pipeline, for verification.
    fn host_reference_checksums(&self, iters: usize) -> Vec<C64> {
        let n = self.cfg.n;
        let len = n * n * n;
        let mut u0 = self.host_init.clone();
        // Forward 3-D FFT.
        host_fft3d(&mut u0, n, false);
        let mut sums = Vec::new();
        for t in 1..=iters {
            let mut u1: Vec<C64> = u0
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let x = i % n;
                    let y = (i / n) % n;
                    let z = i / (n * n);
                    let k2 = Self::k2(n, x) + Self::k2(n, y) + Self::k2(n, z);
                    let f = (-self.cfg.alpha * t as f64 * k2).exp();
                    (v.0 * f, v.1 * f)
                })
                .collect();
            host_fft3d(&mut u1, n, true);
            let mut sum = (0.0, 0.0);
            for j in 1..=1024u64 {
                let q = (j.wrapping_mul(j).wrapping_add(j * 5)) as usize % len;
                sum.0 += u1[q].0;
                sum.1 += u1[q].1;
            }
            sums.push((sum.0 / len as f64, sum.1 / len as f64));
        }
        sums
    }
}

/// Host-side 3-D FFT used by verification.
fn host_fft3d(data: &mut [C64], n: usize, inverse: bool) {
    let plan = FftPlan::new(n, inverse);
    let mut line = vec![(0.0, 0.0); n];
    for axis in 0..3 {
        for o in 0..n {
            for s in 0..n {
                for (k, slot) in line.iter_mut().enumerate() {
                    *slot = data[Ft::pencil(n, axis, o, s, k)];
                }
                plan.run(&mut line);
                for (k, slot) in line.iter().enumerate() {
                    data[Ft::pencil(n, axis, o, s, k)] = *slot;
                }
            }
        }
    }
}

impl NasBenchmark for Ft {
    fn name(&self) -> BenchName {
        BenchName::Ft
    }

    fn boxed_clone(&self) -> Box<dyn NasBenchmark> {
        Box::new(Ft {
            cfg: self.cfg,
            u0: Rc::new((*self.u0).clone()),
            u1: Rc::new((*self.u1).clone()),
            host_init: self.host_init.clone(),
            checksums: self.checksums.clone(),
            transformed: self.transformed,
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
        self.transformed = true;
    }

    fn iterate(&mut self, rt: &mut Runtime, _hook: &mut PhaseHook<'_>) {
        assert!(self.transformed, "cold_start must run first");
        let sum = self.step(rt, self.checksums.len() + 1);
        self.checksums.push(sum);
    }

    fn hot_arrays(&self) -> Vec<ArrayLayout> {
        vec![self.u0.layout(), self.u1.layout()]
    }

    fn verify(&self) -> Verification {
        let iters = self.checksums.len();
        let reference = facts::reference(self, iters, || {
            let sums = self.host_reference_checksums(iters);
            sums.into_iter().flat_map(|(re, im)| [re, im]).collect()
        });
        match (self.checksums.last(), reference.last_chunk()) {
            (Some(&(vr, vi)), Some(&[rr, ri])) => {
                let value = (vr * vr + vi * vi).sqrt();
                let expect = (rr * rr + ri * ri).sqrt();
                let mut v = Verification::check(value, expect, 1e-9);
                // Also require the components to match, not just the norm.
                if (vr - rr).abs() > 1e-9 * (1.0 + rr.abs())
                    || (vi - ri).abs() > 1e-9 * (1.0 + ri.abs())
                {
                    v.passed = false;
                }
                v
            }
            _ => Verification::check(f64::NAN, 0.0, 1e-9),
        }
    }

    fn access_model(&self) -> KernelModel {
        Describe::kernel(self, |d| self.cold(d), |d| self.step(d, 1))
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
    fn ft_matches_host_reference() {
        let mut rt = rt();
        let mut ft = Ft::new(&mut rt, Scale::Tiny);
        ft.cold_start(&mut rt);
        let mut hook = no_phase_hook();
        for _ in 0..ft.iterations() {
            ft.iterate(&mut rt, &mut hook);
        }
        let v = ft.verify();
        assert!(
            v.passed,
            "checksum {} vs reference {}",
            v.value, v.reference
        );
    }

    #[test]
    fn a_perturbed_checksum_fails_against_the_shared_reference() {
        let mut rt = rt();
        let mut ft = Ft::new(&mut rt, Scale::Tiny);
        ft.cold_start(&mut rt);
        let mut hook = no_phase_hook();
        for _ in 0..ft.iterations() {
            ft.iterate(&mut rt, &mut hook);
        }
        assert!(ft.verify().passed);
        let held = facts::reference(&ft, ft.checksums.len(), || {
            unreachable!("verify derived it")
        });
        ft.checksums.last_mut().expect("iterated").1 += 1e-6;
        let v = ft.verify();
        assert!(
            !v.passed,
            "checksum {} passed against {}",
            v.value, v.reference
        );
        assert_eq!(held.len(), 2 * ft.checksums.len());
    }

    #[test]
    fn checksums_change_across_iterations() {
        let mut rt = rt();
        let mut ft = Ft::new(&mut rt, Scale::Tiny);
        ft.cold_start(&mut rt);
        let mut hook = no_phase_hook();
        ft.iterate(&mut rt, &mut hook);
        ft.iterate(&mut rt, &mut hook);
        assert_ne!(ft.checksums[0], ft.checksums[1]);
    }

    #[test]
    fn simulated_fft3d_roundtrip() {
        let mut rt = rt();
        let cfg = FtConfig {
            n: 8,
            niter: 1,
            alpha: 1e-3,
            seed: 1,
        };
        let ft = Ft::with_config(&mut rt, cfg);
        let before = ft.u0.to_vec();
        Ft::fft3d(&mut rt, "fft", &ft.u0, 8, false);
        Ft::fft3d(&mut rt, "ifft", &ft.u0, 8, true);
        let after = ft.u0.to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b.0 - a.0).abs() < 1e-10 && (b.1 - a.1).abs() < 1e-10);
        }
    }

    #[test]
    fn k2_is_symmetric() {
        assert_eq!(Ft::k2(8, 1), Ft::k2(8, 7));
        assert_eq!(Ft::k2(8, 2), Ft::k2(8, 6));
        assert_eq!(Ft::k2(8, 0), 0.0);
        assert_eq!(Ft::k2(8, 4), 16.0);
    }
}
