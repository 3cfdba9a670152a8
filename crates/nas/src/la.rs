//! Host-side numerical kernels used by the benchmarks: 5x5 block
//! tridiagonal solves for BT (several lines abreast), pentadiagonal solves
//! for SP, and a radix-2 complex FFT for FT.
//!
//! These routines run on values the kernels have already read through the
//! simulated memory system; their arithmetic cost is charged as flops via
//! the per-routine `*_FLOPS` constants.

/// Block dimension of the BT solver (5 conserved quantities).
pub const B: usize = 5;

/// A 5x5 block stored row-major.
pub type Block = [f64; B * B];

/// A length-5 block vector.
pub type BVec = [f64; B];

/// `L` 5x5 blocks side by side, stored element-major: entry `(r, c)` of
/// lane `l` is `[r * B + c][l]`, so one entry of every lane is one
/// contiguous `[f64; L]`.
pub type LaneBlock<const L: usize> = [[f64; L]; B * B];

/// `L` block vectors side by side, element-major.
pub type LaneVec<const L: usize> = [[f64; L]; B];

/// Approximate flop cost of one 5x5 Gauss-Jordan inversion.
pub const INV5_FLOPS: u64 = 2 * (B * B * B) as u64;
/// Approximate flop cost of one 5x5 by 5x5 multiply.
pub const MATMUL5_FLOPS: u64 = 2 * (B * B * B) as u64;
/// Approximate flop cost of one 5x5 by 5-vector multiply.
pub const MATVEC5_FLOPS: u64 = 2 * (B * B) as u64;

/// `m * v` per lane. Each sum starts from `-0.0`, as `Iterator::sum` does.
#[inline(always)]
fn matvec<const L: usize>(m: &LaneBlock<L>, v: &LaneVec<L>) -> LaneVec<L> {
    let mut out = [[-0.0; L]; B];
    for (r, acc) in out.iter_mut().enumerate() {
        for (k, vk) in v.iter().enumerate() {
            let mk = m[r * B + k];
            for l in 0..L {
                acc[l] += mk[l] * vk[l];
            }
        }
    }
    out
}

/// `x` where `keep`, `+0.0` elsewhere: a bit mask rather than a branch, so
/// that a skipped term is a per-lane no-op in lockstep code.
#[inline(always)]
fn masked(x: f64, keep: bool) -> f64 {
    f64::from_bits(x.to_bits() & u64::from(keep).wrapping_neg())
}

/// `a * b` per lane, handing `put` each entry's index and value. Each sum
/// runs over `k` in order from `0.0`, and a zero factor of `a` is skipped in
/// its lane only (adding `0 * x` would propagate NaN): its term is `+0.0`
/// instead, which leaves a sum unchanged because a sum that starts from
/// `+0.0` is never `-0.0`.
#[inline(always)]
fn matmul<const L: usize>(
    a: &LaneBlock<L>,
    b: &LaneBlock<L>,
    mut put: impl FnMut(usize, [f64; L]),
) {
    for r in 0..B {
        let mut acc = [[0.0; L]; B];
        for k in 0..B {
            let av = a[r * B + k];
            for (c, o) in acc.iter_mut().enumerate() {
                let bv = b[k * B + c];
                for l in 0..L {
                    o[l] += masked(av[l] * bv[l], av[l] != 0.0);
                }
            }
        }
        for (c, o) in acc.into_iter().enumerate() {
            put(r * B + c, o);
        }
    }
}

/// `a - b` per lane.
#[inline(always)]
fn sub<const L: usize>(mut a: [f64; L], b: [f64; L]) -> [f64; L] {
    for l in 0..L {
        a[l] -= b[l];
    }
    a
}

/// `a - b` per entry and lane.
#[inline(always)]
fn vecsub<const L: usize>(mut a: LaneVec<L>, b: &LaneVec<L>) -> LaneVec<L> {
    for (x, y) in a.iter_mut().zip(b) {
        *x = sub(*x, *y);
    }
    a
}

/// Invert each lane's block of `a` into `inv` by Gauss-Jordan elimination
/// with partial pivoting, every lane choosing its own pivot rows; `a` is
/// consumed. Returns `false` when any lane's block is (numerically)
/// singular.
#[inline(always)]
fn invert<const L: usize>(a: &mut LaneBlock<L>, inv: &mut LaneBlock<L>) -> bool {
    const { assert!(B == 5) };
    for (i, e) in inv.iter_mut().enumerate() {
        *e = [if i % (B + 1) == 0 { 1.0 } else { 0.0 }; L];
    }
    // One call per column, so that every bound below is a constant.
    pivot_column::<0, L>(a, inv)
        && pivot_column::<1, L>(a, inv)
        && pivot_column::<2, L>(a, inv)
        && pivot_column::<3, L>(a, inv)
        && pivot_column::<4, L>(a, inv)
}

/// Gauss-Jordan step `COL` of [`invert`]: pivot, scale the pivot row,
/// eliminate column `COL` from every other row.
#[inline(always)]
fn pivot_column<const COL: usize, const L: usize>(
    a: &mut LaneBlock<L>,
    inv: &mut LaneBlock<L>,
) -> bool {
    // Partial pivot: the first strict maximum wins.
    let mut pivot_row = [COL; L];
    let mut pivot_val = a[COL * B + COL].map(f64::abs);
    for r in COL + 1..B {
        let v = a[r * B + COL].map(f64::abs);
        for l in 0..L {
            if v[l] > pivot_val[l] {
                pivot_val[l] = v[l];
                pivot_row[l] = r;
            }
        }
    }
    if pivot_val.iter().any(|&v| v < 1e-300) {
        return false;
    }
    // Columns of `a` left of `COL` are never read again, so eliminated
    // columns are neither swapped, scaled nor updated.
    for (l, &p) in pivot_row.iter().enumerate() {
        if p != COL {
            for c in COL..B {
                let t = a[COL * B + c][l];
                a[COL * B + c][l] = a[p * B + c][l];
                a[p * B + c][l] = t;
            }
            for c in 0..B {
                let t = inv[COL * B + c][l];
                inv[COL * B + c][l] = inv[p * B + c][l];
                inv[p * B + c][l] = t;
            }
        }
    }
    let p = a[COL * B + COL];
    for c in COL + 1..B {
        for l in 0..L {
            a[COL * B + c][l] /= p[l];
        }
    }
    for c in 0..B {
        for l in 0..L {
            inv[COL * B + c][l] /= p[l];
        }
    }
    for r in 0..B {
        if r == COL {
            continue;
        }
        // A zero factor leaves its lane's row as it is: subtracting `+0.0`
        // is the identity on every value, `-0.0` included.
        let f = a[r * B + COL];
        let eliminate = |x: &mut [f64; L], pivot: [f64; L]| {
            for l in 0..L {
                x[l] -= masked(f[l] * pivot[l], f[l] != 0.0);
            }
        };
        for c in COL + 1..B {
            let pivot = a[COL * B + c];
            eliminate(&mut a[r * B + c], pivot);
        }
        for c in 0..B {
            let pivot = inv[COL * B + c];
            eliminate(&mut inv[r * B + c], pivot);
        }
    }
    true
}

/// Solve `L` independent block-tridiagonal systems in lockstep (the Thomas
/// algorithm with 5x5 blocks), each lane performing exactly the operations
/// a one-lane solve of its system performs:
/// `lower[i-1] X[i-1] + diag[i] X[i] + upper[i] X[i+1] = R[i]` for
/// `i = 0..n`, so `lower` and `upper` hold `n - 1` blocks each. `rhs` is
/// overwritten with the solutions; `cp` is scratch for at least `n - 1`
/// blocks. Returns the flops one lane spent, or `None` on a singular pivot
/// in any lane.
pub fn block_tridiag_lanes<const L: usize>(
    lower: &[LaneBlock<L>],
    diag: &[LaneBlock<L>],
    upper: &[LaneBlock<L>],
    rhs: &mut [LaneVec<L>],
    cp: &mut [LaneBlock<L>],
) -> Option<u64> {
    let n = diag.len();
    let coupled = n.saturating_sub(1);
    assert!(lower.len() == coupled && upper.len() == coupled && rhs.len() == n);
    assert!(cp.len() >= coupled);
    if n == 0 {
        return Some(0);
    }
    // Forward elimination: cp[i] = pivot^-1 * upper[i]; rhs[i] = pivot^-1 * (...).
    // The first row's `cp` product is charged even when there is no
    // upper block to multiply.
    let (mut pivot, mut pivot_inv) = (diag[0], [[0.0; L]; B * B]);
    if !invert(&mut pivot, &mut pivot_inv) {
        return None;
    }
    let mut flops = INV5_FLOPS + MATMUL5_FLOPS + MATVEC5_FLOPS;
    if n > 1 {
        matmul(&pivot_inv, &upper[0], |e, x| cp[0][e] = x);
    }
    rhs[0] = matvec(&pivot_inv, &rhs[0]);
    for i in 1..n {
        matmul(&lower[i - 1], &cp[i - 1], |e, x| {
            pivot[e] = sub(diag[i][e], x)
        });
        if !invert(&mut pivot, &mut pivot_inv) {
            return None;
        }
        flops += MATMUL5_FLOPS + INV5_FLOPS;
        if i + 1 < n {
            let cpi = &mut cp[i];
            matmul(&pivot_inv, &upper[i], |e, x| cpi[e] = x);
            flops += MATMUL5_FLOPS;
        }
        let r = vecsub(rhs[i], &matvec(&lower[i - 1], &rhs[i - 1]));
        rhs[i] = matvec(&pivot_inv, &r);
        flops += 2 * MATVEC5_FLOPS;
    }
    // Back substitution.
    for i in (0..n - 1).rev() {
        let correction = matvec(&cp[i], &rhs[i + 1]);
        rhs[i] = vecsub(rhs[i], &correction);
        flops += MATVEC5_FLOPS;
    }
    Some(flops)
}

/// Solve one block-tridiagonal system in place, the one-lane
/// [`block_tridiag_lanes`]: `A[i] X[i-1] + Bd[i] X[i] + C[i] X[i+1] = R[i]`
/// for `i = 0..n` (with `A[0]` and `C[n-1]` ignored). `rhs` is overwritten
/// with the solution. Returns the flops spent, or `None` on a singular
/// pivot.
pub fn block_tridiag_solve(
    a: &[Block],
    bd: &[Block],
    c: &[Block],
    rhs: &mut [BVec],
) -> Option<u64> {
    let n = bd.len();
    assert!(a.len() == n && c.len() == n && rhs.len() == n);
    let coupled = n.saturating_sub(1);
    let lane = |b: &Block| b.map(|x| [x]);
    let lower: Vec<LaneBlock<1>> = a.iter().skip(1).map(lane).collect();
    let diag: Vec<LaneBlock<1>> = bd.iter().map(lane).collect();
    let upper: Vec<LaneBlock<1>> = c[..coupled].iter().map(lane).collect();
    let mut x: Vec<LaneVec<1>> = rhs.iter().map(|v| v.map(|e| [e])).collect();
    let mut cp = vec![[[0.0; 1]; B * B]; coupled];
    let flops = block_tridiag_lanes(&lower, &diag, &upper, &mut x, &mut cp)?;
    for (r, v) in rhs.iter_mut().zip(&x) {
        *r = v.map(|[e]| e);
    }
    Some(flops)
}

/// Solve a scalar pentadiagonal system in place:
/// `e[i] x[i-2] + a[i] x[i-1] + d[i] x[i] + c[i] x[i+1] + f[i] x[i+2] = r[i]`.
/// Bands outside the matrix are ignored. `r` is overwritten with the
/// solution, and `a`, `d` and `c` are the caller's scratch: the elimination
/// works in them. Returns flops, or `None` on a zero pivot. Plain Gaussian
/// elimination without pivoting — valid for the diagonally dominant systems
/// SP assembles.
#[allow(clippy::many_single_char_names)]
pub fn penta_solve(
    e: &[f64],
    a: &mut [f64],
    d: &mut [f64],
    c: &mut [f64],
    f: &[f64],
    r: &mut [f64],
) -> Option<u64> {
    let n = d.len();
    assert!(e.len() == n && a.len() == n && c.len() == n && f.len() == n && r.len() == n);
    if n == 0 {
        return Some(0);
    }
    // Pentadiagonal Gaussian elimination generates no fill-in: eliminating
    // the two sub-band entries of column i with row i (whose nonzeros sit at
    // columns i..i+2) only touches columns i+1 and i+2 of rows i+1 and i+2,
    // which are inside their bands. The outermost bands are never modified.
    let mut flops = 0u64;
    for i in 0..n {
        if d[i].abs() < 1e-300 {
            return None;
        }
        // Eliminate row i+1's column-i entry (the a band).
        if i + 1 < n {
            let m1 = a[i + 1] / d[i];
            d[i + 1] -= m1 * c[i];
            c[i + 1] -= m1 * f[i]; // row i+1, column i+2
            r[i + 1] -= m1 * r[i];
            flops += 7;
        }
        // Eliminate row i+2's column-i entry (the e band).
        if i + 2 < n {
            let m2 = e[i + 2] / d[i];
            a[i + 2] -= m2 * c[i]; // row i+2, column i+1
            d[i + 2] -= m2 * f[i]; // row i+2, column i+2
            r[i + 2] -= m2 * r[i];
            flops += 7;
        }
    }
    // Back substitution against the upper-triangular band {d, c, f}.
    r[n - 1] /= d[n - 1];
    if n >= 2 {
        r[n - 2] = (r[n - 2] - c[n - 2] * r[n - 1]) / d[n - 2];
    }
    for i in (0..n.saturating_sub(2)).rev() {
        r[i] = (r[i] - c[i] * r[i + 1] - f[i] * r[i + 2]) / d[i];
        flops += 5;
    }
    Some(flops)
}

/// Complex number as a pair (re, im).
pub type C64 = (f64, f64);

#[inline]
fn cadd(a: C64, b: C64) -> C64 {
    (a.0 + b.0, a.1 + b.1)
}

#[inline]
fn csub(a: C64, b: C64) -> C64 {
    (a.0 - b.0, a.1 - b.1)
}

#[inline]
fn cmul(a: C64, b: C64) -> C64 {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// A radix-2 decimation-in-time FFT of one power-of-two length and
/// direction, with its twiddle factors built once: for each stage
/// `len = 2, 4, …, n`, the factors `w(0) = 1`, `w(k + 1) = w(k) * wlen` for
/// `k < len / 2`, `wlen = exp(∓2πi / len)` — the recurrence a transform
/// would otherwise run per butterfly group, so every line transformed with
/// the plan sees the same factors bit for bit.
pub struct FftPlan {
    n: usize,
    inverse: bool,
    /// Stage `len`'s factors at `len / 2 - 1 .. len - 1`.
    twiddles: Vec<C64>,
}

impl FftPlan {
    /// The plan for length `n`; `inverse` selects the inverse transform
    /// (including the 1/n scaling).
    pub fn new(n: usize, inverse: bool) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = (ang.cos(), ang.sin());
            let mut w = (1.0, 0.0);
            for _ in 0..len / 2 {
                twiddles.push(w);
                w = cmul(w, wlen);
            }
            len <<= 1;
        }
        Self {
            n,
            inverse,
            twiddles,
        }
    }

    /// Every stage's twiddle factors, stage by stage.
    pub fn twiddles(&self) -> &[C64] {
        &self.twiddles
    }

    /// Transform `data` (of the plan's length) in place. Returns the flop
    /// count, the twiddle recurrence's included.
    pub fn run(&self, data: &mut [C64]) -> u64 {
        let n = self.n;
        assert_eq!(data.len(), n, "FFT plan for another length");
        if n <= 1 {
            return 0;
        }
        // Bit-reversal permutation.
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut len = 2;
        let mut flops = 0u64;
        while len <= n {
            let half = len / 2;
            let w = &self.twiddles[half - 1..len - 1];
            for group in data.chunks_exact_mut(len) {
                let (lo, hi) = group.split_at_mut(half);
                for ((u, v), &wk) in lo.iter_mut().zip(hi.iter_mut()).zip(w) {
                    let (a, b) = (*u, cmul(*v, wk));
                    *u = cadd(a, b);
                    *v = csub(a, b);
                }
            }
            flops += 16 * (n / 2) as u64;
            len <<= 1;
        }
        if self.inverse {
            let inv_n = 1.0 / n as f64;
            for d in data.iter_mut() {
                d.0 *= inv_n;
                d.1 *= inv_n;
            }
            flops += 2 * n as u64;
        }
        flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fft_inplace(data: &mut [C64], inverse: bool) -> u64 {
        FftPlan::new(data.len(), inverse).run(data)
    }

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() <= eps * (1.0 + a.abs().max(b.abs()))
    }

    fn one(b: &Block) -> LaneBlock<1> {
        b.map(|x| [x])
    }

    fn scalar<const N: usize>(b: &[[f64; 1]; N]) -> [f64; N] {
        b.map(|[x]| x)
    }

    fn matmul5(a: &Block, b: &Block) -> Block {
        let mut out = [0.0; B * B];
        matmul(&one(a), &one(b), |e, [x]| out[e] = x);
        out
    }

    fn identity(s: f64) -> Block {
        std::array::from_fn(|i| if i % (B + 1) == 0 { s } else { 0.0 })
    }

    fn matvec5(m: &Block, v: &BVec) -> BVec {
        scalar(&matvec(&one(m), &v.map(|x| [x])))
    }

    #[test]
    fn inv5_inverts() {
        // A well-conditioned test matrix.
        let mut m: Block = [0.0; 25];
        for r in 0..B {
            for c in 0..B {
                m[r * B + c] = if r == c {
                    4.0
                } else {
                    1.0 / (1.0 + (r + 2 * c) as f64)
                };
            }
        }
        let mut inv = [[0.0; 1]; B * B];
        assert!(invert(&mut one(&m), &mut inv));
        let prod = matmul5(&m, &scalar(&inv));
        for r in 0..B {
            for c in 0..B {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!(
                    approx(prod[r * B + c], expect, 1e-12),
                    "({r},{c}) = {}",
                    prod[r * B + c]
                );
            }
        }
    }

    #[test]
    fn inv5_detects_singular() {
        let m: Block = [0.0; 25];
        assert!(!invert(&mut one(&m), &mut [[0.0; 1]; B * B]));
    }

    #[test]
    fn matvec_and_matmul_agree_with_manual() {
        let mut a: Block = [0.0; 25];
        a[0] = 2.0; // a[0][0]
        a[6] = 3.0; // a[1][1]
        let v: BVec = [1.0, 2.0, 0.0, 0.0, 0.0];
        let out = matvec5(&a, &v);
        assert_eq!(out, [2.0, 6.0, 0.0, 0.0, 0.0]);
        assert_eq!(matmul5(&a, &identity(1.0)), a);
    }

    #[test]
    fn a_zero_factor_is_skipped_in_its_lane_only() {
        // Lane 0 multiplies an infinity by a zero factor, lane 1 by a
        // nonzero one: the scalar text skips the first term, so only lane 1
        // overflows.
        let mut a = [[1.0; 2]; B * B];
        a[0] = [0.0, 1.0];
        let mut b = [[1.0; 2]; B * B];
        b[0] = [f64::INFINITY; 2];
        let mut out = [[0.0; 2]; B * B];
        matmul(&a, &b, |e, x| out[e] = x);
        assert_eq!(out[0], [4.0, f64::INFINITY]);
        assert_eq!(out[1], [4.0, 5.0]);
    }

    #[test]
    fn block_tridiag_solves_known_system() {
        // Build a random-ish diagonally dominant block tridiagonal system,
        // multiply a known solution, and recover it.
        let n = 12;
        let mk = |seed: usize| -> Block {
            let mut m = identity(6.0 + (seed % 3) as f64);
            for r in 0..B {
                for c in 0..B {
                    if r != c {
                        m[r * B + c] = ((seed * 31 + r * 7 + c * 13) % 10) as f64 * 0.05;
                    }
                }
            }
            m
        };
        let off = |seed: usize| -> Block {
            let mut m = [0.0; 25];
            for r in 0..B {
                for c in 0..B {
                    m[r * B + c] = ((seed * 17 + r * 3 + c * 11) % 7) as f64 * 0.04 - 0.1;
                }
            }
            m
        };
        let a: Vec<Block> = (0..n).map(|i| off(i + 100)).collect();
        let bd: Vec<Block> = (0..n).map(mk).collect();
        let c: Vec<Block> = (0..n).map(|i| off(i + 500)).collect();
        let x_true: Vec<BVec> = (0..n)
            .map(|i| std::array::from_fn(|k| ((i * 5 + k) % 9) as f64 * 0.3 - 1.0))
            .collect();
        // rhs = A x.
        let mut rhs: Vec<BVec> = vec![[0.0; B]; n];
        for i in 0..n {
            let mut r = matvec5(&bd[i], &x_true[i]);
            if i > 0 {
                let t = matvec5(&a[i], &x_true[i - 1]);
                for k in 0..B {
                    r[k] += t[k];
                }
            }
            if i + 1 < n {
                let t = matvec5(&c[i], &x_true[i + 1]);
                for k in 0..B {
                    r[k] += t[k];
                }
            }
            rhs[i] = r;
        }
        let flops = block_tridiag_solve(&a, &bd, &c, &mut rhs).unwrap();
        assert!(flops > 0);
        for i in 0..n {
            for k in 0..B {
                assert!(
                    approx(rhs[i][k], x_true[i][k], 1e-9),
                    "x[{i}][{k}] = {} want {}",
                    rhs[i][k],
                    x_true[i][k]
                );
            }
        }
    }

    #[test]
    fn block_tridiag_n1() {
        let bd = vec![identity(2.0)];
        let a = vec![[0.0; 25]];
        let c = vec![[0.0; 25]];
        let mut rhs = vec![[2.0, 4.0, 6.0, 8.0, 10.0]];
        block_tridiag_solve(&a, &bd, &c, &mut rhs).unwrap();
        assert_eq!(rhs[0], [1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn penta_solves_known_system() {
        let n = 20;
        // Diagonally dominant pentadiagonal matrix.
        let e: Vec<f64> = (0..n)
            .map(|i| if i >= 2 { -0.1 - 0.01 * i as f64 } else { 0.0 })
            .collect();
        let a: Vec<f64> = (0..n)
            .map(|i| if i >= 1 { -0.5 + 0.02 * i as f64 } else { 0.0 })
            .collect();
        let d: Vec<f64> = (0..n).map(|i| 4.0 + 0.1 * (i % 5) as f64).collect();
        let c: Vec<f64> = (0..n)
            .map(|i| {
                if i + 1 < n {
                    -0.4 - 0.01 * i as f64
                } else {
                    0.0
                }
            })
            .collect();
        let f: Vec<f64> = (0..n)
            .map(|i| {
                if i + 2 < n {
                    0.2 + 0.005 * i as f64
                } else {
                    0.0
                }
            })
            .collect();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 * 0.25 - 1.0).collect();
        // r = M x.
        let mut r = vec![0.0; n];
        for i in 0..n {
            let mut s = d[i] * x_true[i];
            if i >= 2 {
                s += e[i] * x_true[i - 2];
            }
            if i >= 1 {
                s += a[i] * x_true[i - 1];
            }
            if i + 1 < n {
                s += c[i] * x_true[i + 1];
            }
            if i + 2 < n {
                s += f[i] * x_true[i + 2];
            }
            r[i] = s;
        }
        let (mut a, mut d, mut c) = (a, d, c);
        penta_solve(&e, &mut a, &mut d, &mut c, &f, &mut r).unwrap();
        for i in 0..n {
            assert!(
                approx(r[i], x_true[i], 1e-9),
                "x[{i}] = {} want {}",
                r[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn penta_small_sizes() {
        for n in 1..=4 {
            let e = vec![0.0; n];
            let mut a = vec![0.0; n];
            let mut d = vec![2.0; n];
            let mut c = vec![0.0; n];
            let f = vec![0.0; n];
            let mut r: Vec<f64> = (0..n).map(|i| 2.0 * (i + 1) as f64).collect();
            penta_solve(&e, &mut a, &mut d, &mut c, &f, &mut r).unwrap();
            for (i, v) in r.iter().enumerate() {
                assert!(approx(*v, (i + 1) as f64, 1e-12));
            }
        }
    }

    #[test]
    fn fft_roundtrip_is_identity() {
        let n = 64;
        let orig: Vec<C64> = (0..n)
            .map(|i| ((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut data = orig.clone();
        fft_inplace(&mut data, false);
        fft_inplace(&mut data, true);
        for i in 0..n {
            assert!(approx(data[i].0, orig[i].0, 1e-12));
            assert!(approx(data[i].1, orig[i].1, 1e-12));
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![(0.0, 0.0); 8];
        data[0] = (1.0, 0.0);
        fft_inplace(&mut data, false);
        for d in &data {
            assert!(approx(d.0, 1.0, 1e-12) && approx(d.1, 0.0, 1e-12));
        }
    }

    #[test]
    fn fft_parseval() {
        let n = 128;
        let time: Vec<C64> = (0..n)
            .map(|i| ((i as f64 * 0.7).cos(), (i as f64 * 0.3).sin()))
            .collect();
        let mut freq = time.clone();
        fft_inplace(&mut freq, false);
        let e_time: f64 = time.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum();
        let e_freq: f64 = freq.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum::<f64>() / n as f64;
        assert!(approx(e_time, e_freq, 1e-12));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut data = vec![(0.0, 0.0); 12];
        fft_inplace(&mut data, false);
    }
}
