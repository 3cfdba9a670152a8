//! Property-based tests of the numerical kernels: the solvers must solve
//! arbitrary well-conditioned systems, the FFT must be unitary, and the
//! lockstep kernels must reproduce the one-line-at-a-time text they replaced
//! bit for bit.

use nas::la::{
    block_tridiag_lanes, block_tridiag_solve, penta_solve, BVec, Block, FftPlan, LaneBlock,
    LaneVec, B, C64,
};
use oracle::{inv5, matmul5, matvec5, scaled_identity5};
use proptest::prelude::*;

/// The scalar text the lane kernels replaced, kept verbatim as their
/// oracle: one block-tridiagonal line at a time, and the FFT that runs its
/// twiddle recurrence per butterfly group.
mod oracle {
    use nas::la::{BVec, Block, B, C64, INV5_FLOPS, MATMUL5_FLOPS, MATVEC5_FLOPS};

    pub fn matvec5(m: &Block, v: &BVec) -> BVec {
        let mut out = [0.0; B];
        for (r, o) in out.iter_mut().enumerate() {
            let row = &m[r * B..(r + 1) * B];
            *o = row.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
        }
        out
    }

    pub fn matmul5(a: &Block, b: &Block) -> Block {
        let mut out = [0.0; B * B];
        for r in 0..B {
            for k in 0..B {
                let av = a[r * B + k];
                if av == 0.0 {
                    continue;
                }
                for c in 0..B {
                    out[r * B + c] += av * b[k * B + c];
                }
            }
        }
        out
    }

    fn matsub5(a: &Block, b: &Block) -> Block {
        let mut out = [0.0; B * B];
        for i in 0..B * B {
            out[i] = a[i] - b[i];
        }
        out
    }

    fn vecsub5(a: &BVec, b: &BVec) -> BVec {
        let mut out = [0.0; B];
        for i in 0..B {
            out[i] = a[i] - b[i];
        }
        out
    }

    pub fn inv5(m: &Block) -> Option<Block> {
        let mut a = *m;
        let mut inv: Block = [0.0; B * B];
        for i in 0..B {
            inv[i * B + i] = 1.0;
        }
        for col in 0..B {
            let mut pivot_row = col;
            let mut pivot_val = a[col * B + col].abs();
            for r in col + 1..B {
                let v = a[r * B + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return None;
            }
            if pivot_row != col {
                for c in 0..B {
                    a.swap(col * B + c, pivot_row * B + c);
                    inv.swap(col * B + c, pivot_row * B + c);
                }
            }
            let p = a[col * B + col];
            for c in 0..B {
                a[col * B + c] /= p;
                inv[col * B + c] /= p;
            }
            for r in 0..B {
                if r == col {
                    continue;
                }
                let f = a[r * B + col];
                if f == 0.0 {
                    continue;
                }
                for c in 0..B {
                    a[r * B + c] -= f * a[col * B + c];
                    inv[r * B + c] -= f * inv[col * B + c];
                }
            }
        }
        Some(inv)
    }

    pub fn scaled_identity5(s: f64) -> Block {
        let mut m = [0.0; B * B];
        for i in 0..B {
            m[i * B + i] = s;
        }
        m
    }

    pub fn block_tridiag_solve(
        a: &[Block],
        bd: &[Block],
        c: &[Block],
        rhs: &mut [BVec],
    ) -> Option<u64> {
        let n = bd.len();
        assert!(a.len() == n && c.len() == n && rhs.len() == n);
        if n == 0 {
            return Some(0);
        }
        let mut flops = 0u64;
        let mut cp: Vec<Block> = vec![[0.0; B * B]; n];
        let mut pivot_inv = inv5(&bd[0])?;
        flops += INV5_FLOPS;
        cp[0] = matmul5(&pivot_inv, &c[0]);
        rhs[0] = matvec5(&pivot_inv, &rhs[0]);
        flops += MATMUL5_FLOPS + MATVEC5_FLOPS;
        for i in 1..n {
            let pivot = matsub5(&bd[i], &matmul5(&a[i], &cp[i - 1]));
            pivot_inv = inv5(&pivot)?;
            flops += MATMUL5_FLOPS + INV5_FLOPS;
            if i + 1 < n {
                cp[i] = matmul5(&pivot_inv, &c[i]);
                flops += MATMUL5_FLOPS;
            }
            let r = vecsub5(&rhs[i], &matvec5(&a[i], &rhs[i - 1]));
            rhs[i] = matvec5(&pivot_inv, &r);
            flops += 2 * MATVEC5_FLOPS;
        }
        for i in (0..n - 1).rev() {
            let correction = matvec5(&cp[i], &rhs[i + 1]);
            rhs[i] = vecsub5(&rhs[i], &correction);
            flops += MATVEC5_FLOPS;
        }
        Some(flops)
    }

    fn cmul(a: C64, b: C64) -> C64 {
        (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
    }

    /// Stage `len`'s twiddle factors by the recurrence.
    pub fn twiddles(len: usize, inverse: bool) -> Vec<C64> {
        let sign = if inverse { 1.0 } else { -1.0 };
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = (ang.cos(), ang.sin());
        let mut w = (1.0, 0.0);
        (0..len / 2)
            .map(|_| {
                let wk = w;
                w = cmul(w, wlen);
                wk
            })
            .collect()
    }

    pub fn fft_inplace(data: &mut [C64], inverse: bool) -> u64 {
        let n = data.len();
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        if n <= 1 {
            return 0;
        }
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
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        let mut flops = 0u64;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = (ang.cos(), ang.sin());
            let mut i = 0;
            while i < n {
                let mut w = (1.0, 0.0);
                for k in 0..len / 2 {
                    let u = data[i + k];
                    let v = cmul(data[i + k + len / 2], w);
                    data[i + k] = (u.0 + v.0, u.1 + v.1);
                    data[i + k + len / 2] = (u.0 - v.0, u.1 - v.1);
                    w = cmul(w, wlen);
                    flops += 16;
                }
                i += len;
            }
            len <<= 1;
        }
        if inverse {
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

fn small_entry() -> impl Strategy<Value = f64> {
    -0.15f64..0.15
}

fn offdiag_block() -> impl Strategy<Value = Block> {
    proptest::array::uniform25(small_entry())
}

fn dominant_block() -> impl Strategy<Value = Block> {
    (proptest::array::uniform25(small_entry()), 3.0f64..8.0).prop_map(|(mut m, d)| {
        for i in 0..B {
            m[i * B + i] += d;
        }
        m
    })
}

fn bvec() -> impl Strategy<Value = BVec> {
    proptest::array::uniform5(-2.0f64..2.0)
}

/// One block-tridiagonal line: `(A, Bd, C, R)`, `A[0]` and `C[n-1]` unused.
type Line = (Vec<Block>, Vec<Block>, Vec<Block>, Vec<BVec>);

/// A splitmix64 stream of test values.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// In `[-scale, scale)`; with `signed_zeros`, a quarter of the draws
    /// are exactly `0.0` or `-0.0`.
    fn entry(&mut self, scale: f64, signed_zeros: bool) -> f64 {
        let bits = self.next();
        match bits % 8 {
            0 if signed_zeros => 0.0,
            1 if signed_zeros => -0.0,
            _ => ((bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale,
        }
    }

    fn block(&mut self, scale: f64, diagonal: f64, signed_zeros: bool) -> Block {
        std::array::from_fn(|i| {
            let d = if i % (B + 1) == 0 { diagonal } else { 0.0 };
            self.entry(scale, signed_zeros) + d
        })
    }
}

/// The line a lane of kind `kind` solves: 0 dense; 1 pivoting (every
/// diagonal block's rows rotated, so no column's maximum is on the diagonal,
/// and column 0's maximum magnitude tied by an earlier row); 2 sparse
/// (diagonal blocks of either sign with exactly-zero off-diagonals, so every
/// elimination factor is zero and negative pivots make signed zeros;
/// couplings and rhs with signed zeros too); 3 dense with signed zeros
/// sprinkled everywhere.
fn line(g: &mut Gen, n: usize, kind: usize) -> Line {
    let zeros = kind >= 2;
    let bd = |g: &mut Gen| -> Block {
        let d = 3.0 + 5.0 * (g.next() % 1000) as f64 / 1000.0;
        match kind {
            1 => {
                let m = g.block(0.15, d, zeros);
                let mut rotated: Block = std::array::from_fn(|i| m[((i / B + 1) % B) * B + i % B]);
                rotated[2 * B] = -rotated[4 * B];
                rotated
            }
            2 => std::array::from_fn(|i| match i % (B + 1) {
                0 if g.next().is_multiple_of(2) => -d,
                0 => d,
                _ => 0.0,
            }),
            _ => g.block(0.15, d, zeros),
        }
    };
    let diag: Vec<Block> = (0..n).map(|_| bd(g)).collect();
    let a = (0..n).map(|_| g.block(0.15, 0.0, zeros)).collect();
    let c = (0..n).map(|_| g.block(0.15, 0.0, zeros)).collect();
    let rhs = (0..n)
        .map(|_| std::array::from_fn(|_| g.entry(2.0, zeros)))
        .collect();
    (a, diag, c, rhs)
}

/// Solve `lines` (one to four) as one group of four lanes, spare lanes
/// repeating the first line as BT's sweep pads a short group; the real
/// lanes' solutions and the flops one lane spent.
fn solve_abreast(lines: &[Line]) -> (Vec<Vec<BVec>>, u64) {
    let n = lines[0].1.len();
    let lane = |l: usize| &lines[if l < lines.len() { l } else { 0 }];
    let pack = |blocks: &dyn Fn(&Line) -> &[Block], k: usize| -> LaneBlock<4> {
        std::array::from_fn(|e| std::array::from_fn(|l| blocks(lane(l))[k][e]))
    };
    let lower: Vec<_> = (1..n).map(|k| pack(&|t| &t.0, k)).collect();
    let diag: Vec<_> = (0..n).map(|k| pack(&|t| &t.1, k)).collect();
    let upper: Vec<_> = (0..n.saturating_sub(1))
        .map(|k| pack(&|t| &t.2, k))
        .collect();
    let mut rhs: Vec<LaneVec<4>> = (0..n)
        .map(|k| std::array::from_fn(|e| std::array::from_fn(|l| lane(l).3[k][e])))
        .collect();
    let mut cp = vec![[[0.0; 4]; B * B]; n.saturating_sub(1)];
    let flops = block_tridiag_lanes(&lower, &diag, &upper, &mut rhs, &mut cp)
        .expect("every lane is nonsingular");
    let solutions = (0..lines.len())
        .map(|l| {
            rhs.iter()
                .map(|x| std::array::from_fn(|e| x[e][l]))
                .collect()
        })
        .collect();
    (solutions, flops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inv5_roundtrips(m in dominant_block()) {
        let inv = inv5(&m).expect("dominant blocks are invertible");
        let prod = matmul5(&m, &inv);
        for r in 0..B {
            for c in 0..B {
                let expect = if r == c { 1.0 } else { 0.0 };
                prop_assert!((prod[r * B + c] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn block_tridiag_recovers_random_solutions(
        n in 1usize..12,
        seed_blocks in proptest::collection::vec((offdiag_block(), dominant_block(), offdiag_block()), 12),
        xs in proptest::collection::vec(bvec(), 12),
    ) {
        let a: Vec<Block> = seed_blocks.iter().take(n).map(|t| t.0).collect();
        let bd: Vec<Block> = seed_blocks.iter().take(n).map(|t| t.1).collect();
        let c: Vec<Block> = seed_blocks.iter().take(n).map(|t| t.2).collect();
        let x_true: Vec<BVec> = xs.iter().take(n).copied().collect();
        // rhs = A x.
        let mut rhs = vec![[0.0; B]; n];
        for i in 0..n {
            let mut r = matvec5(&bd[i], &x_true[i]);
            if i > 0 {
                let t = matvec5(&a[i], &x_true[i - 1]);
                for k in 0..B { r[k] += t[k]; }
            }
            if i + 1 < n {
                let t = matvec5(&c[i], &x_true[i + 1]);
                for k in 0..B { r[k] += t[k]; }
            }
            rhs[i] = r;
        }
        block_tridiag_solve(&a, &bd, &c, &mut rhs).expect("dominant system");
        for i in 0..n {
            for k in 0..B {
                prop_assert!((rhs[i][k] - x_true[i][k]).abs() < 1e-7,
                    "x[{i}][{k}]: {} vs {}", rhs[i][k], x_true[i][k]);
            }
        }
    }

    #[test]
    fn penta_recovers_random_solutions(
        n in 1usize..40,
        bands in proptest::collection::vec((-0.4f64..0.4, -0.4f64..0.4, 3.0f64..8.0, -0.4f64..0.4, -0.4f64..0.4), 40),
        xs in proptest::collection::vec(-3.0f64..3.0, 40),
    ) {
        let e: Vec<f64> = (0..n).map(|i| if i >= 2 { bands[i].0 } else { 0.0 }).collect();
        let a: Vec<f64> = (0..n).map(|i| if i >= 1 { bands[i].1 } else { 0.0 }).collect();
        let d: Vec<f64> = (0..n).map(|i| bands[i].2).collect();
        let c: Vec<f64> = (0..n).map(|i| if i + 1 < n { bands[i].3 } else { 0.0 }).collect();
        let f: Vec<f64> = (0..n).map(|i| if i + 2 < n { bands[i].4 } else { 0.0 }).collect();
        let x_true: Vec<f64> = xs.iter().take(n).copied().collect();
        let mut r = vec![0.0; n];
        for i in 0..n {
            let mut s = d[i] * x_true[i];
            if i >= 2 { s += e[i] * x_true[i - 2]; }
            if i >= 1 { s += a[i] * x_true[i - 1]; }
            if i + 1 < n { s += c[i] * x_true[i + 1]; }
            if i + 2 < n { s += f[i] * x_true[i + 2]; }
            r[i] = s;
        }
        let (mut a, mut d, mut c) = (a, d, c);
        penta_solve(&e, &mut a, &mut d, &mut c, &f, &mut r).expect("dominant system");
        for i in 0..n {
            prop_assert!((r[i] - x_true[i]).abs() < 1e-7, "x[{i}]: {} vs {}", r[i], x_true[i]);
        }
    }

    #[test]
    fn fft_is_unitary(
        log_n in 1u32..8,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        // Deterministic pseudo-random signal from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let orig: Vec<C64> = (0..n).map(|_| (next(), next())).collect();
        let mut data = orig.clone();
        FftPlan::new(n, false).run(&mut data);
        // Parseval.
        let e_time: f64 = orig.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum();
        let e_freq: f64 = data.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum::<f64>() / n as f64;
        prop_assert!((e_time - e_freq).abs() <= 1e-9 * (1.0 + e_time));
        // Roundtrip.
        FftPlan::new(n, true).run(&mut data);
        for (a, b) in orig.iter().zip(&data) {
            prop_assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_block_solve_is_identity(xs in proptest::collection::vec(bvec(), 1..8)) {
        let n = xs.len();
        let a = vec![[0.0; 25]; n];
        let bd = vec![scaled_identity5(1.0); n];
        let c = vec![[0.0; 25]; n];
        let mut rhs = xs.clone();
        block_tridiag_solve(&a, &bd, &c, &mut rhs).unwrap();
        prop_assert_eq!(rhs, xs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Four lanes — dense, pivoting, all-zero elimination factors, signed
    /// zeros — and every padded group of one to three of them equal the
    /// scalar oracle's solution of each line by `to_bits`, with its flops.
    #[test]
    fn four_lanes_equal_the_scalar_oracle_bit_for_bit(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for n in [1, 2, 3, 16, 64] {
            let lines: Vec<Line> = (0..4).map(|kind| line(&mut g, n, kind)).collect();
            for real in 1..=4 {
                let (solutions, flops) = solve_abreast(&lines[..real]);
                for (l, (a, bd, c, rhs)) in lines[..real].iter().enumerate() {
                    let mut want = rhs.clone();
                    let oracle_flops = oracle::block_tridiag_solve(a, bd, c, &mut want)
                        .expect("every lane is nonsingular");
                    prop_assert_eq!(flops, oracle_flops);
                    let bits = |x: &[BVec]| -> Vec<u64> {
                        x.iter().flatten().map(|v| v.to_bits()).collect()
                    };
                    prop_assert_eq!(bits(&solutions[l]), bits(&want), "n {} lane {} of {}", n, l, real);
                }
            }
        }
    }

    /// The one-lane instance is the oracle too, bit for bit.
    #[test]
    fn one_lane_equals_the_scalar_oracle_bit_for_bit(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for n in [1, 2, 3, 16] {
            for kind in 0..4 {
                let (a, bd, c, rhs) = line(&mut g, n, kind);
                let (mut got, mut want) = (rhs.clone(), rhs);
                let flops = block_tridiag_solve(&a, &bd, &c, &mut got);
                prop_assert_eq!(flops, oracle::block_tridiag_solve(&a, &bd, &c, &mut want));
                let bits = |x: &[BVec]| -> Vec<u64> { x.iter().flatten().map(|v| v.to_bits()).collect() };
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }
    }
}

/// The pivoting and zero-factor lanes really take those paths: the first
/// pivots on a tie in column 0, the second has only zero factors and
/// negative pivots.
#[test]
fn the_special_lanes_are_special() {
    let mut g = Gen(7);
    let (_, bd, ..) = line(&mut g, 1, 1);
    let col0: Vec<f64> = (0..B).map(|r| bd[0][r * B].abs()).collect();
    let max = col0.iter().cloned().fold(0.0, f64::max);
    assert!(
        col0[0] < max && col0[2] == max && col0[4] == max,
        "{col0:?}"
    );
    let negative = (0..64).any(|_| {
        let (_, bd, ..) = line(&mut g, 1, 2);
        assert!((0..B * B).all(|i| i % (B + 1) == 0 || bd[0][i] == 0.0));
        bd[0][0] < 0.0
    });
    assert!(negative);
}

/// A zero elimination factor is skipped, not multiplied: with a negative
/// pivot before a positive one, the skip keeps `-0.0` entries in the
/// inverse that `x - 0 * p` would turn to `+0.0`, and a zero right-hand side
/// shows the difference in the solution's signs.
#[test]
fn a_zero_factor_keeps_the_signs_of_zeros() {
    let mut g = Gen(3);
    let bd = [-2.0, 3.0, -5.0, 7.0, 11.0];
    let signed: Line = (
        vec![[0.0; B * B]],
        vec![std::array::from_fn(|i| {
            if i % (B + 1) == 0 {
                bd[i / B]
            } else {
                0.0
            }
        })],
        vec![[0.0; B * B]],
        vec![[0.0, 1.0, 2.0, 3.0, 4.0]],
    );
    let mut lines: Vec<Line> = (0..3).map(|kind| line(&mut g, 1, kind)).collect();
    lines.insert(1, signed.clone());
    let (solutions, _) = solve_abreast(&lines);
    let (a, bd, c, mut want) = signed;
    oracle::block_tridiag_solve(&a, &bd, &c, &mut want).unwrap();
    assert!(
        want[0].iter().any(|x| *x == 0.0 && x.is_sign_negative()),
        "{want:?}"
    );
    let bits = |x: &BVec| x.map(f64::to_bits);
    assert_eq!(bits(&solutions[1][0]), bits(&want[0]));
}

/// A plan's twiddle table is the recurrence's, stage by stage, and its
/// transform is the per-group recurrence's transform, for every length
/// 2…256 in both directions.
#[test]
fn fft_plan_equals_the_recurrence_bit_for_bit() {
    let bits = |x: &[C64]| -> Vec<(u64, u64)> {
        x.iter().map(|c| (c.0.to_bits(), c.1.to_bits())).collect()
    };
    let mut g = Gen(11);
    for log_n in 1..=8 {
        let n = 1usize << log_n;
        for inverse in [false, true] {
            let plan = FftPlan::new(n, inverse);
            let mut want = Vec::new();
            let mut len = 2;
            while len <= n {
                want.extend(oracle::twiddles(len, inverse));
                len <<= 1;
            }
            assert_eq!(
                bits(plan.twiddles()),
                bits(&want),
                "n {n} inverse {inverse}"
            );
            let signal: Vec<C64> = (0..n)
                .map(|_| (g.entry(1.0, true), g.entry(1.0, true)))
                .collect();
            let (mut got, mut want) = (signal.clone(), signal);
            assert_eq!(plan.run(&mut got), oracle::fft_inplace(&mut want, inverse));
            assert_eq!(bits(&got), bits(&want), "n {n} inverse {inverse}");
        }
    }
}
