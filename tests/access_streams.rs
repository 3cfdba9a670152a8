//! The access streams of the grid kernels, pinned.
//!
//! A kernel's loop text decides every simulated address and its order: the
//! describing `Probe` reads them off the same text the runtime executes, so
//! the proofs, memo keys, images and every simulated byte follow from them.
//! A rewrite of a kernel's index arithmetic (MG's periodic stencils, the
//! ADI `compute_rhs`) must leave that stream exactly as it was. Each case
//! folds the `(thread, vaddr, kind)` stream of the model's cold start and
//! of one timed iteration, walked by a team of 16 (`LoopModel::walk`),
//! into one FNV-1a digest, and compares it with the digest the kernel's
//! text gave before such a rewrite.

use ccnuma::{AccessKind, Machine, MachineConfig};
use nas::{instantiate, BenchName, Scale};
use omp::Runtime;

const TEAM: usize = 16;

/// FNV-1a over the `(thread, vaddr, kind)` stream of `bench` at `scale`,
/// and the stream's length.
fn stream_digest(bench: BenchName, scale: Scale) -> (u64, u64) {
    let machine = Machine::new(MachineConfig::origin2000_16p());
    let mut rt = Runtime::with_threads(machine, TEAM);
    let model = instantiate(bench, &mut rt, scale).access_model();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut accesses = 0u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for phase in model.cold().iter().chain(model.iteration()) {
        for l in phase.loops() {
            l.walk(TEAM, |tid, vaddr, kind| {
                fold(&(tid as u64).to_le_bytes());
                fold(&vaddr.to_le_bytes());
                fold(&[matches!(kind, AccessKind::Write) as u8]);
                accesses += 1;
            });
        }
    }
    (hash, accesses)
}

fn assert_stream(bench: BenchName, scale: Scale, pinned: (u64, u64)) {
    let got = stream_digest(bench, scale);
    assert_eq!(
        got,
        pinned,
        "{} {}: the access stream moved (digest {:#018x}, {} accesses)",
        bench.label(),
        scale.label(),
        got.0,
        got.1
    );
}

#[test]
fn mg_tiny_stream_is_pinned() {
    assert_stream(BenchName::Mg, Scale::Tiny, (0xf289_3e09_e04d_5265, 104_960));
}

#[test]
fn mg_small_stream_is_pinned() {
    assert_stream(
        BenchName::Mg,
        Scale::Small,
        (0x2367_def3_f580_1d25, 7_000_064),
    );
}

#[test]
fn bt_tiny_stream_is_pinned() {
    assert_stream(BenchName::Bt, Scale::Tiny, (0xb1ce_6c87_e97f_9aa5, 107_520));
}

#[test]
fn bt_small_stream_is_pinned() {
    assert_stream(
        BenchName::Bt,
        Scale::Small,
        (0x2ee3_6b02_22dd_6125, 13_762_560),
    );
}

#[test]
fn sp_tiny_stream_is_pinned() {
    assert_stream(BenchName::Sp, Scale::Tiny, (0xb32e_e6f9_fef2_d785, 107_520));
}

#[test]
fn sp_small_stream_is_pinned() {
    assert_stream(
        BenchName::Sp,
        Scale::Small,
        (0x7a1c_d6b3_8675_d9a5, 13_762_560),
    );
}
