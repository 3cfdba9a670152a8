//! [`PhaseProof`] derivation: the `nas`→`ccnuma` contract for the phase
//! fast path.
//!
//! A [`crate::model::KernelModel`] enumerates, address-exactly, every element
//! access of every modeled loop. This module folds those access streams over
//! the runtime's ownership partition into per-line reader/writer thread sets
//! and emits a [`PhaseProof`] — the complete line footprint plus per-line
//! write counts — for every loop whose pattern is safe to memoize:
//!
//! * **statically scheduled** — dynamic/guided dispatch depends on simulated
//!   timing, which a replayed thread (it does not simulate) would starve;
//!   `omp::Runtime` never consults the engine for such a loop either;
//! * **no cross-thread write sharing** — each line has at most one writing
//!   thread, and a written line is accessed by its writer only (shared
//!   *read-only* lines are fine). The simulator executes threads
//!   sequentially, so a cross-thread write/read interleaving would leave
//!   some CPU's cached copy stale at region exit — reconstructible in
//!   principle but outside the contract the replay engine validates.
//!
//! Ineligible loops get `None` and simply run on the exact line-by-line
//! path, as does every loop of a label whose instances derive different
//! proofs (a running region finds its proof by label alone —
//! `FastpathEngine::install`). A construct is derived once however many
//! instances of it a model holds: the instances an `Exec::block` repeats
//! are one object, and share one proof ([`derive_proofs`]). The proof is
//! re-validated at runtime: recording diffs the real region against the
//! claim and discards (loudly, in debug builds) on any disagreement — see
//! `ccnuma::fastpath`.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;

use ccnuma::fastpath::PhaseProof;
use ccnuma::{AccessKind, LINE_SHIFT, PAGE_SHIFT};

use crate::model::{LoopKind, LoopModel, PageSlots, PhaseModel};

/// Cache lines per page: the width of one [`LineTable`] block.
const PAGE_LINES: usize = 1 << (PAGE_SHIFT - LINE_SHIFT);

/// What one loop does to one line: reader and writer thread-id masks plus
/// the total write count.
#[derive(Clone, Copy, Default, PartialEq)]
struct LineUse {
    readers: u64,
    writers: u64,
    writes: u32,
}

impl LineUse {
    /// Count one access by the thread whose mask bit is `bit`.
    #[inline]
    fn record(&mut self, bit: u64, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.readers |= bit,
            AccessKind::Write => {
                self.writers |= bit;
                self.writes += 1;
            }
        }
    }

    /// The eligibility rule: at most one writing thread, and a written line
    /// is accessed by its writer only.
    fn eligible(&self) -> bool {
        self.writers.count_ones() <= 1 && (self.writers == 0 || self.readers & !self.writers == 0)
    }
}

/// Per-line access summary of one loop, dense within a page: a page's
/// [`PAGE_LINES`] entries are allocated the first time the loop reaches the
/// page, so an access costs one hash probe and an indexed update, and the
/// table is as large as the loop's page footprint.
#[derive(Default)]
struct LineTable {
    slots: PageSlots,
    /// Each page's lines, by slot.
    blocks: Vec<[LineUse; PAGE_LINES]>,
}

impl LineTable {
    #[inline]
    fn line(&mut self, line: u64) -> &mut LineUse {
        let slot = self.slots.slot(line >> (PAGE_SHIFT - LINE_SHIFT));
        if slot == self.blocks.len() {
            self.blocks.push([LineUse::default(); PAGE_LINES]);
        }
        &mut self.blocks[slot][line as usize % PAGE_LINES]
    }

    /// Every touched line with its use, in ascending line order.
    fn into_sorted(self) -> impl Iterator<Item = (u64, LineUse)> {
        let blocks = self.blocks;
        self.slots
            .sorted()
            .into_iter()
            .flat_map(move |(page, slot)| {
                let first = page << (PAGE_SHIFT - LINE_SHIFT);
                let lines = blocks[slot];
                (0..PAGE_LINES)
                    .map(move |i| (first + i as u64, lines[i]))
                    .filter(|(_, u)| *u != LineUse::default())
            })
    }
}

/// Team size `l` runs with on a runtime of `threads` threads, or `None` when
/// no proof can be derived whatever the loop touches.
fn proof_team(l: &LoopModel, threads: usize) -> Option<usize> {
    if l.schedule().is_dynamic() {
        return None;
    }
    let team = if l.kind() == LoopKind::Serial {
        1
    } else {
        threads
    };
    // Reader/writer sets are u64 bitmasks.
    (team <= 64).then_some(team)
}

/// Derive the proof for one loop, or `None` if it is ineligible.
///
/// `label` must be the flattened `"phase/loop"` name (memo pools are shared
/// per label). `threads` is the team size of the runtime that will execute
/// the loop; serial regions run as a one-thread team on the master CPU, so
/// their proofs are derived for team size 1.
///
/// Cost: one walk of the loop's model plus an O(1) table update per access;
/// memory: [`PAGE_LINES`] entries per page the loop touches, dropped on
/// return.
pub fn derive_loop_proof(label: &str, l: &LoopModel, threads: usize) -> Option<PhaseProof> {
    let team = proof_team(l, threads)?;
    let mut table = LineTable::default();
    l.walk(team, |tid, vaddr, kind| {
        table.line(vaddr >> LINE_SHIFT).record(1 << tid, kind)
    });
    let mut lines = Vec::new();
    let mut line_writes = Vec::new();
    for (line, u) in table.into_sorted() {
        if !u.eligible() {
            return None;
        }
        lines.push(line);
        if u.writes > 0 {
            // Eligibility guarantees exactly one writer bit; its index is
            // the writing thread, which partial replays use to attribute
            // directory bumps per thread.
            line_writes.push((line, u.writes, u.writers.trailing_zeros()));
        }
    }
    Some(PhaseProof::new(label.to_string(), team, lines, line_writes))
}

/// One region instance's label and proof.
pub type Instance = (String, Option<Arc<PhaseProof>>);

/// Derives the proofs of region instances, each construct once: the
/// instances of one [`LoopModel`] object (the entries of an
/// `Exec::block`) under one label get one `Arc`'d proof, derived by the
/// first of them. Instances that are different objects are derived apart
/// however alike they look. The objects are the phases' (`'m`), alive for
/// as long as their addresses are keys here.
pub(crate) struct Deriver<'m> {
    threads: usize,
    derived: HashMap<(*const LoopModel, String), Option<Arc<PhaseProof>>>,
    instances: usize,
    models: PhantomData<&'m PhaseModel>,
}

impl<'m> Deriver<'m> {
    /// A deriver for a team of `threads`.
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            threads,
            derived: HashMap::new(),
            instances: 0,
            models: PhantomData,
        }
    }

    /// The instances of `phases` in program order (see [`derive_proofs`]).
    pub(crate) fn text<'a>(
        &'a mut self,
        phases: &'m [PhaseModel],
    ) -> impl Iterator<Item = Instance> + use<'a, 'm> {
        instances(phases).map(|(phase, l)| self.instance(phase, l))
    }

    fn instance(&mut self, phase: &str, l: &'m Rc<LoopModel>) -> Instance {
        self.instances += 1;
        let label = format!("{phase}/{}", l.name());
        let key = (Rc::as_ptr(l), label.clone());
        let proof = self
            .derived
            .entry(key)
            .or_insert_with(|| derive_loop_proof(&label, l, self.threads).map(Arc::new));
        (label, proof.clone())
    }

    /// `(region instances asked for, constructs derived)` so far.
    pub(crate) fn counts(&self) -> (usize, usize) {
        (self.instances, self.derived.len())
    }
}

/// Every loop of `phases` in program order, with its phase's name.
fn instances(phases: &[PhaseModel]) -> impl Iterator<Item = (&str, &Rc<LoopModel>)> {
    (phases.iter()).flat_map(|p| p.loops().iter().map(move |l| (p.name(), l)))
}

/// Derive proofs for a phase sequence: one `(label, proof)` per region
/// instance in program order, each construct derived once, as it is first
/// asked for — what `ccnuma::ProofTable::fold` folds into the table a
/// runtime installs. The label is the text `impl Exec for Runtime` names
/// the running region with.
pub fn derive_proofs(phases: &[PhaseModel], threads: usize) -> impl Iterator<Item = Instance> + '_ {
    let mut deriver = Deriver::new(threads);
    instances(phases).map(move |(phase, l)| deriver.instance(phase, l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instantiate, BenchName, Scale};
    use ccnuma::{Machine, MachineConfig};
    use omp::{Runtime, Schedule};
    use std::collections::BTreeMap;

    const LINE: u64 = 1 << LINE_SHIFT;

    /// The oracle for [`derive_loop_proof`]: the same fold through one
    /// ordered-map entry per access, which needs no page bookkeeping to be
    /// right and is an order of magnitude slower.
    fn derive_loop_proof_reference(
        label: &str,
        l: &LoopModel,
        threads: usize,
    ) -> Option<PhaseProof> {
        let team = proof_team(l, threads)?;
        let mut lines: BTreeMap<u64, LineUse> = BTreeMap::new();
        l.walk(team, |tid, vaddr, kind| {
            lines
                .entry(vaddr >> LINE_SHIFT)
                .or_default()
                .record(1 << tid, kind)
        });
        if !lines.values().all(LineUse::eligible) {
            return None;
        }
        let line_writes = lines
            .iter()
            .filter(|(_, u)| u.writes > 0)
            .map(|(&line, u)| (line, u.writes, u.writers.trailing_zeros()))
            .collect();
        Some(PhaseProof::new(
            label.to_string(),
            team,
            lines.into_keys().collect(),
            line_writes,
        ))
    }

    #[test]
    fn every_kernel_loop_derives_what_the_reference_derives() {
        // Small takes over a minute unoptimized, nearly all of it in the
        // reference; CI's `fastpath` job runs this test in release.
        let scales: &[Scale] = if cfg!(debug_assertions) {
            &[Scale::Tiny]
        } else {
            &[Scale::Tiny, Scale::Small]
        };
        for &scale in scales {
            for bench in BenchName::all() {
                for threads in [1, 4, 16] {
                    let machine = Machine::new(MachineConfig::origin2000_16p_scaled());
                    let mut rt = Runtime::with_threads(machine, threads);
                    let model = instantiate(bench, &mut rt, scale).access_model();
                    let mut eligible = 0;
                    for phase in model.cold().iter().chain(model.iteration()) {
                        for l in phase.loops() {
                            let label = format!("{}/{}", phase.name(), l.name());
                            let got = derive_loop_proof(&label, l, threads);
                            let want = derive_loop_proof_reference(&label, l, threads);
                            eligible += usize::from(got.is_some());
                            assert!(
                                got == want,
                                "{} {} x{threads} {label}: {} lines vs reference {}",
                                bench.label(),
                                scale.label(),
                                got.map_or(-1, |p| p.lines().count() as i64),
                                want.map_or(-1, |p| p.lines().count() as i64),
                            );
                        }
                    }
                    assert!(eligible > 0, "{} has no eligible loop", bench.label());
                }
            }
        }
    }

    #[test]
    fn far_apart_pages_come_out_in_line_order() {
        // Two arrays a terabyte apart, visited high page first, plus a line
        // that is only read: the table's first-touch order must not leak.
        let far = 1u64 << 40;
        let l = LoopModel::parallel("far", 8, Schedule::Static, move |i, emit| {
            emit(far + i as u64 * LINE, AccessKind::Write);
            emit(i as u64 * LINE, AccessKind::Read);
            emit(far / 2, AccessKind::Read);
        });
        let p = derive_loop_proof("ph/far", &l, 4).expect("eligible");
        assert_eq!(
            Some(p.clone()),
            derive_loop_proof_reference("ph/far", &l, 4)
        );
        let lines: Vec<u64> = p.lines().collect();
        assert!(lines.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(lines.len(), 17);
        assert_eq!(p.pages().count(), 3);
        assert_eq!(p.line_writes().next().map(|w| w.0), Some(far >> LINE_SHIFT));
    }

    #[test]
    fn teams_up_to_64_prove_and_larger_ones_do_not() {
        let l = LoopModel::parallel("wide", 128, Schedule::Static, |i, emit| {
            emit(i as u64 * LINE, AccessKind::Write);
        });
        let p = derive_loop_proof("ph/wide", &l, 64).expect("64 threads fit the masks");
        assert_eq!(
            Some(p.clone()),
            derive_loop_proof_reference("ph/wide", &l, 64)
        );
        assert_eq!(p.line_writes().last().map(|w| w.2), Some(63));
        assert!(derive_loop_proof("ph/wide", &l, 65).is_none());
        assert!(derive_loop_proof_reference("ph/wide", &l, 65).is_none());
    }

    #[test]
    fn disjoint_writes_are_eligible() {
        // Thread-owned stripes: iteration i writes line i, reads line i.
        let l = LoopModel::parallel("stripe", 64, Schedule::Static, |i, emit| {
            emit(i as u64 * LINE, AccessKind::Read);
            emit(i as u64 * LINE, AccessKind::Write);
        });
        let p = derive_loop_proof("ph/stripe", &l, 8).expect("eligible");
        assert_eq!(p.threads, 8);
        assert_eq!(p.lines().count(), 64);
        assert_eq!(p.line_writes().count(), 64);
        assert!(p.line_writes().all(|(_, c, _)| c == 1));
        // Static chunks of 64 iterations over 8 threads: 8 lines per thread.
        for t in 0..8u32 {
            assert_eq!(
                p.line_writes().filter(|&(_, _, w)| w == t).count(),
                8,
                "thread {t} writes its own stripe"
            );
        }
        assert!(p.pages().eq([0])); // 64 lines < 128 lines/page
    }

    #[test]
    fn shared_read_only_is_eligible() {
        let l = LoopModel::parallel("bcast", 64, Schedule::Static, |i, emit| {
            emit(0, AccessKind::Read); // everyone reads line 0
            emit((1 + i as u64) * LINE, AccessKind::Write);
        });
        let p = derive_loop_proof("ph/bcast", &l, 8).expect("eligible");
        assert_eq!(p.line_writes().map(|(_, c, _)| c as u64).sum::<u64>(), 64);
    }

    #[test]
    fn cross_thread_write_sharing_is_rejected() {
        // Everyone writes line 0.
        let l = LoopModel::parallel("clash", 64, Schedule::Static, |_, emit| {
            emit(0, AccessKind::Write);
        });
        assert!(derive_loop_proof("ph/clash", &l, 8).is_none());
        // One writer, other threads read the same line.
        let l = LoopModel::parallel("wr", 64, Schedule::Static, |i, emit| {
            if i == 0 {
                emit(0, AccessKind::Write);
            } else {
                emit(0, AccessKind::Read);
            }
        });
        assert!(derive_loop_proof("ph/wr", &l, 8).is_none());
        // But single-threaded, the same pattern is trivially fine.
        assert!(derive_loop_proof("ph/wr", &l, 1).is_some());
    }

    #[test]
    fn dynamic_schedules_are_rejected() {
        let l = LoopModel::parallel("dyn", 64, Schedule::Dynamic(4), |i, emit| {
            emit(i as u64 * LINE, AccessKind::Write);
        });
        assert!(derive_loop_proof("ph/dyn", &l, 8).is_none());
    }

    #[test]
    fn serial_loops_prove_for_team_of_one() {
        let l = LoopModel::serial("s", |_, emit| {
            emit(0, AccessKind::Write);
            emit(0, AccessKind::Write);
            emit(LINE, AccessKind::Read);
        });
        let p = derive_loop_proof("ph/s", &l, 16).expect("eligible");
        assert_eq!(p.threads, 1, "serial regions run as a one-thread team");
        assert!(p.line_writes().eq([(0, 2, 0)]));
    }

    #[test]
    fn derive_proofs_labels_every_instance_in_program_order() {
        let mk = || {
            PhaseModel::new(
                "ph",
                vec![
                    LoopModel::parallel("a", 8, Schedule::Static, |i, emit| {
                        emit(i as u64 * LINE, AccessKind::Write)
                    }),
                    LoopModel::parallel("b", 8, Schedule::Dynamic(1), |i, emit| {
                        emit(i as u64 * LINE, AccessKind::Write)
                    }),
                ],
            )
        };
        let phases = [mk()];
        let proofs: Vec<_> = derive_proofs(&phases, 4).collect();
        assert_eq!(proofs.len(), 2);
        assert_eq!(proofs[0].0, "ph/a");
        assert_eq!(proofs[0].1.as_ref().unwrap().label, "ph/a");
        assert_eq!(proofs[1].0, "ph/b");
        assert!(proofs[1].1.is_none(), "dynamic loop has no proof");
    }
}
