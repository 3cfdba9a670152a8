use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use super::image::{
    apply_image, keep_mru, land_timing, level_matches, norm_ways, way_ranks, CacheFix, Image,
    ImageCore, LevelKey, LineSet, Placement, Unmapped, NO_FRAME,
};
use super::library::{MemoLibrary, Slots};
use super::proof::{PhaseProof, ProofTable};
use super::retime::{ClassStream, Retime, Timing, NO_HOME};
use super::{KEY_OTHER, MAX_ASSOC};
use crate::cache::SetAssocCache;
use crate::cpu::CpuId;
use crate::machine::{FpRecording, Machine};
use crate::memory::FrameId;
use crate::stats::MachineStats;

/// Engine counters (diagnostics; surfaced by the `omp` runtime and the
/// experiment harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastpathStats {
    /// Regions replayed wholesale (no team CPU missed: each hit a memo or
    /// was retimed).
    pub replays: u64,
    /// Regions that recorded at least one CPU memo.
    pub records: u64,
    /// Of those, regions recorded with their page faults: first touches no
    /// team of images faulted in.
    pub fault_records: u64,
    /// Regions where at least one CPU missed, or whose unmapped pages the
    /// CPUs' images did not fault in together (each starts a recording).
    pub misses: u64,
    /// Regions rejected by a precondition or a failed exit validation.
    pub rejects: u64,
    /// Individual CPU memo hits (includes the hitters of partial regions).
    pub cpu_replays: u64,
    /// Individual CPU memos recorded.
    pub cpu_records: u64,
    /// Individual CPUs whose caches matched a memo but whose pages had
    /// moved: their walk was re-timed, not re-simulated.
    pub cpu_retimes: u64,
    /// Individual CPU hits and retimes (counted there too) served by the
    /// memo library after the engine's own memos missed: an image another
    /// run recorded.
    pub cpu_borrowed: u64,
    /// Individual CPU misses whose slot held no memo yet.
    pub cpu_misses_cold: u64,
    /// Individual CPU misses where some memo was timed on the frames the
    /// pages are in, and the cache sets disagreed with every memo.
    pub cpu_misses_sets: u64,
    /// Individual CPU misses where the pages had moved and the cache sets
    /// disagreed with every memo too (the move invalidated resident lines).
    pub cpu_misses_frames: u64,
    /// Individual CPUs run live in a region with unmapped pages that the
    /// engine did not admit: some thread found no image that faults what it
    /// reaches, so the whole team records (whatever this CPU's own lookup
    /// found, or if it never got one).
    pub cpu_misses_faults: u64,
    /// Pages faulted in at region entry: the first touches of a replayed
    /// region, taken in the order its exact run takes them.
    pub fault_pages: u64,
}

/// What the engine did for a region, and what the caller owes it.
///
/// The region effects of every CPU in `replayed` have been applied in bulk:
/// those CPUs must not reach the machine during the region body. Their
/// threads run for the data side only — except a CPU that
/// [`retime_of`](Self::retime_of) has a walk for, whose thread must also
/// hand that walk every access it makes, in order. Every other team CPU
/// executes the exact path. After the body and *before* `end_region` the
/// outcome goes back through [`FastpathEngine::finish_region`]. The cases
/// are values, not variants: the whole team replayed and no recording (no
/// CPU missed), a recording (at least one did), or neither (a precondition
/// failed).
#[derive(Default)]
pub struct FastpathOutcome {
    /// Team CPUs that sit the region out: memo hits and retimed CPUs.
    pub replayed: Vec<CpuId>,
    /// The walks of the retimed CPUs.
    retimed: Vec<Retime>,
    /// Present when some CPU missed and is being recorded.
    record: Option<RecordToken>,
    /// The region's label; set only when there is something to finish.
    label: String,
}

impl FastpathOutcome {
    /// The walk `cpu`'s thread owes its accesses to, if `cpu` is retimed.
    pub fn retime_of(&mut self, cpu: CpuId) -> Option<&mut Retime> {
        self.retimed.iter_mut().find(|r| r.cpu == cpu)
    }
}

/// Entry snapshot carried from `begin_region_fastpath` to `finish_region`.
struct RecordToken {
    /// `(vpage, frame)` of every proof page at entry, [`NO_FRAME`] for a
    /// page the region is to fault in.
    frames: Vec<(u64, FrameId)>,
    entry_stats: MachineStats,
    entry_clock_bits: u64,
    /// [`Directory::total_writes`] at region entry, *before* the hitters'
    /// bumps. The exit delta must equal the full team's claimed writes —
    /// an O(1) aggregate check in place of scanning the proof footprint.
    /// Per-line entry versions are not stored: validation makes them
    /// recoverable as `current − claimed` (see `diff_level`).
    entry_dir_writes: u64,
    /// [`RefCounters::total_recorded`] after the hitters' bulk adds; the
    /// exit delta must equal the live threads' logged accesses.
    entry_accesses: u64,
    /// Debug builds only (empty in release): `(line, entry version)` of
    /// every proof line and per-(frame, node) counter totals, for the
    /// exhaustive footprint re-validation backing the aggregate checks
    /// above.
    key_dir: Vec<(u64, u32)>,
    entry_counters: Vec<u64>,
    live: Vec<LiveCpu>,
}

/// Entry scalars of one live (recording) team CPU; the cache pre-images come
/// from the machine's copy-on-write recording log.
struct LiveCpu {
    thread: usize,
    cpu: CpuId,
    l1_tick: u64,
    l2_tick: u64,
    /// Entry values of the five integer `CpuStats` fields.
    stats: [u64; 5],
}

/// Per-label pool: the proof every instance of the label derived, per-thread
/// write claims, and one memo slot per team thread.
#[derive(Clone)]
pub(super) struct Pool {
    proof: Arc<PhaseProof>,
    /// The proof's lines, built at the first region entry that finds every
    /// proof page inside the page table: from then on the bitmap is bounded by the
    /// machine's virtual address space, not by what the proof claims, and a
    /// pool that is never admitted never has one.
    pub(super) lines: LineSet,
    /// `(line, count)` write claims indexed by thread.
    writes_by_thread: Vec<Vec<(u64, u32)>>,
    /// Sum of all claimed write counts — the full team's directory traffic
    /// per region, validated against [`Directory::total_writes`] in O(1).
    claimed_writes: u64,
    /// Indexed by thread; holds that thread's bound CPU and its images.
    pub(super) slots: Vec<CpuSlot>,
}

#[derive(Clone)]
pub(super) struct CpuSlot {
    pub(super) cpu: CpuId,
    /// MRU first.
    pub(super) images: Vec<Image>,
}

impl Pool {
    fn new(proof: Arc<PhaseProof>) -> Self {
        let mut writes_by_thread = vec![Vec::new(); proof.threads];
        let mut claimed_writes = 0;
        for (line, count, writer) in proof.line_writes() {
            writes_by_thread[writer as usize].push((line, count));
            claimed_writes += u64::from(count);
        }
        Self {
            proof,
            lines: LineSet::default(),
            writes_by_thread,
            claimed_writes,
            slots: Vec::new(),
        }
    }

    /// The key of `thread`'s slot in a library.
    pub(super) fn slot_key(&self, thread: usize) -> (usize, usize, CpuId) {
        let proof = Arc::as_ptr(&self.proof) as usize;
        (proof, thread, self.slots[thread].cpu)
    }

    /// `thread`'s images in a library's `slots`, created empty.
    pub(super) fn shelf<'a>(&self, slots: &'a mut Slots, thread: usize) -> &'a mut Vec<Image> {
        let entry = slots.entry(self.slot_key(thread));
        &mut entry
            .or_insert_with(|| (Arc::clone(&self.proof), Vec::new()))
            .1
    }

    /// Realign the per-thread slots with the current binding; a rebound
    /// thread drops its images (they key another CPU's caches).
    fn align_slots(&mut self, binding: &[CpuId]) {
        if self.slots.len() != binding.len() {
            self.slots = binding
                .iter()
                .map(|&cpu| CpuSlot {
                    cpu,
                    images: Vec::new(),
                })
                .collect();
            return;
        }
        for (slot, &cpu) in self.slots.iter_mut().zip(binding) {
            if slot.cpu != cpu {
                slot.cpu = cpu;
                slot.images.clear();
            }
        }
    }
}

/// The memoization engine. One per `omp` runtime (it is tied to one machine's
/// geometry through its memos). A clone holds the same memos (their images
/// are shared) and the same library handle, and counts on from the same
/// statistics.
#[derive(Clone, Default)]
pub struct FastpathEngine {
    pools: HashMap<String, Pool>,
    stats: FastpathStats,
    /// Where the engine borrows memos from and publishes them to.
    library: MemoLibrary,
    /// Working table of the recording exit pass: each frame's proof page
    /// ([`NO_PAGE`] between recordings), sized to the machine once.
    frame_page: Vec<u32>,
}

/// What a team CPU does in a region the engine admitted.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum Lane {
    /// Its front image hit under its front placement.
    Hit,
    /// Its front image's sets match; the pages are on frames it has no
    /// placement for.
    Retime,
    /// No image matches: exact path, recorded.
    Live,
}

impl FastpathEngine {
    /// Fresh engine with empty pools.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the proofs of a program text. The table replaces the pools: a
    /// label whose proof equals the one its pool already holds keeps its
    /// memos (cold-start recordings seed the timed iterations), every other
    /// pool starts empty or is gone. A pool shares the table's proof.
    /// `library` is where the engine borrows and publishes memos from now
    /// on: the library of the proof set `table` comes from, on machines
    /// configured like this engine's.
    pub fn install(&mut self, table: &ProofTable, library: &MemoLibrary) {
        self.library = library.clone();
        let mut old = std::mem::take(&mut self.pools);
        for (label, proof) in &table.0 {
            let pool = match old.remove(label) {
                Some(pool) if Arc::ptr_eq(&pool.proof, proof) || pool.proof == *proof => pool,
                _ => Pool::new(Arc::clone(proof)),
            };
            self.pools.insert(label.clone(), pool);
        }
    }

    /// Engine counters so far.
    pub fn stats(&self) -> FastpathStats {
        self.stats
    }

    /// Consult the engine for the region named `label`, about to run on the
    /// team `binding` (CPU of thread 0, 1, …). Must be called between
    /// `begin_region` and the region body. See [`FastpathOutcome`] for the
    /// caller's obligations. A label with no pool is none of the engine's
    /// business: the region runs exactly and nothing is counted. A replayed
    /// region's pages that are not mapped yet are faulted in here, through
    /// the machine's placement policy (see the module docs).
    pub fn begin_region_fastpath(
        &mut self,
        m: &mut Machine,
        label: &str,
        binding: &[CpuId],
    ) -> FastpathOutcome {
        let _hp = hostprof::span_hot("ccnuma.fastpath");
        let Some(pool) = self.pools.get_mut(label) else {
            return Default::default();
        };
        if binding.len() != pool.proof.threads
            || !m.replicas.is_empty()
            || m.trace_mut().is_active()
            || m.cpus[0].l1.assoc() > MAX_ASSOC
            || m.cpus[0].l2.assoc() > MAX_ASSOC
        {
            self.stats.rejects += 1;
            return Default::default();
        }
        // Every proof page must lie in the machine's page table. A page not
        // mapped yet is faulted in by the region: the exact path runs a
        // static region's threads in thread order, so which thread faults
        // which page, and in what order, is the program's, and a replay
        // faults them in before anything else, through the same placement
        // policy and allocator in the same order.
        let mut frames = Vec::new();
        for vp in pool.proof.pages() {
            match m.page_table.get(vp as usize) {
                Some(&frame) => frames.push((vp, frame.unwrap_or(NO_FRAME))),
                None => {
                    self.stats.rejects += 1;
                    return Default::default();
                }
            }
        }
        if pool.lines.0.is_empty() {
            pool.lines = LineSet::of(&pool.proof);
        }
        pool.align_slots(binding);

        // Per-CPU lookup, thread by thread — all *before* any effect is
        // applied, so every check reads true region-entry state: the CPU's
        // own images, then the library's. An image serves a thread only if
        // it faults exactly the unmapped pages it reaches that no earlier
        // thread's image faults. A region with unmapped pages is all or
        // nothing: one thread without an image, and every thread runs live,
        // since its faults would land out of order among the others'.
        let mut unmapped = Unmapped::of(&frames);
        let faulting = unmapped.left > 0;
        let mut lender = self.library.lender();
        // Per thread: the image that serves it, and whether it is borrowed.
        let mut found: Vec<Option<(Arc<ImageCore>, bool)>> = Vec::with_capacity(binding.len());
        for t in 0..binding.len() {
            let slot = &mut pool.slots[t];
            let own = find(m, slot.cpu, &mut slot.images, &pool.lines, &unmapped);
            let image = match own {
                true => Some((Arc::clone(&slot.images[0].core), false)),
                false => lender.find(m, pool, t, &unmapped).map(|core| (core, true)),
            };
            if let Some((core, _)) = &image {
                unmapped.claim(&core.faults);
            }
            found.push(image);
            if faulting && found[t].is_none() {
                break;
            }
        }
        let every = found.len() == binding.len() && found.iter().all(Option::is_some);
        let admitted = !faulting || (every && unmapped.left == 0);
        let stats = &mut self.stats;
        if admitted && faulting {
            for (t, image) in found.iter().enumerate() {
                let (core, _) = image.as_ref().expect("an admitted thread has an image");
                for &p in &core.faults {
                    let (vpage, frame) = &mut frames[p as usize];
                    *frame = m.fault(*vpage, binding[t]);
                }
                stats.fault_pages += core.faults.len() as u64;
            }
        }
        found.resize(binding.len(), None);
        let mut lanes = Vec::with_capacity(binding.len());
        for (t, image) in found.into_iter().enumerate() {
            let slot = &mut pool.slots[t];
            lanes.push(match image {
                _ if !admitted => {
                    stats.cpu_misses_faults += 1;
                    Lane::Live
                }
                None => {
                    count_miss(slot, &frames, stats);
                    Lane::Live
                }
                Some((_, false)) => lane_on(&mut slot.images[0], &frames),
                Some((_, true)) => {
                    stats.cpu_borrowed += 1;
                    lender.lend(pool, t, &frames)
                }
            });
        }
        drop(lender);
        let live_cpus = lanes.iter().filter(|&&lane| lane == Lane::Live).count();

        // Aggregate snapshot *before* the bumps; debug builds also take the
        // full per-line snapshot the exhaustive check diffs against.
        let entry_dir_writes = m.directory.total_writes();
        let key_dir = if cfg!(debug_assertions) && live_cpus > 0 {
            let lines = pool.proof.lines();
            lines.map(|l| (l, m.directory.version(l))).collect()
        } else {
            Vec::new()
        };
        let mut outcome = apply_lanes(m, pool, &lanes, &frames);
        let retimes = outcome.retimed.len();
        stats.cpu_retimes += retimes as u64;
        stats.cpu_replays += (outcome.replayed.len() - retimes) as u64;
        if retimes > 0 || live_cpus > 0 {
            outcome.label = label.to_string();
        }
        if live_cpus == 0 {
            stats.replays += 1;
            return outcome;
        }
        stats.misses += 1;

        // Counter snapshots *after* the applied effects so the exit diff
        // isolates the live threads (whose accesses the mem log attributes).
        let entry_accesses = m.counters.total_recorded();
        let mut entry_counters = Vec::new();
        if cfg!(debug_assertions) {
            let nodes = m.config.topology.nodes();
            entry_counters.reserve(frames.len() * nodes);
            for &(_, frame) in &frames {
                for node in 0..nodes {
                    // A page the region faults in starts from cleared counters.
                    let count = if frame == NO_FRAME {
                        0
                    } else {
                        m.counters.get(frame, node)
                    };
                    entry_counters.push(count);
                }
            }
        }
        let mut live = Vec::with_capacity(live_cpus);
        for (t, _) in lanes.iter().enumerate().filter(|(_, &l)| l == Lane::Live) {
            let cpu = binding[t];
            let ctx = &m.cpus[cpu];
            live.push(LiveCpu {
                thread: t,
                cpu,
                l1_tick: ctx.l1.tick(),
                l2_tick: ctx.l2.tick(),
                stats: int_stats(m, cpu),
            });
        }
        m.fp_begin_recording();
        outcome.record = Some(RecordToken {
            frames,
            entry_stats: m.stats,
            entry_clock_bits: m.clock.now_ns().to_bits(),
            entry_dir_writes,
            entry_accesses,
            key_dir,
            entry_counters,
            live,
        });
        outcome
    }

    /// Finish the region `outcome` came from. Must be called after the body
    /// and *before* `end_region` (the recording's entry/exit diff needs the
    /// still-open region state). Every retimed CPU's walk is checked — always
    /// on — landed in its account and statistics, and kept as one more
    /// placement of its image; a recording is validated (did the region
    /// behave exactly as the proof claims?) and stored, one memo per live
    /// CPU. Until the machine's first page migration, both are published to
    /// the engine's library too.
    pub fn finish_region(&mut self, m: &mut Machine, outcome: FastpathOutcome) {
        if outcome.retimed.is_empty() && outcome.record.is_none() {
            return;
        }
        let _hp = hostprof::span_hot("ccnuma.fastpath");
        let rec = m.fp_take_recording().unwrap_or_default();
        let pool = self.pools.get_mut(&outcome.label);
        let pool = pool.expect("no install runs inside a region");
        let mut timed = Vec::with_capacity(outcome.retimed.len());
        for walk in outcome.retimed {
            assert_eq!(
                (walk.pos, walk.timing.mem_local + walk.timing.mem_remote),
                (walk.image.classes.len, walk.image.memory_accesses()),
                "{}: cpu {}'s retime walk (accesses, of them memory) left its image's",
                outcome.label,
                walk.cpu,
            );
            land_timing(m, walk.cpu, &walk.timing);
            let placement = Placement {
                frames: walk.frames,
                timing: walk.timing,
            };
            timed.push((walk.thread, walk.image, placement));
        }
        let mut recorded = Vec::new();
        if let Some(token) = outcome.record {
            let faulted = !rec.faults.is_empty();
            match build_images(m, pool, &token, rec, &mut self.frame_page) {
                Some(images) => {
                    self.stats.records += 1;
                    self.stats.fault_records += u64::from(faulted);
                    self.stats.cpu_records += images.len() as u64;
                    recorded = images;
                }
                None => self.stats.rejects += 1,
            }
        }
        // Until the first migration, every run of the key walks this prefix.
        if m.stats.page_migrations == 0 {
            self.library.publish(pool, &timed, &mut recorded);
        }
        for (thread, core, placement) in timed {
            let images = &mut pool.slots[thread].images;
            let image = images.iter_mut().find(|i| Arc::ptr_eq(&i.core, &core));
            let image = image.expect("a retimed image stays in its slot for the region");
            image.keep_placement(placement);
        }
        // A thread a faulting region ran live for want of another thread's
        // image may hold its twin already: that one keeps the new placement.
        for (thread, image) in recorded {
            let images = &mut pool.slots[thread].images;
            match images.iter().position(|i| i.core.same_key(&image.core)) {
                Some(i) => {
                    images[..=i].rotate_right(1);
                    let placement = image.placements.into_iter().next();
                    images[0].keep_placement(placement.expect("a recorded placement"));
                }
                None => keep_mru(images, image),
            }
        }
    }
}

/// Whether one of `images` serves `cpu` in the region: its key matches the
/// live caches and it faults exactly the pages of `unmapped` it reaches
/// ([`ImageCore::faults_fit`]). At most one image can (a recording happens
/// only when none did, and a slot or a library keeps one image per key and
/// fault list). The image found rotates to the front, so images stay in
/// recency order: the steady-state memo is compared first (stale keys can
/// share long prefixes with the live state before diverging) and the last
/// one is the eviction victim.
pub(super) fn find(
    m: &Machine,
    cpu: CpuId,
    images: &mut [Image],
    lines: &LineSet,
    unmapped: &Unmapped,
) -> bool {
    let ctx = &m.cpus[cpu];
    let i = images.iter().position(|image| {
        image.core.faults_fit(unmapped)
            && level_matches(&ctx.l1, &image.core.l1, lines, &m.directory)
            && level_matches(&ctx.l2, &image.core.l2, lines, &m.directory)
    });
    let Some(i) = i else {
        return false;
    };
    images[..=i].rotate_right(1);
    true
}

/// The lane an image [`find`] served gives its CPU once the region's pages
/// are all on `frames`: a hit with a placement on them (rotated to the
/// front), retimed without one.
pub(super) fn lane_on(image: &mut Image, frames: &[(u64, FrameId)]) -> Lane {
    let Some(p) = image.on_frames(frames) else {
        return Lane::Retime;
    };
    image.placements[..=p].rotate_right(1);
    Lane::Hit
}

/// Count a miss of `slot`'s CPU by what disagreed: no image yet, the sets
/// (some image is timed on the live frames), or the frames as well.
fn count_miss(slot: &CpuSlot, frames: &[(u64, FrameId)], stats: &mut FastpathStats) {
    if slot.images.is_empty() {
        stats.cpu_misses_cold += 1;
    } else if slot
        .images
        .iter()
        .any(|image| image.on_frames(frames).is_some())
    {
        stats.cpu_misses_sets += 1;
    } else {
        stats.cpu_misses_frames += 1;
    }
}

/// Apply the front image of every CPU that sits the region out: directory
/// bumps for all of them first (cache fix-ups read the post-region
/// versions), then per-CPU state — a hitter's with its front placement's
/// timing, a retimed CPU's without (its walk lands that at region exit). A
/// live thread cannot observe any of this by eligibility.
fn apply_lanes(
    m: &mut Machine,
    pool: &mut Pool,
    lanes: &[Lane],
    frames: &[(u64, FrameId)],
) -> FastpathOutcome {
    for (t, _) in lanes.iter().enumerate().filter(|(_, &l)| l != Lane::Live) {
        for &(line, k) in &pool.writes_by_thread[t] {
            m.directory.bump(line, k);
        }
    }
    let mut outcome: FastpathOutcome = Default::default();
    for (t, &lane) in lanes.iter().enumerate() {
        if lane == Lane::Live {
            continue;
        }
        let slot = &mut pool.slots[t];
        let Image { core, placements } = &slot.images[0];
        apply_image(m, slot.cpu, core, frames);
        outcome.replayed.push(slot.cpu);
        if lane == Lane::Hit {
            land_timing(m, slot.cpu, &placements[0].timing);
            continue;
        }
        let nodes = m.config.topology.nodes();
        let node = m.cpus[slot.cpu].node;
        let mut homes = vec![NO_HOME; m.page_table.len()];
        let mut on = Vec::with_capacity(core.pages.len());
        for &(page, _) in &core.pages {
            let (vpage, frame) = frames[page as usize];
            homes[vpage as usize] = m.memory.node_of_frame(frame) as u16;
            on.push(frame);
        }
        outcome.retimed.push(Retime {
            thread: t,
            cpu: slot.cpu,
            frames: on,
            homes,
            image: Arc::clone(core),
            pos: 0,
            l1_ns: m.config.latency.l1_ns,
            l2_ns: m.config.latency.l2_ns,
            mem_ns: m.mem_ns[node * nodes..][..nodes].to_vec(),
            node,
            timing: Timing {
                stall_ns: 0.0,
                stall_by_node: vec![0.0; nodes],
                accesses_by_node: vec![0; nodes],
                mem_local: 0,
                mem_remote: 0,
            },
        });
    }
    outcome
}

fn int_stats(m: &Machine, cpu: CpuId) -> [u64; 5] {
    let s = &m.cpus[cpu].stats;
    [
        s.l1_hits,
        s.l2_hits,
        s.mem_local,
        s.mem_remote,
        s.coherence_misses,
    ]
}

/// `frame_page` entry of a frame outside the footprint being recorded.
const NO_PAGE: u32 = u32::MAX;

/// Diff exit state against the entry token; `None` discards the recording.
/// `frame_page` is the engine's working table: proof page by frame.
fn build_images(
    m: &Machine,
    pool: &Pool,
    token: &RecordToken,
    mut rec: FpRecording,
    frame_page: &mut Vec<u32>,
) -> Option<Vec<(usize, Image)>> {
    let proof = &*pool.proof;
    // Environmental checks first (silent discard): these can fail without the
    // proof being wrong — e.g. an explicit mid-region page operation. The
    // machine's statistics moved by the logged faults alone.
    let mut entry_stats = token.entry_stats;
    entry_stats.page_faults += rec.faults.len() as u64;
    entry_stats.best_effort_redirects += rec.fault_redirects;
    if m.stats != entry_stats
        || m.clock.now_ns().to_bits() != token.entry_clock_bits
        || !m.replicas.is_empty()
    {
        return None;
    }
    let mut live_slot = vec![usize::MAX; m.cpus.len()];
    for (slot, lc) in token.live.iter().enumerate() {
        live_slot[lc.cpu] = slot;
    }
    // Every page the region faulted in was a proof page unmapped at entry,
    // each faulted once, by a live CPU; each CPU's faults are kept in order.
    // At exit every proof page is mapped — a page the region never reached
    // would stay unmapped where the proof claims it — and on the frame it
    // entered or was faulted in on.
    let mut frames = token.frames.clone();
    let mut faults = vec![Vec::new(); token.live.len()];
    for &(vpage, cpu) in &rec.faults {
        let Ok(p) = frames.binary_search_by_key(&vpage, |&(vp, _)| vp) else {
            debug_assert!(
                false,
                "PhaseProof {:?}: page fault outside the proof footprint (vpage {vpage})",
                proof.label,
            );
            return None;
        };
        let slot = live_slot[cpu as usize];
        if frames[p].1 != NO_FRAME || slot == usize::MAX {
            return None;
        }
        frames[p].1 = m.page_table[vpage as usize].unwrap_or(NO_FRAME);
        faults[slot].push(p as u32);
    }
    for &(vp, f) in &frames {
        if f == NO_FRAME || m.page_table[vp as usize] != Some(f) {
            return None;
        }
    }
    // Contract checks: a failure here means the PhaseProof lied about the
    // region's footprint. The always-on checks are O(1) aggregates plus
    // O(touched) membership; debug builds back them with exhaustive
    // footprint scans (the `debug_assert` re-validation of the contract).
    //
    // Relative to the pre-apply snapshot, the directory's global write
    // total must have moved by exactly the full team's claims — the
    // hitters' bumps were applied verbatim, so any disagreement (an extra
    // write anywhere in the machine, or a missing one) is the live
    // threads'. This also pins every proof line's entry version to
    // `current − claimed`, which `diff_level` relies on to rebuild
    // record-time key freshness without a per-line snapshot.
    let dir_delta = m
        .directory
        .total_writes()
        .wrapping_sub(token.entry_dir_writes);
    if dir_delta != pool.claimed_writes {
        debug_assert!(
            false,
            "PhaseProof {:?}: region wrote {dir_delta} lines, proof claims {}",
            proof.label, pool.claimed_writes,
        );
        return None;
    }
    if cfg!(debug_assertions) {
        for &(line, entry) in &token.key_dir {
            let delta = m.directory.version(line).wrapping_sub(entry);
            let claimed = proof.writes_of(line);
            debug_assert!(
                delta == claimed,
                "PhaseProof {:?}: line {line} saw {delta} writes, proof claims {claimed}",
                proof.label,
            );
        }
    }
    // The counters' global total must have moved by exactly the accesses
    // the machine logged for the live threads, and every logged access must
    // land inside the proof's page footprint.
    let acc_delta = m
        .counters
        .total_recorded()
        .wrapping_sub(token.entry_accesses);
    if acc_delta != rec.mem_log.len() as u64 {
        debug_assert!(
            false,
            "PhaseProof {:?}: counters moved {acc_delta}, log has {}",
            proof.label,
            rec.mem_log.len(),
        );
        return None;
    }
    // One pass over the log: every access must land inside the proof's page
    // footprint, and each live CPU's accesses are counted per proof page
    // (`hits[slot * pages + page]`). A CPU streams through a page line by
    // line, so most entries repeat the previous entry's frame; a stencil
    // changes frame on nearly every one, so the frame's page is an index,
    // not a hash. `frame_page` is all `NO_PAGE` between calls: the
    // footprint's entries are set here and cleared before any return.
    if frame_page.len() < m.memory.total_frames() {
        frame_page.resize(m.memory.total_frames(), NO_PAGE);
    }
    for (pi, &(_, frame)) in frames.iter().enumerate() {
        frame_page[frame] = pi as u32;
    }
    let pages = frames.len();
    let mut hits = vec![0u64; token.live.len() * pages];
    let mut last = (u32::MAX, 0usize);
    let mut outside = None;
    for &(cpu, frame) in &rec.mem_log {
        if frame != last.0 {
            let pi = frame_page.get(frame as usize).copied().unwrap_or(NO_PAGE);
            if pi == NO_PAGE {
                outside = Some(frame);
                break;
            }
            last = (frame, pi as usize);
        }
        let slot = live_slot[cpu as usize];
        if slot != usize::MAX {
            hits[slot * pages + last.1] += 1;
        }
    }
    for &(_, frame) in &frames {
        frame_page[frame] = NO_PAGE;
    }
    if let Some(frame) = outside {
        debug_assert!(
            false,
            "PhaseProof {:?}: memory access outside the proof footprint (frame {frame})",
            proof.label,
        );
        return None;
    }
    if cfg!(debug_assertions) {
        // Exhaustive per-(frame, node) re-validation of the aggregate check.
        let nodes = m.config.topology.nodes();
        let mut logged: BTreeMap<(FrameId, usize), u64> = BTreeMap::new();
        for &(cpu, frame) in &rec.mem_log {
            *logged
                .entry((frame as FrameId, m.cpus[cpu as usize].node))
                .or_insert(0) += 1;
        }
        for (fi, &(_, frame)) in frames.iter().enumerate() {
            for node in 0..nodes {
                let delta = m
                    .counters
                    .get(frame, node)
                    .wrapping_sub(token.entry_counters[fi * nodes + node]);
                debug_assert!(
                    delta == logged.get(&(frame, node)).copied().unwrap_or(0),
                    "PhaseProof {:?}: counter ({frame},{node}) moved {delta}, log disagrees",
                    proof.label,
                );
            }
        }
    }
    // Group the pre-image log per (cpu, level), sorted by set — the memo's
    // touched-set lists are canonical regardless of probe order.
    let mut pre: HashMap<(CpuId, u8), Vec<(u32, usize)>> = HashMap::new();
    let mut cursor = 0usize;
    for &(cpu, level, set) in &rec.sets {
        let cpu = cpu as usize;
        let assoc = if level == 0 {
            m.cpus[cpu].l1.assoc()
        } else {
            m.cpus[cpu].l2.assoc()
        };
        pre.entry((cpu, level)).or_default().push((set, cursor));
        cursor += assoc;
    }
    if cursor != rec.ways.len() {
        debug_assert!(false, "pre-image log length mismatch");
        return None;
    }
    for entries in pre.values_mut() {
        entries.sort_unstable_by_key(|&(set, _)| set);
    }
    let empty: Vec<(u32, usize)> = Vec::new();
    let mut images = Vec::with_capacity(token.live.len());
    for (slot, lc) in token.live.iter().enumerate() {
        debug_assert_eq!(pool.slots[lc.thread].cpu, lc.cpu);
        let exit = int_stats(m, lc.cpu);
        let mut stats = [0u64; 5];
        for k in 0..5 {
            stats[k] = exit[k].checked_sub(lc.stats[k])?;
        }
        let [l1_hits, l2_hits, mem_local, mem_remote, coherence_misses] = stats;
        let ctx = &m.cpus[lc.cpu];
        let l1_pre = pre.get(&(lc.cpu, 0)).unwrap_or(&empty);
        let l2_pre = pre.get(&(lc.cpu, 1)).unwrap_or(&empty);
        let (l1, l1_fix) = diff_level(
            &ctx.l1, l1_pre, &rec.ways, lc.l1_tick, proof, pool, token, m,
        )?;
        let (l2, l2_fix) = diff_level(
            &ctx.l2, l2_pre, &rec.ways, lc.l2_tick, proof, pool, token, m,
        )?;
        // This CPU's memory accesses per proof page, in page order.
        let pages: Vec<(u32, u64)> = hits[slot * pages..][..pages]
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(pi, &count)| (pi as u32, count))
            .collect();
        let on = pages.iter().map(|&(pi, _)| frames[pi as usize].1);
        let mut classes = std::mem::take(&mut rec.classes[lc.cpu]);
        classes.seal();
        assert_eq!(
            (classes.len as u64, mem_local + mem_remote),
            (
                l1_hits + l2_hits + mem_local + mem_remote,
                pages.iter().map(|&(_, count)| count).sum()
            ),
            "{}: cpu {}'s class stream and memory log disagree with its statistics",
            proof.label,
            lc.cpu,
        );
        let placement = Placement {
            frames: on.collect(),
            timing: Timing {
                stall_ns: ctx.account.stall_ns,
                stall_by_node: ctx.account.stall_by_node.clone(),
                accesses_by_node: ctx.account.accesses_by_node.clone(),
                mem_local,
                mem_remote,
            },
        };
        // A walk that never reaches memory is timed the same everywhere.
        if pages.is_empty() {
            classes = ClassStream::default();
        }
        let core = ImageCore {
            l1,
            l2,
            l1_fix,
            l2_fix,
            pages,
            faults: std::mem::take(&mut faults[slot]),
            l1_hits,
            l2_hits,
            coherence_misses,
            compute_ns: ctx.account.compute_ns,
            cache_ns: ctx.account.cache_ns,
            classes,
        };
        images.push((
            lc.thread,
            Image {
                core: Arc::new(core),
                placements: vec![placement],
            },
        ));
    }
    Some(images)
}

/// Build one level's key from the logged pre-images and diff its exit state
/// into a [`CacheFix`]. `entries` is `(set, offset into pre-image ways)`,
/// sorted by set.
#[allow(clippy::too_many_arguments)]
fn diff_level(
    cache: &SetAssocCache,
    entries: &[(u32, usize)],
    pre_ways: &[(u64, u32, u64)],
    entry_tick: u64,
    proof: &PhaseProof,
    pool: &Pool,
    token: &RecordToken,
    m: &Machine,
) -> Option<(LevelKey, CacheFix)> {
    let assoc = cache.assoc();
    let w2 = assoc * 2;
    let tick_delta = cache.tick().checked_sub(entry_tick)?;
    let mut sets = Vec::with_capacity(entries.len());
    let mut key = Vec::with_capacity(entries.len() * w2);
    let mut out = [0u64; 2 * MAX_ASSOC];
    let mut fixes = Vec::new();
    for &(set, off) in entries {
        let entry_ways = &pre_ways[off..off + assoc];
        sets.push(set);
        // Freshness in the key is judged against the region-entry directory,
        // the same state match-time normalization reads. The entry version
        // is not snapshotted: the aggregate write check above pinned every
        // proof line's delta to its claim, so it is `current − claimed`.
        norm_ways(
            entry_ways,
            |t, v| {
                if pool.lines.contains(t) {
                    let entry_ver = m.directory.version(t).wrapping_sub(proof.writes_of(t));
                    debug_assert!(
                        token.key_dir.is_empty()
                            || (token.key_dir.binary_search_by_key(&t, |&(l, _)| l))
                                .is_ok_and(|i| token.key_dir[i].1 == entry_ver),
                        "arithmetic entry version disagrees with the snapshot"
                    );
                    (t, u64::from(v == entry_ver))
                } else {
                    (KEY_OTHER, 0)
                }
            },
            &mut out,
        );
        key.extend_from_slice(&out[..w2]);
        let entry_ranks = way_ranks(entry_ways);
        let base = set as usize * assoc;
        for w in 0..assoc {
            let (t, v, s) = cache.way(base + w);
            let (et, ev, es) = entry_ways[w];
            if t == et && v == ev && s == es {
                continue;
            }
            // Every way a proven region modifies must (a) hold a proof line —
            // the region fills only lines it accesses; (b) at the directory's
            // current version — fills take the current version and a writer
            // refreshes its own copy, while eligibility forbids another CPU
            // staling it; (c) be stamped after region entry, or not restamped
            // at all.
            if !pool.lines.contains(t) || v != m.directory.version(t) {
                debug_assert!(
                    false,
                    "PhaseProof {:?}: modified way holds line {t} v{v} (directory v{})",
                    proof.label,
                    m.directory.version(t)
                );
                return None;
            }
            let stamp_off = if s == es {
                0
            } else if s > entry_tick {
                s - entry_tick
            } else {
                debug_assert!(
                    false,
                    "PhaseProof {:?}: exit stamp predates entry",
                    proof.label
                );
                return None;
            };
            fixes.push((set, entry_ranks[w], t, stamp_off));
        }
    }
    Some((LevelKey { sets, key }, CacheFix { tick_delta, fixes }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::AccessKind::{self, Read, Write};
    use crate::machine::MachineConfig;
    use crate::{LINE_SHIFT, PAGE_SHIFT, PAGE_SIZE};

    const LABEL: &str = "test/loop";

    fn proof() -> PhaseProof {
        let mut lines: Vec<u64> = (0..8).collect();
        lines.extend(128..132); // page 1's first four lines
        PhaseProof::new(LABEL.into(), 2, lines, vec![(0, 2, 0)])
    }

    /// [`proof`] with one more claimed line: same label, another footprint.
    fn wider_proof() -> PhaseProof {
        let p = proof();
        let mut lines: Vec<u64> = p.lines().collect();
        lines.push(132);
        PhaseProof::new(p.label.clone(), p.threads, lines, p.line_writes().collect())
    }

    fn instance(proof: Option<PhaseProof>) -> (String, Option<PhaseProof>) {
        (LABEL.to_string(), proof)
    }

    /// An engine whose [`LABEL`] pool holds [`proof`].
    fn engine() -> FastpathEngine {
        let mut engine = FastpathEngine::new();
        engine.install(
            &ProofTable::fold([instance(Some(proof()))]),
            &MemoLibrary::default(),
        );
        engine
    }

    /// One access of the region body. The lane is the caller's to keep: a
    /// CPU in `replayed` had its effects applied by the engine and sits out,
    /// handing its accesses to its retime walk if it has one.
    fn access(
        m: &mut Machine,
        lanes: &mut FastpathOutcome,
        cpu: CpuId,
        vaddr: u64,
        kind: AccessKind,
    ) {
        if let Some(walk) = lanes.retime_of(cpu) {
            walk.touch(vaddr);
        } else if !lanes.replayed.contains(&cpu) {
            m.touch(cpu, vaddr, kind);
        }
    }

    /// The region body.
    fn workload(m: &mut Machine, lanes: &mut FastpathOutcome) {
        for i in 0..8 {
            access(m, lanes, 0, i * 128, Read);
        }
        access(m, lanes, 0, 0, Write);
        access(m, lanes, 0, 0, Write);
        if !lanes.replayed.contains(&0) {
            m.compute(0, 100);
        }
        for i in 0..4 {
            access(m, lanes, 1, PAGE_SIZE + i * 128, Read);
        }
    }

    fn prepared() -> Machine {
        let mut m = Machine::new(MachineConfig::tiny_test());
        m.map_page(0, 0).unwrap();
        m.map_page(1, 0).unwrap();
        m
    }

    /// One region of `body` on the team `binding`, under `engine` if given.
    fn run_body(
        m: &mut Machine,
        engine: Option<&mut FastpathEngine>,
        binding: &[CpuId],
        body: impl Fn(&mut Machine, &mut FastpathOutcome),
    ) {
        m.begin_region();
        match engine {
            None => body(m, &mut Default::default()),
            Some(e) => {
                let mut outcome = e.begin_region_fastpath(m, LABEL, binding);
                body(m, &mut outcome);
                e.finish_region(m, outcome);
            }
        }
        m.end_region();
    }

    fn run_region(m: &mut Machine, engine: Option<&mut FastpathEngine>) {
        run_body(m, engine, &[0, 1], workload);
    }

    /// Full observable state: clock bits, machine stats, per-CPU stats,
    /// the page table, counters of every mapped frame, page version sums.
    fn fingerprint(m: &Machine) -> (u64, String) {
        let mut counters = Vec::new();
        for (_, f) in m.mapped_pages() {
            for n in 0..m.topology().nodes() {
                counters.push(m.counters().get(f, n));
            }
        }
        let per_cpu: Vec<_> = (0..m.cpus()).map(|c| *m.cpu_stats(c)).collect();
        let pages: Vec<_> = m.mapped_pages().collect();
        (
            m.clock().now_ns().to_bits(),
            format!(
                "{:?} {:?} {pages:?} {:?} {} {}",
                m.stats(),
                per_cpu,
                counters,
                m.page_version_sum(0),
                m.page_version_sum(1)
            ),
        )
    }

    #[test]
    fn replayed_regions_are_bit_identical_to_reference() {
        let mut reference = prepared();
        let mut fast = prepared();
        let mut engine = engine();
        for _ in 0..4 {
            run_region(&mut reference, None);
            run_region(&mut fast, Some(&mut engine));
            assert_eq!(fingerprint(&reference), fingerprint(&fast));
        }
        // Iteration 1 records the cold variant, iteration 2 the steady-state
        // variant; iterations 3 and 4 replay it wholesale.
        let s = engine.stats();
        assert_eq!(s.records, 2, "{s:?}");
        assert_eq!(s.replays, 2, "{s:?}");
        assert_eq!(s.rejects, 0, "{s:?}");
        assert_eq!(s.cpu_records, 4, "{s:?}");
        assert_eq!(s.cpu_replays, 4, "{s:?}");
    }

    #[test]
    fn an_equal_proof_keeps_its_memos_and_another_footprint_starts_over() {
        let mut engine = engine();
        let mut m = prepared();
        for _ in 0..3 {
            run_region(&mut m, Some(&mut engine));
        }
        let before = engine.stats();
        assert!(before.replays >= 1, "{before:?}");
        // The same loop installed again (its iteration instances after the
        // cold-start one, several of them): the label's memos stay.
        engine.install(
            &ProofTable::fold([instance(Some(proof())), instance(Some(proof()))]),
            &MemoLibrary::default(),
        );
        run_region(&mut m, Some(&mut engine));
        assert_eq!(engine.stats().replays, before.replays + 1);
        // Same label, different footprint: an empty pool.
        engine.install(
            &ProofTable::fold([instance(Some(wider_proof()))]),
            &MemoLibrary::default(),
        );
        run_region(&mut m, Some(&mut engine));
        let s = engine.stats();
        assert_eq!(
            (s.replays, s.misses),
            (before.replays + 1, before.misses + 1)
        );
    }

    #[test]
    fn a_label_whose_instances_disagree_has_no_pool() {
        let mixed = [
            vec![instance(Some(proof())), instance(Some(wider_proof()))],
            vec![instance(Some(proof())), instance(None)],
            vec![instance(None), instance(Some(proof()))],
            // Not in the installed text at all.
            vec![("test/other".to_string(), Some(proof()))],
        ];
        for instances in mixed {
            let mut reference = prepared();
            let mut fast = prepared();
            // A pool an earlier install recorded into goes too.
            let mut engine = engine();
            for _ in 0..3 {
                run_region(&mut reference, None);
                run_region(&mut fast, Some(&mut engine));
            }
            let before = engine.stats();
            assert!(before.replays >= 1, "{before:?}");
            engine.install(&ProofTable::fold(instances), &MemoLibrary::default());
            for _ in 0..3 {
                run_region(&mut reference, None);
                run_region(&mut fast, Some(&mut engine));
                assert_eq!(fingerprint(&reference), fingerprint(&fast));
            }
            assert_eq!(engine.stats(), before, "exact, and not counted");
            // Installed consistently again, the label starts from nothing.
            engine.install(
                &ProofTable::fold([instance(Some(proof()))]),
                &MemoLibrary::default(),
            );
            run_region(&mut fast, Some(&mut engine));
            assert_eq!(engine.stats().misses, before.misses + 1);
        }
    }

    #[test]
    fn partial_replay_records_only_the_drifted_cpu() {
        let mut reference = prepared();
        let mut fast = prepared();
        let mut engine = engine();
        // Reach steady state on both machines.
        for _ in 0..3 {
            run_region(&mut reference, None);
            run_region(&mut fast, Some(&mut engine));
        }
        let before = engine.stats();
        assert!(before.replays >= 1, "{before:?}");
        // Perturb CPU 0's cache outside any region (a non-proof line on a
        // mapped page): its key drifts, CPU 1's does not.
        reference.touch(0, 120 * 128, Read);
        fast.touch(0, 120 * 128, Read);
        run_region(&mut reference, None);
        run_region(&mut fast, Some(&mut engine));
        assert_eq!(fingerprint(&reference), fingerprint(&fast));
        let s = engine.stats();
        assert_eq!(s.misses, before.misses + 1, "CPU 0 must miss: {s:?}");
        assert_eq!(
            s.cpu_replays,
            before.cpu_replays + 1,
            "CPU 1 must still replay through CPU 0's drift: {s:?}"
        );
        assert_eq!(s.cpu_records, before.cpu_records + 1, "{s:?}");
        // The re-recorded variant serves the perturbed state from now on.
        reference.touch(0, 120 * 128, Read);
        fast.touch(0, 120 * 128, Read);
        run_region(&mut reference, None);
        run_region(&mut fast, Some(&mut engine));
        assert_eq!(fingerprint(&reference), fingerprint(&fast));
        assert_eq!(engine.stats().replays, s.replays + 1, "full replay resumes");
    }

    fn rejected(outcome: FastpathOutcome) -> bool {
        outcome.replayed.is_empty() && outcome.record.is_none()
    }

    #[test]
    fn preconditions_reject() {
        let mut engine = engine();

        // Unmapped proof pages: no precondition. The region is recorded
        // with its faults, each on the thread that took it.
        let mut reference = Machine::new(MachineConfig::tiny_test());
        let mut m = Machine::new(MachineConfig::tiny_test());
        run_region(&mut reference, None);
        m.begin_region();
        let mut outcome = engine.begin_region_fastpath(&mut m, LABEL, &[0, 1]);
        assert!(outcome.replayed.is_empty() && outcome.record.is_some());
        workload(&mut m, &mut outcome);
        engine.finish_region(&mut m, outcome);
        m.end_region();
        assert_eq!(fingerprint(&reference), fingerprint(&m));
        let faults: Vec<Vec<u32>> = (engine.pools[LABEL].slots.iter())
            .map(|slot| slot.images[0].core.faults.clone())
            .collect();
        assert_eq!(faults, [[0], [1]]);

        // Replicas present.
        let mut m = prepared();
        m.replicate_page(0, 1).unwrap();
        m.begin_region();
        assert!(rejected(engine.begin_region_fastpath(
            &mut m,
            LABEL,
            &[0, 1]
        )));
        m.end_region();

        // Team-size mismatch.
        let mut m = prepared();
        m.begin_region();
        assert!(rejected(engine.begin_region_fastpath(&mut m, LABEL, &[0])));
        m.end_region();

        let s = engine.stats();
        let faulted = (s.records, s.fault_records, s.cpu_misses_faults);
        assert_eq!(
            (s.rejects, faulted, s.fault_pages),
            (2, (1, 1, 2), 0),
            "{s:?}"
        );
    }

    /// A stateful placement policy: pages are dealt to the nodes in turn.
    #[derive(Clone)]
    struct Deal(usize);

    impl crate::machine::Placer for Deal {
        fn place(&mut self, _vpage: u64, _cpu: CpuId, _cpu_node: usize) -> usize {
            self.0 = (self.0 + 1) % 4;
            self.0
        }

        fn name(&self) -> &'static str {
            "deal"
        }

        fn boxed_clone(&self) -> Box<dyn crate::machine::Placer> {
            Box::new(self.clone())
        }
    }

    /// A machine with nothing mapped, on the `deal`ing policy if given.
    fn unmapped(deal: Option<usize>) -> Machine {
        let mut m = Machine::new(MachineConfig::tiny_test());
        if let Some(first) = deal {
            m.set_placer(Box::new(Deal(first)));
        }
        m
    }

    #[test]
    fn a_faulting_region_replays_its_faults_in_thread_order() {
        // The first run records the region with its faults; every later run
        // of it on fresh machines faults the pages in at entry and replays,
        // on whatever policy — retimed where its pages land elsewhere.
        let mut engine = engine();
        for (deal, retimes) in [(None, 0), (None, 0), (Some(0), 2), (Some(2), 2)] {
            let (mut reference, mut fast) = (unmapped(deal), unmapped(deal));
            let before = engine.stats();
            for _ in 0..2 {
                run_region(&mut reference, None);
                run_region(&mut fast, Some(&mut engine));
                assert_eq!(fingerprint(&reference), fingerprint(&fast));
            }
            let s = engine.stats();
            if deal.is_some() {
                let want = FastpathStats {
                    replays: before.replays + 2,
                    cpu_replays: before.cpu_replays + 4 - retimes,
                    cpu_retimes: before.cpu_retimes + retimes,
                    fault_pages: before.fault_pages + 2,
                    ..before
                };
                assert_eq!(s, want, "dealt from {deal:?}");
            }
        }
        let s = engine.stats();
        assert_eq!((s.rejects, s.fault_pages), (0, 6), "{s:?}");
    }

    #[test]
    fn recording_discarded_when_region_has_side_effects() {
        let mut engine = engine();
        let mut m = prepared();
        m.begin_region();
        let mut outcome = engine.begin_region_fastpath(&mut m, LABEL, &[0, 1]);
        assert!(outcome.replayed.is_empty());
        assert!(outcome.record.is_some(), "a recording on first sight");
        workload(&mut m, &mut outcome);
        // An explicit page operation mid-region: environmental state moved,
        // so the memos must be dropped (silently, even in debug builds).
        m.migrate_page(1, 3).unwrap();
        engine.finish_region(&mut m, outcome);
        m.end_region();
        let s = engine.stats();
        assert_eq!(s.records, 0, "{s:?}");
        assert_eq!(s.rejects, 1, "{s:?}");
    }

    /// A one-CPU region that streams four lines through one L1 and one L2
    /// set (both 2-way): line 128 of page 1, lines 0 and 32 of page 0, line
    /// 256 of page 2. Every access reaches memory, every time, and between
    /// two runs lines 32 and 256 are resident, none of page 1's.
    fn thrash(m: &mut Machine, lanes: &mut FastpathOutcome) {
        for line in [128, 0, 32, 256] {
            access(m, lanes, 0, line * 128, Read);
        }
    }

    /// The proofs of [`thrash`].
    fn thrash_table() -> ProofTable {
        let proof = PhaseProof::new(LABEL.into(), 1, vec![0, 32, 128, 256], vec![]);
        ProofTable::fold([instance(Some(proof))])
    }

    /// Twin machines `(reference, fast)` on `config` with [`thrash`]'s pages
    /// on `node`.
    fn thrash_twins(config: &MachineConfig, node: usize) -> (Machine, Machine) {
        let twin = || {
            let mut m = Machine::new(config.clone());
            for page in 0..3 {
                m.map_page(page, node).unwrap();
            }
            m
        };
        (twin(), twin())
    }

    /// The twins `(reference, fast)` of [`thrash`] with its engine, on the
    /// machine `config`, run to their steady state.
    fn thrashing(config: MachineConfig) -> (Machine, Machine, FastpathEngine) {
        let mut engine = FastpathEngine::new();
        engine.install(&thrash_table(), &MemoLibrary::default());
        let (mut reference, mut fast) = thrash_twins(&config, 0);
        for _ in 0..3 {
            thrash_both(&mut reference, &mut fast, &mut engine);
        }
        (reference, fast, engine)
    }

    /// One more run of [`thrash`] on both twins, which must stay equal.
    fn thrash_both(reference: &mut Machine, fast: &mut Machine, engine: &mut FastpathEngine) {
        run_body(reference, None, &[0], thrash);
        run_body(fast, Some(engine), &[0], thrash);
        assert_eq!(fingerprint(reference), fingerprint(fast));
    }

    #[test]
    fn a_moved_page_is_retimed_unless_its_lines_were_resident() {
        // Non-integer memory latencies: the order of the walk's adds shows.
        let mut config = MachineConfig::tiny_test();
        config.latency = crate::LatencyModel::with_remote_ratio(2.3);
        let (mut reference, mut fast, mut engine) = thrashing(config);
        let steady = engine.stats();
        assert!(steady.replays >= 1, "{steady:?}");
        assert_eq!(steady.cpu_retimes, 0, "{steady:?}");

        // Page 1 moves; the CPU holds none of its lines, so its caches still
        // match the memo: the walk is re-timed on the new home.
        let mut move_page = |page, node, engine: &mut FastpathEngine| {
            reference.migrate_page(page, node).unwrap();
            fast.migrate_page(page, node).unwrap();
            thrash_both(&mut reference, &mut fast, engine);
            engine.stats()
        };
        let moved = move_page(1, 3, &mut engine);
        let want = FastpathStats {
            replays: steady.replays + 1,
            cpu_retimes: 1,
            ..steady
        };
        assert_eq!(moved, want);

        // Moved back — onto the frame it was recorded on — and away again:
        // the image is timed under both assignments by now, plain hits.
        let back = move_page(1, 0, &mut engine);
        let again = move_page(1, 3, &mut engine);
        let want = FastpathStats {
            replays: moved.replays + 2,
            cpu_replays: moved.cpu_replays + 2,
            ..moved
        };
        assert_eq!((back.cpu_retimes, again), (1, want));

        // Page 2 has a resident line: moving it invalidates that, the sets
        // disagree with every memo, and the region is recorded as ever.
        let invalidated = move_page(2, 2, &mut engine);
        let want = FastpathStats {
            misses: again.misses + 1,
            records: again.records + 1,
            cpu_records: again.cpu_records + 1,
            cpu_misses_frames: again.cpu_misses_frames + 1,
            ..again
        };
        assert_eq!(invalidated, want);
    }

    #[test]
    #[should_panic(expected = "retime walk")]
    fn a_retime_walk_that_leaves_its_stream_is_an_engine_bug() {
        let (_, mut fast, mut engine) = thrashing(MachineConfig::tiny_test());
        fast.migrate_page(1, 3).unwrap();
        // The body makes one access fewer than the image was recorded with.
        run_body(&mut fast, Some(&mut engine), &[0], |m, lanes| {
            for line in [128, 0, 32] {
                access(m, lanes, 0, line * 128, Read);
            }
        });
    }

    #[test]
    fn a_thread_whose_image_leaves_its_fault_to_another_runs_live() {
        // Thread 0 (CPU 0, node 0) reads page 0; thread 1 (CPU 2, node 1)
        // reads page 1, then page 0. Two recordings give the threads images
        // of the cold caches that fault differently: thread 0's with page 0
        // mapped (it faults nothing), thread 1's with page 0 unmapped and
        // thread 0 hitting a stale copy of its line (it faults both pages).
        // Together they fault exactly the unmapped pages of a fresh machine,
        // but there thread 0 faults page 0 itself — on its own node — so
        // its image does not serve it and the region runs live. The stale
        // line `unmap_page` leaves is what makes such a pair: on states the
        // exact path produces, a thread faults every unmapped page it
        // reaches.
        let proof = PhaseProof::new(LABEL.into(), 2, vec![0, 1, 128], vec![]);
        let mut engine = FastpathEngine::new();
        engine.install(
            &ProofTable::fold([instance(Some(proof))]),
            &MemoLibrary::default(),
        );
        let body = |m: &mut Machine, lanes: &mut FastpathOutcome| {
            access(m, lanes, 0, 0, Read);
            access(m, lanes, 2, PAGE_SIZE, Read);
            access(m, lanes, 2, 128, Read);
        };
        let mut mapped = Machine::new(MachineConfig::tiny_test());
        mapped.map_page(0, 0).unwrap();
        run_body(&mut mapped, Some(&mut engine), &[0, 2], body);
        let mut stale = Machine::new(MachineConfig::tiny_test());
        stale.map_page(0, 0).unwrap();
        stale.touch(0, 0, Read);
        stale.unmap_page(0).unwrap();
        run_body(&mut stale, Some(&mut engine), &[0, 2], body);
        assert_eq!(engine.stats().records, 2);
        for run in 0..2 {
            let before = engine.stats();
            let (mut reference, mut fast) = (unmapped(None), unmapped(None));
            run_body(&mut reference, None, &[0, 2], body);
            run_body(&mut fast, Some(&mut engine), &[0, 2], body);
            assert_eq!(fingerprint(&reference), fingerprint(&fast));
            assert_eq!(fast.node_of_vpage(0), Some(0));
            // Recorded, then replayed from what it recorded. Not admitted,
            // both threads count as fault misses, whatever thread 0 found.
            let s = engine.stats();
            assert_eq!(
                (
                    s.records,
                    s.fault_records,
                    s.cpu_misses_faults,
                    s.fault_pages
                ),
                (
                    before.records + 1 - run,
                    before.fault_records + 1 - run,
                    before.cpu_misses_faults + 2 * (1 - run),
                    2 * run
                )
            );
        }
    }

    /// A library of its own, and a fresh engine of [`thrash`]'s table
    /// sharing it.
    fn sharing() -> (MemoLibrary, impl Fn() -> FastpathEngine) {
        let (table, library) = (thrash_table(), MemoLibrary::default());
        let lent = library.clone();
        let engine = move || {
            let mut engine = FastpathEngine::new();
            engine.install(&table, &lent);
            engine
        };
        (library, engine)
    }

    #[test]
    fn a_published_image_is_retimed_on_other_frames_and_hits_on_the_same() {
        // Non-integer memory latencies: the order of the walk's adds shows.
        let mut config = MachineConfig::tiny_test();
        config.latency = crate::LatencyModel::with_remote_ratio(2.3);
        let (library, engine) = sharing();
        // The publisher records the cold image, then the steady one, and
        // replays that; nothing moves, so both are published.
        let mut first = engine();
        let (mut reference, mut fast) = thrash_twins(&config, 0);
        for _ in 0..3 {
            thrash_both(&mut reference, &mut fast, &mut first);
        }
        let recorded = first.stats();
        assert_eq!((recorded.cpu_records, recorded.cpu_borrowed), (2, 0));
        assert_eq!(library.stats().images, 2);

        // Later runs start with the caches the first one started with, so
        // each borrows both images and records nothing. On other frames
        // the walk is retimed — and published, so the next run on those
        // frames hits — and on the publisher's frames it hits.
        for (node, retimes) in [(2, 2), (0, 0), (2, 0)] {
            let mut later = engine();
            let (mut reference, mut fast) = thrash_twins(&config, node);
            for _ in 0..3 {
                thrash_both(&mut reference, &mut fast, &mut later);
            }
            let want = FastpathStats {
                replays: 3,
                cpu_replays: 3 - retimes,
                cpu_retimes: retimes,
                cpu_borrowed: 2,
                ..Default::default()
            };
            assert_eq!(later.stats(), want, "pages on node {node}");
        }
        assert_eq!(library.stats().images, 2, "a borrowed image is held once");
    }

    #[test]
    fn an_image_recorded_after_a_migration_is_not_published() {
        let config = MachineConfig::tiny_test();
        let (library, engine) = sharing();
        let mut engine = engine();
        let (mut reference, mut fast) = thrash_twins(&config, 0);
        for _ in 0..3 {
            thrash_both(&mut reference, &mut fast, &mut engine);
        }
        let held = library.stats();
        // Page 2 has a resident line: the move invalidates it, the sets
        // match no image, and the region is recorded — for this run only.
        reference.migrate_page(2, 2).unwrap();
        fast.migrate_page(2, 2).unwrap();
        let before = engine.stats();
        thrash_both(&mut reference, &mut fast, &mut engine);
        assert_eq!(engine.stats().cpu_records, before.cpu_records + 1);
        assert_eq!(library.stats(), held);
        // The run keeps its own memo: the next region replays it.
        thrash_both(&mut reference, &mut fast, &mut engine);
        assert_eq!(engine.stats().replays, before.replays + 1);
    }

    #[test]
    fn a_far_apart_proof_is_rejected_without_a_bitmap() {
        // A line at 2^37 (an array at 2^44 bytes): a bitmap sized by the
        // proof's last line would be 16 GiB.
        let far = 1u64 << 37;
        let proof = PhaseProof::new(LABEL.into(), 1, vec![0, far], vec![]);
        let mut engine = FastpathEngine::new();
        engine.install(
            &ProofTable::fold([instance(Some(proof))]),
            &MemoLibrary::default(),
        );
        let (mut reference, mut fast) = (prepared(), prepared());
        let near_only = |m: &mut Machine, lanes: &mut FastpathOutcome| {
            assert!(lanes.replayed.is_empty() && lanes.record.is_none());
            access(m, lanes, 0, 0, Read);
        };
        run_body(&mut reference, None, &[0], near_only);
        run_body(&mut fast, Some(&mut engine), &[0], near_only);
        assert_eq!(fingerprint(&reference), fingerprint(&fast));
        let want = FastpathStats {
            rejects: 1,
            ..Default::default()
        };
        assert_eq!(engine.stats(), want, "rejected, exact, counted once");
        // The far page lies beyond the machine: the pool was never admitted.
        assert!(engine.pools[LABEL].lines.0.is_empty());

        // Admitted, a pool's bitmap spans what the machine can map.
        let (_, fast, engine) = thrashing(MachineConfig::tiny_test());
        let span = fast.config.max_vpages << (PAGE_SHIFT - LINE_SHIFT);
        let words = engine.pools[LABEL].lines.0.len();
        assert!(0 < words && words <= span / 64, "{words} words");
    }
}
