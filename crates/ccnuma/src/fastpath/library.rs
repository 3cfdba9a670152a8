use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use super::engine::{find, lane_on, Lane, Pool};
use super::image::{keep_mru, Image, ImageCore, Placement, Unmapped};
use super::proof::PhaseProof;
use crate::cpu::CpuId;
use crate::machine::Machine;
use crate::memory::FrameId;

/// A memo library: the images the engines of one key have published, and
/// where each has been timed. Within a library, images are held per
/// (proof, thread, bound CPU), at most [`MAX_VARIANTS`] each, MRU first.
///
/// A handle is what an engine holds ([`FastpathEngine::install`]); every
/// clone is the same library. Which engines share one is the caller's to
/// say: the engines that install one proof set on machines configured
/// alike, since the images are keyed on that set's proofs and timed on that
/// machine. There is no capacity to set.
#[derive(Clone, Default)]
pub struct MemoLibrary(Arc<Mutex<Slots>>);

/// `(proof address, thread, CPU)` → the proof (held, so its address names
/// it while the entry lives) and its images.
pub(super) type Slots = HashMap<(usize, usize, CpuId), (Arc<PhaseProof>, Vec<Image>)>;

/// Every update of a library's state leaves it valid at every step (images
/// are immutable; a list insert, rotation or truncation is whole), so a lock
/// a panicking thread poisoned is taken as it stands.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What memo libraries hold ([`MemoLibrary::stats`], or a sum of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LibraryStats {
    /// Libraries counted.
    pub libraries: usize,
    /// Images held.
    pub images: usize,
    /// Bytes of walk the images hold: class streams and the page indices
    /// beside them.
    pub class_bytes: usize,
}

impl MemoLibrary {
    /// What this library holds.
    pub fn stats(&self) -> LibraryStats {
        let slots = lock(&self.0);
        let images: Vec<&Image> = slots.values().flat_map(|(_, images)| images).collect();
        LibraryStats {
            libraries: 1,
            images: images.len(),
            class_bytes: images.iter().map(|i| i.core.walk_bytes()).sum(),
        }
    }

    /// A lender over this library, which takes its lock on first use.
    pub(super) fn lender(&self) -> Lender<'_> {
        Lender {
            library: self,
            slots: None,
        }
    }

    /// Shelve the placements one region's retimes of `pool` timed
    /// (`(thread, image, placement)`) on their images, while the library
    /// holds them.
    pub(super) fn publish_placements(
        &self,
        pool: &Pool,
        timed: Vec<(usize, Arc<ImageCore>, Placement)>,
    ) {
        let mut slots = lock(&self.0);
        for (thread, core, placement) in timed {
            let held = pool.shelf(&mut slots, thread);
            if let Some(image) = held.iter_mut().find(|h| Arc::ptr_eq(&h.core, &core)) {
                image.keep_placement(placement);
            }
        }
    }

    /// Shelve the images one region of `pool` recorded. A recorded image
    /// keyed like one held keeps the held one, and the engine is handed its
    /// core to hold instead of its own copy.
    pub(super) fn publish_images(&self, pool: &Pool, recorded: &mut [(usize, Image)]) {
        let mut slots = lock(&self.0);
        for (thread, image) in recorded {
            let held = pool.shelf(&mut slots, *thread);
            match held.iter_mut().find(|h| h.core.same_key(&image.core)) {
                Some(twin) => {
                    debug_assert!(twin.core.pages == image.core.pages, "equal keys, one walk");
                    twin.keep_placement(image.placements[0].clone());
                    image.core = Arc::clone(&twin.core);
                }
                None => keep_mru(
                    held,
                    Image {
                        core: Arc::clone(&image.core),
                        placements: image.placements.clone(),
                    },
                ),
            }
        }
    }
}

/// The library's side of one region entry: its images looked up for the
/// threads whose own missed, and copied to the threads they serve, under
/// one acquisition of the lock, taken by the first lookup.
pub(super) struct Lender<'l> {
    library: &'l MemoLibrary,
    slots: Option<MutexGuard<'l, Slots>>,
}

impl Lender<'_> {
    /// The core of the library's image for `thread` of `pool` that serves
    /// its CPU's live caches with `unmapped` pages (see [`find`]), held in
    /// front of its list until [`Lender::lend`].
    pub(super) fn find(
        &mut self,
        m: &Machine,
        pool: &Pool,
        thread: usize,
        unmapped: &Unmapped,
    ) -> Option<Arc<ImageCore>> {
        let slots = self.slots.get_or_insert_with(|| lock(&self.library.0));
        let (_, held) = slots.get_mut(&pool.slot_key(thread))?;
        let cpu = pool.slots[thread].cpu;
        find(m, cpu, held, &pool.lines, unmapped).then(|| Arc::clone(&held[0].core))
    }

    /// Copy what [`Lender::find`] found for `thread` into its slot in
    /// `pool`, with its placement on `frames` if it has one: the lane that
    /// gives the thread.
    pub(super) fn lend(
        &mut self,
        pool: &mut Pool,
        thread: usize,
        frames: &[(u64, FrameId)],
    ) -> Lane {
        let slots = self.slots.as_mut().expect("found before it is lent");
        let (_, held) = slots.get_mut(&pool.slot_key(thread)).expect("found");
        let image = &mut held[0];
        let lane = lane_on(image, frames);
        let placements = match lane {
            Lane::Hit => vec![image.placements[0].clone()],
            _ => Vec::new(),
        };
        let core = Arc::clone(&image.core);
        keep_mru(&mut pool.slots[thread].images, Image { core, placements });
        lane
    }
}
