use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use super::engine::{find, FastpathStats, Lane, Pool};
use super::image::{keep_mru, Image, ImageCore, Placement};
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
    /// Bytes of class stream the images hold.
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
            class_bytes: images.iter().map(|i| i.core.classes.words.len() * 8).sum(),
        }
    }

    /// Serve each CPU of `pool` whose `lanes` entry is still open from the
    /// library's images of its slot, copying what served it into the slot.
    pub(super) fn lend(
        &self,
        m: &Machine,
        pool: &mut Pool,
        lanes: &mut [Option<Lane>],
        frames: &[(u64, FrameId)],
        stats: &mut FastpathStats,
    ) {
        let mut slots = lock(&self.0);
        for (t, lane) in lanes.iter_mut().enumerate() {
            if lane.is_some() {
                continue;
            }
            let Some((_, held)) = slots.get_mut(&pool.slot_key(t)) else {
                continue;
            };
            let slot = &mut pool.slots[t];
            let Some(found) = find(m, slot.cpu, held, &pool.lines, frames) else {
                continue;
            };
            let image = &held[0];
            let placements = match found {
                Lane::Hit => vec![image.placements[0].clone()],
                _ => Vec::new(),
            };
            let core = Arc::clone(&image.core);
            keep_mru(&mut slot.images, Image { core, placements });
            *lane = Some(found);
            stats.cpu_borrowed += 1;
        }
    }

    /// Shelve what one region of `pool` timed: the placements of retime
    /// walks (`(thread, image, placement)`), on their images while the
    /// library holds them, and the `recorded` images. A recorded image
    /// keyed like one held keeps the held one, and the engine is handed its
    /// core to hold instead of its own copy.
    pub(super) fn publish(
        &self,
        pool: &Pool,
        timed: &[(usize, Arc<ImageCore>, Placement)],
        recorded: &mut [(usize, Image)],
    ) {
        let mut slots = lock(&self.0);
        for (thread, core, placement) in timed {
            let held = pool.shelf(&mut slots, *thread);
            if let Some(image) = held.iter_mut().find(|h| Arc::ptr_eq(&h.core, core)) {
                image.keep_placement(placement.clone());
            }
        }
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
