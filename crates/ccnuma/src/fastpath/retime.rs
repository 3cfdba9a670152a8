use std::sync::Arc;

use super::image::ImageCore;
use crate::cpu::CpuId;
use crate::memory::FrameId;
use crate::PAGE_SHIFT;

/// Access classes of a class stream: what `Machine::touch` resolved an
/// access to.
pub(crate) const CLASS_L1: u8 = 0;
pub(crate) const CLASS_L2: u8 = 1;
pub(crate) const CLASS_MEM: u8 = 2;

/// One 2-bit class per access of one CPU's walk, in walk order, 32 to a
/// word. Filled through `cur`, so a push touches no heap word but every
/// 32nd; read only once [`ClassStream::seal`]ed.
#[derive(Clone, Default)]
pub(crate) struct ClassStream {
    pub(super) words: Vec<u64>,
    /// The word being filled: classes `len & !31 ..`.
    cur: u64,
    pub(super) len: usize,
}

impl ClassStream {
    #[inline]
    pub(crate) fn push(&mut self, class: u8) {
        self.cur |= u64::from(class) << ((self.len & 31) * 2);
        self.len += 1;
        if self.len & 31 == 0 {
            self.words.push(std::mem::take(&mut self.cur));
        }
    }

    /// Flush the word being filled, if any, into a vector of exactly the
    /// stream's size: a sealed stream is kept as long as its image, and the
    /// buffer it grew in (up to twice that) goes back whole, for the next
    /// recording to grow in.
    pub(super) fn seal(&mut self) {
        if self.words.len() * 32 < self.len {
            self.words.push(std::mem::take(&mut self.cur));
        }
        self.words = self.words.as_slice().to_vec();
    }

    /// Class of access `i`; past the end it reads [`CLASS_L1`] (the walk's
    /// exit check compares lengths).
    #[inline]
    fn get(&self, i: usize) -> u8 {
        let word = self.words.get(i >> 5).copied().unwrap_or(0);
        (word >> ((i & 31) * 2)) as u8 & 3
    }
}

/// The frame-dependent numbers of one CPU's walk: what a memory access
/// costs and where it is counted.
#[derive(Clone)]
pub(super) struct Timing {
    pub(super) stall_ns: f64,
    pub(super) stall_by_node: Vec<f64>,
    pub(super) accesses_by_node: Vec<u64>,
    pub(super) mem_local: u64,
    pub(super) mem_remote: u64,
}

/// A retimed CPU's walk: its thread calls [`Retime::touch`] for every access
/// of the region body, in order, in place of `Machine::touch`. The walk
/// probes no cache and writes no directory or counter — the image was
/// applied at entry — it only adds up what `touch` would have returned. It
/// carries what it reads of the machine (latencies, the homes of its pages
/// as the page table had them at entry), so the thread holds one pointer.
pub struct Retime {
    pub(super) thread: usize,
    pub(super) cpu: CpuId,
    /// Frames of the image's pages at region entry, in `ImageCore::pages`
    /// order.
    pub(super) frames: Vec<FrameId>,
    /// Home node by virtual page, for the image's pages; [`NO_HOME`]
    /// elsewhere.
    pub(super) homes: Vec<u16>,
    /// The image walked, by identity rather than position: its placement
    /// lands on this image, in the run's slot and (while it holds the
    /// image) the library, however other runs reorder or evict.
    pub(super) image: Arc<ImageCore>,
    pub(super) pos: usize,
    pub(super) l1_ns: f64,
    pub(super) l2_ns: f64,
    /// The CPU's row of the machine's memory-latency table, by home node.
    pub(super) mem_ns: Vec<f64>,
    pub(super) node: usize,
    pub(super) timing: Timing,
}

/// [`Retime::homes`] of a page the image never reached memory on.
pub(super) const NO_HOME: u16 = u16::MAX;

impl Retime {
    /// Account the next access of the walk, to `vaddr`: the same adds, in
    /// the same order, as `Machine::touch` makes for an access of that
    /// class. Out of line and cold: the call sits in every kernel loop
    /// beside the exact and the data-only lane, and runs in the first step
    /// of a run that borrows images another run timed on other frames —
    /// every run of a key on another placement than its first — and for an
    /// iteration or two after a migration.
    #[cold]
    #[inline(never)]
    pub fn touch(&mut self, vaddr: u64) {
        let class = self.image.classes.get(self.pos);
        self.pos += 1;
        let t = &mut self.timing;
        t.stall_ns += match class {
            CLASS_L1 => self.l1_ns,
            CLASS_L2 => self.l2_ns,
            _ => {
                let home = self.homes.get((vaddr >> PAGE_SHIFT) as usize);
                let home = usize::from(home.copied().unwrap_or(NO_HOME));
                let Some(&ns) = self.mem_ns.get(home) else {
                    panic!("a retime walk reached memory on a page its image never did");
                };
                if home == self.node {
                    t.mem_local += 1;
                } else {
                    t.mem_remote += 1;
                }
                t.stall_by_node[home] += ns;
                t.accesses_by_node[home] += 1;
                ns
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_class_stream_reads_back_what_was_pushed() {
        // Across a word boundary, with and without a partial last word.
        for len in [0usize, 1, 31, 32, 33, 64, 70] {
            let class = |i: usize| [CLASS_MEM, CLASS_L1, CLASS_L2][i % 3];
            let mut stream = ClassStream::default();
            (0..len).for_each(|i| stream.push(class(i)));
            stream.seal();
            stream.seal(); // sealing twice flushes once
            assert_eq!((stream.len, stream.words.len()), (len, len.div_ceil(32)));
            assert!((0..len).all(|i| stream.get(i) == class(i)), "{len}");
            assert_eq!(stream.get(len + 40), CLASS_L1, "past the end");
        }
    }
}
