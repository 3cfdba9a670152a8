use super::image::ImageCore;
use crate::cpu::CpuId;
use crate::machine::Machine;
use crate::memory::FrameId;

/// Access classes of a class stream: what `Machine::touch` resolved an
/// access to. A recording pushes the first three; its [`PageEncoder`]
/// turns some memory accesses into [`CLASS_LAG`].
pub(crate) const CLASS_L1: u8 = 0;
pub(crate) const CLASS_L2: u8 = 1;
/// Memory, on the page the next explicit index of the [`PageStream`] names.
pub(crate) const CLASS_MEM: u8 = 2;
/// Memory, on the page of the memory access its [`PageStream`]'s `lag`
/// earlier.
const CLASS_LAG: u64 = 3;

/// The largest lag a [`PageStream`] may choose: a loop nest that walks a
/// few arrays' pencils or planes over up to this many memory accesses, and
/// then walks them again in the same order, still repeats.
const LAGS: usize = 256;

/// A [`LagCount`] tries every lag on each of its walk's first `PREFIX`
/// memory accesses, and after them on every `SAMPLE`th: a prime, so the
/// samples do not keep landing on one phase of a power-of-two loop.
const PREFIX: usize = 64;
const SAMPLE: usize = 61;

/// Every class's high bit in a stream word: set for [`CLASS_MEM`] and
/// [`CLASS_LAG`], clear for the cache hits.
const MEM_BITS: u64 = 0xAAAA_AAAA_AAAA_AAAA;

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

    /// The classes of word `w`, and how many of its 32 slots the stream
    /// fills.
    #[inline]
    fn word(&self, w: usize) -> (u64, usize) {
        (self.words[w], (self.len - w * 32).min(32))
    }
}

/// The page of every memory access of one CPU's walk, beside its
/// [`ClassStream`]: a [`CLASS_LAG`] access is on the page of the memory
/// access `lag` before it, a [`CLASS_MEM`] access on the page its explicit
/// index names. Indices are image-local (positions in `ImageCore::pages`),
/// packed in as few bits as the image's page count needs (none for one
/// page). Streaming and interleaved loops revisit the page of a recent
/// access, so one lag per image leaves most accesses no index at all.
#[derive(Clone, Default)]
pub(super) struct PageStream {
    lag: usize,
    /// Bits per explicit index.
    bits: usize,
    /// How many explicit indices the stream holds.
    len: usize,
    /// The explicit indices, `bits` each, from bit 0 up in walk order.
    explicit: Vec<u64>,
}

/// What a recording learns of one CPU's memory accesses before it encodes
/// them: for each lag, how many sampled accesses are on the page of the
/// access that lag before — what the lag would predict. A loop nest that
/// repeats its walk is predicted whole by the walk's period, which the
/// distance to a page's last access does not show when the walk revisits a
/// page within a period.
pub(super) struct LagCount {
    /// The page of each of the last [`LAGS`] accesses, twice: access `i` at
    /// `i % LAGS` and `i % LAGS + LAGS`, so the last `LAGS` are one slice
    /// from the oldest up.
    recent: [u32; 2 * LAGS],
    seen: usize,
    /// Per lag, at `LAGS - lag`: the sampled accesses that had an access
    /// `lag` before, and those of them on its page.
    tried: [u32; LAGS],
    same: [u32; LAGS],
}

impl Default for LagCount {
    fn default() -> Self {
        Self {
            recent: [0; 2 * LAGS],
            seen: 0,
            tried: [0; LAGS],
            same: [0; LAGS],
        }
    }
}

impl LagCount {
    /// Count the next memory access, on proof page `page`.
    #[inline]
    pub(super) fn push(&mut self, page: u32) {
        let at = self.seen % LAGS;
        if self.seen < PREFIX || self.seen.is_multiple_of(SAMPLE) {
            // Lags `1..=n` reach back to an access of the walk.
            let n = self.seen.min(LAGS);
            let back = &self.recent[at + LAGS - n..at + LAGS];
            let counts = self.tried[LAGS - n..]
                .iter_mut()
                .zip(&mut self.same[LAGS - n..]);
            for ((tried, same), &p) in counts.zip(back) {
                *tried += 1;
                *same += u32::from(p == page);
            }
        }
        self.recent[at] = page;
        self.recent[at + LAGS] = page;
        self.seen += 1;
    }

    /// The lag that predicts the most accesses (the shortest of a tie), as
    /// the samples estimate it: its hit rate on the samples it was tried on,
    /// times the accesses it can predict.
    fn best(&self) -> usize {
        let predicted = |lag: usize| match self.tried[LAGS - lag] {
            0 => 0.0,
            tried => {
                let rate = f64::from(self.same[LAGS - lag]) / f64::from(tried);
                rate * (self.seen - lag) as f64
            }
        };
        let mut best = (1, predicted(1));
        for lag in 2..=LAGS {
            let n = predicted(lag);
            if n > best.1 {
                best = (lag, n);
            }
        }
        best.0
    }
}

/// Encodes one CPU's memory accesses, in walk order, into its
/// [`ClassStream`] and a [`PageStream`].
pub(super) struct PageEncoder {
    stream: PageStream,
    recent: [u32; LAGS],
    seen: usize,
    /// The stream word being scanned for memory accesses, and the high bits
    /// of its memory classes not yet encoded.
    word: usize,
    pending: u64,
}

impl PageEncoder {
    /// An encoder for a walk that reaches `pages` distinct pages, with the
    /// lag its `count` chose.
    pub(super) fn new(count: &LagCount, pages: usize) -> Self {
        Self {
            stream: PageStream {
                lag: count.best(),
                bits: (usize::BITS - pages.saturating_sub(1).leading_zeros()) as usize,
                len: 0,
                explicit: Vec::new(),
            },
            recent: [u32::MAX; LAGS],
            seen: 0,
            word: 0,
            pending: 0,
        }
    }

    /// Encode the next memory access of the walk, on proof page `page`,
    /// the image's page `local`: a [`CLASS_LAG`] in `classes` (a sealed
    /// recording stream) if its page is the lag's, an explicit index
    /// otherwise.
    #[inline]
    pub(super) fn push(&mut self, classes: &mut ClassStream, page: u32, local: u32) {
        while self.pending == 0 {
            self.pending = classes.words[self.word] & MEM_BITS;
            self.word += 1;
        }
        let bit = self.pending.trailing_zeros();
        self.pending &= self.pending - 1;
        let back = self.seen.wrapping_sub(self.stream.lag) % LAGS;
        if self.recent[back] == page {
            classes.words[self.word - 1] |= 1 << (bit - 1);
        } else {
            self.stream.push(local);
        }
        self.recent[self.seen % LAGS] = page;
        self.seen += 1;
    }

    pub(super) fn finish(mut self) -> PageStream {
        self.stream.explicit.shrink_to_fit();
        self.stream
    }
}

impl PageStream {
    /// Bytes the stream holds.
    pub(super) fn bytes(&self) -> usize {
        self.explicit.len() * 8
    }

    /// Append the next explicit index.
    fn push(&mut self, index: u32) {
        let at = self.len * self.bits;
        self.len += 1;
        if self.explicit.len() * 64 < at + self.bits {
            self.explicit.push(0);
        }
        let (w, off) = (at / 64, at % 64);
        if self.bits > 0 {
            self.explicit[w] |= u64::from(index) << off;
        }
        if off + self.bits > 64 {
            self.explicit[w + 1] |= u64::from(index) >> (64 - off);
        }
    }

    /// Explicit index `j`.
    #[inline]
    fn index(&self, j: usize) -> usize {
        if self.bits == 0 {
            return 0;
        }
        let at = j * self.bits;
        let (w, off) = (at / 64, at % 64);
        let mut index = self.explicit[w] >> off;
        if off + self.bits > 64 {
            index |= self.explicit[w + 1] << (64 - off);
        }
        (index & ((1 << self.bits) - 1)) as usize
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

/// Time `cpu`'s walk of `image` on `m` with its pages on `frames` (in
/// `ImageCore::pages` order): the same adds, in the same order, as
/// `Machine::touch` makes for its accesses, so `stall_ns` lands the bits
/// line-by-line execution would — non-integer latencies included. Probes
/// no cache and writes nothing; a walk that leaves its streams or its
/// image's memory count is the engine's own bug, and panics.
pub(super) fn retime(image: &ImageCore, m: &Machine, cpu: CpuId, frames: &[FrameId]) -> Timing {
    let homes: Vec<usize> = frames.iter().map(|&f| m.memory.node_of_frame(f)).collect();
    let (node, nodes) = (m.cpus[cpu].node, m.config.topology.nodes());
    let (l1_ns, l2_ns) = (m.config.latency.l1_ns, m.config.latency.l2_ns);
    let mem_ns = &m.mem_ns[node * nodes..][..nodes];
    let mut t = Timing {
        stall_ns: 0.0,
        stall_by_node: vec![0.0; nodes],
        accesses_by_node: vec![0; nodes],
        mem_local: 0,
        mem_remote: 0,
    };
    let (classes, pages) = (&image.classes, &image.mem_pages);
    let mut recent = [0usize; LAGS];
    let (mut seen, mut explicit) = (0usize, 0usize);
    for w in 0..classes.words.len() {
        let (word, len) = classes.word(w);
        for i in 0..len {
            t.stall_ns += match word >> (i * 2) & 3 {
                0 => l1_ns,
                1 => l2_ns,
                class => {
                    let home = if class == CLASS_LAG {
                        recent[seen.wrapping_sub(pages.lag) % LAGS]
                    } else {
                        explicit += 1;
                        homes[pages.index(explicit - 1)]
                    };
                    recent[seen % LAGS] = home;
                    seen += 1;
                    let ns = mem_ns[home];
                    if home == node {
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
    assert_eq!(
        (seen as u64, explicit),
        (image.memory_accesses(), pages.len),
        "a retime walk (memory accesses, explicit indices) left its image's",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Class `i` of a sealed stream.
    fn class(stream: &ClassStream, i: usize) -> u64 {
        stream.words[i >> 5] >> ((i & 31) * 2) & 3
    }

    #[test]
    fn a_class_stream_reads_back_what_was_pushed() {
        // Across a word boundary, with and without a partial last word.
        for len in [0usize, 1, 31, 32, 33, 64, 70] {
            let want = |i: usize| [CLASS_MEM, CLASS_L1, CLASS_L2][i % 3];
            let mut stream = ClassStream::default();
            (0..len).for_each(|i| stream.push(want(i)));
            stream.seal();
            stream.seal(); // sealing twice flushes once
            assert_eq!((stream.len, stream.words.len()), (len, len.div_ceil(32)));
            assert!((0..len).all(|i| class(&stream, i) == u64::from(want(i))));
            let filled: usize = (0..stream.words.len()).map(|w| stream.word(w).1).sum();
            assert_eq!(filled, len);
        }
    }

    /// Encode the memory accesses on `pages` (one per access, proof page =
    /// image page), each after an L1 hit, and hand back the streams.
    fn encoded(pages: &[u32]) -> (ClassStream, PageStream) {
        let distinct = pages.iter().max().map_or(0, |&p| p as usize + 1);
        let mut classes = ClassStream::default();
        let mut count = LagCount::default();
        for &p in pages {
            classes.push(CLASS_L1);
            classes.push(CLASS_MEM);
            count.push(p);
        }
        classes.seal();
        let mut encoder = PageEncoder::new(&count, distinct);
        for &p in pages {
            encoder.push(&mut classes, p, p);
        }
        (classes, encoder.finish())
    }

    #[test]
    fn a_page_stream_indexes_only_what_its_lag_misses() {
        // Two pages interleaved: lag 2 predicts all but the first two.
        let (classes, pages) = encoded(&[0, 1, 0, 1, 0, 1, 0, 1]);
        assert_eq!((pages.lag, pages.bits, pages.len), (2, 1, 2));
        assert_eq!(pages.explicit, [0b10]);
        let codes: Vec<u64> = (1..16).step_by(2).map(|i| class(&classes, i)).collect();
        assert_eq!(codes, [2, 2, 3, 3, 3, 3, 3, 3]);
        // A pencil over 40 pages, walked three times: lag 40 predicts the
        // second and third walk.
        let pencil: Vec<u32> = (0..120).map(|i| i % 40).collect();
        let (_, pages) = encoded(&pencil);
        assert_eq!((pages.lag, pages.bits, pages.len), (40, 6, 40));
        // A loop nest that revisits each page within its pass (in pairs,
        // then twice running): the nearest repeat is one or two accesses
        // back, but only the pass's length predicts whole later passes.
        let pass = [0, 1, 0, 1, 2, 3, 2, 3, 4, 4, 5, 5];
        let nest: Vec<u32> = (0..10).flat_map(|_| pass).collect();
        let (_, pages) = encoded(&nest);
        assert_eq!((pages.lag, pages.len), (12, 12));
        // A gather: no lag predicts, every access is indexed; 300 pages
        // take 9 bits an index, so indices straddle words.
        let gather: Vec<u32> = (0..300).map(|i| i * 7 % 300).collect();
        let (_, pages) = encoded(&gather);
        assert_eq!((pages.lag, pages.bits, pages.bytes()), (1, 9, 344));
        for (j, &p) in gather.iter().enumerate() {
            assert_eq!(pages.index(j), p as usize);
        }
        // One page: the lag predicts all but the first, which takes no bits.
        let (_, pages) = encoded(&[0; 9]);
        assert_eq!(
            (pages.lag, pages.bits, pages.len, pages.bytes()),
            (1, 0, 1, 0)
        );
        assert_eq!(pages.index(0), 0);
    }
}
