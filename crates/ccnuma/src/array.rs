//! `SimArray<T>`: a real data array with a simulated address range.
//!
//! Benchmark kernels compute real results (so their numerics can be
//! verified) while every element access is also played through the machine's
//! memory model. The element data lives in host memory (`Vec<Cell<T>>`); the
//! *placement* being studied is that of the simulated pages backing the
//! array's reserved virtual range.
//!
//! `Cell` gives interior mutability so kernels can hold `&SimArray`
//! references while the machine is borrowed mutably; the simulator executes
//! simulated CPUs sequentially, so there is no aliasing hazard (and
//! `SimArray` is deliberately `!Sync`).
//!
//! Two access planes:
//! * **simulated** — [`SimArray::get`]/[`SimArray::set`]/[`SimArray::update`]
//!   charge simulated time to a CPU;
//! * **host-only** — [`SimArray::peek`]/[`SimArray::poke`] touch the data
//!   without simulation, for initialization and verification code that is
//!   outside the measured computation.

use crate::cpu::{AccessKind, CpuId};
use crate::machine::Machine;
use std::cell::Cell;

/// The address layout of a [`SimArray`], detached from its data.
///
/// Static analysis (the `lint` crate) needs to compute element addresses for
/// arrays it never touches at runtime; `ArrayLayout` carries exactly the
/// fields that determine [`SimArray::vaddr_of`] so the index→address map can
/// be replayed without the array (or the machine) in hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayLayout {
    name: String,
    base: u64,
    elem_bytes: usize,
    len: usize,
    /// `(elems_per_chunk, chunk_stride_elems)` for chunk-aligned arrays.
    chunking: Option<(usize, usize)>,
}

impl ArrayLayout {
    /// Array name (matches [`SimArray::name`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of one element in bytes.
    pub fn elem_bytes(&self) -> usize {
        self.elem_bytes
    }

    /// Simulated virtual address of element `i` — identical to
    /// [`SimArray::vaddr_of`] on the array this layout was taken from.
    #[inline]
    pub fn vaddr_of(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        match self.chunking {
            None => self.base + (i * self.elem_bytes) as u64,
            Some((per_chunk, stride)) => {
                let chunk = i / per_chunk;
                let offset = i % per_chunk;
                self.base + ((chunk * stride + offset) * self.elem_bytes) as u64
            }
        }
    }

    /// The `(base, byte_len)` virtual range, including chunk padding —
    /// identical to [`SimArray::vrange`].
    pub fn vrange(&self) -> (u64, u64) {
        let bytes = match self.chunking {
            None => self.len * self.elem_bytes,
            Some((per_chunk, stride)) => {
                let chunks = self.len.div_ceil(per_chunk);
                chunks * stride * self.elem_bytes
            }
        };
        (self.base, bytes as u64)
    }
}

/// A simulated shared array of `T`.
pub struct SimArray<T> {
    name: String,
    base: u64,
    data: Vec<Cell<T>>,
    /// Chunk-aligned layout, if any: `(elems_per_chunk, chunk_stride_elems,
    /// magic)`. The stride is a whole number of pages, so each chunk starts
    /// on a page boundary — the padding trick the tuned NAS codes use so
    /// that first-touch distributes each thread's slice onto its own node.
    /// `magic` is `ceil(2^64 / elems_per_chunk)`, which turns the per-access
    /// `i / elems_per_chunk` into a multiply (see [`SimArray::vaddr_of`]).
    chunking: Option<(usize, usize, u64)>,
}

/// A copy of the data at the same simulated addresses: what a forked run's
/// benchmark computes on while the original computes on its own.
impl<T: Copy> Clone for SimArray<T> {
    fn clone(&self) -> Self {
        Self {
            name: self.name.clone(),
            base: self.base,
            data: self.data.clone(),
            chunking: self.chunking,
        }
    }
}

impl<T: Copy> SimArray<T> {
    /// Allocate an array of `len` elements filled with `init`, reserving a
    /// page-aligned simulated virtual range on `machine`.
    pub fn new(machine: &mut Machine, name: &str, len: usize, init: T) -> Self {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let base = machine.reserve_vspace(bytes.max(1));
        Self {
            name: name.to_string(),
            base,
            data: vec![Cell::new(init); len],
            chunking: None,
        }
    }

    /// Allocate with `chunks` page-aligned chunks: element
    /// `i` lives in chunk `i / ceil(len/chunks)`, and every chunk starts on
    /// its own page. This reproduces the page-boundary padding of the tuned
    /// NAS implementations ("optimized to achieve good data locality with a
    /// first-touch page placement strategy"): with a static schedule over
    /// `chunks` threads, each thread's slice faults onto its own node even
    /// when the slice is smaller than a page.
    pub fn chunk_aligned(
        machine: &mut Machine,
        name: &str,
        len: usize,
        chunks: usize,
        init: T,
    ) -> Self {
        assert!(chunks >= 1);
        let elem = std::mem::size_of::<T>();
        let per_chunk = len.div_ceil(chunks).max(1);
        // `vaddr_of`'s multiply-and-shift division is exact below 2^32.
        assert!(
            len <= u32::MAX as usize && per_chunk <= u32::MAX as usize,
            "chunk-aligned arrays index with 32 bits"
        );
        let chunk_bytes = (per_chunk * elem) as u64;
        let stride_bytes = chunk_bytes.div_ceil(crate::PAGE_SIZE) * crate::PAGE_SIZE;
        let stride_elems = (stride_bytes as usize) / elem;
        let base = machine.reserve_vspace(stride_bytes * chunks as u64);
        Self {
            name: name.to_string(),
            base,
            data: vec![Cell::new(init); len],
            // Wraps to 0 for `per_chunk == 1`, where `chunk = i`.
            chunking: Some((
                per_chunk,
                stride_elems,
                (u64::MAX / per_chunk as u64).wrapping_add(1),
            )),
        }
    }

    /// Allocate and initialize from a function of the index (host-only
    /// initialization, no simulated accesses).
    pub fn from_fn(
        machine: &mut Machine,
        name: &str,
        len: usize,
        mut f: impl FnMut(usize) -> T,
    ) -> Self {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let base = machine.reserve_vspace(bytes.max(1));
        Self {
            name: name.to_string(),
            base,
            data: (0..len).map(|i| Cell::new(f(i))).collect(),
            chunking: None,
        }
    }

    /// Array name (diagnostics, hot-area registration).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A detached copy of this array's address layout, for static analysis.
    pub fn layout(&self) -> ArrayLayout {
        ArrayLayout {
            name: self.name.clone(),
            base: self.base,
            elem_bytes: std::mem::size_of::<T>(),
            len: self.data.len(),
            chunking: self
                .chunking
                .map(|(per_chunk, stride, _)| (per_chunk, stride)),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Simulated virtual address of element `i`.
    #[inline(always)]
    pub fn vaddr_of(&self, i: usize) -> u64 {
        debug_assert!(i < self.data.len());
        match self.chunking {
            None => self.base + (i * std::mem::size_of::<T>()) as u64,
            Some((per_chunk, stride, magic)) => {
                // `i / per_chunk` without the divide: with `magic =
                // ceil(2^64 / per_chunk)` the high word of `i * magic` is
                // the quotient for every `i, per_chunk < 2^32`.
                let chunk = if magic == 0 {
                    i
                } else {
                    ((i as u128 * magic as u128) >> 64) as usize
                };
                let offset = i - chunk * per_chunk;
                self.base + ((chunk * stride + offset) * std::mem::size_of::<T>()) as u64
            }
        }
    }

    /// The simulated `(base, byte_len)` range backing this array — what
    /// UPMlib's `memrefcnt` registers as a hot memory area.
    pub fn vrange(&self) -> (u64, u64) {
        let bytes = match self.chunking {
            None => self.data.len() * std::mem::size_of::<T>(),
            Some((per_chunk, stride, _)) => {
                let chunks = self.data.len().div_ceil(per_chunk);
                chunks * stride * std::mem::size_of::<T>()
            }
        };
        (self.base, bytes as u64)
    }

    /// Simulated load of element `i` by `cpu`.
    #[inline(always)]
    pub fn get(&self, machine: &mut Machine, cpu: CpuId, i: usize) -> T {
        machine.touch(cpu, self.vaddr_of(i), AccessKind::Read);
        self.data[i].get()
    }

    /// Simulated store of element `i` by `cpu`.
    #[inline(always)]
    pub fn set(&self, machine: &mut Machine, cpu: CpuId, i: usize, value: T) {
        machine.touch(cpu, self.vaddr_of(i), AccessKind::Write);
        self.data[i].set(value);
    }

    /// Simulated read-modify-write of element `i` (one load + one store).
    #[inline(always)]
    pub fn update(&self, machine: &mut Machine, cpu: CpuId, i: usize, f: impl FnOnce(T) -> T) {
        let addr = self.vaddr_of(i);
        machine.touch(cpu, addr, AccessKind::Read);
        let v = f(self.data[i].get());
        machine.touch(cpu, addr, AccessKind::Write);
        self.data[i].set(v);
    }

    /// Host-only read (initialization/verification; no simulated cost).
    #[inline(always)]
    pub fn peek(&self, i: usize) -> T {
        self.data[i].get()
    }

    /// Host-only write (initialization/verification; no simulated cost).
    #[inline(always)]
    pub fn poke(&self, i: usize, value: T) {
        self.data[i].set(value);
    }

    /// Host-only snapshot of the whole array.
    pub fn to_vec(&self) -> Vec<T> {
        self.data.iter().map(Cell::get).collect()
    }

    /// Host-only fill.
    pub fn fill(&self, value: T) {
        for c in &self.data {
            c.set(value);
        }
    }
}

impl<T> std::fmt::Debug for SimArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimArray")
            .field("name", &self.name)
            .field("base", &format_args!("{:#x}", self.base))
            .field("len", &self.data.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::PAGE_SIZE;

    #[test]
    fn arrays_get_disjoint_page_aligned_ranges() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::<f64>::new(&mut m, "a", 10, 0.0);
        let b = SimArray::<f64>::new(&mut m, "b", 10, 0.0);
        let (abase, alen) = a.vrange();
        let (bbase, _) = b.vrange();
        assert_eq!(abase % PAGE_SIZE, 0);
        assert_eq!(bbase % PAGE_SIZE, 0);
        assert!(abase + alen <= bbase || abase == bbase && alen == 0 || bbase > abase);
        assert!(bbase >= abase + PAGE_SIZE);
    }

    #[test]
    fn simulated_and_host_planes_agree() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", 8, 0.0f64);
        a.set(&mut m, 0, 3, 42.0);
        assert_eq!(a.peek(3), 42.0);
        a.poke(3, 7.0);
        assert_eq!(a.get(&mut m, 0, 3), 7.0);
    }

    #[test]
    fn update_is_read_then_write() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", 4, 10.0f64);
        a.update(&mut m, 0, 2, |v| v + 1.0);
        assert_eq!(a.peek(2), 11.0);
        // One memory access (the load faulted the page in), everything after
        // hits L1.
        assert!(m.cpu_stats(0).mem_accesses() >= 1);
    }

    #[test]
    fn from_fn_and_snapshot() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::from_fn(&mut m, "sq", 5, |i| (i * i) as f64);
        assert_eq!(a.to_vec(), vec![0.0, 1.0, 4.0, 9.0, 16.0]);
        a.fill(1.0);
        assert_eq!(a.peek(4), 1.0);
    }

    #[test]
    fn chunk_aligned_layout_spreads_chunks_across_pages() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        // 64 elements over 4 chunks of 16: each chunk on its own page.
        let a = SimArray::chunk_aligned(&mut m, "a", 64, 4, 0.0f64);
        assert_eq!(a.vaddr_of(0) % PAGE_SIZE, 0);
        assert_eq!(a.vaddr_of(16) % PAGE_SIZE, 0);
        assert_ne!(
            crate::vpage_of(a.vaddr_of(15)),
            crate::vpage_of(a.vaddr_of(16))
        );
        // Within a chunk, addresses are contiguous.
        assert_eq!(a.vaddr_of(1) - a.vaddr_of(0), 8);
        // vrange covers all chunks.
        let (base, len) = a.vrange();
        assert_eq!(base % PAGE_SIZE, 0);
        assert_eq!(len, 4 * PAGE_SIZE);
        // Data plane is unaffected by the address layout.
        a.poke(63, 9.0);
        assert_eq!(a.get(&mut m, 0, 63), 9.0);
    }

    #[test]
    fn layout_mirrors_array_addresses() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let dense = SimArray::<f64>::new(&mut m, "d", 37, 0.0);
        let chunked = SimArray::chunk_aligned(&mut m, "c", 64, 4, 0.0f64);
        for a in [&dense, &chunked] {
            let l = a.layout();
            assert_eq!(l.name(), a.name());
            assert_eq!(l.len(), a.len());
            assert_eq!(l.elem_bytes(), 8);
            assert_eq!(l.vrange(), a.vrange());
            for i in 0..a.len() {
                assert_eq!(l.vaddr_of(i), a.vaddr_of(i), "elem {i}");
            }
        }
    }

    #[test]
    fn chunk_aligned_addresses_match_the_dividing_form() {
        for per_chunk in [1usize, 2, 3, 5, 7, 2048, 2049, 20480] {
            let mut cfg = MachineConfig::tiny_test();
            cfg.max_vpages = 1 << 12;
            let mut m = Machine::new(cfg);
            let (chunks, len) = (5, 5 * per_chunk - 2); // a short last chunk
            let a = SimArray::chunk_aligned(&mut m, "a", len, chunks, 0.0f64);
            let Some((got_per_chunk, stride, _)) = a.chunking else {
                panic!("chunk_aligned arrays are chunked");
            };
            assert_eq!(got_per_chunk, per_chunk);
            let layout = a.layout();
            let (base, _) = a.vrange();
            // Every index within 2 of a chunk boundary, and the last one.
            let near = (0..=chunks)
                .flat_map(|c| (c * per_chunk).saturating_sub(2)..=c * per_chunk + 2)
                .chain([len - 1])
                .filter(|&i| i < len);
            for i in near {
                let dividing = base + ((i / per_chunk * stride + i % per_chunk) * 8) as u64;
                assert_eq!(a.vaddr_of(i), dividing, "per_chunk {per_chunk} elem {i}");
                assert_eq!(
                    layout.vaddr_of(i),
                    dividing,
                    "per_chunk {per_chunk} elem {i}"
                );
            }
        }
    }

    #[test]
    fn chunk_aligned_first_touch_distributes() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::chunk_aligned(&mut m, "a", 64, 4, 0.0f64);
        // CPUs 0,2,4,6 (nodes 0..3) each touch one chunk.
        for (chunk, cpu) in [(0usize, 0usize), (1, 2), (2, 4), (3, 6)] {
            for i in chunk * 16..(chunk + 1) * 16 {
                a.get(&mut m, cpu, i);
            }
        }
        for (chunk, node) in [(0usize, 0usize), (1, 1), (2, 2), (3, 3)] {
            let vp = crate::vpage_of(a.vaddr_of(chunk * 16));
            assert_eq!(m.node_of_vpage(vp), Some(node), "chunk {chunk}");
        }
    }

    #[test]
    fn accesses_fault_pages_with_active_policy() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        // 3 pages worth of f64s (2048 per page in tiny config too: 16 KB).
        let n = 3 * (PAGE_SIZE as usize / 8);
        let a = SimArray::new(&mut m, "a", n, 0.0f64);
        // CPU 6 (node 3) touches everything: first-touch => all on node 3.
        for i in 0..n {
            a.get(&mut m, 6, i);
        }
        let (base, len) = a.vrange();
        for vp in crate::vpage_of(base)..crate::vpage_of(base + len) {
            assert_eq!(m.node_of_vpage(vp), Some(3));
        }
    }
}
