//! Physical memory: per-node frame pools and the virtual→physical map.
//!
//! Frames are 16 KB (one page) and are numbered consecutively within nodes,
//! so the home node of a frame is `frame / frames_per_node` — a pure
//! function, as on real hardware where a physical address encodes its memory
//! module. Allocation is deterministic: each node's free list hands out the
//! lowest-numbered free frame first.

use crate::topology::NodeId;
use std::collections::BTreeSet;

/// Identifier of a physical page frame.
pub type FrameId = usize;

/// One node's free frames: every frame from `cursor` to the node's end,
/// which no one has allocated yet, and the frames below it given back.
/// The lowest free frame is the first freed one if any, else `cursor`, so
/// a pool costs what its node handed out, not what it holds.
#[derive(Debug, Clone)]
struct NodePool {
    cursor: FrameId,
    end: FrameId,
    freed: BTreeSet<FrameId>,
}

/// Per-node physical frame pools.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    frames_per_node: usize,
    nodes: usize,
    /// Free frames per node, handed out lowest first (deterministic) in
    /// O(log n).
    free: Vec<NodePool>,
}

impl PhysicalMemory {
    /// A machine with `nodes` nodes of `frames_per_node` frames each.
    pub fn new(nodes: usize, frames_per_node: usize) -> Self {
        assert!(nodes > 0 && frames_per_node > 0);
        let free = (0..nodes)
            .map(|n| NodePool {
                cursor: n * frames_per_node,
                end: (n + 1) * frames_per_node,
                freed: BTreeSet::new(),
            })
            .collect();
        Self {
            frames_per_node,
            nodes,
            free,
        }
    }

    /// Home node of a frame.
    #[inline(always)]
    pub fn node_of_frame(&self, frame: FrameId) -> NodeId {
        debug_assert!(frame < self.nodes * self.frames_per_node);
        frame / self.frames_per_node
    }

    /// Total frames in the machine.
    pub fn total_frames(&self) -> usize {
        self.nodes * self.frames_per_node
    }

    /// Frames currently free on `node`.
    pub fn free_on(&self, node: NodeId) -> usize {
        let pool = &self.free[node];
        pool.end - pool.cursor + pool.freed.len()
    }

    /// Total free frames.
    pub fn total_free(&self) -> usize {
        (0..self.nodes).map(|n| self.free_on(n)).sum()
    }

    /// Allocate a frame on exactly `node`; `None` if that node is full.
    pub fn alloc_on(&mut self, node: NodeId) -> Option<FrameId> {
        let pool = &mut self.free[node];
        if let Some(first) = pool.freed.pop_first() {
            return Some(first);
        }
        (pool.cursor < pool.end).then(|| {
            pool.cursor += 1;
            pool.cursor - 1
        })
    }

    /// Return a frame to its node's pool.
    ///
    /// # Panics
    /// Panics if the frame was already free (double free).
    pub fn free(&mut self, frame: FrameId) {
        assert!(self.is_allocated(frame), "double free of frame {frame}");
        let node = self.node_of_frame(frame);
        self.free[node].freed.insert(frame);
    }

    /// Whether a frame is currently allocated.
    pub fn is_allocated(&self, frame: FrameId) -> bool {
        let pool = &self.free[self.node_of_frame(frame)];
        frame < pool.cursor && !pool.freed.contains(&frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_deterministic_lowest_first() {
        let mut m = PhysicalMemory::new(2, 4);
        assert_eq!(m.alloc_on(0), Some(0));
        assert_eq!(m.alloc_on(0), Some(1));
        assert_eq!(m.alloc_on(1), Some(4));
        m.free(0);
        assert_eq!(m.alloc_on(0), Some(0));
    }

    #[test]
    fn node_exhaustion() {
        let mut m = PhysicalMemory::new(2, 2);
        assert!(m.alloc_on(0).is_some());
        assert!(m.alloc_on(0).is_some());
        assert_eq!(m.alloc_on(0), None);
        assert_eq!(m.free_on(0), 0);
        assert_eq!(m.free_on(1), 2);
    }

    #[test]
    fn frame_to_node_mapping() {
        let m = PhysicalMemory::new(4, 8);
        assert_eq!(m.node_of_frame(0), 0);
        assert_eq!(m.node_of_frame(7), 0);
        assert_eq!(m.node_of_frame(8), 1);
        assert_eq!(m.node_of_frame(31), 3);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = PhysicalMemory::new(1, 2);
        let f = m.alloc_on(0).unwrap();
        m.free(f);
        m.free(f);
    }

    #[test]
    fn allocated_tracking() {
        let mut m = PhysicalMemory::new(1, 2);
        assert!(!m.is_allocated(0));
        let f = m.alloc_on(0).unwrap();
        assert!(m.is_allocated(f));
        m.free(f);
        assert!(!m.is_allocated(f));
    }
}
