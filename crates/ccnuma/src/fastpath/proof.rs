use std::collections::HashMap;
use std::sync::Arc;

use crate::{LINE_SHIFT, PAGE_SHIFT};

/// The `nas`→`ccnuma` contract: a static guarantee, derived from lint's
/// KernelModel, that one parallel region touches exactly `lines` (writing
/// each line the claimed number of times, from the claimed thread) and
/// nothing else, with no line written by one CPU and accessed by another.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProof {
    /// Phase label (`"phase/loop"`); memo pools are shared per label, so the
    /// cold-start and iteration instances of the same loop reuse each other's
    /// recordings.
    pub label: String,
    /// Team size the proof was derived for.
    pub threads: usize,
    /// Every line the region touches, sorted and deduplicated.
    pub lines: Vec<u64>,
    /// `(line, write count, writer thread)`, sorted by line, zero-count
    /// entries omitted. Eligibility guarantees the writer is unique per line.
    pub line_writes: Vec<(u64, u32, u32)>,
    /// Every page the region touches, sorted (derived from `lines`).
    pub pages: Vec<u64>,
}

impl PhaseProof {
    /// Assemble a proof; `lines` must be sorted and unique, `line_writes`
    /// sorted with nonzero counts over a subset of `lines` and writer
    /// threads below `threads`.
    pub fn new(
        label: String,
        threads: usize,
        lines: Vec<u64>,
        line_writes: Vec<(u64, u32, u32)>,
    ) -> Self {
        debug_assert!(threads > 0);
        debug_assert!(lines.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(line_writes.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(line_writes
            .iter()
            .all(|&(l, c, t)| c > 0 && (t as usize) < threads && lines.binary_search(&l).is_ok()));
        let mut pages: Vec<u64> = lines
            .iter()
            .map(|&l| l >> (PAGE_SHIFT - LINE_SHIFT))
            .collect();
        pages.dedup(); // lines sorted => page list sorted
        Self {
            label,
            threads,
            lines,
            line_writes,
            pages,
        }
    }

    /// Claimed total write count of `line` (0 when never written).
    pub(super) fn writes_of(&self, line: u64) -> u32 {
        match self.line_writes.binary_search_by_key(&line, |e| e.0) {
            Ok(i) => self.line_writes[i].1,
            Err(_) => 0,
        }
    }
}

/// The proofs of one program text by label — what an engine installs.
///
/// A label may name several region instances; a running region finds its
/// proof by label alone, so the label has an entry only when every instance
/// derived the same proof (see [`ProofTable::fold`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProofTable(pub(super) HashMap<String, Arc<PhaseProof>>);

impl ProofTable {
    /// Fold the region instances of a program text — one `(label, proof)`
    /// each, `None` where none could be derived — into the label table: a
    /// label any of whose instances is `None` or differs from another gets
    /// no entry. Instances handed one allocation (one construct, derived
    /// once) agree by pointer; others are compared by value.
    pub fn fold<P: Into<Arc<PhaseProof>>>(
        instances: impl IntoIterator<Item = (String, Option<P>)>,
    ) -> Self {
        let mut table: HashMap<String, Option<Arc<PhaseProof>>> = HashMap::new();
        for (label, proof) in instances {
            let proof = proof.map(Into::into);
            if let Some(seen) = table.get_mut(&label) {
                let agree = match (&*seen, &proof) {
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
                    _ => false,
                };
                if !agree {
                    *seen = None;
                }
            } else {
                table.insert(label, proof);
            }
        }
        let proven = table
            .into_iter()
            .filter_map(|(label, proof)| Some((label, proof?)));
        Self(proven.collect())
    }

    /// Point every entry that equals `other`'s entry of the same label at
    /// `other`'s allocation, so the two tables hold one copy of what they
    /// have in common (a loop's cold-start and timed instances).
    pub fn share_with(&mut self, other: &ProofTable) {
        for (label, proof) in &mut self.0 {
            match other.0.get(label) {
                Some(theirs) if Arc::ptr_eq(theirs, proof) || theirs == proof => {
                    *proof = Arc::clone(theirs)
                }
                _ => {}
            }
        }
    }
}
