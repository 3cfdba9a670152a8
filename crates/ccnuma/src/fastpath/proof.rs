use std::collections::HashMap;
use std::sync::Arc;

use crate::{LINE_SHIFT, PAGE_SHIFT};

/// The `nas`→`ccnuma` contract: a static guarantee, derived from lint's
/// KernelModel, that one parallel region touches exactly its lines (writing
/// each line the claimed number of times, from the claimed thread) and
/// nothing else, with no line written by one CPU and accessed by another.
///
/// A loop sweeps its arrays, so its footprint is a few runs of consecutive
/// lines however many lines it spans: the proof holds its lines, and its
/// write claims, as maximal runs, and hands them out line by line
/// ([`lines`](Self::lines), [`line_writes`](Self::line_writes),
/// [`writes_of`](Self::writes_of)).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProof {
    /// Phase label (`"phase/loop"`); memo pools are shared per label, so the
    /// cold-start and iteration instances of the same loop reuse each other's
    /// recordings.
    pub label: String,
    /// Team size the proof was derived for.
    pub threads: usize,
    /// `first..end` of every maximal run of consecutive lines the region
    /// touches, ascending.
    lines: Vec<(u64, u64)>,
    /// `(first..end, write count, writer thread)` of every maximal run of
    /// consecutive written lines with one count and one writer, ascending.
    writes: Vec<(u64, u64, u32, u32)>,
}

impl PhaseProof {
    /// Assemble a proof; `lines` must be sorted and unique, `line_writes`
    /// — `(line, write count, writer thread)` — sorted with nonzero counts
    /// over a subset of `lines` and writer threads below `threads`.
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
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for line in lines {
            match runs.last_mut() {
                Some(run) if run.1 == line => run.1 += 1,
                _ => runs.push((line, line + 1)),
            }
        }
        let mut writes: Vec<(u64, u64, u32, u32)> = Vec::new();
        for (line, count, writer) in line_writes {
            match writes.last_mut() {
                Some(run) if (run.1, run.2, run.3) == (line, count, writer) => run.1 += 1,
                _ => writes.push((line, line + 1, count, writer)),
            }
        }
        runs.shrink_to_fit();
        writes.shrink_to_fit();
        Self {
            label,
            threads,
            lines: runs,
            writes,
        }
    }

    /// Every line the region touches, ascending.
    pub fn lines(&self) -> impl DoubleEndedIterator<Item = u64> + '_ {
        self.lines.iter().flat_map(|&(first, end)| first..end)
    }

    /// `(line, write count, writer thread)` of every line the region
    /// writes, ascending.
    pub fn line_writes(&self) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
        (self.writes.iter()).flat_map(|&(first, end, count, writer)| {
            (first..end).map(move |line| (line, count, writer))
        })
    }

    /// Claimed total write count of `line` (0 when never written).
    pub fn writes_of(&self, line: u64) -> u32 {
        let after = self.writes.partition_point(|run| run.0 <= line);
        match after.checked_sub(1).map(|i| self.writes[i]) {
            Some((_, end, count, _)) if line < end => count,
            _ => 0,
        }
    }

    /// Every page the region touches, ascending.
    pub fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        let page = |line: u64| line >> (PAGE_SHIFT - LINE_SHIFT);
        let mut last = None;
        (self.lines.iter())
            .flat_map(move |&(first, end)| page(first)..=page(end - 1))
            .filter(move |&p| last.replace(p) != Some(p))
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
