//! The search graph's flat bookkeeping: parent links and successor
//! edges with no per-node heap allocation.
//!
//! A node of the search graph is a `u32` arena index. Its parent link
//! is one 12-byte [`Link`] in a flat vector, and every node's successor
//! edges live in one compressed sparse-row [`Csr`]. The CSR grows by
//! appending, which works because the engine expands nodes in arena
//! index order: each level's frontier is the index range the previous
//! merge interned. The same type, transposed, is the predecessor index
//! the termination and valency passes walk backwards.

use crate::execution::{Execution, Step};
use crate::process::ProcessId;

/// How node `i` was first reached: the parent's arena index and the
/// step `(pid, coin)` taken from it. The root carries
/// [`Link::ROOT`]'s `u32::MAX` parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Link {
    pub(super) parent: u32,
    pub(super) pid: u32,
    pub(super) coin: u32,
}

const _: () = assert!(std::mem::size_of::<Link>() == 12);

impl Link {
    /// The link of a search's start node.
    pub(super) const ROOT: Link = Link { parent: u32::MAX, pid: 0, coin: 0 };

    /// A link from `parent` by `step`. The caller guarantees the pid
    /// fits in `u32` (it indexes a process of a packed row).
    pub(super) fn new(parent: u32, step: Step) -> Link {
        Link { parent, pid: step.pid.0 as u32, coin: step.coin }
    }

    /// The parent and step, or `None` for the root.
    pub(super) fn get(self) -> Option<(u32, Step)> {
        (self.parent != u32::MAX)
            .then(|| (self.parent, Step::with_coin(ProcessId(self.pid as usize), self.coin)))
    }

    /// The link a checkpoint's `parent` entry stands for.
    pub(super) fn from_entry(entry: Option<(u32, Step)>) -> Link {
        entry.map_or(Link::ROOT, |(p, step)| Link::new(p, step))
    }
}

/// Reconstruct the execution reaching node `i` from a parent forest.
pub(super) fn path_to(links: &[Link], mut i: u32) -> Execution {
    let mut steps = Vec::new();
    while let Some((p, step)) = links[i as usize].get() {
        steps.push(step);
        i = p;
    }
    steps.reverse();
    Execution::from_steps(steps)
}

/// A directed multigraph in compressed sparse-row form: the edges out
/// of node `i` are `targets[offsets[i]..offsets[i + 1]]`, in the order
/// they were pushed (duplicate edges repeat). Two flat allocations
/// instead of one vector per node.
///
/// It is built by source-ordered appends: [`start`](Csr::start) opens
/// a source's edge list, closing every lower source (those never
/// started have no edges), and [`push`](Csr::push) appends to the open
/// list. [`finish`](Csr::finish) closes the trailing edge-less nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Default for Csr {
    fn default() -> Self {
        Csr { offsets: vec![0], targets: Vec::new() }
    }
}

impl Csr {
    /// Number of nodes (sources closed or open so far).
    pub(super) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[cfg(test)]
    pub(super) fn edges(&self) -> usize {
        self.targets.len()
    }

    /// Heap bytes the two arrays hold, from their lengths.
    pub(super) fn heap_bytes(&self) -> usize {
        4 * (self.offsets.len() + self.targets.len())
    }

    /// The edges out of node `i`.
    pub(super) fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Open `src`'s edge list. Sources must arrive in strictly
    /// ascending order: edges are only ever appended.
    pub(super) fn start(&mut self, src: u32) {
        let src = src as usize;
        assert!(src >= self.len(), "CSR source {src} arrived after source {}", self.len() - 1);
        self.finish(src);
        self.offsets.push(self.targets.len() as u32);
    }

    /// Append an edge to the open source.
    pub(super) fn push(&mut self, target: u32) {
        debug_assert!(self.len() > 0, "CSR push before any source was started");
        self.targets.push(target);
        if let Some(end) = self.offsets.last_mut() {
            *end += 1;
        }
    }

    /// Close every node below `n`: those past the last started source
    /// have no edges.
    pub(super) fn finish(&mut self, n: usize) {
        let end = u32::try_from(self.targets.len()).expect("edge count overflows the u32 CSR");
        self.offsets.resize(n.max(self.len()) + 1, end);
    }

    /// The reverse graph: the row of node `j` lists the source of every
    /// edge into `j`, in ascending source order.
    pub(super) fn transpose(&self) -> Csr {
        let n = self.len();
        // Count in-degrees, prefix-sum them into range ends, then fill
        // each range back to front, which leaves `offsets[j]` at the
        // start of node `j`'s range.
        let mut offsets = vec![0u32; n + 1];
        for &j in &self.targets {
            offsets[j as usize] += 1;
        }
        let mut end = 0u32;
        for o in &mut offsets {
            end += *o;
            *o = end;
        }
        let mut targets = vec![0u32; self.targets.len()];
        for i in (0..n).rev() {
            for &j in self.row(i) {
                offsets[j as usize] -= 1;
                targets[offsets[j as usize] as usize] = i as u32;
            }
        }
        Csr { offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_round_trip_through_checkpoint_entries() {
        assert_eq!(Link::ROOT.get(), None);
        assert_eq!(Link::from_entry(None), Link::ROOT);
        let step = Step::with_coin(ProcessId(3), 7);
        let link = Link::from_entry(Some((5, step)));
        assert_eq!(link, Link { parent: 5, pid: 3, coin: 7 });
        assert_eq!(link.get(), Some((5, step)));
        let links = [Link::ROOT, Link::new(0, Step::of(ProcessId(1))), link];
        assert_eq!(path_to(&links, 1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "arrived after")]
    fn out_of_order_sources_are_refused() {
        let mut csr = Csr::default();
        csr.start(2);
        csr.start(1);
    }

    proptest::proptest! {
        /// Source-ordered pushes with skipped sources and a trailing
        /// run of edge-less nodes build the graph a vector of vectors
        /// holds, and the transpose holds exactly the reversed edges.
        #[test]
        fn source_ordered_pushes_equal_the_adjacency_lists(
            n in 1usize..24,
            trailing in 0usize..6,
            edges in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..80),
            skip in proptest::collection::vec(proptest::prelude::any::<bool>(), 24),
        ) {
            let total = n + trailing;
            let mut lists = vec![Vec::new(); total];
            for e in &edges {
                lists[(e % n as u64) as usize].push(((e >> 32) % total as u64) as u32);
            }
            let mut csr = Csr::default();
            for (i, outs) in lists.iter().enumerate().take(n) {
                // An edge-less source may be started or skipped.
                if outs.is_empty() && skip[i] {
                    continue;
                }
                csr.start(i as u32);
                for &j in outs {
                    csr.push(j);
                }
            }
            csr.finish(total);
            proptest::prop_assert_eq!(csr.len(), total);
            proptest::prop_assert_eq!(csr.edges(), edges.len());
            proptest::prop_assert_eq!(csr.heap_bytes(), 4 * (total + 1) + 4 * edges.len());
            for (i, outs) in lists.iter().enumerate() {
                proptest::prop_assert_eq!(csr.row(i), &outs[..]);
            }

            let pred = csr.transpose();
            proptest::prop_assert_eq!(pred.len(), total);
            let mut reversed: Vec<(u32, u32)> = (0..total)
                .flat_map(|j| pred.row(j).iter().map(move |&i| (i, j as u32)))
                .collect();
            let mut forward: Vec<(u32, u32)> = lists
                .iter()
                .enumerate()
                .flat_map(|(i, outs)| outs.iter().map(move |&j| (i as u32, j)))
                .collect();
            reversed.sort_unstable();
            forward.sort_unstable();
            proptest::prop_assert_eq!(reversed, forward);
        }
    }
}
