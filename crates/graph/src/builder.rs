//! Mutable edge-list accumulator that finalizes into CSR form.
//!
//! The builder removes self-loops and duplicates (keeping the lightest
//! copy of parallel weighted edges) and produces sorted adjacency
//! lists. All generators and file readers in this crate construct
//! graphs through it.
//!
//! The build is count → prefix → fill (DESIGN.md §11): count the arcs
//! of every list, prefix-sum the counts into list windows, then let
//! every arc-balanced vertex stripe stream the edges, fill the lists it
//! owns, and sort and dedup each of them in place. A list's content
//! depends on the edge multiset alone and its window on the prefix sum
//! alone, so the graph is the same for every thread count.

use crate::csr::CsrGraph;
use crate::stripes::{arc_balanced_stripes, windows_mut};
use crate::weighted::WeightedCsrGraph;
use crate::{NodeId, Weight};
use ampc_dht::pool::par_map;
use ampc_knobs::ampc_threads;

/// Accumulates edges and finalizes into [`CsrGraph`] /
/// [`WeightedCsrGraph`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, Weight)>,
    directed: bool,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices (`0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            directed: false,
        }
    }

    /// A builder over edges already known to be in range (the striped
    /// generators fill their edge buffer in place).
    pub(crate) fn from_edges(n: usize, edges: Vec<(NodeId, NodeId, Weight)>) -> Self {
        debug_assert!(edges
            .iter()
            .all(|&(u, v, _)| (u as usize) < n && (v as usize) < n));
        GraphBuilder {
            n,
            edges,
            directed: false,
        }
    }

    /// Pre-allocates space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Builds a *directed* graph: edges keep their orientation and are not
    /// mirrored.
    pub fn directed(mut self) -> Self {
        self.directed = true;
        self
    }

    /// Number of vertices this builder targets.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges currently accumulated (before dedup).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds an unweighted edge (weight 0).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn add_edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.push_edge(u, v, 0);
        self
    }

    /// Adds a weighted edge.
    pub fn add_weighted_edge(mut self, u: NodeId, v: NodeId, w: Weight) -> Self {
        self.push_edge(u, v, w);
        self
    }

    /// In-place edge insertion (for loops that cannot consume the builder).
    pub fn push_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        self.edges.push((u, v, w));
    }

    /// Adds every edge in the iterator.
    pub fn extend_edges(mut self, it: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        for (u, v) in it {
            self.push_edge(u, v, 0);
        }
        self
    }

    /// Adds every weighted edge in the iterator.
    pub fn extend_weighted(
        mut self,
        it: impl IntoIterator<Item = (NodeId, NodeId, Weight)>,
    ) -> Self {
        for (u, v, w) in it {
            self.push_edge(u, v, w);
        }
        self
    }

    /// Finalizes into an unweighted CSR graph.
    pub fn build(self) -> CsrGraph {
        self.build_with_threads(ampc_threads())
    }

    /// Finalizes into a weighted CSR graph.
    pub fn build_weighted(self) -> WeightedCsrGraph {
        self.build_weighted_with_threads(ampc_threads())
    }

    /// [`GraphBuilder::build`] over `threads` stripes: the same graph
    /// for every value.
    pub(crate) fn build_with_threads(self, threads: usize) -> CsrGraph {
        let (offsets, targets) = self.lists::<NodeId>(threads);
        CsrGraph::from_parts(offsets, targets, !self.directed)
    }

    /// [`GraphBuilder::build_weighted`] over `threads` stripes.
    fn build_weighted_with_threads(self, threads: usize) -> WeightedCsrGraph {
        let (offsets, arcs) = self.lists::<(NodeId, Weight)>(threads);
        let targets = arcs.iter().map(|&(t, _)| t).collect();
        let weights = arcs.iter().map(|&(_, w)| w).collect();
        WeightedCsrGraph::from_parts(
            CsrGraph::from_parts(offsets, targets, !self.directed),
            weights,
        )
    }

    /// The CSR `(offsets, arcs)` of the accumulated edges: loops
    /// dropped, undirected edges mirrored, every list sorted with one
    /// arc per target (the least, so the lightest weight).
    fn lists<A: Entry>(&self, threads: usize) -> (Vec<usize>, Vec<A>) {
        let (n, edges, directed) = (self.n, self.edges.as_slice(), self.directed);

        // Count: arcs per list, loops dropped, then the prefix sum.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v, _) in edges {
            if u != v {
                offsets[u as usize + 1] += 1;
                if !directed {
                    offsets[v as usize + 1] += 1;
                }
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }

        // Fill, sort, dedup: every stripe streams all the edges, places
        // the arcs its vertex range owns into its own window, then
        // sorts and dedups each of its lists. `ends[v]` is list `v`'s
        // fill cursor, then the end of its deduplicated prefix. Both
        // buffers are allocated here, so pool workers grow no malloc
        // arena of their own.
        let mut table = vec![A::default(); offsets[n]];
        let mut ends = offsets[..n].to_vec();
        let stripes = arc_balanced_stripes(&offsets, threads.max(1));
        let wins = windows_mut(
            &mut table,
            stripes.iter().map(|r| offsets[r.end] - offsets[r.start]),
        );
        let ends_wins = windows_mut(&mut ends, stripes.iter().map(|r| r.len()));
        let parts = stripes.into_iter().zip(wins).zip(ends_wins).collect();
        par_map(parts, threads, |((r, win), ends)| {
            let base = offsets[r.start];
            let mut place = |owner: NodeId, target: NodeId, w: Weight| {
                if let Some(end) = ends.get_mut((owner as usize).wrapping_sub(r.start)) {
                    win[*end - base] = A::new(target, w);
                    *end += 1;
                }
            };
            for &(u, v, w) in edges {
                if u != v {
                    place(u, v, w);
                    if !directed {
                        place(v, u, w);
                    }
                }
            }
            for (end, &start) in ends.iter_mut().zip(&offsets[r]) {
                let list = &mut win[start - base..*end - base];
                list.sort_unstable();
                *end = start + dedup_targets(list);
            }
        });

        // Compact: slide every deduplicated list down over the dropped
        // copies before it, in place.
        let mut len = 0;
        for (v, &end) in ends.iter().enumerate() {
            let start = std::mem::replace(&mut offsets[v], len);
            table.copy_within(start..end, len);
            len += end - start;
        }
        offsets[n] = len;
        table.truncate(len);
        table.shrink_to_fit();
        (offsets, table)
    }

    /// The global-sort build the striped [`GraphBuilder::lists`]
    /// replaced, kept as the oracle it is tested against: canonicalise,
    /// sort all `(u, v, w)` triples, dedup, scatter, sort every list.
    #[cfg(test)]
    pub(crate) fn finish_oracle(self) -> (CsrGraph, Vec<Weight>) {
        let GraphBuilder {
            n,
            mut edges,
            directed,
        } = self;

        edges.retain(|&(u, v, _)| u != v);
        if !directed {
            for e in edges.iter_mut() {
                if e.0 > e.1 {
                    std::mem::swap(&mut e.0, &mut e.1);
                }
            }
        }
        edges.sort_unstable();
        edges.dedup_by_key(|&mut (u, v, _)| (u, v));

        let mut degree = vec![0usize; n];
        for &(u, v, _) in &edges {
            degree[u as usize] += 1;
            if !directed {
                degree[v as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as NodeId; acc];
        let mut weights = vec![0 as Weight; acc];
        for &(u, v, w) in &edges {
            let cu = cursor[u as usize];
            targets[cu] = v;
            weights[cu] = w;
            cursor[u as usize] += 1;
            if !directed {
                let cv = cursor[v as usize];
                targets[cv] = u;
                weights[cv] = w;
                cursor[v as usize] += 1;
            }
        }
        for v in 0..n {
            let lo = offsets[v];
            let hi = offsets[v + 1];
            let mut pairs: Vec<(NodeId, Weight)> = targets[lo..hi]
                .iter()
                .copied()
                .zip(weights[lo..hi].iter().copied())
                .collect();
            pairs.sort_unstable();
            for (i, (t, w)) in pairs.into_iter().enumerate() {
                targets[lo + i] = t;
                weights[lo + i] = w;
            }
        }
        (CsrGraph::from_parts(offsets, targets, !directed), weights)
    }
}

/// One entry of a list under construction: a bare target, or a target
/// with its weight. Lists sort by the whole entry, so the first entry
/// of a target is its lightest.
trait Entry: Copy + Ord + Default + Send + Sync {
    fn new(target: NodeId, w: Weight) -> Self;
    fn target(self) -> NodeId;
}

impl Entry for NodeId {
    #[inline]
    fn new(target: NodeId, _: Weight) -> Self {
        target
    }
    #[inline]
    fn target(self) -> NodeId {
        self
    }
}

impl Entry for (NodeId, Weight) {
    #[inline]
    fn new(target: NodeId, w: Weight) -> Self {
        (target, w)
    }
    #[inline]
    fn target(self) -> NodeId {
        self.0
    }
}

/// Moves the first entry of every run of equal targets of the sorted
/// `list` to its front, in order, and returns how many there are.
fn dedup_targets<A: Entry>(list: &mut [A]) -> usize {
    let mut kept = 0;
    for i in 0..list.len() {
        if kept == 0 || list[kept - 1].target() != list[i].target() {
            list[kept] = list[i];
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn removes_self_loops_and_duplicates() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 0)
            .add_edge(0, 1)
            .add_edge(1, 0)
            .add_edge(0, 1)
            .add_edge(2, 3)
            .build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn parallel_weighted_edges_keep_lightest() {
        let g = GraphBuilder::new(2)
            .add_weighted_edge(0, 1, 9)
            .add_weighted_edge(1, 0, 3)
            .add_weighted_edge(0, 1, 7)
            .build_weighted();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weights_of(0), &[3]);
        assert_eq!(g.weights_of(1), &[3]);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let g = GraphBuilder::new(5)
            .add_edge(2, 4)
            .add_edge(2, 0)
            .add_edge(2, 3)
            .add_edge(2, 1)
            .build();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn directed_edges_are_not_mirrored() {
        let g = GraphBuilder::new(3)
            .directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .build();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[] as &[NodeId]);
        assert!(!g.is_symmetric());
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.push_edge(0, 5, 0);
    }

    #[test]
    fn extend_edges_works() {
        let g = GraphBuilder::new(3).extend_edges([(0, 1), (1, 2)]).build();
        assert_eq!(g.num_edges(), 2);
    }

    /// Random edge lists over `0..n` with loops and parallel copies of
    /// different weights; weights from a small range so equal-weight
    /// copies occur too.
    fn arb_edges() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId, Weight)>)> {
        (1usize..60).prop_flat_map(|n| {
            let edges =
                proptest::collection::vec((0..n as NodeId, 0..n as NodeId, 0..8 as Weight), 0..400);
            (Just(n), edges)
        })
    }

    fn builder(n: usize, edges: &[(NodeId, NodeId, Weight)], directed: bool) -> GraphBuilder {
        let b = GraphBuilder::new(n).extend_weighted(edges.iter().copied());
        if directed {
            b.directed()
        } else {
            b
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn striped_build_equals_the_global_sort_oracle((n, edges) in arb_edges(), directed in 0u8..2) {
            let directed = directed == 1;
            let (csr, weights) = builder(n, &edges, directed).finish_oracle();
            let oracle = WeightedCsrGraph::from_parts(csr.clone(), weights);
            for threads in [1, 2, 3, 8] {
                let g = builder(n, &edges, directed).build_with_threads(threads);
                prop_assert_eq!(&g, &csr, "unweighted, {} threads", threads);
                let w = builder(n, &edges, directed).build_weighted_with_threads(threads);
                prop_assert_eq!(&w, &oracle, "weighted, {} threads", threads);
            }
        }
    }
}
