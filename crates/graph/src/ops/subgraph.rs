//! Induced subgraphs and isolated-vertex removal.
//!
//! `G[V \ V(M)]` — the induced subgraph after removing matched vertices —
//! appears in every phase of Algorithm 4 and of the rootset MPC
//! baselines, so this is one of the hottest substrate operations.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::weighted::WeightedCsrGraph;
use crate::{NodeId, NO_NODE};

/// Computes the induced subgraph on `keep` (a boolean mask over vertices).
///
/// Returns the subgraph (with compacted ids) and the mapping from old ids
/// to new (`NO_NODE` for removed vertices).
pub fn induced_subgraph(g: &CsrGraph, keep: &[bool]) -> (CsrGraph, Vec<NodeId>) {
    assert_eq!(keep.len(), g.num_nodes());
    let mut remap = vec![NO_NODE; g.num_nodes()];
    let mut next = 0 as NodeId;
    for v in 0..g.num_nodes() {
        if keep[v] {
            remap[v] = next;
            next += 1;
        }
    }
    let mut b = GraphBuilder::with_capacity(next as usize, g.num_edges());
    for e in g.edges() {
        let (ru, rv) = (remap[e.u as usize], remap[e.v as usize]);
        if ru != NO_NODE && rv != NO_NODE {
            b.push_edge(ru, rv, 0);
        }
    }
    (b.build(), remap)
}

/// Weighted version of [`induced_subgraph`].
pub fn induced_subgraph_weighted(
    g: &WeightedCsrGraph,
    keep: &[bool],
) -> (WeightedCsrGraph, Vec<NodeId>) {
    assert_eq!(keep.len(), g.num_nodes());
    let mut remap = vec![NO_NODE; g.num_nodes()];
    let mut next = 0 as NodeId;
    for v in 0..g.num_nodes() {
        if keep[v] {
            remap[v] = next;
            next += 1;
        }
    }
    let mut b = GraphBuilder::with_capacity(next as usize, g.num_edges());
    for e in g.edges() {
        let (ru, rv) = (remap[e.u as usize], remap[e.v as usize]);
        if ru != NO_NODE && rv != NO_NODE {
            b.push_edge(ru, rv, e.w);
        }
    }
    (b.build_weighted(), remap)
}

/// Removes isolated (degree-0) vertices, compacting ids. Returns the
/// compacted graph and the old → new mapping.
pub fn remove_isolated(g: &CsrGraph) -> (CsrGraph, Vec<NodeId>) {
    let keep: Vec<bool> = (0..g.num_nodes())
        .map(|v| g.degree(v as NodeId) > 0)
        .collect();
    induced_subgraph(g, &keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn induced_on_path() {
        // path 0-1-2-3-4, keep {0,1,3,4}: edges 0-1 and 3-4 survive.
        let g = gen::path(5);
        let keep = vec![true, true, false, true, true];
        let (sub, remap) = induced_subgraph(&g, &keep);
        assert_eq!(sub.num_nodes(), 4);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(remap[2], NO_NODE);
        assert_eq!(remap[3], 2);
    }

    #[test]
    fn weighted_keeps_weights() {
        let g = gen::degree_weights(gen::path(4));
        let keep = vec![true, true, true, false];
        let (sub, _) = induced_subgraph_weighted(&g, &keep);
        assert_eq!(sub.num_edges(), 2);
        // path degrees: w(0,1) = 1 + 2 = 3; w(1,2) = 2 + 2 = 4
        let ws: Vec<u64> = sub.edges().map(|e| e.w).collect();
        assert_eq!(ws, vec![3, 4]);
    }

    #[test]
    fn remove_isolated_compacts() {
        let g = GraphBuilder::new(6).add_edge(1, 4).build();
        let (sub, remap) = remove_isolated(&g);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(remap[1], 0);
        assert_eq!(remap[4], 1);
        assert_eq!(remap[0], NO_NODE);
    }

    use crate::GraphBuilder;
}
