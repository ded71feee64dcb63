//! In-memory MSF algorithms: Kruskal (the oracle and the final
//! "in-memory" stage of the pipelines) and Prim (a second oracle used to
//! cross-check the first).

use ampc_graph::{NodeId, WeightedCsrGraph, WeightedEdge};
use ampc_trees::UnionFind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Kruskal's algorithm. Ties are broken by the canonical edge key (see
/// [`WeightedEdge::key`]), so the returned forest is the *unique* MSF
/// under the workspace's total edge order. Edges are returned sorted.
pub fn kruskal(g: &WeightedCsrGraph) -> Vec<WeightedEdge> {
    let mut edges = g.edge_vec();
    edges.sort_unstable();
    kruskal_edges(g.num_nodes(), edges)
}

/// Kruskal over a pre-sorted edge list (callers with provenance-mapped
/// edge sets use this directly).
pub fn kruskal_edges(n: usize, sorted_edges: Vec<WeightedEdge>) -> Vec<WeightedEdge> {
    let mut uf = UnionFind::new(n);
    let mut out = Vec::new();
    for e in sorted_edges {
        if uf.union(e.u, e.v) {
            out.push(e);
        }
    }
    out
}

/// Prim's algorithm over all components (restarted per component), with
/// the same tie-breaking. Returns the total forest weight — used as an
/// independent cross-check of [`kruskal`].
pub fn prim_total_weight(g: &WeightedCsrGraph) -> u128 {
    let n = g.num_nodes();
    let mut visited = vec![false; n];
    let mut total: u128 = 0;
    // Heap of (weight, tie key, target).
    let mut heap: BinaryHeap<Reverse<((u64, u64), NodeId)>> = BinaryHeap::new();
    for start in 0..n as NodeId {
        if visited[start as usize] {
            continue;
        }
        visited[start as usize] = true;
        push_edges(g, start, &mut heap);
        while let Some(Reverse(((w, _), v))) = heap.pop() {
            if visited[v as usize] {
                continue;
            }
            visited[v as usize] = true;
            total += w as u128;
            push_edges(g, v, &mut heap);
        }
    }
    total
}

fn push_edges(
    g: &WeightedCsrGraph,
    v: NodeId,
    heap: &mut BinaryHeap<Reverse<((u64, u64), NodeId)>>,
) {
    for (u, w) in g.weighted_neighbors(v) {
        heap.push(Reverse(((w, crate::priorities::edge_key(v, u)), u)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::gen;

    #[test]
    fn kruskal_on_path_takes_all_edges() {
        let g = gen::degree_weights(gen::path(5));
        let msf = kruskal(&g);
        assert_eq!(msf.len(), 4);
    }

    #[test]
    fn kruskal_spans_each_component() {
        let g = gen::degree_weights(gen::two_cycles(6, 3));
        let msf = kruskal(&g);
        // two cycles of 6 -> two trees of 5 edges
        assert_eq!(msf.len(), 10);
    }

    #[test]
    fn kruskal_matches_prim_weight() {
        for seed in 0..6 {
            let g = gen::random_weights(gen::erdos_renyi(120, 400, seed), 1000, seed);
            let k: u128 = kruskal(&g).iter().map(|e| e.w as u128).sum();
            assert_eq!(k, prim_total_weight(&g), "seed {seed}");
        }
    }

    #[test]
    fn picks_light_edges() {
        // triangle with weights 1, 2, 3: MSF = {1, 2}.
        let g = ampc_graph::GraphBuilder::new(3)
            .add_weighted_edge(0, 1, 1)
            .add_weighted_edge(1, 2, 2)
            .add_weighted_edge(0, 2, 3)
            .build_weighted();
        let msf = kruskal(&g);
        let ws: Vec<u64> = msf.iter().map(|e| e.w).collect();
        assert_eq!(ws, vec![1, 2]);
    }

    #[test]
    fn empty_graph() {
        let g = WeightedCsrGraph::empty(4);
        assert!(kruskal(&g).is_empty());
        assert_eq!(prim_total_weight(&g), 0);
    }
}
