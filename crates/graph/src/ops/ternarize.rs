//! Graph ternarization — Line 2 of Algorithm 2 in the paper.
//!
//! *"Let G′(V′, E′) be a degree bounded version of G, obtained by
//! replacing every vertex v with degree > 3 with a cycle of length
//! deg(v), connecting each edge of v to its corresponding vertex in the
//! cycle. Let the weights of the dummy edges be denoted by ⊥, chosen to
//! be less than the weight of the lightest edge in E."*
//!
//! After ternarization every vertex has degree ≤ 3, the number of
//! vertices is `Θ(m)`, and the MSF of the ternarized graph restricted to
//! non-dummy edges equals the MSF of the original graph (the dummy cycle
//! edges are free, so each expanded cycle contracts first in any MSF).

use crate::builder::GraphBuilder;
use crate::weighted::WeightedCsrGraph;
use crate::{NodeId, Weight};

/// The ⊥ weight assigned to dummy cycle edges. Real weights are shifted
/// up by [`Ternarized::WEIGHT_SHIFT`] so ⊥ compares below every real
/// edge without assuming anything about the input weight range.
pub const DUMMY_WEIGHT: Weight = 0;

/// Result of ternarizing a graph.
#[derive(Clone, Debug)]
pub struct Ternarized {
    /// The degree-≤3 graph. Real edge weights are shifted by
    /// [`Ternarized::WEIGHT_SHIFT`]; dummy edges have weight
    /// [`DUMMY_WEIGHT`].
    pub graph: WeightedCsrGraph,
    /// Maps each ternarized vertex back to the original vertex it
    /// represents (cycle vertices map to the vertex they were expanded
    /// from).
    pub origin: Vec<NodeId>,
}

impl Ternarized {
    /// Real edge weights are shifted up by this amount so that
    /// [`DUMMY_WEIGHT`] is strictly smaller than every real weight.
    pub const WEIGHT_SHIFT: Weight = 1;

    /// Is `w` (a weight read from [`Self::graph`]) a dummy cycle edge
    /// weight?
    #[inline]
    pub fn is_dummy_weight(w: Weight) -> bool {
        w == DUMMY_WEIGHT
    }

    /// Converts a shifted weight back to the original weight.
    ///
    /// # Panics
    /// Panics if `w` is the dummy weight.
    #[inline]
    pub fn original_weight(w: Weight) -> Weight {
        assert!(
            !Self::is_dummy_weight(w),
            "dummy edges have no original weight"
        );
        w - Self::WEIGHT_SHIFT
    }
}

/// Ternarizes a weighted undirected graph: every vertex of degree > 3 is
/// replaced by a cycle of length `deg(v)` whose `i`-th cycle vertex
/// carries `v`'s `i`-th incident edge.
///
/// Vertices of degree ≤ 3 are kept as a single vertex. Degree-0 vertices
/// are preserved (they stay isolated).
pub fn ternarize(g: &WeightedCsrGraph) -> Ternarized {
    let n = g.num_nodes();
    // New vertex layout: vertex v of degree d > 3 expands into d vertices
    // placed contiguously; vertices of degree <= 3 occupy one slot.
    let mut base = Vec::with_capacity(n + 1);
    let mut total = 0usize;
    for v in 0..n {
        base.push(total);
        let d = g.degree(v as NodeId);
        total += if d > 3 { d } else { 1 };
    }
    base.push(total);

    let mut origin = vec![0 as NodeId; total];
    for v in 0..n {
        origin[base[v]..base[v + 1]].fill(v as NodeId);
    }

    // slot_of(v, i): the ternarized vertex carrying v's i-th incident edge.
    let slot_of = |v: usize, i: usize| -> NodeId {
        let d = base[v + 1] - base[v];
        if d == 1 {
            base[v] as NodeId
        } else {
            (base[v] + i) as NodeId
        }
    };

    // For the cross edges we must know, for edge {u, v}, which position
    // the edge occupies in each endpoint's adjacency list. Adjacency lists
    // are sorted, but parallel structure is deduped, so position =
    // index of v in neighbors(u).
    let mut b = GraphBuilder::with_capacity(total, total + g.num_edges());
    for v in 0..n {
        let d = base[v + 1] - base[v];
        if d > 1 {
            // dummy cycle among v's slots
            for i in 0..d {
                let a = (base[v] + i) as NodeId;
                let c = (base[v] + (i + 1) % d) as NodeId;
                b.push_edge(a, c, DUMMY_WEIGHT);
            }
        }
    }
    for u in 0..n {
        let nbrs = g.neighbors(u as NodeId);
        let ws = g.weights_of(u as NodeId);
        for (i, (&v, &w)) in nbrs.iter().zip(ws.iter()).enumerate() {
            let v = v as usize;
            if u < v {
                // Find u's position in v's list by binary search (sorted).
                let j = g
                    .neighbors(v as NodeId)
                    .binary_search(&(u as NodeId))
                    .expect("symmetric adjacency");
                b.push_edge(slot_of(u, i), slot_of(v, j), w + Ternarized::WEIGHT_SHIFT);
            }
        }
    }
    Ternarized {
        graph: b.build_weighted(),
        origin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::GraphBuilder;

    fn weighted_star(n: usize) -> WeightedCsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.push_edge(0, i as NodeId, 100 + i as Weight);
        }
        b.build_weighted()
    }

    #[test]
    fn low_degree_graph_unchanged_structure() {
        let g = gen::degree_weights(gen::path(5));
        let t = ternarize(&g);
        assert_eq!(t.graph.num_nodes(), 5);
        assert_eq!(t.graph.num_edges(), 4);
        assert_eq!(t.origin, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn star_center_expands_to_cycle() {
        let g = weighted_star(6); // center degree 5
        let t = ternarize(&g);
        // center -> 5 slots, 5 leaves -> 1 slot each
        assert_eq!(t.graph.num_nodes(), 10);
        // 5 dummy cycle edges + 5 real edges
        assert_eq!(t.graph.num_edges(), 10);
        // max degree at most 3
        assert!(t.graph.structure().max_degree() <= 3);
    }

    #[test]
    fn origin_maps_back() {
        let g = weighted_star(6);
        let t = ternarize(&g);
        // first 5 ternarized vertices are the expanded center
        for s in 0..5u32 {
            assert_eq!(t.origin[s as usize], 0);
        }
        for s in 5..10u32 {
            assert_eq!(t.origin[s as usize], s - 4);
        }
    }

    #[test]
    fn real_weights_shifted_dummies_zero() {
        let g = weighted_star(5);
        let t = ternarize(&g);
        let mut dummy = 0;
        let mut real = 0;
        for e in t.graph.edges() {
            if Ternarized::is_dummy_weight(e.w) {
                dummy += 1;
            } else {
                real += 1;
                assert!(Ternarized::original_weight(e.w) >= 100);
            }
        }
        assert_eq!(dummy, 4);
        assert_eq!(real, 4);
    }

    #[test]
    fn max_degree_bound_on_random_graph() {
        let g = gen::degree_weights(gen::erdos_renyi(200, 2000, 3));
        let t = ternarize(&g);
        assert!(t.graph.structure().max_degree() <= 3);
        // real edges preserved
        let real = t
            .graph
            .edges()
            .filter(|e| !Ternarized::is_dummy_weight(e.w))
            .count();
        assert_eq!(real, g.num_edges());
    }

    #[test]
    fn isolated_vertices_survive() {
        let mut b = GraphBuilder::new(4);
        b.push_edge(0, 1, 5);
        let g = b.build_weighted();
        let t = ternarize(&g);
        assert_eq!(t.graph.num_nodes(), 4);
    }
}
