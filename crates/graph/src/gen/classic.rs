//! Classic structured graphs used mostly by tests and examples.

use crate::builder::GraphBuilder;
use crate::CsrGraph;
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A path `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.push_edge((i - 1) as NodeId, i as NodeId, 0);
    }
    b.build()
}

/// A star with center `0` and `n - 1` leaves.
pub fn star(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.push_edge(0, i as NodeId, 0);
    }
    b.build()
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            b.push_edge(i as NodeId, j as NodeId, 0);
        }
    }
    b.build()
}

/// An `r × c` grid graph (vertices `i * c + j`). The walk is over the
/// vertices, so an empty grid costs nothing however long its other side.
pub fn grid(r: usize, c: usize) -> CsrGraph {
    let n = r * c;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for v in 0..n {
        let (i, j) = (v / c, v % c);
        if i + 1 < r {
            b.push_edge(v as NodeId, (v + c) as NodeId, 0);
        }
        if j + 1 < c {
            b.push_edge(v as NodeId, (v + 1) as NodeId, 0);
        }
    }
    b.build()
}

/// A uniformly random labelled tree on `n` vertices (random attachment:
/// vertex `i` connects to a uniform earlier vertex). Always connected and
/// acyclic.
pub fn random_tree(n: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        let parent = rng.gen_range(0..i) as NodeId;
        b.push_edge(parent, i as NodeId, 0);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::connected_components;

    #[test]
    fn path_degrees() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    fn star_center() {
        let g = star(6);
        assert_eq!(g.degree(0), 5);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn complete_counts() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(grid(usize::MAX, 0).num_nodes(), 0);
    }

    #[test]
    fn random_tree_connected_acyclic() {
        let g = random_tree(200, 4);
        assert_eq!(g.num_edges(), 199);
        let cc = connected_components(&g);
        assert_eq!(cc.num_components, 1);
    }

    #[test]
    fn single_vertex_cases() {
        assert_eq!(path(1).num_edges(), 0);
        assert_eq!(star(1).num_edges(), 0);
        assert_eq!(random_tree(1, 0).num_edges(), 0);
        assert_eq!(complete(1).num_edges(), 0);
        assert_eq!(complete(0).num_nodes(), 0);
    }
}
