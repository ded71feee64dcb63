//! Synthetic graph generators.
//!
//! Each generator is deterministic given its seed. The families here cover
//! the workloads of the paper's evaluation (§5.2, §5.6): skewed
//! social-network-like graphs (RMAT, Chung–Lu), the `2 × k` cycle family
//! used by the 1-vs-2-cycle experiments, and classic structured graphs for
//! tests (paths, stars, grids, trees, complete graphs).

mod chung_lu;
mod classic;
mod cycles;
mod erdos_renyi;
mod rmat;

pub use chung_lu::chung_lu;
pub use classic::{complete, grid, path, random_tree, star};
pub use cycles::{single_cycle, two_cycles, CyclePair};
pub use erdos_renyi::erdos_renyi;
pub use rmat::{rmat, RmatParams};

use crate::stripes::{arc_balanced_stripes, windows_mut};
use crate::weighted::WeightedCsrGraph;
use crate::{CsrGraph, NodeId, Weight};
use ampc_dht::pool::par_map;
use ampc_knobs::ampc_threads;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Attaches weights `w(u, v) = deg(u) + deg(v)` to an unweighted graph —
/// exactly the weighting rule the paper uses for its MSF inputs (§5.2):
/// *"the weight of an edge (u, v) is proportional to deg(u) + deg(v)"*.
/// Takes the graph by value: it becomes the weighted graph's structure.
pub fn degree_weights(g: CsrGraph) -> WeightedCsrGraph {
    degree_weights_with_threads(g, ampc_threads())
}

fn degree_weights_with_threads(g: CsrGraph, threads: usize) -> WeightedCsrGraph {
    let weights = arc_weights(&g, threads, |u, v| (g.degree(u) + g.degree(v)) as Weight);
    WeightedCsrGraph::from_parts(g, weights)
}

/// Attaches independent uniform random weights in `1..=max_weight`.
/// Both directions of an edge receive the same weight (the weight is a
/// hash of the canonical endpoint pair and the seed), so the result is a
/// valid undirected weighted graph. Takes the graph by value, as
/// [`degree_weights`] does.
pub fn random_weights(g: CsrGraph, max_weight: Weight, seed: u64) -> WeightedCsrGraph {
    random_weights_with_threads(g, max_weight, seed, ampc_threads())
}

fn random_weights_with_threads(
    g: CsrGraph,
    max_weight: Weight,
    seed: u64,
    threads: usize,
) -> WeightedCsrGraph {
    let weights = arc_weights(&g, threads, |u, v| {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        let mut rng = SmallRng::seed_from_u64(
            seed ^ ((a as u64) << 32 | b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        rng.gen_range(1..=max_weight)
    });
    WeightedCsrGraph::from_parts(g, weights)
}

/// `weight(u, v)` for every arc `u → v` of `g`, in CSR order. Split
/// over arc-balanced vertex stripes, each writing its own window, so
/// the result is the same for every thread count.
fn arc_weights(
    g: &CsrGraph,
    threads: usize,
    weight: impl Fn(NodeId, NodeId) -> Weight + Sync,
) -> Vec<Weight> {
    let offsets = g.offsets();
    let mut weights = vec![0; g.num_arcs()];
    let stripes = arc_balanced_stripes(offsets, threads.max(1));
    let wins = windows_mut(
        &mut weights,
        stripes.iter().map(|r| offsets[r.end] - offsets[r.start]),
    );
    par_map(
        stripes.into_iter().zip(wins).collect(),
        threads,
        |(r, win)| {
            let arcs = r.flat_map(|u| {
                let u = u as NodeId;
                g.neighbors(u).iter().map(move |&v| (u, v))
            });
            for (w, (u, v)) in win.iter_mut().zip(arcs) {
                *w = weight(u, v);
            }
        },
    );
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn degree_weights_match_rule() {
        // star on 4 nodes: center 0 has degree 3, leaves degree 1.
        let g = star(4);
        let w = degree_weights(g);
        for e in w.edges() {
            assert_eq!(e.w, 4); // 3 + 1
        }
    }

    #[test]
    fn random_weights_symmetric_and_in_range() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 0)
            .build();
        let w = random_weights(g, 100, 42);
        for u in w.nodes() {
            for (v, wt) in w.weighted_neighbors(u) {
                assert!((1..=100).contains(&wt));
                // the reverse arc carries the same weight
                let back = w
                    .weighted_neighbors(v)
                    .find(|&(x, _)| x == u)
                    .map(|(_, ww)| ww)
                    .unwrap();
                assert_eq!(back, wt);
            }
        }
    }

    /// The sequential loops the striped helpers replaced.
    fn sequential_weights(g: &CsrGraph, weight: impl Fn(NodeId, NodeId) -> Weight) -> Vec<Weight> {
        g.nodes()
            .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u, v)))
            .map(|(u, v)| weight(u, v))
            .collect()
    }

    #[test]
    fn striped_weights_equal_the_sequential_loop() {
        let graphs = [
            rmat(10, 20_000, RmatParams::SOCIAL, 5),
            erdos_renyi(300, 900, 2),
            star(50),
            GraphBuilder::new(0).build(),
        ];
        for g in &graphs {
            let by_degree = sequential_weights(g, |u, v| (g.degree(u) + g.degree(v)) as Weight);
            let random = sequential_weights(g, |u, v| {
                let (a, b) = if u <= v { (u, v) } else { (v, u) };
                let mut rng = SmallRng::seed_from_u64(
                    31 ^ ((a as u64) << 32 | b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                rng.gen_range(1..=1000)
            });
            let all = |w: &WeightedCsrGraph| -> Vec<Weight> {
                w.nodes().flat_map(|u| w.weights_of(u)).copied().collect()
            };
            for threads in [1, 2, 3, 8] {
                let w = degree_weights_with_threads(g.clone(), threads);
                assert_eq!(all(&w), by_degree, "{threads} threads");
                let w = random_weights_with_threads(g.clone(), 1000, 31, threads);
                assert_eq!(all(&w), random, "{threads} threads");
            }
        }
    }

    #[test]
    fn random_weights_deterministic() {
        let g = erdos_renyi(50, 100, 7);
        let a = random_weights(g.clone(), 1000, 9);
        let b = random_weights(g, 1000, 9);
        assert_eq!(a.edge_vec(), b.edge_vec());
    }
}
