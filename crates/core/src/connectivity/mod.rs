//! Connected components in O(1) AMPC rounds (Theorem 1).
//!
//! Exactly the paper's route: *"once we find any spanning forest, the
//! connected components can be found by applying the forest
//! connectivity algorithm of \[19\]"*. [`ampc_connected_components_in_job`]
//! computes a spanning forest by running the MSF machinery over random
//! (distinct) edge weights, then labels components with
//! [`forest_cc::forest_cc_in_job`] (Proposition 3.2).

pub mod forest_cc;

use crate::prim::hash_ranked_edges;
use crate::priorities::edge_key;
use ampc_dht::hasher::mix64;
use ampc_graph::{CsrGraph, NodeId, NO_NODE};
use ampc_runtime::Job;

/// The kernel body (registry row `cc`): component labels via a spanning
/// forest from a randomly-weighted MSF, then forest connectivity.
// ampc-lint: budget(batched-requests = 3)
pub fn ampc_connected_components_in_job(job: &mut Job, g: &CsrGraph) -> Vec<NodeId> {
    let cfg = *job.config();
    let n = g.num_nodes();

    // Random distinct weights: every edge's rank under a hash of its
    // identity, striped with no global sort (DESIGN.md §11).
    let edges = hash_ranked_edges(g, |u, v| mix64(cfg.seed ^ edge_key(u, v)), cfg.threads);

    // Spanning forest = MSF under these weights, in rank order. Its
    // edges carry their original endpoints, so nothing keeps the ranking
    // alive past the first round that consumes it.
    let forest = crate::msf::dense::dense_msf_loop(job, n, edges, &cfg);
    let forest_pairs: Vec<(NodeId, NodeId)> = forest.iter().map(|e| (e.ou, e.ov)).collect();

    // Forest connectivity (Proposition 3.2).
    forest_cc::forest_cc_in_job(job, n, &forest_pairs)
}

/// Renames each class of `label` after its smallest vertex: the
/// canonical labelling the BFS oracle produces, and the one every
/// connectivity kernel here returns.
///
/// # Panics
/// If a label is not a vertex id (`>= label.len()`).
pub fn canonical_labels(label: &[NodeId]) -> Vec<NodeId> {
    let mut min_of = vec![NO_NODE; label.len()];
    // Vertices ascend, so the first vertex met under a label is its minimum.
    for (v, &l) in label.iter().enumerate() {
        assert!(
            (l as usize) < label.len(),
            "label {l} of vertex {v} is not a vertex id"
        );
        if min_of[l as usize] == NO_NODE {
            min_of[l as usize] = v as NodeId;
        }
    }
    label.iter().map(|&l| min_of[l as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;
    use ampc_graph::gen;
    use ampc_runtime::driver::drive;
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    fn labels(g: &CsrGraph, c: &AmpcConfig) -> Vec<NodeId> {
        drive(c, |job| ampc_connected_components_in_job(job, g)).output
    }

    #[test]
    fn labels_match_bfs_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::erdos_renyi(150, 200, seed); // sparse: several CCs
            let label = labels(&g, &cfg().with_seed(seed));
            assert!(validate::is_correct_components(&g, &label), "seed {seed}");
        }
    }

    #[test]
    fn two_cycles_get_two_labels() {
        let g = gen::two_cycles(50, 3);
        let label = labels(&g, &cfg());
        let distinct: std::collections::HashSet<_> = label.iter().collect();
        assert_eq!(distinct.len(), 2);
        assert!(validate::is_correct_components(&g, &label));
    }

    #[test]
    fn isolated_vertices_self_label() {
        let g = CsrGraph::empty(6);
        assert!(validate::is_correct_components(&g, &labels(&g, &cfg())));
    }

    #[test]
    fn web_analogue_with_many_components() {
        let g =
            ampc_graph::datasets::Dataset::ClueWeb.generate(ampc_graph::datasets::Scale::Test, 1);
        assert!(validate::is_correct_components(&g, &labels(&g, &cfg())));
    }

    #[test]
    fn canonical_labels_name_each_class_by_its_minimum() {
        assert_eq!(canonical_labels(&[3, 3, 1, 1, 4]), vec![0, 0, 2, 2, 4]);
        assert!(canonical_labels(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "is not a vertex id")]
    fn canonical_labels_reject_a_label_past_n() {
        canonical_labels(&[0, 2]);
    }
}
