//! Connected components in O(1) AMPC rounds (Theorem 1).
//!
//! Exactly the paper's route: *"once we find any spanning forest, the
//! connected components can be found by applying the forest
//! connectivity algorithm of \[19\]"*. [`ampc_connected_components`]
//! computes a spanning forest by running the MSF machinery over random
//! (distinct) edge weights, then labels components with
//! [`forest_cc::forest_cc`] (Proposition 3.2).

pub mod forest_cc;

pub use forest_cc::{forest_cc, CcOutcome};

use crate::msf::common::ProvEdge;
use crate::priorities::edge_key;
use ampc_dht::hasher::mix64;
use ampc_graph::{CsrGraph, NodeId};
use ampc_runtime::{AmpcConfig, Job};

/// Computes connected components: spanning forest via randomly-weighted
/// MSF, then forest connectivity.
pub fn ampc_connected_components(g: &CsrGraph, cfg: &AmpcConfig) -> CcOutcome {
    let mut job = Job::new(*cfg);
    let label = ampc_connected_components_in_job(&mut job, g);
    CcOutcome {
        label,
        report: job.into_report(),
    }
}

/// The in-job kernel body: computes component labels inside a
/// caller-provided [`Job`] (the [`crate::algorithm::AmpcAlgorithm`]
/// entry point).
// ampc-lint: budget(batched-requests = 3)
pub fn ampc_connected_components_in_job(job: &mut Job, g: &CsrGraph) -> Vec<NodeId> {
    let cfg = *job.config();
    let n = g.num_nodes();

    // Random distinct weights: rank edges by a hash of their identity.
    let mut keyed: Vec<(u64, NodeId, NodeId)> = g
        .edges()
        .map(|e| (mix64(cfg.seed ^ edge_key(e.u, e.v)), e.u, e.v))
        .collect();
    keyed.sort_unstable();
    let edges: Vec<ProvEdge> = keyed
        .iter()
        .enumerate()
        .map(|(i, &(_, u, v))| ProvEdge {
            u,
            v,
            w: i as u64,
            ou: u,
            ov: v,
        })
        .collect();

    // Spanning forest = MSF under these weights.
    let forest_internal = crate::msf::dense::dense_msf_loop(job, n, edges, &cfg);
    let forest_pairs: Vec<(NodeId, NodeId)> = forest_internal
        .iter()
        .map(|&w| (keyed[w as usize].1, keyed[w as usize].2))
        .collect();

    // Forest connectivity (Proposition 3.2).
    forest_cc::forest_cc_in_job(job, n, &forest_pairs, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;
    use ampc_graph::gen;

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    #[test]
    fn labels_match_bfs_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::erdos_renyi(150, 200, seed); // sparse: several CCs
            let out = ampc_connected_components(&g, &cfg().with_seed(seed));
            assert!(
                validate::is_correct_components(&g, &out.label),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn two_cycles_get_two_labels() {
        let g = gen::two_cycles(50, 3);
        let out = ampc_connected_components(&g, &cfg());
        let distinct: std::collections::HashSet<_> = out.label.iter().collect();
        assert_eq!(distinct.len(), 2);
        assert!(validate::is_correct_components(&g, &out.label));
    }

    #[test]
    fn isolated_vertices_self_label() {
        let g = CsrGraph::empty(6);
        let out = ampc_connected_components(&g, &cfg());
        assert!(validate::is_correct_components(&g, &out.label));
    }

    #[test]
    fn web_analogue_with_many_components() {
        let g =
            ampc_graph::datasets::Dataset::ClueWeb.generate(ampc_graph::datasets::Scale::Test, 1);
        let out = ampc_connected_components(&g, &cfg());
        assert!(validate::is_correct_components(&g, &out.label));
    }
}
