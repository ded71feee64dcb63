//! Forest connectivity — Proposition 3.2.
//!
//! *"There exists an AMPC algorithm, ForestConnectivity, that solves the
//! forest connectivity problem in O(1/ε) rounds of computation w.h.p.
//! using T = O(n log n) total space"* — \[19\]'s routine iteratively
//! shrinks the forest by an `n^ε` factor per round via local searches
//! and contraction. We instantiate it with the same truncated-search +
//! contract round the MSF pipeline uses (on a forest, a truncated Prim
//! search *is* a truncated local exploration), composing the per-round
//! root maps into a final labelling.

use crate::msf::common::{prim_contract_round, ProvEdge};
use ampc_graph::{NodeId, NO_NODE};
use ampc_runtime::Job;
use ampc_trees::UnionFind;

/// The ForestConnectivity body (registry row `cc/forest`, and the last
/// step of `cc`): labels the components of a forest, given by its edge
/// list over `0..n`, in O(1/ε) contraction rounds.
pub fn forest_cc_in_job(job: &mut Job, n: usize, forest_edges: &[(NodeId, NodeId)]) -> Vec<NodeId> {
    let cfg = *job.config();
    assert!(
        forest_edges.len() < n.max(1),
        "a forest has fewer than n edges"
    );
    // Strict distinct weights for the search round: edge index.
    let mut edges: Vec<ProvEdge> = forest_edges
        .iter()
        .enumerate()
        .map(|(i, &(u, v))| ProvEdge {
            u,
            v,
            w: i as u64,
            ou: u,
            ov: v,
        })
        .collect();

    // orig → current-level id; current-level id → original representative.
    let mut cur_of: Vec<NodeId> = (0..n as NodeId).collect();
    let mut rep_of: Vec<NodeId> = (0..n as NodeId).collect();
    let mut final_label: Vec<NodeId> = (0..n as NodeId).collect(); // default: own component
    let mut cur_n = n;
    let mut round = 0usize;

    while edges.len() > cfg.in_memory_threshold {
        round += 1;
        assert!(round <= 48, "ForestConnectivity failed to converge");
        let budget = cfg.prim_budget(cur_n.max(2));
        let r = prim_contract_round(
            job,
            cur_n,
            &edges,
            &format!("-fc{round}"),
            budget,
            0xFC00 ^ round as u64,
        );
        // Compose labels.
        let mut next_rep = vec![NO_NODE; r.next_n];
        for v in 0..n {
            let c = cur_of[v];
            if c == NO_NODE {
                continue; // already finalized
            }
            let root = r.root_of[c as usize];
            let nid = r.next_id[root as usize];
            // The class representative keeps the smallest original rep.
            let rep = rep_of[root as usize].min(rep_of[c as usize]);
            if nid == NO_NODE {
                final_label[v] = rep_of[root as usize];
                cur_of[v] = NO_NODE;
            } else {
                cur_of[v] = nid;
                if next_rep[nid as usize] == NO_NODE {
                    next_rep[nid as usize] = rep;
                } else {
                    next_rep[nid as usize] = next_rep[nid as usize].min(rep);
                }
            }
        }
        // Representative of a class = min original rep over members.
        rep_of = next_rep;
        edges = r.next_edges;
        cur_n = r.next_n;
    }

    // Finish in memory.
    if cur_n > 0 {
        let uf_labels = job.local(
            "InMemoryForestCC",
            (edges.len() as u64 + cur_n as u64 + 1) * 8,
            || {
                let mut uf = UnionFind::new(cur_n);
                for e in &edges {
                    uf.union(e.u, e.v);
                }
                uf.labels()
            },
        );
        // Component label = min original representative in the class.
        let mut class_min = vec![NO_NODE; cur_n];
        for v in 0..n {
            let c = cur_of[v];
            if c != NO_NODE {
                let l = uf_labels[c as usize] as usize;
                class_min[l] = class_min[l].min(final_label[v].min(rep_of[c as usize]));
            }
        }
        for v in 0..n {
            let c = cur_of[v];
            if c != NO_NODE {
                final_label[v] = class_min[uf_labels[c as usize] as usize];
            }
        }
    }

    // Canonicalize: within-component minimum. One more sweep makes the
    // labelling exactly the BFS oracle's (min-id representative).
    super::canonical_labels(&final_label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    fn run(n: usize, edges: &[(NodeId, NodeId)], c: &AmpcConfig) -> Driven<Vec<NodeId>> {
        drive(c, |job| forest_cc_in_job(job, n, edges))
    }

    #[test]
    fn labels_path_forest() {
        let g = gen::path(30);
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.u, e.v)).collect();
        assert!(run(30, &edges, &cfg()).output.iter().all(|&l| l == 0));
    }

    #[test]
    fn labels_multi_tree_forest() {
        // Two paths + isolated vertices.
        let mut b = ampc_graph::GraphBuilder::new(12);
        for i in 0..4 {
            b.push_edge(i, i + 1, 0);
        }
        for i in 6..9 {
            b.push_edge(i, i + 1, 0);
        }
        let g = b.build();
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.u, e.v)).collect();
        let label = run(12, &edges, &cfg()).output;
        assert!(validate::is_correct_components(&g, &label));
        assert_eq!(label[0], 0);
        assert_eq!(label[7], 6);
        assert_eq!(label[11], 11);
    }

    #[test]
    fn forces_distributed_rounds_on_big_forest() {
        let g = gen::random_tree(3000, 5);
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.u, e.v)).collect();
        let mut c = cfg();
        c.in_memory_threshold = 50;
        let out = run(3000, &edges, &c);
        assert!(out.output.iter().all(|&l| l == 0));
        assert!(out.report.num_shuffles() > 0);
    }

    #[test]
    #[should_panic(expected = "fewer than n edges")]
    fn rejects_non_forest_edge_count() {
        let edges: Vec<(NodeId, NodeId)> = vec![(0, 1), (1, 2), (2, 0)];
        run(3, &edges, &cfg());
    }
}
