//! The rootset-based MPC maximal matching (§5.4).
//!
//! *"Similarly to MIS, in each round, this algorithm adds to the
//! matching all edges whose priority is smaller than the priority of all
//! its adjacent edges and removes matched edges together with their
//! endpoints … Once the graph contains at most s edges … it is sent to
//! a single machine, which finds the remaining edges of the matching."*
//! Two shuffles per phase, same output as the AMPC matching under a
//! shared seed.

use ampc_core::priorities::edge_rank;
use ampc_graph::ops::induced_subgraph;
use ampc_graph::{CsrGraph, NodeId, NO_NODE};
use ampc_runtime::Job;

/// The rootset MPC matching body (registry row `mm`, model `mpc`).
/// Identical output to [`ampc_core::matching::ampc_matching_in_job`]
/// under the same seed.
pub fn mpc_matching_in_job(job: &mut Job, g: &CsrGraph) -> Vec<NodeId> {
    let cfg = *job.config();
    let n = g.num_nodes();
    let seed = cfg.seed;

    let mut partner = vec![NO_NODE; n];
    let mut current = g.clone();
    let mut to_orig: Vec<NodeId> = (0..n as NodeId).collect();
    let mut phase = 0usize;

    while current.num_edges() > cfg.in_memory_threshold {
        phase += 1;
        assert!(phase <= 200, "rootset MM failed to converge");
        let rank = |u: NodeId, v: NodeId| edge_rank(seed, to_orig[u as usize], to_orig[v as usize]);

        // Local-minima edges: lower rank than all adjacent edges. A map
        // stage (each vertex knows its incident edges' ranks locally).
        // An edge is minimal iff it is the min-rank edge at both
        // endpoints.
        let min_at: Vec<Option<NodeId>> = job.map_round(
            &format!("MinEdge{phase}"),
            current.nodes().collect::<Vec<_>>(),
            |ctx, items| {
                items
                    .iter()
                    .map(|&v| {
                        ctx.add_ops(1 + current.degree(v) as u64);
                        current
                            .neighbors(v)
                            .iter()
                            .copied()
                            .min_by_key(|&u| rank(v, u))
                    })
                    .collect()
            },
        );
        let mut remove = vec![false; current.num_nodes()];
        let mut matched_now: Vec<(NodeId, NodeId)> = Vec::new();
        for v in current.nodes() {
            if let Some(u) = min_at[v as usize] {
                if v < u && min_at[u as usize] == Some(v) {
                    matched_now.push((v, u));
                    remove[v as usize] = true;
                    remove[u as usize] = true;
                }
            }
        }
        for &(u, v) in &matched_now {
            let (ou, ov) = (to_orig[u as usize], to_orig[v as usize]);
            partner[ou as usize] = ov;
            partner[ov as usize] = ou;
        }

        // Shuffle 1: mark matched endpoints against the edge set.
        let mark_records: Vec<(NodeId, NodeId)> = current.edges().map(|e| (e.u, e.v)).collect();
        job.shuffle_by_key(&format!("MarkMatched{phase}"), mark_records, |r| r.0 as u64);

        // Shuffle 2: remove matched vertices and incident edges.
        let deleted: Vec<(NodeId, NodeId)> = current
            .edges()
            .filter(|e| remove[e.u as usize] || remove[e.v as usize])
            .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
            .collect();
        job.shuffle_by_key(&format!("RemoveMatched{phase}"), deleted, |d| d.0 as u64);

        let keep: Vec<bool> = remove.iter().map(|&r| !r).collect();
        let (next, remap) = induced_subgraph(&current, &keep);
        let mut next_orig = vec![0 as NodeId; next.num_nodes()];
        for (old, &new_id) in remap.iter().enumerate() {
            if new_id != NO_NODE {
                next_orig[new_id as usize] = to_orig[old];
            }
        }
        current = next;
        to_orig = next_orig;
    }

    // In-memory finish: greedy over the residual edges by global rank.
    let residual: Vec<(NodeId, NodeId)> =
        job.local("InMemoryMM", (current.num_edges() as u64 + 1) * 8, || {
            let mut edges: Vec<(NodeId, NodeId)> = current.edges().map(|e| (e.u, e.v)).collect();
            edges.sort_unstable_by_key(|&(u, v)| {
                edge_rank(seed, to_orig[u as usize], to_orig[v as usize])
            });
            let mut used = vec![false; current.num_nodes()];
            let mut out = Vec::new();
            for (u, v) in edges {
                if !used[u as usize] && !used[v as usize] {
                    used[u as usize] = true;
                    used[v as usize] = true;
                    out.push((u, v));
                }
            }
            out
        });
    for (u, v) in residual {
        let (ou, ov) = (to_orig[u as usize], to_orig[v as usize]);
        partner[ou as usize] = ov;
        partner[ov as usize] = ou;
    }

    partner
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_core::matching::{ampc_matching_in_job, greedy_matching, pairs_from_partners};
    use ampc_core::validate;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        let mut c = AmpcConfig::for_tests();
        c.in_memory_threshold = 50;
        c
    }

    fn mpc(g: &CsrGraph, c: &AmpcConfig) -> Driven<Vec<NodeId>> {
        drive(c, |job| mpc_matching_in_job(job, g))
    }

    #[test]
    fn identical_to_greedy_and_ampc() {
        for seed in 0..6 {
            let g = gen::erdos_renyi(140, 460, seed);
            let c = cfg().with_seed(seed * 5 + 3);
            let partner = mpc(&g, &c).output;
            assert_eq!(partner, greedy_matching(&g, c.seed), "greedy, seed {seed}");
            let ampc = drive(&c, |job| ampc_matching_in_job(job, &g, false)).output;
            assert_eq!(partner, ampc, "ampc, seed {seed}");
        }
    }

    #[test]
    fn maximal_on_skewed_graph() {
        let g = gen::rmat(10, 9_000, gen::RmatParams::SOCIAL, 5);
        let partner = mpc(&g, &cfg()).output;
        assert!(validate::is_maximal_matching(
            &g,
            &pairs_from_partners(&partner)
        ));
    }

    #[test]
    fn two_shuffles_per_phase() {
        let g = gen::erdos_renyi(200, 1200, 7);
        let out = mpc(&g, &cfg());
        assert_eq!(out.report.num_shuffles() % 2, 0);
        assert!(out.report.num_shuffles() >= 4);
    }
}
