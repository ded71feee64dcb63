//! The rootset-based MPC MIS (Figure 2 of the paper).
//!
//! Per phase: *"(1) find all nodes that have priority lower than all
//! their neighbors … this does not require a shuffle; (2) compute node
//! ids of the nodes in new_set and their neighbors (no shuffle);
//! (3) mark which nodes should be removed … (1 shuffle); (4) each marked
//! node emits its incident edges (no shuffle); (5) update the graph by
//! removing marked nodes and their edges (1 shuffle)."* Two shuffles per
//! phase, O(log n) phases (Fischer–Noever), plus the §5.3 optimization:
//! *"switching to an in-memory algorithm once the number of edges …
//! decreases below [the threshold] achieves a good tradeoff."*

use ampc_core::priorities::NodePerm;
use ampc_dht::measured::Measured;
use ampc_graph::ops::induced_subgraph;
use ampc_graph::{CsrGraph, NodeId, NO_NODE};
use ampc_runtime::Job;

/// Record shuffled in the mark/remove joins: a vertex and its adjacency.
struct NodeRecord(NodeId, Vec<NodeId>);

impl Measured for NodeRecord {
    fn size_bytes(&self) -> usize {
        4 + self.1.size_bytes()
    }
}

/// The rootset MPC MIS body (registry row `mis`, model `mpc`). Identical
/// output to [`ampc_core::mis::ampc_mis_in_job`] and
/// [`ampc_core::mis::greedy_mis`] under the same seed.
pub fn mpc_mis_in_job(job: &mut Job, g: &CsrGraph) -> Vec<bool> {
    let cfg = *job.config();
    let n = g.num_nodes();
    let perm = NodePerm::new(cfg.seed, n);

    let mut in_mis = vec![false; n];
    let mut current = g.clone();
    let mut to_orig: Vec<NodeId> = (0..n as NodeId).collect();
    let mut phase = 0usize;

    while current.num_edges() > cfg.in_memory_threshold {
        phase += 1;
        assert!(phase <= 200, "rootset MIS failed to converge");
        let rank = |v: NodeId| perm.pos(to_orig[v as usize]);

        // (1) Local minima — map stage, no shuffle.
        let minima: Vec<NodeId> = job.map_round(
            &format!("LocalMinima{phase}"),
            current.nodes().collect::<Vec<_>>(),
            |ctx, items| {
                let mut out = Vec::new();
                for &v in items {
                    ctx.add_ops(1 + current.degree(v) as u64);
                    let rv = rank(v);
                    if current.neighbors(v).iter().all(|&u| rank(u) > rv) {
                        out.push(v);
                    }
                }
                out
            },
        );
        for &v in &minima {
            in_mis[to_orig[v as usize] as usize] = true;
        }

        // (2) ids of minima + their neighbors (no shuffle).
        let mut remove = vec![false; current.num_nodes()];
        for &v in &minima {
            remove[v as usize] = true;
            for &u in current.neighbors(v) {
                remove[u as usize] = true;
            }
        }

        // (3) Mark nodes: join graph with to_remove — 1 shuffle moving
        // the node records (per-vertex bytes ∝ degree: hub skew shows).
        let records: Vec<NodeRecord> = current
            .nodes()
            .map(|v| NodeRecord(v, current.neighbors(v).to_vec()))
            .collect();
        job.shuffle_by_key(&format!("MarkNodes{phase}"), records, |r| r.0 as u64);

        // (4) marked nodes emit their incident edges (no shuffle), and
        // (5) remove nodes and edges — 1 shuffle of the deleted edges
        // joined against the graph.
        let deleted: Vec<(NodeId, NodeId)> = current
            .edges()
            .filter(|e| remove[e.u as usize] || remove[e.v as usize])
            .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
            .collect();
        job.shuffle_by_key(&format!("RemoveEdges{phase}"), deleted, |d| d.0 as u64);

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

    // In-memory finish: continue the same lex-first greedy on the
    // residual graph.
    let residual_mis = job.local(
        "InMemoryMIS",
        (current.num_edges() as u64 + current.num_nodes() as u64 + 1) * 4,
        || {
            let mut order: Vec<NodeId> = current.nodes().collect();
            order.sort_unstable_by_key(|&v| perm.pos(to_orig[v as usize]));
            let mut local = vec![false; current.num_nodes()];
            for &v in &order {
                if !current.neighbors(v).iter().any(|&u| local[u as usize]) {
                    local[v as usize] = true;
                }
            }
            local
        },
    );
    for (v, &take) in residual_mis.iter().enumerate() {
        if take {
            in_mis[to_orig[v] as usize] = true;
        }
    }

    in_mis
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_core::mis::{ampc_mis_in_job, greedy_mis};
    use ampc_core::validate;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        let mut c = AmpcConfig::for_tests();
        c.in_memory_threshold = 60;
        c
    }

    fn mpc(g: &CsrGraph, c: &AmpcConfig) -> Driven<Vec<bool>> {
        drive(c, |job| mpc_mis_in_job(job, g))
    }

    fn ampc(g: &CsrGraph, c: &AmpcConfig) -> Driven<Vec<bool>> {
        drive(c, |job| ampc_mis_in_job(job, g, false))
    }

    #[test]
    fn identical_to_greedy_and_ampc() {
        for seed in 0..6 {
            let g = gen::erdos_renyi(150, 500, seed);
            let c = cfg().with_seed(seed * 3 + 1);
            let in_mis = mpc(&g, &c).output;
            assert_eq!(in_mis, greedy_mis(&g, c.seed), "greedy, seed {seed}");
            assert_eq!(in_mis, ampc(&g, &c).output, "ampc, seed {seed}");
        }
    }

    #[test]
    fn maximal_on_skewed_graph() {
        let g = gen::rmat(10, 8_000, gen::RmatParams::SOCIAL, 2);
        let in_mis = mpc(&g, &cfg()).output;
        assert!(validate::is_maximal_independent_set(&g, &in_mis));
    }

    #[test]
    fn uses_two_shuffles_per_phase() {
        let g = gen::erdos_renyi(200, 1500, 4);
        let out = mpc(&g, &cfg());
        assert_eq!(out.report.num_shuffles() % 2, 0);
        assert!(
            out.report.num_shuffles() >= 4,
            "expected multiple phases, got {} shuffles",
            out.report.num_shuffles()
        );
    }

    #[test]
    fn mpc_uses_more_shuffles_than_ampc() {
        // Table 3's headline comparison.
        let g = gen::rmat(9, 4_000, gen::RmatParams::SOCIAL, 8);
        let c = cfg();
        assert!(mpc(&g, &c).report.num_shuffles() > ampc(&g, &c).report.num_shuffles());
    }
}
