//! CC-LocalContraction — the MPC connectivity baseline (§5.6, \[48\]).
//!
//! Each iteration, every vertex points to the minimum-hash vertex in its
//! closed neighborhood; the resulting pseudo-forest (pointers follow
//! strictly decreasing hashes, so it is a forest) is contracted to its
//! roots. *"The MPC algorithm reduces the length of the cycle by roughly
//! a factor of 2.59–3x in each iteration … Each iteration contracts the
//! graph, which requires 3 shuffles. The MPC algorithm uses 4–9
//! iterations across all cycle inputs (12–27 shuffles)."*

use ampc_core::connectivity::CcOutcome;
use ampc_dht::hasher::mix64;
use ampc_graph::ops::contract;
use ampc_graph::{CsrGraph, NodeId, NO_NODE};
use ampc_runtime::{AmpcConfig, Job};
use ampc_trees::pointer_jump::find_roots;
use ampc_trees::UnionFind;

/// Connected components via iterated local min-hash contractions.
pub fn mpc_connected_components(g: &CsrGraph, cfg: &AmpcConfig) -> CcOutcome {
    let n = g.num_nodes();
    let mut job = Job::new(*cfg);

    let mut current = g.clone();
    // current-level id → original representative (min original id seen).
    let mut rep_of: Vec<NodeId> = (0..n as NodeId).collect();
    // original vertex → current-level id (NO_NODE once finalized).
    let mut cur_of: Vec<NodeId> = (0..n as NodeId).collect();
    let mut label: Vec<NodeId> = (0..n as NodeId).collect();
    let mut iter = 0usize;

    while current.num_edges() > cfg.in_memory_threshold {
        iter += 1;
        assert!(iter <= 200, "local contraction failed to converge");
        let h = |v: NodeId| mix64(cfg.seed ^ (iter as u64) << 40 ^ rep_of[v as usize] as u64);

        // Each vertex points to the min-hash vertex of N(v) ∪ {v}.
        let parent: Vec<NodeId> = job.map_round(
            &format!("MinHash{iter}"),
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
                            .chain(std::iter::once(v))
                            .min_by_key(|&u| h(u))
                            .unwrap()
                    })
                    .collect()
            },
        );
        // Contract the pointer forest to its roots (tree contraction is
        // part of the 3-shuffle contraction routine).
        let roots = find_roots(&parent);

        // 3 shuffles: propose, relabel, rebuild.
        let proposals: Vec<(NodeId, NodeId)> = parent
            .iter()
            .enumerate()
            .map(|(v, &p)| (v as NodeId, p))
            .collect();
        job.shuffle_by_key(&format!("Propose{iter}"), proposals, |p| p.1 as u64);
        let edge_records: Vec<(NodeId, NodeId)> = current.edges().map(|e| (e.u, e.v)).collect();
        job.shuffle_by_key(&format!("Relabel{iter}"), edge_records, |e| e.0 as u64);

        let contracted = contract(&current, &roots, true);
        job.shuffle_balanced(
            &format!("Rebuild{iter}"),
            (contracted.graph.num_arcs() as u64) * (4 + 4),
        );

        // Compose labels. First pass: the minimum original representative
        // merging into each root this round.
        let mut root_min: Vec<NodeId> = vec![NO_NODE; current.num_nodes()];
        for &c in &cur_of {
            if c == NO_NODE {
                continue;
            }
            let root = roots[c as usize] as usize;
            let cand = rep_of[c as usize];
            root_min[root] = if root_min[root] == NO_NODE {
                cand
            } else {
                root_min[root].min(cand)
            };
        }
        // Second pass: advance (or finalize) each original vertex.
        let mut next_rep = vec![NO_NODE; contracted.graph.num_nodes()];
        for v in 0..n {
            let c = cur_of[v];
            if c == NO_NODE {
                continue;
            }
            let root = roots[c as usize];
            let nid = contracted.class_of[root as usize];
            if nid == NO_NODE {
                label[v] = root_min[root as usize];
                cur_of[v] = NO_NODE;
            } else {
                cur_of[v] = nid;
                next_rep[nid as usize] = root_min[root as usize];
            }
        }
        rep_of = next_rep;
        current = contracted.graph;
    }

    // In-memory finish on the residual graph.
    let residual_labels = job.local(
        "InMemoryCC",
        (current.num_edges() as u64 + current.num_nodes() as u64 + 1) * 8,
        || {
            let mut uf = UnionFind::new(current.num_nodes());
            for e in current.edges() {
                uf.union(e.u, e.v);
            }
            uf.labels()
        },
    );
    // Component label = min original vertex across the class.
    let mut class_min: Vec<NodeId> = vec![NO_NODE; current.num_nodes()];
    for (v, &c) in cur_of.iter().enumerate() {
        if c != NO_NODE {
            let l = residual_labels[c as usize] as usize;
            let cand = rep_of[c as usize].min(v as NodeId);
            class_min[l] = if class_min[l] == NO_NODE {
                cand
            } else {
                class_min[l].min(cand)
            };
        }
    }
    for v in 0..n {
        let c = cur_of[v];
        if c != NO_NODE {
            label[v] = class_min[residual_labels[c as usize] as usize];
        }
    }
    // Canonicalize: all members of a component share its minimum id.
    let mut min_of: std::collections::HashMap<NodeId, NodeId> = std::collections::HashMap::new();
    for v in 0..n as NodeId {
        let l = label[v as usize];
        min_of
            .entry(l)
            .and_modify(|m| *m = (*m).min(v))
            .or_insert(v);
    }
    let label: Vec<NodeId> = (0..n).map(|v| min_of[&label[v]]).collect();

    CcOutcome {
        label,
        report: job.into_report(),
    }
}

/// Answers 1-vs-2-cycle with the connectivity baseline.
pub fn mpc_one_vs_two(
    g: &CsrGraph,
    cfg: &AmpcConfig,
) -> (ampc_core::one_vs_two::CycleAnswer, ampc_runtime::JobReport) {
    let out = mpc_connected_components(g, cfg);
    let distinct: std::collections::HashSet<NodeId> = out.label.iter().copied().collect();
    let answer = if distinct.len() == 1 {
        ampc_core::one_vs_two::CycleAnswer::One
    } else {
        ampc_core::one_vs_two::CycleAnswer::Two
    };
    (answer, out.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_core::one_vs_two::CycleAnswer;
    use ampc_core::validate;
    use ampc_graph::gen;

    fn cfg() -> AmpcConfig {
        let mut c = AmpcConfig::for_tests();
        c.in_memory_threshold = 40;
        c
    }

    #[test]
    fn labels_match_bfs() {
        for seed in 0..5 {
            let g = gen::erdos_renyi(200, 260, seed);
            let out = mpc_connected_components(&g, &cfg().with_seed(seed));
            assert!(
                validate::is_correct_components(&g, &out.label),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn cycle_instances() {
        let one = gen::single_cycle(3000, 2);
        let two = gen::two_cycles(1500, 2);
        let c = cfg();
        assert_eq!(mpc_one_vs_two(&one, &c).0, CycleAnswer::One);
        assert_eq!(mpc_one_vs_two(&two, &c).0, CycleAnswer::Two);
    }

    #[test]
    fn three_shuffles_per_iteration() {
        let g = gen::single_cycle(2000, 4);
        let out = mpc_connected_components(&g, &cfg());
        assert_eq!(out.report.num_shuffles() % 3, 0);
        assert!(out.report.num_shuffles() >= 6);
    }

    #[test]
    fn cycle_shrinks_geometrically() {
        // §5.6: the cycle shrinks ~2.59–3x per iteration, giving few
        // iterations. Sanity-check the iteration count is logarithmic.
        let g = gen::single_cycle(20_000, 8);
        let mut c = cfg();
        c.in_memory_threshold = 100;
        let out = mpc_connected_components(&g, &c);
        let iters = out.report.num_shuffles() / 3;
        assert!(
            (3..=12).contains(&iters),
            "expected a handful of iterations, got {iters}"
        );
    }

    #[test]
    fn skewed_graph_with_many_components() {
        let g =
            ampc_graph::datasets::Dataset::ClueWeb.generate(ampc_graph::datasets::Scale::Test, 3);
        let out = mpc_connected_components(&g, &cfg());
        assert!(validate::is_correct_components(&g, &out.label));
    }
}
