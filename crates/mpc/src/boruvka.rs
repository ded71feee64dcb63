//! Borůvka's MSF in MPC (§5.5's baseline).
//!
//! *"In each phase of the algorithm, every vertex randomly colors itself
//! either red or blue. Each blue vertex computes the minimum weight edge
//! incident to it, and if this neighbor is red, then the vertex
//! contracts to the neighbor … The algorithm iterates these phases until
//! the number of edges in the graph goes below [the threshold], at which
//! point it applies an in-memory MSF algorithm."* Three shuffles per
//! phase; *"the number of phases is much higher than in the MPC MIS or
//! MM algorithms since each phase … only shrinks the number of vertices
//! by a constant factor"* (11–28 phases on the paper's inputs).

use ampc_core::msf::common::{distinctify, ProvEdge};
use ampc_dht::hasher::{mix64, FxHashMap};
use ampc_dht::measured::Measured;
use ampc_graph::{NodeId, WeightedCsrGraph, WeightedEdge, NO_NODE};
use ampc_runtime::Job;
use ampc_trees::UnionFind;

/// The Borůvka MSF body (registry row `msf`, model `mpc`): the same
/// (unique) forest as the AMPC pipeline and Kruskal.
pub fn mpc_msf_in_job(job: &mut Job, g: &WeightedCsrGraph) -> Vec<WeightedEdge> {
    let cfg = *job.config();
    let d = distinctify(g);

    let mut edges = d.edges.clone();
    let mut cur_n = d.n;
    let mut msf: Vec<u64> = Vec::new();
    let mut phase = 0usize;

    while edges.len() > cfg.in_memory_threshold {
        phase += 1;
        assert!(phase <= 200, "Boruvka failed to converge");

        // Min incident edge per vertex (map stage; also emits those
        // edges as MSF edges by the cut property).
        let mut min_edge: Vec<Option<(u64, NodeId)>> = vec![None; cur_n];
        for e in &edges {
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                let slot = &mut min_edge[a as usize];
                if slot.is_none_or(|(w, _)| e.w < w) {
                    *slot = Some((e.w, b));
                }
            }
        }
        job.map_round(
            &format!("MinEdge{phase}"),
            (0..cur_n as NodeId).collect::<Vec<_>>(),
            |ctx, items| {
                ctx.add_ops(items.len() as u64);
                Vec::<()>::new()
            },
        );
        for slot in min_edge.iter().flatten() {
            msf.push(slot.0);
        }

        // Red/blue coloring; blue contracts into red along its min edge.
        let color = |v: NodeId| mix64(cfg.seed ^ (phase as u64) << 32 ^ v as u64) & 1 == 0;
        let mut parent: Vec<NodeId> = (0..cur_n as NodeId).collect();
        for v in 0..cur_n as NodeId {
            if let Some((_, u)) = min_edge[v as usize] {
                if color(v) && !color(u) {
                    parent[v as usize] = u;
                }
            }
        }

        // Shuffle 1: ship min-edge proposals grouped by target.
        let proposals: Vec<(NodeId, NodeId)> = parent
            .iter()
            .enumerate()
            .filter(|&(v, &p)| p != v as NodeId)
            .map(|(v, &p)| (v as NodeId, p))
            .collect();
        job.shuffle_by_key(&format!("Propose{phase}"), proposals, |p| p.1 as u64);

        // Shuffles 2 + 3: the same contraction routine as the AMPC
        // algorithm (relabel + rebuild). Contraction depth is 1 (blue →
        // red), so no pointer jumping is needed.
        let relabeled: Vec<ProvEdge> = edges
            .iter()
            .filter_map(|e| {
                let (ru, rv) = (parent[e.u as usize], parent[e.v as usize]);
                (ru != rv).then_some(ProvEdge {
                    u: ru.min(rv),
                    v: ru.max(rv),
                    w: e.w,
                    ou: e.ou,
                    ov: e.ov,
                })
            })
            .collect();
        job.shuffle_by_key(&format!("Contract{phase}"), relabeled, |e| {
            ampc_core::priorities::edge_key(e.u, e.v)
        });
        // Dedup parallel edges (lightest), compact ids.
        let mut best: FxHashMap<u64, ProvEdge> = FxHashMap::default();
        for e in edges.iter().filter_map(|e| {
            let (ru, rv) = (parent[e.u as usize], parent[e.v as usize]);
            (ru != rv).then_some(ProvEdge {
                u: ru.min(rv),
                v: ru.max(rv),
                w: e.w,
                ou: e.ou,
                ov: e.ov,
            })
        }) {
            let key = ampc_core::priorities::edge_key(e.u, e.v);
            best.entry(key)
                .and_modify(|cur| {
                    if e.w < cur.w {
                        *cur = e;
                    }
                })
                .or_insert(e);
        }
        let mut next_id = vec![NO_NODE; cur_n];
        let mut next_n = 0 as NodeId;
        for e in best.values() {
            for x in [e.u, e.v] {
                if next_id[x as usize] == NO_NODE {
                    next_id[x as usize] = next_n;
                    next_n += 1;
                }
            }
        }
        let mut next_edges: Vec<ProvEdge> = best
            .into_values()
            .map(|e| ProvEdge {
                u: next_id[e.u as usize],
                v: next_id[e.v as usize],
                w: e.w,
                ou: e.ou,
                ov: e.ov,
            })
            .collect();
        next_edges.sort_unstable_by_key(|e| e.w);
        job.shuffle_balanced(
            &format!("Rebuild{phase}"),
            next_edges.iter().map(|e| e.size_bytes() as u64).sum(),
        );
        edges = next_edges;
        cur_n = next_n as usize;
    }

    // In-memory finish.
    if !edges.is_empty() {
        let more = job.local(
            "InMemoryMSF",
            (edges.len() as u64 + cur_n as u64 + 1) * 16,
            || {
                let mut sorted = edges.clone();
                sorted.sort_unstable_by_key(|e| e.w);
                let mut uf = UnionFind::new(cur_n);
                let mut out = Vec::new();
                for e in &sorted {
                    if uf.union(e.u, e.v) {
                        out.push(e.w);
                    }
                }
                out
            },
        );
        msf.extend(more);
    }
    msf.sort_unstable();
    msf.dedup();

    d.restore(msf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_core::msf::ampc_msf_in_job;
    use ampc_core::msf::in_memory::kruskal;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        let mut c = AmpcConfig::for_tests();
        c.in_memory_threshold = 30;
        c
    }

    fn mpc(g: &WeightedCsrGraph, c: &AmpcConfig) -> Driven<Vec<WeightedEdge>> {
        drive(c, |job| mpc_msf_in_job(job, g))
    }

    fn ampc(g: &WeightedCsrGraph, c: &AmpcConfig) -> Driven<Vec<WeightedEdge>> {
        drive(c, |job| ampc_msf_in_job(job, g))
    }

    #[test]
    fn matches_kruskal() {
        for seed in 0..5 {
            let g = gen::random_weights(gen::erdos_renyi(150, 600, seed), 99_999, seed);
            let forest = mpc(&g, &cfg().with_seed(seed)).output;
            assert_eq!(forest, kruskal(&g), "seed {seed}");
        }
    }

    #[test]
    fn same_forest_as_ampc_pipeline() {
        let g = gen::degree_weights(gen::rmat(9, 4_000, gen::RmatParams::SOCIAL, 3));
        let c = cfg();
        assert_eq!(ampc(&g, &c).output, mpc(&g, &c).output);
    }

    #[test]
    fn three_shuffles_per_phase_and_more_phases_than_ampc() {
        let g = gen::degree_weights(gen::erdos_renyi(400, 2_000, 9));
        let c = cfg();
        let out = mpc(&g, &c);
        assert_eq!(out.report.num_shuffles() % 3, 0);
        let ampc = ampc(&g, &c);
        assert!(
            out.report.num_shuffles() > ampc.report.num_shuffles(),
            "Boruvka {} vs AMPC {}",
            out.report.num_shuffles(),
            ampc.report.num_shuffles()
        );
    }

    #[test]
    fn disconnected_inputs() {
        let g = gen::random_weights(gen::two_cycles(60, 1), 500, 1);
        assert_eq!(mpc(&g, &cfg()).output, kruskal(&g));
    }
}
