//! Approximation wrappers — Corollary 4.1.
//!
//! *"The same guarantee as in Theorem 2 also applies to 1 + ε
//! approximate maximum matching, 2 + ε approximate maximum weight
//! matching, and 2 approximate minimum vertex cover."* These are
//! classical black-box reductions to maximal matching:
//!
//! * a maximal matching is a **1/2-approximate maximum matching** and
//!   its endpoint set is a **2-approximate minimum vertex cover**;
//! * bucketing edge weights by powers of `(1 + ε)` and running greedy
//!   maximal matching heaviest-bucket-first yields a **2(1 + ε)-
//!   approximate maximum weight matching** (the standard reduction the
//!   corollary invokes).

use crate::priorities::edge_rank;
use ampc_graph::{CsrGraph, NodeId, WeightedCsrGraph, NO_NODE};
use ampc_runtime::driver::drive;
use ampc_runtime::AmpcConfig;

use super::ampc_constant::ampc_matching_in_job;

/// A 2-approximate minimum vertex cover: the matched endpoints of the
/// AMPC maximal matching.
pub fn approx_vertex_cover(g: &CsrGraph, cfg: &AmpcConfig) -> Vec<NodeId> {
    let partner = drive(cfg, |job| ampc_matching_in_job(job, g, false)).output;
    let mut cover = Vec::new();
    for (v, &p) in partner.iter().enumerate() {
        if p != NO_NODE {
            cover.push(v as NodeId);
        }
    }
    cover
}

/// A `2(1 + eps)`-approximate maximum weight matching via weight
/// bucketing: edges are assigned to buckets `⌊log_{1+eps} w⌋` and the
/// greedy maximal matching is taken bucket by bucket, heaviest first
/// (within a bucket, by the shared random edge permutation).
pub fn approx_max_weight_matching(
    g: &WeightedCsrGraph,
    eps: f64,
    cfg: &AmpcConfig,
) -> Vec<(NodeId, NodeId)> {
    assert!(eps > 0.0, "eps must be positive");
    let base = 1.0 + eps;
    let bucket_of = |w: u64| -> i64 {
        if w == 0 {
            i64::MIN
        } else {
            (w as f64).log(base).floor() as i64
        }
    };
    let mut edges: Vec<(i64, crate::priorities::Rank, NodeId, NodeId)> = g
        .edges()
        .map(|e| {
            (
                -bucket_of(e.w), // heaviest bucket first
                edge_rank(cfg.seed, e.u, e.v),
                e.u,
                e.v,
            )
        })
        .collect();
    edges.sort_unstable();
    let mut used = vec![false; g.num_nodes()];
    let mut matching = Vec::new();
    for (_, _, u, v) in edges {
        if !used[u as usize] && !used[v as usize] {
            used[u as usize] = true;
            used[v as usize] = true;
            matching.push(if u < v { (u, v) } else { (v, u) });
        }
    }
    matching.sort_unstable();
    matching
}

/// Total weight of a matching in `g`.
pub fn matching_weight(g: &WeightedCsrGraph, matching: &[(NodeId, NodeId)]) -> u128 {
    matching
        .iter()
        .map(|&(u, v)| {
            let idx = g
                .neighbors(u)
                .binary_search(&v)
                .expect("matching edge must exist");
            g.weights_of(u)[idx] as u128
        })
        .sum()
}

/// Exact maximum weight matching by branch and bound — usable only on
/// tiny graphs; the oracle for approximation-ratio tests.
pub fn exact_max_weight_matching(g: &WeightedCsrGraph) -> u128 {
    let edges: Vec<(NodeId, NodeId, u64)> = g.edges().map(|e| (e.u, e.v, e.w)).collect();
    assert!(
        edges.len() <= 24,
        "exact matching oracle is exponential; use tiny graphs"
    );
    fn rec(edges: &[(NodeId, NodeId, u64)], i: usize, used: &mut Vec<bool>) -> u128 {
        if i == edges.len() {
            return 0;
        }
        let skip = rec(edges, i + 1, used);
        let (u, v, w) = edges[i];
        if !used[u as usize] && !used[v as usize] {
            used[u as usize] = true;
            used[v as usize] = true;
            let take = w as u128 + rec(edges, i + 1, used);
            used[u as usize] = false;
            used[v as usize] = false;
            skip.max(take)
        } else {
            skip
        }
    }
    rec(&edges, 0, &mut vec![false; g.num_nodes()])
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
    fn vertex_cover_covers_every_edge() {
        let g = gen::erdos_renyi(80, 200, 3);
        let cover = approx_vertex_cover(&g, &cfg());
        let in_cover: Vec<bool> = {
            let mut m = vec![false; g.num_nodes()];
            for &v in &cover {
                m[v as usize] = true;
            }
            m
        };
        for e in g.edges() {
            assert!(in_cover[e.u as usize] || in_cover[e.v as usize]);
        }
        // 2-approximation sanity: cover is at most 2x a maximal matching
        // lower bound (it is exactly 2 |M|).
        assert_eq!(cover.len() % 2, 0);
    }

    #[test]
    fn weighted_matching_is_valid_and_heavy() {
        let g = gen::degree_weights(gen::erdos_renyi(60, 180, 5));
        let m = approx_max_weight_matching(&g, 0.1, &cfg());
        assert!(validate::is_matching(g.structure(), &m));
        // Must be maximal too (greedy over all buckets covers all edges).
        assert!(validate::is_maximal_matching(g.structure(), &m));
    }

    #[test]
    fn weighted_matching_within_factor_on_tiny_graphs() {
        for seed in 0..10 {
            let base = gen::erdos_renyi(10, 14, seed);
            let g = gen::random_weights(base, 100, seed);
            let approx = approx_max_weight_matching(&g, 0.25, &cfg().with_seed(seed));
            let got = matching_weight(&g, &approx);
            let best = exact_max_weight_matching(&g);
            // guarantee: got >= best / (2 * 1.25)
            assert!(
                (got as f64) * 2.5 + 1e-9 >= best as f64,
                "seed {seed}: {got} vs optimum {best}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn rejects_nonpositive_eps() {
        let g = gen::degree_weights(gen::path(3));
        approx_max_weight_matching(&g, 0.0, &cfg());
    }
}
