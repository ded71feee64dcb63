//! Algorithm 2 (registry row `msf/algorithm2`): when the graph is sparse
//! (`m < n^{1+ε/2}`) it first **ternarizes** (every vertex of degree > 3
//! becomes a cycle of ⊥-weight dummy edges), runs TruncatedPrim on the
//! bounded-degree graph — the regime where the ternary-treap analysis of
//! Appendix A bounds the query cost by `O(n log n)` w.h.p. (Lemma 3.4) —
//! and finishes with DenseMSF on the contracted graph. Dummy edges never
//! surface: both endpoints of a dummy edge descend from the same original
//! vertex, so they vanish as self-loops at reporting time (Algorithm 2
//! line 5's "with all edges with weight ⊥ removed").
//!
//! The §5.5 production pipeline, which skips ternarization, is
//! [`crate::msf::ampc_msf_in_job`].

use super::common::distinctify;
use super::dense::{ampc_msf_in_job, dense_msf_loop};
use ampc_graph::ops::{ternarize, Ternarized};
use ampc_graph::{WeightedCsrGraph, WeightedEdge};
use ampc_runtime::Job;

/// The kernel body of Algorithm 2: ternarize sparse graphs before the
/// truncated-Prim round; a dense graph runs DenseMSF directly.
pub fn ampc_msf_algorithm2_in_job(job: &mut Job, g: &WeightedCsrGraph) -> Vec<WeightedEdge> {
    let cfg = *job.config();
    let n = g.num_nodes();
    let m = g.num_edges();
    let sparse = (m as f64) < (n.max(2) as f64).powf(1.0 + cfg.epsilon / 2.0);
    if !sparse {
        // Dense case: Algorithm 2 line 6 — run DenseMSF directly.
        return ampc_msf_in_job(job, g);
    }

    let t = ternarize(g);
    // Ternarization is a local rewrite distributed as one shuffle
    // ("can easily be done in O(1/ε) rounds by sorting", Lemma 3.6).
    job.shuffle_balanced("Ternarize", t.graph.size_bytes() as u64);

    let mut d = distinctify(&t.graph);
    let forest = dense_msf_loop(job, d.n, std::mem::take(&mut d.edges), &cfg);

    // Restore to ternarized-graph edges, then map to original ids and
    // drop dummies (both endpoints from the same original vertex).
    let tern_edges = d.restore(forest.iter().map(|e| e.w));
    let mut edges: Vec<WeightedEdge> = tern_edges
        .into_iter()
        .filter_map(|e| {
            let (a, b) = (t.origin[e.u as usize], t.origin[e.v as usize]);
            if a == b {
                debug_assert!(Ternarized::is_dummy_weight(e.w));
                return None;
            }
            Some(WeightedEdge::canonical(
                a,
                b,
                Ternarized::original_weight(e.w),
            ))
        })
        .collect();
    edges.sort_unstable_by_key(|e| e.key());

    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msf::in_memory::kruskal;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    fn algorithm2(g: &WeightedCsrGraph, c: &AmpcConfig) -> Driven<Vec<WeightedEdge>> {
        drive(c, |job| ampc_msf_algorithm2_in_job(job, g))
    }

    #[test]
    fn pipeline_matches_kruskal() {
        let g = gen::degree_weights(&gen::rmat(9, 4_000, gen::RmatParams::SOCIAL, 1));
        let forest = drive(&cfg(), |job| ampc_msf_in_job(job, &g)).output;
        assert_eq!(forest, kruskal(&g));
    }

    #[test]
    fn algorithm2_ternarizes_sparse_graphs_and_matches() {
        // A sparse graph with hubs (star-ish) forces ternarization.
        let mut c = cfg();
        c.in_memory_threshold = 20;
        for seed in 0..5 {
            let g = gen::random_weights(&gen::erdos_renyi(200, 380, seed), 1_000, seed);
            let out = algorithm2(&g, &c);
            assert_eq!(out.output, kruskal(&g), "seed {seed}");
            // Ternarize stage must be present for sparse inputs.
            assert!(out.report.stages.iter().any(|s| s.name == "Ternarize"));
        }
    }

    #[test]
    fn algorithm2_dense_path_skips_ternarization() {
        let g = gen::degree_weights(&gen::complete(40)); // m = 780 >> n^{1+ε/2}
        let out = algorithm2(&g, &cfg());
        assert!(out.report.stages.iter().all(|s| s.name != "Ternarize"));
        assert_eq!(out.output, kruskal(&g));
    }

    #[test]
    fn algorithm2_on_high_degree_tree() {
        // A star: ternarization replaces the hub with a big cycle.
        let mut c = cfg();
        c.in_memory_threshold = 5;
        let g = gen::random_weights(&gen::star(60), 100, 3);
        let forest = algorithm2(&g, &c).output;
        assert_eq!(forest, kruskal(&g));
        assert_eq!(forest.len(), 59);
    }

    #[test]
    fn ternarized_path_weights_restore_correctly() {
        let g = gen::random_weights(&gen::erdos_renyi(100, 180, 7), 50, 7);
        let mut c = cfg();
        c.in_memory_threshold = 10;
        let weight = |f: &[WeightedEdge]| f.iter().map(|e| e.w as u128).sum::<u128>();
        assert_eq!(weight(&algorithm2(&g, &c).output), weight(&kruskal(&g)));
    }
}
