//! The MSF entry points.
//!
//! [`ampc_msf`] is the §5.5 production pipeline — the configuration
//! Figure 7 measures: *"We empirically found that implementing a single
//! search procedure on the graph without ternarization is sufficient to
//! shrink it to a very small size"*, after which the contracted graph is
//! solved in memory. Structurally it is [`crate::msf::dense_msf`] (the
//! loop almost always runs exactly one distributed round at the default
//! threshold).
//!
//! [`ampc_msf_algorithm2`] is the faithful Algorithm 2: when the graph
//! is sparse (`m < n^{1+ε/2}`) it first **ternarizes** (every vertex of
//! degree > 3 becomes a cycle of ⊥-weight dummy edges), runs
//! TruncatedPrim on the bounded-degree graph — the regime where the
//! ternary-treap analysis of Appendix A bounds the query cost by
//! `O(n log n)` w.h.p. (Lemma 3.4) — and finishes with DenseMSF on the
//! contracted graph. Dummy edges never surface: both endpoints of a
//! dummy edge descend from the same original vertex, so they vanish as
//! self-loops at reporting time (Algorithm 2 line 5's "with all edges
//! with weight ⊥ removed").

use super::common::{distinctify, MsfOutcome};
use super::dense::{dense_msf, dense_msf_loop};
use ampc_graph::ops::{ternarize, Ternarized};
use ampc_graph::{WeightedCsrGraph, WeightedEdge};
use ampc_runtime::{AmpcConfig, Job};

/// The §5.5 production pipeline (sort → KV write → Prim search →
/// pointer jump → contract ×2 → in-memory finish).
///
/// ```
/// use ampc_core::msf;
/// use ampc_runtime::AmpcConfig;
///
/// let g = ampc_graph::gen::degree_weights(&ampc_graph::gen::erdos_renyi(60, 150, 1));
/// let out = msf::ampc_msf(&g, &AmpcConfig::for_tests());
/// // The unique MSF, identical to Kruskal's:
/// assert_eq!(out.edges, msf::in_memory::kruskal(&g));
/// ```
pub fn ampc_msf(g: &WeightedCsrGraph, cfg: &AmpcConfig) -> MsfOutcome {
    dense_msf(g, cfg)
}

/// The in-job kernel body of the §5.5 production pipeline (the
/// [`crate::algorithm::AmpcAlgorithm`] entry point).
// ampc-lint: budget(batched-requests = 3)
pub fn ampc_msf_in_job(job: &mut Job, g: &WeightedCsrGraph) -> Vec<WeightedEdge> {
    super::dense::dense_msf_in_job(job, g)
}

/// Algorithm 2: ternarize sparse graphs before the truncated-Prim round.
pub fn ampc_msf_algorithm2(g: &WeightedCsrGraph, cfg: &AmpcConfig) -> MsfOutcome {
    let n = g.num_nodes();
    let m = g.num_edges();
    let sparse = (m as f64) < (n.max(2) as f64).powf(1.0 + cfg.epsilon / 2.0);
    if !sparse {
        // Dense case: Algorithm 2 line 6 — run DenseMSF directly.
        return dense_msf(g, cfg);
    }

    let mut job = Job::new(*cfg);
    let t = ternarize(g);
    // Ternarization is a local rewrite distributed as one shuffle
    // ("can easily be done in O(1/ε) rounds by sorting", Lemma 3.6).
    job.shuffle_balanced("Ternarize", t.graph.size_bytes() as u64);

    let mut d = distinctify(&t.graph);
    let internal = dense_msf_loop(&mut job, d.n, std::mem::take(&mut d.edges), cfg);

    // Restore to ternarized-graph edges, then map to original ids and
    // drop dummies (both endpoints from the same original vertex).
    let tern_edges = d.restore(internal);
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

    MsfOutcome {
        edges,
        report: job.into_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msf::in_memory::kruskal;
    use ampc_graph::gen;

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    #[test]
    fn pipeline_matches_kruskal() {
        let g = gen::degree_weights(&gen::rmat(9, 4_000, gen::RmatParams::SOCIAL, 1));
        let out = ampc_msf(&g, &cfg());
        assert_eq!(out.edges, kruskal(&g));
    }

    #[test]
    fn algorithm2_ternarizes_sparse_graphs_and_matches() {
        // A sparse graph with hubs (star-ish) forces ternarization.
        let mut c = cfg();
        c.in_memory_threshold = 20;
        for seed in 0..5 {
            let g = gen::random_weights(&gen::erdos_renyi(200, 380, seed), 1_000, seed);
            let out = ampc_msf_algorithm2(&g, &c);
            assert_eq!(out.edges, kruskal(&g), "seed {seed}");
            // Ternarize stage must be present for sparse inputs.
            assert!(out.report.stages.iter().any(|s| s.name == "Ternarize"));
        }
    }

    #[test]
    fn algorithm2_dense_path_skips_ternarization() {
        let g = gen::degree_weights(&gen::complete(40)); // m = 780 >> n^{1+ε/2}
        let out = ampc_msf_algorithm2(&g, &cfg());
        assert!(out.report.stages.iter().all(|s| s.name != "Ternarize"));
        assert_eq!(out.edges, kruskal(&g));
    }

    #[test]
    fn algorithm2_on_high_degree_tree() {
        // A star: ternarization replaces the hub with a big cycle.
        let mut c = cfg();
        c.in_memory_threshold = 5;
        let g = gen::random_weights(&gen::star(60), 100, 3);
        let out = ampc_msf_algorithm2(&g, &c);
        assert_eq!(out.edges, kruskal(&g));
        assert_eq!(out.edges.len(), 59);
    }

    #[test]
    fn ternarized_path_weights_restore_correctly() {
        let g = gen::random_weights(&gen::erdos_renyi(100, 180, 7), 50, 7);
        let mut c = cfg();
        c.in_memory_threshold = 10;
        let out = ampc_msf_algorithm2(&g, &c);
        let k = kruskal(&g);
        assert_eq!(out.total_weight(), k.iter().map(|e| e.w as u128).sum());
    }
}
