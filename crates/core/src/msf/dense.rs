//! DenseMSF — Proposition 3.1 (\[19\]'s algorithm, as iterated here).
//!
//! The loop: run a truncated-Prim + contraction round
//! ([`crate::msf::common::prim_contract_round`]); each round shrinks the
//! vertex count by an `Ω(n^{ε/2})` factor (Lemma 3.3), so
//! `O((1/ε) log log n)` rounds reduce any graph below the in-memory
//! threshold, where Kruskal finishes — the same "switch to a single
//! machine" step the paper's implementations use (§5.4, §5.5).

use super::common::{
    assert_strictly_ascending, distinctify, prim_contract_round, MsfOutcome, ProvEdge,
};
use ampc_graph::WeightedCsrGraph;
use ampc_runtime::{AmpcConfig, Job};
use ampc_trees::UnionFind;

/// Computes the MSF with the iterated dense routine.
pub fn dense_msf(g: &WeightedCsrGraph, cfg: &AmpcConfig) -> MsfOutcome {
    let mut job = Job::new(*cfg);
    let edges = dense_msf_in_job(&mut job, g);
    MsfOutcome {
        edges,
        report: job.into_report(),
    }
}

/// The in-job kernel body: runs the iterated dense MSF inside a
/// caller-provided [`Job`] (the [`crate::algorithm::AmpcAlgorithm`]
/// entry point), returning the MSF edges in canonical order.
// ampc-lint: budget(batched-requests = 3)
pub fn dense_msf_in_job(job: &mut Job, g: &WeightedCsrGraph) -> Vec<ampc_graph::WeightedEdge> {
    let cfg = *job.config();
    let mut d = distinctify(g);
    let internal = dense_msf_loop(job, d.n, std::mem::take(&mut d.edges), &cfg);
    d.restore(internal)
}

/// The search-and-contract loop over provenance edges; returns the
/// internal weights of all MSF edges. Exposed for the other MSF entry
/// points (Algorithm 2's post-ternarization phase, forest
/// connectivity). `edges` must be strictly ascending in `w` (see
/// [`prim_contract_round`]); nothing here re-sorts them.
pub(crate) fn dense_msf_loop(
    job: &mut Job,
    n: usize,
    mut edges: Vec<ProvEdge>,
    cfg: &AmpcConfig,
) -> Vec<u64> {
    let mut msf: Vec<u64> = Vec::new();
    let mut cur_n = n;
    let mut round = 0usize;
    while edges.len() > cfg.in_memory_threshold {
        round += 1;
        assert!(
            round <= 48,
            "DenseMSF failed to shrink below threshold in 48 rounds"
        );
        let tag = if round == 1 {
            String::new()
        } else {
            format!("-r{round}")
        };
        let budget = cfg.prim_budget(cur_n.max(2));
        let r = prim_contract_round(job, cur_n, &edges, &tag, budget, round as u64);
        msf.extend(r.msf_internal);
        edges = r.next_edges;
        cur_n = r.next_n;
    }
    if !edges.is_empty() {
        let ops = (edges.len() as u64 + cur_n as u64 + 1) * 16;
        let more = job.local("InMemoryMSF", ops, || {
            // Kruskal over the edges as they stand: lightest first.
            assert_strictly_ascending(&edges);
            let mut uf = UnionFind::new(cur_n);
            let mut out = Vec::new();
            for e in &edges {
                if uf.union(e.u, e.v) {
                    out.push(e.w);
                }
            }
            out
        });
        msf.extend(more);
    }
    // An MSF edge can be rediscovered at a contracted level (its class
    // boundary crossing survives contraction); the union is a set.
    msf.sort_unstable();
    msf.dedup();
    msf
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
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..6 {
            let g = gen::random_weights(&gen::erdos_renyi(150, 450, seed), 10_000, seed);
            let out = dense_msf(&g, &cfg().with_seed(seed + 3));
            assert_eq!(out.edges, kruskal(&g), "seed {seed}");
        }
    }

    #[test]
    fn matches_kruskal_with_degree_weights_and_ties() {
        // deg(u)+deg(v) weights have many ties: exercises tie-breaking.
        let g = gen::degree_weights(&gen::rmat(9, 6_000, gen::RmatParams::SOCIAL, 4));
        let out = dense_msf(&g, &cfg());
        assert_eq!(out.total_weight(), {
            let k = kruskal(&g);
            k.iter().map(|e| e.w as u128).sum::<u128>()
        });
        assert_eq!(out.edges, kruskal(&g));
    }

    #[test]
    fn forces_multiple_distributed_rounds() {
        // Tiny in-memory threshold forces the loop to iterate.
        let g = gen::random_weights(&gen::erdos_renyi(400, 1600, 9), 100_000, 9);
        let mut c = cfg();
        c.in_memory_threshold = 10;
        let out = dense_msf(&g, &c);
        assert_eq!(out.edges, kruskal(&g));
        assert!(
            out.report.num_shuffles() >= 10,
            "expected >= 2 rounds of 5 shuffles, got {}",
            out.report.num_shuffles()
        );
    }

    #[test]
    fn small_graph_goes_straight_to_memory() {
        let g = gen::degree_weights(&gen::path(10));
        let out = dense_msf(&g, &cfg());
        assert_eq!(out.edges.len(), 9);
        assert_eq!(out.report.num_shuffles(), 0);
    }

    #[test]
    fn disconnected_graph() {
        let g = gen::random_weights(&gen::two_cycles(30, 2), 500, 2);
        let mut c = cfg();
        c.in_memory_threshold = 5;
        let out = dense_msf(&g, &c);
        assert_eq!(out.edges, kruskal(&g));
        assert_eq!(out.edges.len(), 58); // 2 * (30 - 1)
    }
}
