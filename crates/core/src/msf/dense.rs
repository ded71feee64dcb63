//! DenseMSF — Proposition 3.1 (\[19\]'s algorithm, as iterated here) —
//! and [`ampc_msf_in_job`], the §5.5 production pipeline Figure 7
//! measures, which is this loop: *"We empirically found that
//! implementing a single search procedure on the graph without
//! ternarization is sufficient to shrink it to a very small size"*, and
//! at the default threshold the loop almost always runs exactly one
//! distributed round before the in-memory finish.
//!
//! The loop: run a truncated-Prim + contraction round
//! ([`crate::msf::common::prim_contract_round`]); each round shrinks the
//! vertex count by an `Ω(n^{ε/2})` factor (Lemma 3.3), so
//! `O((1/ε) log log n)` rounds reduce any graph below the in-memory
//! threshold, where Kruskal finishes — the same "switch to a single
//! machine" step the paper's implementations use (§5.4, §5.5).

use super::common::{assert_strictly_ascending, distinctify, prim_contract_round, ProvEdge};
use ampc_graph::{WeightedCsrGraph, WeightedEdge};
use ampc_runtime::{AmpcConfig, Job};
use ampc_trees::UnionFind;

/// The kernel body of the §5.5 production pipeline (registry row `msf`):
/// sort → KV write → Prim search → pointer jump → contract ×2 →
/// in-memory finish, returning the MSF edges in canonical order.
///
/// ```
/// use ampc_core::msf;
/// use ampc_runtime::{driver::drive, AmpcConfig};
///
/// let g = ampc_graph::gen::degree_weights(&ampc_graph::gen::erdos_renyi(60, 150, 1));
/// let out = drive(&AmpcConfig::for_tests(), |job| msf::ampc_msf_in_job(job, &g));
/// // The unique MSF, identical to Kruskal's:
/// assert_eq!(out.output, msf::in_memory::kruskal(&g));
/// ```
pub fn ampc_msf_in_job(job: &mut Job, g: &WeightedCsrGraph) -> Vec<WeightedEdge> {
    let cfg = *job.config();
    let mut d = distinctify(g);
    let forest = dense_msf_loop(job, d.n, std::mem::take(&mut d.edges), &cfg);
    d.restore(forest.iter().map(|e| e.w))
}

/// The search-and-contract loop over provenance edges; returns every
/// MSF edge once, ascending in `w`, as the first level that found it
/// saw it (`ou` / `ov` name its original endpoints). Exposed for the
/// other MSF entry points (Algorithm 2's post-ternarization phase,
/// connectivity). `edges` must be strictly ascending in `w` (see
/// [`prim_contract_round`]); nothing here re-sorts them.
pub(crate) fn dense_msf_loop(
    job: &mut Job,
    n: usize,
    mut edges: Vec<ProvEdge>,
    cfg: &AmpcConfig,
) -> Vec<ProvEdge> {
    let mut msf: Vec<ProvEdge> = Vec::new();
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
        // Edges ascend strictly in `w`, so a weight finds its edge.
        msf.extend(
            r.msf_internal
                .iter()
                .map(|&w| edges[edges.partition_point(|e| e.w < w)]),
        );
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
                    out.push(*e);
                }
            }
            out
        });
        msf.extend(more);
    }
    // An MSF edge can be rediscovered at a contracted level (its class
    // boundary crossing survives contraction); the union is a set.
    msf.sort_by_key(|e| e.w);
    msf.dedup_by_key(|e| e.w);
    msf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msf::in_memory::kruskal;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    fn run(g: &WeightedCsrGraph, c: &AmpcConfig) -> Driven<Vec<WeightedEdge>> {
        drive(c, |job| ampc_msf_in_job(job, g))
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..6 {
            let g = gen::random_weights(&gen::erdos_renyi(150, 450, seed), 10_000, seed);
            let forest = run(&g, &cfg().with_seed(seed + 3)).output;
            assert_eq!(forest, kruskal(&g), "seed {seed}");
        }
    }

    #[test]
    fn matches_kruskal_with_degree_weights_and_ties() {
        // deg(u)+deg(v) weights have many ties: exercises tie-breaking.
        let g = gen::degree_weights(&gen::rmat(9, 6_000, gen::RmatParams::SOCIAL, 4));
        let forest = run(&g, &cfg()).output;
        let k = kruskal(&g);
        let weight = |f: &[WeightedEdge]| f.iter().map(|e| e.w as u128).sum::<u128>();
        assert_eq!(weight(&forest), weight(&k));
        assert_eq!(forest, k);
    }

    #[test]
    fn forces_multiple_distributed_rounds() {
        // Tiny in-memory threshold forces the loop to iterate.
        let g = gen::random_weights(&gen::erdos_renyi(400, 1600, 9), 100_000, 9);
        let mut c = cfg();
        c.in_memory_threshold = 10;
        let out = run(&g, &c);
        assert_eq!(out.output, kruskal(&g));
        assert!(
            out.report.num_shuffles() >= 10,
            "expected >= 2 rounds of 5 shuffles, got {}",
            out.report.num_shuffles()
        );
    }

    #[test]
    fn small_graph_goes_straight_to_memory() {
        let g = gen::degree_weights(&gen::path(10));
        let out = run(&g, &cfg());
        assert_eq!(out.output.len(), 9);
        assert_eq!(out.report.num_shuffles(), 0);
    }

    #[test]
    fn disconnected_graph() {
        let g = gen::random_weights(&gen::two_cycles(30, 2), 500, 2);
        let mut c = cfg();
        c.in_memory_threshold = 5;
        let forest = run(&g, &c).output;
        assert_eq!(forest, kruskal(&g));
        assert_eq!(forest.len(), 58); // 2 * (30 - 1)
    }
}
