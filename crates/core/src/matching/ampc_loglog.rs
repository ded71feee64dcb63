//! The O(log log n)-round AMPC maximal matching (Algorithm 4, §4.1;
//! Theorem 2 part 1).
//!
//! Each of the `⌈log₂ log₂ Δ⌉ + 1` iterations samples the lowest-ranked
//! `Δ^(-0.5^i)` fraction of the surviving edges (once the degree falls
//! to `10 log n` the whole residual graph is taken), finds the greedy
//! maximal matching of the sample with respect to the *global* edge
//! permutation π — realized as the random-greedy MIS on the sample's
//! line graph, per the classic reduction — commits it, and removes the
//! matched vertices. Proposition 4.3's degree-reduction property makes
//! the maximum degree fall doubly exponentially (Lemma 4.4), so the loop
//! terminates with a maximal matching (Lemma 4.5).
//!
//! Because every phase matches exactly the greedy-by-π edges among the
//! survivors, the union over phases equals the global lex-first matching
//! — asserted against [`crate::matching::greedy_matching`] in the tests.

use crate::priorities::edge_rank;
use ampc_graph::ops::induced_subgraph;
use ampc_graph::{CsrGraph, NodeId, NO_NODE};
use ampc_runtime::Job;

/// The kernel body of Algorithm 4 (registry row `mm/loglog`): the same
/// lex-first matching as the other implementations, in O(log log Δ)
/// phases, returned as the partner array.
pub fn ampc_matching_loglog_in_job(job: &mut Job, g: &CsrGraph) -> Vec<NodeId> {
    let n = g.num_nodes();
    let seed = job.config().seed;

    let delta = g.max_degree().max(2) as f64;
    let threshold = (10.0 * (n.max(2) as f64).ln()).ceil() as usize;
    let k = (delta.log2().max(1.0).log2().ceil() as usize) + 1;

    // Global partner array over original ids.
    let mut partner = vec![NO_NODE; n];
    // The residual graph and its mapping to original ids.
    let mut current = g.clone();
    let mut to_original: Vec<NodeId> = (0..n as NodeId).collect();

    for i in 1..=k {
        if current.num_edges() == 0 {
            break;
        }
        // --- Sample H_i (edge e survives iff its rank-fraction is below p).
        let p = if current.max_degree() > threshold {
            // Δ^(-0.5^i), taken w.r.t. the *original* Δ as in Lemma 4.4.
            delta.powf(-(0.5f64.powi(i as i32)))
        } else {
            1.0
        };
        let cutoff = (p * u64::MAX as f64) as u64;
        let sample: Vec<(NodeId, NodeId)> = current
            .edges()
            .filter(|e| {
                let (ou, ov) = (to_original[e.u as usize], to_original[e.v as usize]);
                edge_rank(seed, ou, ov).0 <= cutoff
            })
            .map(|e| (e.u, e.v))
            .collect();
        // Sampling is a filter over the distributed edge set: 1 shuffle to
        // materialize H_i keyed by edge.
        let bytes: u64 = (sample.len() as u64) * 8;
        job.shuffle_balanced(&format!("SampleH{i}"), bytes);

        // --- M_i = GreedyMM(H_i, π): the random-greedy MIS of the line
        // graph of H_i (the reduction of §4). The sample is sparse, so
        // the line graph is affordable — this is the point of sampling.
        let matched_local = greedy_mm_via_line_graph_mis(current.num_nodes(), &sample, |u, v| {
            edge_rank(seed, to_original[u as usize], to_original[v as usize])
        });
        job.local(
            &format!("LineGraphMIS{i}"),
            (sample.len() as u64 + 1) * 4,
            || (),
        );

        // --- Commit M_i and build G_{i+1} = G_i[V \ V(M_i)].
        let mut keep = vec![true; current.num_nodes()];
        for (u, v) in matched_local.iter().copied() {
            let (ou, ov) = (to_original[u as usize], to_original[v as usize]);
            partner[ou as usize] = ov;
            partner[ov as usize] = ou;
            keep[u as usize] = false;
            keep[v as usize] = false;
        }
        let (next, remap) = induced_subgraph(&current, &keep);
        job.shuffle_balanced(&format!("Prune{i}"), (current.num_edges() as u64) * 8);
        let mut next_to_original = vec![0 as NodeId; next.num_nodes()];
        for (old, &new_id) in remap.iter().enumerate() {
            if new_id != NO_NODE {
                next_to_original[new_id as usize] = to_original[old];
            }
        }
        current = next;
        to_original = next_to_original;
    }

    debug_assert_eq!(current.num_edges(), 0, "Algorithm 4 must empty the graph");

    partner
}

/// Greedy maximal matching of the sampled edges by rank — the MIS of the
/// line graph under the induced vertex priorities. The line graph is
/// navigated implicitly in rank order (equivalent to running the MIS
/// query process of Proposition 4.2 on it).
fn greedy_mm_via_line_graph_mis(
    n: usize,
    edges: &[(NodeId, NodeId)],
    rank: impl Fn(NodeId, NodeId) -> crate::priorities::Rank,
) -> Vec<(NodeId, NodeId)> {
    let mut sorted: Vec<&(NodeId, NodeId)> = edges.iter().collect();
    sorted.sort_unstable_by_key(|&&(u, v)| rank(u, v));
    let mut used = vec![false; n];
    let mut matched = Vec::new();
    for &&(u, v) in &sorted {
        if !used[u as usize] && !used[v as usize] {
            used[u as usize] = true;
            used[v as usize] = true;
            matched.push((u, v));
        }
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::greedy::greedy_matching;
    use crate::matching::pairs_from_partners;
    use crate::validate;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    fn run(g: &CsrGraph, c: &AmpcConfig) -> Driven<Vec<NodeId>> {
        drive(c, |job| ampc_matching_loglog_in_job(job, g))
    }

    #[test]
    fn equals_global_greedy_matching() {
        for seed in 0..6 {
            let g = gen::erdos_renyi(120, 500, seed);
            let c = cfg().with_seed(seed + 11);
            let partner = run(&g, &c).output;
            assert_eq!(partner, greedy_matching(&g, c.seed), "seed {seed}");
        }
    }

    #[test]
    fn maximal_on_skewed_graphs() {
        let g = gen::rmat(10, 10_000, gen::RmatParams::SOCIAL, 2);
        let c = cfg();
        let partner = run(&g, &c).output;
        assert!(validate::is_maximal_matching(
            &g,
            &pairs_from_partners(&partner)
        ));
        assert_eq!(partner, greedy_matching(&g, c.seed));
    }

    #[test]
    fn phase_count_is_loglog() {
        let g = gen::rmat(10, 10_000, gen::RmatParams::SOCIAL, 2);
        let out = run(&g, &cfg());
        // ⌈log2 log2 Δ⌉ + 1 phases, 2 shuffles per phase; Δ < 2^16 so at
        // most 5 phases here.
        assert!(
            out.report.num_shuffles() <= 2 * 5,
            "too many shuffles: {}",
            out.report.num_shuffles()
        );
    }

    #[test]
    fn handles_empty_graph() {
        let g = CsrGraph::empty(5);
        assert!(run(&g, &cfg()).output.iter().all(|&p| p == NO_NODE));
    }
}
