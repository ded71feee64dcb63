//! Simulating the AMPC MIS in plain MPC — the §5.3 negative result.
//!
//! *"We also considered an MPC implementation of the AMPC algorithm as a
//! potential baseline, in which each step of querying the key-value
//! store was mapped to a shuffle. We observed that this algorithm
//! requires over 1000 shuffles even for the Orkut and Friendster
//! graphs, and is over 50x slower than the rootset-based algorithm."*
//!
//! The query process is adaptively sequential: which vertex to query
//! next depends on the previous response, so an MPC simulation spends
//! one shuffle per dependent query step. The number of shuffles is
//! therefore the longest dependent-query chain over all evaluations —
//! measured here by instrumenting the same evaluation the AMPC
//! implementation runs.
//!
//! With the §5.3 batching optimization the simulation could merge the
//! *independent* queries of one adaptive step into one shuffle, but no
//! batching shortens a chain of *dependent* queries: the floor is the
//! deepest recursion of the query process. [`simulated_ampc_mis_cost`]
//! reports both numbers; the gap between them is exactly what batching
//! can save MPC — and still leaves it far above the AMPC round count.

use ampc_core::mis::direct_graph;
use ampc_core::prim::FlatAdjacency;
use ampc_dht::hasher::FxHashMap;
use ampc_graph::{CsrGraph, NodeId};
use ampc_runtime::AmpcConfig;

/// Shuffle counts for the MPC simulation of the AMPC MIS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimulatedShuffles {
    /// One shuffle per KV query (the single-key mapping): the maximum
    /// number of queries over all per-vertex evaluations.
    pub single_key: u64,
    /// One shuffle per *adaptive step* (the batched mapping):
    /// independent queries of a step share a shuffle, so the count is
    /// the deepest dependent-query chain over all evaluations.
    pub batched: u64,
}

/// Counts the shuffles an MPC simulation of the AMPC MIS would need:
/// the maximum number of sequential (dependent) KV queries over all
/// per-vertex evaluations, each mapping to one shuffle.
pub fn simulated_ampc_mis_shuffles(g: &CsrGraph, cfg: &AmpcConfig) -> u64 {
    simulated_ampc_mis_cost(g, cfg).single_key
}

/// Measures both the single-key and the batched shuffle counts of the
/// MPC simulation (see [`SimulatedShuffles`]).
pub fn simulated_ampc_mis_cost(g: &CsrGraph, cfg: &AmpcConfig) -> SimulatedShuffles {
    let n = g.num_nodes();
    let dir = direct_graph(g, cfg.seed, cfg.threads);

    let mut worst = SimulatedShuffles {
        single_key: 0,
        batched: 0,
    };
    for v in 0..n as NodeId {
        // Evaluate with a per-evaluation memo (the simulation cannot
        // share machine caches across rounds any better than this).
        let mut memo: FxHashMap<NodeId, bool> = FxHashMap::default();
        let mut queries = 0u64;
        let mut depth = 0u64;
        evaluate(v, &dir, &mut memo, &mut queries, &mut depth);
        worst.single_key = worst.single_key.max(queries);
        worst.batched = worst.batched.max(depth);
    }
    worst
}

fn evaluate(
    v: NodeId,
    dir: &FlatAdjacency,
    memo: &mut FxHashMap<NodeId, bool>,
    queries: &mut u64,
    depth: &mut u64,
) -> bool {
    if let Some(&s) = memo.get(&v) {
        return s;
    }
    *queries += 1; // fetching v's list is one dependent step
    let mut stack: Vec<(NodeId, usize)> = vec![(v, 0)];
    *depth = (*depth).max(1);
    while let Some(&mut (x, ref mut idx)) = stack.last_mut() {
        if memo.contains_key(&x) {
            stack.pop();
            continue;
        }
        let nbrs = dir.list(x);
        let mut next_child = None;
        let mut decided = None;
        while *idx < nbrs.len() {
            let u = nbrs[*idx];
            match memo.get(&u) {
                Some(true) => {
                    decided = Some(false);
                    break;
                }
                Some(false) => *idx += 1,
                None => {
                    next_child = Some(u);
                    break;
                }
            }
        }
        if let Some(s) = decided {
            memo.insert(x, s);
            stack.pop();
        } else if let Some(u) = next_child {
            *queries += 1;
            stack.push((u, 0));
            // A child fetch depends on its parent's response: the stack
            // depth is the length of the dependent chain, which even a
            // batched simulation pays one shuffle per link of.
            *depth = (*depth).max(stack.len() as u64);
        } else {
            memo.insert(x, true);
            stack.pop();
        }
    }
    memo[&v]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_core::mis::ampc_mis;
    use ampc_graph::gen;

    #[test]
    fn needs_far_more_shuffles_than_native_ampc() {
        let g = gen::rmat(11, 30_000, gen::RmatParams::SOCIAL, 1);
        let cfg = AmpcConfig::for_tests();
        let sim = simulated_ampc_mis_shuffles(&g, &cfg);
        let native = ampc_mis(&g, &cfg).report.num_shuffles() as u64;
        assert!(
            sim > 50 * native,
            "simulation should be dramatically worse: {sim} vs {native}"
        );
    }

    #[test]
    fn trivial_graph_needs_few() {
        let g = gen::path(4);
        let cfg = AmpcConfig::for_tests();
        assert!(simulated_ampc_mis_shuffles(&g, &cfg) <= 4);
    }

    #[test]
    fn batching_helps_mpc_but_dependent_depth_remains() {
        let g = gen::rmat(11, 30_000, gen::RmatParams::SOCIAL, 1);
        let cfg = AmpcConfig::for_tests();
        let cost = simulated_ampc_mis_cost(&g, &cfg);
        // Batching merges the independent queries of a step...
        assert!(cost.batched <= cost.single_key);
        assert!(cost.batched >= 1);
        // ...but cannot beat the dependent chain, which still dwarfs the
        // single shuffle the native AMPC implementation needs.
        let native = ampc_mis(&g, &cfg).report.num_shuffles() as u64;
        assert!(
            cost.batched > native,
            "dependent depth {} should exceed native {native}",
            cost.batched
        );
    }
}
