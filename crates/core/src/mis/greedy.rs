//! Sequential lexicographically-first MIS — the oracle.

use crate::priorities::NodePerm;
use ampc_graph::CsrGraph;

/// Computes the lex-first MIS over the permutation defined by `seed`:
/// process vertices in rank order, adding each whose neighbors are all
/// still outside the set.
pub fn greedy_mis(g: &CsrGraph, seed: u64) -> Vec<bool> {
    let n = g.num_nodes();
    let mut in_mis = vec![false; n];
    for v in NodePerm::new(seed, n).order() {
        let blocked = g.neighbors(v).iter().any(|&u| in_mis[u as usize]);
        if !blocked {
            in_mis[v as usize] = true;
        }
    }
    in_mis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;
    use ampc_graph::gen;

    #[test]
    fn produces_maximal_independent_sets() {
        for seed in 0..10 {
            let g = gen::erdos_renyi(100, 300, seed);
            let mis = greedy_mis(&g, seed * 7 + 1);
            assert!(validate::is_maximal_independent_set(&g, &mis));
        }
    }

    #[test]
    fn empty_graph_takes_everything() {
        let g = CsrGraph::empty(5);
        assert_eq!(greedy_mis(&g, 1), vec![true; 5]);
    }

    #[test]
    fn complete_graph_takes_exactly_one() {
        let g = gen::complete(8);
        let mis = greedy_mis(&g, 3);
        assert_eq!(mis.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gen::erdos_renyi(60, 150, 2);
        assert_eq!(greedy_mis(&g, 5), greedy_mis(&g, 5));
    }

    #[test]
    fn different_seeds_usually_differ() {
        let g = gen::erdos_renyi(200, 800, 2);
        let a = greedy_mis(&g, 1);
        let b = greedy_mis(&g, 2);
        assert_ne!(a, b);
    }
}
