//! Maximal matching (§4 of the paper).
//!
//! All algorithms compute the **lexicographically-first maximal
//! matching** over a random edge permutation π: an edge is matched iff
//! no incident edge earlier in π is matched. Outputs are therefore
//! identical across the sequential oracle ([`greedy::greedy_matching`]),
//! the O(1)-round AMPC algorithm
//! ([`ampc_constant::ampc_matching_in_job`], Theorem 2 part 2), the
//! O(log log n)-round subsampled algorithm
//! ([`ampc_loglog::ampc_matching_loglog_in_job`], Algorithm 4 — which computes
//! the same matching because union-of-phase-matchings equals the global
//! greedy matching over π), and the MPC rootset baseline in `ampc-mpc`.
//!
//! [`approx`] derives the approximation guarantees of Corollary 4.1.

pub mod ampc_constant;
pub mod ampc_loglog;
pub mod approx;
pub mod greedy;

pub use ampc_constant::ampc_matching_in_job;
pub use ampc_loglog::ampc_matching_loglog_in_job;
pub use greedy::greedy_matching;

use ampc_graph::{NodeId, NO_NODE};

/// Converts a partner array into a sorted list of matched pairs.
pub fn pairs_from_partners(partner: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut pairs: Vec<(NodeId, NodeId)> = partner
        .iter()
        .enumerate()
        .filter_map(|(v, &u)| {
            let v = v as NodeId;
            (u != NO_NODE && v < u).then_some((v, u))
        })
        .collect();
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_from_partner_array() {
        let partner = vec![1, 0, NO_NODE, 4, 3];
        assert_eq!(pairs_from_partners(&partner), vec![(0, 1), (3, 4)]);
    }
}
