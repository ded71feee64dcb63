//! Shared random priorities over vertices and edges.
//!
//! Both models' implementations draw the *same* randomness: *"By
//! specifying the same source of randomness, both the MPC and AMPC
//! algorithms compute the same MIS"* (§5.3) — and likewise for the
//! lex-first matching and, with distinct weights, the unique MSF. We
//! realize the shared source as hashes of `(seed, id)`: *"Uses hashing
//! to determine a priority for each node"* (Figure 1), so a priority
//! never has to be communicated.
//!
//! Ranks are pairs `(hash, id)` compared lexicographically, guaranteeing
//! a strict total order even on hash collisions. **Smaller rank = earlier
//! in the random permutation** (π in the paper).

use ampc_dht::hasher::mix64;
use ampc_graph::NodeId;

const NODE_SALT: u64 = 0x4e4f_4445; // "NODE"
const EDGE_SALT: u64 = 0x4544_4745; // "EDGE"

/// A strict-total-order rank; smaller = earlier in π.
pub type Rank = (u64, u64);

/// The rank of vertex `v` under the permutation seeded by `seed`.
#[inline]
pub fn node_rank(seed: u64, v: NodeId) -> Rank {
    (node_hash(seed, v), v as u64)
}

/// The hash component of [`node_rank`].
#[inline]
fn node_hash(seed: u64, v: NodeId) -> u64 {
    mix64(seed ^ NODE_SALT ^ ((v as u64) << 1))
}

/// The permutation π of `0..n` under a seed, tabulated: every vertex's
/// index in π.
///
/// `perm.pos(u) < perm.pos(v)` is exactly `node_rank(seed, u) <
/// node_rank(seed, v)`, hash ties included, so a kernel that compares
/// ranks per arc builds the table once (`n` hashes, one bucketed sort)
/// and then pays one `u32` load per comparison instead of two hashes.
#[derive(Clone, Debug)]
pub struct NodePerm {
    pos: Vec<u32>,
}

impl NodePerm {
    /// Tabulates π for the vertices `0..n`.
    pub fn new(seed: u64, n: usize) -> Self {
        let hashes: Vec<u64> = (0..n as NodeId).map(|v| node_hash(seed, v)).collect();
        Self::from_hashes(&hashes)
    }

    /// The permutation ordering vertex `v` by `(hashes[v], v)` — the
    /// rank order for an arbitrary hash column (tests force ties
    /// through it).
    ///
    /// No global sort: a counting pass places every vertex in the bucket
    /// of its hash's top bits (about four vertices a bucket), so bucket
    /// order is hash order and equal hashes share a bucket; then each
    /// bucket is sorted by `(hash, id)`.
    pub(crate) fn from_hashes(hashes: &[u64]) -> Self {
        let n = hashes.len();
        let bits = (n / 4).max(1).ilog2();
        let bucket = |h: u64| (h >> (63 - bits) >> 1) as usize;
        let mut starts = vec![0usize; (1 << bits) + 1];
        for &h in hashes {
            starts[bucket(h) + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let mut ranked = vec![(0u64, 0 as NodeId); n];
        let mut next = starts.clone();
        for (v, &h) in (0..).zip(hashes) {
            let at = &mut next[bucket(h)];
            ranked[*at] = (h, v);
            *at += 1;
        }
        for run in starts.windows(2) {
            ranked[run[0]..run[1]].sort_unstable();
        }
        let mut pos = vec![0u32; n];
        for (i, &(_, v)) in ranked.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        NodePerm { pos }
    }

    /// The index of `v` in π; smaller = earlier.
    #[inline]
    pub fn pos(&self, v: NodeId) -> u32 {
        self.pos[v as usize]
    }

    /// The vertices in π order (the inverse table).
    pub fn order(&self) -> Vec<NodeId> {
        let mut order = vec![0 as NodeId; self.pos.len()];
        for (v, &p) in self.pos.iter().enumerate() {
            order[p as usize] = v as NodeId;
        }
        order
    }
}

/// The canonical `u64` key of the undirected edge `{u, v}`.
#[inline]
pub fn edge_key(u: NodeId, v: NodeId) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// The rank of edge `{u, v}` under the permutation seeded by `seed`.
#[inline]
pub fn edge_rank(seed: u64, u: NodeId, v: NodeId) -> Rank {
    let key = edge_key(u, v);
    (mix64(seed ^ EDGE_SALT ^ key), key)
}

/// The endpoints encoded in an [`edge_key`].
#[inline]
pub fn key_endpoints(key: u64) -> (NodeId, NodeId) {
    ((key >> 32) as NodeId, (key & 0xFFFF_FFFF) as NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ranks_are_distinct_and_deterministic() {
        let a = node_rank(1, 5);
        assert_eq!(a, node_rank(1, 5));
        assert_ne!(a, node_rank(1, 6));
        assert_ne!(a, node_rank(2, 5));
    }

    #[test]
    fn node_perm_orders_exactly_like_node_rank() {
        for seed in [0, 1, 42, u64::MAX] {
            let n = 500;
            let perm = NodePerm::new(seed, n);
            let mut by_rank: Vec<NodeId> = (0..n as NodeId).collect();
            by_rank.sort_unstable_by_key(|&v| node_rank(seed, v));
            assert_eq!(perm.order(), by_rank, "seed {seed}");
            for (i, &v) in by_rank.iter().enumerate() {
                assert_eq!(perm.pos(v), i as u32);
            }
        }
        assert!(NodePerm::new(7, 0).order().is_empty());
    }

    #[test]
    fn node_perm_breaks_hash_ties_by_id() {
        // Equal hashes order by id, as the `(hash, id)` rank pair does.
        let perm = NodePerm::from_hashes(&[9, 3, 9, 3, 3]);
        assert_eq!(perm.order(), vec![1, 3, 4, 0, 2]);
        assert!(perm.pos(1) < perm.pos(3) && perm.pos(0) < perm.pos(2));
    }

    #[test]
    fn node_perm_is_the_sorted_order_on_large_inputs() {
        let n = (1 << 16) + 77;
        let mut by_rank: Vec<NodeId> = (0..n as NodeId).collect();
        by_rank.sort_unstable_by_key(|&v| node_rank(20, v));
        assert_eq!(NodePerm::new(20, n).order(), by_rank);
        // Seven hash values, spread over the top bits: long runs of ties,
        // each in a bucket of its own.
        let tied: Vec<u64> = (0..n as NodeId)
            .map(|v| (node_hash(20, v) % 7) << 61)
            .collect();
        by_rank.sort_unstable_by_key(|&v| (tied[v as usize], v));
        assert_eq!(NodePerm::from_hashes(&tied).order(), by_rank);
    }

    #[test]
    fn edge_rank_orientation_independent() {
        assert_eq!(edge_rank(7, 3, 9), edge_rank(7, 9, 3));
    }

    #[test]
    fn edge_key_roundtrip() {
        let k = edge_key(42, 17);
        assert_eq!(key_endpoints(k), (17, 42));
    }

    #[test]
    fn ranks_permute_fairly() {
        // The min-rank vertex among 0..1000 should vary with the seed.
        let min_for = |seed: u64| (0..1000u32).min_by_key(|&v| node_rank(seed, v)).unwrap();
        let mins: std::collections::HashSet<NodeId> = (0..20).map(min_for).collect();
        assert!(mins.len() > 15, "seeds should move the minimum: {mins:?}");
    }
}
