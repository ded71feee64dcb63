//! Pointer jumping: resolving directed trees to their roots.
//!
//! The "PointerJump" stage of the §5.5 MSF implementation: *"Our
//! implementation of pointer-jumping simply repeatedly queries the
//! parent of a vertex until it hits a tree root. Although the worst-case
//! depth of this algorithm could be as much as O(n), in practice, the
//! trees constructed by the algorithm are very shallow (we observed a
//! maximum query length of 33 over all graphs)."* This module provides
//! the in-memory primitive; the distributed variant in `ampc-core` issues
//! the queries through the DHT and is charged by its metered handle.

use ampc_graph::{NodeId, NO_NODE};

/// Resolves the root of every vertex in a directed forest given as a
/// parent array (`parent[v] == v` marks roots). Memoized, so the total
/// work is O(n).
///
/// # Panics
/// Panics if the parent pointers contain a cycle.
pub fn find_roots(parent: &[NodeId]) -> Vec<NodeId> {
    let n = parent.len();
    let mut root = vec![NO_NODE; n];
    let mut chain = Vec::new();
    for s in 0..n as NodeId {
        if root[s as usize] != NO_NODE {
            continue;
        }
        // Walk up until a known root or a self-loop, recording the chain.
        let mut v = s;
        chain.clear();
        let r = loop {
            if root[v as usize] != NO_NODE {
                break root[v as usize];
            }
            let p = parent[v as usize];
            if p == v {
                break v;
            }
            chain.push(v);
            assert!(chain.len() <= n, "cycle detected in parent array (via {s})");
            v = p;
        };
        root[v as usize] = r;
        for &u in &chain {
            root[u as usize] = r;
        }
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_chain() {
        // 4 -> 3 -> 2 -> 1 -> 0 (root)
        let parent = vec![0, 0, 1, 2, 3];
        assert_eq!(find_roots(&parent), vec![0; 5]);
    }

    #[test]
    fn multiple_trees() {
        let parent = vec![0, 0, 2, 2, 3];
        assert_eq!(find_roots(&parent), vec![0, 0, 2, 2, 2]);
    }

    #[test]
    fn all_roots() {
        let parent: Vec<NodeId> = (0..5).collect();
        assert_eq!(find_roots(&parent), parent);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn detects_cycles() {
        find_roots(&[1, 2, 0]);
    }
}
