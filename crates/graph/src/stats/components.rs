//! Connected components via breadth-first search (the sequential oracle
//! every distributed connectivity algorithm in the workspace is checked
//! against).

use crate::csr::CsrGraph;
use crate::{NodeId, NO_NODE};
use ampc_dht::hasher::FxHashMap;
use std::collections::VecDeque;

/// Connected-component labelling plus summary counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentStats {
    /// `label[v]` = the smallest vertex id in `v`'s component (a
    /// canonical labelling, so two labellings of the same graph are
    /// directly comparable).
    pub label: Vec<NodeId>,
    /// Number of connected components.
    pub num_components: usize,
    /// Vertex count of the largest component.
    pub largest_size: usize,
}

impl ComponentStats {
    /// True if `u` and `v` are in the same component.
    #[inline]
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.label[u as usize] == self.label[v as usize]
    }

    /// Sizes of all components, indexed by canonical label order.
    pub fn component_sizes(&self) -> Vec<usize> {
        let mut counts: FxHashMap<NodeId, usize> = FxHashMap::default();
        for &l in &self.label {
            *counts.entry(l).or_insert(0) += 1;
        }
        let mut sizes: Vec<(NodeId, usize)> = counts.into_iter().collect();
        sizes.sort_unstable();
        sizes.into_iter().map(|(_, s)| s).collect()
    }
}

/// BFS-based connected components with canonical (min-id) labels.
pub fn connected_components(g: &CsrGraph) -> ComponentStats {
    let n = g.num_nodes();
    let mut label = vec![NO_NODE; n];
    let mut queue = VecDeque::new();
    let mut num_components = 0usize;
    let mut largest = 0usize;
    for start in 0..n as NodeId {
        if label[start as usize] != NO_NODE {
            continue;
        }
        num_components += 1;
        let mut size = 0usize;
        label[start as usize] = start;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            size += 1;
            for &u in g.neighbors(v) {
                if label[u as usize] == NO_NODE {
                    label[u as usize] = start;
                    queue.push_back(u);
                }
            }
        }
        largest = largest.max(size);
    }
    ComponentStats {
        label,
        num_components,
        largest_size: largest,
    }
}

/// Checks whether two component labellings define the same partition
/// (regardless of which representative each one picked).
pub fn same_partition(a: &[NodeId], b: &[NodeId]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // Map labels of `a` to labels of `b`, and vice versa; both maps must
    // be consistent functions.
    let mut fwd: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    let mut bwd: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    for (&la, &lb) in a.iter().zip(b.iter()) {
        if *fwd.entry(la).or_insert(lb) != lb {
            return false;
        }
        if *bwd.entry(lb).or_insert(la) != la {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::GraphBuilder;

    #[test]
    fn single_component_path() {
        let cc = connected_components(&gen::path(10));
        assert_eq!(cc.num_components, 1);
        assert_eq!(cc.largest_size, 10);
        assert!(cc.label.iter().all(|&l| l == 0));
    }

    #[test]
    fn two_components() {
        let g = GraphBuilder::new(5).add_edge(0, 1).add_edge(2, 3).build();
        let cc = connected_components(&g);
        assert_eq!(cc.num_components, 3); // {0,1}, {2,3}, {4}
        assert_eq!(cc.largest_size, 2);
        assert!(cc.same_component(0, 1));
        assert!(!cc.same_component(1, 2));
        assert_eq!(cc.component_sizes(), vec![2, 2, 1]);
    }

    #[test]
    fn isolated_vertices_are_components() {
        let g = CsrGraph::empty(4);
        let cc = connected_components(&g);
        assert_eq!(cc.num_components, 4);
        assert_eq!(cc.largest_size, 1);
    }

    #[test]
    fn same_partition_detects_relabelling() {
        let a = vec![0, 0, 2, 2];
        let b = vec![1, 1, 3, 3];
        let c = vec![0, 0, 0, 2];
        assert!(same_partition(&a, &b));
        assert!(!same_partition(&a, &c));
    }

    use crate::csr::CsrGraph;
}
