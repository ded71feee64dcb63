//! Diameter estimation.
//!
//! Table 2 of the paper reports exact diameters where feasible and
//! double-sweep lower bounds (marked `*`) for the large graphs. We do the
//! same: exact all-pairs BFS for graphs up to a size threshold, and the
//! standard multi-start double-sweep heuristic above it.

use super::components::ComponentStats;
use crate::csr::CsrGraph;
use crate::NodeId;
use ampc_dht::hasher::FxHashMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A diameter value plus whether it is exact or a lower bound — mirroring
/// the `*` annotation in Table 2 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiameterEstimate {
    /// The estimated diameter of the largest connected component.
    pub value: usize,
    /// True if computed exactly (all-pairs BFS); false for the
    /// double-sweep lower bound.
    pub exact: bool,
}

impl std::fmt::Display for DiameterEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.exact {
            write!(f, "{}", self.value)
        } else {
            write!(f, "{}*", self.value)
        }
    }
}

/// BFS from `source`; returns (farthest vertex, its distance).
pub fn bfs_eccentricity(g: &CsrGraph, source: NodeId) -> (NodeId, usize) {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    let mut far = (source, 0usize);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        if dv > far.1 {
            far = (v, dv);
        }
        for &u in g.neighbors(v) {
            if dist[u as usize] == usize::MAX {
                dist[u as usize] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    far
}

/// Number of BFS runs the exact path affords (`n * bfs_cost` must stay
/// laptop-friendly).
const EXACT_THRESHOLD: usize = 2_000;
const SWEEP_STARTS: usize = 8;

/// Estimates the diameter of the largest component of `g`.
pub fn diameter_estimate(g: &CsrGraph, cc: &ComponentStats, seed: u64) -> DiameterEstimate {
    let n = g.num_nodes();
    if n == 0 {
        return DiameterEstimate {
            value: 0,
            exact: true,
        };
    }
    // Pick the label of the largest component.
    let mut counts: FxHashMap<NodeId, usize> = FxHashMap::default();
    for &l in &cc.label {
        *counts.entry(l).or_insert(0) += 1;
    }
    let (&big_label, _) = counts
        .iter()
        .max_by_key(|&(&l, &c)| (c, std::cmp::Reverse(l)))
        .unwrap();
    let members: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| cc.label[v as usize] == big_label)
        .collect();

    if members.len() <= EXACT_THRESHOLD {
        let mut best = 0usize;
        for &v in &members {
            let (_, ecc) = bfs_eccentricity(g, v);
            best = best.max(ecc);
        }
        DiameterEstimate {
            value: best,
            exact: true,
        }
    } else {
        // Multi-start double sweep: BFS from a random vertex, then BFS
        // from the farthest vertex found; repeat from several starts.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut best = 0usize;
        for _ in 0..SWEEP_STARTS {
            let s = members[rng.gen_range(0..members.len())];
            let (far, _) = bfs_eccentricity(g, s);
            let (_, ecc) = bfs_eccentricity(g, far);
            best = best.max(ecc);
        }
        DiameterEstimate {
            value: best,
            exact: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::stats::connected_components;

    #[test]
    fn path_diameter_exact() {
        let g = gen::path(30);
        let cc = connected_components(&g);
        let d = diameter_estimate(&g, &cc, 0);
        assert_eq!(d.value, 29);
        assert!(d.exact);
    }

    #[test]
    fn cycle_diameter() {
        let g = gen::single_cycle(100, 5);
        let cc = connected_components(&g);
        let d = diameter_estimate(&g, &cc, 0);
        assert_eq!(d.value, 50);
    }

    #[test]
    fn double_sweep_on_large_cycle_is_good() {
        // Cycles are the worst case for double sweep but the bound is
        // still >= half the true diameter; for cycles it is exact.
        let g = gen::single_cycle(5000, 5);
        let cc = connected_components(&g);
        let d = diameter_estimate(&g, &cc, 0);
        assert!(!d.exact);
        assert!(d.value >= 2400, "double sweep too weak: {}", d.value);
        assert!(d.value <= 2500);
    }

    #[test]
    fn display_marks_inexact() {
        let d = DiameterEstimate {
            value: 12,
            exact: false,
        };
        assert_eq!(d.to_string(), "12*");
    }

    #[test]
    fn largest_component_selected() {
        // small triangle + long path: diameter comes from the path.
        let mut b = crate::GraphBuilder::new(23);
        b.push_edge(0, 1, 0);
        b.push_edge(1, 2, 0);
        b.push_edge(2, 0, 0);
        for i in 3..22 {
            b.push_edge(i, i + 1, 0);
        }
        let g = b.build();
        let cc = connected_components(&g);
        let d = diameter_estimate(&g, &cc, 0);
        assert_eq!(d.value, 19);
    }
}
