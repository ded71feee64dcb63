//! MPC random walks — the §5.7 separation made concrete.
//!
//! *"The AMPC model can potentially help accelerate random-walk based
//! problems … since it efficiently supports random access."* The flip
//! side is this baseline: in classic MPC a walker can only learn its
//! next hop by being routed to the machine that owns its current
//! vertex, so every hop costs **one shuffle** — `steps` costly rounds
//! where the AMPC kernel pays one KV round of adaptive depth `steps`
//! (cf. the 1-vs-2-cycle separation of §5.6).
//!
//! The baseline shares the AMPC kernel's hop randomness (the same
//! seeded `mix64` draw over the same sorted adjacency), so both models
//! produce **identical** walks under equal seeds — the workspace's
//! cross-model validation strategy (DESIGN.md §3).

use ampc_dht::hasher::mix64;
use ampc_graph::{CsrGraph, NodeId};
use ampc_runtime::Job;

/// The shuffle-per-hop walks body (registry row `walks`, model `mpc`):
/// `walkers_per_node × n` walks of `steps` hops, one shuffle per hop,
/// walkers regrouped by their current vertex. Identical walks to
/// [`ampc_core::walks::ampc_random_walks_in_job`] under the same seed.
pub fn mpc_random_walks_in_job(
    job: &mut Job,
    g: &CsrGraph,
    walkers_per_node: usize,
    steps: usize,
) -> Vec<Vec<NodeId>> {
    let cfg = *job.config();
    let seed = cfg.seed;
    let n = g.num_nodes();

    // Walker `w * n + v` is group `w` starting at vertex `v` — the same
    // identity (group, position) the AMPC kernel feeds its hop draw.
    let mut cur: Vec<NodeId> = (0..walkers_per_node).flat_map(|_| 0..n as NodeId).collect();
    let mut paths: Vec<Vec<NodeId>> = cur
        .iter()
        .map(|&c| {
            let mut p = Vec::with_capacity(steps + 1);
            p.push(c);
            p
        })
        .collect();

    for s in 0..steps {
        // One shuffle: every walker record is routed to the machine
        // owning its current vertex (the per-hop costly round).
        let records: Vec<(u64, u64, NodeId)> = cur
            .iter()
            .enumerate()
            .map(|(id, &c)| (id as u64, (id / n.max(1)) as u64, c))
            .collect();
        let buckets = job.shuffle_by_key(&format!("WalkHop{}", s + 1), records, |r| r.2 as u64);

        // Advance locally: after the shuffle each machine holds its
        // walkers next to the adjacency of their current vertices.
        let moved: Vec<(u64, NodeId)> = job.map_round_chunked(
            &format!("Advance{}", s + 1),
            &buckets,
            |ctx, items: &[(u64, u64, NodeId)]| {
                items
                    .iter()
                    .map(|&(id, w, c)| {
                        let nbrs = g.neighbors(c);
                        if nbrs.is_empty() {
                            return (id, c); // dead end: stay put
                        }
                        ctx.add_ops(1);
                        // The AMPC kernel's exact hop draw.
                        let r = mix64(
                            seed ^ w.wrapping_mul(0x9E37_79B9).wrapping_add(c as u64)
                                ^ ((s as u64) << 32),
                        );
                        (id, nbrs[(r % nbrs.len() as u64) as usize])
                    })
                    .collect()
            },
        );
        for (id, next) in moved {
            cur[id as usize] = next;
            paths[id as usize].push(next);
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_core::walks::ampc_random_walks_in_job;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn mpc(g: &CsrGraph, walkers: usize, steps: usize) -> Driven<Vec<Vec<NodeId>>> {
        let cfg = AmpcConfig::for_tests();
        drive(&cfg, |job| mpc_random_walks_in_job(job, g, walkers, steps))
    }

    fn ampc(g: &CsrGraph, walkers: usize, steps: usize) -> Driven<Vec<Vec<NodeId>>> {
        let cfg = AmpcConfig::for_tests();
        drive(&cfg, |job| ampc_random_walks_in_job(job, g, walkers, steps))
    }

    #[test]
    fn identical_to_ampc_walks() {
        let g = gen::erdos_renyi(60, 200, 3);
        for (w, s) in [(1, 6), (2, 4)] {
            let (a, m) = (ampc(&g, w, s).output, mpc(&g, w, s).output);
            assert_eq!(a, m, "walkers={w} steps={s}");
        }
    }

    #[test]
    fn one_shuffle_per_hop() {
        let g = gen::erdos_renyi(40, 120, 1);
        let steps = 5;
        assert_eq!(mpc(&g, 1, steps).report.num_shuffles(), steps);
        // vs the AMPC kernel's single shuffle.
        assert_eq!(ampc(&g, 1, steps).report.num_shuffles(), 1);
    }

    #[test]
    fn dead_ends_stay_put() {
        let g = CsrGraph::empty(4);
        for (v, walk) in mpc(&g, 1, 3).output.iter().enumerate() {
            assert!(walk.iter().all(|&x| x as usize == v));
        }
    }
}
