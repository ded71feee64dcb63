//! Random walks in AMPC — the §5.7 "Applicability" extension.
//!
//! *"The AMPC model can potentially help accelerate random-walk based
//! problems, such as PageRank and Personalized PageRank, since it
//! efficiently supports random access."* This module realizes that
//! suggestion: after one shuffle writes the adjacency into the DHT,
//! every walker advances step by step with one KV lookup per hop —
//! an O(1)-round computation that would cost one MPC round *per hop*
//! (cf. the 1-vs-2-cycle separation). Walkers sharing a machine move in
//! lockstep so each hop is one *batched* lookup (§5.3): the charged
//! round-trip depth is the walk length, not walkers × steps. A
//! visit-frequency PageRank estimator is built on top.

use ampc_dht::cache::DenseCache;
use ampc_dht::hasher::mix64;
use ampc_dht::store::{Dht, GenerationWriter};
use ampc_graph::{CsrGraph, NodeId};
use ampc_runtime::Job;

/// The kernel body (registry row `walks`): `walkers_per_node × n`
/// independent random walks of `steps` hops each, all inside a single KV
/// round, returning one vertex sequence per walker. Walks at a dead end
/// (isolated vertex) stay put. Deterministic given the seed.
pub fn ampc_random_walks_in_job(
    job: &mut Job,
    g: &CsrGraph,
    walkers_per_node: usize,
    steps: usize,
) -> Vec<Vec<NodeId>> {
    let cfg = *job.config();
    let n = g.num_nodes();

    // WriteGraph shuffle + KV-write, like every AMPC algorithm here.
    // Host-side only vertex ids move; the simulated shuffle
    // redistributes the full adjacency record (id + length-prefixed
    // neighbor list), so the metered loads are those of the record.
    let vertices: Vec<NodeId> = g.nodes().collect();
    let buckets = job.shuffle_by_key_measured(
        "WriteGraph",
        vertices,
        |&v| v as u64,
        |&v| 12 + 4 * g.degree(v) as u64,
    );
    let mut dht: Dht<Vec<NodeId>> = Dht::new();
    let writer = GenerationWriter::new();
    job.kv_round_chunked(
        "KV-Write",
        dht.current(),
        Some(&writer),
        &buckets,
        |ctx, items: &[NodeId]| {
            // Independent writes share one round trip (§5.3). Each
            // adjacency list is materialized exactly once, owned by its
            // put — no intermediate record vector, no clone.
            ctx.handle
                .put_many(items.iter().map(|&v| (v as u64, g.neighbors(v).to_vec())));
            Vec::<()>::new()
        },
    );
    dht.push(writer.seal());

    // One KV round: every walker advances `steps` hops. The walkers on
    // a machine advance in **lockstep**: each adaptive step issues one
    // batched lookup for all walkers' current positions (§5.3 — the
    // round costs its adaptive depth, `steps`, not walkers × steps),
    // with repeats answered by the handle-mounted per-machine cache
    // when the caching optimization is on.
    let starts: Vec<(u64, NodeId)> = (0..walkers_per_node)
        .flat_map(|w| (0..n as NodeId).map(move |v| (w as u64, v)))
        .collect();
    let seed = cfg.seed;
    let caching = cfg.caching;
    let walks = job.kv_round("Walk", dht.current(), None, starts, |ctx, items| {
        if caching {
            ctx.handle.mount_cache(DenseCache::unbounded(n));
        }
        let mut cur: Vec<NodeId> = items.iter().map(|&(_, v)| v).collect();
        let mut paths: Vec<Vec<NodeId>> = cur
            .iter()
            .map(|&c| {
                let mut p = Vec::with_capacity(steps + 1);
                p.push(c);
                p
            })
            .collect();
        // Lockstep key buffer in the machine's scratch arena, reused
        // across hops and rounds: one batched lookup per adaptive
        // step, no per-hop allocation. The visitor form serves
        // adjacency *references* (cache or generation), so a cache
        // miss costs exactly one clone — the cache insert — and the
        // hop loop clones nothing.
        for s in 0..steps {
            ctx.scratch.keys.clear();
            ctx.scratch.keys.extend(cur.iter().map(|&c| c as u64));
            let mut moved = 0u64;
            let cur = &mut cur;
            let paths = &mut paths;
            ctx.handle
                .get_many_through_with(&ctx.scratch.keys, |i, nbrs| {
                    let nbrs = nbrs.expect("vertex record");
                    if nbrs.is_empty() {
                        paths[i].push(cur[i]);
                        return;
                    }
                    moved += 1;
                    let (w, _) = items[i];
                    let r = mix64(
                        seed ^ w.wrapping_mul(0x9E37_79B9).wrapping_add(cur[i] as u64)
                            ^ ((s as u64) << 32),
                    );
                    cur[i] = nbrs[(r % nbrs.len() as u64) as usize];
                    paths[i].push(cur[i]);
                });
            ctx.add_ops(moved);
        }
        paths
    });

    walks
}

/// Visit-frequency PageRank estimate from the random walks of an
/// `n`-vertex graph (what [`ampc_random_walks_in_job`] returns), with
/// restarts: walkers teleport with probability `1 - damping` (realized by
/// chopping walks into segments). Returns visit mass per vertex,
/// normalized to sum to 1.
pub fn pagerank_estimate(n: usize, walks: &[Vec<NodeId>], damping: f64) -> Vec<f64> {
    assert!((0.0..1.0).contains(&damping), "damping must be in [0, 1)");
    let mut visits = vec![0f64; n];
    for walk in walks {
        for (i, &v) in walk.iter().enumerate() {
            // Probability the walk survives i hops without teleporting.
            visits[v as usize] += damping.powi(i as i32);
        }
    }
    let total: f64 = visits.iter().sum();
    if total > 0.0 {
        for v in &mut visits {
            *v /= total;
        }
    }
    visits
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    fn run(g: &CsrGraph, c: &AmpcConfig, walkers: usize, steps: usize) -> Driven<Vec<Vec<NodeId>>> {
        drive(c, |job| ampc_random_walks_in_job(job, g, walkers, steps))
    }

    #[test]
    fn walks_follow_edges() {
        let g = gen::erdos_renyi(60, 200, 3);
        let walks = run(&g, &cfg(), 1, 8).output;
        assert_eq!(walks.len(), 60);
        for walk in &walks {
            assert_eq!(walk.len(), 9);
            for w in walk.windows(2) {
                assert!(
                    w[0] == w[1] || g.has_edge(w[0], w[1]),
                    "walk took a non-edge {w:?}"
                );
            }
        }
    }

    #[test]
    fn single_kv_search_round() {
        let g = gen::erdos_renyi(40, 120, 1);
        let out = run(&g, &cfg(), 2, 4);
        assert_eq!(out.report.num_shuffles(), 1);
        assert_eq!(out.report.num_kv_rounds(), 2); // KV-Write + Walk
    }

    #[test]
    fn deterministic() {
        let g = gen::erdos_renyi(50, 150, 2);
        let a = run(&g, &cfg(), 1, 6).output;
        let b = run(&g, &cfg(), 1, 6).output;
        assert_eq!(a, b);
        let c = run(&g, &cfg().with_seed(99), 1, 6).output;
        assert_ne!(a, c);
    }

    #[test]
    fn isolated_vertices_stay_put() {
        let g = CsrGraph::empty(3);
        for (v, walk) in run(&g, &cfg(), 1, 5).output.iter().enumerate() {
            assert!(walk.iter().all(|&x| x as usize == v));
        }
    }

    #[test]
    fn pagerank_favors_hubs() {
        // Star: the center should collect by far the most visit mass.
        let g = gen::star(50);
        let walks = run(&g, &cfg(), 4, 10).output;
        let pr = pagerank_estimate(g.num_nodes(), &walks, 0.85);
        let center = pr[0];
        for &leaf in &pr[1..] {
            assert!(center > 5.0 * leaf, "center {center} vs leaf {leaf}");
        }
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn rejects_bad_damping() {
        pagerank_estimate(4, &[], 1.5);
    }
}
