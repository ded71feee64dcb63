//! The AMPC MIS algorithm (Figure 1 of the paper; Proposition 4.2).
//!
//! Three steps, mirroring the Flume-C++ pseudocode of §5.3:
//!
//! 1. **DirectGraph** (1 shuffle): sort each vertex's neighborhood by
//!    priority, keeping only the neighbors *earlier in the permutation*
//!    (those that can block `v`).
//! 2. **KV-Write**: store the directed graph in the DHT.
//! 3. **IsInMIS** (KV round): from every vertex, run the recursive query
//!    process of Yoshida et al.: `v ∈ MIS` iff none of its directed
//!    (earlier) neighbors is in the MIS. The recursion is evaluated
//!    iteratively with an explicit stack; with the caching optimization
//!    the per-machine result table short-circuits repeat queries, and
//!    multithreading (modeled in the cost config) hides lookup latency.
//!
//! The truncated multi-round variant of \[19\] (each round re-runs
//! unresolved vertices with an `n^ε`-times larger budget) is the
//! `truncated` flag of [`ampc_mis_in_job`] (registry row `mis/truncated`);
//! as the paper observes, the practical configuration resolves everything
//! in a single round.

use crate::prim::{earlier_adjacency, FlatAdjacency};
use crate::priorities::NodePerm;
use ampc_dht::cache::DenseCache;
use ampc_dht::hasher::FxHashMap;
use ampc_dht::store::{Dht, GenerationWriter};
use ampc_graph::{CsrGraph, NodeId};
use ampc_runtime::driver::AdaptiveRounds;
use ampc_runtime::executor::MachineCtx;
use ampc_runtime::Job;

/// DirectGraph's host-side work: every vertex's earlier-in-π neighbors
/// (those that can block it), sorted by rank. Built in rank space by
/// [`earlier_adjacency`]: the kept ranks are compacted without a branch,
/// radix-sorted when the list is long, and mapped back to ids.
pub fn direct_graph(g: &CsrGraph, seed: u64, threads: usize) -> FlatAdjacency {
    earlier_adjacency(g, &NodePerm::new(seed, g.num_nodes()), threads)
}

/// Per-vertex status in the machine cache (absent = not yet known).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    InMis,
    NotInMis,
}

/// The kernel body: AMPC MIS inside a caller-provided [`Job`]. Caching
/// follows `job.config().caching`; `truncated` runs the multi-round query
/// process of \[19\] (registry row `mis/truncated`) instead of one
/// unbounded round.
///
/// ```
/// use ampc_core::{mis, validate};
/// use ampc_runtime::{driver::drive, AmpcConfig};
///
/// let g = ampc_graph::gen::erdos_renyi(100, 300, 7);
/// let out = drive(&AmpcConfig::for_tests(), |job| mis::ampc_mis_in_job(job, &g, false));
/// assert!(validate::is_maximal_independent_set(&g, &out.output));
/// assert_eq!(out.report.num_shuffles(), 1); // Table 3
/// ```
pub fn ampc_mis_in_job(job: &mut Job, g: &CsrGraph, truncated: bool) -> Vec<bool> {
    let cfg = *job.config();
    let n = g.num_nodes();
    let caching = cfg.caching;

    // ------------------------------------------------------ DirectGraph
    // Per vertex: its earlier-in-π neighbors, sorted by rank. Host-side
    // only vertex ids move; the simulated shuffle redistributes the full
    // record (id + length-prefixed directed list).
    let directed = direct_graph(g, cfg.seed, cfg.threads);
    let buckets = job.shuffle_by_key_measured(
        "DirectGraph",
        g.nodes().collect(),
        |&v| v as u64,
        |&v| 12 + 4 * directed.list(v).len() as u64,
    );

    // -------------------------------------------------------- KV-Write
    let mut dht: Dht<Vec<NodeId>> = Dht::new();
    let writer = GenerationWriter::new();
    job.kv_round_chunked(
        "KV-Write",
        dht.current(),
        Some(&writer),
        &buckets,
        |ctx, items: &[NodeId]| {
            // One accounted batch per machine (§5.3): the writes are
            // independent, so they share a single round trip.
            ctx.handle
                .put_many(items.iter().map(|&v| (v as u64, directed.list(v).to_vec())));
            Vec::<()>::new()
        },
    );
    // Freed before the seal allocates the generation it was copied into.
    drop(directed);
    dht.push(writer.seal());

    // --------------------------------------------------------- IsInMIS
    // Round loop: in the default configuration one round with an
    // unbounded budget resolves every vertex (what the paper observed in
    // practice); the truncated variant multiplies the budget by n^ε per
    // round, consulting statuses resolved in earlier rounds.
    let mut resolved: Vec<u8> = vec![0; n]; // 0 unknown, 1 in, 2 out
    let mut pending: Vec<NodeId> = (0..n as NodeId).collect();
    let mut rounds = AdaptiveRounds::new(if truncated {
        cfg.search_budget(n)
    } else {
        u64::MAX
    });
    while !pending.is_empty() {
        let budget = rounds.begin("IsInMIS");
        let resolved_ro = &resolved;
        let handle_budget = rounds.handle_budget(pending.len());
        let outputs: Vec<(NodeId, Option<bool>)> = job.kv_round_budgeted(
            &rounds.stage_name("IsInMIS"),
            dht.current(),
            None,
            pending.clone(),
            handle_budget,
            |ctx, items| {
                let mut cache: DenseCache<Status> = if caching {
                    DenseCache::unbounded(n)
                } else {
                    DenseCache::disabled()
                };
                // §5.3 batching: every pending item's directed adjacency
                // is one independent lookup, so the whole chunk's root
                // fetches share a single accounted round trip. The
                // adaptive interior of each search stays single-key —
                // dependent queries are separate round trips by design.
                // Keys batch in the machine's scratch arena, results
                // borrowed from the sealed generation.
                ctx.scratch.keys.clear();
                ctx.scratch.keys.extend(items.iter().map(|&v| v as u64));
                let mut roots = Vec::with_capacity(items.len());
                ctx.handle.get_many_into(&ctx.scratch.keys, &mut roots);
                items
                    .iter()
                    .zip(roots)
                    .map(|(&v, root)| {
                        let root = root.map(|l| l.as_slice()).unwrap_or(&[]);
                        (
                            v,
                            evaluate(v, root, ctx, &mut cache, resolved_ro, budget, caching),
                        )
                    })
                    .collect()
            },
        );
        // Commit resolutions; unresolved vertices go to the next round
        // with a larger budget (statuses become next-round hints, the
        // status write being metered as a KV round).
        pending.clear();
        let mut newly = 0u64;
        for (v, st) in outputs {
            match st {
                Some(true) => resolved[v as usize] = 1,
                Some(false) => resolved[v as usize] = 2,
                None => pending.push(v),
            }
            if st.is_some() {
                newly += 1;
            }
        }
        if !pending.is_empty() {
            // Meter the write of newly-resolved statuses that the next
            // round's machines will consult.
            let status_writer: GenerationWriter<Vec<NodeId>> = GenerationWriter::new();
            job.kv_round(
                "StatusWrite",
                dht.current(),
                Some(&status_writer),
                vec![(); newly as usize],
                |ctx, items: &[()]| {
                    ctx.add_ops(items.len() as u64);
                    // Independent status writes: one batch per machine.
                    // (All machines write the same marker value, which
                    // the writer's determinism contract permits.)
                    ctx.handle.put_many(items.iter().map(|_| (0, Vec::new())));
                    Vec::<()>::new()
                },
            );
            rounds.escalate(cfg.search_budget(n));
        }
    }

    resolved.iter().map(|&s| s == 1).collect()
}

/// Iterative evaluation of the Yoshida et al. recursion from `v`.
///
/// `root` is `v`'s directed adjacency, prefetched by the machine's
/// batched round-start lookup (it counts as this search's first query
/// against `budget`, exactly as the inline fetch used to).
///
/// Returns `None` if the evaluation was truncated by `budget`.
#[allow(
    clippy::too_many_arguments,
    reason = "one search's state, threaded through by the caller"
)]
fn evaluate<'a>(
    v: NodeId,
    root: &'a [NodeId],
    ctx: &mut MachineCtx<'a, Vec<NodeId>>,
    cache: &mut DenseCache<Status>,
    resolved: &[u8],
    budget: u64,
    caching: bool,
) -> Option<bool> {
    // Status lookup that never touches the network: per-machine cache
    // plus globally-resolved statuses from earlier rounds.
    #[inline]
    fn known(
        x: NodeId,
        cache: &DenseCache<Status>,
        local: &FxHashMap<NodeId, Status>,
        resolved: &[u8],
    ) -> Option<Status> {
        match resolved[x as usize] {
            1 => return Some(Status::InMis),
            2 => return Some(Status::NotInMis),
            _ => {}
        }
        if let Some(&s) = cache.get(x as u64) {
            return Some(s);
        }
        local.get(&x).copied()
    }

    // Local memo (within this evaluation) used when the shared cache is
    // disabled: required for the DFS itself (a node's status must not be
    // recomputed mid-traversal) but discarded between evaluations, which
    // is exactly the "unoptimized" configuration of Figure 4.
    let mut local: FxHashMap<NodeId, Status> = FxHashMap::default();
    let record = |x: NodeId,
                  s: Status,
                  cache: &mut DenseCache<Status>,
                  local: &mut FxHashMap<NodeId, Status>| {
        if caching {
            cache.put(x as u64, s);
        } else {
            local.insert(x, s);
        }
    };

    if let Some(s) = known(v, cache, &local, resolved) {
        ctx.handle.note_cache_hit();
        return Some(s == Status::InMis);
    }

    // The prefetched root list is this search's first charged query.
    let mut queries_here = 1u64;
    // Frame: (vertex, its directed neighbor list, cursor).
    let mut stack: Vec<(NodeId, &'a [NodeId], usize)> = Vec::new();
    stack.push((v, root, 0));

    while let Some(&mut (x, nbrs, ref mut idx)) = stack.last_mut() {
        ctx.add_ops(1);
        let mut decided: Option<Status> = None;
        let mut push_child: Option<NodeId> = None;
        while *idx < nbrs.len() {
            let u = nbrs[*idx];
            match known(u, cache, &local, resolved) {
                Some(Status::InMis) => {
                    decided = Some(Status::NotInMis);
                    break;
                }
                Some(Status::NotInMis) => {
                    *idx += 1;
                }
                None => {
                    push_child = Some(u);
                    break;
                }
            }
        }
        if let Some(s) = decided {
            record(x, s, cache, &mut local);
            stack.pop();
            continue;
        }
        if let Some(u) = push_child {
            if queries_here >= budget {
                return None; // truncated; retried next round
            }
            let list = ctx
                .handle
                // Adaptive truncated search, not a missed batch
                // (Algorithm 1): which adjacency list is fetched next depends on the
                // contents of the previous one; capped by `queries_here >= budget`.
                .get(u as u64)
                .map(|l| l.as_slice())
                .unwrap_or(&[]);
            queries_here += 1;
            stack.push((u, list, 0));
            continue;
        }
        // All directed neighbors are out: x joins the MIS.
        record(x, Status::InMis, cache, &mut local);
        stack.pop();
    }

    known(v, cache, &local, resolved).map(|s| s == Status::InMis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::greedy::greedy_mis;
    use crate::validate;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    fn run(g: &CsrGraph, c: &AmpcConfig, truncated: bool) -> Driven<Vec<bool>> {
        drive(c, |job| ampc_mis_in_job(job, g, truncated))
    }

    #[test]
    fn matches_greedy_on_small_graphs() {
        for seed in 0..8 {
            let g = gen::erdos_renyi(120, 360, seed);
            let c = cfg().with_seed(seed * 13 + 5);
            let in_mis = run(&g, &c, false).output;
            assert_eq!(in_mis, greedy_mis(&g, c.seed), "seed {seed}");
            assert!(validate::is_maximal_independent_set(&g, &in_mis));
        }
    }

    #[test]
    fn matches_greedy_on_skewed_graph() {
        let g = gen::rmat(10, 8_000, gen::RmatParams::SOCIAL, 3);
        let c = cfg();
        assert_eq!(run(&g, &c, false).output, greedy_mis(&g, c.seed));
    }

    #[test]
    fn uses_one_shuffle_and_two_kv_rounds() {
        // Table 3: the AMPC MIS uses a single shuffle.
        let g = gen::erdos_renyi(100, 250, 1);
        let out = run(&g, &cfg(), false);
        assert_eq!(out.report.num_shuffles(), 1);
        assert_eq!(out.report.num_kv_rounds(), 2); // KV-Write + IsInMIS
    }

    #[test]
    fn no_cache_still_correct_but_more_queries() {
        let g = gen::erdos_renyi(150, 600, 2);
        let cached = run(&g, &cfg().with_caching(true), false);
        let uncached = run(&g, &cfg().with_caching(false), false);
        assert_eq!(cached.output, uncached.output);
        let qc = cached.report.kv_comm().queries;
        let qu = uncached.report.kv_comm().queries;
        assert!(qu > qc, "uncached should query more: {qu} vs {qc}");
    }

    #[test]
    fn truncated_variant_converges_and_matches() {
        let g = gen::erdos_renyi(200, 800, 4);
        let c = cfg().with_caching(true);
        assert_eq!(run(&g, &c, true).output, greedy_mis(&g, c.seed));
    }

    #[test]
    fn isolated_vertices_always_in() {
        let g = CsrGraph::empty(7);
        assert!(run(&g, &cfg(), false).output.iter().all(|&b| b));
    }

    #[test]
    fn deterministic_across_machine_counts() {
        let g = gen::erdos_renyi(150, 500, 9);
        let a = run(&g, &cfg().with_machines(2), false);
        let b = run(&g, &cfg().with_machines(7), false);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn star_takes_leaves_or_center() {
        let g = gen::star(20);
        let in_mis = run(&g, &cfg(), false).output;
        let count = in_mis.iter().filter(|&&b| b).count();
        if in_mis[0] {
            assert_eq!(count, 1);
        } else {
            assert_eq!(count, 19);
        }
    }
}
