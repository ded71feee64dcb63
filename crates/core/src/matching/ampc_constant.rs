//! The O(1)-round AMPC maximal matching (Theorem 2 part 2, §4.2, §5.4).
//!
//! Mirrors the production pipeline of §5.4:
//!
//! 1. **PermuteGraph** (1 shuffle): each vertex's neighbor list sorted by
//!    the random *edge* priorities (*"the graph stored in the key-value
//!    store does not direct the edges, but instead sorts the edges based
//!    on random priorities assigned to each edge"*).
//! 2. **KV-Write**: store the edge-sorted adjacency in the DHT.
//! 3. **IsInMM** (KV round): from every vertex run the *vertex query
//!    process* of §4.2 — iterate the incident edges in increasing rank
//!    and run the Yoshida-style edge process for each; stop at the first
//!    matched edge. The per-vertex cache stores exactly the three states
//!    of §5.4: *"the matched neighbor, the highest priority neighbor
//!    that is finished, or … not searched yet."*
//!
//! The n^ε-truncated multi-round variant (Lemma 4.7: O(1/ε) rounds of
//! truncated vertex processes empty the graph) is the `truncated` flag of
//! [`ampc_matching_in_job`] (registry row `mm/truncated`); the untruncated
//! single round is the practical default, as in the paper.

use crate::prim::{ranked_adjacency, FlatAdjacency};
use crate::priorities::{edge_key, edge_rank, Rank};
use ampc_dht::cache::DenseCache;
use ampc_dht::hasher::FxHashMap;
use ampc_dht::store::{Dht, GenerationWriter};
use ampc_graph::{CsrGraph, NodeId, NO_NODE};
use ampc_runtime::driver::AdaptiveRounds;
use ampc_runtime::executor::MachineCtx;
use ampc_runtime::Job;

/// Per-vertex cache state (§5.4's three-valued cache).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VState {
    /// Matched with the given neighbor.
    Matched(NodeId),
    /// Vertex process finished: no incident edge is in the matching.
    Unmatched,
    /// All incident edges with rank ≤ the edge to this neighbor are
    /// known to be out of the matching.
    FinishedUpTo(NodeId),
}

/// PermuteGraph's host-side work: every vertex's neighbors, sorted by
/// edge rank.
///
/// The sort key is the rank's hash alone: for a fixed `v`,
/// `edge_key(v, u)` grows with `u`, so the builder's tie-break by
/// neighbor id is the rank pair's tie-break by edge key.
pub fn permute_graph(g: &CsrGraph, seed: u64, threads: usize) -> FlatAdjacency {
    ranked_adjacency(g, |v, u| edge_rank(seed, v, u).0, threads)
}

/// The kernel body: AMPC maximal matching inside a caller-provided
/// [`Job`], returning the partner array. Caching follows
/// `job.config().caching`; `truncated` runs the `n^ε`-truncated
/// multi-round vertex process (registry row `mm/truncated`).
///
/// ```
/// use ampc_core::{matching, validate};
/// use ampc_runtime::{driver::drive, AmpcConfig};
///
/// let g = ampc_graph::gen::erdos_renyi(80, 200, 3);
/// let cfg = AmpcConfig::for_tests();
/// let out = drive(&cfg, |job| matching::ampc_matching_in_job(job, &g, false));
/// let pairs = matching::pairs_from_partners(&out.output);
/// assert!(validate::is_maximal_matching(&g, &pairs));
/// ```
pub fn ampc_matching_in_job(job: &mut Job, g: &CsrGraph, truncated: bool) -> Vec<NodeId> {
    let cfg = *job.config();
    let caching = cfg.caching;
    let n = g.num_nodes();
    let seed = cfg.seed;

    // ----------------------------------------------------- PermuteGraph
    // Host-side only vertex ids move; the simulated shuffle
    // redistributes the full record (id + length-prefixed list).
    let permuted = permute_graph(g, seed, cfg.threads);
    let buckets = job.shuffle_by_key_measured(
        "PermuteGraph",
        g.nodes().collect(),
        |&v| v as u64,
        |&v| 12 + 4 * permuted.list(v).len() as u64,
    );

    // --------------------------------------------------------- KV-Write
    let mut dht: Dht<Vec<NodeId>> = Dht::new();
    let writer = GenerationWriter::new();
    job.kv_round_chunked(
        "KV-Write",
        dht.current(),
        Some(&writer),
        &buckets,
        |ctx, items: &[NodeId]| {
            // Independent writes share one accounted round trip (§5.3).
            ctx.handle
                .put_many(items.iter().map(|&v| (v as u64, permuted.list(v).to_vec())));
            Vec::<()>::new()
        },
    );
    // Freed before the seal allocates the generation it was copied into.
    drop(permuted);
    dht.push(writer.seal());

    // ----------------------------------------------------------- IsInMM
    // resolved: 0 = unknown, 1 = matched (partner in `partner`), 2 = unmatched.
    let mut resolved = vec![0u8; n];
    let mut partner = vec![NO_NODE; n];
    let mut pending: Vec<NodeId> = (0..n as NodeId).collect();
    let mut rounds = AdaptiveRounds::new(if truncated {
        cfg.search_budget(n)
    } else {
        u64::MAX
    });
    while !pending.is_empty() {
        let budget = rounds.begin("IsInMM");
        let resolved_ro = &resolved;
        let partner_ro = &partner;
        let handle_budget = rounds.handle_budget(pending.len());
        let outputs: Vec<(NodeId, Option<NodeId>)> = job.kv_round_budgeted(
            &rounds.stage_name("IsInMM"),
            dht.current(),
            None,
            pending.clone(),
            handle_budget,
            |ctx, items| {
                let mut m = Machine {
                    seed,
                    vcache: if caching {
                        DenseCache::unbounded(n)
                    } else {
                        DenseCache::disabled()
                    },
                    ecache: FxHashMap::default(),
                    caching,
                    resolved: resolved_ro,
                    partner: partner_ro,
                };
                // §5.3 batching: the chunk's root adjacency fetches are
                // independent, so they share one accounted round trip;
                // each vertex process's adaptive interior stays
                // single-key. Keys batch in the machine's scratch
                // arena, results borrowed from the sealed generation.
                ctx.scratch.keys.clear();
                ctx.scratch.keys.extend(items.iter().map(|&v| v as u64));
                let mut roots = Vec::with_capacity(items.len());
                ctx.handle.get_many_into(&ctx.scratch.keys, &mut roots);
                items
                    .iter()
                    .zip(roots)
                    .map(|(&v, root)| {
                        let root = root.map(|l| l.as_slice()).unwrap_or(&[]);
                        (v, m.vertex_process(v, root, ctx, budget))
                    })
                    .collect()
            },
        );
        pending.clear();
        for (v, st) in outputs {
            match st {
                Some(u) if u == NO_NODE => resolved[v as usize] = 2,
                Some(u) => {
                    resolved[v as usize] = 1;
                    partner[v as usize] = u;
                }
                None => pending.push(v),
            }
        }
        // Cross-check symmetry of what we committed so far: a matched
        // partner must agree or still be pending resolution.
        if !pending.is_empty() {
            rounds.escalate(cfg.search_budget(n));
        }
    }

    // Symmetrize: both endpoints of a matched edge independently computed
    // the same lex-first matching, so their partners must agree.
    for v in 0..n as NodeId {
        let p = partner[v as usize];
        if p != NO_NODE {
            debug_assert_eq!(partner[p as usize], v, "asymmetric matching at {v}");
        }
    }

    partner
}

/// Machine-local state for the IsInMM round.
struct Machine<'r> {
    seed: u64,
    vcache: DenseCache<VState>,
    ecache: FxHashMap<u64, bool>,
    caching: bool,
    resolved: &'r [u8],
    partner: &'r [NodeId],
}

impl<'r> Machine<'r> {
    /// Globally-known vertex state (from previous rounds) or the cache.
    fn vstate(&self, x: NodeId) -> Option<VState> {
        match self.resolved[x as usize] {
            1 => return Some(VState::Matched(self.partner[x as usize])),
            2 => return Some(VState::Unmatched),
            _ => {}
        }
        self.vcache.get(x as u64).copied()
    }

    fn set_vstate(&mut self, x: NodeId, s: VState) {
        if self.caching {
            self.vcache.put(x as u64, s);
        }
    }

    /// Quick edge status from vertex states alone.
    fn edge_shortcut(&self, a: NodeId, b: NodeId, rank: Rank) -> Option<bool> {
        for (x, y) in [(a, b), (b, a)] {
            match self.vstate(x) {
                Some(VState::Matched(z)) => return Some(z == y),
                Some(VState::Unmatched) => return Some(false),
                Some(VState::FinishedUpTo(z)) if rank <= edge_rank(self.seed, x, z) => {
                    return Some(false);
                }
                _ => {}
            }
        }
        self.ecache.get(&edge_key(a, b)).copied()
    }

    /// The vertex query process (§4.2): scan `v`'s incident edges in
    /// increasing rank, deciding each with the edge process; stop at the
    /// first matched edge. `root` is `v`'s adjacency, prefetched by the
    /// machine's batched round-start lookup (charged as this process's
    /// first query). Returns the partner, `NO_NODE` for unmatched, or
    /// `None` if truncated by `budget`.
    fn vertex_process<'a>(
        &mut self,
        v: NodeId,
        root: &'a [NodeId],
        ctx: &mut MachineCtx<'a, Vec<NodeId>>,
        budget: u64,
    ) -> Option<NodeId> {
        match self.vstate(v) {
            Some(VState::Matched(u)) => {
                ctx.handle.note_cache_hit();
                return Some(u);
            }
            Some(VState::Unmatched) => {
                ctx.handle.note_cache_hit();
                return Some(NO_NODE);
            }
            _ => {}
        }
        let mut queries = 1u64; // the prefetched root list
                                // Lists fetched during this vertex process are kept in machine
                                // RAM and never re-requested (the natural implementation of
                                // §5.4's "iteratively query edges incident to each vertex").
        let mut lists: FxHashMap<NodeId, &'a [NodeId]> = FxHashMap::default();
        lists.insert(v, root);
        let nbrs = root;
        if nbrs.is_empty() {
            return Some(NO_NODE); // isolated vertex
        }
        for &u in nbrs {
            match self.edge_process(v, u, ctx, budget, &mut queries, &mut lists) {
                None => return None, // truncated
                Some(true) => {
                    self.set_vstate(v, VState::Matched(u));
                    self.set_vstate(u, VState::Matched(v));
                    return Some(u);
                }
                Some(false) => {
                    self.set_vstate(v, VState::FinishedUpTo(u));
                }
            }
        }
        self.set_vstate(v, VState::Unmatched);
        Some(NO_NODE)
    }

    /// Fetches `v`'s adjacency, reusing anything this vertex process
    /// already read (a local-RAM hit, not a new network query).
    fn fetch<'a>(
        &mut self,
        v: NodeId,
        ctx: &mut MachineCtx<'a, Vec<NodeId>>,
        queries: &mut u64,
        lists: &mut FxHashMap<NodeId, &'a [NodeId]>,
    ) -> &'a [NodeId] {
        if let Some(&l) = lists.get(&v) {
            ctx.handle.note_cache_hit();
            return l;
        }
        *queries += 1;
        let l = ctx
            .handle
            // Adaptive edge opening, not a missed batch (the edge query
            // process of §4.2): which endpoint is fetched next depends
            // on the verdicts already read; capped by `queries` against the budget.
            .get(v as u64)
            .map(|l| l.as_slice())
            .unwrap_or(&[]);
        lists.insert(v, l);
        l
    }

    /// The edge query process of Yoshida et al. (§4.2), iterative: edge
    /// `e` is matched iff every incident edge of lower rank is not.
    #[allow(
        clippy::too_many_arguments,
        reason = "one search's state, threaded through by the caller"
    )]
    fn edge_process<'a>(
        &mut self,
        a: NodeId,
        b: NodeId,
        ctx: &mut MachineCtx<'a, Vec<NodeId>>,
        budget: u64,
        queries: &mut u64,
        lists: &mut FxHashMap<NodeId, &'a [NodeId]>,
    ) -> Option<bool> {
        if let Some(s) = self.edge_shortcut(a, b, edge_rank(self.seed, a, b)) {
            ctx.handle.note_cache_hit();
            return Some(s);
        }
        // Frame: edge (a, b) with rank, endpoint adjacency slices + cursors.
        struct Frame<'a> {
            a: NodeId,
            b: NodeId,
            rank: Rank,
            la: &'a [NodeId],
            lb: &'a [NodeId],
            ia: usize,
            ib: usize,
        }
        // Local per-evaluation memo when the shared cache is off (the DFS
        // still needs its own bookkeeping to terminate efficiently).
        let mut local: FxHashMap<u64, bool> = FxHashMap::default();
        let mut stack: Vec<Frame<'a>> = Vec::new();
        let open = |m: &mut Self,
                    x: NodeId,
                    y: NodeId,
                    ctx: &mut MachineCtx<'a, Vec<NodeId>>,
                    queries: &mut u64,
                    lists: &mut FxHashMap<NodeId, &'a [NodeId]>|
         -> Option<Frame<'a>> {
            if *queries + 2 > budget {
                return None;
            }
            let la = m.fetch(x, ctx, queries, lists);
            let lb = m.fetch(y, ctx, queries, lists);
            Some(Frame {
                a: x,
                b: y,
                rank: edge_rank(m.seed, x, y),
                la,
                lb,
                ia: 0,
                ib: 0,
            })
        };
        let root = open(self, a, b, ctx, queries, lists)?;
        stack.push(root);

        let mut truncated = false;
        'outer: while let Some(f) = stack.last_mut() {
            ctx.add_ops(1);
            // Merge-scan the two sorted incident lists for the next
            // lower-rank incident edge whose status is unknown.
            loop {
                // Candidate from side a / side b.
                let ra =
                    f.la.get(f.ia)
                        .map(|&u| (edge_rank(self.seed, f.a, u), f.a, u));
                let rb =
                    f.lb.get(f.ib)
                        .map(|&u| (edge_rank(self.seed, f.b, u), f.b, u));
                let (rank, x, y, from_a) = match (ra, rb) {
                    (Some(p), Some(q)) => {
                        if p.0 <= q.0 {
                            (p.0, p.1, p.2, true)
                        } else {
                            (q.0, q.1, q.2, false)
                        }
                    }
                    (Some(p), None) => (p.0, p.1, p.2, true),
                    (None, Some(q)) => (q.0, q.1, q.2, false),
                    (None, None) => {
                        // No incident edge below our rank is matched.
                        let (fa, fb, key) = (f.a, f.b, edge_key(f.a, f.b));
                        if self.caching {
                            self.ecache.insert(key, true);
                        } else {
                            local.insert(key, true);
                        }
                        self.set_vstate(fa, VState::Matched(fb));
                        self.set_vstate(fb, VState::Matched(fa));
                        stack.pop();
                        continue 'outer;
                    }
                };
                if rank >= f.rank {
                    // Sorted lists: nothing below our rank remains.
                    f.ia = f.la.len();
                    f.ib = f.lb.len();
                    continue;
                }
                // Known status?
                let known = self
                    .edge_shortcut(x, y, rank)
                    .or_else(|| local.get(&edge_key(x, y)).copied());
                match known {
                    Some(true) => {
                        // A lower-rank incident edge is matched: (a,b) out.
                        let key = edge_key(f.a, f.b);
                        if self.caching {
                            self.ecache.insert(key, false);
                        } else {
                            local.insert(key, false);
                        }
                        stack.pop();
                        continue 'outer;
                    }
                    Some(false) => {
                        if from_a {
                            f.ia += 1;
                        } else {
                            f.ib += 1;
                        }
                        continue;
                    }
                    None => {
                        // Recurse into (x, y).
                        match open(self, x, y, ctx, queries, lists) {
                            Some(child) => {
                                stack.push(child);
                                continue 'outer;
                            }
                            None => {
                                truncated = true;
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        if truncated {
            return None;
        }
        // The root edge's status is now recorded.
        self.edge_shortcut(a, b, edge_rank(self.seed, a, b))
            .or_else(|| local.get(&edge_key(a, b)).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::greedy::greedy_matching;
    use crate::matching::pairs_from_partners;
    use crate::validate;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    fn run(g: &CsrGraph, c: &AmpcConfig, truncated: bool) -> Driven<Vec<NodeId>> {
        drive(c, |job| ampc_matching_in_job(job, g, truncated))
    }

    #[test]
    fn matches_greedy_on_small_graphs() {
        for seed in 0..8 {
            let g = gen::erdos_renyi(100, 280, seed);
            let c = cfg().with_seed(seed * 31 + 2);
            let partner = run(&g, &c, false).output;
            assert!(validate::is_maximal_matching(
                &g,
                &pairs_from_partners(&partner)
            ));
            assert_eq!(partner, greedy_matching(&g, c.seed), "seed {seed}");
        }
    }

    #[test]
    fn matches_greedy_on_skewed_graph() {
        let g = gen::rmat(9, 5_000, gen::RmatParams::SOCIAL, 7);
        let c = cfg();
        assert_eq!(run(&g, &c, false).output, greedy_matching(&g, c.seed));
    }

    #[test]
    fn single_shuffle_like_table3() {
        let g = gen::erdos_renyi(80, 200, 1);
        assert_eq!(run(&g, &cfg(), false).report.num_shuffles(), 1);
    }

    #[test]
    fn truncated_variant_converges() {
        let g = gen::erdos_renyi(150, 500, 3);
        let c = cfg().with_caching(true);
        assert_eq!(run(&g, &c, true).output, greedy_matching(&g, c.seed));
    }

    #[test]
    fn no_cache_still_correct() {
        let g = gen::erdos_renyi(80, 240, 5);
        let cached = run(&g, &cfg().with_caching(true), false);
        let uncached = run(&g, &cfg().with_caching(false), false);
        assert_eq!(cached.output, uncached.output);
        assert!(
            uncached.report.kv_comm().queries > cached.report.kv_comm().queries,
            "cache should reduce queries"
        );
    }

    #[test]
    fn deterministic_across_machine_counts() {
        let g = gen::erdos_renyi(120, 420, 8);
        let a = run(&g, &cfg().with_machines(2), false);
        let b = run(&g, &cfg().with_machines(9), false);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn empty_and_single_edge() {
        let g = CsrGraph::empty(4);
        assert!(run(&g, &cfg(), false).output.iter().all(|&p| p == NO_NODE));

        let g = ampc_graph::GraphBuilder::new(2).add_edge(0, 1).build();
        assert_eq!(run(&g, &cfg(), false).output, vec![1, 0]);
    }
}
