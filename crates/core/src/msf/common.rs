//! Shared MSF machinery: strict edge ordering, provenance through
//! contractions, and the Prim-search + contraction round of §5.5.
//!
//! **Strict ordering.** Prim's cut-property argument (and the
//! edge-by-edge comparability of results across implementations) needs
//! distinct weights. [`distinctify`] replaces weights by their dense
//! rank under the total order `(w, canonical endpoints)` — an
//! order-preserving, collision-free relabeling; original weights are
//! restored on output.
//!
//! **Provenance.** Contraction relabels endpoints, but emitted MSF edges
//! must be reported in *original* ids. A [`ProvEdge`] carries both.
//!
//! **The round.** [`prim_contract_round`] implements one pass of the
//! §5.5 pipeline over the current (possibly contracted) edge set:
//! SortGraph shuffle → KV-Write → truncated Prim searches (Algorithm 1's
//! three stopping rules) → Combine shuffle (best visitor per visited
//! vertex) → pointer-jump map construction + KV pointer jumping →
//! contraction (two shuffles), exactly the stage structure whose costs
//! Figure 7 breaks down and whose shuffle count Table 3 reports as 5.
//!
//! **What the host pays for** (DESIGN.md §11). The round takes its edges
//! strictly ascending in `w` and never sorts. SortGraph's records are one
//! flat arc table, filled stably so every list is weight-sorted, and
//! `KV-Write` copies each list out once. A search keeps one cursor per
//! *expanded* list (`Frontier`) and so pays per arc it pops, not per
//! arc its vertices own; its pop sequence — and with it every op, query
//! and byte charged — is that of a heap holding every arc. Contract is
//! a striped pass over the weight-ordered edges: the keyed shuffle is
//! metered from per-machine loads, nothing is moved, and of a contracted
//! pair the edge with the smallest index, its lightest, survives.

use crate::prim::{edge_ordered_adjacency, PAR_MIN};
use crate::priorities::{edge_key, node_rank};
use ampc_dht::cache::DenseCache;
use ampc_dht::hasher::{FxHashMap, FxHashSet};
use ampc_dht::measured::Measured;
use ampc_dht::store::{Dht, GenerationWriter};
use ampc_graph::stripes::stripe_bounds;
use ampc_graph::{NodeId, Weight, WeightedCsrGraph, WeightedEdge, NO_NODE};
use ampc_runtime::pool::run_tasks;
use ampc_runtime::Job;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An edge at some contraction level: current endpoints plus the
/// original edge it descends from. `w` is the *internal* strict weight
/// (a dense rank, see [`distinctify`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProvEdge {
    /// Current-level endpoint.
    pub u: NodeId,
    /// Current-level endpoint.
    pub v: NodeId,
    /// Internal strict weight (dense rank over the original edges).
    pub w: u64,
    /// Original endpoint.
    pub ou: NodeId,
    /// Original endpoint.
    pub ov: NodeId,
}

impl Measured for ProvEdge {
    fn size_bytes(&self) -> usize {
        4 + 4 + 8 + 4 + 4
    }
}

/// The strictly-ordered view of an input graph.
#[derive(Clone, Debug)]
pub struct Distinct {
    /// Every edge as a level-0 [`ProvEdge`] (`u = ou`, `v = ov`).
    pub edges: Vec<ProvEdge>,
    /// `orig_w[w_internal]` = original weight of that edge.
    pub orig_w: Vec<Weight>,
    /// `orig_pair[w_internal]` = original canonical endpoints.
    pub orig_pair: Vec<(NodeId, NodeId)>,
    /// Vertex count.
    pub n: usize,
}

/// Replaces weights by dense ranks under `(w, canonical endpoints)`.
pub fn distinctify(g: &WeightedCsrGraph) -> Distinct {
    let mut sorted: Vec<WeightedEdge> = g.edge_vec();
    sorted.sort_unstable(); // by (w, endpoints) — WeightedEdge::key
    let mut edges = Vec::with_capacity(sorted.len());
    let mut orig_w = Vec::with_capacity(sorted.len());
    let mut orig_pair = Vec::with_capacity(sorted.len());
    for (i, e) in sorted.iter().enumerate() {
        edges.push(ProvEdge {
            u: e.u,
            v: e.v,
            w: i as u64,
            ou: e.u,
            ov: e.v,
        });
        orig_w.push(e.w);
        orig_pair.push((e.u.min(e.v), e.u.max(e.v)));
    }
    Distinct {
        edges,
        orig_w,
        orig_pair,
        n: g.num_nodes(),
    }
}

impl Distinct {
    /// Maps a set of internal weights back to original weighted edges,
    /// sorted.
    pub fn restore(&self, internal: impl IntoIterator<Item = u64>) -> Vec<WeightedEdge> {
        let mut out: Vec<WeightedEdge> = internal
            .into_iter()
            .map(|w| {
                let (u, v) = self.orig_pair[w as usize];
                WeightedEdge::new(u, v, self.orig_w[w as usize])
            })
            .collect();
        out.sort_unstable_by_key(|e| e.key());
        out
    }
}

/// Output of one Prim + contraction round.
pub struct PrimRoundResult {
    /// Internal weights of the MSF edges discovered this round.
    pub msf_internal: Vec<u64>,
    /// The contracted edge set (parallel edges keep the lightest copy).
    pub next_edges: Vec<ProvEdge>,
    /// Vertex count of the contracted graph.
    pub next_n: usize,
    /// Current-level vertex → its contraction root (current-level id).
    pub root_of: Vec<NodeId>,
    /// Current-level vertex → next-level compacted id, or [`NO_NODE`] if
    /// its class became isolated (fully-resolved component) and was
    /// dropped, as in Algorithm 1 line 14.
    pub next_id: Vec<NodeId>,
}

/// Adjacency value stored in the DHT for the Prim round: `(neighbor,
/// internal weight)` sorted by weight.
type Adj = Vec<(NodeId, u64)>;

/// The two [`Adj`] entries an edge contributes, each with its owner.
fn adjacency_arcs(e: &ProvEdge) -> [(NodeId, (NodeId, u64)); 2] {
    [(e.u, (e.v, e.w)), (e.v, (e.u, e.w))]
}

/// Per-search output: discovered MSF edges + visited vertices.
struct SearchOut {
    origin: NodeId,
    msf: Vec<u64>,
    visited: Vec<NodeId>,
}

/// Panics unless `edges` is strictly ascending in `w`: the order every
/// weight-sorted list, every first-wins dedup and the in-memory Kruskal
/// finish take from their input instead of re-sorting.
pub(crate) fn assert_strictly_ascending(edges: &[ProvEdge]) {
    assert!(
        edges.windows(2).all(|pair| pair[0].w < pair[1].w),
        "edges must be strictly ascending in their internal weight"
    );
}

/// Runs one §5.5 round over `edges` on `n` current-level vertices.
///
/// `budget` is Algorithm 1's exploration bound (`n^{ε/2}` vertices per
/// search); `salt` decorrelates the per-round vertex permutation.
///
/// # Panics
/// `edges` must be **strictly ascending in `w`** (what [`distinctify`],
/// an index weight, and a previous round's `next_edges` all are). The
/// round never sorts: the stable fill leaves every adjacency list
/// weight-sorted and Contract keeps the first edge of a contracted pair
/// as its lightest only under that order, so any other input panics
/// rather than yield a wrong forest.
pub fn prim_contract_round(
    job: &mut Job,
    n: usize,
    edges: &[ProvEdge],
    tag: &str,
    budget: u64,
    salt: u64,
) -> PrimRoundResult {
    assert_strictly_ascending(edges);
    let seed = job.config().seed ^ salt;

    // ------------------------------------------------ SortGraph shuffle
    // Per vertex: its `(neighbor, weight)` arcs, lightest first — a
    // stable fill of the weight-ordered edges. Host-side only vertex ids
    // move; the simulated shuffle redistributes the full record (id +
    // length-prefixed list of 12-byte arcs).
    let sorted = edge_ordered_adjacency(n, edges, adjacency_arcs, job.config().threads);
    let buckets = job.shuffle_by_key_measured(
        &format!("SortGraph{tag}"),
        (0..n as NodeId).collect(),
        |&v| v as u64,
        |&v| 12 + 12 * sorted.list(v).len() as u64,
    );

    // --------------------------------------------------------- KV-Write
    let mut dht: Dht<Adj> = Dht::new();
    let writer = GenerationWriter::new();
    job.kv_round_chunked(
        &format!("KV-Write{tag}"),
        dht.current(),
        Some(&writer),
        &buckets,
        |ctx, items: &[NodeId]| {
            // Independent writes share one accounted round trip (§5.3).
            ctx.handle
                .put_many(items.iter().map(|&v| (v as u64, sorted.list(v).to_vec())));
            Vec::<()>::new()
        },
    );
    // Freed before the seal allocates the generation it was copied into.
    drop(sorted);
    dht.push(writer.seal());

    // ------------------------------------------------------- PrimSearch
    let searches: Vec<SearchOut> = job.kv_round(
        &format!("PrimSearch{tag}"),
        dht.current(),
        None,
        (0..n as NodeId).collect(),
        |ctx, items| {
            // §5.3 batching: every search unconditionally expands its
            // own origin first, so those lookups are independent and
            // share one round trip; the adaptive frontier expansions
            // stay single-key. Keys batch in the machine's scratch
            // arena, results borrowed from the sealed generation.
            ctx.scratch.keys.clear();
            ctx.scratch.keys.extend(items.iter().map(|&v| v as u64));
            let mut roots = Vec::with_capacity(items.len());
            ctx.handle.get_many_into(&ctx.scratch.keys, &mut roots);
            items
                .iter()
                .zip(roots)
                .map(|(&v, root)| prim_search(v, root, ctx, seed, budget))
                .collect()
        },
    );

    // ---------------------------------------------------------- Combine
    // Tuples (child, candidate parent): the lower-rank endpoint of every
    // (searcher, visited) relation parents the higher-rank one.
    let mut msf_internal: FxHashSet<u64> = FxHashSet::default();
    let mut tuples: Vec<(NodeId, NodeId)> = Vec::new();
    for s in &searches {
        for &w in &s.msf {
            msf_internal.insert(w);
        }
        let rv = node_rank(seed, s.origin);
        for &t in &s.visited {
            if node_rank(seed, t) < rv {
                tuples.push((s.origin, t));
            } else {
                tuples.push((t, s.origin));
            }
        }
    }
    let grouped = job.shuffle_by_key(&format!("Combine{tag}"), tuples, |t| t.0 as u64);
    let mut parent: Vec<NodeId> = (0..n as NodeId).collect();
    for bucket in grouped {
        for (child, cand) in bucket {
            let cur = parent[child as usize];
            if cur == child || node_rank(seed, cand) < node_rank(seed, cur) {
                parent[child as usize] = cand;
            }
        }
    }

    // ------------------------------------- PointerJumpConstruct shuffle
    job.shuffle_balanced(&format!("PointerJumpConstruct{tag}"), n as u64 * 8);
    let mut pj_dht: Dht<NodeId> = Dht::new();
    let pj_writer = GenerationWriter::new();
    {
        let parent_ref = &parent;
        job.kv_round(
            &format!("PJ-Write{tag}"),
            pj_dht.current(),
            Some(&pj_writer),
            (0..n as NodeId).collect(),
            |ctx, items| {
                // Independent writes share one round trip (§5.3).
                ctx.handle
                    .put_many(items.iter().map(|&v| (v as u64, parent_ref[v as usize])));
                Vec::<()>::new()
            },
        );
    }
    pj_dht.push(pj_writer.seal());

    // ------------------------------------------------------ PointerJump
    let root_of: Vec<NodeId> = job.kv_round(
        &format!("PointerJump{tag}"),
        pj_dht.current(),
        None,
        (0..n as NodeId).collect(),
        |ctx, items| {
            let mut cache: DenseCache<NodeId> = DenseCache::unbounded(n);
            let mut path = Vec::new();
            items
                .iter()
                .map(|&v| {
                    path.clear();
                    let mut x = v;
                    let root = loop {
                        if let Some(&r) = cache.get(x as u64) {
                            ctx.handle.note_cache_hit();
                            break r;
                        }
                        // Adaptive pointer-chase, not a missed batch: each
                        // parent lookup depends on the value of the previous hop, so there is
                        // no independent batch to issue; this is the model's defining adaptive
                        // query (paper §4), budgeted per round by the handle.
                        let p = *ctx.handle.get(x as u64).expect("parent entry");
                        if p == x {
                            break x;
                        }
                        path.push(x);
                        x = p;
                    };
                    for &y in &path {
                        cache.put(y as u64, root);
                    }
                    cache.put(v as u64, root);
                    root
                })
                .collect()
        },
    );

    // -------------------------------------------- Contract (2 shuffles)
    // A component-crossing edge is a 24-byte record of the keyed shuffle
    // (metered, not moved); of a contracted pair only the first edge in
    // weight order, its lightest, survives, endpoints still root ids.
    let (machines, threads) = (job.config().num_machines, job.config().threads);
    let mut next_edges: Vec<ProvEdge> = Vec::new();
    job.shuffle_by_key_metered(&format!("Contract{tag}"), |machine_of| {
        let (kept, loads) = contract(edges, &root_of, machine_of, machines, threads);
        next_edges = kept;
        loads
    });
    // Compact surviving class ids (roots with at least one edge survive;
    // isolated classes are dropped — their components are fully solved).
    let mut has_edge = vec![false; n];
    for e in &next_edges {
        has_edge[e.u as usize] = true;
        has_edge[e.v as usize] = true;
    }
    let mut next_id = vec![NO_NODE; n];
    let mut next_n = 0 as NodeId;
    for r in 0..n as NodeId {
        if root_of[r as usize] == r && has_edge[r as usize] {
            next_id[r as usize] = next_n;
            next_n += 1;
        }
    }
    for v in 0..n {
        let r = root_of[v];
        next_id[v] = next_id[r as usize];
    }
    for e in &mut next_edges {
        e.u = next_id[e.u as usize];
        e.v = next_id[e.v as usize];
    }
    job.shuffle_balanced(
        &format!("Rebuild{tag}"),
        next_edges.iter().map(|e| e.size_bytes() as u64).sum(),
    );

    let mut msf_internal: Vec<u64> = msf_internal.into_iter().collect();
    msf_internal.sort_unstable();
    PrimRoundResult {
        msf_internal,
        next_edges,
        next_n: next_n as usize,
        root_of,
        next_id,
    }
}

/// A root pair `(min, max)` mapped to the index of its first edge and
/// the bytes of all its edges.
type PairEdges = FxHashMap<(NodeId, NodeId), (usize, u64)>;

/// Contract's host pass, striped (DESIGN.md §11): of the edges crossing
/// classes of `root_of`, the first of every root pair in edge order,
/// relabelled to the pair and still in edge order, and every machine's
/// byte load when each crossing edge is a record keyed by its pair.
///
/// Every stripe of the edges maps each pair it meets to its first index
/// there and the bytes of its edges there; the merge keeps the smallest
/// index of every pair and sums its bytes. Both equal the one-pass
/// result for every `threads`. A pair's records all land on the machine
/// of its key, so the loads are summed per pair and placed once per
/// pair. Pairs are keyed as pairs, not by their `edge_key`: the
/// multiplicative hasher takes a table slot from the key's low bits,
/// which are the larger root alone, and a few thousand roots would
/// share a few thousand slots among all pairs.
fn contract(
    edges: &[ProvEdge],
    root_of: &[NodeId],
    machine_of: &(dyn Fn(u64) -> usize + Sync),
    machines: usize,
    threads: usize,
) -> (Vec<ProvEdge>, Vec<u64>) {
    let parts = if edges.len() < PAR_MIN { 1 } else { threads };
    let stripes = stripe_bounds(edges.len(), parts);
    let mut found: Vec<PairEdges> = stripes.iter().map(|_| PairEdges::default()).collect();
    {
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = stripes
            .into_iter()
            .zip(found.iter_mut())
            .map(|(r, pairs)| {
                Box::new(move || {
                    for (i, e) in edges[r.clone()].iter().enumerate() {
                        let (ru, rv) = (root_of[e.u as usize], root_of[e.v as usize]);
                        if ru != rv {
                            let pair = (ru.min(rv), ru.max(rv));
                            pairs.entry(pair).or_insert((r.start + i, 0)).1 +=
                                e.size_bytes() as u64;
                        }
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        run_tasks(tasks, threads);
    }
    let mut found = found.into_iter();
    let mut pairs = found.next().unwrap_or_default();
    for later in found {
        for (pair, (i, bytes)) in later {
            let at = pairs.entry(pair).or_insert((i, 0));
            at.0 = at.0.min(i);
            at.1 += bytes;
        }
    }
    let mut loads = vec![0; machines];
    let mut kept: Vec<(usize, (NodeId, NodeId))> = Vec::with_capacity(pairs.len());
    for ((u, v), (i, bytes)) in pairs {
        loads[machine_of(edge_key(u, v))] += bytes;
        kept.push((i, (u, v)));
    }
    kept.sort_unstable();
    let kept = kept
        .into_iter()
        .map(|(i, (u, v))| ProvEdge { u, v, ..edges[i] })
        .collect();
    (kept, loads)
}

/// The one-pass Contract [`contract`] replaced, kept as the oracle it is
/// tested against: a hash set of the pairs seen so far, in edge order.
/// Returns the kept edges and every crossing edge's `(key, bytes)`.
#[cfg(test)]
fn contract_oracle(edges: &[ProvEdge], root_of: &[NodeId]) -> (Vec<ProvEdge>, Vec<(u64, u64)>) {
    let mut seen: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
    let (mut kept, mut records) = (Vec::new(), Vec::new());
    for e in edges {
        let (ru, rv) = (root_of[e.u as usize], root_of[e.v as usize]);
        if ru == rv {
            continue;
        }
        let (u, v) = (ru.min(rv), ru.max(rv));
        if seen.insert((u, v)) {
            kept.push(ProvEdge { u, v, ..*e });
        }
        records.push((edge_key(u, v), e.size_bytes() as u64));
    }
    (kept, records)
}

/// The lightest-edge frontier of one Prim search: a k-way merge over
/// the weight-sorted adjacency lists of the vertices expanded so far,
/// one cursor per list. Only each list's next unread arc sits in the
/// heap, so a search pays for the arcs it pops, not for the degree of
/// what it touches; the lists stay where they are, borrowed from the
/// sealed generation. Lists ascend in `w` and weights are strict, so the
/// heads' minimum is the minimum over every unread arc: the pop sequence
/// is exactly that of a heap holding all of them.
#[derive(Default)]
struct Frontier<'a> {
    lists: Vec<&'a [(NodeId, u64)]>,
    /// `(w, target, list, position)`: `(w, target)` decides, as in the
    /// push-all heap — the two copies of an edge whose endpoints are
    /// both expanded pop smaller target first.
    heads: BinaryHeap<Reverse<(u64, NodeId, u32, u32)>>,
}

impl<'a> Frontier<'a> {
    /// Adds an expanded vertex's list (absent or empty: nothing to add).
    fn open(&mut self, adj: Option<&'a Adj>) {
        let Some(adj) = adj else { return };
        if let Some(&(t, w)) = adj.first() {
            self.heads.push(Reverse((w, t, self.lists.len() as u32, 0)));
            self.lists.push(adj);
        }
    }

    /// Removes the lightest unread arc, as `(w, target)`.
    fn pop(&mut self) -> Option<(u64, NodeId)> {
        let Reverse((w, t, list, pos)) = self.heads.pop()?;
        if let Some(&(next_t, next_w)) = self.lists[list as usize].get(pos as usize + 1) {
            self.heads.push(Reverse((next_w, next_t, list, pos + 1)));
        }
        Some((w, t))
    }
}

/// Algorithm 1's truncated Prim search from `v`. The origin's adjacency
/// arrives prefetched (`root`) from the machine's batched round-start
/// lookup; frontier expansions are adaptive and stay single-key.
fn prim_search<'a>(
    v: NodeId,
    root: Option<&'a Adj>,
    ctx: &mut ampc_runtime::executor::MachineCtx<'a, Adj>,
    seed: u64,
    budget: u64,
) -> SearchOut {
    let rv = node_rank(seed, v);
    let mut visited: FxHashSet<NodeId> = FxHashSet::default();
    visited.insert(v);
    let mut msf = Vec::new();
    let mut frontier = Frontier::default();
    frontier.open(root);

    loop {
        // Stopping condition (1): explored n^{ε/2} vertices.
        if visited.len() as u64 >= budget {
            break;
        }
        // Next lightest edge leaving the tree.
        let Some((w, t)) = frontier.pop() else {
            break; // (2) component fully explored
        };
        ctx.add_ops(1);
        if !visited.insert(t) {
            continue;
        }
        // Cut property: this edge is in the MSF.
        msf.push(w);
        // Stopping condition (3): reached an earlier-in-π vertex.
        if node_rank(seed, t) < rv {
            break;
        }
        // Adaptive Prim search frontier, not a missed batch: the next
        // adjacency fetched depends on the heap top.
        frontier.open(ctx.handle.get(t as u64));
    }
    visited.remove(&v);
    let mut visited: Vec<NodeId> = visited.into_iter().collect();
    visited.sort_unstable();
    SearchOut {
        origin: v,
        msf,
        visited,
    }
}

/// The push-all formulation [`prim_search`] replaced, kept as the oracle
/// it is tested against: every expanded vertex pushes its whole
/// adjacency onto one heap of `(w, target)`.
#[cfg(test)]
fn prim_search_oracle<'a>(
    v: NodeId,
    root: Option<&'a Adj>,
    ctx: &mut ampc_runtime::executor::MachineCtx<'a, Adj>,
    seed: u64,
    budget: u64,
) -> SearchOut {
    let rv = node_rank(seed, v);
    let mut visited: FxHashSet<NodeId> = FxHashSet::default();
    visited.insert(v);
    let mut msf = Vec::new();
    // Heap over (weight, target): with strict weights the (weight) key
    // alone identifies the edge.
    let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
    let expand = |x: NodeId,
                  heap: &mut BinaryHeap<Reverse<(u64, NodeId)>>,
                  ctx: &mut ampc_runtime::executor::MachineCtx<'a, Adj>| {
        if let Some(adj) = ctx.handle.get(x as u64) {
            for &(t, w) in adj {
                heap.push(Reverse((w, t)));
            }
        }
    };
    if let Some(adj) = root {
        for &(t, w) in adj {
            heap.push(Reverse((w, t)));
        }
    }

    loop {
        // Stopping condition (1): explored n^{ε/2} vertices.
        if visited.len() as u64 >= budget {
            break;
        }
        // Next lightest edge leaving the tree.
        let Some(Reverse((w, t))) = heap.pop() else {
            break; // (2) component fully explored
        };
        ctx.add_ops(1);
        if visited.contains(&t) {
            continue;
        }
        // Cut property: this edge is in the MSF.
        msf.push(w);
        visited.insert(t);
        // Stopping condition (3): reached an earlier-in-π vertex.
        if node_rank(seed, t) < rv {
            break;
        }
        expand(t, &mut heap, ctx);
    }
    visited.remove(&v);
    let mut visited: Vec<NodeId> = visited.into_iter().collect();
    visited.sort_unstable();
    SearchOut {
        origin: v,
        msf,
        visited,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_dht::metrics::CommStats;
    use ampc_dht::store::Generation;
    use ampc_graph::{gen, CsrGraph};
    use ampc_runtime::executor::{self, MachineCtx, RoundScratch, RoundSpec};
    use ampc_runtime::{partition, AmpcConfig};
    use proptest::prelude::*;

    #[test]
    fn distinctify_preserves_order_and_restores() {
        // deg(u)+deg(v) weights tie often: the endpoints must break them.
        let g = gen::degree_weights(&gen::erdos_renyi(40, 120, 1));
        let d = distinctify(&g);
        assert_eq!(d.edges.len(), g.num_edges());
        // Internal weights are 0..m and strictly ordered like
        // (original weight, canonical endpoints).
        let mut ties = 0;
        for w in d.edges.windows(2) {
            let a = (d.orig_w[w[0].w as usize], d.orig_pair[w[0].w as usize]);
            let b = (d.orig_w[w[1].w as usize], d.orig_pair[w[1].w as usize]);
            assert!(a < b, "{a:?} must precede {b:?}");
            ties += usize::from(a.0 == b.0);
        }
        assert!(ties > 0, "the graph was meant to have weight ties");
        let restored = d.restore(d.edges.iter().map(|e| e.w));
        let mut orig = g.edge_vec();
        orig.sort_unstable_by_key(|e| e.key());
        assert_eq!(restored, orig);
    }

    #[test]
    fn one_round_on_path_finds_all_edges() {
        // A path with unbounded budget: the first search covers its
        // whole fragment; all edges are MSF edges.
        let g = gen::degree_weights(&gen::path(20));
        let d = distinctify(&g);
        let mut job = Job::new(AmpcConfig::for_tests());
        let r = prim_contract_round(&mut job, d.n, &d.edges, "", u64::MAX, 0);
        // Every edge of a tree is an MSF edge; contraction leaves nothing.
        assert_eq!(r.msf_internal.len(), 19);
        assert_eq!(r.next_n, 0);
        assert!(r.next_edges.is_empty());
    }

    #[test]
    fn round_shrinks_vertices() {
        let g = gen::degree_weights(&gen::erdos_renyi(300, 900, 5));
        let d = distinctify(&g);
        let mut job = Job::new(AmpcConfig::for_tests());
        let r = prim_contract_round(&mut job, d.n, &d.edges, "", 4, 0);
        assert!(
            r.next_n < 300 / 2,
            "contraction should shrink: {} -> {}",
            300,
            r.next_n
        );
        // Emitted edges are a subset of the true MSF.
        let msf = crate::msf::in_memory::kruskal(&g);
        let truth: std::collections::HashSet<_> =
            msf.iter().map(|e| (e.u.min(e.v), e.u.max(e.v))).collect();
        for &w in &r.msf_internal {
            let pair = d.orig_pair[w as usize];
            assert!(truth.contains(&pair), "emitted non-MSF edge {pair:?}");
        }
    }

    #[test]
    fn round_uses_five_shuffles() {
        let g = gen::degree_weights(&gen::erdos_renyi(100, 300, 2));
        let d = distinctify(&g);
        let mut job = Job::new(AmpcConfig::for_tests());
        prim_contract_round(&mut job, d.n, &d.edges, "", 8, 0);
        // SortGraph, Combine, PointerJumpConstruct, Contract, Rebuild.
        assert_eq!(job.report().num_shuffles(), 5);
    }

    #[test]
    fn roots_point_to_lower_rank() {
        let g = gen::degree_weights(&gen::erdos_renyi(200, 600, 7));
        let d = distinctify(&g);
        let mut job = Job::new(AmpcConfig::for_tests());
        let r = prim_contract_round(&mut job, d.n, &d.edges, "", 6, 3);
        let seed = job.config().seed ^ 3;
        for v in 0..200u32 {
            let root = r.root_of[v as usize];
            if root != v {
                assert!(
                    node_rank(seed, root) < node_rank(seed, v),
                    "root must be earlier in pi"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn round_rejects_edges_out_of_weight_order() {
        let g = gen::degree_weights(&gen::erdos_renyi(30, 60, 4));
        let mut edges = distinctify(&g).edges;
        edges.swap(3, 4);
        let mut job = Job::new(AmpcConfig::for_tests());
        prim_contract_round(&mut job, 30, &edges, "", 4, 0);
    }

    /// A stage's name and its keyed-shuffle loads.
    fn shuffle_loads(job: &Job, stage: usize) -> (String, u64, u64) {
        let s = &job.report().stages[stage];
        (s.name.clone(), s.shuffle_bytes, s.shuffle_bytes_max_machine)
    }

    #[test]
    fn striped_contract_matches_the_one_pass_oracle_over_several_rounds() {
        // Above `PAR_MIN` edges, so round 1's Contract stripes.
        let g = gen::random_weights(
            &gen::rmat(13, 110_000, gen::RmatParams::SOCIAL, 3),
            1 << 20,
            3,
        );
        let d = distinctify(&g);
        assert!(d.edges.len() > PAR_MIN, "{} edges", d.edges.len());
        for threads in [1, 2, 8] {
            let cfg = AmpcConfig::for_tests().with_threads(threads);
            let mut job = Job::new(cfg);
            let (mut edges, mut n, mut round) = (d.edges.clone(), d.n, 0u64);
            while edges.len() > 10 {
                round += 1;
                let budget = cfg.prim_budget(n.max(2));
                let r =
                    prim_contract_round(&mut job, n, &edges, &format!("-r{round}"), budget, round);
                let (kept, records) = contract_oracle(&edges, &r.root_of);

                // The striped pass alone, under some placement, at every
                // thread count.
                let p = cfg.num_machines;
                let place = |key| partition::machine_of(key, p, round);
                let mut loads = vec![0; p];
                for &(key, bytes) in &records {
                    loads[place(key)] += bytes;
                }
                for t in [1, 2, 3, 8] {
                    let got = contract(&edges, &r.root_of, &place, p, t);
                    assert_eq!(
                        got,
                        (kept.clone(), loads.clone()),
                        "round {round}, {t} threads"
                    );
                }

                // The round's Contract stage reports what the real keyed
                // shuffle of the oracle's records reports at its index.
                let stages = job.report().stages.len();
                let contract_at = stages - 2; // Contract, then Rebuild
                let mut real = Job::new(cfg);
                for _ in 0..contract_at {
                    real.shuffle_balanced("earlier", 8);
                }
                real.shuffle_by_key_measured(
                    &format!("Contract-r{round}"),
                    records,
                    |r| r.0,
                    |r| r.1,
                );
                assert_eq!(
                    shuffle_loads(&job, contract_at),
                    shuffle_loads(&real, contract_at),
                    "round {round}, {threads} threads"
                );

                // The next level is the oracle's kept edges, relabelled.
                let next = |x: NodeId| r.next_id[x as usize];
                let relabelled: Vec<ProvEdge> = kept
                    .iter()
                    .map(|e| ProvEdge {
                        u: next(e.u),
                        v: next(e.v),
                        ..*e
                    })
                    .collect();
                assert_eq!(r.next_edges, relabelled, "round {round}, {threads} threads");
                (edges, n) = (r.next_edges, r.next_n);
            }
            assert!(round >= 2, "only {round} round(s)");
        }
    }

    /// What a search is held to, then its machine's `ops` and `CommStats`.
    type Searched = (Vec<(NodeId, Vec<u64>, Vec<NodeId>)>, Vec<(u64, CommStats)>);

    /// Runs `search` from every origin the way the PrimSearch stage does
    /// (four machines, origins' lists prefetched in one batch).
    fn run_searches(
        read: &Generation<Adj>,
        origins: &[NodeId],
        seed: u64,
        budget: u64,
        search: impl for<'a> Fn(NodeId, Option<&'a Adj>, &mut MachineCtx<'a, Adj>, u64, u64) -> SearchOut
            + Sync,
    ) -> Searched {
        let chunks = partition::chunk(origins.to_vec(), 4);
        let outcome = executor::run_machines(
            read,
            None,
            &chunks,
            RoundSpec::unbudgeted(),
            1,
            &mut RoundScratch::new(),
            |ctx, items: &[NodeId]| {
                let keys: Vec<u64> = items.iter().map(|&v| v as u64).collect();
                let mut roots = Vec::with_capacity(items.len());
                ctx.handle.get_many_into(&keys, &mut roots);
                items
                    .iter()
                    .zip(roots)
                    .map(|(&v, root)| search(v, root, ctx, seed, budget))
                    .collect()
            },
        );
        (
            outcome
                .outputs
                .into_iter()
                .map(|s| (s.origin, s.msf, s.visited))
                .collect(),
            outcome
                .per_machine
                .iter()
                .map(|m| (m.ops, m.comm))
                .collect(),
        )
    }

    /// The cursor merge against the push-all oracle on `g`: equal MSF
    /// edges (in discovery order), visited sets, per-machine ops and
    /// per-machine communication, for every budget.
    fn assert_search_is_exact(g: &WeightedCsrGraph, origins: &[NodeId], seed: u64) {
        let read = sealed_adjacency(&distinctify(g));
        let root_n = (g.num_nodes() as f64).sqrt().ceil() as u64;
        for budget in [1, 2, 4, root_n, u64::MAX] {
            let merged = run_searches(&read, origins, seed, budget, prim_search);
            let pushed = run_searches(&read, origins, seed, budget, prim_search_oracle);
            assert_eq!(merged, pushed, "budget {budget}");
        }
    }

    /// The generation `KV-Write` seals: every vertex's weight-sorted list.
    fn sealed_adjacency(d: &Distinct) -> Generation<Adj> {
        let sorted = edge_ordered_adjacency(d.n, &d.edges, adjacency_arcs, 1);
        Generation::from_iter((0..d.n as NodeId).map(|v| (v as u64, sorted.list(v).to_vec())))
    }

    /// `g` with tie-heavy degree weights or with random ones.
    fn weighted(g: &CsrGraph, ties: u8, seed: u64) -> WeightedCsrGraph {
        if ties == 1 {
            gen::degree_weights(g)
        } else {
            gen::random_weights(g, 1 << 20, seed)
        }
    }

    fn all_nodes(g: &WeightedCsrGraph) -> Vec<NodeId> {
        (0..g.num_nodes() as NodeId).collect()
    }

    #[test]
    fn search_is_exact_on_corner_shapes() {
        // An isolated vertex among edges; a path; nothing at all.
        let mut lonely = ampc_graph::GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (4, 5)] {
            lonely.push_edge(u, v, 0);
        }
        for g in [lonely.build(), gen::path(33), CsrGraph::empty(3)] {
            let g = gen::random_weights(&g, 50, 9);
            assert_search_is_exact(&g, &all_nodes(&g), 0xA3C5);
        }
        // A star: one 10 000-entry list, searched from the hub and from
        // a few leaves (the oracle pushes the whole list per search).
        let star = gen::random_weights(&gen::star(10_001), 1_000, 2);
        let origins: Vec<NodeId> = (0..40).chain([5_000, 10_000]).collect();
        for seed in [1, 2, 3] {
            assert_search_is_exact(&star, &origins, seed);
        }
    }

    #[test]
    fn an_edge_between_two_expanded_vertices_pops_twice() {
        // A triangle, unbounded budget, from the vertex first in π: it
        // expands a second vertex before the search ends, so the edge
        // between the two sits in both lists and its second copy pops
        // as an already-visited target — an op, not an MSF edge.
        let g = gen::random_weights(&gen::complete(3), 100, 1);
        let seed = 7;
        let first = (0..3)
            .min_by_key(|&v| node_rank(seed, v))
            .expect("three vertices");
        assert_search_is_exact(&g, &[first], seed);
        let read = sealed_adjacency(&distinctify(&g));
        let (searches, machines) = run_searches(&read, &[first], seed, u64::MAX, prim_search);
        let (_, msf, visited) = &searches[0];
        assert_eq!((msf.len(), visited.len()), (2, 2));
        let pops: u64 = machines.iter().map(|m| m.0).sum();
        // 6 arcs in the three lists, all of them popped: 2 MSF edges, 4
        // arcs into visited vertices.
        assert_eq!(pops, 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn search_is_exact_on_er_graphs(
            n in 2usize..120,
            m in 0usize..600,
            seed in 0u64..1000,
            ties in 0u8..2,
        ) {
            let g = weighted(&gen::erdos_renyi(n, m, seed), ties, seed);
            assert_search_is_exact(&g, &all_nodes(&g), seed ^ 0x51);
        }

        #[test]
        fn search_is_exact_on_skewed_rmat(m in 100usize..3000, seed in 0u64..1000, ties in 0u8..2) {
            let g = weighted(&gen::rmat(8, m, gen::RmatParams::SOCIAL, seed), ties, seed);
            assert_search_is_exact(&g, &all_nodes(&g), seed);
        }
    }
}
