//! Flat parallel primitives over reusable scratch (DESIGN.md §11).
//!
//! The lockstep hop loops of the adaptive kernels used to rebuild their
//! survivor/frontier vectors from scratch every hop — a fresh
//! allocation plus a reallocation-prone `filter().collect()` on paths
//! executed hundreds of times per round. These primitives replace that
//! churn with **caller-owned output buffers**: each call clears and
//! refills a `Vec` the kernel keeps across hops and epochs (usually one
//! of the [`ampc_runtime::executor::ScratchBuffers`] arenas), so
//! steady-state loops allocate nothing once buffers reach their
//! high-water capacity.
//!
//! Above [`PAR_MIN`] elements and with more than one executor thread,
//! the primitives stripe over the process-wide pool, one
//! [`par_map`] part per stripe: pass 1 counts survivors per
//! stripe in parallel, pass 2 scatters each stripe into its disjoint,
//! pre-sized window of the output (safe `split_at_mut` windows — no
//! aliasing, no locks). Output order equals input order for every
//! thread count, so the primitives are schedule-deterministic by
//! construction (§3). The predicate runs twice per element in the
//! striped path; that is the standard price of an allocation-free
//! two-pass pack and is far cheaper than the per-hop `Vec` growth it
//! replaces.
//!
//! [`earlier_adjacency`] is the same count → prefix → fill shape over a
//! graph: DirectGraph's per-vertex lists of earlier-in-π neighbors, built
//! once into flat `(offsets, arcs)`. It sorts in rank space, so it needs
//! no comparison sort for a long list: π's ranks are the integers below
//! `n`, which an LSD radix sort orders in two or three passes up to
//! 2^22 vertices. [`ranked_adjacency`] builds PermuteGraph's lists, every arc
//! kept, each sorted as packed `(hash, id)` integers.
//! [`edge_ordered_adjacency`] is their counterpart over an edge list
//! already in list order (the Prim round's weight-sorted SortGraph
//! records): a stable fill, no sort at all, each list cut to a cap.
//! [`hash_ranked_edges`] sorts a graph's edges by a hash with the same
//! shape over hash buckets: a bucket's place is a prefix sum, and only
//! each bucket is sorted.

use crate::msf::common::ProvEdge;
use crate::priorities::NodePerm;
use ampc_dht::pool::par_map;
use ampc_graph::stripes::{arc_balanced_stripes, stripe_bounds, windows_mut};
use ampc_graph::{CsrGraph, NodeId};
use ampc_runtime::config::knobs::ampc_threads;
use std::ops::Range;

/// Below this many elements the striped paths fall back to a simple
/// sequential pass (stripe bookkeeping would dominate).
pub const PAR_MIN: usize = 1 << 16;

/// Fills `out` with the indices `i` in `0..n` where `pred(i)` holds, in
/// ascending order, reusing `out`'s capacity, striped over `threads`
/// (results are identical for every value). The striped replacement
/// for `(0..n).filter(pred).collect()` in sampling loops.
pub fn pack_range(
    n: usize,
    pred: impl Fn(usize) -> bool + Sync,
    out: &mut Vec<u32>,
    threads: usize,
) {
    assert!(n <= u32::MAX as usize, "pack_range indexes with u32");
    let pred = &pred;
    pack(
        n,
        |r| r.filter(move |&i| pred(i)).map(|i| i as u32),
        0,
        out,
        threads,
    );
}

/// Fills `out` with copies of the elements of `src` satisfying `pred`,
/// in input order, reusing `out`'s capacity.
pub fn filter_into<T>(src: &[T], pred: impl Fn(&T) -> bool + Sync, out: &mut Vec<T>)
where
    T: Copy + Send + Sync,
{
    filter_into_with_threads(src, pred, out, ampc_threads());
}

/// [`filter_into`] with an explicit thread count (test hook; results
/// are identical for every value).
pub fn filter_into_with_threads<T>(
    src: &[T],
    pred: impl Fn(&T) -> bool + Sync,
    out: &mut Vec<T>,
    threads: usize,
) where
    T: Copy + Send + Sync,
{
    let Some(&blank) = src.first() else {
        return out.clear();
    };
    let pred = &pred;
    let survivors = |r: Range<usize>| src[r].iter().filter(move |t| pred(t)).copied();
    pack(src.len(), survivors, blank, out, threads);
}

/// The body of [`pack_range`] and [`filter_into`]: `out` becomes the
/// concatenation of `survivors(r)` over the stripes of `0..n`. Count →
/// prefix → fill: every stripe counts its survivors, `out` is resized
/// (with `blank`) to their sum, and every stripe fills its own window.
fn pack<T, I>(
    n: usize,
    survivors: impl Fn(Range<usize>) -> I + Sync,
    blank: T,
    out: &mut Vec<T>,
    threads: usize,
) where
    T: Copy + Send + Sync,
    I: Iterator<Item = T>,
{
    out.clear();
    if threads <= 1 || n < PAR_MIN {
        out.extend(survivors(0..n));
        return;
    }
    let stripes = stripe_bounds(n, threads);
    let counts = par_map(stripes.clone(), threads, |r| survivors(r).count());
    out.resize(counts.iter().sum(), blank);
    let wins = windows_mut(out, counts);
    par_map(
        stripes.into_iter().zip(wins).collect(),
        threads,
        |(r, win)| {
            for (slot, v) in win.iter_mut().zip(survivors(r)) {
                *slot = v;
            }
        },
    );
}

/// Stable counting sort of `src` by a small integer key (`key(t) <
/// buckets`), written into `out`; `counts` is reusable scratch resized
/// to `buckets + 1`. The counting pass stripes over the pool; the
/// stable scatter is sequential (its positions interleave across
/// stripes, so a parallel scatter would need per-slot synchronization —
/// not worth it for the bucket counts the kernels use).
pub fn counting_sort_by_key<T: Copy>(
    src: &[T],
    buckets: usize,
    key: impl Fn(&T) -> usize,
    counts: &mut Vec<usize>,
    out: &mut Vec<T>,
) {
    counts.clear();
    counts.resize(buckets + 1, 0);
    for t in src {
        let k = key(t);
        debug_assert!(k < buckets, "key {k} out of range (buckets = {buckets})");
        counts[k + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    out.clear();
    if let Some(&first) = src.first() {
        out.resize(src.len(), first);
        for t in src {
            let k = key(t);
            out[counts[k]] = *t;
            counts[k] += 1;
        }
    }
}

/// Per-vertex lists in one flat allocation: `list(v)` is
/// `arcs[offsets[v]..offsets[v + 1]]`. An arc is a bare neighbor id
/// unless the builder says otherwise.
#[derive(Clone, Debug)]
pub struct FlatAdjacency<A = NodeId> {
    offsets: Vec<usize>,
    arcs: Vec<A>,
}

impl<A> FlatAdjacency<A> {
    /// The list of vertex `v`.
    #[inline]
    pub fn list(&self, v: NodeId) -> &[A] {
        &self.arcs[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// Builds the adjacency PermuteGraph stores in the DHT (DESIGN.md §11):
/// for every vertex `v` all its neighbors `u`, sorted by `(key(v, u), u)`.
///
/// Per vertex the fill packs `key << 32 | u` into a stripe-local buffer,
/// sorts the integers and strips the ids out, so no key is recomputed per
/// comparison. `key` runs once per arc and must be a pure function of
/// `(v, u)`. Every list keeps all its arcs, so the lists share `g`'s
/// offsets; stripes are contiguous vertex ranges balanced by arc count,
/// one per thread, each filling its own disjoint window of the output,
/// and the result is the same for every `threads`, by construction.
pub fn ranked_adjacency(
    g: &CsrGraph,
    key: impl Fn(NodeId, NodeId) -> u64 + Sync,
    threads: usize,
) -> FlatAdjacency {
    let offsets = g.offsets().to_vec();
    let stripes = arc_balanced_stripes(&offsets, threads.max(1));
    let mut arcs = vec![0 as NodeId; g.num_arcs()];
    let wins = windows_mut(
        &mut arcs,
        stripes.iter().map(|r| offsets[r.end] - offsets[r.start]),
    );
    par_map(
        stripes.into_iter().zip(wins).collect(),
        threads,
        |(r, mut win)| {
            let mut packed: Vec<u128> = Vec::new();
            for v in r {
                let (list, tail) = win.split_at_mut(offsets[v + 1] - offsets[v]);
                win = tail;
                let v = v as NodeId;
                packed.clear();
                packed.extend(
                    g.neighbors(v)
                        .iter()
                        .map(|&u| (key(v, u) as u128) << 32 | u as u128),
                );
                packed.sort_unstable();
                for (slot, &p) in list.iter_mut().zip(&packed) {
                    *slot = p as NodeId;
                }
            }
        },
    );
    FlatAdjacency { offsets, arcs }
}

/// Rank bits one LSD pass of [`earlier_adjacency`] sorts at most: up to
/// 2^22 vertices a list of 2 048 ranks or more sorts in two passes.
const DIGIT_BITS_MAX: u32 = 11;

/// The shortest list [`earlier_adjacency`] radix-sorts; shorter lists
/// take `sort_unstable`. A list's digits are at most `log₂` of its length
/// wide, so no list is shorter than a digit's bucket count. Measured on
/// `tw` (17-bit ranks): from 256 arcs on, three 6-bit digits cost
/// ≈ 7 ns an arc and two 9-bit digits (from 512 on) ≈ 5 ns, against
/// 12–19 ns for `sort_unstable`; below 128 neither wins clearly.
const RADIX_MIN: usize = 256;

/// Builds DirectGraph's lists (DESIGN.md §11): for every vertex `v` the
/// neighbors earlier in the permutation `perm`, in π order.
///
/// The build runs in **rank space**. π is a permutation, so the rank
/// order `(hash(u), u)` is the order of the integers `perm.pos(u)`, all
/// below `n`: a list is sorted as ranks and mapped back to ids through
/// [`NodePerm::order`], and no comparison ever sees an id or a hash.
/// Count → prefix → fill over contiguous vertex stripes balanced by arc
/// count, one per thread: every stripe counts its kept arcs
/// (`pos(u) < pos(v)`, summed as `0`/`1`), and after the prefix sum fills
/// its own disjoint window of the output, so the result is the same for
/// every `threads`, by construction. Per list the fill
///
/// 1. compacts the ranks without a branch: every neighbor's rank is
///    written to the stripe's scratch, and the cursor moves past it only
///    if it is kept;
/// 2. sorts the kept ranks: `sort_unstable` for a list shorter than
///    `RADIX_MIN`, an LSD radix sort of the `⌈log₂ n⌉`-bit ranks for a
///    longer one, in digits at most `log₂` of its length wide, whose last
///    scatter writes the ids into the list's window.
///
/// A repeated neighbor is kept as often as it is stored. On the `tw`
/// analogue (`n` = 2^17, 11.85 M arcs, 5.93 M kept, the longest kept
/// list 27 741) 65 % of the kept arcs sit in lists of 256 or more, so
/// the radix sort (three 6-bit digits from 256 arcs, two 9-bit digits
/// from 512) does most of the sorting.
pub fn earlier_adjacency(g: &CsrGraph, perm: &NodePerm, threads: usize) -> FlatAdjacency {
    let n = g.num_nodes();
    let stripes = arc_balanced_stripes(g.offsets(), threads.max(1));

    // Pass 1: kept arcs per vertex, then the prefix sum.
    let mut offsets = vec![0usize; n + 1];
    let wins = windows_mut(&mut offsets[1..], stripes.iter().map(|r| r.len()));
    par_map(
        stripes.iter().cloned().zip(wins).collect(),
        threads,
        |(r, win)| {
            for (slot, v) in win.iter_mut().zip(r) {
                let pv = perm.pos(v as NodeId);
                *slot = g
                    .neighbors(v as NodeId)
                    .iter()
                    .map(|&u| (perm.pos(u) < pv) as usize)
                    .sum();
            }
        },
    );
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }

    // Pass 2: every stripe sorts its vertices' lists into its window.
    let order = perm.order();
    let mut arcs = vec![0 as NodeId; offsets[n]];
    let wins = windows_mut(
        &mut arcs,
        stripes.iter().map(|r| offsets[r.end] - offsets[r.start]),
    );
    par_map(
        stripes.into_iter().zip(wins).collect(),
        threads,
        |(r, mut win)| {
            let mut sorter = RankSorter::new(perm, &order);
            for v in r {
                let (list, tail) = win.split_at_mut(offsets[v + 1] - offsets[v]);
                win = tail;
                let v = v as NodeId;
                sorter.fill(g.neighbors(v), perm.pos(v), list);
            }
        },
    );
    FlatAdjacency { offsets, arcs }
}

/// The per-stripe scratch of [`earlier_adjacency`]: the compacted ranks,
/// the radix sort's second buffer and one digit's counters, beside π and
/// its inverse.
struct RankSorter<'a> {
    perm: &'a NodePerm,
    order: &'a [NodeId],
    ranks: Vec<u32>,
    swap: Vec<u32>,
    counts: Vec<u32>,
    /// Bits of the ranks: `⌈log₂ n⌉`, at least 1.
    bits: u32,
}

impl<'a> RankSorter<'a> {
    /// The sorter for `perm`, whose inverse table is `order`.
    fn new(perm: &'a NodePerm, order: &'a [NodeId]) -> Self {
        let n = order.len();
        RankSorter {
            perm,
            order,
            ranks: Vec::new(),
            swap: Vec::new(),
            counts: Vec::new(),
            bits: (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1),
        }
    }

    /// Writes into `list` the ids of the neighbors in `nbrs` whose rank is
    /// below `pv`, in rank order; `list` holds exactly that many slots.
    fn fill(&mut self, nbrs: &[NodeId], pv: u32, list: &mut [NodeId]) {
        if self.ranks.len() < nbrs.len() {
            self.ranks.resize(nbrs.len(), 0);
        }
        let mut at = 0;
        for &u in nbrs {
            let pu = self.perm.pos(u);
            self.ranks[at] = pu;
            at += (pu < pv) as usize;
        }
        assert_eq!(at, list.len(), "the count and the fill disagree");
        if at < RADIX_MIN {
            let ranks = &mut self.ranks[..at];
            ranks.sort_unstable();
            for (slot, &p) in list.iter_mut().zip(ranks.iter()) {
                *slot = self.order[p as usize];
            }
        } else {
            // No digit has more buckets than the list has ranks.
            self.radix_sort(at, at.ilog2().min(DIGIT_BITS_MAX), list);
        }
    }

    /// LSD radix sort of `ranks[..len]` in the fewest digits of at most
    /// `bits_max` bits, all of one width: one counting pass and one stable
    /// scatter per digit, the last scatter writing ids into `list`.
    fn radix_sort(&mut self, len: usize, bits_max: u32, list: &mut [NodeId]) {
        let passes = self.bits.div_ceil(bits_max);
        let digit_bits = self.bits.div_ceil(passes);
        if self.swap.len() < len {
            self.swap.resize(len, 0);
        }
        if self.counts.len() < 1 << digit_bits {
            self.counts.resize(1 << digit_bits, 0);
        }
        let counts = &mut self.counts[..1 << digit_bits];
        let mask = (1 << digit_bits) - 1;
        let (mut src, mut dst) = (&mut self.ranks[..len], &mut self.swap[..len]);
        for d in 0..passes {
            let shift = d * digit_bits;
            let digit = |p: u32| (p >> shift & mask) as usize;
            counts.fill(0);
            for &p in src.iter() {
                counts[digit(p)] += 1;
            }
            let mut sum = 0;
            for c in counts.iter_mut() {
                (*c, sum) = (sum, sum + *c);
            }
            for &p in src.iter() {
                let at = &mut counts[digit(p)];
                if d + 1 == passes {
                    list[*at as usize] = self.order[p as usize];
                } else {
                    dst[*at as usize] = p;
                }
                *at += 1;
            }
            std::mem::swap(&mut src, &mut dst);
        }
    }
}

/// Builds per-vertex arc lists from an **edge list**, every list in edge
/// order and cut to its first `cap` arcs: `arcs(e)` names the two
/// `(owner, arc)` pairs edge `e` contributes, and `list(v)` holds the
/// first `cap` arcs owned by `v` in the order their edges appear in
/// `edges`. An edge list sorted by some key therefore yields lists sorted
/// by that key with no per-list sort — the weight-ordered adjacency of
/// the §5.5 Prim round, which keeps only what a truncated search can pop
/// (DESIGN.md §11). Returns the lists and every vertex's full arc count,
/// or `None` if `cut_ok(v, list(v))` fails for a list that lost arcs to
/// the cap. `cut_ok` runs on no list when `cap` is `usize::MAX`.
///
/// Count → prefix → stable fill. A stable scatter cannot split the
/// *edges* over threads (one list's slots would interleave across
/// stripes), so it splits the *vertices*: every stripe streams the
/// whole edge list, writes only the arcs its contiguous, arc-balanced
/// vertex range owns into its own window of the output, skips those past
/// their list's cap, then runs `cut_ok` on its cut lists while they are
/// in cache. The sequential reads are cheap next to the scattered writes
/// they divide. The count stays on one thread for the same reason turned
/// around: its increments land in one small table, the stream is all of
/// its cost, and every stripe would pay that in full. `arcs` runs once
/// per edge in the count and once per edge per stripe in the fill, and
/// must be pure; the result is the same for every `threads`, by
/// construction.
///
/// # Panics
/// If an arc's owner is not in `0..n`.
pub fn edge_ordered_adjacency<E: Sync, A: Copy + Default + Send>(
    n: usize,
    edges: &[E],
    arcs: impl Fn(&E) -> [(NodeId, A); 2] + Sync,
    cap: usize,
    cut_ok: impl Fn(NodeId, &[A]) -> bool + Sync,
    threads: usize,
) -> Option<(FlatAdjacency<A>, Vec<usize>)> {
    // Pass 1: arcs per vertex, then the prefix sum of the kept ones. Both
    // passes unpack an edge's two arcs by hand: whether LLVM scalarises a
    // `flat_map` over the `[_; 2]` depends on inlining choices elsewhere
    // in the crate, and when it does not, the fill keeps the array on the
    // stack and runs ~1.7x slower (`cc-rmat16`).
    let mut degrees = vec![0usize; n];
    for e in edges {
        let [(a, _), (b, _)] = arcs(e);
        degrees[a as usize] += 1;
        degrees[b as usize] += 1;
    }
    let mut offsets = vec![0usize; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + degrees[v].min(cap);
    }

    // Pass 2: every stripe fills its vertices' lists, in edge order, then
    // checks the ones it cut.
    let mut table = vec![A::default(); offsets[n]];
    let stripes = arc_balanced_stripes(&offsets, threads.max(1));
    let wins = windows_mut(
        &mut table,
        stripes.iter().map(|r| offsets[r.end] - offsets[r.start]),
    );
    let cuts_ok = par_map(
        stripes.into_iter().zip(wins).collect(),
        threads,
        |(r, win)| {
            let base = offsets[r.start];
            let mut free: Vec<Range<usize>> = r
                .clone()
                .map(|v| offsets[v] - base..offsets[v + 1] - base)
                .collect();
            let mut place = |(v, arc): (NodeId, A)| {
                if let Some(slot) = free.get_mut((v as usize).wrapping_sub(r.start)) {
                    if let Some(at) = slot.next() {
                        win[at] = arc;
                    }
                }
            };
            for e in edges {
                let [first, second] = arcs(e);
                place(first);
                place(second);
            }
            r.filter(|&v| degrees[v] > cap).all(|v| {
                let list = &win[offsets[v] - base..offsets[v + 1] - base];
                cut_ok(v as NodeId, list)
            })
        },
    );
    cuts_ok.into_iter().all(|ok| ok).then(|| {
        let lists = FlatAdjacency {
            offsets,
            arcs: table,
        };
        (lists, degrees)
    })
}

/// The edges of `g`, each once as [`CsrGraph::edges`] yields it, in
/// ascending `(hash(u, v), u, v)` order, the `i`-th as the level-0
/// [`ProvEdge`] of weight `i`: the random edge ranking connectivity
/// takes its spanning forest under (DESIGN.md §11).
///
/// No global sort. A bucket is the top bits of the hash, so bucket
/// order is hash order and equal hashes share a bucket; each bucket's
/// place is its prefix sum and its content depends on the graph alone,
/// so the result is the same for every `threads`, by construction.
///
/// 1. Every arc-balanced vertex stripe counts its edges per bucket.
/// 2. Every stripe writes its edges, packed `u << 32 | v`, into its own
///    chunk of every bucket of one scratch buffer: a bucket's chunks are
///    disjoint `split_at_mut` pieces, in stripe order. The output's
///    first touch runs beside it as one more part.
/// 3. Every thread takes a contiguous run of buckets, balanced by edge
///    count. It sorts a bucket in cache (the hash recomputed, a
///    counting pass on its next byte, then a sort of each small run)
///    and writes the bucket's edges, ranked, into its window of the
///    output.
///
/// `hash` runs three times per edge and must be pure.
pub fn hash_ranked_edges(
    g: &CsrGraph,
    hash: impl Fn(NodeId, NodeId) -> u64 + Sync,
    threads: usize,
) -> Vec<ProvEdge> {
    let threads = threads.max(1);
    // 512 to 1023 edges a bucket, at most 2^16 buckets: few enough write
    // streams for the scatter to stay in cache, and a bucket sorts in L1.
    let bits = (g.num_edges() >> 9).max(2).ilog2().min(16);
    let buckets = 1usize << bits;
    let bucket_of = |h: u64| (h >> (64 - bits)) as usize;
    let hash = &hash;

    // Pass 1: edges per bucket, per vertex stripe.
    let stripes = arc_balanced_stripes(g.offsets(), threads);
    let mut counts = vec![0usize; stripes.len() * buckets];
    let parts = stripes
        .iter()
        .cloned()
        .zip(counts.chunks_mut(buckets))
        .collect();
    par_map(parts, threads, |(r, count)| {
        for_each_edge(g, r, |u, v| count[bucket_of(hash(u, v))] += 1)
    });
    let mut starts = vec![0usize; buckets + 1];
    for b in 0..buckets {
        let in_b: usize = counts.iter().skip(b).step_by(buckets).sum();
        starts[b + 1] = starts[b] + in_b;
    }
    // What pass 1 met, not `num_edges`: a loop stored as two arcs of a
    // symmetric `from_parts` graph is one edge there and two here.
    let m = starts[buckets];

    // Pass 2: every stripe scatters into its chunk of every bucket.
    let mut packed = vec![0u64; m];
    let mut out: Vec<ProvEdge> = Vec::with_capacity(m);
    {
        let mut chunks: Vec<Vec<&mut [u64]>> = stripes
            .iter()
            .map(|_| Vec::with_capacity(buckets))
            .collect();
        let mut rest = packed.as_mut_slice();
        for b in 0..buckets {
            for (s, mine) in chunks.iter_mut().enumerate() {
                let (chunk, tail) = rest.split_at_mut(counts[s * buckets + b]);
                mine.push(chunk);
                rest = tail;
            }
        }
        /// A part of the scatter: the output's first touch, or a stripe.
        enum Part<'a> {
            Touch(&'a mut Vec<ProvEdge>),
            Scatter(Range<usize>, Vec<&'a mut [u64]>),
        }
        // A fresh buffer pays for its pages on first touch (DESIGN.md
        // §11): the output's are touched here, beside the scatter.
        let scatter = stripes
            .into_iter()
            .zip(chunks)
            .map(|(r, mine)| Part::Scatter(r, mine));
        let parts = std::iter::once(Part::Touch(&mut out))
            .chain(scatter)
            .collect();
        par_map(parts, threads, |part| match part {
            Part::Touch(out) => out.resize(m, ProvEdge::default()),
            Part::Scatter(r, mut mine) => for_each_edge(g, r, |u, v| {
                let chunk = &mut mine[bucket_of(hash(u, v))];
                let (slot, tail) = std::mem::take(chunk)
                    .split_first_mut()
                    .expect("pass 1 counted this edge");
                *slot = (u as u64) << 32 | v as u64;
                *chunk = tail;
            }),
        });
    }

    // Pass 3: every owner sorts its buckets and writes them, ranked.
    let owners = arc_balanced_stripes(&starts, threads);
    let wins = windows_mut(
        &mut out,
        owners.iter().map(|b| starts[b.end] - starts[b.start]),
    );
    par_map(
        owners.into_iter().zip(wins).collect(),
        threads,
        |(owned, win_out)| {
            let base = starts[owned.start];
            let win = &packed[base..starts[owned.end]];
            let mut sorter = BucketSorter::new(bits);
            for b in owned {
                let (lo, hi) = (starts[b] - base, starts[b + 1] - base);
                let sorted = sorter.sort(&win[lo..hi], hash);
                for (i, (slot, &k)) in win_out[lo..hi].iter_mut().zip(sorted).enumerate() {
                    let (u, v) = ((k >> 32) as NodeId, k as NodeId);
                    *slot = ProvEdge {
                        u,
                        v,
                        w: (base + lo + i) as u64,
                        ou: u,
                        ov: v,
                    };
                }
            }
        },
    );
    out
}

/// Sorts one bucket of [`hash_ranked_edges`] in two reused buffers: the
/// records `hash << 64 | u << 32 | v`, whose order as integers is the
/// `(hash, u, v)` order, then a counting pass on the byte below the
/// bucket's bits and a sort of each run of equal bytes (a few records).
struct BucketSorter {
    keyed: Vec<u128>,
    sorted: Vec<u128>,
    /// Shift that brings the byte below the bucket bits down.
    shift: u32,
}

impl BucketSorter {
    fn new(bucket_bits: u32) -> Self {
        BucketSorter {
            keyed: Vec::new(),
            sorted: Vec::new(),
            shift: 128 - bucket_bits - 8,
        }
    }

    /// The bucket's packed edges as sorted records.
    fn sort(&mut self, packed: &[u64], hash: impl Fn(NodeId, NodeId) -> u64) -> &[u128] {
        let shift = self.shift;
        let byte = |k: u128| ((k >> shift) & 0xFF) as usize;
        self.keyed.clear();
        self.keyed.extend(
            packed
                .iter()
                .map(|&uv| (hash((uv >> 32) as NodeId, uv as NodeId) as u128) << 64 | uv as u128),
        );
        let mut at = [0usize; 257];
        for &k in &self.keyed {
            at[byte(k) + 1] += 1;
        }
        for d in 0..256 {
            at[d + 1] += at[d];
        }
        self.sorted.clear();
        self.sorted.resize(self.keyed.len(), 0);
        let mut from = at;
        for &k in &self.keyed {
            self.sorted[from[byte(k)]] = k;
            from[byte(k)] += 1;
        }
        for run in at.windows(2) {
            self.sorted[run[0]..run[1]].sort_unstable();
        }
        &self.sorted
    }
}

/// Calls `f(u, v)` for every edge [`CsrGraph::edges`] yields from the
/// vertices in `range`.
#[inline]
fn for_each_edge(g: &CsrGraph, range: Range<usize>, mut f: impl FnMut(NodeId, NodeId)) {
    let symmetric = g.is_symmetric();
    for u in range {
        let u = u as NodeId;
        for &v in g.neighbors(u) {
            if !symmetric || u <= v {
                f(u, v);
            }
        }
    }
}

/// The per-vertex closure formulation [`ranked_adjacency`] replaced,
/// kept as the oracle the builder is tested against: filter, collect,
/// `sort_unstable_by_key` with the rank recomputed per comparison.
#[cfg(test)]
pub(crate) fn ranked_adjacency_oracle<R: Ord>(
    g: &CsrGraph,
    keep: impl Fn(NodeId, NodeId) -> bool,
    rank: impl Fn(NodeId, NodeId) -> R,
) -> Vec<Vec<NodeId>> {
    g.nodes()
        .map(|v| {
            let mut list: Vec<NodeId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| keep(v, u))
                .collect();
            list.sort_unstable_by_key(|&u| rank(v, u));
            list
        })
        .collect()
}

/// The global sort [`hash_ranked_edges`] replaced, kept as the oracle
/// it is tested against: collect `(hash, u, v)`, `sort_unstable`, rank.
#[cfg(test)]
fn hash_ranked_edges_oracle(g: &CsrGraph, hash: impl Fn(NodeId, NodeId) -> u64) -> Vec<ProvEdge> {
    let mut keyed: Vec<(u64, NodeId, NodeId)> =
        g.edges().map(|e| (hash(e.u, e.v), e.u, e.v)).collect();
    keyed.sort_unstable();
    keyed
        .iter()
        .enumerate()
        .map(|(i, &(_, u, v))| ProvEdge {
            u,
            v,
            w: i as u64,
            ou: u,
            ov: v,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::ampc_constant::permute_graph;
    use crate::mis::direct_graph;
    use crate::priorities::{edge_rank, node_rank, NodePerm};
    use ampc_dht::hasher::mix64;
    use ampc_graph::gen;
    use proptest::prelude::*;

    /// The builder's lists as the oracle's `Vec<Vec<_>>`.
    fn lists(g: &CsrGraph, adj: &FlatAdjacency) -> Vec<Vec<NodeId>> {
        g.nodes().map(|v| adj.list(v).to_vec()).collect()
    }

    /// Both kernels' builds, at 1 / 2 / 8 threads, against the closure
    /// formulation over the rank functions themselves.
    fn assert_builder_is_exact(g: &CsrGraph, seed: u64) {
        let directed = ranked_adjacency_oracle(
            g,
            |v, u| node_rank(seed, u) < node_rank(seed, v),
            |_, u| node_rank(seed, u),
        );
        let permuted = ranked_adjacency_oracle(g, |_, _| true, |v, u| edge_rank(seed, v, u));
        for threads in [1, 2, 8] {
            let by_node = direct_graph(g, seed, threads);
            assert_eq!(lists(g, &by_node), directed, "node rank, {threads} threads");
            let by_edge = permute_graph(g, seed, threads);
            assert_eq!(lists(g, &by_edge), permuted, "edge rank, {threads} threads");
        }
    }

    #[test]
    fn builder_is_exact_on_corner_shapes() {
        for g in [
            gen::star(40),
            gen::path(33),
            CsrGraph::empty(9),
            CsrGraph::empty(1),
            CsrGraph::empty(0),
        ] {
            assert_builder_is_exact(&g, 0xA3C5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn builder_is_exact_on_er_graphs(n in 2usize..200, m in 0usize..1500, seed in 0u64..1000) {
            assert_builder_is_exact(&gen::erdos_renyi(n, m, seed), seed ^ 0x51);
        }

        #[test]
        fn builder_is_exact_on_skewed_rmat(m in 100usize..6000, seed in 0u64..1000) {
            assert_builder_is_exact(&gen::rmat(9, m, gen::RmatParams::SOCIAL, seed), seed);
        }
    }

    #[test]
    fn builder_breaks_key_ties_by_neighbor_id() {
        // Forced hash ties: vertices 0..8 share two hashes, so π orders
        // them by id within a hash and the directed lists follow.
        let perm = NodePerm::from_hashes(&[5, 1, 5, 1, 5, 1, 5, 1]);
        let g = gen::complete(8);
        let adj = earlier_adjacency(&g, &perm, 2);
        assert_eq!(adj.list(6), &[1, 3, 5, 7, 0, 2, 4]);
        assert_eq!(adj.list(1), &[] as &[NodeId]);
        // Equal keys outright: the neighbor id alone decides.
        let flat = ranked_adjacency(&g, |_, _| 0, 2);
        assert_eq!(flat.list(3), &[0, 1, 2, 4, 5, 6, 7]);
    }

    /// A clique on the first `k` of `n` vertices: π orders its members, so
    /// their kept lists have every length from 0 to `k − 1`.
    fn clique_among(n: usize, k: usize) -> CsrGraph {
        let mut b = ampc_graph::GraphBuilder::new(n);
        for u in 0..k as NodeId {
            for v in u + 1..k as NodeId {
                b.push_edge(u, v, 0);
            }
        }
        b.build()
    }

    #[test]
    fn builder_is_exact_around_the_radix_switch_over() {
        // Lists of every length up to one past the switch-over, whose
        // 12-bit ranks sort in two 6-bit digits.
        let n = 3000;
        assert_builder_is_exact(&clique_among(n, RADIX_MIN + 2), 0x5EED);
        // A star among `n` vertices whose hub comes last in π keeps every
        // leaf.
        let mut hashes = vec![0; n];
        hashes[0] = u64::MAX;
        let perm = NodePerm::from_hashes(&hashes);
        for leaves in [RADIX_MIN - 1, RADIX_MIN, RADIX_MIN + 1] {
            let mut b = ampc_graph::GraphBuilder::new(n);
            for leaf in 1..=leaves as NodeId {
                b.push_edge(0, leaf, 0);
            }
            let adj = earlier_adjacency(&b.build(), &perm, 2);
            let expect: Vec<NodeId> = (1..=leaves as NodeId).collect();
            assert_eq!(adj.list(0), expect, "{leaves} leaves");
        }
    }

    #[test]
    fn builder_keeps_repeated_neighbors_on_long_lists() {
        // Every pair of 0..8 stored 40 times over, and a loop stored as
        // two arcs at every vertex: lists of 282 arcs, the last in π
        // keeping 280. With 8 vertices the radix sort takes one pass,
        // with 3000 two.
        for n in [8, 3000] {
            let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            for u in 0..8 {
                for v in u + 1..8 {
                    for _ in 0..40 {
                        lists[u as usize].push(v);
                        lists[v as usize].push(u);
                    }
                }
                lists[u as usize].extend([u, u]);
            }
            let mut offsets = vec![0];
            offsets.extend(lists.iter().scan(0, |end, l| {
                *end += l.len();
                Some(*end)
            }));
            let g = CsrGraph::from_parts(offsets, lists.concat(), true);
            for seed in [1, 2, 3] {
                assert_builder_is_exact(&g, seed);
            }
        }
    }

    #[test]
    fn builder_breaks_forced_ties_on_long_lists() {
        // Five hash values over 3000 vertices: π is mostly id order within
        // a hash, and the clique's long lists mix every hash.
        let n = 3000;
        let hashes: Vec<u64> = (0..n as u64).map(|v| mix64(v) % 5).collect();
        let perm = NodePerm::from_hashes(&hashes);
        let rank = |u: NodeId| (hashes[u as usize], u);
        let g = clique_among(n, RADIX_MIN + 200);
        let expect = ranked_adjacency_oracle(&g, |v, u| rank(u) < rank(v), |_, u| rank(u));
        for threads in [1, 2, 8] {
            let adj = earlier_adjacency(&g, &perm, threads);
            assert_eq!(lists(&g, &adj), expect, "{threads} threads");
        }
    }

    #[test]
    fn radix_sort_agrees_with_sort_unstable_at_every_pass_count() {
        let n = 5000;
        let perm = NodePerm::new(9, n);
        let order = perm.order();
        let ranks: Vec<u32> = (0..3001).map(|i| (mix64(i) % n as u64) as u32).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        let expect: Vec<NodeId> = sorted.iter().map(|&p| order[p as usize]).collect();
        // Digits of 1 to 13 bits: 13 passes down to one.
        for bits_max in 1..=13 {
            let mut sorter = RankSorter::new(&perm, &order);
            sorter.ranks.clone_from(&ranks);
            let mut list = vec![0; ranks.len()];
            sorter.radix_sort(ranks.len(), bits_max, &mut list);
            assert_eq!(list, expect, "digits of at most {bits_max} bits");
        }
    }

    /// `k` stars with 1..=`k` leaves side by side, then one isolated
    /// vertex: lists of every length from 0 to `k`, so every cap below
    /// `k` meets lists of exactly `cap` and `cap + 1` arcs.
    fn stars_of_every_size(k: usize) -> CsrGraph {
        let mut b = ampc_graph::GraphBuilder::new(k * (k + 3) / 2 + 1);
        let mut next = 0;
        for leaves in 1..=k as NodeId {
            let hub = next;
            for leaf in hub + 1..=hub + leaves {
                b.push_edge(hub, leaf, 0);
            }
            next += leaves + 1;
        }
        b.build()
    }

    /// Every list in edge order and cut to its first `cap` arcs, the full
    /// degrees beside it, and the check run on exactly the cut lists, at
    /// 1 / 2 / 3 / 8 threads.
    #[test]
    fn edge_ordered_lists_keep_edge_order_at_every_thread_count() {
        for g in [
            gen::rmat(8, 2_000, gen::RmatParams::SOCIAL, 5),
            stars_of_every_size(9),
            gen::star(40),
            CsrGraph::empty(7),
            CsrGraph::empty(0),
        ] {
            // The edges in a scrambled order, each tagged with its place.
            let mut edges: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.u, e.v)).collect();
            edges.sort_unstable_by_key(|&(u, v)| mix64(crate::priorities::edge_key(u, v)));
            let edges: Vec<(NodeId, NodeId, usize)> = edges
                .iter()
                .enumerate()
                .map(|(i, &(u, v))| (u, v, i))
                .collect();
            let mut pushed: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); g.num_nodes()];
            for &(u, v, i) in &edges {
                pushed[u as usize].push((v, i));
                pushed[v as usize].push((u, i));
            }
            let full: Vec<usize> = pushed.iter().map(Vec::len).collect();
            for cap in [0, 1, 3, usize::MAX] {
                let cut: Vec<NodeId> = g.nodes().filter(|&v| full[v as usize] > cap).collect();
                for threads in [1, 2, 3, 8] {
                    let checked = std::sync::Mutex::new(Vec::new());
                    let (adj, degrees) = edge_ordered_adjacency(
                        g.num_nodes(),
                        &edges,
                        |&(u, v, i)| [(u, (v, i)), (v, (u, i))],
                        cap,
                        |v, list| {
                            assert_eq!(list, &pushed[v as usize][..cap], "cut list of {v}");
                            checked.lock().expect("no panic holds it").push(v);
                            true
                        },
                        threads,
                    )
                    .expect("every cut list passes");
                    let at = format!("cap {cap}, {threads} threads");
                    assert_eq!(degrees, full, "{at}");
                    for v in g.nodes() {
                        let whole = &pushed[v as usize];
                        assert_eq!(adj.list(v), &whole[..whole.len().min(cap)], "{at}");
                    }
                    let mut checked = checked.into_inner().expect("no panic holds it");
                    checked.sort_unstable();
                    assert_eq!(checked, cut, "the check runs on every cut list, {at}");
                    // One failing cut list fails the build.
                    if let Some(&last) = cut.last() {
                        let refused = edge_ordered_adjacency(
                            g.num_nodes(),
                            &edges,
                            |&(u, v, i)| [(u, (v, i)), (v, (u, i))],
                            cap,
                            |v, _| v != last,
                            threads,
                        );
                        assert!(refused.is_none(), "{at}");
                    }
                }
            }
        }
    }

    /// The striped ranking against the global sort, at 1 / 2 / 3 / 8
    /// threads, under a uniform hash and under two that tie often.
    fn assert_ranking_is_exact(g: &CsrGraph, seed: u64) {
        let uniform = |u, v| mix64(seed ^ crate::priorities::edge_key(u, v));
        // Ties within a bucket, and ties across the whole hash.
        let top_bits = |u, v| uniform(u, v) & (0xFFF << 52);
        let tiny = |u: NodeId, v: NodeId| (u as u64 + v as u64) % 3;
        let expect = [
            hash_ranked_edges_oracle(g, uniform),
            hash_ranked_edges_oracle(g, top_bits),
            hash_ranked_edges_oracle(g, tiny),
        ];
        for threads in [1, 2, 3, 8] {
            let got = [
                hash_ranked_edges(g, uniform, threads),
                hash_ranked_edges(g, top_bits, threads),
                hash_ranked_edges(g, tiny, threads),
            ];
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn ranking_is_exact_on_corner_shapes() {
        let mut lonely = ampc_graph::GraphBuilder::new(9);
        lonely.push_edge(3, 7, 0);
        // A directed graph: every arc is an edge, both directions too.
        let directed = CsrGraph::from_parts(vec![0, 2, 3, 3], vec![1, 2, 0], false);
        // Symmetric, with a loop stored as two arcs and a repeated edge.
        let multi = CsrGraph::from_parts(vec![0, 5, 7, 8], vec![0, 0, 1, 1, 2, 0, 0, 0], true);
        for g in [
            lonely.build(),
            directed,
            multi,
            gen::star(300),
            CsrGraph::empty(5),
            CsrGraph::empty(0),
        ] {
            assert_ranking_is_exact(&g, 0xA3C5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn ranking_is_exact_on_er_graphs(n in 2usize..300, m in 0usize..3000, seed in 0u64..1000) {
            assert_ranking_is_exact(&gen::erdos_renyi(n, m, seed), seed);
        }

        #[test]
        fn ranking_is_exact_on_skewed_rmat(m in 100usize..12_000, seed in 0u64..1000) {
            assert_ranking_is_exact(&gen::rmat(10, m, gen::RmatParams::SOCIAL, seed), seed);
        }
    }

    #[test]
    #[should_panic]
    fn edge_ordered_rejects_an_owner_out_of_range() {
        let arcs = |&(u, v): &(NodeId, NodeId)| [(u, v), (v, u)];
        edge_ordered_adjacency(3, &[(1, 3)], arcs, usize::MAX, |_, _| true, 2);
    }

    #[test]
    fn pack_range_matches_naive_for_every_thread_count() {
        let n = PAR_MIN + 1234;
        let pred = |i: usize| mix64(i as u64).is_multiple_of(3);
        let naive: Vec<u32> = (0..n).filter(|&i| pred(i)).map(|i| i as u32).collect();
        let mut out = Vec::new();
        for threads in [1, 2, 3, 8] {
            pack_range(n, pred, &mut out, threads);
            assert_eq!(out, naive, "threads = {threads}");
        }
    }

    #[test]
    fn filter_into_matches_naive_and_reuses_capacity() {
        let src: Vec<u64> = (0..PAR_MIN as u64 + 99).map(mix64).collect();
        let pred = |v: &u64| v.is_multiple_of(2);
        let naive: Vec<u64> = src.iter().copied().filter(pred).collect();
        let mut out = Vec::new();
        for threads in [1, 2, 8] {
            filter_into_with_threads(&src, pred, &mut out, threads);
            assert_eq!(out, naive, "threads = {threads}");
        }
        let cap = out.capacity();
        filter_into_with_threads(&src, pred, &mut out, 2);
        assert_eq!(out.capacity(), cap, "steady state must not reallocate");
    }

    #[test]
    fn small_inputs_take_the_sequential_path() {
        let mut out = Vec::new();
        pack_range(10, |i| i % 2 == 0, &mut out, 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        let mut f = Vec::new();
        filter_into(&[1u64, 2, 3, 4], |v| *v > 2, &mut f);
        assert_eq!(f, vec![3, 4]);
    }

    #[test]
    fn counting_sort_is_stable() {
        // (key, payload): payload order within a key must survive.
        let src: Vec<(usize, u64)> = (0..1000u64).map(|i| ((mix64(i) % 7) as usize, i)).collect();
        let (mut counts, mut out) = (Vec::new(), Vec::new());
        counting_sort_by_key(&src, 7, |t| t.0, &mut counts, &mut out);
        let mut naive = src.clone();
        naive.sort_by_key(|t| t.0); // sort_by_key is stable
        assert_eq!(out, naive);
        // Reuse: second call with the same scratch, different buckets.
        counting_sort_by_key(&src, 7, |t| t.0, &mut counts, &mut out);
        assert_eq!(out, naive);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut out = Vec::new();
        pack_range(0, |_| true, &mut out, 2);
        assert!(out.is_empty());
        let mut counts = Vec::new();
        let mut sorted: Vec<u64> = Vec::new();
        counting_sort_by_key(&[], 4, |_: &u64| 0, &mut counts, &mut sorted);
        assert!(sorted.is_empty());
    }
}
