//! Batch-dynamic update streams: deterministic, seeded sequences of
//! edge insertions/deletions applied in batches.
//!
//! The static sources ([`crate::GraphSource`]) describe one-shot
//! inputs; this module describes *workloads that change*: a base graph
//! plus a schedule of update batches, which the batch-dynamic kernels
//! (`ampc-core`'s maintained connectivity, `ampc-mpc`'s
//! recompute-from-scratch baseline) consume batch by batch. Everything
//! here is deterministic given the spec: the same
//! [`DynamicSource`] string, scale and seeds always produce the same
//! initial graph and the same update batches, which is what lets the
//! cross-model equivalence tests pin maintained labels byte-identical
//! to recomputation after every batch.
//!
//! # Grammar
//!
//! ```text
//! dyn:<base-source>:batches=B:ops=K[:mix=churn|insert|delete][:seed=S]
//! ```
//!
//! `<base-source>` is any static [`GraphSource`] (it may itself contain
//! `:`); trailing `key=value` segments are the schedule options.
//! Examples: `dyn:rmat:10,4000:batches=8:ops=256`,
//! `dyn:er:300,420:batches=3:ops=48:mix=delete:seed=7`.

use crate::datasets::Scale;
use crate::{CsrGraph, GraphBuilder, GraphSource, NodeId};
use ampc_dht::hasher::{mix64, FxHashMap};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;

/// Whether an update inserts or deletes an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdateKind {
    /// Add the edge (no-op if already present).
    Insert,
    /// Remove the edge (no-op if absent).
    Delete,
}

/// One edge update. Endpoints are stored canonically (`u < v`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeUpdate {
    /// Insert or delete.
    pub kind: UpdateKind,
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
}

/// One batch of updates, applied in order.
pub type UpdateBatch = Vec<EdgeUpdate>;

/// The insert/delete composition of a generated schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchMix {
    /// Roughly half inserts, half deletes (the default).
    Churn,
    /// Insertions only (the graph grows).
    InsertOnly,
    /// Deletions only (the graph shrinks toward empty).
    DeleteOnly,
}

impl BatchMix {
    /// The grammar token (`churn` / `insert` / `delete`).
    pub fn token(&self) -> &'static str {
        match self {
            BatchMix::Churn => "churn",
            BatchMix::InsertOnly => "insert",
            BatchMix::DeleteOnly => "delete",
        }
    }

    /// Parses a grammar token.
    pub fn parse(s: &str) -> Result<BatchMix, String> {
        match s.to_ascii_lowercase().as_str() {
            "churn" => Ok(BatchMix::Churn),
            "insert" | "inserts" => Ok(BatchMix::InsertOnly),
            "delete" | "deletes" => Ok(BatchMix::DeleteOnly),
            other => Err(format!("mix: expected churn|insert|delete, got {other:?}")),
        }
    }
}

/// Default schedule seed (decoupled from the algorithm seed so runtime
/// configuration never changes the workload).
pub const DEFAULT_SCHEDULE_SEED: u64 = 0xD15C;

/// The most updates, `batches × ops`, a dynamic source may schedule.
/// Each batch costs a job epoch besides its updates, so the costliest
/// stream is all batches: 2^18 batches of one update on `er:100,300`
/// peak at about 745 MiB RSS in a release `ampc run` (12 s on 2 cores).
pub const STREAM_BUDGET: usize = 1 << 18;

/// A parsed dynamic source: a static base graph plus an update-batch
/// schedule (see the module docs for the grammar).
#[derive(Clone, Debug, PartialEq)]
pub struct DynamicSource {
    /// The initial graph.
    pub base: GraphSource,
    /// Number of update batches.
    pub batches: usize,
    /// Updates per batch.
    pub ops: usize,
    /// Insert/delete composition.
    pub mix: BatchMix,
    /// Schedule seed.
    pub seed: u64,
}

/// A materialized dynamic workload.
#[derive(Clone, Debug)]
pub struct DynamicInstance {
    /// The graph before any update.
    pub initial: CsrGraph,
    /// The update batches, in application order.
    pub batches: Vec<UpdateBatch>,
}

impl DynamicSource {
    /// Parses a `dyn:` source string (see the module docs).
    pub fn parse(s: &str) -> Result<DynamicSource, String> {
        let s = s.trim();
        let rest = match s.split_once(':') {
            Some((head, rest)) if head.eq_ignore_ascii_case("dyn") => rest,
            _ => {
                return Err(format!(
                    "dynamic source must start with \"dyn:\", got {s:?}"
                ))
            }
        };
        // Trailing `key=value` segments are schedule options; everything
        // before them (rejoined on ':') is the base source.
        let segments: Vec<&str> = rest.split(':').collect();
        let is_option = |seg: &str| {
            ["batches=", "ops=", "mix=", "seed="]
                .iter()
                .any(|k| seg.len() > k.len() && seg.starts_with(k))
        };
        let mut split_at = segments.len();
        while split_at > 0 && is_option(segments[split_at - 1]) {
            split_at -= 1;
        }
        let base_str = segments[..split_at].join(":");
        if base_str.is_empty() {
            return Err("dyn: missing base graph source".into());
        }
        if base_str
            .split_once(':')
            .is_some_and(|(h, _)| h.eq_ignore_ascii_case("dyn"))
        {
            return Err("dyn: the base source may not itself be dynamic".into());
        }
        let base = GraphSource::parse(&base_str)?;
        let mut src = DynamicSource {
            base,
            batches: 4,
            ops: 64,
            mix: BatchMix::Churn,
            seed: DEFAULT_SCHEDULE_SEED,
        };
        let mut seen: Vec<&str> = Vec::new();
        for seg in &segments[split_at..] {
            let (key, value) = seg.split_once('=').expect("is_option checked");
            if seen.contains(&key) {
                return Err(format!("dyn: duplicate option {key:?}"));
            }
            seen.push(key);
            match key {
                "batches" => {
                    src.batches = value
                        .parse()
                        .map_err(|_| format!("dyn: bad batches {value:?}"))?;
                }
                "ops" => {
                    src.ops = value
                        .parse()
                        .map_err(|_| format!("dyn: bad ops {value:?}"))?;
                }
                "mix" => src.mix = BatchMix::parse(value)?,
                "seed" => {
                    src.seed = value
                        .parse()
                        .map_err(|_| format!("dyn: bad seed {value:?}"))?;
                }
                _ => unreachable!("is_option admits known keys only"),
            }
        }
        src.check()?;
        Ok(src)
    }

    /// Rejects an empty schedule, or one of more than [`STREAM_BUDGET`]
    /// updates (counted with `checked_mul`, so an overflowing product is
    /// rejected too).
    pub fn check(&self) -> Result<(), String> {
        if self.batches == 0 {
            return Err("dyn: batches must be >= 1".into());
        }
        if self.ops == 0 {
            return Err("dyn: ops must be >= 1".into());
        }
        match self.batches.checked_mul(self.ops) {
            Some(updates) if updates <= STREAM_BUDGET => Ok(()),
            _ => Err(format!(
                "dyn: {} batches of {} updates, over the stream budget of {STREAM_BUDGET} updates",
                self.batches, self.ops
            )),
        }
    }

    /// Canonical description; [`DynamicSource::parse`] round-trips it.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "dyn:{}:batches={}:ops={}",
            self.base.describe(),
            self.batches,
            self.ops
        );
        if self.mix != BatchMix::Churn {
            out.push_str(&format!(":mix={}", self.mix.token()));
        }
        if self.seed != DEFAULT_SCHEDULE_SEED {
            out.push_str(&format!(":seed={}", self.seed));
        }
        out
    }

    /// Materializes the workload: loads the base graph at `scale` with
    /// `graph_seed`, then generates the update schedule from the spec's
    /// own seed.
    pub fn generate(&self, scale: Scale, graph_seed: u64) -> Result<DynamicInstance, String> {
        let initial = self.base.load(scale, graph_seed)?;
        let batches = generate_batches(&initial, self.batches, self.ops, self.mix, self.seed);
        Ok(DynamicInstance { initial, batches })
    }
}

impl std::str::FromStr for DynamicSource {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DynamicSource::parse(s)
    }
}

/// Marks a base edge that is absent, and an `edges` entry that is not
/// a base edge.
const GONE: u32 = u32::MAX;

/// A mutable edge set over a fixed vertex domain `0..n`: the reference
/// state machine for batch application. Used by the schedule generator,
/// the recompute-from-scratch baseline and the equivalence tests, so
/// all of them agree on what a batch *means* (inserts of present edges
/// and deletes of absent edges are no-ops; updates within a batch apply
/// in order).
///
/// Only what changes is indexed. The edges of the graph the set was
/// built from (the *base*) are found by a binary search of one
/// vertex's list and tracked by position in arrays; a hash map holds
/// only the edges inserted since that are not base edges. The order of
/// [`EdgeSet::edges`] is first insertion, with `swap_remove` deletes:
/// `generate_batches` samples deletes by position in it, so that order
/// is part of every generated schedule (DESIGN.md §8).
#[derive(Clone, Debug)]
pub struct EdgeSet {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    /// `base[start[u]..start[u + 1]]` lists, ascending, the base edges
    /// `(u, v)` with `v > u`; an index into `base` is a base id.
    start: Vec<u32>,
    base: Vec<NodeId>,
    /// The `edges` position of each base edge, or `GONE`.
    at: Vec<u32>,
    /// The base id of each `edges` entry, or `GONE` for an edge not in
    /// the base; `swap_remove`d in lockstep with `edges`.
    ids: Vec<u32>,
    /// `edges` position of each present edge not in the base, by
    /// [`EdgeSet::key`]. Never iterated, so its order cannot reach a
    /// schedule.
    overlay: FxHashMap<u64, u32>,
}

impl EdgeSet {
    /// The edge set of an existing graph: its edges in
    /// [`CsrGraph::edges`] order, loops and repeats dropped, each pair
    /// canonical. Any graph [`CsrGraph::from_parts`] accepts will do.
    pub fn from_graph(g: &CsrGraph) -> Self {
        Self::from_upper_lists(g).unwrap_or_else(|| Self::from_edge_sequence(g))
    }

    /// The common case: a symmetric graph whose every list's upper part
    /// (`v > u`) is strictly ascending. Its edges are those upper parts
    /// in vertex order, so base ids are `edges` positions. This is one
    /// pass over the lists; `from_edge_sequence` makes several over a
    /// sorted copy of all edges, which on `ok` costs `dyncc-ok` about a
    /// fifth of its wall time.
    fn from_upper_lists(g: &CsrGraph) -> Option<Self> {
        if !g.is_symmetric() {
            return None;
        }
        let mut start = Vec::with_capacity(g.num_nodes() + 1);
        let mut base = Vec::with_capacity(g.num_edges());
        let mut edges = Vec::with_capacity(g.num_edges());
        start.push(0);
        for u in g.nodes() {
            let first = base.len();
            for &v in g.neighbors(u).iter().filter(|&&v| v > u) {
                if base.len() > first && base[base.len() - 1] >= v {
                    return None;
                }
                base.push(v);
                edges.push((u, v));
            }
            start.push(Self::id(base.len()));
        }
        let ids: Vec<u32> = (0..Self::id(base.len())).collect();
        Some(EdgeSet {
            n: g.num_nodes(),
            edges,
            start,
            base,
            at: ids.clone(),
            ids,
            overlay: FxHashMap::default(),
        })
    }

    /// Any other graph: the canonical non-loop pairs of
    /// [`CsrGraph::edges`], sorted to make the base lists and ordered by
    /// first occurrence to make `edges`.
    fn from_edge_sequence(g: &CsrGraph) -> Self {
        let mut seq: Vec<(NodeId, NodeId, u32)> = g
            .edges()
            .filter(|e| e.u != e.v)
            .enumerate()
            .map(|(i, e)| {
                let (u, v) = Self::canon(e.u, e.v);
                (u, v, Self::id(i))
            })
            .collect();
        // Each pair's first occurrence leads its run and is the one kept.
        seq.sort_unstable();
        seq.dedup_by_key(|&mut (u, v, _)| (u, v));
        let mut start = vec![0u32; g.num_nodes() + 1];
        for &(u, _, _) in &seq {
            start[u as usize + 1] += 1;
        }
        for u in 0..g.num_nodes() {
            start[u + 1] += start[u];
        }
        let base = seq.iter().map(|&(_, v, _)| v).collect();
        let mut ids: Vec<u32> = (0..Self::id(seq.len())).collect();
        ids.sort_unstable_by_key(|&b| seq[b as usize].2);
        let mut at = vec![GONE; seq.len()];
        for (i, &b) in ids.iter().enumerate() {
            at[b as usize] = Self::id(i);
        }
        EdgeSet {
            n: g.num_nodes(),
            edges: ids
                .iter()
                .map(|&b| (seq[b as usize].0, seq[b as usize].1))
                .collect(),
            start,
            base,
            at,
            ids,
            overlay: FxHashMap::default(),
        }
    }

    /// `i` as a base id or `edges` position, which `GONE` bounds.
    fn id(i: usize) -> u32 {
        u32::try_from(i)
            .ok()
            .filter(|&i| i != GONE)
            .expect("an edge set holds < 2^32 - 1 edges")
    }

    /// Vertex count of the domain.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Current number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edge is present.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    fn canon(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if u <= v {
            (u, v)
        } else {
            (v, u)
        }
    }

    fn in_range(&self, u: NodeId, v: NodeId) -> bool {
        (u as usize) < self.n && (v as usize) < self.n
    }

    /// The overlay key of the canonical edge `(u, v)`: the packed pair
    /// through `mix64`. Packed pairs differ mostly in their high half,
    /// and the multiplicative hasher slots by the low bits, so unmixed
    /// keys cluster; `mix64` is a bijection, so keys stay distinct.
    fn key((u, v): (NodeId, NodeId)) -> u64 {
        mix64((u64::from(u) << 32) | u64::from(v))
    }

    /// The base id of the canonical in-range pair `(u, v)`, if it is a
    /// base edge (present or not).
    fn base_id(&self, (u, v): (NodeId, NodeId)) -> Option<usize> {
        let lo = self.start[u as usize] as usize;
        let hi = self.start[u as usize + 1] as usize;
        self.base[lo..hi].binary_search(&v).ok().map(|i| lo + i)
    }

    /// The `edges` position of the canonical in-range pair, if present.
    fn position(&self, edge: (NodeId, NodeId)) -> Option<usize> {
        match self.base_id(edge) {
            Some(b) => (self.at[b] != GONE).then_some(self.at[b] as usize),
            None => self.overlay.get(&Self::key(edge)).map(|&i| i as usize),
        }
    }

    /// Whether the edge is present. An out-of-range pair is not.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.in_range(u, v) && self.position(Self::canon(u, v)).is_some()
    }

    /// Inserts the edge; returns whether it was absent. Self-loops are
    /// rejected (`false`).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, as [`GraphBuilder`] does.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            self.in_range(u, v),
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        if u == v {
            return false;
        }
        let edge = Self::canon(u, v);
        let at = Self::id(self.edges.len());
        let id = match self.base_id(edge) {
            Some(b) if self.at[b] != GONE => return false,
            Some(b) => {
                self.at[b] = at;
                b as u32
            }
            None => match self.overlay.entry(Self::key(edge)) {
                Entry::Occupied(_) => return false,
                Entry::Vacant(slot) => {
                    slot.insert(at);
                    GONE
                }
            },
        };
        self.edges.push(edge);
        self.ids.push(id);
        true
    }

    /// Removes the edge; returns whether it was present. An out-of-range
    /// pair is not.
    pub fn remove(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.in_range(u, v) {
            return false;
        }
        match self.position(Self::canon(u, v)) {
            None => false,
            Some(i) => {
                self.remove_at(i);
                true
            }
        }
    }

    /// Removes `edges[i]`, moving the last edge into its place.
    fn remove_at(&mut self, i: usize) {
        let edge = self.edges.swap_remove(i);
        match self.ids.swap_remove(i) {
            GONE => {
                self.overlay.remove(&Self::key(edge));
            }
            b => self.at[b as usize] = GONE,
        }
        if let Some(&moved) = self.edges.get(i) {
            match self.ids[i] {
                GONE => {
                    self.overlay.insert(Self::key(moved), i as u32);
                }
                b => self.at[b as usize] = i as u32,
            }
        }
    }

    /// Applies one batch, in order.
    ///
    /// # Panics
    /// Panics if an insert has an endpoint out of range
    /// ([`EdgeSet::insert`]).
    pub fn apply(&mut self, batch: &[EdgeUpdate]) {
        for up in batch {
            match up.kind {
                UpdateKind::Insert => {
                    self.insert(up.u, up.v);
                }
                UpdateKind::Delete => {
                    self.remove(up.u, up.v);
                }
            }
        }
    }

    /// The current edge list: canonical endpoints, in insertion order
    /// except that a delete moves the last edge into the freed slot.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Materializes the current state as a [`CsrGraph`] (sorted
    /// adjacency — a pure function of the edge *set*, independent of
    /// the update history that produced it).
    pub fn snapshot(&self) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(self.n, self.edges.len());
        for &(u, v) in &self.edges {
            b.push_edge(u, v, 0);
        }
        b.build()
    }
}

/// Splitmix-style scramble for per-batch RNG streams.
fn scramble(seed: u64, batch: usize) -> u64 {
    let mut z = seed ^ (batch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates a deterministic seeded update schedule against `initial`:
/// `batches` batches of `ops` updates each. Inserts always target
/// currently-absent pairs and deletes currently-present edges (with the
/// obvious fallbacks when the graph is full or empty), so every
/// generated update is *effective* at generation time — batches replay
/// to the same state on any consumer that applies them in order.
pub fn generate_batches(
    initial: &CsrGraph,
    batches: usize,
    ops: usize,
    mix: BatchMix,
    seed: u64,
) -> Vec<UpdateBatch> {
    let n = initial.num_nodes();
    let mut state = EdgeSet::from_graph(initial);
    let mut out = Vec::with_capacity(batches);
    for b in 0..batches {
        let mut rng = SmallRng::seed_from_u64(scramble(seed, b));
        let mut batch = Vec::with_capacity(ops);
        if n < 2 {
            out.push(batch);
            continue;
        }
        for _ in 0..ops {
            let want_insert = match mix {
                BatchMix::InsertOnly => true,
                BatchMix::DeleteOnly => false,
                BatchMix::Churn => rng.gen_range(0..2u32) == 0,
            };
            let up = if want_insert {
                sample_insert(&mut rng, &mut state, n)
                    .or_else(|| sample_delete(&mut rng, &mut state))
            } else {
                sample_delete(&mut rng, &mut state)
                    .or_else(|| sample_insert(&mut rng, &mut state, n))
            };
            if let Some(up) = up {
                batch.push(up);
            }
        }
        out.push(batch);
    }
    out
}

/// Tries to sample (and apply) an insertion of an absent pair.
fn sample_insert(rng: &mut SmallRng, state: &mut EdgeSet, n: usize) -> Option<EdgeUpdate> {
    for _ in 0..64 {
        let u = rng.gen_range(0..n as NodeId);
        let v = rng.gen_range(0..n as NodeId);
        if u != v && state.insert(u, v) {
            let (u, v) = EdgeSet::canon(u, v);
            return Some(EdgeUpdate {
                kind: UpdateKind::Insert,
                u,
                v,
            });
        }
    }
    None
}

/// Tries to sample (and apply) a deletion of a present edge.
fn sample_delete(rng: &mut SmallRng, state: &mut EdgeSet) -> Option<EdgeUpdate> {
    if state.is_empty() {
        return None;
    }
    let i = rng.gen_range(0..state.len());
    let (u, v) = state.edges[i];
    state.remove_at(i);
    Some(EdgeUpdate {
        kind: UpdateKind::Delete,
        u,
        v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;

    #[test]
    fn parses_full_spec() {
        let s = DynamicSource::parse("dyn:rmat:10,4000,web:batches=8:ops=256:mix=insert:seed=9")
            .unwrap();
        assert_eq!(s.batches, 8);
        assert_eq!(s.ops, 256);
        assert_eq!(s.mix, BatchMix::InsertOnly);
        assert_eq!(s.seed, 9);
        assert_eq!(
            s.base,
            GraphSource::parse("rmat:10,4000,web").unwrap(),
            "base source keeps its own colons"
        );
    }

    #[test]
    fn parse_defaults_and_round_trip() {
        for spec in [
            "dyn:er:100,250:batches=3:ops=16",
            "dyn:cycle:500:batches=1:ops=1:mix=delete",
            "dyn:two-cycles:64:batches=2:ops=8:seed=77",
            "dyn:rmat:8,1500:batches=5:ops=32:mix=insert:seed=3",
        ] {
            let parsed = DynamicSource::parse(spec).unwrap();
            assert_eq!(
                DynamicSource::parse(&parsed.describe()).unwrap(),
                parsed,
                "{spec}"
            );
        }
        let d = DynamicSource::parse("dyn:er:10,5").unwrap();
        assert_eq!((d.batches, d.ops), (4, 64));
        assert_eq!(d.mix, BatchMix::Churn);
        assert_eq!(d.seed, DEFAULT_SCHEDULE_SEED);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "er:10,5",                         // no dyn: prefix
            "dyn:",                            // no base
            "dyn:batches=2:ops=4",             // options but no base
            "dyn:wat:batches=2:ops=4",         // unknown base
            "dyn:er:10,5:batches=0:ops=4",     // zero batches
            "dyn:er:10,5:batches=2:ops=0",     // zero ops
            "dyn:er:10,5:batches=x:ops=4",     // bad number
            "dyn:er:10,5:mix=sideways",        // bad mix
            "dyn:er:10,5:seed=ten",            // bad seed
            "dyn:er:10,5:ops=4:ops=5",         // duplicate option
            "dyn:dyn:er:10,5:batches=2:ops=4", // nested dyn
        ] {
            assert!(DynamicSource::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// A stream over [`STREAM_BUDGET`] is a one-line `Err`, not an
    /// abort in the kernel, whether its updates come as one batch or
    /// as many.
    #[test]
    fn rejects_a_batch_of_too_many_updates() {
        let err = DynamicSource::parse("dyn:er:100,300:batches=1:ops=100000000").unwrap_err();
        assert!(
            err.contains("stream budget") && !err.contains('\n'),
            "{err}"
        );
    }

    #[test]
    fn rejects_too_many_batches() {
        let err = DynamicSource::parse("dyn:er:100,300:batches=100000000:ops=1").unwrap_err();
        assert!(
            err.contains("stream budget") && !err.contains('\n'),
            "{err}"
        );
        let overflowing = format!("dyn:er:100,300:batches={}:ops=2", usize::MAX);
        assert!(DynamicSource::parse(&overflowing).is_err());
        assert!(DynamicSource::parse("dyn:er:100,300:batches=512:ops=512").is_ok());
    }

    #[test]
    fn schedule_is_deterministic_and_effective() {
        let g = gen::erdos_renyi(60, 120, 3);
        let a = generate_batches(&g, 5, 40, BatchMix::Churn, 7);
        let b = generate_batches(&g, 5, 40, BatchMix::Churn, 7);
        assert_eq!(a, b);
        assert_ne!(a, generate_batches(&g, 5, 40, BatchMix::Churn, 8));

        // Replaying the schedule: every op flips presence (generation
        // only emits effective ops).
        let mut state = EdgeSet::from_graph(&g);
        for batch in &a {
            for up in batch {
                match up.kind {
                    UpdateKind::Insert => assert!(state.insert(up.u, up.v), "{up:?}"),
                    UpdateKind::Delete => assert!(state.remove(up.u, up.v), "{up:?}"),
                }
            }
        }
    }

    /// A digest of every update of `batches`, batch boundaries included.
    fn schedule_digest(batches: &[UpdateBatch]) -> u64 {
        batches.iter().fold(0, |h, batch| {
            batch.iter().fold(mix64(h ^ batch.len() as u64), |h, up| {
                let kind = matches!(up.kind, UpdateKind::Insert) as u64;
                mix64(mix64(mix64(h ^ kind) ^ u64::from(up.u)) ^ u64::from(up.v))
            })
        })
    }

    /// The generated schedules of all three mixes on a fixed skewed
    /// RMAT graph, pinned: how `EdgeSet` indexes its edges must not
    /// move a single generated update.
    #[test]
    fn schedules_are_pinned() {
        let g = gen::rmat(10, 6000, gen::RmatParams::SOCIAL, 3);
        for (mix, want) in [
            (BatchMix::Churn, 18249671944524212090),
            (BatchMix::InsertOnly, 17950228800928571306),
            (BatchMix::DeleteOnly, 14489140619863669599),
        ] {
            let batches = generate_batches(&g, 8, 400, mix, 20);
            assert_eq!(schedule_digest(&batches), want, "{mix:?}");
        }
    }

    #[test]
    fn mixes_shape_the_edge_count() {
        let g = gen::erdos_renyi(80, 100, 1);
        let mut grow = EdgeSet::from_graph(&g);
        for batch in generate_batches(&g, 3, 50, BatchMix::InsertOnly, 2) {
            grow.apply(&batch);
        }
        assert_eq!(grow.len(), g.num_edges() + 150);

        let mut shrink = EdgeSet::from_graph(&g);
        for batch in generate_batches(&g, 3, 50, BatchMix::DeleteOnly, 2) {
            shrink.apply(&batch);
        }
        assert_eq!(shrink.len(), 0, "100 edges, 150 deletes: drains fully");
    }

    /// The hash-indexed `EdgeSet` that indexed every edge, and the
    /// schedule generator over it, kept verbatim (less the vertex count
    /// only `snapshot` read) as the oracle of
    /// `edge_set_matches_the_hash_indexed_oracle`.
    mod oracle {
        use super::super::{scramble, BatchMix, EdgeUpdate, UpdateBatch, UpdateKind};
        use crate::{CsrGraph, NodeId};
        use ampc_dht::hasher::{mix64, FxHashMap};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::hash_map::Entry;

        #[derive(Clone, Debug)]
        pub struct EdgeSet {
            edges: Vec<(NodeId, NodeId)>,
            index: FxHashMap<u64, u32>,
        }

        impl EdgeSet {
            pub fn from_graph(g: &CsrGraph) -> Self {
                let mut s = EdgeSet {
                    edges: Vec::with_capacity(g.num_edges()),
                    index: FxHashMap::with_capacity_and_hasher(g.num_edges(), Default::default()),
                };
                for e in g.edges() {
                    s.insert(e.u, e.v);
                }
                s
            }

            pub fn len(&self) -> usize {
                self.edges.len()
            }

            pub fn is_empty(&self) -> bool {
                self.edges.is_empty()
            }

            fn canon(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
                if u <= v {
                    (u, v)
                } else {
                    (v, u)
                }
            }

            fn key((u, v): (NodeId, NodeId)) -> u64 {
                mix64((u64::from(u) << 32) | u64::from(v))
            }

            pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
                self.index.contains_key(&Self::key(Self::canon(u, v)))
            }

            pub fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
                if u == v {
                    return false;
                }
                let edge = Self::canon(u, v);
                let at = u32::try_from(self.edges.len()).expect("an edge set holds < 2^32 edges");
                match self.index.entry(Self::key(edge)) {
                    Entry::Occupied(_) => false,
                    Entry::Vacant(slot) => {
                        slot.insert(at);
                        self.edges.push(edge);
                        true
                    }
                }
            }

            pub fn remove(&mut self, u: NodeId, v: NodeId) -> bool {
                match self.index.remove(&Self::key(Self::canon(u, v))) {
                    None => false,
                    Some(i) => {
                        self.edges.swap_remove(i as usize);
                        if let Some(&moved) = self.edges.get(i as usize) {
                            self.index.insert(Self::key(moved), i);
                        }
                        true
                    }
                }
            }

            pub fn apply(&mut self, batch: &[EdgeUpdate]) {
                for up in batch {
                    match up.kind {
                        UpdateKind::Insert => {
                            self.insert(up.u, up.v);
                        }
                        UpdateKind::Delete => {
                            self.remove(up.u, up.v);
                        }
                    }
                }
            }

            pub fn edges(&self) -> &[(NodeId, NodeId)] {
                &self.edges
            }
        }

        pub fn generate_batches(
            initial: &CsrGraph,
            batches: usize,
            ops: usize,
            mix: BatchMix,
            seed: u64,
        ) -> Vec<UpdateBatch> {
            let n = initial.num_nodes();
            let mut state = EdgeSet::from_graph(initial);
            let mut out = Vec::with_capacity(batches);
            for b in 0..batches {
                let mut rng = SmallRng::seed_from_u64(scramble(seed, b));
                let mut batch = Vec::with_capacity(ops);
                if n < 2 {
                    out.push(batch);
                    continue;
                }
                for _ in 0..ops {
                    let want_insert = match mix {
                        BatchMix::InsertOnly => true,
                        BatchMix::DeleteOnly => false,
                        BatchMix::Churn => rng.gen_range(0..2u32) == 0,
                    };
                    let up = if want_insert {
                        sample_insert(&mut rng, &mut state, n)
                            .or_else(|| sample_delete(&mut rng, &mut state))
                    } else {
                        sample_delete(&mut rng, &mut state)
                            .or_else(|| sample_insert(&mut rng, &mut state, n))
                    };
                    if let Some(up) = up {
                        batch.push(up);
                    }
                }
                out.push(batch);
            }
            out
        }

        fn sample_insert(rng: &mut SmallRng, state: &mut EdgeSet, n: usize) -> Option<EdgeUpdate> {
            for _ in 0..64 {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                if u != v && state.insert(u, v) {
                    let (u, v) = EdgeSet::canon(u, v);
                    return Some(EdgeUpdate {
                        kind: UpdateKind::Insert,
                        u,
                        v,
                    });
                }
            }
            None
        }

        fn sample_delete(rng: &mut SmallRng, state: &mut EdgeSet) -> Option<EdgeUpdate> {
            if state.is_empty() {
                return None;
            }
            let (u, v) = state.edges[rng.gen_range(0..state.len())];
            state.remove(u, v);
            Some(EdgeUpdate {
                kind: UpdateKind::Delete,
                u,
                v,
            })
        }
    }

    /// A graph [`CsrGraph::from_parts`] accepts: `arcs` grouped by
    /// source in their drawn order (unsorted, repeated, loops), or each
    /// list sorted and deduplicated, with either symmetry flag and no
    /// promise that the lists are mutual.
    fn parts_graph(n: usize, arcs: &[(NodeId, NodeId)], sorted: bool, symmetric: bool) -> CsrGraph {
        let mut lists = vec![Vec::new(); n];
        for &(u, v) in arcs {
            lists[u as usize].push(v);
        }
        if sorted {
            for list in &mut lists {
                list.sort_unstable();
                list.dedup();
            }
        }
        if symmetric && lists.iter().map(Vec::len).sum::<usize>() % 2 == 1 {
            // A symmetric CSR holds an even number of arcs.
            lists
                .iter_mut()
                .rev()
                .find(|l| !l.is_empty())
                .unwrap()
                .pop();
        }
        let mut offsets = vec![0];
        for list in &lists {
            offsets.push(offsets.last().unwrap() + list.len());
        }
        CsrGraph::from_parts(offsets, lists.concat(), symmetric)
    }

    /// Builder graphs (undirected and directed) and raw `from_parts`
    /// graphs of the four list shapes.
    fn arb_graph() -> impl Strategy<Value = CsrGraph> {
        (1usize..24)
            .prop_flat_map(|n| {
                let arcs = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..120);
                (Just(n), arcs, 0u8..6)
            })
            .prop_map(|(n, arcs, shape)| match shape {
                0 | 1 => {
                    let mut b = GraphBuilder::new(n);
                    for &(u, v) in &arcs {
                        b.push_edge(u, v, 0);
                    }
                    if shape == 1 {
                        b = b.directed();
                    }
                    b.build()
                }
                _ => parts_graph(n, &arcs, shape >= 4, shape % 2 == 0),
            })
    }

    /// One step of a differential run. Pairs are drawn in `0..n`, so
    /// reversed endpoints, loops and base edges all come up often.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(NodeId, NodeId),
        Remove(NodeId, NodeId),
        Contains(NodeId, NodeId),
        /// Remove by position, as `sample_delete` does.
        RemoveAt(usize),
        /// Delete base edge `k` (mod the base size), then re-insert it,
        /// reversed when the flag is set.
        Reinsert(usize, bool),
        Apply(Vec<(bool, NodeId, NodeId)>),
    }

    fn arb_op(n: usize) -> impl Strategy<Value = Op> {
        let n = n as NodeId;
        let batch = proptest::collection::vec((0u8..2, 0..n, 0..n), 0..8);
        (0u8..13, (0..n, 0..n), 0..usize::MAX, batch).prop_map(|(kind, (u, v), pick, batch)| {
            match kind {
                0..=2 => Op::Insert(u, v),
                3..=5 => Op::Remove(u, v),
                6 | 7 => Op::Contains(u, v),
                8 | 9 => Op::RemoveAt(pick),
                10 | 11 => Op::Reinsert(pick, u < v),
                _ => Op::Apply(batch.into_iter().map(|(k, u, v)| (k == 1, u, v)).collect()),
            }
        })
    }

    fn arb_run() -> impl Strategy<Value = (CsrGraph, Vec<Op>, u64)> {
        arb_graph().prop_flat_map(|g| {
            let ops = proptest::collection::vec(arb_op(g.num_nodes()), 0..80);
            (Just(g), ops, 0..u64::MAX)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every answer, `len` and the whole `edges()` order agree with
        /// the hash-indexed oracle after every step, and so do the
        /// generated schedules of all three mixes.
        #[test]
        fn edge_set_matches_the_hash_indexed_oracle((g, ops, seed) in arb_run()) {
            let mut set = EdgeSet::from_graph(&g);
            let mut want = oracle::EdgeSet::from_graph(&g);
            prop_assert_eq!(set.edges(), want.edges(), "from_graph");
            let base = want.edges().to_vec();
            for op in &ops {
                match *op {
                    Op::Insert(u, v) => prop_assert_eq!(set.insert(u, v), want.insert(u, v), "{:?}", op),
                    Op::Remove(u, v) => prop_assert_eq!(set.remove(u, v), want.remove(u, v), "{:?}", op),
                    Op::Contains(u, v) => {
                        prop_assert_eq!(set.contains(u, v), want.contains(u, v), "{:?}", op)
                    }
                    Op::RemoveAt(i) if !want.is_empty() => {
                        let i = i % want.len();
                        let (u, v) = want.edges()[i];
                        set.remove_at(i);
                        want.remove(u, v);
                    }
                    Op::Reinsert(k, flip) if !base.is_empty() => {
                        let (u, v) = base[k % base.len()];
                        let (u, v) = if flip { (v, u) } else { (u, v) };
                        prop_assert_eq!(set.remove(u, v), want.remove(u, v), "{:?}", op);
                        prop_assert_eq!(set.insert(u, v), want.insert(u, v), "{:?}", op);
                    }
                    Op::Apply(ref batch) => {
                        let batch: Vec<EdgeUpdate> = batch
                            .iter()
                            .map(|&(insert, u, v)| EdgeUpdate {
                                kind: if insert { UpdateKind::Insert } else { UpdateKind::Delete },
                                u,
                                v,
                            })
                            .collect();
                        set.apply(&batch);
                        want.apply(&batch);
                    }
                    Op::RemoveAt(_) | Op::Reinsert(..) => {}
                }
                prop_assert_eq!(set.len(), want.len(), "{:?}", op);
                prop_assert_eq!(set.edges(), want.edges(), "{:?}", op);
            }
            for mix in [BatchMix::Churn, BatchMix::InsertOnly, BatchMix::DeleteOnly] {
                prop_assert_eq!(
                    generate_batches(&g, 3, 24, mix, seed),
                    oracle::generate_batches(&g, 3, 24, mix, seed),
                    "{:?}", mix
                );
            }
        }
    }

    /// `EdgeUpdate`'s fields are public, so a batch can name any pair:
    /// an out-of-range one is never present, and removing it is a no-op.
    #[test]
    fn out_of_range_pairs_are_absent() {
        let mut s = EdgeSet::from_graph(&gen::path(4));
        for (u, v) in [
            (0, 4),
            (4, 0),
            (4, 4),
            (1, NodeId::MAX),
            (NodeId::MAX, NodeId::MAX),
        ] {
            assert!(!s.contains(u, v), "({u}, {v})");
            assert!(!s.remove(u, v), "({u}, {v})");
        }
        s.apply(&[EdgeUpdate {
            kind: UpdateKind::Delete,
            u: 2,
            v: 9,
        }]);
        assert_eq!(s.edges(), &[(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "edge (1, 4) out of range for n = 4")]
    fn inserting_an_out_of_range_pair_panics() {
        EdgeSet::from_graph(&gen::path(4)).insert(1, 4);
    }

    #[test]
    fn edge_set_snapshot_matches_builder_semantics() {
        let g = gen::erdos_renyi(40, 90, 5);
        let state = EdgeSet::from_graph(&g);
        assert_eq!(state.snapshot(), g);

        let mut s = EdgeSet::from_graph(&CsrGraph::empty(4));
        assert!(s.insert(3, 1));
        assert!(!s.insert(1, 3), "idempotent");
        assert!(!s.insert(2, 2), "self-loop rejected");
        assert!(s.contains(1, 3));
        assert!(s.remove(1, 3));
        assert!(!s.remove(1, 3));
        assert_eq!(s.snapshot(), CsrGraph::empty(4));
    }

    #[test]
    fn generate_loads_base_at_scale() {
        let src = DynamicSource::parse("dyn:er:50,80:batches=2:ops=10").unwrap();
        let inst = src.generate(Scale::Test, 11).unwrap();
        assert_eq!(inst.initial.num_nodes(), 50);
        assert_eq!(inst.batches.len(), 2);
        assert!(inst.batches.iter().all(|b| b.len() <= 10));
    }
}
