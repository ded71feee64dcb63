//! Batch-dynamic connectivity in the AMPC model.
//!
//! The static kernels answer one-shot queries; this module *maintains*
//! connected-component labels across a stream of edge-update batches
//! (cf. Durfee et al., "Parallel Batch-Dynamic Graphs: Algorithms and
//! Lower Bounds"), mapping the batch-dynamic round structure onto the
//! workspace's AMPC substrate:
//!
//! * **One epoch per batch.** Each update batch runs as one
//!   [`Job::epoch`]: an adaptive *classify* KV round that reads the
//!   endpoints' labels from the previous epoch's sealed DHT generation
//!   (one batched lookup per machine), local *apply*/*repair* stages,
//!   and a *publish* KV-write round whose sealed generation becomes the
//!   next epoch's read snapshot. The DHT generation sequence `D0, D1, …`
//!   is therefore exactly the epoch sequence, of which only the newest
//!   generation is live: publishing drops the previous epoch's, so the
//!   store holds one batch's labels however long the stream. The §2
//!   fault-tolerance story (replay against sealed inputs) carries over
//!   unchanged, because a replayed machine reruns inside its round,
//!   against the generation that round was handed.
//! * **Work proportional to what a batch touches.** A spanning forest
//!   of the current graph is kept beside the labels, as one ascending
//!   list of tree neighbours per vertex. Non-tree deletes and
//!   intra-component inserts cost O(1). An insert joining two
//!   components links them and relabels the one with the larger label.
//!   A deleted forest edge is repaired by searching both sides of the
//!   cut in lockstep: the side exhausted first is scanned for a
//!   replacement edge, so a cut costs what its smaller side costs
//!   (Durfee et al.'s bound) unless that side held the old minimum and
//!   the other must be relabelled. The recompute-from-scratch baseline
//!   (`ampc_mpc::dynamic`) pays O(n + m) per batch.
//! * **Canonical labels.** Labels are always the minimum vertex id of
//!   the component — the same canonical form every static connectivity
//!   implementation in the workspace produces — so maintained labels
//!   are **byte-identical** to recomputation after every batch, which
//!   is what the cross-model equivalence suites pin.

use ampc_dht::store::{Dht, GenerationWriter};
use ampc_graph::dynamic::{EdgeSet, EdgeUpdate, UpdateBatch, UpdateKind};
use ampc_graph::{CsrGraph, NodeId, NO_NODE};
use ampc_runtime::Job;

/// The in-job kernel body: maintains component labels across `batches`,
/// one epoch (= one sealed DHT generation) per batch, returning the
/// labelling after the initial build and after every batch.
pub fn ampc_dynamic_cc_in_job(
    job: &mut Job,
    g: &CsrGraph,
    batches: &[UpdateBatch],
) -> Vec<Vec<NodeId>> {
    let mut out = Vec::with_capacity(batches.len() + 1);
    let mut dht: Dht<u64> = Dht::new();

    // Epoch 0: load the input, solve it, publish generation D1.
    job.epoch("DynInit");
    job.shuffle_balanced("DynLoad", (g.num_arcs() as u64) * 8);
    let mut state = job.local(
        "DynInitCC",
        ((g.num_nodes() + g.num_arcs()) as u64 + 1) * 8,
        || DynState::build(g),
    );
    publish(job, &mut dht, "DynPublish-b0", &state.labels);
    out.push(state.labels.clone());

    for (bi, batch) in batches.iter().enumerate() {
        let b = bi + 1;
        job.epoch(&format!("DynEpoch-b{b}"));

        // Classify: each machine reads its updates' endpoint labels
        // from the previous epoch's sealed generation in one batched
        // (adaptive) lookup.
        let pre_labels: Vec<(NodeId, NodeId)> = job.kv_round(
            &format!("DynClassify-b{b}"),
            dht.current(),
            None,
            batch.clone(),
            |ctx, items| {
                // Key and value buffers live in the machine's scratch
                // arena, so classify reuses them across batches; labels
                // are fixed-size (`u64`), so the visitor copies them
                // straight out of the sealed layout — no Option buffer,
                // no per-batch allocation.
                ctx.scratch.keys.clear();
                ctx.scratch
                    .keys
                    .extend(items.iter().flat_map(|up| [up.u as u64, up.v as u64]));
                let (keys, vals) = (&ctx.scratch.keys, &mut ctx.scratch.vals);
                vals.clear();
                ctx.handle.get_many_with(keys, |_, v| {
                    vals.push(*v.expect("every vertex has a label"));
                });
                (0..items.len())
                    .map(|i| (vals[2 * i] as NodeId, vals[2 * i + 1] as NodeId))
                    .collect()
            },
        );

        let changes = job.local(
            &format!("DynApply-b{b}"),
            (batch.len() as u64 + 1) * 8,
            || state.apply(batch, &pre_labels),
        );
        if !changes.is_empty() {
            job.local_counted(&format!("DynRepair-b{b}"), || {
                let cost = state.repair(&changes);
                ((), (cost.touched + 1) * 8)
            });
        }

        // Publish: every machine writes its slice of the labelling; the
        // sealed generation is this epoch's snapshot.
        publish(job, &mut dht, &format!("DynPublish-b{b}"), &state.labels);
        out.push(state.labels.clone());
    }
    out
}

/// One KV-write round putting the full labelling, sealed into the next
/// generation.
fn publish(job: &mut Job, dht: &mut Dht<u64>, name: &str, labels: &[NodeId]) {
    let writer = GenerationWriter::new();
    job.kv_round(
        name,
        dht.current(),
        Some(&writer),
        (0..labels.len() as u64).collect(),
        |ctx, items: &[u64]| {
            ctx.handle
                .put_many(items.iter().map(|&v| (v, labels[v as usize] as u64)));
            Vec::<()>::new()
        },
    );
    dht.push(writer.seal());
}

/// A change to the spanning forest that `DynApply` finds and
/// `DynRepair` resolves, in batch order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Change {
    /// A deleted forest edge `u < v`.
    Cut(NodeId, NodeId),
    /// An inserted edge `u < v` whose endpoints carried different
    /// labels before the batch.
    Join(NodeId, NodeId),
}

/// What one `DynRepair` did: the vertices and arcs it touched, and how
/// many cuts put the old minimum on the smaller side, so that the
/// other side was walked once more for its own minimum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RepairCost {
    touched: u64,
    fallbacks: u64,
}

/// The host state the kernel maintains between batches.
struct DynState {
    /// The current adjacency: strictly ascending lists, so every
    /// iteration order — and with it every downstream stat — is
    /// deterministic.
    adj: Vec<Vec<NodeId>>,
    /// A spanning forest of `adj`: each vertex's tree neighbours,
    /// ascending.
    tree: Vec<Vec<NodeId>>,
    /// The canonical labels: each forest tree's minimum vertex.
    labels: Vec<NodeId>,
}

impl DynState {
    /// Copies `g`'s lists and solves them from scratch.
    fn build(g: &CsrGraph) -> DynState {
        let n = g.num_nodes();
        // `GraphBuilder` output is already sorted and deduplicated, so
        // this is a copy; `CsrGraph::from_parts` promises neither.
        let adj: Vec<Vec<NodeId>> = g
            .nodes()
            .map(|u| {
                let mut list = g.neighbors(u).to_vec();
                list.sort_unstable();
                list.dedup();
                list
            })
            .collect();
        let mut state = DynState {
            adj,
            tree: vec![Vec::new(); n],
            labels: (0..n as NodeId).collect(),
        };
        let region: Vec<NodeId> = (0..n as NodeId).collect();
        rebuild_region(
            &region,
            &state.adj,
            &mut vec![0; n],
            &mut state.labels,
            &mut state.tree,
        );
        state
    }

    /// Applies `batch` in order to the adjacency and returns, in order,
    /// each forest edge it deleted and each insert that joins two
    /// labels. Neither labels nor forest change here: `pre_labels` (the
    /// endpoints' labels read from the DHT) equal the host's.
    fn apply(&mut self, batch: &[EdgeUpdate], pre_labels: &[(NodeId, NodeId)]) -> Vec<Change> {
        let mut changes = Vec::new();
        for (up, &(lu, lv)) in batch.iter().zip(pre_labels) {
            debug_assert_eq!(
                lu, self.labels[up.u as usize],
                "DHT label drifted from host"
            );
            debug_assert_eq!(
                lv, self.labels[up.v as usize],
                "DHT label drifted from host"
            );
            // `EdgeUpdate`'s fields are public, so an update may arrive
            // reversed or as a self-loop: canonicalise and skip loops
            // exactly as `EdgeSet` does, or a reversed delete would miss
            // its tree edge and a loop insert would land twice in one
            // list.
            if up.u == up.v {
                continue;
            }
            let (u, v) = (up.u.min(up.v), up.u.max(up.v));
            match up.kind {
                UpdateKind::Insert => {
                    if insert_sorted(&mut self.adj[u as usize], v) {
                        insert_sorted(&mut self.adj[v as usize], u);
                        if lu != lv {
                            changes.push(Change::Join(u, v));
                        }
                    }
                }
                UpdateKind::Delete => {
                    if remove_sorted(&mut self.adj[u as usize], v) {
                        remove_sorted(&mut self.adj[v as usize], u);
                        if self.tree[u as usize].binary_search(&v).is_ok() {
                            changes.push(Change::Cut(u, v));
                        }
                    }
                }
            }
        }
        changes
    }

    /// Resolves `changes` in order against the post-batch adjacency.
    /// Each keeps the forest a forest whose trees carry canonical
    /// labels, and no edge of the adjacency ever ends up between two
    /// trees; once all are resolved, the forest spans the graph.
    fn repair(&mut self, changes: &[Change]) -> RepairCost {
        let mut cost = RepairCost::default();
        for &change in changes {
            match change {
                Change::Cut(u, v) => self.cut(u, v, &mut cost),
                Change::Join(u, v) => self.join(u, v, &mut cost),
            }
        }
        cost
    }

    /// Removes the tree edge `(u, v)` and reconnects or relabels the
    /// two sides.
    fn cut(&mut self, u: NodeId, v: NodeId, cost: &mut RepairCost) {
        // The same edge deleted twice in one batch is cut once.
        if !remove_sorted(&mut self.tree[u as usize], v) {
            return;
        }
        remove_sorted(&mut self.tree[v as usize], u);
        let old = self.labels[u as usize];

        // One tree arc from each side in turn, so a hub on the larger
        // side costs no more than the smaller side does.
        let (mut a, mut b) = (Walk::new(u), Walk::new(v));
        let small_is_u = loop {
            if !a.step(&self.tree) {
                break true;
            }
            if !b.step(&self.tree) {
                break false;
            }
        };
        cost.touched += a.cost() + b.cost();
        let (mut side, other) = if small_is_u { (a.seen, v) } else { (b.seen, u) };
        side.sort_unstable();

        // Every vertex of the split tree is labelled `old`. With the
        // small side's labels parked at `NO_NODE`, `labels[w] == old`
        // holds exactly for `w` on the other side; an arc into another
        // tree belongs to a later `Join`.
        for &x in &side {
            self.labels[x as usize] = NO_NODE;
        }
        let mut replacement = None;
        'scan: for &s in &side {
            for &w in &self.adj[s as usize] {
                cost.touched += 1;
                if self.labels[w as usize] == old {
                    replacement = Some((s, w));
                    break 'scan;
                }
            }
        }
        let min = side[0];
        let label = if replacement.is_some() { old } else { min };
        for &x in &side {
            self.labels[x as usize] = label;
        }
        match replacement {
            Some((s, w)) => self.link(s, w),
            // The old minimum stayed on the small side: the other side
            // is walked once for its own.
            None if min == old => {
                cost.fallbacks += 1;
                let rest = Walk::whole(other, &self.tree);
                cost.touched += rest.cost();
                let min = *rest.seen.iter().min().expect("the walk holds its root");
                for &x in &rest.seen {
                    self.labels[x as usize] = min;
                }
            }
            None => {}
        }
    }

    /// Links the trees of `u` and `v` if the edge survived the batch
    /// and they are still apart, relabelling the one with the larger
    /// label.
    fn join(&mut self, u: NodeId, v: NodeId, cost: &mut RepairCost) {
        let (lu, lv) = (self.labels[u as usize], self.labels[v as usize]);
        cost.touched += 1;
        if lu == lv || self.adj[u as usize].binary_search(&v).is_err() {
            return;
        }
        let (from, to) = if lu > lv { (u, lv) } else { (v, lu) };
        let walk = Walk::whole(from, &self.tree);
        cost.touched += walk.cost();
        for &x in &walk.seen {
            self.labels[x as usize] = to;
        }
        self.link(u, v);
    }

    /// Adds the tree edge `(u, v)`.
    fn link(&mut self, u: NodeId, v: NodeId) {
        insert_sorted(&mut self.tree[u as usize], v);
        insert_sorted(&mut self.tree[v as usize], u);
    }
}

/// A depth-first walk of one forest tree that examines one tree arc per
/// [`Walk::step`].
struct Walk {
    /// `(vertex, the tree neighbour it was reached from, its next tree
    /// arc)` down the current path.
    stack: Vec<(NodeId, NodeId, usize)>,
    /// Every vertex reached, the root first.
    seen: Vec<NodeId>,
    /// Tree arcs examined.
    arcs: u64,
}

impl Walk {
    fn new(root: NodeId) -> Walk {
        Walk {
            stack: vec![(root, NO_NODE, 0)],
            seen: vec![root],
            arcs: 0,
        }
    }

    /// The whole tree of `root`.
    fn whole(root: NodeId, tree: &[Vec<NodeId>]) -> Walk {
        let mut walk = Walk::new(root);
        while walk.step(tree) {}
        walk
    }

    /// Examines the next tree arc; `false` once the tree is exhausted.
    fn step(&mut self, tree: &[Vec<NodeId>]) -> bool {
        while let Some(top) = self.stack.last_mut() {
            let (x, from, next) = *top;
            if let Some(&y) = tree[x as usize].get(next) {
                top.2 += 1;
                self.arcs += 1;
                if y != from {
                    self.stack.push((y, x, 0));
                    self.seen.push(y);
                }
                return true;
            }
            self.stack.pop();
        }
        false
    }

    /// The vertices reached and arcs examined so far.
    fn cost(&self) -> u64 {
        self.seen.len() as u64 + self.arcs
    }
}

/// Inserts `x` into the ascending `list`; returns whether it was absent.
fn insert_sorted(list: &mut Vec<NodeId>, x: NodeId) -> bool {
    match list.binary_search(&x) {
        Ok(_) => false,
        Err(at) => {
            list.insert(at, x);
            true
        }
    }
}

/// Removes `x` from the ascending `list`; returns whether it was present.
fn remove_sorted(list: &mut Vec<NodeId>, x: NodeId) -> bool {
    match list.binary_search(&x) {
        Ok(at) => {
            list.remove(at);
            true
        }
        Err(_) => false,
    }
}

/// Union-find root of `x`, halving the path on the way.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Solves the components of `region` (sorted ascending, closed under
/// `adj`) from scratch: union-find over the induced adjacency, canonical
/// min-id labels written back into `labels`, and a spanning forest for
/// the region added to the tree lists `tree`. `index` (one slot per
/// vertex) maps a region vertex to its position; only the region's
/// slots are written, so any other slot holds a stale value.
///
/// Edges are united in a fixed order — `u` ascending over `region`,
/// then `v > u` ascending over `u`'s list — because whether an edge
/// enters the forest depends only on that order, and the forest
/// decides every later repair.
fn rebuild_region(
    region: &[NodeId],
    adj: &[Vec<NodeId>],
    index: &mut [u32],
    labels: &mut [NodeId],
    tree: &mut [Vec<NodeId>],
) {
    for (i, &u) in region.iter().enumerate() {
        index[u as usize] = i as u32;
    }
    let mut parent: Vec<u32> = (0..region.len() as u32).collect();
    for (i, &u) in region.iter().enumerate() {
        let list = &adj[u as usize];
        // Each undirected edge once, from its smaller endpoint.
        for &v in &list[list.partition_point(|&v| v <= u)..] {
            let j = index[v as usize];
            // A stale slot names some other vertex (or none), so this
            // holds exactly when `v` is in the region.
            assert!(
                region.get(j as usize) == Some(&v),
                "affected region is closed under adjacency"
            );
            let (ru, rv) = (find(&mut parent, i as u32), find(&mut parent, j));
            if ru != rv {
                // Root the union at the smaller index: the class root
                // is then always the class's minimum region position.
                let (lo, hi) = (ru.min(rv), ru.max(rv));
                parent[hi as usize] = lo;
                insert_sorted(&mut tree[u as usize], v);
                insert_sorted(&mut tree[v as usize], u);
            }
        }
    }
    // `region` is ascending, so the root's vertex is the component
    // minimum — the canonical label.
    for (i, &u) in region.iter().enumerate() {
        let root = find(&mut parent, i as u32);
        labels[u as usize] = region[root as usize];
        debug_assert!(labels[u as usize] <= u);
    }
}

/// The `BTreeSet` / `HashSet<(u, v)>` formulation [`rebuild_region`]
/// replaced, kept as the oracle it is tested against: a binary search
/// into `region` per arc, `v <= u` skipped arc by arc.
#[cfg(test)]
fn rebuild_region_oracle(
    region: &[NodeId],
    adj: &[std::collections::BTreeSet<NodeId>],
    labels: &mut [NodeId],
    forest: &mut std::collections::HashSet<(NodeId, NodeId)>,
) {
    let idx_of = |v: NodeId| -> u32 {
        region
            .binary_search(&v)
            .expect("affected region is closed under adjacency") as u32
    };
    let mut parent: Vec<u32> = (0..region.len() as u32).collect();
    for (i, &u) in region.iter().enumerate() {
        for &v in &adj[u as usize] {
            if v <= u {
                continue;
            }
            let (ru, rv) = (find(&mut parent, i as u32), find(&mut parent, idx_of(v)));
            if ru != rv {
                let (lo, hi) = (ru.min(rv), ru.max(rv));
                parent[hi as usize] = lo;
                forest.insert((u, v));
            }
        }
    }
    for (i, &u) in region.iter().enumerate() {
        let root = find(&mut parent, i as u32);
        labels[u as usize] = region[root as usize];
    }
}

/// Checks that `labels` is exactly the canonical per-epoch labelling of
/// `initial` evolved by `batches`: `labels[0]` against the initial
/// graph and `labels[i + 1]` against the state after batch `i`, each
/// byte-identical to the BFS oracle. The registry validates both dyn-cc
/// rows (maintained and recompute) with it.
pub fn validate_dynamic_labels(
    initial: &CsrGraph,
    batches: &[UpdateBatch],
    labels: &[Vec<NodeId>],
) -> Result<(), String> {
    if labels.len() != batches.len() + 1 {
        return Err(format!(
            "dyn-cc: {} label epochs for {} batches (want batches + 1)",
            labels.len(),
            batches.len()
        ));
    }
    let mut state = EdgeSet::from_graph(initial);
    let check = |epoch: usize, g: &CsrGraph, got: &[NodeId]| -> Result<(), String> {
        let want = ampc_graph::stats::connected_components(g).label;
        if got.len() != want.len() {
            return Err(format!(
                "dyn-cc: epoch {epoch}: {} labels for {} vertices",
                got.len(),
                want.len()
            ));
        }
        if got != want {
            let v = want
                .iter()
                .zip(got)
                .position(|(w, g)| w != g)
                .expect("vectors differ");
            return Err(format!(
                "dyn-cc: epoch {epoch}: label[{v}] = {} but the oracle says {}",
                got[v], want[v]
            ));
        }
        Ok(())
    };
    check(0, initial, &labels[0])?;
    for (i, batch) in batches.iter().enumerate() {
        state.apply(batch);
        check(i + 1, &state.snapshot(), &labels[i + 1])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_dht::hasher::mix64;
    use ampc_graph::dynamic::{generate_batches, BatchMix};
    use ampc_graph::{gen, GraphBuilder};
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;
    use proptest::prelude::*;

    /// The maintained labels of every epoch, under the test config.
    fn run(g: &CsrGraph, batches: &[UpdateBatch]) -> Driven<Vec<Vec<NodeId>>> {
        drive(&AmpcConfig::for_tests(), |job| {
            ampc_dynamic_cc_in_job(job, g, batches)
        })
    }

    #[test]
    fn maintained_labels_match_oracle_every_batch() {
        for (mix, seed) in [
            (BatchMix::Churn, 1u64),
            (BatchMix::InsertOnly, 2),
            (BatchMix::DeleteOnly, 3),
        ] {
            let g = gen::erdos_renyi(120, 150, seed); // sparse: many components
            let batches = generate_batches(&g, 5, 30, mix, seed);
            let out = run(&g, &batches);
            validate_dynamic_labels(&g, &batches, &out.output)
                .unwrap_or_else(|e| panic!("{mix:?}: {e}"));
        }
    }

    #[test]
    fn one_epoch_per_batch_one_generation_each() {
        let g = gen::erdos_renyi(80, 120, 9);
        let batches = generate_batches(&g, 4, 20, BatchMix::Churn, 9);
        let out = run(&g, &batches);
        assert_eq!(out.output.len(), 5);
        assert_eq!(out.report.num_epochs(), 5, "DynInit + one per batch");
        // Every epoch publishes exactly one generation (one KV-write
        // stage named DynPublish-*).
        let publishes = out
            .report
            .stages
            .iter()
            .filter(|s| s.name.starts_with("DynPublish"))
            .count();
        assert_eq!(publishes, 5);
        // Epoch stage ranges tile the stage list.
        let total: usize = (0..out.report.num_epochs())
            .map(|i| out.report.epoch_stage_range(i).len())
            .sum();
        assert_eq!(total, out.report.stages.len());
    }

    fn update(kind: UpdateKind, u: NodeId, v: NodeId) -> EdgeUpdate {
        EdgeUpdate { kind, u, v }
    }

    #[test]
    fn structural_noops_skip_the_repair_stage() {
        // A cycle built as path 0..30 plus the closing edge (0, 29).
        // The deterministic forest build (sorted vertices, sorted
        // neighbors) reaches (28, 29) last, when both sides are already
        // connected — so deleting it is a non-tree delete and must not
        // trigger DynRepair. Neither may a self-loop insert, which
        // `EdgeSet` rejects.
        let mut state = EdgeSet::from_graph(&gen::path(30));
        state.insert(0, 29);
        let g = state.snapshot();
        for up in [
            update(UpdateKind::Delete, 28, 29),
            update(UpdateKind::Insert, 5, 5),
        ] {
            let batch = vec![up];
            let out = run(&g, std::slice::from_ref(&batch));
            assert!(
                !out.report
                    .stages
                    .iter()
                    .any(|s| s.name.starts_with("DynRepair")),
                "{up:?} must not repair"
            );
            assert!(out.output[1].iter().all(|&l| l == 0), "still connected");
            validate_dynamic_labels(&g, &[batch], &out.output).unwrap();
        }
    }

    #[test]
    fn tree_delete_splits_and_reinsert_merges() {
        // A path: every edge is a tree edge. Endpoints may arrive in
        // either order.
        let g = gen::path(30);
        for (u, v) in [(10, 11), (11, 10)] {
            let del = vec![update(UpdateKind::Delete, u, v)];
            let ins = vec![update(UpdateKind::Insert, u, v)];
            let out = run(&g, &[del.clone(), ins.clone()]);
            assert!(
                out.output[1][11] == 11 && out.output[1][10] == 0,
                "split by ({u}, {v})"
            );
            assert!(out.output[2].iter().all(|&l| l == 0), "re-merged");
            validate_dynamic_labels(&g, &[del, ins], &out.output).unwrap();
        }
    }

    /// `rebuild_region` against the oracle on `g`: a region made of a
    /// seeded choice of whole components (so it is closed), arbitrary
    /// stale labels, index slots and pre-existing forest pairs. Both must
    /// write the same labels and leave the same forest *set*.
    fn assert_rebuild_matches_oracle(g: &CsrGraph, seed: u64) {
        use std::collections::{BTreeSet, HashSet};
        let n = g.num_nodes() as u64;
        let rand = |i: u64, salt: u64| mix64(seed ^ i.wrapping_mul(0x9E37) ^ salt) % n.max(1);
        let comp = ampc_graph::stats::connected_components(g).label;
        let region: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| !mix64(seed ^ comp[v as usize] as u64).is_multiple_of(3))
            .collect();
        let stale: Vec<NodeId> = (0..n).map(|i| rand(i, 1) as NodeId).collect();
        let pre: Vec<(NodeId, NodeId)> = (0..n)
            .map(|i| (rand(i, 2) as NodeId, rand(i, 3) as NodeId))
            .filter(|&(u, v)| u < v)
            .collect();

        let sets: Vec<BTreeSet<NodeId>> = g
            .nodes()
            .map(|u| g.neighbors(u).iter().copied().collect())
            .collect();
        let mut want_labels = stale.clone();
        let mut want_forest: HashSet<(NodeId, NodeId)> = pre.iter().copied().collect();
        rebuild_region_oracle(&region, &sets, &mut want_labels, &mut want_forest);

        let lists: Vec<Vec<NodeId>> = g.nodes().map(|u| g.neighbors(u).to_vec()).collect();
        let mut index: Vec<u32> = stale.clone();
        let mut labels = stale;
        let mut tree: Vec<Vec<NodeId>> = vec![Vec::new(); n as usize];
        for &(u, v) in &pre {
            insert_sorted(&mut tree[u as usize], v);
            insert_sorted(&mut tree[v as usize], u);
        }
        rebuild_region(&region, &lists, &mut index, &mut labels, &mut tree);

        assert_eq!(labels, want_labels, "labels");
        assert_tree_symmetric(&tree);
        let mut want: Vec<(NodeId, NodeId)> = want_forest.into_iter().collect();
        want.sort_unstable();
        assert_eq!(tree_edges(&tree), want, "forest");
    }

    #[test]
    fn rebuild_matches_oracle_on_corner_shapes() {
        for g in [
            gen::star(40),
            gen::path(33),
            gen::complete(12),
            CsrGraph::empty(9),
            CsrGraph::empty(0),
        ] {
            for seed in 0..4 {
                assert_rebuild_matches_oracle(&g, seed);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn rebuild_matches_oracle_on_er_graphs(n in 2usize..300, m in 0usize..600, seed in 0u64..1000) {
            assert_rebuild_matches_oracle(&gen::erdos_renyi(n, m, seed), seed);
        }

        #[test]
        fn rebuild_matches_oracle_on_skewed_rmat(m in 50usize..3000, seed in 0u64..1000) {
            assert_rebuild_matches_oracle(&gen::rmat(9, m, gen::RmatParams::SOCIAL, seed), seed);
        }
    }

    /// The forest's edges `u < v`, ascending.
    fn tree_edges(tree: &[Vec<NodeId>]) -> Vec<(NodeId, NodeId)> {
        (0..tree.len() as NodeId)
            .flat_map(|u| {
                tree[u as usize]
                    .iter()
                    .filter(move |&&v| u < v)
                    .map(move |&v| (u, v))
            })
            .collect()
    }

    /// Every tree list is strictly ascending, and `v` is in `u`'s list
    /// exactly when `u` is in `v`'s.
    fn assert_tree_symmetric(tree: &[Vec<NodeId>]) {
        for (u, list) in tree.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "tree[{u}] ascends");
            for &v in list {
                assert!(
                    tree[v as usize].binary_search(&(u as NodeId)).is_ok(),
                    "tree edge ({u}, {v}) is one-sided"
                );
            }
        }
    }

    /// `state` after a batch, against `now`, the graph it should hold:
    /// canonical labels, symmetric tree lists inside the adjacency, and
    /// a forest of exactly `n − #components` edges without a cycle.
    fn assert_state_holds(state: &DynState, now: &CsrGraph) {
        let comps = ampc_graph::stats::connected_components(now);
        assert_eq!(state.labels, comps.label, "labels");
        let lists: Vec<Vec<NodeId>> = now.nodes().map(|u| now.neighbors(u).to_vec()).collect();
        assert_eq!(state.adj, lists, "adjacency");
        assert_tree_symmetric(&state.tree);
        let edges = tree_edges(&state.tree);
        let mut parent: Vec<u32> = (0..now.num_nodes() as u32).collect();
        for &(u, v) in &edges {
            assert!(
                state.adj[u as usize].binary_search(&v).is_ok(),
                "tree edge ({u}, {v}) is not in the graph"
            );
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            assert_ne!(ru, rv, "tree edge ({u}, {v}) closes a cycle");
            parent[ru.max(rv) as usize] = ru.min(rv);
        }
        let components = (0..now.num_nodes())
            .filter(|&v| comps.label[v] == v as NodeId)
            .count();
        assert_eq!(edges.len(), now.num_nodes() - components, "forest size");
    }

    /// Drives the host state through `batches` the way the kernel does,
    /// holding it to [`assert_state_holds`] after every batch; returns
    /// the summed repair cost.
    fn replay(g: &CsrGraph, batches: &[UpdateBatch]) -> (DynState, RepairCost) {
        let mut state = DynState::build(g);
        assert_state_holds(&state, g);
        let mut edges = EdgeSet::from_graph(g);
        let mut total = RepairCost::default();
        for batch in batches {
            let labels = &state.labels;
            let pre: Vec<(NodeId, NodeId)> = batch
                .iter()
                .map(|up| (labels[up.u as usize], labels[up.v as usize]))
                .collect();
            let changes = state.apply(batch, &pre);
            let cost = state.repair(&changes);
            total.touched += cost.touched;
            total.fallbacks += cost.fallbacks;
            edges.apply(batch);
            assert_state_holds(&state, &edges.snapshot());
        }
        (state, total)
    }

    fn replay_every_mix(g: &CsrGraph, ops: usize, seed: u64) {
        for mix in [BatchMix::Churn, BatchMix::InsertOnly, BatchMix::DeleteOnly] {
            replay(g, &generate_batches(g, 6, ops, mix, seed));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn repair_matches_oracle_on_er_graphs(n in 2usize..200, m in 0usize..400, ops in 1usize..80, seed in 0u64..1000) {
            replay_every_mix(&gen::erdos_renyi(n, m, seed), ops, seed);
        }

        #[test]
        fn repair_matches_oracle_on_skewed_rmat(m in 50usize..2000, ops in 1usize..120, seed in 0u64..1000) {
            replay_every_mix(&gen::rmat(8, m, gen::RmatParams::SOCIAL, seed), ops, seed);
        }
    }

    #[test]
    fn repair_walks_the_other_side_when_the_old_minimum_is_on_the_small_side() {
        // Cutting (0, 1) off a path leaves {0}, the old minimum, on the
        // small side: {1..9} must be walked for its own minimum.
        let (state, cost) = replay(&gen::path(10), &[vec![update(UpdateKind::Delete, 0, 1)]]);
        assert_eq!(cost.fallbacks, 1);
        assert_eq!(state.labels, [0, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        // Cutting (8, 9) leaves {9} on the small side, without the
        // minimum: no second walk.
        let (_, cost) = replay(&gen::path(10), &[vec![update(UpdateKind::Delete, 8, 9)]]);
        assert_eq!(cost.fallbacks, 0);
    }

    #[test]
    fn repair_finds_a_replacement_inserted_earlier_in_the_batch() {
        // On a path, (2, 7) is the only edge across the cut (4, 5).
        let batch = vec![
            update(UpdateKind::Insert, 7, 2),
            update(UpdateKind::Delete, 4, 5),
        ];
        let (state, cost) = replay(&gen::path(10), &[batch]);
        assert!(state.labels.iter().all(|&l| l == 0));
        assert!(state.tree[2].contains(&7), "(2, 7) replaces (4, 5)");
        assert_eq!(cost.fallbacks, 0);
    }

    #[test]
    fn repair_skips_an_edge_inserted_and_deleted_in_one_batch() {
        // Two paths, {0..4} and {5..9}: a join that does not survive
        // the batch links nothing.
        let mut two = EdgeSet::from_graph(&gen::path(10));
        two.remove(4, 5);
        let g = two.snapshot();
        let batch = vec![
            update(UpdateKind::Insert, 2, 7),
            update(UpdateKind::Delete, 2, 7),
        ];
        let (state, _) = replay(&g, &[batch]);
        assert_eq!(state.labels, [0, 0, 0, 0, 0, 5, 5, 5, 5, 5]);
        // A forest edge deleted and reinserted in one batch is cut, and
        // replaced by itself.
        let batch = vec![
            update(UpdateKind::Delete, 1, 2),
            update(UpdateKind::Insert, 1, 2),
        ];
        let (state, _) = replay(&g, &[batch]);
        assert!(state.tree[1].contains(&2));
    }

    #[test]
    fn repair_splits_a_tree_into_two_equal_sides() {
        // (4, 5) halves a 10-vertex path: the sides tie, the first
        // endpoint's side is taken as the small one, and it holds the
        // old minimum.
        let (state, cost) = replay(&gen::path(10), &[vec![update(UpdateKind::Delete, 5, 4)]]);
        assert_eq!(state.labels, [0, 0, 0, 0, 0, 5, 5, 5, 5, 5]);
        assert_eq!(cost.fallbacks, 1);
    }

    #[test]
    fn a_cut_tail_charges_for_the_tail_not_the_graph() {
        // A 2 000-vertex clique whose forest is the star around 0, and
        // a 40-vertex path hung off vertex 1 999. Cutting the path off
        // walks the tail; the clique side's hub moves one tree arc per
        // step, so it costs no more.
        let (k, tail) = (2000usize, 40usize);
        let mut b = GraphBuilder::with_capacity(k + tail, k * k / 2 + tail);
        for u in 0..k {
            for v in u + 1..k {
                b.push_edge(u as NodeId, v as NodeId, 0);
            }
        }
        for v in k - 1..k + tail - 1 {
            b.push_edge(v as NodeId, v as NodeId + 1, 0);
        }
        let g = b.build();
        let cut = vec![update(UpdateKind::Delete, k as NodeId - 1, k as NodeId)];
        let out = run(&g, std::slice::from_ref(&cut));
        validate_dynamic_labels(&g, &[cut], &out.output).unwrap();
        let repair = out
            .report
            .stages
            .iter()
            .find(|s| s.name == "DynRepair-b1")
            .expect("a forest cut is repaired");
        // Per tail vertex: reached, two tree arcs and two adjacency
        // arcs on its side, and as much again on the other.
        assert!(
            repair.ops <= (10 * tail as u64 + 16) * 8,
            "DynRepair charged {} ops for a {tail}-vertex tail of a {}-arc graph",
            repair.ops,
            g.num_arcs()
        );
    }

    #[test]
    fn empty_graph_and_empty_batches() {
        let g = CsrGraph::empty(6);
        let batches = vec![Vec::new(), Vec::new()];
        let out = run(&g, &batches);
        assert_eq!(out.output.len(), 3);
        for l in &out.output {
            assert_eq!(*l, (0..6).collect::<Vec<NodeId>>());
        }
        validate_dynamic_labels(&g, &batches, &out.output).unwrap();
    }

    #[test]
    fn validator_rejects_wrong_epochs() {
        let g = gen::path(5);
        let batches = generate_batches(&g, 2, 3, BatchMix::Churn, 4);
        let mut labels = run(&g, &batches).output;
        assert!(validate_dynamic_labels(&g, &batches, &labels[..2]).is_err());
        // A truncated epoch is an Err, not a panic.
        let mut short = labels.clone();
        short[1].pop();
        assert!(validate_dynamic_labels(&g, &batches, &short)
            .unwrap_err()
            .contains("labels for"));
        labels[1][0] = 4;
        assert!(validate_dynamic_labels(&g, &batches, &labels).is_err());
    }
}
