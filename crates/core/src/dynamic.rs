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
//!   (one batched lookup per machine), local *apply*/*rebuild* stages,
//!   and a *publish* KV-write round whose sealed generation becomes the
//!   next epoch's read snapshot. The DHT generation sequence `D0, D1, …`
//!   is therefore exactly the epoch sequence — the §2 fault-tolerance
//!   story (replay against sealed inputs) carries over unchanged.
//! * **Work proportional to the affected region.** A spanning forest of
//!   the current graph is maintained alongside the labels. Inserts
//!   joining two components and deletes of *forest* edges mark the
//!   touched components; only the marked components are re-solved
//!   (union-find over their post-batch adjacency). Non-tree deletes and
//!   intra-component inserts cost O(1) — the recompute-from-scratch
//!   baseline (`ampc_mpc::dynamic`) pays O(n + m) for them.
//! * **Canonical labels.** Labels are always the minimum vertex id of
//!   the component — the same canonical form every static connectivity
//!   implementation in the workspace produces — so maintained labels
//!   are **byte-identical** to recomputation after every batch, which
//!   is what the cross-model equivalence suites pin.

use ampc_dht::hasher::FxHashSet;
use ampc_dht::store::{Dht, GenerationWriter};
use ampc_graph::dynamic::{EdgeSet, UpdateBatch, UpdateKind};
use ampc_graph::{CsrGraph, NodeId};
use ampc_runtime::Job;

/// The in-job kernel body: maintains component labels across `batches`,
/// one epoch (= one sealed DHT generation) per batch, returning the
/// labelling after the initial build and after every batch.
// ampc-lint: budget(batched-requests = 2)
pub fn ampc_dynamic_cc_in_job(
    job: &mut Job,
    g: &CsrGraph,
    batches: &[UpdateBatch],
) -> Vec<Vec<NodeId>> {
    let n = g.num_nodes();
    let mut out = Vec::with_capacity(batches.len() + 1);
    let mut dht: Dht<u64> = Dht::new();

    // Maintained state: the current adjacency (strictly ascending lists,
    // so every iteration order — and with it every downstream stat — is
    // deterministic), the canonical labels, a spanning forest used to
    // classify deletions (keyed by `forest_key`), and the region index
    // `rebuild_region` writes.
    let mut labels: Vec<NodeId> = (0..n as NodeId).collect();
    let mut forest: FxHashSet<u64> = FxHashSet::default();
    let mut index: Vec<u32> = vec![0; n];

    // Epoch 0: load the input, solve it, publish generation D1.
    job.epoch("DynInit");
    job.shuffle_balanced("DynLoad", (g.num_arcs() as u64) * 8);
    let mut adj: Vec<Vec<NodeId>> =
        job.local("DynInitCC", ((n + g.num_arcs()) as u64 + 1) * 8, || {
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
            let region: Vec<NodeId> = (0..n as NodeId).collect();
            rebuild_region(&region, &adj, &mut index, &mut labels, &mut forest);
            adj
        });
    publish(job, &mut dht, "DynPublish-b0", &labels);
    out.push(labels.clone());

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

        // Apply the batch in order against the maintained state,
        // marking the components whose connectivity may have changed:
        // inserts joining two components and deletes of forest edges.
        // Intra-component inserts and non-tree deletes are structural
        // no-ops for connectivity.
        let mut affected: FxHashSet<NodeId> = FxHashSet::default();
        job.local(
            &format!("DynApply-b{b}"),
            (batch.len() as u64 + 1) * 8,
            || {
                for (up, &(lu, lv)) in batch.iter().zip(&pre_labels) {
                    debug_assert_eq!(lu, labels[up.u as usize], "DHT label drifted from host");
                    debug_assert_eq!(lv, labels[up.v as usize], "DHT label drifted from host");
                    // `EdgeUpdate`'s fields are public, so an update may
                    // arrive reversed or as a self-loop: canonicalise and
                    // skip loops exactly as `EdgeSet` does, or a reversed
                    // delete would miss its forest key and a loop insert
                    // would land twice in one list.
                    if up.u == up.v {
                        continue;
                    }
                    let (u, v) = (up.u.min(up.v), up.u.max(up.v));
                    match up.kind {
                        UpdateKind::Insert => {
                            if insert_sorted(&mut adj[u as usize], v) {
                                insert_sorted(&mut adj[v as usize], u);
                                if lu != lv {
                                    affected.insert(lu);
                                    affected.insert(lv);
                                }
                            }
                        }
                        UpdateKind::Delete => {
                            if remove_sorted(&mut adj[u as usize], v) {
                                remove_sorted(&mut adj[v as usize], u);
                                // A forest edge existed before the batch,
                                // so both endpoints carry the same
                                // pre-batch label.
                                if forest.remove(&forest_key(u, v)) {
                                    affected.insert(lu);
                                }
                            }
                        }
                    }
                }
            },
        );

        // Rebuild only the affected components. The affected region is
        // closed under the post-batch adjacency: a pre-batch edge stays
        // within one pre-batch component, and a fresh cross-component
        // insert marked both of its components.
        if !affected.is_empty() {
            let region: Vec<NodeId> = (0..n as NodeId)
                .filter(|&v| affected.contains(&labels[v as usize]))
                .collect();
            forest.retain(|&key| !affected.contains(&labels[(key >> 32) as usize]));
            let induced_arcs: usize = region.iter().map(|&v| adj[v as usize].len()).sum();
            job.local(
                &format!("DynRebuild-b{b}"),
                ((region.len() + induced_arcs) as u64 + 1) * 8,
                || rebuild_region(&region, &adj, &mut index, &mut labels, &mut forest),
            );
        }

        // Publish: every machine writes its slice of the labelling; the
        // sealed generation is this epoch's snapshot.
        publish(job, &mut dht, &format!("DynPublish-b{b}"), &labels);
        out.push(labels.clone());
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

/// The forest's key for the edge `u < v`: `u` high, `v` low. The
/// multiplicative hasher takes a table slot from the key's low bits,
/// so those must vary across the set. `rebuild_region` scans `u`
/// ascending, so a hub `u` adds most of its fan-out while a `v` is
/// reached from below about once: in the forest of a 16 384-vertex
/// social rmat graph at most 13 edges share a `v` and 6 245 share a `u`.
fn forest_key(u: NodeId, v: NodeId) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// Union-find root of `x`, halving the path on the way.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Recomputes the components of `region` (sorted ascending, closed
/// under `adj`) from scratch: union-find over the induced adjacency,
/// canonical min-id labels written back into `labels`, and a fresh
/// spanning forest for the region inserted into `forest`. `index` (one
/// slot per vertex) maps a region vertex to its position; only the
/// region's slots are written, so any other slot holds a stale value.
///
/// Edges are united in a fixed order — `u` ascending over `region`,
/// then `v > u` ascending over `u`'s list — because whether an edge
/// enters the forest depends only on that order, and the forest
/// decides every later region.
fn rebuild_region(
    region: &[NodeId],
    adj: &[Vec<NodeId>],
    index: &mut [u32],
    labels: &mut [NodeId],
    forest: &mut FxHashSet<u64>,
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
                forest.insert(forest_key(u, v));
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
    use ampc_graph::dynamic::{generate_batches, BatchMix, EdgeUpdate};
    use ampc_graph::gen;
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
    fn structural_noops_skip_the_rebuild_stage() {
        // A cycle built as path 0..30 plus the closing edge (0, 29).
        // The deterministic forest build (sorted vertices, sorted
        // neighbors) reaches (28, 29) last, when both sides are already
        // connected — so deleting it is a non-tree delete and must not
        // trigger DynRebuild. Neither may a self-loop insert, which
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
                    .any(|s| s.name.starts_with("DynRebuild")),
                "{up:?} must not rebuild"
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
        let mut forest: FxHashSet<u64> = pre.iter().map(|&(u, v)| forest_key(u, v)).collect();
        rebuild_region(&region, &lists, &mut index, &mut labels, &mut forest);

        assert_eq!(labels, want_labels, "labels");
        let mut got: Vec<(NodeId, NodeId)> = forest
            .iter()
            .map(|&key| ((key >> 32) as NodeId, key as NodeId))
            .collect();
        got.sort_unstable();
        let mut want: Vec<(NodeId, NodeId)> = want_forest.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want, "forest");
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
