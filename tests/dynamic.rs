//! Integration suite for the batch-dynamic connectivity subsystem.
//!
//! The acceptance contract (ISSUE 5): after **every** update batch, the
//! maintained AMPC labels are byte-identical to the MPC
//! recompute-from-scratch baseline, across multiple batch schedules and
//! under **both** sealed storage substrates (flat and
//! `AMPC_STORE=socket`), with one DHT-generation epoch per batch.

use ampc::prelude::*;
use ampc_core::dynamic::{ampc_dynamic_cc_in_job, validate_dynamic_labels};
use ampc_dht::store::{force_store, StoreKind};
use ampc_graph::dynamic::{
    generate_batches, BatchMix, DynamicSource, EdgeUpdate, UpdateBatch, UpdateKind,
};
use ampc_graph::{gen, GraphBuilder};
use ampc_mpc::dynamic::mpc_recompute_cc_in_job;
use ampc_runtime::driver::{drive, Driven};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn cfg(seed: u64) -> AmpcConfig {
    AmpcConfig {
        num_machines: 6,
        in_memory_threshold: 100,
        seed,
        ..AmpcConfig::default()
    }
}

/// The maintained AMPC kernel over a generated or hand-made stream (the
/// registry's dyn-cc rows only generate theirs).
fn maintained(g: &CsrGraph, batches: &[UpdateBatch], c: &AmpcConfig) -> Driven<Vec<Vec<NodeId>>> {
    drive(c, |job| ampc_dynamic_cc_in_job(job, g, batches))
}

/// The MPC recompute-per-batch baseline's labels over the same stream.
fn recomputed(g: &CsrGraph, batches: &[UpdateBatch], c: &AmpcConfig) -> Vec<Vec<NodeId>> {
    drive(c, |job| mpc_recompute_cc_in_job(job, g, batches)).output
}

/// The schedules the contract is pinned on: different mixes, batch
/// counts, batch sizes and seeds.
fn schedules(g: &CsrGraph) -> Vec<(String, Vec<UpdateBatch>)> {
    vec![
        (
            "churn 6x50".into(),
            generate_batches(g, 6, 50, BatchMix::Churn, 11),
        ),
        (
            "insert-heavy 3x120".into(),
            generate_batches(g, 3, 120, BatchMix::InsertOnly, 22),
        ),
        (
            "delete-to-empty 4x200".into(),
            generate_batches(g, 4, 200, BatchMix::DeleteOnly, 33),
        ),
    ]
}

#[test]
fn maintained_equals_recompute_on_every_batch_and_schedule() {
    let g = gen::rmat(8, 900, gen::RmatParams::SOCIAL, 5);
    let c = cfg(0xD11A);
    for (name, batches) in schedules(&g) {
        let maintained = maintained(&g, &batches, &c);
        let recomputed = recomputed(&g, &batches, &c);
        assert_eq!(
            maintained.output.len(),
            batches.len() + 1,
            "{name}: one labelling per epoch"
        );
        for (epoch, (a, b)) in maintained.output.iter().zip(&recomputed).enumerate() {
            assert_eq!(a, b, "{name}: epoch {epoch} labels differ");
        }
        validate_dynamic_labels(&g, &batches, &maintained.output)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Both storage substrates, in one test so the process-global store
/// override is never racing another store-sensitive assertion: the
/// maintained kernel must produce identical labels *and* identical
/// round structure / communication with every epoch's generation held
/// in memory and held by the socket shard servers, on every schedule.
#[test]
fn both_storage_layouts_agree_per_batch() {
    let g = gen::erdos_renyi(250, 380, 7);
    let c = cfg(0xD11B);
    for (name, batches) in schedules(&g) {
        force_store(Some(StoreKind::Flat));
        let flat = maintained(&g, &batches, &c);
        force_store(Some(StoreKind::Socket));
        let socket = maintained(&g, &batches, &c);
        force_store(None);
        assert_eq!(
            flat.output, socket.output,
            "{name}: labels differ across substrates"
        );
        assert_eq!(
            flat.report.kv_comm(),
            socket.report.kv_comm(),
            "{name}: CommStats differ across substrates"
        );
        assert_eq!(
            flat.report.num_kv_rounds(),
            socket.report.num_kv_rounds(),
            "{name}"
        );
        assert_eq!(
            flat.report.num_epochs(),
            socket.report.num_epochs(),
            "{name}"
        );
        // And the socket-served labels still match the recompute
        // baseline (run under the ambient store).
        let recomputed = recomputed(&g, &batches, &c);
        assert_eq!(socket.output, recomputed, "{name}: socket vs recompute");
    }
}

#[test]
fn epochs_seal_one_generation_each_and_are_config_independent() {
    let g = gen::erdos_renyi(150, 260, 3);
    let batches = generate_batches(&g, 5, 60, BatchMix::Churn, 44);
    let a = maintained(&g, &batches, &cfg(1));
    // One classify round per batch, one publish per epoch: kv rounds =
    // (batches * 2) + 1 initial publish.
    assert_eq!(a.report.num_epochs(), 6);
    assert_eq!(a.report.num_kv_rounds(), batches.len() * 2 + 1);

    // Labels are a function of the graph + schedule, not of the runtime
    // configuration (machine count, algorithm seed).
    let b = maintained(&g, &batches, &cfg(2).with_machines(17));
    assert_eq!(a.output, b.output);
}

/// Two `k`-cliques, `0..k` and `k..2k`, joined by the one bridge
/// `(k - 1, k)`.
fn two_cliques(k: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(2 * k, k * k);
    for side in [0, k] {
        for i in side..side + k {
            for j in i + 1..side + k {
                b.push_edge(i as NodeId, j as NodeId, 0);
            }
        }
    }
    b.push_edge(k as NodeId - 1, k as NodeId, 0);
    b.build()
}

/// `batches` batches of 1–8 updates against `g`, written the way no
/// generated schedule is: endpoints in either order, self-loops, updates
/// that are no-ops, an insert and a delete of one edge in one batch, and
/// deletes of `g`'s own edges — on a path or a star every one a forest
/// edge, on two cliques the bridge — reinserted a few batches later.
fn adversarial_stream(g: &CsrGraph, batches: usize, seed: u64) -> Vec<UpdateBatch> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = g.num_nodes() as NodeId;
    let base: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.u, e.v)).collect();
    let mut deleted: Vec<(NodeId, NodeId)> = Vec::new();
    let up = |kind, (u, v): (NodeId, NodeId), flip: bool| {
        let (u, v) = if flip { (v, u) } else { (u, v) };
        EdgeUpdate { kind, u, v }
    };
    (0..batches)
        .map(|_| {
            let len = rng.gen_range(1..=8usize);
            let mut batch = Vec::with_capacity(len);
            while batch.len() < len {
                let pair = (rng.gen_range(0..n), rng.gen_range(0..n));
                let flip = rng.gen_bool(0.5);
                match rng.gen_range(0..4u32) {
                    0 if batch.len() + 2 <= len => {
                        batch.push(up(UpdateKind::Insert, pair, flip));
                        batch.push(up(UpdateKind::Delete, pair, !flip));
                    }
                    1 => {
                        let e = base[rng.gen_range(0..base.len())];
                        batch.push(up(UpdateKind::Delete, e, flip));
                        deleted.push(e);
                    }
                    2 if !deleted.is_empty() => {
                        let e = deleted.swap_remove(rng.gen_range(0..deleted.len()));
                        batch.push(up(UpdateKind::Insert, e, flip));
                    }
                    _ => {
                        let kind = if rng.gen_bool(0.5) {
                            UpdateKind::Insert
                        } else {
                            UpdateKind::Delete
                        };
                        batch.push(up(kind, pair, flip));
                    }
                }
            }
            batch
        })
        .collect()
}

/// Thousands of epochs on small bridge-heavy graphs, where almost every
/// delete splits a component and almost every insert merges two: every
/// epoch's labels are held to the BFS oracle.
#[test]
fn long_adversarial_streams_on_bridge_heavy_graphs() {
    for (name, g, seed) in [
        ("path", gen::path(24), 1u64),
        ("star", gen::star(24), 2),
        ("two cliques", two_cliques(8), 3),
    ] {
        let batches = adversarial_stream(&g, 1000, seed);
        let out = maintained(&g, &batches, &cfg(seed));
        validate_dynamic_labels(&g, &batches, &out.output)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn dynamic_source_end_to_end() {
    let spec = DynamicSource::parse("dyn:er:180,260:batches=4:ops=64:seed=5").unwrap();
    let inst = spec
        .generate(ampc_graph::datasets::Scale::Test, 20)
        .unwrap();
    let maintained = maintained(&inst.initial, &inst.batches, &cfg(9));
    let recomputed = recomputed(&inst.initial, &inst.batches, &cfg(9));
    assert_eq!(maintained.output, recomputed);
    validate_dynamic_labels(&inst.initial, &inst.batches, &maintained.output).unwrap();
}
