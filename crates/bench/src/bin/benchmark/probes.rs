//! Per-layer probes of the traced run: each times public functions of
//! one crate from outside, on the workload's own input, inside a span of
//! its own under `probes`.

use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::workloads::{Input, Kind, Prepared, Size};
use ampc_bench::registry;
use ampc_core::algorithm::{AlgoInput, Model};
use ampc_core::prim;
use ampc_dht::store::{Dht, GenerationWriter};
use ampc_dht::wire::{encode_to_vec, Wire};
use ampc_graph::dynamic::generate_batches;
use ampc_graph::{CsrGraph, NodeId};
use ampc_runtime::driver::drive;
use ampc_runtime::AmpcConfig;
use ampc_trees::pointer_jump::find_roots;
use ampc_trees::UnionFind;
use std::hint::black_box;
use std::time::Instant;

fn since(from: Instant) -> f64 {
    from.elapsed().as_secs_f64()
}

/// Nanoseconds per item.
fn ns_per(seconds: f64, items: usize) -> f64 {
    seconds * 1e9 / items.max(1) as f64
}

/// Runs every probe that applies to the workload.
pub fn run_all(p: &Prepared<'_>, size: Size, seed: u64, m: &mut Metrics, tracer: &mut Tracer) {
    let rounds = if size == Size::Full { 200 } else { 10 };
    let codec_len = if size == Size::Full { 1 << 20 } else { 1 << 10 };
    empty_rounds(&p.cfg, rounds, m, tracer);
    wire_codec(codec_len, m, tracer);
    if let (Input::Graph(g), Kind::Registry { family, .. }) = (p.input, p.workload.kind) {
        shuffle(&p.cfg, g, m, tracer);
        adjacency_store(&p.cfg, g, m, tracer);
        trees(g, seed, m, tracer);
        primitives(g, m, tracer);
        if family == "dyn-cc" {
            let t = Instant::now();
            tracer.span("graph.dyn_schedule", |_| {
                black_box(generate_batches(
                    g,
                    p.params.dyn_batches,
                    p.params.dyn_ops,
                    p.params.dyn_mix,
                    p.params.dyn_seed,
                ));
            });
            m.set("graph.dyn_schedule_s", since(t));
        }
        if matches!(family, "mis" | "cc") {
            mpc_baseline(p, g, family, m, tracer);
        }
    }
}

/// `runtime.round_overhead_*`: empty KV rounds, one item per machine, at
/// the harness machine count and at ten times it.
fn empty_rounds(cfg: &AmpcConfig, rounds: usize, m: &mut Metrics, tracer: &mut Tracer) {
    for (metric, machines) in [
        ("runtime.round_overhead_us", cfg.num_machines),
        ("runtime.round_overhead_p100_us", cfg.num_machines * 10),
    ] {
        let cfg = cfg.with_machines(machines);
        let t = Instant::now();
        tracer.span("runtime.empty_rounds", |tr| {
            tr.count("machines", machines as f64);
            tr.count("rounds", rounds as f64);
            drive(&cfg, |job| {
                let dht: Dht<u64> = Dht::new();
                for _ in 0..rounds {
                    let items: Vec<u64> = (0..machines as u64).collect();
                    let out: Vec<u64> =
                        job.kv_round("Empty", dht.current(), None, items, |_, items| {
                            items.to_vec()
                        });
                    black_box(out);
                }
            });
        });
        m.set(metric, since(t) * 1e6 / rounds as f64);
    }
}

/// `wire.codec_*`: the `Wire` codec on a `Vec<u64>`, no socket involved.
fn wire_codec(len: usize, m: &mut Metrics, tracer: &mut Tracer) {
    let values: Vec<u64> = (0..len as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let t = Instant::now();
    let bytes = tracer.span("wire.codec.encode", |_| encode_to_vec(black_box(&values)));
    m.set(
        "wire.codec_encode_ns_per_byte",
        ns_per(since(t), bytes.len()),
    );
    let t = Instant::now();
    let back = tracer.span("wire.codec.decode", |_| {
        Vec::<u64>::wire_decode(&mut black_box(&bytes[..]))
    });
    m.set(
        "wire.codec_decode_ns_per_byte",
        ns_per(since(t), bytes.len()),
    );
    assert_eq!(back.as_ref(), Some(&values), "wire codec round trip");
}

/// `runtime.shuffle_ns_per_record`: `Job::shuffle_by_key` over the
/// graph's edge records.
fn shuffle(cfg: &AmpcConfig, g: &CsrGraph, m: &mut Metrics, tracer: &mut Tracer) {
    let records: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.u, e.v)).collect();
    let n = records.len();
    let t = Instant::now();
    tracer.span("runtime.shuffle_by_key", |tr| {
        tr.count("records", n as f64);
        drive(cfg, |job| {
            black_box(job.shuffle_by_key("Probe", records, |r| r.0 as u64));
        });
    });
    m.set("runtime.shuffle_ns_per_record", ns_per(since(t), n));
}

/// `dht.*` store timings on the graph's own adjacency values: the write
/// round, the seal, one read of every key and the drop that every AMPC
/// kernel here starts with.
fn adjacency_store(cfg: &AmpcConfig, g: &CsrGraph, m: &mut Metrics, tracer: &mut Tracer) {
    let n = g.num_nodes();
    let mut times = [0.0f64; 4];
    let mut bytes = 0usize;
    tracer.span("dht.adjacency", |tr| {
        drive(cfg, |job| {
            let mut dht: Dht<Vec<NodeId>> = Dht::new();
            let writer = GenerationWriter::new();
            let t = Instant::now();
            tr.span("dht.adj_put", |_| {
                job.kv_round(
                    "AdjWrite",
                    dht.current(),
                    Some(&writer),
                    g.nodes().collect(),
                    |ctx, items: &[NodeId]| {
                        ctx.handle
                            .put_many(items.iter().map(|&v| (v as u64, g.neighbors(v).to_vec())));
                        Vec::<()>::new()
                    },
                );
            });
            times[0] = since(t);
            let t = Instant::now();
            tr.span("dht.adj_seal", |_| dht.push(writer.seal()));
            times[1] = since(t);
            bytes = dht.peak_generation_bytes();
            let t = Instant::now();
            tr.span("dht.adj_get", |_| {
                let arcs: Vec<usize> = job.kv_round(
                    "AdjRead",
                    dht.current(),
                    None,
                    (0..n as u64).collect(),
                    |ctx, items: &[u64]| {
                        let mut arcs = 0usize;
                        ctx.handle.get_many_with(items, |_, nbrs| {
                            arcs += nbrs.map_or(0, Vec::len);
                        });
                        vec![arcs]
                    },
                );
                assert_eq!(
                    arcs.iter().sum::<usize>(),
                    g.num_arcs(),
                    "adjacency read back"
                );
            });
            times[2] = since(t);
            let t = Instant::now();
            tr.span("dht.adj_drop", |_| drop(dht));
            times[3] = since(t);
        });
    });
    m.set("dht.put_ns_per_key", ns_per(times[0], n));
    m.set("dht.seal_ns_per_key", ns_per(times[1], n));
    m.set("dht.seal_ns_per_byte", ns_per(times[1], bytes));
    m.set("dht.get_ns_per_key", ns_per(times[2], n));
    m.set("dht.drop_s", times[3]);
}

/// `trees.*`: root finding on a seeded random forest of `n` nodes, and
/// union-find over the graph's edges.
fn trees(g: &CsrGraph, seed: u64, m: &mut Metrics, tracer: &mut Tracer) {
    let n = g.num_nodes();
    // parent[v] < v, so the pointers cannot form a cycle.
    let mut state = seed | 1;
    let parent: Vec<NodeId> = (0..n as u64)
        .map(|v| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if v == 0 || state >> 60 == 0 {
                v as NodeId
            } else {
                ((state >> 33) % v) as NodeId
            }
        })
        .collect();
    let t = Instant::now();
    tracer.span("trees.find_roots", |_| black_box(find_roots(&parent)));
    m.set("trees.find_roots_ns_per_node", ns_per(since(t), n));

    let t = Instant::now();
    tracer.span("trees.union_find", |_| {
        let mut uf = UnionFind::new(n);
        for e in g.edges() {
            uf.union(e.u, e.v);
        }
        black_box(uf.num_components())
    });
    m.set(
        "trees.union_find_ns_per_edge",
        ns_per(since(t), g.num_edges()),
    );
}

/// `core.prim_*`: the flat filter and the counting sort over the arc
/// array (length 2m).
fn primitives(g: &CsrGraph, m: &mut Metrics, tracer: &mut Tracer) {
    let arcs = g.targets();
    let mut out = Vec::new();
    let t = Instant::now();
    tracer.span("core.prim.filter", |_| {
        prim::filter_into(arcs, |&v| v % 2 == 0, &mut out);
    });
    m.set("core.prim_filter_ns_per_elem", ns_per(since(t), arcs.len()));
    black_box(&out);

    let mut counts = Vec::new();
    let t = Instant::now();
    tracer.span("core.prim.sort", |_| {
        prim::counting_sort_by_key(arcs, 16, |&v| (v % 16) as usize, &mut counts, &mut out);
    });
    m.set("core.prim_sort_ns_per_elem", ns_per(since(t), arcs.len()));
    black_box(&out);
}

/// `mpc.*`: the same family under `Model::Mpc` on the same input, once —
/// the denominator of the paper's headline ratio.
fn mpc_baseline(
    p: &Prepared<'_>,
    g: &CsrGraph,
    family: &str,
    m: &mut Metrics,
    tracer: &mut Tracer,
) {
    let input = AlgoInput::Unweighted(g);
    let t = Instant::now();
    let driven = tracer.span("mpc.kernel", |_| {
        registry::run_family_with(family, Model::Mpc, &input, &p.cfg, &p.params)
    });
    let wall = since(t);
    if let Ok(d) = driven {
        m.set("mpc.wall_s", wall);
        m.set("mpc.sim_s", d.report.sim_ns() as f64 / 1e9);
        m.set("mpc.shuffles", d.report.num_shuffles() as f64);
    }
}
