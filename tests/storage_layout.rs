//! Regression suite for the flat sealed storage layout and the
//! persistent executor pool (DESIGN.md §5.4).
//!
//! The flat layouts (dense direct-index, open-addressed), the socket
//! substrate and the pool are wall-clock choices: this suite pins that
//! they are *observationally equivalent* — reads agree with a
//! `BTreeMap` oracle, kernel outputs, round counts and `CommStats` are
//! identical under both substrates — and that the sealed flat
//! representation is a pure function of what was written
//! (byte-identical across thread counts). Inline against pooled
//! execution, replays included, is the thread loop of the `records`
//! table (`crates/bench/tests/records.rs`).

use ampc::prelude::*;
use ampc_bench::registry::run_family;
use ampc_dht::hasher::mix64;
use ampc_dht::store::{Dht, Generation, GenerationWriter, StoreKind};
use ampc_graph::gen;
use ampc_runtime::driver::{drive, Driven};
use std::collections::BTreeMap;
use std::sync::Barrier;

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 6,
        in_memory_threshold: 100,
        seed: 0xF1A7,
        ..AmpcConfig::default()
    }
}

/// The MIS registry row on `g`.
fn mis(g: &CsrGraph, c: &AmpcConfig) -> Driven<AlgoOutput> {
    run_family("mis", Model::Ampc, &AlgoInput::Unweighted(g), c).expect("registered")
}

/// `get`/`get_many_with` pinned against a `BTreeMap` oracle on adversarial
/// key sets: mix64-colliding (one writer stripe holds everything),
/// sparse u64 keys, dense `0..n` keys — including misses adjacent to
/// every hit.
#[test]
fn flat_get_matches_oracle_on_adversarial_keys() {
    let colliding: Vec<u64> = (0..1_000_000u64)
        .filter(|&k| mix64(k) % 64 == 7)
        .take(2_000)
        .collect();
    let sparse: Vec<u64> = (1..1_500u64)
        .map(|k| k.wrapping_mul(0x6C07_96D9_47A1_9E63))
        .collect();
    let dense: Vec<u64> = (0..2_000u64).collect();
    for (name, keys) in [
        ("colliding", colliding),
        ("sparse", sparse),
        ("dense", dense),
    ] {
        let value = |k: u64| vec![k as u32, (k >> 32) as u32];
        let flat = {
            let w: GenerationWriter<Vec<u32>> = GenerationWriter::new();
            for &k in &keys {
                w.put(k, value(k));
            }
            w.seal_on(StoreKind::Flat, 2)
        };
        let oracle: BTreeMap<u64, Vec<u32>> = keys.iter().map(|&k| (k, value(k))).collect();
        assert_eq!(flat.len(), oracle.len(), "{name}");
        // Each pair: 8 key bytes + the Vec<u32>'s 8-byte length + 2 × 4.
        assert_eq!(flat.size_bytes(), oracle.len() * 24, "{name}");
        let mut probes: Vec<u64> = keys.clone();
        probes.extend(keys.iter().flat_map(|&k| [k ^ 1, k.wrapping_add(1), !k]));
        for &p in &probes {
            assert_eq!(flat.get(p), oracle.get(&p), "{name}: key {p}");
        }
        flat.get_many_with(&probes, |i, got| {
            let p = probes[i];
            assert_eq!(got, oracle.get(&p), "{name}: batched key {p}");
        });
    }
}

/// The socket-backed substrate (DESIGN.md §12) is observationally
/// identical to flat: same layout fingerprints, gets and batched gets
/// on adversarial keys — with the shards living outside the sealing
/// thread — and a full kernel produces identical outputs, rounds and
/// CommStats across 1/2/8 threads.
#[test]
fn socket_substrate_matches_flat_generations_and_kernels() {
    let keys: Vec<u64> = (1..1_200u64)
        .map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let build = || {
        let w: GenerationWriter<Vec<u32>> = GenerationWriter::new();
        for &k in &keys {
            w.put(k, vec![k as u32, (k >> 32) as u32]);
        }
        w
    };
    let flat = build().seal_on(StoreKind::Flat, 2);
    let socket = build().seal_on(StoreKind::Socket, 2);
    assert_eq!(socket.backend(), StoreKind::Socket);
    assert_eq!(flat.backend(), StoreKind::Flat);
    assert_eq!(socket.layout_fingerprint(), flat.layout_fingerprint());
    assert_eq!(socket.len(), flat.len());
    assert_eq!(socket.size_bytes(), flat.size_bytes());
    let probes: Vec<u64> = keys.iter().flat_map(|&k| [k, k ^ 1, !k]).collect();
    for &p in &probes {
        assert_eq!(socket.get(p), flat.get(p), "key {p}");
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    socket.get_many_with(&probes, |_, v| a.push(v));
    flat.get_many_with(&probes, |_, v| b.push(v));
    assert_eq!(a, b, "batched gets diverge");

    // Kernel level: identical outputs, rounds and CommStats under the
    // socket substrate at every thread count (the §3 contract).
    let observe = |r: Driven<AlgoOutput>| {
        (
            r.output,
            r.report.num_kv_rounds(),
            r.report.num_shuffles(),
            r.report.kv_comm(),
            r.report.peak_generation_bytes(),
        )
    };
    let g = gen::rmat(8, 1_200, gen::RmatParams::SOCIAL, 5);
    let reference = observe(mis(&g, &cfg().with_threads(1).with_store(StoreKind::Flat)));
    for threads in [1usize, 2, 8] {
        let c = cfg().with_threads(threads).with_store(StoreKind::Socket);
        assert_eq!(observe(mis(&g, &c)), reference, "socket, {threads} threads");
    }
}

/// Two jobs in one process seal on their own stores. A flat job
/// starts, then a socket job starts, and only then does each write,
/// seal and read back one generation: the second job's store must not
/// reach the first job's seal.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "two jobs running side by side are what the test exercises"
)]
fn concurrent_jobs_seal_on_their_own_stores() {
    let (flat_started, both_started) = (Barrier::new(2), Barrier::new(2));
    let run = |store: StoreKind| {
        drive(&cfg().with_store(store), |job| {
            if store == StoreKind::Flat {
                flat_started.wait();
            }
            both_started.wait();
            let mut dht: Dht<u64> = Dht::new();
            let writer = GenerationWriter::new();
            job.kv_round(
                "Write",
                dht.current(),
                Some(&writer),
                (0..1_000u64).collect(),
                |ctx, keys| {
                    ctx.handle.put_many(keys.iter().map(|&k| (k, 3 * k)));
                    Vec::<()>::new()
                },
            );
            dht.push(writer.seal());
            assert_eq!(dht.current().backend(), store);
            let read = job.kv_round(
                "Read",
                dht.current(),
                None,
                (0..1_000u64).collect(),
                |ctx, keys| {
                    let mut got = Vec::new();
                    ctx.handle.get_many_with(keys, |_, v| got.push(v.copied()));
                    got
                },
            );
            assert_eq!(
                read,
                (0..1_000u64).map(|k| Some(3 * k)).collect::<Vec<_>>(),
                "{store:?}"
            );
        })
    };
    std::thread::scope(|s| {
        let flat = s.spawn(|| run(StoreKind::Flat));
        flat_started.wait();
        let socket = s.spawn(|| run(StoreKind::Socket));
        for (job, store) in [(flat, "flat"), (socket, "socket")] {
            job.join()
                .unwrap_or_else(|_| panic!("the {store} job failed"));
        }
    });
}

/// `peak_generation_bytes` reads the seal-time cache and matches an
/// explicit recomputation over the generations a kernel sealed.
#[test]
fn peak_generation_bytes_is_tracked() {
    let g = gen::rmat(7, 900, gen::RmatParams::SOCIAL, 2);
    let out = mis(&g, &cfg());
    let peak = out.report.peak_generation_bytes();
    assert!(peak > 0);
    // The MIS writes each vertex's directed adjacency once: the peak
    // generation holds exactly those records.
    let expected: u64 = {
        let writer: GenerationWriter<Vec<NodeId>> = GenerationWriter::new();
        for v in 0..g.num_nodes() as NodeId {
            let rv = ampc_core::priorities::node_rank(cfg().seed, v);
            let dir: Vec<NodeId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| ampc_core::priorities::node_rank(cfg().seed, u) < rv)
                .collect();
            writer.put(v as u64, dir);
        }
        let sealed: Generation<Vec<NodeId>> = writer.seal();
        sealed.size_bytes() as u64
    };
    assert_eq!(peak, expected);
}
