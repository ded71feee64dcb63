//! Accounting invariants: the metering the figures are built on must
//! itself be trustworthy.

use ampc::prelude::*;
use ampc_bench::registry::{self, run_family, run_family_with, AlgoParams};
use ampc_core::algorithm::InputKind;
use ampc_dht::cost::Network;
use ampc_graph::gen;
use ampc_runtime::driver::Driven;
use AlgoInput::{Unweighted, Weighted};

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 5,
        in_memory_threshold: 300,
        ..AmpcConfig::default()
    }
}

/// `family`'s AMPC row on `input` under `c`.
fn run(family: &str, input: AlgoInput<'_>, c: &AmpcConfig) -> Driven<AlgoOutput> {
    run_family(family, Model::Ampc, &input, c).expect("a registered row on an input it accepts")
}

#[test]
fn kv_bytes_scale_roughly_linearly_with_edges() {
    // Figure 9's premise: KV communication is near-linear in m.
    let small = gen::rmat(10, 10_000, gen::RmatParams::SOCIAL, 1);
    let large = gen::rmat(13, 80_000, gen::RmatParams::SOCIAL, 1);
    let c = cfg();
    let per_edge = |g: &CsrGraph| {
        let bytes = run("mis", Unweighted(g), &c).report.kv_comm().kv_bytes();
        bytes as f64 / g.num_edges() as f64
    };
    let (b_small, b_large) = (per_edge(&small), per_edge(&large));
    let ratio = b_large / b_small;
    assert!(
        (0.3..3.0).contains(&ratio),
        "bytes-per-edge drifted superlinearly: {b_small:.1} -> {b_large:.1}"
    );
}

#[test]
fn caching_reduces_queries_not_correctness() {
    let g = gen::rmat(11, 20_000, gen::RmatParams::SOCIAL, 2);
    let with = run("mis", Unweighted(&g), &cfg().with_caching(true));
    let without = run("mis", Unweighted(&g), &cfg().with_caching(false));
    assert_eq!(with.output, without.output);
    let qw = with.report.kv_comm().queries;
    let qo = without.report.kv_comm().queries;
    assert!(qw < qo, "caching must cut queries: {qw} vs {qo}");
    assert!(with.report.kv_comm().cache_hits > 0);
}

#[test]
fn tcp_slower_than_rdma_same_everything_else() {
    let g = gen::rmat(10, 12_000, gen::RmatParams::SOCIAL, 3);
    let mut rdma_cfg = cfg();
    rdma_cfg.cost.network = Network::Rdma;
    let mut tcp_cfg = cfg();
    tcp_cfg.cost.network = Network::Tcp;
    let rdma = run("mis", Unweighted(&g), &rdma_cfg);
    let tcp = run("mis", Unweighted(&g), &tcp_cfg);
    assert_eq!(rdma.output, tcp.output);
    assert_eq!(
        rdma.report.kv_comm(),
        tcp.report.kv_comm(),
        "transport must not change communication, only its price"
    );
    assert!(tcp.report.sim_ns() > rdma.report.sim_ns());
}

#[test]
fn more_machines_same_totals_lower_bottleneck() {
    let g = gen::rmat(11, 30_000, gen::RmatParams::SOCIAL, 4);
    let a = run("mis", Unweighted(&g), &cfg().with_machines(2));
    let b = run("mis", Unweighted(&g), &cfg().with_machines(16));
    // Totals (bytes, queries modulo caching boundaries) comparable; the
    // simulated time must improve with parallelism.
    assert!(b.report.sim_ns() < a.report.sim_ns());
    assert_eq!(a.report.num_shuffles(), b.report.num_shuffles());
}

#[test]
fn matching_kv_traffic_exceeds_mis() {
    // §5.4: the matching searches are costlier than the MIS ones on the
    // same graph (full adjacency + two-endpoint edge processes).
    let g = gen::rmat(11, 25_000, gen::RmatParams::SOCIAL, 5);
    let c = cfg();
    let mis = run("mis", Unweighted(&g), &c).report.kv_comm().kv_bytes();
    let mm = run("mm", Unweighted(&g), &c).report.kv_comm().kv_bytes();
    assert!(mm > mis, "MM bytes {mm} should exceed MIS bytes {mis}");
}

#[test]
fn shuffle_bytes_match_data_actually_moved() {
    // The DirectGraph shuffle carries one record per vertex whose size
    // is its directed adjacency; totals must match the graph's arcs.
    let g = gen::erdos_renyi(200, 800, 6);
    let c = cfg();
    let out = run("mis", Unweighted(&g), &c);
    let s = &out.report.stages[0];
    assert_eq!(s.name, "DirectGraph");
    // Each directed arc appears in exactly one record: at least 4 bytes
    // per arc plus per-record overhead; at most the full symmetric size.
    let arcs = g.num_edges() as u64; // directed version keeps each edge once
    assert!(s.shuffle_bytes >= arcs * 4);
    assert!(s.shuffle_bytes <= (g.num_nodes() as u64) * 16 + arcs * 8);
    assert!(s.shuffle_bytes_max_machine <= s.shuffle_bytes);
}

#[test]
fn msf_pipeline_reports_all_expected_stages() {
    let w = gen::degree_weights(gen::erdos_renyi(500, 3_000, 7));
    let mut c = cfg();
    c.in_memory_threshold = 100;
    let out = run("msf", Weighted(&w), &c);
    for prefix in [
        "SortGraph",
        "KV-Write",
        "PrimSearch",
        "Combine",
        "PointerJump",
        "Contract",
        "Rebuild",
    ] {
        assert!(
            out.report.stages.iter().any(|s| s.name.starts_with(prefix)),
            "missing stage {prefix}"
        );
    }
    // Breakdown must cover the whole simulated time.
    let total: u64 = out.report.breakdown().iter().map(|(_, t)| t).sum();
    assert_eq!(total, out.report.sim_ns());
}

#[test]
fn random_walk_extension_is_metered() {
    let g = gen::rmat(10, 8_000, gen::RmatParams::SOCIAL, 8);
    let p = AlgoParams {
        steps: 16,
        ..Default::default()
    };
    let out =
        run_family_with("walks", Model::Ampc, &Unweighted(&g), &cfg(), &p).expect("registered");
    // 16 hops per walker, one lookup each (minus dead ends) — answered
    // either by the network or the handle-mounted §5.3 cache.
    let kv = out.report.kv_comm();
    let lookups = kv.queries + kv.cache_hits;
    assert!(
        lookups >= 16 * (g.num_nodes() as u64) / 2,
        "lookups {lookups}"
    );
    assert!(kv.cache_hits > 0, "repeat visits should hit the cache");
    assert!(kv.batches <= kv.queries);
    // Lockstep batching: the Walk stage's read depth is the hop count,
    // not walkers × hops — so round trips are far below queries.
    assert!(
        kv.batches < kv.queries / 2,
        "batches {} vs queries {}",
        kv.batches,
        kv.queries
    );
    assert_eq!(out.report.num_shuffles(), 1);
}

/// The invariant [`CommStats::round_trips`] relies on, checked per
/// stage over every registry row with caching on and off: no stage
/// charges more round trips than it has network ops, and a stage charges
/// none exactly when no op crossed the network.
///
/// [`CommStats::round_trips`]: ampc_dht::metrics::CommStats::round_trips
#[test]
fn every_kernel_respects_batches_leq_ops() {
    let g = gen::rmat(10, 10_000, gen::RmatParams::SOCIAL, 12);
    let w = gen::degree_weights(g.clone());
    let cycles = gen::two_cycles(600, 3);
    for caching in [true, false] {
        let c = cfg().with_caching(caching);
        for e in &registry::ENTRIES {
            let input = match e.input {
                InputKind::Unweighted => Unweighted(&g),
                InputKind::Weighted => Weighted(&w),
                InputKind::CycleUnion => Unweighted(&cycles),
            };
            let r = e
                .run(&input, &c, &AlgoParams::default())
                .expect("accepted")
                .report;
            let what = format!("{}/{} caching={caching}", e.family, e.model.token());
            for s in &r.stages {
                let (batches, ops) = (s.comm.batches, s.comm.network_ops());
                assert!(batches <= ops, "{what} {}: {batches} > {ops}", s.name);
                assert_eq!(batches == 0, ops == 0, "{what} {}", s.name);
            }
            let kv = r.kv_comm();
            assert_eq!(r.kv_round_trips(), kv.batches, "{what}");
            // Algorithm 4 runs on shuffles and local steps alone.
            if e.model == Model::Ampc && e.family != "mm/loglog" {
                assert!(kv.batches > 0, "{what}");
            }
        }
    }
}
