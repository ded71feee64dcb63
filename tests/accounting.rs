//! Accounting invariants: the metering the figures are built on must
//! itself be trustworthy.

use ampc::prelude::*;
use ampc_core::matching::ampc_matching;
use ampc_core::mis::ampc_mis;
use ampc_core::msf::ampc_msf;
use ampc_dht::cost::Network;
use ampc_graph::gen;

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 5,
        in_memory_threshold: 300,
        ..AmpcConfig::default()
    }
}

#[test]
fn kv_bytes_scale_roughly_linearly_with_edges() {
    // Figure 9's premise: KV communication is near-linear in m.
    let small = gen::rmat(10, 10_000, gen::RmatParams::SOCIAL, 1);
    let large = gen::rmat(13, 80_000, gen::RmatParams::SOCIAL, 1);
    let c = cfg();
    let b_small =
        ampc_mis(&small, &c).report.kv_comm().kv_bytes() as f64 / small.num_edges() as f64;
    let b_large =
        ampc_mis(&large, &c).report.kv_comm().kv_bytes() as f64 / large.num_edges() as f64;
    let ratio = b_large / b_small;
    assert!(
        (0.3..3.0).contains(&ratio),
        "bytes-per-edge drifted superlinearly: {b_small:.1} -> {b_large:.1}"
    );
}

#[test]
fn caching_reduces_queries_not_correctness() {
    let g = gen::rmat(11, 20_000, gen::RmatParams::SOCIAL, 2);
    let with = ampc_mis(&g, &cfg().with_caching(true));
    let without = ampc_mis(&g, &cfg().with_caching(false));
    assert_eq!(with.in_mis, without.in_mis);
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
    let rdma = ampc_mis(&g, &rdma_cfg);
    let tcp = ampc_mis(&g, &tcp_cfg);
    assert_eq!(rdma.in_mis, tcp.in_mis);
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
    let a = ampc_mis(&g, &cfg().with_machines(2));
    let b = ampc_mis(&g, &cfg().with_machines(16));
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
    let mis = ampc_mis(&g, &c).report.kv_comm().kv_bytes();
    let mm = ampc_matching(&g, &c).report.kv_comm().kv_bytes();
    assert!(mm > mis, "MM bytes {mm} should exceed MIS bytes {mis}");
}

#[test]
fn shuffle_bytes_match_data_actually_moved() {
    // The DirectGraph shuffle carries one record per vertex whose size
    // is its directed adjacency; totals must match the graph's arcs.
    let g = gen::erdos_renyi(200, 800, 6);
    let c = cfg();
    let out = ampc_mis(&g, &c);
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
    let w = gen::degree_weights(&gen::erdos_renyi(500, 3_000, 7));
    let mut c = cfg();
    c.in_memory_threshold = 100;
    let out = ampc_msf(&w, &c);
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
    let out = ampc_core::walks::ampc_random_walks(&g, &cfg(), 1, 16);
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
/// stage over every kernel × model pair with caching on and off: no
/// stage charges more round trips than it has network ops, and a stage
/// charges none exactly when no op crossed the network.
///
/// [`CommStats::round_trips`]: ampc_dht::metrics::CommStats::round_trips
#[test]
fn every_kernel_respects_batches_leq_ops() {
    use ampc_core::algorithm::{self as ampc_alg, InputKind};
    use ampc_mpc::algorithms as mpc_alg;
    let g = gen::rmat(10, 10_000, gen::RmatParams::SOCIAL, 12);
    let w = gen::degree_weights(&g);
    let cycles = gen::two_cycles(600, 3);
    let kernels: [Box<dyn AmpcAlgorithm>; 14] = [
        Box::new(ampc_alg::AmpcMis),
        Box::new(mpc_alg::MpcMis),
        Box::new(ampc_alg::AmpcMatching),
        Box::new(mpc_alg::MpcMatching),
        Box::new(ampc_alg::AmpcMsf),
        Box::new(mpc_alg::MpcMsf),
        Box::new(ampc_alg::AmpcConnectivity),
        Box::new(mpc_alg::MpcConnectivity),
        Box::new(ampc_alg::AmpcOneVsTwo::default()),
        Box::new(mpc_alg::MpcOneVsTwo),
        Box::new(ampc_alg::AmpcWalks::default()),
        Box::new(mpc_alg::MpcWalks::default()),
        Box::new(ampc_alg::AmpcDynamicCc::default()),
        Box::new(mpc_alg::MpcDynamicCc::default()),
    ];
    for caching in [true, false] {
        let c = cfg().with_caching(caching);
        for alg in &kernels {
            let input = match alg.input_kind() {
                InputKind::Unweighted => AlgoInput::Unweighted(&g),
                InputKind::Weighted => AlgoInput::Weighted(&w),
                InputKind::CycleUnion => AlgoInput::Unweighted(&cycles),
            };
            let r = ampc_runtime::driver::drive(&c, |job| alg.run(job, &input)).report;
            let what = format!("{}/{} caching={caching}", alg.name(), alg.model().token());
            for s in &r.stages {
                let (batches, ops) = (s.comm.batches, s.comm.network_ops());
                assert!(batches <= ops, "{what} {}: {batches} > {ops}", s.name);
                assert_eq!(batches == 0, ops == 0, "{what} {}", s.name);
            }
            let kv = r.kv_comm();
            assert_eq!(r.kv_round_trips(), kv.batches, "{what}");
            if alg.model() == Model::Ampc {
                assert!(kv.batches > 0, "{what}");
            }
        }
    }
}
