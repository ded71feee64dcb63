//! What the registry still has to hold against something else, now that
//! every run goes through it: the socket-backed substrate must be
//! observationally identical to the flat one on every AMPC row, and the
//! runtime knobs must reach the kernels. The substrate test forces the
//! store through the process-global `force_store`, so it stays here
//! rather than as a `records` mode, where it would race the other
//! suites; the `records` table itself runs over the wire in CI's
//! `store-socket` column. (Cross-model equality, machine counts and
//! fault schedules are `records` modes; Table 3's shuffle counts are in
//! the `records` `shuffles` column and `tests/rounds.rs`.)

use ampc_bench::registry::{self, AlgoParams};
use ampc_bench::util::harness_config;
use ampc_core::algorithm::{AlgoInput, InputKind, Model};
use ampc_graph::datasets::Scale;
use ampc_graph::gen;
use ampc_runtime::{AmpcConfig, JobReport};

fn cfg() -> AmpcConfig {
    let mut c = harness_config(Scale::Test);
    // Small inputs: keep the MPC baselines genuinely distributed.
    c.in_memory_threshold = 100;
    c
}

fn tiny() -> ampc_graph::CsrGraph {
    gen::rmat(8, 1_500, gen::RmatParams::SOCIAL, 42)
}

/// Structural + cost equality of two reports (everything except
/// wall-clock, which legitimately varies).
fn assert_reports_identical(what: &str, a: &JobReport, b: &JobReport) {
    assert_eq!(a.num_machines, b.num_machines, "{what}: machine counts");
    assert_eq!(a.replays, b.replays, "{what}: replays");
    assert_eq!(a.stages.len(), b.stages.len(), "{what}: stage counts");
    for (i, (x, y)) in a.stages.iter().zip(&b.stages).enumerate() {
        assert_eq!(x.name, y.name, "{what}: stage {i} name");
        assert_eq!(x.kind, y.kind, "{what}: stage {i} kind");
        assert_eq!(x.comm, y.comm, "{what}: stage {i} CommStats");
        assert_eq!(
            x.shuffle_bytes, y.shuffle_bytes,
            "{what}: stage {i} shuffle bytes"
        );
        assert_eq!(
            x.shuffle_bytes_max_machine, y.shuffle_bytes_max_machine,
            "{what}: stage {i} max-machine bytes"
        );
        assert_eq!(
            x.gen_bytes, y.gen_bytes,
            "{what}: stage {i} generation bytes"
        );
        assert_eq!(x.ops, y.ops, "{what}: stage {i} ops");
        assert_eq!(x.sim_ns, y.sim_ns, "{what}: stage {i} simulated time");
    }
    assert_eq!(a.num_shuffles(), b.num_shuffles(), "{what}: shuffles");
    assert_eq!(a.num_kv_rounds(), b.num_kv_rounds(), "{what}: kv rounds");
    assert_eq!(a.kv_comm(), b.kv_comm(), "{what}: merged CommStats");
    assert_eq!(a.sim_ns(), b.sim_ns(), "{what}: total simulated time");
}

/// Socket-backed substrate through the driver path (DESIGN.md §12):
/// every AMPC registry row, theory variants included, run with the
/// socket store — shards in separate OS processes, reached over
/// Unix-domain sockets — is byte-identical to the flat run on outputs,
/// stage sequence and CommStats across 1/2/8 worker threads. One test,
/// all rows: the store override is process-global, so it is never racing
/// another store-sensitive assertion.
#[test]
fn socket_substrate_identical_through_registry() {
    use ampc_dht::store::{force_store, StoreKind};
    let g = tiny();
    let w = gen::degree_weights(g.clone());
    let cycles = gen::two_cycles(200, 11);
    // Walk and dyn-cc shapes; the other rows ignore them.
    let p = AlgoParams {
        walkers_per_node: 2,
        steps: 5,
        dyn_batches: 3,
        dyn_ops: 40,
        ..Default::default()
    };
    for e in registry::ENTRIES.iter().filter(|e| e.model == Model::Ampc) {
        let input = match e.input {
            InputKind::Unweighted => AlgoInput::Unweighted(&g),
            InputKind::Weighted => AlgoInput::Weighted(&w),
            InputKind::CycleUnion => AlgoInput::Unweighted(&cycles),
        };
        let flat = e
            .run(&input, &cfg().with_store(StoreKind::Flat), &p)
            .unwrap_or_else(|err| panic!("{}/flat: {err}", e.family));
        for threads in [1usize, 2, 8] {
            let c = cfg().with_threads(threads).with_store(StoreKind::Socket);
            let what = format!("{}/socket/threads-{threads}", e.family);
            let got = e
                .run(&input, &c, &p)
                .unwrap_or_else(|err| panic!("{what}: {err}"));
            assert_eq!(got.output, flat.output, "{what}: outputs differ");
            assert_reports_identical(&what, &got.report, &flat.report);
        }
    }
    force_store(None);
}

/// Driver knobs reach the kernels through the registry: seeds change
/// outputs, machine counts don't.
#[test]
fn registry_respects_runtime_knobs() {
    let g = tiny();
    let input = AlgoInput::Unweighted(&g);
    let base = cfg();

    let a = registry::run_family("mis", Model::Ampc, &input, &base).unwrap();
    let reseeded = registry::run_family("mis", Model::Ampc, &input, &base.with_seed(999)).unwrap();
    assert_ne!(a.output, reseeded.output, "seed should change the MIS");

    let p7 = registry::run_family("mis", Model::Ampc, &input, &base.with_machines(7)).unwrap();
    assert_eq!(a.output, p7.output, "machine count must not change outputs");
}
