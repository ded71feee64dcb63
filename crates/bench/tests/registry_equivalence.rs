//! What the registry still has to hold against something else, now that
//! every run goes through it: the runtime knobs must reach the kernels.
//! (The socket store against the flat one, cross-model equality,
//! machine counts and fault schedules are `records` modes; Table 3's
//! shuffle counts are in the `records` `shuffles` column and
//! `tests/rounds.rs`.)

use ampc_bench::registry;
use ampc_bench::util::harness_config;
use ampc_core::algorithm::{AlgoInput, Model};
use ampc_graph::datasets::Scale;
use ampc_graph::gen;
use ampc_runtime::AmpcConfig;

fn cfg() -> AmpcConfig {
    let mut c = harness_config(Scale::Test);
    // Small inputs: keep the MPC baselines genuinely distributed.
    c.in_memory_threshold = 100;
    c
}

fn tiny() -> ampc_graph::CsrGraph {
    gen::rmat(8, 1_500, gen::RmatParams::SOCIAL, 42)
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
