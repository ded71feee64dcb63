//! Fault-tolerance integration tests.
//!
//! §2 of the paper argues AMPC is *"amenable to fault tolerant
//! implementation"* because DHT generations are immutable. We verify the
//! operational consequence: preempting and replaying any machine during
//! any stage leaves every algorithm's output byte-identical, while the
//! simulated time goes up (the wasted attempt is paid for).

use ampc::prelude::*;
use ampc_bench::registry::{run_family, run_family_with, AlgoParams};
use ampc_graph::gen;
use ampc_runtime::chaos::ChaosSpec;
use ampc_runtime::driver::Driven;
use AlgoInput::{Unweighted, Weighted};

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 5,
        in_memory_threshold: 200,
        ..AmpcConfig::default()
    }
}

/// One preemption: `machine` dies during global stage `stage`.
fn kill(stage: usize, machine: u32) -> ChaosSpec {
    ChaosSpec::new(0xFA17).with_kill(stage as u32, machine)
}

/// `family`'s row under `model` on `input`, default parameters.
fn run(family: &str, model: Model, input: AlgoInput<'_>, c: &AmpcConfig) -> Driven<AlgoOutput> {
    run_family(family, model, &input, c).expect("a registered row")
}

#[test]
fn mis_survives_preemption_in_every_stage() {
    let g = gen::rmat(10, 9_000, gen::RmatParams::SOCIAL, 2);
    let clean = run("mis", Model::Ampc, Unweighted(&g), &cfg());
    for stage in 0..clean.report.stages.len() {
        for machine in [0, 3] {
            let c = cfg().with_chaos(kill(stage, machine));
            let faulted = run("mis", Model::Ampc, Unweighted(&g), &c);
            assert_eq!(
                faulted.output, clean.output,
                "stage {stage}, machine {machine}"
            );
        }
    }
}

#[test]
fn matching_survives_preemption() {
    let g = gen::erdos_renyi(300, 1200, 4);
    let clean = run("mm", Model::Ampc, Unweighted(&g), &cfg());
    for stage in 0..clean.report.stages.len() {
        let c = cfg().with_chaos(kill(stage, 1));
        let faulted = run("mm", Model::Ampc, Unweighted(&g), &c);
        assert_eq!(faulted.output, clean.output, "stage {stage}");
    }
}

#[test]
fn msf_survives_preemption() {
    let g = gen::degree_weights(&gen::erdos_renyi(400, 2_000, 6));
    let clean = run("msf", Model::Ampc, Weighted(&g), &cfg());
    for stage in [0, 1, 2, 3] {
        let c = cfg().with_chaos(kill(stage, 2));
        let faulted = run("msf", Model::Ampc, Weighted(&g), &c);
        assert_eq!(faulted.output, clean.output, "stage {stage}");
    }
}

#[test]
fn replay_is_counted_and_charged() {
    let g = gen::rmat(9, 4_000, gen::RmatParams::SOCIAL, 3);
    let clean = run("mis", Model::Ampc, Unweighted(&g), &cfg());
    // Stage 2 is the IsInMIS KV round (the expensive one).
    let c = cfg().with_chaos(kill(2, 0));
    let faulted = run("mis", Model::Ampc, Unweighted(&g), &c);
    assert_eq!(faulted.report.replays, 1);
    assert_eq!(clean.report.replays, 0);
    assert!(
        faulted.report.sim_ns() > clean.report.sim_ns(),
        "the wasted attempt must cost simulated time"
    );
}

#[test]
fn dyn_cc_survives_preemption_across_layouts_and_threads() {
    let g = gen::erdos_renyi(300, 420, 9);
    let p = AlgoParams {
        dyn_batches: 3,
        dyn_ops: 48,
        dyn_seed: 11,
        ..Default::default()
    };
    let dyn_cc = |c: &AmpcConfig| {
        run_family_with("dyn-cc", Model::Ampc, &Unweighted(&g), c, &p).expect("registered")
    };
    let clean = dyn_cc(&cfg());
    assert_eq!(clean.report.replays, 0);
    // Preempt during a mid-stream epoch's classify round and during the
    // final epoch, at 1/8 executor threads (the AMPC_THREADS axis; the
    // layout axis is whichever substrate the ambient `AMPC_STORE`
    // selects): recovery replays the partition against the last sealed
    // generation, so every epoch's labels stay byte-identical
    // everywhere.
    let kv_stages: Vec<usize> = clean
        .report
        .stages
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == ampc_runtime::StageKind::KvRound)
        .map(|(i, _)| i)
        .collect();
    let probe = [kv_stages[kv_stages.len() / 2], *kv_stages.last().unwrap()];
    for threads in [1, 8] {
        for &stage in &probe {
            let c = cfg().with_threads(threads).with_chaos(kill(stage, 2));
            let faulted = dyn_cc(&c);
            assert_eq!(
                faulted.output, clean.output,
                "stage {stage}, threads={threads}"
            );
            assert_eq!(faulted.report.replays, 1);
            assert!(faulted.report.sim_ns() > clean.report.sim_ns());
        }
    }
}

#[test]
fn mpc_baseline_also_survives_preemption() {
    let g = gen::erdos_renyi(300, 1_500, 8);
    let clean = run("mis", Model::Mpc, Unweighted(&g), &cfg());
    let c = cfg().with_chaos(kill(0, 1));
    let faulted = run("mis", Model::Mpc, Unweighted(&g), &c);
    assert_eq!(faulted.output, clean.output);
}
