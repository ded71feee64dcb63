//! Fault-tolerance integration tests.
//!
//! §2 of the paper argues AMPC is *"amenable to fault tolerant
//! implementation"* because DHT generations are immutable. We verify the
//! operational consequence: preempting and replaying any machine during
//! any stage leaves every algorithm's output byte-identical, while the
//! simulated time goes up (the wasted attempt is paid for).

use ampc::prelude::*;
use ampc_core::matching::ampc_matching;
use ampc_core::mis::ampc_mis;
use ampc_core::msf::ampc_msf;
use ampc_graph::gen;
use ampc_runtime::chaos::ChaosSpec;

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

#[test]
fn mis_survives_preemption_in_every_stage() {
    let g = gen::rmat(10, 9_000, gen::RmatParams::SOCIAL, 2);
    let clean = ampc_mis(&g, &cfg());
    for stage in 0..clean.report.stages.len() {
        for machine in [0, 3] {
            let c = cfg().with_chaos(kill(stage, machine));
            let faulted = ampc_mis(&g, &c);
            assert_eq!(
                faulted.in_mis, clean.in_mis,
                "stage {stage}, machine {machine}"
            );
        }
    }
}

#[test]
fn matching_survives_preemption() {
    let g = gen::erdos_renyi(300, 1200, 4);
    let clean = ampc_matching(&g, &cfg());
    for stage in 0..clean.report.stages.len() {
        let c = cfg().with_chaos(kill(stage, 1));
        let faulted = ampc_matching(&g, &c);
        assert_eq!(faulted.partner, clean.partner, "stage {stage}");
    }
}

#[test]
fn msf_survives_preemption() {
    let g = gen::degree_weights(&gen::erdos_renyi(400, 2_000, 6));
    let clean = ampc_msf(&g, &cfg());
    for stage in [0, 1, 2, 3] {
        let c = cfg().with_chaos(kill(stage, 2));
        let faulted = ampc_msf(&g, &c);
        assert_eq!(faulted.edges, clean.edges, "stage {stage}");
    }
}

#[test]
fn replay_is_counted_and_charged() {
    let g = gen::rmat(9, 4_000, gen::RmatParams::SOCIAL, 3);
    let clean = ampc_mis(&g, &cfg());
    // Stage 2 is the IsInMIS KV round (the expensive one).
    let c = cfg().with_chaos(kill(2, 0));
    let faulted = ampc_mis(&g, &c);
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
    let batches =
        ampc_graph::dynamic::generate_batches(&g, 3, 48, ampc_graph::dynamic::BatchMix::Churn, 11);
    let clean = dynamic::ampc_dynamic_cc(&g, &batches, &cfg());
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
            let faulted = dynamic::ampc_dynamic_cc(&g, &batches, &c);
            assert_eq!(
                faulted.labels, clean.labels,
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
    let clean = ampc_mpc::mpc_mis(&g, &cfg());
    let c = cfg().with_chaos(kill(0, 1));
    let faulted = ampc_mpc::mpc_mis(&g, &c);
    assert_eq!(faulted.in_mis, clean.in_mis);
}
