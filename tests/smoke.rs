//! Workspace smoke test: one tiny end-to-end job per algorithm family,
//! the family's AMPC and MPC registry rows on the same input, each output
//! validated, asserting the cross-model equality invariant of DESIGN.md
//! §3 — AMPC and MPC consume the same seeded priorities, so their outputs
//! must be *identical* (the paper's own validation strategy, §5.3).
//! Inputs are far below every dataset analogue so the whole suite
//! finishes in about a second; `cross_model` covers the full analogues.

use ampc::prelude::*;
use ampc_bench::registry::{self, AlgoParams};
use ampc_graph::gen;
use ampc_runtime::driver::Driven;
use AlgoInput::{Unweighted, Weighted};

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 4,
        in_memory_threshold: 100,
        seed: 0x500C,
        ..AmpcConfig::default()
    }
}

fn tiny() -> CsrGraph {
    gen::rmat(8, 1_500, gen::RmatParams::SOCIAL, 42)
}

/// `family`'s AMPC and MPC rows on `input`, each output validated.
fn both(family: &str, input: AlgoInput<'_>, p: &AlgoParams) -> [Driven<AlgoOutput>; 2] {
    [Model::Ampc, Model::Mpc].map(|model| {
        let entry = registry::lookup(family, model).expect("registered");
        let run = entry
            .run(&input, &cfg(), p)
            .expect("an input the row accepts");
        let what = format!("{family}/{}", model.token());
        entry
            .validate(&input, &run.output, p)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        run
    })
}

#[test]
fn smoke_mis() {
    let g = tiny();
    let [a, m] = both("mis", Unweighted(&g), &AlgoParams::default());
    assert_eq!(a.output, m.output, "AMPC and MPC disagree on the MIS");
}

#[test]
fn smoke_matching() {
    let g = tiny();
    let [a, m] = both("mm", Unweighted(&g), &AlgoParams::default());
    assert_eq!(a.output, m.output, "AMPC and MPC disagree on the matching");
}

#[test]
fn smoke_msf() {
    let g = gen::random_weights(&tiny(), 1_000, 7);
    let [a, m] = both("msf", Weighted(&g), &AlgoParams::default());
    assert_eq!(a.output, m.output, "AMPC and MPC disagree on the MSF");
}

#[test]
fn smoke_connectivity() {
    let g = tiny();
    let [a, m] = both("cc", Unweighted(&g), &AlgoParams::default());
    assert_eq!(
        a.output, m.output,
        "AMPC and MPC disagree on component labels"
    );
}

#[test]
fn smoke_one_vs_two_cycle() {
    // Validation holds each model's answer to the instance's truth.
    for g in [gen::single_cycle(400, 11), gen::two_cycles(200, 11)] {
        both("one-vs-two", Unweighted(&g), &AlgoParams::default());
    }
}

#[test]
fn smoke_walks() {
    let g = tiny();
    let p = AlgoParams {
        steps: 6,
        ..Default::default()
    };
    let [a, m] = both("walks", Unweighted(&g), &p);
    assert_eq!(a.output, m.output, "AMPC and MPC disagree on the walks");
    // The §5.7 separation: AMPC pays one shuffle, MPC one per hop.
    assert_eq!(a.report.num_shuffles(), 1);
    assert_eq!(m.report.num_shuffles(), 6);
}

#[test]
fn smoke_dynamic_connectivity() {
    let g = tiny();
    let p = AlgoParams {
        dyn_batches: 3,
        dyn_ops: 40,
        dyn_seed: 11,
        ..Default::default()
    };
    let [a, m] = both("dyn-cc", Unweighted(&g), &p);
    // The subsystem's contract: maintained labels byte-identical to
    // recompute-from-scratch after every batch (validation replays every
    // epoch against the oracle).
    assert_eq!(
        a.output, m.output,
        "maintained and recomputed labels disagree"
    );
    assert_eq!(a.report.num_epochs(), 4, "DynInit + one epoch per batch");
}
