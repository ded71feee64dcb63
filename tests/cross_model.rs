//! The sequential-oracle sweep, the paper's own validation strategy
//! (§5.3: *"By specifying the same source of randomness, both the MPC
//! and AMPC algorithms compute the same MIS."*): every registry row of a
//! family with a sequential oracle — the AMPC kernel, its theory
//! variants and the MPC baseline — computes exactly the oracle's output
//! on every dataset analogue. Model against model, machine counts and
//! fault schedules are modes of the `records` table
//! (`crates/bench/tests/records.rs`).

use ampc::prelude::*;
use ampc_bench::registry::{AlgoParams, ENTRIES};
use ampc_core::algorithm::InputKind;
use ampc_core::matching::greedy_matching;
use ampc_core::mis::greedy_mis;
use ampc_core::msf::in_memory::kruskal;
use ampc_graph::datasets::Scale;
use ampc_graph::gen;
use ampc_graph::stats::connected_components;

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 6,
        in_memory_threshold: 400,
        seed: 0xFEED,
        ..AmpcConfig::default()
    }
}

/// Every registry row of `family` on every `REAL_WORLD` analogue against
/// the family's sequential oracle on the row's own input.
fn sweep(family: &str) {
    let c = cfg();
    for d in Dataset::REAL_WORLD {
        let g = d.generate(Scale::Test, 7);
        let w = gen::degree_weights(g.clone());
        for e in ENTRIES
            .iter()
            .filter(|e| e.family.split('/').next() == Some(family))
        {
            let input = match e.input {
                InputKind::Weighted => AlgoInput::Weighted(&w),
                _ => AlgoInput::Unweighted(&g),
            };
            let s = input.structure();
            let oracle = match family {
                "mis" => AlgoOutput::Mis(greedy_mis(s, c.seed)),
                "mm" => AlgoOutput::Matching(greedy_matching(s, c.seed)),
                "msf" => AlgoOutput::Forest(kruskal(&w)),
                _ => AlgoOutput::Components(connected_components(s).label),
            };
            let got = e
                .run(&input, &c, &AlgoParams::default())
                .expect("an input the row accepts");
            assert_eq!(
                got.output,
                oracle,
                "{}/{} on {}",
                e.family,
                e.model.token(),
                d.name()
            );
        }
    }
}

#[test]
fn mis_identical_across_all_implementations_and_datasets() {
    sweep("mis");
}

#[test]
fn matching_identical_across_all_implementations_and_datasets() {
    sweep("mm");
}

#[test]
fn msf_identical_across_all_implementations_and_datasets() {
    sweep("msf");
}

#[test]
fn connectivity_correct_on_all_datasets() {
    sweep("cc");
}
