//! Cross-model integration tests: the paper's own validation strategy.
//!
//! §5.3: *"By specifying the same source of randomness, both the MPC and
//! AMPC algorithms compute the same MIS."* We assert exact equality of
//! the AMPC implementations, the MPC baselines, and the sequential
//! oracles on every dataset analogue — and that results are invariant
//! under the machine count (a real distributed-correctness property).

use ampc::prelude::*;
use ampc_core::matching::{ampc_matching, ampc_matching_loglog, greedy_matching};
use ampc_core::mis::{ampc_mis, greedy_mis};
use ampc_core::msf::in_memory::kruskal;
use ampc_core::msf::{ampc_msf, ampc_msf_algorithm2};
use ampc_core::validate;
use ampc_graph::datasets::Scale;

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 6,
        in_memory_threshold: 400,
        seed: 0xFEED,
        ..AmpcConfig::default()
    }
}

#[test]
fn mis_identical_across_all_implementations_and_datasets() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate(Scale::Test, 7);
        let c = cfg();
        let oracle = greedy_mis(&g, c.seed);
        let a = ampc_mis(&g, &c);
        assert_eq!(a.in_mis, oracle, "AMPC vs oracle on {}", d.name());
        let m = ampc_mpc::mpc_mis(&g, &c);
        assert_eq!(m.in_mis, oracle, "MPC vs oracle on {}", d.name());
        assert!(validate::is_maximal_independent_set(&g, &oracle));
    }
}

#[test]
fn matching_identical_across_all_implementations_and_datasets() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate(Scale::Test, 3);
        let c = cfg();
        let oracle = greedy_matching(&g, c.seed);
        assert_eq!(
            ampc_matching(&g, &c).partner,
            oracle,
            "AMPC O(1) on {}",
            d.name()
        );
        assert_eq!(
            ampc_matching_loglog(&g, &c).partner,
            oracle,
            "AMPC loglog on {}",
            d.name()
        );
        assert_eq!(
            ampc_mpc::mpc_matching(&g, &c).partner,
            oracle,
            "MPC on {}",
            d.name()
        );
    }
}

#[test]
fn msf_identical_across_all_implementations_and_datasets() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate_weighted(Scale::Test, 5);
        let c = cfg();
        let oracle = kruskal(&g);
        assert_eq!(ampc_msf(&g, &c).edges, oracle, "pipeline on {}", d.name());
        assert_eq!(
            ampc_msf_algorithm2(&g, &c).edges,
            oracle,
            "algorithm 2 on {}",
            d.name()
        );
        assert_eq!(
            ampc_mpc::mpc_msf(&g, &c).edges,
            oracle,
            "Boruvka on {}",
            d.name()
        );
    }
}

#[test]
fn connectivity_correct_on_all_datasets() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate(Scale::Test, 9);
        let c = cfg();
        let a = ampc_core::connectivity::ampc_connected_components(&g, &c);
        assert!(
            validate::is_correct_components(&g, &a.label),
            "AMPC CC on {}",
            d.name()
        );
        let m = ampc_mpc::mpc_connected_components(&g, &c);
        assert!(
            validate::is_correct_components(&g, &m.label),
            "MPC CC on {}",
            d.name()
        );
        // Both produce the canonical min-id labelling: exact equality.
        assert_eq!(a.label, m.label, "canonical labels on {}", d.name());
    }
}

#[test]
fn results_invariant_under_machine_count() {
    let g = Dataset::Orkut.generate(Scale::Test, 2);
    let w = Dataset::Orkut.generate_weighted(Scale::Test, 2);
    let base = cfg();
    let reference_mis = ampc_mis(&g, &base).in_mis;
    let reference_mm = ampc_matching(&g, &base).partner;
    let reference_msf = ampc_msf(&w, &base).edges;
    for p in [1, 2, 13, 40] {
        let c = base.with_machines(p);
        assert_eq!(ampc_mis(&g, &c).in_mis, reference_mis, "MIS at P={p}");
        assert_eq!(ampc_matching(&g, &c).partner, reference_mm, "MM at P={p}");
        assert_eq!(ampc_msf(&w, &c).edges, reference_msf, "MSF at P={p}");
    }
}

#[test]
fn different_seeds_give_different_but_valid_outputs() {
    let g = Dataset::Orkut.generate(Scale::Test, 4);
    let a = ampc_mis(&g, &cfg().with_seed(1));
    let b = ampc_mis(&g, &cfg().with_seed(2));
    assert_ne!(a.in_mis, b.in_mis, "seeds should matter");
    assert!(validate::is_maximal_independent_set(&g, &a.in_mis));
    assert!(validate::is_maximal_independent_set(&g, &b.in_mis));
}

#[test]
fn one_vs_two_cycle_both_models_agree() {
    use ampc_core::one_vs_two::{ampc_one_vs_two, CycleAnswer};
    for k in [500usize, 5_000] {
        for (g, truth) in [
            (ampc_graph::gen::single_cycle(2 * k, 3), CycleAnswer::One),
            (ampc_graph::gen::two_cycles(k, 3), CycleAnswer::Two),
        ] {
            let c = cfg();
            assert_eq!(ampc_one_vs_two(&g, &c).answer, truth);
            let (m, _) = ampc_mpc::local_contraction::mpc_one_vs_two(&g, &c);
            assert_eq!(m, truth);
        }
    }
}
