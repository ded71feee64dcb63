//! Cross-model integration tests: the paper's own validation strategy.
//!
//! §5.3: *"By specifying the same source of randomness, both the MPC and
//! AMPC algorithms compute the same MIS."* We assert exact equality of
//! every registry row of a family — the AMPC kernel, its theory variants
//! and the MPC baseline — with the sequential oracle on every dataset
//! analogue, and that results are invariant under the machine count (a
//! real distributed-correctness property).

use ampc::prelude::*;
use ampc_bench::registry::run_family;
use ampc_core::matching::greedy_matching;
use ampc_core::mis::greedy_mis;
use ampc_core::msf::in_memory::kruskal;
use ampc_core::one_vs_two::CycleAnswer;
use ampc_core::validate;
use ampc_graph::datasets::Scale;
use AlgoInput::{Unweighted, Weighted};

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 6,
        in_memory_threshold: 400,
        seed: 0xFEED,
        ..AmpcConfig::default()
    }
}

/// The output of registry row `family` under `model` on `input`.
fn output(family: &str, model: Model, input: AlgoInput<'_>, c: &AmpcConfig) -> AlgoOutput {
    run_family(family, model, &input, c)
        .expect("a registered row on an input it accepts")
        .output
}

#[test]
fn mis_identical_across_all_implementations_and_datasets() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate(Scale::Test, 7);
        let c = cfg();
        let oracle = greedy_mis(&g, c.seed);
        assert!(validate::is_maximal_independent_set(&g, &oracle));
        let oracle = AlgoOutput::Mis(oracle);
        for (family, model) in [
            ("mis", Model::Ampc),
            ("mis/truncated", Model::Ampc),
            ("mis", Model::Mpc),
        ] {
            let got = output(family, model, Unweighted(&g), &c);
            let what = format!("{family}/{} vs oracle on {}", model.token(), d.name());
            assert_eq!(got, oracle, "{what}");
        }
    }
}

#[test]
fn matching_identical_across_all_implementations_and_datasets() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate(Scale::Test, 3);
        let c = cfg();
        let oracle = AlgoOutput::Matching(greedy_matching(&g, c.seed));
        for (family, model) in [
            ("mm", Model::Ampc),
            ("mm/truncated", Model::Ampc),
            ("mm/loglog", Model::Ampc),
            ("mm", Model::Mpc),
        ] {
            let got = output(family, model, Unweighted(&g), &c);
            assert_eq!(got, oracle, "{family}/{} on {}", model.token(), d.name());
        }
    }
}

#[test]
fn msf_identical_across_all_implementations_and_datasets() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate_weighted(Scale::Test, 5);
        let c = cfg();
        let oracle = AlgoOutput::Forest(kruskal(&g));
        for (family, model) in [
            ("msf", Model::Ampc),
            ("msf/algorithm2", Model::Ampc),
            ("msf", Model::Mpc),
        ] {
            let got = output(family, model, Weighted(&g), &c);
            assert_eq!(got, oracle, "{family}/{} on {}", model.token(), d.name());
        }
    }
}

#[test]
fn connectivity_correct_on_all_datasets() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate(Scale::Test, 9);
        let c = cfg();
        let [a, m] = [Model::Ampc, Model::Mpc].map(|model| {
            let AlgoOutput::Components(label) = output("cc", model, Unweighted(&g), &c) else {
                unreachable!("the cc rows return labels")
            };
            assert!(
                validate::is_correct_components(&g, &label),
                "{} CC on {}",
                model.token(),
                d.name()
            );
            label
        });
        // Both produce the canonical min-id labelling: exact equality.
        assert_eq!(a, m, "canonical labels on {}", d.name());
    }
}

#[test]
fn results_invariant_under_machine_count() {
    let g = Dataset::Orkut.generate(Scale::Test, 2);
    let w = Dataset::Orkut.generate_weighted(Scale::Test, 2);
    let outputs = |c: &AmpcConfig| {
        [
            ("mis", Unweighted(&g)),
            ("mm", Unweighted(&g)),
            ("msf", Weighted(&w)),
        ]
        .map(|(family, input)| output(family, Model::Ampc, input, c))
    };
    let reference = outputs(&cfg());
    for p in [1, 2, 13, 40] {
        let c = cfg().with_machines(p);
        assert_eq!(outputs(&c), reference, "MIS, MM and MSF at P={p}");
    }
}

#[test]
fn different_seeds_give_different_but_valid_outputs() {
    let g = Dataset::Orkut.generate(Scale::Test, 4);
    let [a, b] = [1, 2].map(|seed| {
        let c = cfg().with_seed(seed);
        let AlgoOutput::Mis(in_mis) = output("mis", Model::Ampc, Unweighted(&g), &c) else {
            unreachable!("the mis row returns a set")
        };
        assert!(validate::is_maximal_independent_set(&g, &in_mis));
        in_mis
    });
    assert_ne!(a, b, "seeds should matter");
}

#[test]
fn one_vs_two_cycle_both_models_agree() {
    for k in [500usize, 5_000] {
        for (g, truth) in [
            (ampc_graph::gen::single_cycle(2 * k, 3), CycleAnswer::One),
            (ampc_graph::gen::two_cycles(k, 3), CycleAnswer::Two),
        ] {
            for model in [Model::Ampc, Model::Mpc] {
                let out = output("one-vs-two", model, Unweighted(&g), &cfg());
                let AlgoOutput::Cycles { answer, .. } = out else {
                    unreachable!("the one-vs-two rows return a cycle answer")
                };
                assert_eq!(answer, truth, "{}", model.token());
            }
        }
    }
}
