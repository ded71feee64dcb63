//! Round-complexity assertions — the structural claims of Table 1 and
//! Table 3, checked mechanically.
//!
//! Table 3 reports the shuffle counts of the production implementations:
//! AMPC MIS and MM use **1** shuffle, AMPC MSF uses **5** (per
//! distributed round of its loop), while the MPC baselines pay 2 (MIS,
//! MM) or 3 (MSF, CC) shuffles per phase over O(log n)-many phases.

use ampc::prelude::*;
use ampc_bench::registry::{run_family, AlgoParams};
use ampc_graph::datasets::Scale;
use ampc_runtime::JobReport;
use AlgoInput::{Unweighted, Weighted};

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 6,
        in_memory_threshold: 300,
        ..AmpcConfig::default()
    }
}

/// The report of registry row `family` under `model` on `input`.
fn report(family: &str, model: Model, input: AlgoInput<'_>) -> JobReport {
    run_family(family, model, &input, &cfg())
        .expect("a registered row on an input it accepts")
        .report
}

#[test]
fn ampc_mis_single_shuffle_all_datasets() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate(Scale::Test, 1);
        let r = report("mis", Model::Ampc, Unweighted(&g));
        assert_eq!(r.num_shuffles(), 1, "{}", d.name());
        // Figure 1's three steps: shuffle + KV-write + IsInMIS.
        assert_eq!(r.stages.len(), 3, "{}", d.name());
    }
}

#[test]
fn ampc_mm_single_shuffle_all_datasets() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate(Scale::Test, 1);
        let r = report("mm", Model::Ampc, Unweighted(&g));
        assert_eq!(r.num_shuffles(), 1, "{}", d.name());
    }
}

#[test]
fn ampc_msf_five_shuffles_per_distributed_round() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate_weighted(Scale::Test, 1);
        let s = report("msf", Model::Ampc, Weighted(&g)).num_shuffles();
        assert!(s.is_multiple_of(5) && s > 0, "{}: {} shuffles", d.name(), s);
    }
}

#[test]
fn ampc_one_vs_two_single_shuffle() {
    let g = ampc_graph::gen::two_cycles(3_000, 1);
    let r = report("one-vs-two", Model::Ampc, Unweighted(&g));
    assert_eq!(r.num_shuffles(), 1);
}

#[test]
fn mpc_baselines_pay_logarithmically_many_shuffles() {
    let g = Dataset::Twitter.generate(Scale::Test, 1);
    let mis = report("mis", Model::Mpc, Unweighted(&g)).num_shuffles();
    let mm = report("mm", Model::Mpc, Unweighted(&g)).num_shuffles();
    assert!(mis >= 4, "MIS: {mis}");
    assert_eq!(mis % 2, 0);
    assert!(mm >= 4, "MM: {mm}");

    let w = Dataset::Twitter.generate_weighted(Scale::Test, 1);
    let msf = report("msf", Model::Mpc, Weighted(&w)).num_shuffles();
    assert_eq!(msf % 3, 0);
    // Borůvka needs more phases than rootset MIS (Table 3's pattern:
    // 33–84 shuffles vs 8–14).
    assert!(msf > mis, "Boruvka {msf} vs rootset {mis}");
    // The §5.7 separation: AMPC walks pay one shuffle, MPC one per hop.
    let walks = [Model::Ampc, Model::Mpc].map(|m| report("walks", m, Unweighted(&g)));
    assert_eq!(
        walks.map(|r| r.num_shuffles()),
        [1, AlgoParams::default().steps]
    );
}

#[test]
fn ampc_beats_mpc_on_shuffles_everywhere() {
    for d in Dataset::REAL_WORLD {
        let g = d.generate(Scale::Test, 6);
        let a = report("mis", Model::Ampc, Unweighted(&g)).num_shuffles();
        let m = report("mis", Model::Mpc, Unweighted(&g)).num_shuffles();
        assert!(a < m, "{}: AMPC {a} vs MPC {m}", d.name());
    }
}

#[test]
fn truncated_theory_variants_use_constant_rounds() {
    let g = Dataset::Orkut.generate(Scale::Test, 8);
    for family in ["mis/truncated", "mm/truncated"] {
        // O(1/ε) query rounds: generous constant bound.
        let rounds = report(family, Model::Ampc, Unweighted(&g)).num_kv_rounds();
        assert!(rounds <= 10, "{family}: {rounds}");
    }
}
