//! Registry-level equivalence suite: every registered algorithm, run
//! through the driver + registry path (`ampc run`'s code path), must be
//! **observationally identical** to a direct kernel call — byte-equal
//! outputs, the same stage sequence (names, kinds, per-stage costs),
//! the same shuffle/KV-round counts and the same merged `CommStats`.
//! On top of that the suite re-pins the Table 3 shuffle counts through
//! the new path and checks every output validates.

use ampc_bench::registry::{self, AlgoParams};
use ampc_bench::util::harness_config;
use ampc_core::algorithm::{AlgoInput, AlgoOutput, Model};
use ampc_core::{connectivity, matching, mis, msf, one_vs_two, walks};
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

/// Runs `(family, model)` through the registry and checks output and
/// report against the direct result, then validates the output.
fn check(
    family: &str,
    model: Model,
    input: &AlgoInput<'_>,
    c: &AmpcConfig,
    params: &AlgoParams,
    direct_output: AlgoOutput,
    direct_report: &JobReport,
) -> AlgoOutput {
    let what = format!("{family}/{}", model.token());
    let driven = registry::run_family_with(family, model, input, c, params)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(driven.output, direct_output, "{what}: outputs differ");
    assert_reports_identical(&what, &driven.report, direct_report);
    registry::lookup(family, model)
        .unwrap()
        .validate(input, &driven.output, params)
        .unwrap_or_else(|e| panic!("{what}: validation failed: {e}"));
    driven.output
}

#[test]
fn mis_both_models_identical_through_registry() {
    let g = tiny();
    let c = cfg();
    let input = AlgoInput::Unweighted(&g);
    let p = AlgoParams::default();

    let direct = mis::ampc_mis(&g, &c);
    let a = check(
        "mis",
        Model::Ampc,
        &input,
        &c,
        &p,
        AlgoOutput::Mis(direct.in_mis.clone()),
        &direct.report,
    );

    let direct_m = ampc_mpc::mpc_mis(&g, &c);
    let m = check(
        "mis",
        Model::Mpc,
        &input,
        &c,
        &p,
        AlgoOutput::Mis(direct_m.in_mis),
        &direct_m.report,
    );

    // Cross-model equality through the registry (DESIGN.md §3).
    assert_eq!(a, m, "AMPC and MPC MIS disagree through the registry");
    // Table 3 through the new path: AMPC MIS = 1 shuffle.
    assert_eq!(direct.report.num_shuffles(), 1);
}

#[test]
fn matching_both_models_identical_through_registry() {
    let g = tiny();
    let c = cfg();
    let input = AlgoInput::Unweighted(&g);
    let p = AlgoParams::default();

    let direct = matching::ampc_matching(&g, &c);
    let a = check(
        "mm",
        Model::Ampc,
        &input,
        &c,
        &p,
        AlgoOutput::Matching(direct.partner.clone()),
        &direct.report,
    );

    let direct_m = ampc_mpc::mpc_matching(&g, &c);
    let m = check(
        "mm",
        Model::Mpc,
        &input,
        &c,
        &p,
        AlgoOutput::Matching(direct_m.partner),
        &direct_m.report,
    );

    assert_eq!(a, m, "AMPC and MPC matching disagree through the registry");
    assert_eq!(direct.report.num_shuffles(), 1); // Table 3
}

#[test]
fn msf_both_models_identical_through_registry() {
    let g = gen::degree_weights(&tiny());
    let c = cfg();
    let input = AlgoInput::Weighted(&g);
    let p = AlgoParams::default();

    let direct = msf::ampc_msf(&g, &c);
    let a = check(
        "msf",
        Model::Ampc,
        &input,
        &c,
        &p,
        AlgoOutput::Forest(direct.edges.clone()),
        &direct.report,
    );

    let direct_m = ampc_mpc::mpc_msf(&g, &c);
    let m = check(
        "msf",
        Model::Mpc,
        &input,
        &c,
        &p,
        AlgoOutput::Forest(direct_m.edges),
        &direct_m.report,
    );

    assert_eq!(a, m, "AMPC and MPC MSF disagree through the registry");
    // Table 3 through the new path: the AMPC MSF pipeline costs 5
    // shuffles per distributed round (a scale-independent constant).
    let shuffles = direct.report.num_shuffles();
    assert!(
        shuffles > 0 && shuffles.is_multiple_of(5),
        "MSF shuffles = {shuffles}"
    );
}

#[test]
fn connectivity_both_models_identical_through_registry() {
    let g = tiny();
    let c = cfg();
    let input = AlgoInput::Unweighted(&g);
    let p = AlgoParams::default();

    let direct = connectivity::ampc_connected_components(&g, &c);
    let a = check(
        "cc",
        Model::Ampc,
        &input,
        &c,
        &p,
        AlgoOutput::Components(direct.label.clone()),
        &direct.report,
    );

    let direct_m = ampc_mpc::mpc_connected_components(&g, &c);
    let m = check(
        "cc",
        Model::Mpc,
        &input,
        &c,
        &p,
        AlgoOutput::Components(direct_m.label),
        &direct_m.report,
    );

    assert_eq!(a, m, "AMPC and MPC CC disagree through the registry");
}

#[test]
fn one_vs_two_both_models_identical_through_registry() {
    let c = cfg();
    let p = AlgoParams::default();
    for (g, expected) in [
        (gen::single_cycle(400, 11), one_vs_two::CycleAnswer::One),
        (gen::two_cycles(200, 11), one_vs_two::CycleAnswer::Two),
    ] {
        let input = AlgoInput::Unweighted(&g);

        let direct = one_vs_two::ampc_one_vs_two(&g, &c);
        assert_eq!(direct.answer, expected);
        check(
            "one-vs-two",
            Model::Ampc,
            &input,
            &c,
            &p,
            AlgoOutput::Cycles {
                answer: direct.answer,
                num_cycles: direct.num_cycles,
            },
            &direct.report,
        );
        // Table 3 / §5.6 through the new path: one shuffle total.
        assert_eq!(direct.report.num_shuffles(), 1);

        let (m_answer, m_report) = ampc_mpc::local_contraction::mpc_one_vs_two(&g, &c);
        assert_eq!(m_answer, expected);
        let driven = registry::run_family("one-vs-two", Model::Mpc, &input, &c).unwrap();
        let AlgoOutput::Cycles { answer, .. } = driven.output else {
            panic!("wrong output kind")
        };
        assert_eq!(answer, m_answer);
        assert_reports_identical("one-vs-two/mpc", &driven.report, &m_report);
    }
}

#[test]
fn walks_both_models_identical_through_registry() {
    let g = tiny();
    let c = cfg();
    let input = AlgoInput::Unweighted(&g);
    let p = AlgoParams {
        walkers_per_node: 2,
        steps: 5,
        ..Default::default()
    };

    let direct = walks::ampc_random_walks(&g, &c, 2, 5);
    let a = check(
        "walks",
        Model::Ampc,
        &input,
        &c,
        &p,
        AlgoOutput::Walks(direct.walks.clone()),
        &direct.report,
    );

    let direct_m = ampc_mpc::mpc_random_walks(&g, &c, 2, 5);
    let m = check(
        "walks",
        Model::Mpc,
        &input,
        &c,
        &p,
        AlgoOutput::Walks(direct_m.walks),
        &direct_m.report,
    );

    // The walks themselves agree across models (§5.7 cross-validation);
    // only their round structure differs.
    assert_eq!(a, m, "AMPC and MPC walks disagree through the registry");
    assert_eq!(direct.report.num_shuffles(), 1);
    assert_eq!(direct_m.report.num_shuffles(), 5); // one per hop
}

#[test]
fn dynamic_cc_both_models_identical_through_registry() {
    let g = tiny();
    let c = cfg();
    let input = AlgoInput::Unweighted(&g);
    let p = AlgoParams {
        dyn_batches: 3,
        dyn_ops: 40,
        ..Default::default()
    };
    let batches =
        ampc_graph::dynamic::generate_batches(&g, p.dyn_batches, p.dyn_ops, p.dyn_mix, p.dyn_seed);

    let direct = ampc_core::dynamic::ampc_dynamic_cc(&g, &batches, &c);
    let a = check(
        "dyn-cc",
        Model::Ampc,
        &input,
        &c,
        &p,
        AlgoOutput::DynamicComponents(direct.labels.clone()),
        &direct.report,
    );

    let direct_m = ampc_mpc::dynamic::mpc_recompute_cc(&g, &batches, &c);
    let m = check(
        "dyn-cc",
        Model::Mpc,
        &input,
        &c,
        &p,
        AlgoOutput::DynamicComponents(direct_m.labels),
        &direct_m.report,
    );

    // Maintained == recomputed after *every* batch (the subsystem's
    // acceptance contract), through the registry path.
    assert_eq!(
        a, m,
        "maintained and recomputed labels disagree through the registry"
    );
    // One epoch per batch plus the initial build, both models.
    assert_eq!(direct.report.num_epochs(), p.dyn_batches + 1);
    // Maintenance shuffles once (the load); recompute shuffles per batch.
    assert_eq!(direct.report.num_shuffles(), 1);
    assert!(direct_m.report.num_shuffles() > p.dyn_batches);
}

/// Socket-backed substrate through the driver path (DESIGN.md §12):
/// every registered family, run with the socket store — shards in
/// separate OS processes, reached over Unix-domain sockets — is
/// byte-identical to the flat run on outputs, stage sequence and
/// CommStats across 1/2/8 worker threads. One test, all families: the
/// store override is process-global, so it is never racing another
/// store-sensitive assertion.
#[test]
fn socket_substrate_identical_through_registry() {
    use ampc_dht::store::{force_store, StoreKind};
    let g = tiny();
    let w = gen::degree_weights(&g);
    let cycles = gen::two_cycles(200, 11);
    for family in registry::FAMILIES {
        let unweighted = AlgoInput::Unweighted(&g);
        let weighted = AlgoInput::Weighted(&w);
        let two_regular = AlgoInput::Unweighted(&cycles);
        let input = match family {
            "msf" => &weighted,
            "one-vs-two" => &two_regular,
            _ => &unweighted,
        };
        let p = match family {
            "walks" => AlgoParams {
                walkers_per_node: 2,
                steps: 5,
                ..Default::default()
            },
            "dyn-cc" => AlgoParams {
                dyn_batches: 3,
                dyn_ops: 40,
                ..Default::default()
            },
            _ => AlgoParams::default(),
        };
        let flat = registry::run_family_with(
            family,
            Model::Ampc,
            input,
            &cfg().with_store(StoreKind::Flat),
            &p,
        )
        .unwrap_or_else(|e| panic!("{family}/flat: {e}"));
        for threads in [1usize, 2, 8] {
            let c = cfg().with_threads(threads).with_store(StoreKind::Socket);
            let what = format!("{family}/socket/threads-{threads}");
            let got = registry::run_family_with(family, Model::Ampc, input, &c, &p)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
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
