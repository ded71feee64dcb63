//! Social-network analytics: the paper's headline comparison, in one
//! program. Runs AMPC and MPC implementations of MIS and maximal
//! matching on an Orkut-like graph, verifies they agree edge-for-edge,
//! and prints the round/byte/time comparison of §5.3–§5.4.
//!
//! ```sh
//! cargo run --release --example social_network
//! ```

use ampc::prelude::*;
use ampc_bench::registry::run_family;
use ampc_core::matching::approx;
use ampc_dht::cost::format_ns;
use ampc_runtime::driver::Driven;

/// `family`'s row under `model` on `graph`.
fn run(family: &str, model: Model, graph: &CsrGraph, cfg: &AmpcConfig) -> Driven<AlgoOutput> {
    run_family(family, model, &AlgoInput::Unweighted(graph), cfg).expect("a registered row")
}

fn main() {
    // A mid-size Orkut-like RMAT graph — big enough that the MPC
    // baselines must run several distributed phases (the full-size
    // analogues live in the benchmark harness; see DESIGN.md).
    let graph = ampc_graph::gen::rmat(13, 600_000, ampc_graph::gen::RmatParams::SOCIAL, 1);
    let _ = Dataset::Orkut; // the harness uses the dataset registry
    println!(
        "Orkut analogue: {} vertices, {} edges, max degree {}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_degree()
    );

    let cfg = AmpcConfig::default();

    // ---------------- MIS: AMPC vs MPC ----------------
    let ampc_out = run("mis", Model::Ampc, &graph, &cfg);
    let mpc_out = run("mis", Model::Mpc, &graph, &cfg);
    assert_eq!(
        ampc_out.output, mpc_out.output,
        "same seed => same lex-first MIS across models"
    );
    println!("\nMIS (both models computed the identical set):");
    print_compare(&ampc_out.report, &mpc_out.report);

    // ---------------- Maximal matching ----------------
    let ampc_mm = run("mm", Model::Ampc, &graph, &cfg);
    let mpc_mm = run("mm", Model::Mpc, &graph, &cfg);
    assert_eq!(ampc_mm.output, mpc_mm.output);
    println!("\nMaximal matching ({} pairs):", ampc_mm.output.size());
    print_compare(&ampc_mm.report, &mpc_mm.report);

    // ---------------- Derived analytics ----------------
    let cover = approx::approx_vertex_cover(&graph, &cfg);
    println!(
        "\n2-approximate vertex cover: {} vertices ({:.1}% of graph)",
        cover.len(),
        100.0 * cover.len() as f64 / graph.num_nodes() as f64
    );

    let weighted = ampc_graph::gen::degree_weights(&graph);
    let mwm = approx::approx_max_weight_matching(&weighted, 0.1, &cfg);
    println!(
        "2.2-approximate max-weight matching: {} pairs, weight {}",
        mwm.len(),
        approx::matching_weight(&weighted, &mwm)
    );
}

fn print_compare(ampc: &ampc_runtime::JobReport, mpc: &ampc_runtime::JobReport) {
    let speedup = mpc.sim_ns() as f64 / ampc.sim_ns() as f64;
    println!(
        "  AMPC: {:>2} shuffles, {:>12} bytes shuffled, {:>12} KV bytes, sim {}",
        ampc.num_shuffles(),
        ampc.shuffle_bytes(),
        ampc.kv_comm().kv_bytes(),
        format_ns(ampc.sim_ns())
    );
    println!(
        "  MPC : {:>2} shuffles, {:>12} bytes shuffled, {:>12} KV bytes, sim {}",
        mpc.num_shuffles(),
        mpc.shuffle_bytes(),
        mpc.kv_comm().kv_bytes(),
        format_ns(mpc.sim_ns())
    );
    println!("  speedup: {speedup:.2}x (AMPC over MPC)");
}
