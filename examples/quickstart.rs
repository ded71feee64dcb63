//! Quickstart: run every AMPC family on a small social-network-like
//! graph through its registry row and print what the model meters.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ampc::prelude::*;
use ampc_bench::registry::run_family;
use ampc_dht::cost::format_ns;
use ampc_graph::gen;
use ampc_runtime::driver::Driven;
use AlgoInput::{Unweighted, Weighted};

/// `family`'s AMPC row (see `ampc list`) on `input`.
fn run(family: &str, input: AlgoInput<'_>, cfg: &AmpcConfig) -> Driven<AlgoOutput> {
    run_family(family, Model::Ampc, &input, cfg).expect("a registered row on an input it accepts")
}

fn main() {
    // A skewed RMAT graph: 2^12 vertices, ~60k edges.
    let graph = gen::rmat(12, 60_000, gen::RmatParams::SOCIAL, 42);
    println!(
        "graph: {} vertices, {} edges, max degree {}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_degree()
    );

    // The AMPC configuration: 10 machines, space n^0.75 per machine,
    // RDMA-like key-value store, caching on.
    let cfg = AmpcConfig::default();

    // ---- Maximal independent set (Figure 1 of the paper) -------------
    let mis = run("mis", Unweighted(&graph), &cfg);
    println!(
        "\nMIS: {} members | {} shuffle(s), {} KV rounds, sim time {}",
        mis.output.size(),
        mis.report.num_shuffles(),
        mis.report.num_kv_rounds(),
        format_ns(mis.report.sim_ns()),
    );

    // ---- Maximal matching (Theorem 2) ---------------------------------
    let mm = run("mm", Unweighted(&graph), &cfg);
    println!(
        "MM : {} pairs   | {} shuffle(s), cache hit rate {:.0}%",
        mm.output.size(),
        mm.report.num_shuffles(),
        mm.report.kv_comm().cache_hit_rate() * 100.0,
    );

    // ---- Minimum spanning forest (Theorem 1, §5.5 pipeline) -----------
    let weighted = gen::degree_weights(graph.clone());
    let forest = run("msf", Weighted(&weighted), &cfg);
    let AlgoOutput::Forest(edges) = &forest.output else {
        unreachable!("the msf row returns a forest")
    };
    println!(
        "MSF: {} edges, total weight {} | {} shuffles",
        edges.len(),
        edges.iter().map(|e| e.w as u128).sum::<u128>(),
        forest.report.num_shuffles(),
    );

    // ---- Connected components -----------------------------------------
    let cc = run("cc", Unweighted(&graph), &cfg);
    println!("CC : {} components", cc.output.size());

    // ---- 1-vs-2-cycle (§5.6) -------------------------------------------
    let cycle = gen::two_cycles(4096, 7);
    let out = run("one-vs-two", Unweighted(&cycle), &cfg);
    let AlgoOutput::Cycles { answer, num_cycles } = out.output else {
        unreachable!("the one-vs-two row returns a cycle answer")
    };
    println!(
        "1v2: {answer:?} ({num_cycles} cycles) in {} shuffle(s)",
        out.report.num_shuffles()
    );

    // Full per-stage accounting of the last run:
    println!("\nMIS job detail:\n{}", mis.report.summary());
}
