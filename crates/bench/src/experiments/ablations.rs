//! Ablations beyond the paper's figures — the design choices DESIGN.md
//! calls out, each swept over its knob:
//!
//! 1. **Prim truncation budget** (Algorithm 1's `n^{ε/2}`, via ε): query
//!    cost vs contraction factor trade-off.
//! 2. **1-vs-2-cycle sampling rate**: queries vs contracted-graph size.

use super::run_row;
use crate::registry::{self, AlgoParams};
use crate::util::{harness_config, load_weighted, Md};
use ampc_core::algorithm::{AlgoInput, Model};
use ampc_graph::datasets::{Dataset, Scale};

/// Runs the ablations, returning a markdown section.
pub fn run(scale: Scale) -> String {
    let cfg = harness_config(scale);
    let mut md = Md::new();
    md.heading(2, "Ablations (extensions beyond the paper's figures)");

    // ---- 1: epsilon sweep for the MSF Prim budget.
    let w = load_weighted(Dataset::Orkut, scale);
    let mut rows = Vec::new();
    for eps in [0.4, 0.6, 0.75, 0.9] {
        let mut c = cfg;
        c.epsilon = eps;
        let out = run_row("msf", Model::Ampc, AlgoInput::Weighted(&w), &c);
        rows.push(vec![
            format!("{eps}"),
            c.prim_budget(w.num_nodes()).to_string(),
            out.report.kv_comm().queries.to_string(),
            out.report.num_shuffles().to_string(),
        ]);
    }
    md.para("**Prim budget sweep** (MSF on the OK analogue): larger ε = deeper searches = fewer rounds but more queries per search.");
    md.table(
        &["epsilon", "budget n^(eps/2)", "KV queries", "shuffles"],
        &rows,
    );

    // ---- 2: sampling-rate sweep for 1-vs-2-cycle.
    let g = ampc_graph::gen::two_cycles(200_000, 3);
    let mut rows = Vec::new();
    for inv in [64u64, 256, 1024, 4096] {
        let params = AlgoParams {
            sample_inv: inv,
            ..Default::default()
        };
        let input = AlgoInput::Unweighted(&g);
        let out = registry::run_family_with("one-vs-two", Model::Ampc, &input, &cfg, &params)
            .expect("a cycle pair is 2-regular");
        rows.push(vec![
            format!("1/{inv}"),
            out.report.kv_comm().queries.to_string(),
            out.output.size().to_string(),
        ]);
    }
    md.para("**1-vs-2-cycle sampling rate** (2x200000): lower rates mean fewer, longer walks — same total queries, smaller contracted instance; the paper picked 1/1024.");
    md.table(&["rate", "KV queries", "cycles found"], &rows);

    md.finish()
}
