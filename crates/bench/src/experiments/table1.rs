//! Table 1 — round-complexity summary: the theory column from the paper
//! next to the rounds our implementations actually used.

use super::run_row;
use crate::util::{harness_config, load, load_weighted, Md};
use ampc_core::algorithm::{AlgoInput, Model};
use ampc_graph::datasets::{Dataset, Scale};
use ampc_runtime::JobReport;
use AlgoInput::{Unweighted, Weighted};

fn rounds(r: &JobReport) -> String {
    format!(
        "{} shuffles + {} KV rounds",
        r.num_shuffles(),
        r.num_kv_rounds()
    )
}

/// Runs the experiment, returning a markdown section.
pub fn run(scale: Scale) -> String {
    let cfg = harness_config(scale);
    let d = Dataset::Orkut;
    let g = load(d, scale);
    let w = load_weighted(d, scale);

    let cycles = ampc_graph::gen::two_cycles(100_000, 1);
    // Every row is a registry row, Table 1's theory variant included.
    let report = |family: &str, input| run_row(family, Model::Ampc, input, &cfg).report;
    let mis = report("mis", Unweighted(&g));
    let mm = report("mm", Unweighted(&g));
    let mm_ll = report("mm/loglog", Unweighted(&g));
    let msf = report("msf", Weighted(&w));
    let cc = report("cc", Unweighted(&g));
    let cyc = report("one-vs-two", Unweighted(&cycles));

    let rows = vec![
        vec!["Connectivity".into(), "O(1)".into(), rounds(&cc)],
        vec!["MSF".into(), "O(1)".into(), rounds(&msf)],
        vec![
            "Matching (O(m + n^{1+eps}) space)".into(),
            "O(1)".into(),
            rounds(&mm),
        ],
        vec![
            "Matching (O~(m + n) space)".into(),
            "O(log log n)".into(),
            rounds(&mm_ll),
        ],
        vec!["MIS [19]".into(), "O(1)".into(), rounds(&mis)],
        vec!["1-vs-2-Cycle [19]".into(), "O(1)".into(), rounds(&cyc)],
    ];

    let mut md = Md::new();
    md.heading(2, "Table 1 — AMPC round complexity: theory vs. measured");
    md.para(&format!(
        "Measured on the {} analogue ({} nodes, {} edges). Every `O(1)` algorithm \
         runs a seed-independent constant number of rounds; the `O(log log n)` \
         matching runs one phase pair per degree-halving iteration.",
        d.name(),
        g.num_nodes(),
        g.num_edges()
    ));
    md.table(
        &["Problem", "Paper (rounds)", "Measured (this reproduction)"],
        &rows,
    );
    md.finish()
}
