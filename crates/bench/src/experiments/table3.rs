//! Table 3 — number of shuffles (costly rounds) per algorithm and
//! dataset, plus the §5.3 note on simulating AMPC in MPC.

use super::run_row;
use crate::util::{harness_config, load, load_weighted, Md};
use ampc_core::algorithm::{AlgoInput, Model};
use ampc_graph::datasets::{Dataset, Scale};
use ampc_mpc::simulate_ampc::simulated_ampc_mis_shuffles;

/// Paper's Table 3 values for the footnote.
const PAPER: &str = "Paper: AMPC MIS/MM = 1 shuffle, AMPC MSF = 5; \
                     MPC MIS = 8–14, MPC MM = 8–16, MPC MSF = 33–84 (HL timed out). \
                     Our AMPC MSF runs 5 shuffles *per distributed round* and needs \
                     two rounds at this scale (the analogues are denser relative to \
                     the in-memory threshold than the paper's inputs) — still a \
                     scale-independent constant, vs Borůvka's 36–69.";

/// Runs the experiment, returning a markdown section.
pub fn run(scale: Scale) -> String {
    let cfg = harness_config(scale);
    let mut rows = Vec::new();
    for d in Dataset::REAL_WORLD {
        let g = load(d, scale);
        let w = load_weighted(d, scale);
        let (g, w) = (AlgoInput::Unweighted(&g), AlgoInput::Weighted(&w));
        let shuffles = |family, model, input| {
            let report = run_row(family, model, input, &cfg).report;
            report.num_shuffles()
        };
        let a_mis = shuffles("mis", Model::Ampc, g);
        let a_mm = shuffles("mm", Model::Ampc, g);
        let a_msf = shuffles("msf", Model::Ampc, w);
        let m_mis = shuffles("mis", Model::Mpc, g);
        let m_mm = shuffles("mm", Model::Mpc, g);
        let m_msf = shuffles("msf", Model::Mpc, w);
        rows.push(vec![
            d.name(),
            a_mis.to_string(),
            a_mm.to_string(),
            a_msf.to_string(),
            m_mis.to_string(),
            m_mm.to_string(),
            m_msf.to_string(),
        ]);
    }

    // The §5.3 negative result (fixed at mid scale: the per-vertex
    // instrumentation re-runs every evaluation without shared caching,
    // which is quadratic-ish and would be too slow on the full bench
    // analogue).
    let sim_scale = if scale == Scale::Test {
        Scale::Test
    } else {
        Scale::Mid
    };
    let ok = load(Dataset::Orkut, sim_scale);
    let sim = simulated_ampc_mis_shuffles(&ok, &cfg);

    let mut md = Md::new();
    md.heading(2, "Table 3 — shuffles (costly rounds) per implementation");
    md.table(
        &[
            "Dataset", "AMPC MIS", "AMPC MM", "AMPC MSF", "MPC MIS", "MPC MM", "MPC MSF",
        ],
        &rows,
    );
    md.para(PAPER);
    md.para(&format!(
        "§5.3 negative result: an MPC *simulation* of the AMPC MIS (one shuffle per \
         adaptive KV query step) would need **{sim} shuffles** even on a small Orkut analogue — vs 1 shuffle for native AMPC (paper: \"over 1000 shuffles\" \
         and \"over 50x slower\")."
    ));
    md.finish()
}
