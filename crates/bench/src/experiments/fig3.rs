//! Figure 3 — bytes shuffled by the AMPC and MPC MIS implementations,
//! plus the AMPC algorithm's total KV-store communication and (beyond
//! the paper's bars) its charged KV *round trips* under §5.3 batching
//! next to `queries + writes`, what one round trip per op would charge.

use crate::registry;
use crate::util::{bytes, harness_config, load, Md};
use ampc_core::algorithm::{AlgoInput, Model};
use ampc_graph::datasets::{Dataset, Scale};

/// Runs the experiment, returning a markdown section. Both runs per
/// dataset resolve through the algorithm registry — the same
/// CLI-to-kernel code path as `ampc run mis`.
pub fn run(scale: Scale) -> String {
    let cfg = harness_config(scale);
    let mut rows = Vec::new();
    let mut always_less = true;
    let mut batching_always_wins = true;
    for d in Dataset::REAL_WORLD {
        let g = load(d, scale);
        let input = AlgoInput::Unweighted(&g);
        let a = registry::run_family("mis", Model::Ampc, &input, &cfg).expect("mis is registered");
        let m =
            registry::run_family("mis", Model::Mpc, &input, &cfg).expect("mpc mis is registered");
        let a_shuf = a.report.shuffle_bytes();
        let a_kv = a.report.kv_comm().kv_bytes();
        let a_rt = a.report.kv_round_trips();
        // One op per round trip: every query and write pays its own.
        let s_rt = a.report.kv_comm().network_ops();
        let m_shuf = m.report.shuffle_bytes();
        always_less &= a_shuf < m_shuf;
        batching_always_wins &= a_rt < s_rt;
        rows.push(vec![
            d.name(),
            bytes(a_shuf),
            bytes(a_kv),
            format!("{a_rt}"),
            format!("{s_rt}"),
            format!("{:.1}x", s_rt as f64 / a_rt.max(1) as f64),
            bytes(m_shuf),
            format!("{:.1}x", m_shuf as f64 / a_shuf.max(1) as f64),
        ]);
    }

    let mut md = Md::new();
    md.heading(
        2,
        "Figure 3 — bytes shuffled (MIS) and AMPC KV communication",
    );
    md.table(
        &[
            "Dataset",
            "AMPC-Shuffle",
            "AMPC-KV-Communication",
            "KV-RoundTrips (batched)",
            "KV-RoundTrips (single-key)",
            "Batching saving",
            "MPC-Shuffle",
            "MPC/AMPC shuffle ratio",
        ],
        &rows,
    );
    md.para(&format!(
        "Shape check: the AMPC algorithm shuffles **{}** fewer bytes than MPC on every \
         dataset (paper: \"In all cases, the AMPC algorithm shuffles significantly fewer \
         bytes, since the single shuffle it performs writes bytes only proportional to \
         the input graph size\"). KV communication is charged to the high-throughput \
         network rather than durable storage, which is why AMPC wins on time even where \
         its KV bytes approach MPC's shuffle bytes (the paper's ClueWeb observation).",
        if always_less { "strictly" } else { "mostly" }
    ));
    md.para(&format!(
        "Round-trip accounting (§5.3): lookup latency is charged per *batch*, bandwidth \
         per key. The batched pipeline issues **{}** fewer charged round trips than a \
         mapping of one op per round trip would be charged for the same run (`queries + \
         writes`, the single-key column), because independent lookups — KV writes, \
         per-vertex root fetches — share a round trip while only dependent (adaptive) \
         queries pay their own latency.",
        if batching_always_wins {
            "strictly"
        } else {
            "mostly"
        }
    ));
    md.finish()
}
