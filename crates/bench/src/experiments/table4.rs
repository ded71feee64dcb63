//! Table 4 — RDMA vs TCP/IP key-value store transports, against the
//! MPC baseline, for 1-vs-2-cycle and MIS.
//!
//! Paper: TCP hurts 1-vs-2-cycle most (1.74–5.90x slower than RDMA,
//! latency-bound walks), MIS less (1.50–1.85x); both still beat MPC
//! (MIS MPC 2.30–3.04x slower than RDMA-AMPC; 2-cycle MPC 3.40–9.87x).

use crate::util::{cycle_config, harness_config, load, Md};
use ampc_core::mis::ampc_mis;
use ampc_core::one_vs_two::ampc_one_vs_two;
use ampc_dht::cost::Network;
use ampc_graph::datasets::{Dataset, Scale};
use ampc_mpc::local_contraction::mpc_one_vs_two;
use ampc_runtime::AmpcConfig;

fn with_net(cfg: &AmpcConfig, n: Network) -> AmpcConfig {
    let mut c = *cfg;
    c.cost.network = n;
    c
}

/// Runs the experiment, returning a markdown section.
pub fn run(scale: Scale) -> String {
    let cfg = harness_config(scale);
    // Instances where TCP/IP-AMPC is no faster than MPC.
    let mut tcp_not_faster = Vec::new();
    let mut md = Md::new();
    md.heading(
        2,
        "Table 4 — RDMA vs TCP/IP vs MPC (normalized running times)",
    );

    // ---- 1-vs-2-cycle over the 2×k family.
    let ks = crate::util::cycle_sizes(scale);
    let ccfg = cycle_config(scale);
    let mut rows = Vec::new();
    for &k in ks {
        let g = ampc_graph::gen::two_cycles(k, 5);
        let rdma = ampc_one_vs_two(&g, &with_net(&ccfg, Network::Rdma))
            .report
            .sim_ns();
        let tcp = ampc_one_vs_two(&g, &with_net(&ccfg, Network::Tcp))
            .report
            .sim_ns();
        let (_, mpc) = mpc_one_vs_two(&g, &ccfg);
        let mpc = mpc.sim_ns();
        if tcp >= mpc {
            tcp_not_faster.push(format!("2-cycle 2x{k}"));
        }
        rows.push(vec![
            format!("2x{k}"),
            "1.00".into(),
            format!("{:.2}", tcp as f64 / rdma as f64),
            format!("{:.2}", mpc as f64 / rdma as f64),
        ]);
    }
    md.para("1-vs-2-Cycle (paper: TCP 1.74–5.90, MPC 3.40–9.87, both relative to RDMA = 1):");
    md.table(
        &["Instance", "2-Cyc. (RDMA)", "2-Cyc. (TCP/IP)", "MPC 2-Cyc."],
        &rows,
    );

    // ---- MIS over the real-world analogues.
    let mut rows = Vec::new();
    for d in Dataset::REAL_WORLD {
        let g = load(d, scale);
        let rdma = ampc_mis(&g, &with_net(&cfg, Network::Rdma)).report.sim_ns();
        let tcp = ampc_mis(&g, &with_net(&cfg, Network::Tcp)).report.sim_ns();
        let mpc = ampc_mpc::mpc_mis(&g, &cfg).report.sim_ns();
        if tcp >= mpc {
            tcp_not_faster.push(format!("MIS {}", d.name()));
        }
        rows.push(vec![
            d.name(),
            "1.00".into(),
            format!("{:.2}", tcp as f64 / rdma as f64),
            format!("{:.2}", mpc as f64 / rdma as f64),
        ]);
    }
    md.para("MIS (paper: TCP 1.50–1.85, MPC 2.30–3.04, relative to RDMA = 1):");
    md.table(&["Dataset", "MIS (RDMA)", "MIS (TCP/IP)", "MPC MIS"], &rows);

    let verdict = if tcp_not_faster.is_empty() {
        "but they continue to outperform the MPC baselines on every instance, the paper's \
         conclusion that RDMA \"can safely be replaced by RPCs sent over TCP/IP\""
            .to_string()
    } else {
        format!(
            "and over TCP/IP they are no faster than the MPC baseline on {}, so there the \
             paper's conclusion that RDMA \"can safely be replaced by RPCs sent over \
             TCP/IP\" does not reproduce; on the other instances they still outperform MPC",
            tcp_not_faster.join(", ")
        )
    };
    md.para(&format!(
        "Shape check: swapping RDMA for TCP/IP slows the AMPC algorithms — most for the \
         latency-bound cycle walks — {verdict}."
    ));
    md.finish()
}
