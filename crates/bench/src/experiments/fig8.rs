//! Figure 8 — self-speedup of the AMPC MIS when varying the machine
//! count from 1 to 100.
//!
//! Paper: *"For the smaller graphs, the 100-machine time is between
//! 1.64–7.76x faster than the 1-machine time. The speedups are better
//! for larger graphs, since there is more work to do relative to the
//! overhead of spawning rounds and shuffles."*

use crate::registry;
use crate::util::{harness_config, load, secs, Md};
use ampc_core::algorithm::{AlgoInput, Model};
use ampc_graph::datasets::{Dataset, Scale};

const MACHINES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 100];

/// Runs the experiment, returning a markdown section. Every
/// measurement resolves through the algorithm registry — the same
/// CLI-to-kernel code path as `ampc run mis --machines P`.
pub fn run(scale: Scale) -> String {
    let base = harness_config(scale);
    let mut rows = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for d in Dataset::REAL_WORLD {
        let g = load(d, scale);
        let input = AlgoInput::Unweighted(&g);
        let mut row = vec![d.name()];
        let mut t1 = 0u64;
        let mut t100 = 0u64;
        for &p in &MACHINES {
            let t = registry::run_family("mis", Model::Ampc, &input, &base.with_machines(p))
                .expect("mis is registered")
                .report
                .sim_ns();
            if p == 1 {
                t1 = t;
            }
            if p == 100 {
                t100 = t;
            }
            row.push(secs(t));
        }
        speedups.push((d.name(), t1 as f64 / t100.max(1) as f64));
        rows.push(row);
    }

    let mut md = Md::new();
    md.heading(
        2,
        "Figure 8 — AMPC MIS self-speedup, 1 to 100 machines (sim seconds)",
    );
    let header: Vec<String> = std::iter::once("Dataset".to_string())
        .chain(MACHINES.iter().map(|p| format!("P={p}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    md.table(&header_refs, &rows);
    let summary: Vec<String> = speedups
        .iter()
        .map(|(n, s)| format!("{n}: {s:.2}x"))
        .collect();
    md.para(&format!(
        "100-machine over 1-machine speedups: {}. Shape check: speedups grow with graph \
         size and saturate as fixed round overheads dominate — the paper's observation \
         that \"we do not obtain linear speedup … due to saturating the network \
         bandwidth when querying the key-value store\".",
        summary.join(", ")
    ));
    md.finish()
}
