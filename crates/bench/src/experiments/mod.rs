//! One module per reproduced table/figure (see DESIGN.md §4).

pub mod ablations;
pub mod cycle;
pub mod fig3;
pub mod fig4;
pub mod fig8;
pub mod fig9;
pub mod runtime_cmp;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use crate::registry;
use ampc_core::algorithm::{AlgoInput, AlgoOutput, Model};
use ampc_graph::datasets::Scale;
use ampc_runtime::driver::Driven;
use ampc_runtime::AmpcConfig;

/// One reproduced artifact: its CLI name (`ampc experiment <name>`),
/// its title, and the function rendering its markdown section.
pub type Section = (&'static str, &'static str, fn(Scale) -> String);

/// Every reproduced artifact, in `EXPERIMENTS.md` order.
pub const SECTIONS: [Section; 13] = [
    ("table1", "Table 1", table1::run),
    ("table2", "Table 2", table2::run),
    ("table3", "Table 3", table3::run),
    ("fig3", "Figure 3", fig3::run),
    ("fig4", "Figure 4", fig4::run),
    ("fig5", "Figure 5", runtime_cmp::run_fig5),
    ("fig6", "Figure 6", runtime_cmp::run_fig6),
    ("fig7", "Figure 7", runtime_cmp::run_fig7),
    ("fig8", "Figure 8", fig8::run),
    ("fig9", "Figure 9", fig9::run),
    ("table4", "Table 4", table4::run),
    ("cycle", "1-vs-2-Cycle (§5.6)", cycle::run),
    ("ablations", "Ablations (extensions)", ablations::run),
];

/// Runs every experiment and assembles the full `EXPERIMENTS.md` body.
pub fn run_all(scale: Scale) -> String {
    let mut out = format!(
        "# EXPERIMENTS — paper vs. this reproduction\n\n\
         Generated by `cargo run --release -p ampc-bench --bin ampc -- experiment all` at\n\
         scale `{scale:?}` (set `AMPC_SCALE=test|mid|bench`). Simulated times come from the\n\
         fixed cost model of DESIGN.md §6; the claims reproduced are *relative* (who wins, by\n\
         what factor, where the breakdown mass sits), not absolute seconds. Dataset analogues\n\
         are synthetic RMAT substitutes (DESIGN.md §1) — every table cites the paper's values\n\
         alongside ours.\n"
    );
    for (_, title, run) in SECTIONS {
        eprintln!("[experiment] running {title} ...");
        out.push_str(&run(scale));
    }
    out
}

/// Runs a registry row with default parameters. The experiments name
/// only rows that exist, on inputs they accept.
fn run_row(
    family: &str,
    model: Model,
    input: AlgoInput<'_>,
    cfg: &AmpcConfig,
) -> Driven<AlgoOutput> {
    registry::run_family(family, model, &input, cfg)
        .unwrap_or_else(|e| panic!("{family}/{}: {e}", model.token()))
}
