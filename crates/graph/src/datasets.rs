//! Registry of laptop-scale analogues of the paper's datasets (§5.2).
//!
//! The paper evaluates on five real-world graphs (com-Orkut, Twitter,
//! Friendster, ClueWeb, Hyperlink2012) plus the synthetic `2 × k` cycle
//! family. The real graphs are multi-billion-edge proprietary-hosted
//! downloads that a reproduction cannot assume; per the substitution
//! policy in `DESIGN.md` we generate synthetic analogues that preserve
//! the properties the experiments exercise:
//!
//! * **relative scale ordering** — OK < TW < FS < CW < HL in edge count,
//!   so per-dataset trends (e.g. Figure 9's linear KV-bytes-vs-m trend)
//!   are reproducible;
//! * **degree skew** — the social graphs use Graph500-style RMAT
//!   parameters; the web graphs (CW, HL) use a more skewed parameter set
//!   that yields the "many vertices with enormous degree" that the paper
//!   blames for MPC's join skew on ClueWeb (§5.3);
//! * **component structure** — CW/HL analogues are sparse enough to
//!   shatter into many components, like the originals (Table 2 reports
//!   23.8M and 144.6M components);
//! * **MSF weighting** — `w(u, v) = deg(u) + deg(v)` exactly as §5.2.
//!
//! Every analogue is deterministic given the seed, and
//! [`Dataset::paper_stats`] records the original Table 2 row so harnesses
//! can print paper-vs-ours tables.

use crate::gen::{self, RmatParams};
use crate::weighted::WeightedCsrGraph;
use crate::CsrGraph;
use serde::{Deserialize, Serialize};

/// The graph inputs of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// com-Orkut social network analogue (paper: 3.07M nodes / 234.4M edges).
    Orkut,
    /// Twitter follower graph analogue (paper: 41.6M / 2.4B).
    Twitter,
    /// Friendster social network analogue (paper: 65.6M / 3.6B).
    Friendster,
    /// ClueWeb web graph analogue (paper: 0.978B / 74.7B).
    ClueWeb,
    /// Hyperlink2012 web graph analogue (paper: 3.56B / 225.8B).
    Hyperlink,
    /// The `2 × k` cycle family (two cycles on `k` vertices each).
    TwoCycles(usize),
}

/// How large an analogue to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny instances for unit/integration tests (sub-second end to end).
    Test,
    /// Intermediate instances: every experiment finishes in minutes on a
    /// laptop (the default for the reproduction harness).
    Mid,
    /// The full laptop-scale analogues (the benchmark harness with
    /// `AMPC_SCALE=bench`).
    Bench,
}

impl Scale {
    /// Parses from the `AMPC_SCALE` environment knob
    /// (`test` / `mid` / `bench`), defaulting to [`Scale::Mid`]. The
    /// environment read goes through the [`ampc_knobs`] registry so the
    /// knob stays discoverable alongside every other `AMPC_*` variable.
    pub fn from_env() -> Scale {
        match ampc_knobs::ampc_scale() {
            "test" => Scale::Test,
            "bench" => Scale::Bench,
            _ => Scale::Mid,
        }
    }
}

/// The original Table 2 row for a dataset, for paper-vs-measured tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperStats {
    /// Paper's vertex count.
    pub num_nodes: f64,
    /// Paper's edge count.
    pub num_edges: f64,
    /// Paper's diameter (lower bound where marked `*` in Table 2).
    pub diameter: usize,
    /// True if the paper's diameter is exact.
    pub diameter_exact: bool,
    /// Paper's number of connected components.
    pub num_components: f64,
    /// Paper's largest component size.
    pub largest_component: f64,
}

impl Dataset {
    /// The five real-world datasets of Table 2, in paper order.
    pub const REAL_WORLD: [Dataset; 5] = [
        Dataset::Orkut,
        Dataset::Twitter,
        Dataset::Friendster,
        Dataset::ClueWeb,
        Dataset::Hyperlink,
    ];

    /// The short name used in the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Dataset::Orkut => "OK".into(),
            Dataset::Twitter => "TW".into(),
            Dataset::Friendster => "FS".into(),
            Dataset::ClueWeb => "CW".into(),
            Dataset::Hyperlink => "HL".into(),
            Dataset::TwoCycles(k) => format!("2x{k}"),
        }
    }

    /// The Table 2 row of the original dataset ([`None`] for cycle
    /// instances, which Table 2 parameterizes by `k`).
    pub fn paper_stats(&self) -> Option<PaperStats> {
        let s = match self {
            Dataset::Orkut => PaperStats {
                num_nodes: 3.07e6,
                num_edges: 234.4e6,
                diameter: 9,
                diameter_exact: true,
                num_components: 1.0,
                largest_component: 3.1e6,
            },
            Dataset::Twitter => PaperStats {
                num_nodes: 41.6e6,
                num_edges: 2.4e9,
                diameter: 23,
                diameter_exact: false,
                num_components: 2.0,
                largest_component: 41.6e6,
            },
            Dataset::Friendster => PaperStats {
                num_nodes: 65.6e6,
                num_edges: 3.6e9,
                diameter: 32,
                diameter_exact: true,
                num_components: 1.0,
                largest_component: 65.6e6,
            },
            Dataset::ClueWeb => PaperStats {
                num_nodes: 0.978e9,
                num_edges: 74.7e9,
                diameter: 132,
                diameter_exact: false,
                num_components: 23_794_336.0,
                largest_component: 0.950e9,
            },
            Dataset::Hyperlink => PaperStats {
                num_nodes: 3.56e9,
                num_edges: 225.8e9,
                diameter: 331,
                diameter_exact: false,
                num_components: 144_628_744.0,
                largest_component: 3.35e9,
            },
            Dataset::TwoCycles(_) => return None,
        };
        Some(s)
    }

    /// Generation recipe: `(log_n, edges, params)` for the RMAT analogues.
    fn recipe(&self, scale: Scale) -> Option<(u32, usize, RmatParams)> {
        // Bench scale targets: edge counts increase across the five
        // datasets (1.2M → 24M) like the paper's (234M → 226B); the web
        // graphs are sparser *relative to their vertex count* so that they
        // shatter into many components.
        let bench = match self {
            Dataset::Orkut => (14, 1_250_000, RmatParams::SOCIAL),
            Dataset::Twitter => (17, 7_500_000, RmatParams::SOCIAL),
            Dataset::Friendster => (18, 11_000_000, RmatParams::SOCIAL),
            Dataset::ClueWeb => (20, 16_000_000, RmatParams::WEB),
            Dataset::Hyperlink => (21, 24_000_000, RmatParams::WEB),
            Dataset::TwoCycles(_) => return None,
        };
        Some(match scale {
            Scale::Bench => bench,
            // Mid scale: nodes / 8, edges / 8.
            Scale::Mid => (bench.0 - 3, bench.1 / 8, bench.2),
            // Test scale: nodes / 64, edges / 64.
            Scale::Test => (bench.0 - 6, bench.1 / 64, bench.2),
        })
    }

    /// Generates the (unweighted, symmetrized) analogue graph.
    ///
    /// ```
    /// use ampc_graph::datasets::{Dataset, Scale};
    /// let g = Dataset::Orkut.generate(Scale::Test, 1);
    /// assert_eq!(g.num_nodes(), 256);
    /// assert!(g.num_edges() > 1_000);
    /// ```
    pub fn generate(&self, scale: Scale, seed: u64) -> CsrGraph {
        match self {
            Dataset::TwoCycles(k) => {
                let k = match scale {
                    Scale::Bench => *k,
                    Scale::Mid => (*k / 8).max(3),
                    Scale::Test => (*k / 64).max(3),
                };
                gen::two_cycles(k, seed)
            }
            _ => {
                let (log_n, m, params) = self.recipe(scale).unwrap();
                gen::rmat(log_n, m, params, seed)
            }
        }
    }

    /// Generates the weighted analogue with `w(u, v) = deg(u) + deg(v)`,
    /// the paper's MSF weighting (§5.2).
    pub fn generate_weighted(&self, scale: Scale, seed: u64) -> WeightedCsrGraph {
        gen::degree_weights(self.generate(scale, seed))
    }
}

/// Formats a (value, paper-value) pair for the harness tables.
pub fn versus(ours: usize, paper: f64) -> String {
    format!("{ours} (paper: {})", human(paper))
}

/// Human-readable large number (e.g. `2.4B`, `234.4M`).
pub fn human(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}B", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.1}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}K", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SIZE_BUDGET;
    use crate::stats;

    #[test]
    fn every_analogue_fits_the_size_budget() {
        for d in Dataset::REAL_WORLD {
            for scale in [Scale::Test, Scale::Mid, Scale::Bench] {
                let (log_n, m, _) = d.recipe(scale).unwrap();
                assert!(
                    1usize << log_n <= SIZE_BUDGET && m <= SIZE_BUDGET,
                    "{}",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Dataset::Orkut.name(), "OK");
        assert_eq!(Dataset::Hyperlink.name(), "HL");
        assert_eq!(Dataset::TwoCycles(100).name(), "2x100");
    }

    #[test]
    fn test_scale_generates_quickly_and_deterministically() {
        let a = Dataset::Orkut.generate(Scale::Test, 1);
        let b = Dataset::Orkut.generate(Scale::Test, 1);
        assert_eq!(a, b);
        assert_eq!(a.num_nodes(), 256);
        assert!(a.num_edges() > 5_000);
    }

    #[test]
    fn edge_counts_increase_across_datasets() {
        let mut last = 0usize;
        for d in Dataset::REAL_WORLD {
            let g = d.generate(Scale::Test, 0);
            assert!(
                g.num_edges() > last,
                "{} should be bigger than previous",
                d.name()
            );
            last = g.num_edges();
        }
    }

    #[test]
    fn web_analogues_have_many_components() {
        let cw = Dataset::ClueWeb.generate(Scale::Test, 0);
        let cc = stats::connected_components(&cw);
        assert!(
            cc.num_components > 10,
            "ClueWeb analogue should shatter: {} components",
            cc.num_components
        );
    }

    #[test]
    fn weighted_uses_degree_rule() {
        let w = Dataset::Orkut.generate_weighted(Scale::Test, 3);
        let g = w.structure();
        for e in w.edges().take(50) {
            assert_eq!(e.w as usize, g.degree(e.u) + g.degree(e.v));
        }
    }

    #[test]
    fn two_cycles_dataset() {
        let g = Dataset::TwoCycles(640).generate(Scale::Test, 7);
        assert_eq!(g.num_nodes(), 20); // 640/64 = 10 per cycle
        let g = Dataset::TwoCycles(640).generate(Scale::Bench, 7);
        assert_eq!(g.num_nodes(), 1280);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human(2.4e9), "2.40B");
        assert_eq!(human(234.4e6), "234.4M");
        assert_eq!(human(950.0), "950");
    }
}
