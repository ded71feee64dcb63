//! Graph sources: one string grammar from which every harness entry
//! point (the `ampc` workload CLI, the figure binaries, tests) can load
//! any input the workspace knows how to produce.
//!
//! Grammar (case-insensitive names, `:`-separated arguments):
//!
//! | source | meaning |
//! |---|---|
//! | `ok` / `orkut`, `tw` / `twitter`, `fs` / `friendster`, `cw` / `clueweb`, `hl` / `hyperlink` | the Table 2 dataset analogues at the requested [`Scale`] |
//! | `two-cycles:K` | the `2 × k` cycle family dataset (scale-adjusted like all datasets) |
//! | `rmat:LOG_N,M[,social\|web]` | RMAT with `2^LOG_N` vertices, `M` edge samples |
//! | `er:N,M` | Erdős–Rényi `G(n, m)` |
//! | `chung-lu:N,M[,GAMMA]` | Chung–Lu power-law (default γ = 2.5) |
//! | `cycle:N` | a single cycle on `N` vertices |
//! | `pair:K` | two disjoint cycles on `K` vertices each (exact sizes, no scaling) |
//! | `path:N`, `star:N`, `complete:N` | classic graphs |
//! | `grid:RxC` | an `R × C` grid |
//! | `tree:N` | a uniform random tree |
//! | `file:PATH` | whitespace-separated edge list (`u v` per line) |
//!
//! Weighted inputs (MSF) are derived with the paper's §5.2 rule
//! `w(u, v) = deg(u) + deg(v)` via [`GraphSource::load_weighted`].

use crate::datasets::{Dataset, Scale};
use crate::gen::{self, RmatParams};
use crate::weighted::WeightedCsrGraph;
use crate::{io, CsrGraph};

/// A parsed graph source (see the module docs for the grammar).
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSource {
    /// A named dataset analogue (scale-dependent).
    Dataset(Dataset),
    /// RMAT: `log_n`, edge samples, parameter family.
    Rmat {
        /// log₂ of the vertex count.
        log_n: u32,
        /// Number of edge samples.
        m: usize,
        /// Skew family.
        params: RmatParams,
    },
    /// Erdős–Rényi `G(n, m)`.
    ErdosRenyi {
        /// Vertex count.
        n: usize,
        /// Edge count.
        m: usize,
    },
    /// Chung–Lu power-law graph.
    ChungLu {
        /// Vertex count.
        n: usize,
        /// Edge count.
        m: usize,
        /// Power-law exponent.
        gamma: f64,
    },
    /// A single cycle on `n` vertices.
    Cycle(usize),
    /// Two disjoint cycles on `k` vertices each (exact, unscaled).
    CyclePair(usize),
    /// A path on `n` vertices.
    Path(usize),
    /// A star with `n - 1` leaves.
    Star(usize),
    /// The complete graph on `n` vertices.
    Complete(usize),
    /// An `r × c` grid.
    Grid(usize, usize),
    /// A uniform random tree on `n` vertices.
    Tree(usize),
    /// An edge-list file.
    File(String),
}

/// Splits `args` on commas, parsing each piece with `FromStr`.
fn parse_nums<T: std::str::FromStr>(args: &str, want: usize, what: &str) -> Result<Vec<T>, String> {
    let parts: Vec<&str> = args.split(',').collect();
    if parts.len() != want {
        return Err(format!(
            "{what}: expected {want} comma-separated argument(s), got {}",
            parts.len()
        ));
    }
    parts
        .iter()
        .map(|p| {
            p.trim()
                .parse::<T>()
                .map_err(|_| format!("{what}: cannot parse {:?} as a number", p.trim()))
        })
        .collect()
}

impl GraphSource {
    /// Parses a source string (see the module docs for the grammar).
    pub fn parse(s: &str) -> Result<GraphSource, String> {
        let s = s.trim();
        let (head, args) = match s.split_once(':') {
            Some((h, a)) => (h.to_ascii_lowercase(), a),
            None => (s.to_ascii_lowercase(), ""),
        };
        let need_args = |what: &str| -> Result<(), String> {
            if args.is_empty() {
                Err(format!(
                    "{what}: missing arguments (see the graph-source grammar)"
                ))
            } else {
                Ok(())
            }
        };
        match head.as_str() {
            "ok" | "orkut" => Ok(GraphSource::Dataset(Dataset::Orkut)),
            "tw" | "twitter" => Ok(GraphSource::Dataset(Dataset::Twitter)),
            "fs" | "friendster" => Ok(GraphSource::Dataset(Dataset::Friendster)),
            "cw" | "clueweb" => Ok(GraphSource::Dataset(Dataset::ClueWeb)),
            "hl" | "hyperlink" => Ok(GraphSource::Dataset(Dataset::Hyperlink)),
            "two-cycles" | "two_cycles" => {
                need_args("two-cycles")?;
                let v = parse_nums::<usize>(args, 1, "two-cycles")?;
                Ok(GraphSource::Dataset(Dataset::TwoCycles(v[0])))
            }
            "rmat" => {
                need_args("rmat")?;
                let parts: Vec<&str> = args.split(',').map(str::trim).collect();
                if parts.len() < 2 || parts.len() > 3 {
                    return Err("rmat: expected rmat:LOG_N,M[,social|web]".into());
                }
                let log_n: u32 = parts[0]
                    .parse()
                    .map_err(|_| format!("rmat: bad LOG_N {:?}", parts[0]))?;
                if log_n > 31 {
                    return Err(format!("rmat: LOG_N {log_n} is above 31 (u32 node ids)"));
                }
                let m: usize = parts[1]
                    .parse()
                    .map_err(|_| format!("rmat: bad M {:?}", parts[1]))?;
                let params = match parts.get(2).copied().unwrap_or("social") {
                    "social" => RmatParams::SOCIAL,
                    "web" => RmatParams::WEB,
                    other => return Err(format!("rmat: unknown family {other:?} (social|web)")),
                };
                Ok(GraphSource::Rmat { log_n, m, params })
            }
            "er" | "erdos-renyi" => {
                need_args("er")?;
                let v = parse_nums::<usize>(args, 2, "er")?;
                Ok(GraphSource::ErdosRenyi { n: v[0], m: v[1] })
            }
            "chung-lu" | "chung_lu" => {
                need_args("chung-lu")?;
                let parts: Vec<&str> = args.split(',').map(str::trim).collect();
                if parts.len() < 2 || parts.len() > 3 {
                    return Err("chung-lu: expected chung-lu:N,M[,GAMMA]".into());
                }
                let n: usize = parts[0]
                    .parse()
                    .map_err(|_| format!("chung-lu: bad N {:?}", parts[0]))?;
                let m: usize = parts[1]
                    .parse()
                    .map_err(|_| format!("chung-lu: bad M {:?}", parts[1]))?;
                let gamma: f64 = match parts.get(2) {
                    Some(g) => g
                        .parse()
                        .map_err(|_| format!("chung-lu: bad GAMMA {g:?}"))?,
                    None => 2.5,
                };
                Ok(GraphSource::ChungLu { n, m, gamma })
            }
            "cycle" => {
                need_args("cycle")?;
                let n = parse_nums(args, 1, "cycle")?[0];
                if n < 3 {
                    return Err(format!("cycle: N = {n}, but a cycle needs 3 vertices"));
                }
                Ok(GraphSource::Cycle(n))
            }
            "pair" => {
                need_args("pair")?;
                let k = parse_nums(args, 1, "pair")?[0];
                if k < 3 {
                    return Err(format!("pair: K = {k}, but a cycle needs 3 vertices"));
                }
                Ok(GraphSource::CyclePair(k))
            }
            "path" => {
                need_args("path")?;
                Ok(GraphSource::Path(parse_nums(args, 1, "path")?[0]))
            }
            "star" => {
                need_args("star")?;
                Ok(GraphSource::Star(parse_nums(args, 1, "star")?[0]))
            }
            "complete" => {
                need_args("complete")?;
                Ok(GraphSource::Complete(parse_nums(args, 1, "complete")?[0]))
            }
            "grid" => {
                need_args("grid")?;
                let parts: Vec<&str> = args.split('x').map(str::trim).collect();
                if parts.len() != 2 {
                    return Err("grid: expected grid:RxC".into());
                }
                let r: usize = parts[0]
                    .parse()
                    .map_err(|_| format!("grid: bad R {:?}", parts[0]))?;
                let c: usize = parts[1]
                    .parse()
                    .map_err(|_| format!("grid: bad C {:?}", parts[1]))?;
                Ok(GraphSource::Grid(r, c))
            }
            "tree" => {
                need_args("tree")?;
                Ok(GraphSource::Tree(parse_nums(args, 1, "tree")?[0]))
            }
            "file" => {
                need_args("file")?;
                Ok(GraphSource::File(args.to_string()))
            }
            other => Err(format!(
                "unknown graph source {other:?} — known: ok|tw|fs|cw|hl, two-cycles:K, \
                 rmat:LOG_N,M[,social|web], er:N,M, chung-lu:N,M[,GAMMA], cycle:N, pair:K, \
                 path:N, star:N, complete:N, grid:RxC, tree:N, file:PATH"
            )),
        }
    }

    /// A canonical human-readable description (used in run records).
    pub fn describe(&self) -> String {
        match self {
            // `Dataset::name` is the paper-table label; the cycle-pair
            // dataset's (`2x{k}`) is not itself parseable, so it
            // describes in grammar form to keep parse∘describe = id.
            GraphSource::Dataset(Dataset::TwoCycles(k)) => format!("two-cycles:{k}"),
            GraphSource::Dataset(d) => d.name(),
            GraphSource::Rmat { log_n, m, params } => {
                let fam = if *params == RmatParams::WEB {
                    "web"
                } else {
                    "social"
                };
                format!("rmat:{log_n},{m},{fam}")
            }
            GraphSource::ErdosRenyi { n, m } => format!("er:{n},{m}"),
            GraphSource::ChungLu { n, m, gamma } => format!("chung-lu:{n},{m},{gamma}"),
            GraphSource::Cycle(n) => format!("cycle:{n}"),
            GraphSource::CyclePair(k) => format!("pair:{k}"),
            GraphSource::Path(n) => format!("path:{n}"),
            GraphSource::Star(n) => format!("star:{n}"),
            GraphSource::Complete(n) => format!("complete:{n}"),
            GraphSource::Grid(r, c) => format!("grid:{r}x{c}"),
            GraphSource::Tree(n) => format!("tree:{n}"),
            GraphSource::File(p) => format!("file:{p}"),
        }
    }

    /// Loads (generates or reads) the graph. Dataset analogues honour
    /// `scale`; explicit generator sources use their literal sizes.
    pub fn load(&self, scale: Scale, seed: u64) -> Result<CsrGraph, String> {
        Ok(match self {
            GraphSource::Dataset(d) => d.generate(scale, seed),
            GraphSource::Rmat { log_n, m, params } => gen::rmat(*log_n, *m, *params, seed),
            GraphSource::ErdosRenyi { n, m } => gen::erdos_renyi(*n, *m, seed),
            GraphSource::ChungLu { n, m, gamma } => gen::chung_lu(*n, *m, *gamma, seed),
            GraphSource::Cycle(n) => gen::single_cycle(*n, seed),
            GraphSource::CyclePair(k) => gen::two_cycles(*k, seed),
            GraphSource::Path(n) => gen::path(*n),
            GraphSource::Star(n) => gen::star(*n),
            GraphSource::Complete(n) => gen::complete(*n),
            GraphSource::Grid(r, c) => gen::grid(*r, *c),
            GraphSource::Tree(n) => gen::random_tree(*n, seed),
            GraphSource::File(path) => {
                io::read_edge_list_file(path).map_err(|e| format!("file:{path}: {e:?}"))?
            }
        })
    }

    /// Loads the weighted variant with the paper's §5.2 degree rule.
    pub fn load_weighted(&self, scale: Scale, seed: u64) -> Result<WeightedCsrGraph, String> {
        Ok(gen::degree_weights(&self.load(scale, seed)?))
    }
}

impl std::str::FromStr for GraphSource {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        GraphSource::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_named_datasets() {
        assert_eq!(
            GraphSource::parse("OK").unwrap(),
            GraphSource::Dataset(Dataset::Orkut)
        );
        assert_eq!(
            GraphSource::parse("hyperlink").unwrap(),
            GraphSource::Dataset(Dataset::Hyperlink)
        );
        assert_eq!(
            GraphSource::parse("two-cycles:640").unwrap(),
            GraphSource::Dataset(Dataset::TwoCycles(640))
        );
    }

    #[test]
    fn parses_generators() {
        assert_eq!(
            GraphSource::parse("rmat:10,4000,web").unwrap(),
            GraphSource::Rmat {
                log_n: 10,
                m: 4000,
                params: RmatParams::WEB
            }
        );
        assert_eq!(
            GraphSource::parse("er:100, 250").unwrap(),
            GraphSource::ErdosRenyi { n: 100, m: 250 }
        );
        assert_eq!(
            GraphSource::parse("cycle:500").unwrap(),
            GraphSource::Cycle(500)
        );
        assert_eq!(
            GraphSource::parse("grid:3x7").unwrap(),
            GraphSource::Grid(3, 7)
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "wat",
            "rmat:abc,5",
            "rmat:10",
            "rmat:10,100,mesh",
            "rmat:10,100,social,extra",
            "er:5",
            "er:1,2,3",
            "chung-lu:5",
            "chung-lu:5,9,fast",
            "grid:5",
            "grid:axb",
            "grid:3x4x5",
            "cycle:",
            "cycle:-4",
            "two-cycles:x",
            "file:",
            "",
            ":",
            "pair:1,2",
        ] {
            assert!(
                GraphSource::parse(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn rejects_sizes_the_generators_cannot_build() {
        for bad in [
            "cycle:0",
            "cycle:2",
            "pair:1",
            "pair:2",
            "rmat:32,100",
            "rmat:33,100",
        ] {
            let err = GraphSource::parse(bad).expect_err(bad);
            assert!(!err.contains('\n'), "{bad}: {err}");
        }
        for good in ["cycle:3", "pair:3", "rmat:31,10"] {
            assert!(GraphSource::parse(good).is_ok(), "{good}");
        }
    }

    #[test]
    fn describe_round_trips() {
        for s in [
            "rmat:10,4000,social",
            "er:100,250",
            "cycle:500",
            "pair:250",
            "grid:3x7",
            "chung-lu:50,100,2.5",
            "path:9",
        ] {
            let parsed = GraphSource::parse(s).unwrap();
            assert_eq!(
                GraphSource::parse(&parsed.describe()).unwrap(),
                parsed,
                "{s}"
            );
        }
    }

    #[test]
    fn loads_deterministically() {
        let src = GraphSource::parse("er:80,200").unwrap();
        let a = src.load(Scale::Test, 7).unwrap();
        let b = src.load(Scale::Test, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.num_nodes(), 80);

        let d = GraphSource::parse("ok").unwrap();
        assert_eq!(d.load(Scale::Test, 1).unwrap().num_nodes(), 256);
    }

    #[test]
    fn weighted_uses_degree_rule() {
        let src = GraphSource::parse("er:40,100").unwrap();
        let w = src.load_weighted(Scale::Test, 3).unwrap();
        let g = w.structure();
        for e in w.edges().take(20) {
            assert_eq!(e.w as usize, g.degree(e.u) + g.degree(e.v));
        }
    }

    #[test]
    fn file_source_reads_edge_list() {
        let dir = std::env::temp_dir().join("ampc_graph_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.el");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let src = GraphSource::parse(&format!("file:{}", path.display())).unwrap();
        let g = src.load(Scale::Test, 0).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(GraphSource::parse("file:/definitely/not/there.el")
            .unwrap()
            .load(Scale::Test, 0)
            .is_err());
    }
}
