//! Plain-text edge-list I/O.
//!
//! Format: one `u v` (or `u v w`) triple per line, `#`-prefixed comment
//! lines ignored — the de-facto SNAP format the paper's public datasets
//! ship in, so users can load the real com-Orkut / Friendster downloads
//! into this library if they have them.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::source::SIZE_BUDGET;
use crate::weighted::WeightedCsrGraph;
use crate::{NodeId, Weight};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (1-based line number + description).
    Parse(usize, String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse(line, msg) => write!(f, "parse error on line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// `(line_count, edges)` as returned by [`parse_edges`].
type ParsedEdges = (usize, Vec<(NodeId, NodeId, Weight)>);

fn parse_edges<R: Read>(reader: R) -> Result<ParsedEdges, IoError> {
    let reader = BufReader::new(reader);
    let mut edges = Vec::new();
    let mut max_id: u64 = 0;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u: u64 = it
            .next()
            .ok_or_else(|| IoError::Parse(i + 1, "missing source".into()))?
            .parse()
            .map_err(|e| IoError::Parse(i + 1, format!("bad source: {e}")))?;
        let v: u64 = it
            .next()
            .ok_or_else(|| IoError::Parse(i + 1, "missing target".into()))?
            .parse()
            .map_err(|e| IoError::Parse(i + 1, format!("bad target: {e}")))?;
        let w: Weight = match it.next() {
            Some(tok) => tok
                .parse()
                .map_err(|e| IoError::Parse(i + 1, format!("bad weight: {e}")))?,
            None => 0,
        };
        // `n` is the largest id plus one, so an id at or past the
        // budget would size the graph past it.
        if u.max(v) >= SIZE_BUDGET as u64 {
            let msg = format!(
                "node id {} is over the size budget of {SIZE_BUDGET}",
                u.max(v)
            );
            return Err(IoError::Parse(i + 1, msg));
        }
        max_id = max_id.max(u).max(v);
        edges.push((u as NodeId, v as NodeId, w));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    Ok((n, edges))
}

/// Reads an unweighted, symmetrized graph from an edge list.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let (n, edges) = parse_edges(reader)?;
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v, _) in edges {
        b.push_edge(u, v, 0);
    }
    Ok(b.build())
}

/// Reads a weighted, symmetrized graph from an edge list (missing weights
/// default to 0).
pub fn read_weighted_edge_list<R: Read>(reader: R) -> Result<WeightedCsrGraph, IoError> {
    let (n, edges) = parse_edges(reader)?;
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v, w) in edges {
        b.push_edge(u, v, w);
    }
    Ok(b.build_weighted())
}

/// Reads a graph from a file path.
pub fn read_edge_list_file(path: impl AsRef<Path>) -> Result<CsrGraph, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes a graph as an edge list (each undirected edge once).
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# ampc edge list: {} nodes {} edges",
        g.num_nodes(),
        g.num_edges()
    )?;
    for e in g.edges() {
        writeln!(w, "{} {}", e.u, e.v)?;
    }
    w.flush()
}

/// Writes a weighted graph as a `u v w` edge list.
pub fn write_weighted_edge_list<W: Write>(g: &WeightedCsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# ampc edge list: {} nodes {} edges",
        g.num_nodes(),
        g.num_edges()
    )?;
    for e in g.edges() {
        writeln!(w, "{} {} {}", e.u, e.v, e.w)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn round_trip_unweighted() {
        let g = gen::erdos_renyi(40, 100, 9);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn round_trip_weighted() {
        let g = gen::degree_weights(gen::erdos_renyi(40, 100, 9));
        let mut buf = Vec::new();
        write_weighted_edge_list(&g, &mut buf).unwrap();
        let g2 = read_weighted_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let input = "# comment\n\n0 1\n 1 2 \n";
        let g = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let input = "0 1\nx 2\n";
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        match err {
            IoError::Parse(line, _) => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn rejects_ids_over_the_size_budget() {
        for (input, line) in [(&b"0 4294967295\n"[..], 1), (b"0 1\n268435456 0\n", 2)] {
            let err = read_edge_list(input).expect_err("an id over the budget");
            assert!(matches!(err, IoError::Parse(l, _) if l == line), "{err}");
        }
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 0);
    }
}
