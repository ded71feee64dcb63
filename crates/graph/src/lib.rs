//! # ampc-graph — graph substrate for the AMPC workspace
//!
//! This crate provides everything the algorithm crates need to talk about
//! graphs:
//!
//! * compact immutable representations ([`CsrGraph`], [`WeightedCsrGraph`])
//!   built through [`builder::GraphBuilder`];
//! * synthetic workload generators ([`gen`]) matched to the graph families
//!   used in the paper's evaluation (RMAT social-network analogues, the
//!   `2 × k` cycle family, Erdős–Rényi, Chung–Lu power-law, trees, grids);
//! * structural operations ([`ops`]) the algorithms rely on: symmetrization,
//!   ternarization (Algorithm 2 of the paper), line graphs, contraction,
//!   induced subgraphs and relabelling;
//! * statistics ([`stats`]) reproducing Table 2 of the paper (vertex/edge
//!   counts, connected components, diameter estimates);
//! * the registry of paper-dataset analogues ([`datasets`]), documenting the
//!   substitution of proprietary inputs by synthetic equivalents;
//! * plain-text edge-list I/O ([`io`]);
//! * the [`source::GraphSource`] grammar: one parseable string format
//!   (`rmat:…`, `er:…`, named datasets, `file:…`, …) from which every
//!   harness entry point loads its input;
//! * batch-dynamic update streams ([`dynamic`]): the
//!   `dyn:<base>:batches=B:ops=K` grammar, deterministic seeded
//!   insert/delete batch generators, and the [`dynamic::EdgeSet`]
//!   reference state machine the batch-dynamic kernels validate
//!   against.
//!
//! The representation convention throughout the workspace: **undirected
//! graphs are stored symmetrized** (every edge `{u, v}` appears in both
//! `neighbors(u)` and `neighbors(v)`), node identifiers are dense `u32`
//! values in `0..n`, and `m` counts *undirected* edges (so the neighbor
//! array has length `2m`).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod dynamic;
pub mod edge;
pub mod gen;
pub mod io;
pub mod ops;
pub mod source;
pub mod stats;
pub mod stripes;
pub mod weighted;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use dynamic::DynamicSource;
pub use edge::{Edge, WeightedEdge};
pub use source::GraphSource;
pub use weighted::WeightedCsrGraph;

/// Dense node identifier. Nodes of an `n`-vertex graph are `0..n`.
pub type NodeId = u32;

/// Edge weights are unsigned integers; ties are broken by edge identity so
/// that minimum spanning forests are unique (see [`edge::WeightedEdge::key`]).
pub type Weight = u64;

/// The invalid / "no node" sentinel (`u32::MAX`).
pub const NO_NODE: NodeId = NodeId::MAX;
