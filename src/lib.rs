//! # ampc — Adaptive Massively Parallel Computation graph algorithms
//!
//! Facade crate for the AMPC workspace: a Rust reproduction of
//! *"Parallel Graph Algorithms in Constant Adaptive Rounds: Theory meets
//! Practice"* (Behnezhad et al., VLDB 2021).
//!
//! The workspace is organized as:
//! * [`graph`] — graph substrate: CSR graphs, generators, dataset analogues.
//! * [`dht`] — the distributed hash table the AMPC model is built around.
//! * [`runtime`] — a simulated multi-machine dataflow runtime with shuffle
//!   and communication accounting.
//! * [`trees`] — forest primitives: union-find and pointer jumping.
//! * [`core`] — the paper's AMPC algorithms (MIS, matching, MSF,
//!   connectivity, 1-vs-2-cycle).
//! * [`mpc`] — the MPC baselines the paper compares against.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use ampc_core as core;
pub use ampc_dht as dht;
pub use ampc_graph as graph;
pub use ampc_mpc as mpc;
pub use ampc_runtime as runtime;
pub use ampc_trees as trees;

/// Convenience prelude: the types most programs need.
///
/// ```
/// use ampc::prelude::*;
///
/// let graph = ampc::graph::gen::rmat(10, 4_000, ampc::graph::gen::RmatParams::SOCIAL, 7);
/// let cfg = AmpcConfig::default();
/// let out = mis::ampc_mis(&graph, &cfg);
/// assert_eq!(out.report.num_shuffles(), 1);
/// ```
pub mod prelude {
    pub use ampc_core::algorithm::{AlgoInput, AlgoOutput, AmpcAlgorithm, Model};
    pub use ampc_core::{connectivity, dynamic, matching, mis, msf, one_vs_two, walks};
    pub use ampc_dht::cost::{CostConfig, Network};
    pub use ampc_graph::{datasets::Dataset, CsrGraph, NodeId, WeightedCsrGraph};
    pub use ampc_runtime::config::AmpcConfig;
}
