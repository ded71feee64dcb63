//! Minimum spanning forest (§3 of the paper).
//!
//! * [`in_memory`] — Kruskal and Prim oracles (also the "switch to an
//!   in-memory MSF algorithm" step of both production pipelines, §5.5).
//! * [`common`] — shared machinery: strict weight ordering
//!   (distinctification, making the MSF unique), edge provenance through
//!   contractions, and the Prim-search + contraction round that
//!   Algorithm 1 and the §5.5 pipeline are built from.
//! * [`dense`] — the iterated search-and-contract loop of Proposition 3.1
//!   (\[19\]'s DenseMSF) and [`dense::ampc_msf_in_job`], the §5.5
//!   production pipeline built on it (what Figure 7 measures).
//! * [`pipeline`] — [`pipeline::ampc_msf_algorithm2_in_job`]: the faithful
//!   Algorithm 2 with the ternarization step for sparse graphs.

pub mod common;
pub mod dense;
pub mod in_memory;
pub mod pipeline;

pub use dense::ampc_msf_in_job;
pub use pipeline::ampc_msf_algorithm2_in_job;
