//! Maximal independent set.
//!
//! The workspace computes the **lexicographically-first MIS** over a
//! random vertex permutation π: `v ∈ MIS` iff no neighbor earlier in π
//! is in the MIS. This canonical output is what makes the paper's
//! cross-model validation possible — the AMPC query-process algorithm
//! ([`ampc::ampc_mis`]), the MPC rootset baseline (in `ampc-mpc`) and
//! the sequential oracle ([`greedy::greedy_mis`]) all return *identical*
//! sets when seeded identically.

pub mod ampc;
pub mod greedy;

pub use ampc::{
    ampc_mis, ampc_mis_in_job, ampc_mis_with_options, direct_graph, MisOptions, MisOutcome,
};
pub use greedy::greedy_mis;
