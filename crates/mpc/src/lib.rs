//! # ampc-mpc — the MPC baselines of the paper's evaluation
//!
//! The paper compares its AMPC algorithms against *"strong MPC
//! baselines"* it also implemented (§5.3–§5.6). This crate rebuilds
//! them over the same accounting substrate so every comparison in the
//! reproduced figures is apples-to-apples:
//!
//! * [`mis_rootset`] — the rootset-based MIS (Figure 2; Blelloch et
//!   al. / Fischer–Noever O(log n) phases, 2 shuffles per phase, with
//!   the switch-to-in-memory threshold of §5.3).
//! * [`mm_rootset`] — the analogous rootset maximal matching (§5.4).
//! * [`boruvka`] — Borůvka's MSF with red/blue contraction, 3 shuffles
//!   per phase (§5.5).
//! * [`local_contraction`] — CC-LocalContraction, *"the fastest MPC
//!   connectivity implementation across a wide range of graphs"* \[48\],
//!   the 1-vs-2-cycle baseline of §5.6.
//! * [`simulate_ampc`] — the §5.3 negative result: naively simulating
//!   the AMPC MIS in MPC maps every adaptive KV query step to a
//!   shuffle, needing 1000+ shuffles on real inputs.
//! * [`walks`] — shuffle-per-hop random walks, the §5.7 separation
//!   baseline (identical walks to the AMPC kernel under equal seeds).
//! * [`dynamic`] — recompute-from-scratch batch-dynamic connectivity:
//!   the full static pipeline rerun after every update batch, the
//!   baseline the maintained AMPC kernel is pinned byte-identical to.
//!
//! Each baseline exports one body, `mpc_*_in_job(job, …)`, which the
//! `ampc-bench` registry runs as its family's row with model `mpc`.
//!
//! All baselines share randomness with their AMPC counterparts (the
//! priorities of `ampc-core::priorities`), so MIS/MM outputs are
//! *identical* across models and MSF outputs coincide edge-for-edge —
//! the paper's own validation methodology (§5.3).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod boruvka;
pub mod dynamic;
pub mod local_contraction;
pub mod mis_rootset;
pub mod mm_rootset;
pub mod simulate_ampc;
pub mod walks;

pub use boruvka::mpc_msf_in_job;
pub use dynamic::mpc_recompute_cc_in_job;
pub use local_contraction::mpc_connected_components_in_job;
pub use mis_rootset::mpc_mis_in_job;
pub use mm_rootset::mpc_matching_in_job;
pub use walks::mpc_random_walks_in_job;
