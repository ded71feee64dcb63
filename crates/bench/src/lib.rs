//! # ampc-bench — the reproduction harness
//!
//! One module per table/figure of the paper's evaluation, all driven
//! from the [`experiments::SECTIONS`] table: `ampc experiment <name>`
//! regenerates one, `ampc experiment all` everything into
//! `EXPERIMENTS.md`. See DESIGN.md §4 for the experiment index.
//!
//! The [`registry`] is the one way to run a kernel: every family × model
//! backend, plus the theory variants, as rows of plain data. The `ampc`
//! binary composes any row with any [`ampc_graph::GraphSource`] and any
//! runtime knob, emitting JSON run records (checked by [`json`]); the
//! experiments, the repo benchmark and the `records` pins run the same
//! rows (DESIGN.md §7).
//!
//! Scale is controlled by the `AMPC_SCALE` environment variable:
//! `test` (seconds), `mid` (default; minutes), `bench` (the full
//! laptop-scale analogues).

#![deny(missing_docs)]

pub mod experiments;
pub mod json;
pub mod registry;
pub mod util;

pub use util::{md_table, Md};
