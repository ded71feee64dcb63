//! # ampc-trees — forest primitives
//!
//! The in-memory forest operations the MSF, connectivity and MPC
//! pipelines share:
//!
//! * [`union_find`] — disjoint sets (the in-memory Kruskal/contraction
//!   primitive, and the oracle tests compare distributed labellings to);
//! * [`pointer_jump`] — root finding in directed forests (the
//!   "PointerJump" stage of the §5.5 MSF implementation).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod pointer_jump;
pub mod union_find;

pub use union_find::UnionFind;
