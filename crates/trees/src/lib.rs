//! # ampc-trees — tree-algorithm substrate
//!
//! Everything the paper's MSF pipeline needs to manipulate forests:
//!
//! * [`union_find`] — disjoint sets (the in-memory Kruskal/contraction
//!   primitive, and the oracle tests compare distributed labellings to);
//! * [`rooting`] — BFS rooting of a forest: parents, levels, orders;
//! * [`euler`] — Euler tours of rooted forests;
//! * [`rmq`] — O(1)-query sparse-table range min/max (Appendix B cites
//!   the MPC RMQ construction of Andoni et al.; this is the in-memory
//!   equivalent);
//! * [`lca`] — lowest common ancestors via Euler tour + RMQ;
//! * [`hld`] — heavy-light decomposition (Appendix B, Lemma B.1);
//! * [`flight`] — the F-light / F-heavy edge classification of
//!   Algorithm 5, combining all of the above;
//! * [`pointer_jump`] — root finding in directed forests (the
//!   "PointerJump" stage of the §5.5 MSF implementation).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod euler;
pub mod flight;
pub mod hld;
pub mod lca;
pub mod pointer_jump;
pub mod rmq;
pub mod rooting;
pub mod union_find;

pub use flight::{classify_edges, EdgeClass};
pub use lca::LcaIndex;
pub use rooting::RootedForest;
pub use union_find::UnionFind;
