//! # ampc-core — constant-round AMPC graph algorithms
//!
//! The primary contribution of the paper, implemented over the simulated
//! AMPC substrate (`ampc-runtime` + `ampc-dht`):
//!
//! * [`mis`] — maximal independent set via the Yoshida et al. query
//!   process run inside a single KV round (Figure 1 / Proposition 4.2;
//!   §5.3 case study), with the caching and multithreading optimizations.
//! * [`matching`] — maximal matching: the O(1)-round vertex-truncated
//!   query process of §4.2 (Theorem 2, part 2), the O(log log n)-round
//!   subsampled algorithm of §4.1 (Algorithm 4), and the approximation
//!   wrappers of Corollary 4.1.
//! * [`msf`] — minimum spanning forest: Algorithm 1 (TruncatedPrim),
//!   Algorithm 2 (ternarization), the §5.5 five-shuffle production
//!   pipeline and the DenseMSF fallback (Proposition 3.1). Algorithm 3
//!   (Karger–Klein–Tarjan sampling, Theorem 1's O(m + n log² n) bound)
//!   is not implemented: §5 never runs it, and its F-light filter does
//!   not fit one machine's space as a local step.
//! * [`connectivity`] — connected components from a spanning forest plus
//!   forest connectivity (Proposition 3.2).
//! * [`dynamic`] — batch-dynamic connectivity: component labels
//!   maintained across edge-update batches, one DHT-generation epoch
//!   per batch, byte-identical to recomputation after every batch.
//! * [`one_vs_two`] — the O(1)-round 1-vs-2-cycle algorithm (§5.6).
//! * [`validate`] — result checkers used across the test suites.
//! * [`algorithm`] — the vocabulary every registry row speaks: model,
//!   input kind, [`AlgoInput`] / [`AlgoOutput`] and the validators the
//!   AMPC and MPC rows share.
//! * [`priorities`] — the shared random priorities: AMPC and MPC
//!   implementations seeded identically compute the *same* lex-first
//!   MIS/matching and the same (unique) MSF, which is the paper's own
//!   cross-validation strategy and ours.
//!
//! Every kernel exports exactly one public entry point, `*_in_job(job,
//! …)`: it appends stages to a caller-provided [`ampc_runtime::Job`] and
//! returns its output. The `ampc-bench` registry runs each body as a row
//! of plain data, and the finished [`ampc_runtime::JobReport`] is what
//! the harness turns into the paper's tables and figures.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod algorithm;
pub mod connectivity;
pub mod dynamic;
pub mod matching;
pub mod mis;
pub mod msf;
pub mod one_vs_two;
pub mod prim;
pub mod priorities;
pub mod validate;
pub mod walks;

pub use algorithm::{AlgoInput, AlgoOutput, InputKind, Model};
