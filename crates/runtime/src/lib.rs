//! # ampc-runtime — the simulated multi-machine dataflow runtime
//!
//! The paper's implementations run on Flume-C++ (a fault-tolerant
//! dataflow framework) with AMPC algorithms additionally querying a
//! distributed key-value store from inside a stage (§5.1). This crate is
//! the laptop-scale stand-in for that environment:
//!
//! * A **job** ([`job::Job`]) is a sequence of **stages**. Stages come in
//!   three kinds, mirroring what the paper meters:
//!   [`report::StageKind::Shuffle`] (the costly rounds of Table 3 — data
//!   regrouped by key and persisted to durable storage),
//!   [`report::StageKind::KvRound`] (an AMPC round where machines query
//!   the DHT), and [`report::StageKind::Local`] (the "switch to an
//!   in-memory algorithm on one machine" step both the AMPC and MPC
//!   implementations use).
//! * The **executor** ([`executor`]) runs a round's machine bodies as
//!   the parts of one [`ampc_dht::pool::par_map`] on the process-wide
//!   pool that also runs the striped host passes and the dense seal
//!   (sized by `AMPC_THREADS`; `AMPC_THREADS=1` — and any
//!   single-machine round — runs inline on the caller thread with no
//!   dispatch at all). Each
//!   machine's DHT traffic is metered through an
//!   [`ampc_dht::MachineHandle`] that carries the machine's id (for
//!   deterministic duplicate-write resolution), its enforced `O(S)`
//!   query budget — lookup latency is charged per batched round trip
//!   (§5.3), bandwidth per key. The thread
//!   count is purely a wall-clock knob: outputs, round counts and
//!   `CommStats` are identical for every value.
//! * Every stage appends a [`report::StageReport`]; the final
//!   [`report::JobReport`] carries everything the benchmark harness needs
//!   to regenerate the paper's tables and figures: shuffle counts
//!   (Table 3), bytes shuffled and KV bytes (Figures 3 & 9), per-stage
//!   simulated time breakdowns (Figures 5–7), and machine-count scaling
//!   (Figure 8).
//! * [`chaos`] demonstrates the fault-tolerance property of §2: because
//!   sealed DHT generations are immutable, replaying a preempted
//!   machine's work yields byte-identical results. A schedule is one
//!   explicit kill or a seeded multi-fault mix — several machines per
//!   stage, repeated kills, correlated stripes, epoch-targeted kills
//!   for the dynamic kernels, and DHT batch drops retried with capped
//!   exponential backoff — always under the same invariant: outputs
//!   stay byte-identical, only simulated time and retry counters
//!   change.
//! * [`driver`] owns the orchestration kernels used to hand-roll —
//!   job lifecycle ([`driver::drive`]), truncated-round budget
//!   bookkeeping ([`driver::AdaptiveRounds`]) and report flattening
//!   ([`driver::RunSummary`]) — so every kernel body, run from its
//!   registry row in `ampc-bench`, shares one code path from
//!   configuration to finished report (DESIGN.md §7).
//!
//! Simulated time is deterministic given the job's [`config::AmpcConfig`]
//! and is the primary "running time" in all reproduced figures; see
//! `DESIGN.md` §6 for the calibration of the cost constants.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod chaos;
pub mod config;
pub mod driver;
pub mod executor;
pub mod job;
pub mod partition;
pub mod report;

pub use chaos::{ChaosSpec, FaultSchedule};
pub use config::AmpcConfig;
pub use job::Job;
pub use report::{JobReport, StageKind, StageReport};
