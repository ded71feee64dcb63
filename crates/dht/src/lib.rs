//! # ampc-dht — the distributed hash table at the center of the AMPC model
//!
//! §2 of the paper defines the AMPC model as MPC plus *"a collection of
//! distributed hash tables D0, D1, D2, …"* where *"in the i-th round, each
//! machine can read data from D_{i−1} and write to D_i"*. This crate
//! provides that object for the simulated runtime:
//!
//! * [`store::Dht`] — the live end of a sequence of **generations**. A
//!   generation is written through a lock-striped
//!   [`store::GenerationWriter`] and then **sealed** into an immutable
//!   [`store::Generation`] that the next round reads without locks.
//!   Sealing is exactly the model's round boundary; a `Dht` holds only
//!   the newest sealed generation and drops its predecessor on `push`.
//!   Immutability of the generation a round reads is what makes the
//!   fault-tolerance story work (a re-executed machine re-reads the
//!   same values within that round). Sealing flattens the stripes into
//!   the one sealed layout of [`substrate`] — a zero-hash direct-index
//!   array for dense `0..n` key domains, a single-hash open-addressed
//!   table otherwise ([`store::ReprKind`]) — with `len`/`size_bytes`
//!   cached at seal; on the socket store the values then move to
//!   shard-server processes ([`socket`]) and only the layout's key
//!   index stays.
//!   The store is set per job: a job records its config's
//!   [`store::StoreKind`] and `threads` on each writer it writes into,
//!   and the writer's `seal()` seals on that store at that thread
//!   count. A large dense seal resolves its stripes in parallel on the
//!   pool.
//! * [`pool`] — the process-wide worker pool and [`pool::par_map`], the
//!   one fork-join entry point of the workspace. One pool runs the
//!   runtime's simulated machines, every striped host pass (the graph
//!   generators and CSR builder, `ampc_core::prim`) and the dense seal;
//!   it lives here because the seal is the lowest layer that needs it.
//!   `AMPC_THREADS` ([`ampc_knobs::ampc_threads`]) sizes it, and a call runs
//!   inline on its caller at one thread or one part.
//! * [`handle::MachineHandle`] — the per-machine access path. All reads
//!   and writes are metered: the handle counts queries, writes, batched
//!   round trips and bytes ([`metrics::CommStats`]), **enforces** the
//!   `O(S)` communication budget of the model
//!   ([`handle::BudgetExhausted`]), and supports the §5.3 batching
//!   optimization: `get_many_with`/`put_many` issue many independent
//!   keys as one accounted round trip, and a read-through
//!   [`cache::DenseCache`] can be mounted directly on the handle.
//! * [`cache::DenseCache`] — the per-machine query cache of §5.3's caching
//!   optimization (*"an array indexed over the vertices that is shared
//!   between all threads operating on a machine"*), with a compact-map
//!   representation that keeps memory `O(capacity)` when the capacity is
//!   far below the key space.
//! * [`cost`] — the network/storage cost model that converts byte and
//!   round-trip counts into simulated time, with RDMA and TCP/IP profiles
//!   (Table 4) and a multithreading latency-hiding factor (Figure 4).
//!   Lookup latency is charged per *batch* and bandwidth per key, so
//!   adaptive depth (chains of dependent batches) is what a round costs.
//!
//! Keys are `u64`; values are any `Clone + PartialEq + Measured` type,
//! where [`measured::Measured`] supplies the byte size used for
//! communication accounting (`PartialEq` lets the store detect
//! conflicting cross-machine duplicate writes, which the §3 determinism
//! contract forbids).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod cost;
pub mod fault;
pub mod handle;
pub mod hasher;
pub mod measured;
pub mod metrics;
pub mod pool;
pub mod socket;
pub mod store;
pub mod substrate;
pub mod wire;

pub use cache::DenseCache;
pub use cost::{CostConfig, Network};
pub use fault::DropPlan;
pub use handle::{BudgetExhausted, MachineHandle};
pub use measured::Measured;
pub use metrics::CommStats;
pub use socket::{wire_metrics, SocketCluster, WireMetrics};
pub use store::{Dht, Generation, GenerationWriter, ReprKind, StoreKind};
pub use wire::Wire;
