//! The generational key-value store.
//!
//! The model (§2): *"At the start of the computation, the input data is
//! stored in D0 … In the i-th round, each machine can read data from
//! D_{i−1} and write to D_i."* A [`Dht`] is the sequence `D0, D1, …`;
//! each generation is written concurrently through a lock-striped
//! [`GenerationWriter`], then **sealed** into an immutable [`Generation`]
//! that later rounds read lock-free. Past generations are never mutated
//! — which is exactly why a preempted machine can replay its round
//! against the same inputs (the fault-tolerance property of §2).
//!
//! # Sealed layout (DESIGN.md §5.4, §12)
//!
//! Sealing resolves the writer's stripe logs and **flattens** them into
//! the one sealed layout of [`crate::substrate`]: a zero-hash
//! direct-index array ([`ReprKind::Dense`]) when the keys are a dense
//! `0..n` domain — the common case, every kernel keys the DHT by vertex
//! id — and a single-hash open-addressed table ([`ReprKind::Open`])
//! otherwise, chosen from the key set alone. The layout is
//! **canonical**: the physical slot assignment is a pure function of
//! the sealed key-value set, never of thread schedule or seal
//! parallelism. This module keeps the writer, the seal-time resolution
//! that feeds the layout, [`Generation`] and [`Dht`]; it never touches
//! a slot vector, bitmap or mask itself.
//!
//! Under `AMPC_STORE=socket` ([`StoreKind::Socket`]) the same layout is
//! sealed and then split: the values go to shard-server processes over
//! Unix-domain sockets ([`crate::socket`]) and only the key index stays
//! in this process. A socket generation reports the same [`ReprKind`]
//! and layout fingerprint as the in-memory one; [`Generation::backend`]
//! tells the two apart. `len()` and `size_bytes()` are computed once at
//! seal time and cached, so the per-round report path reads them in
//! O(1) whatever the backend.

#![allow(
    unsafe_code,
    reason = "disjoint-stripe scatter in the parallel seal; see seal_dense_scatter"
)]

use crate::hasher::mix64;
use crate::measured::Measured;
use crate::substrate::{dense_eligible, Layout, Offloaded};
use crate::wire::Wire;
use parking_lot::Mutex;

pub use crate::substrate::{ReprKind, StoreBackend};

/// Number of lock stripes in a writer. Plenty for the machine counts the
/// simulator runs (≤ a few hundred).
const DEFAULT_SHARDS: usize = 64;

/// Sealing drains and resolves the writer's stripes in parallel once a
/// generation holds at least this many entries; below it, one thread
/// finishes faster than workers can be handed their stripes.
const PARALLEL_SEAL_MIN: usize = 1 << 16;

/// The `AMPC_THREADS` environment knob (cached after the first read):
/// the worker count used by parallel seals here and by the runtime's
/// persistent executor pool. The read itself lives in the
/// [`ampc_knobs`] registry; this re-export keeps the historical entry
/// point callers already use.
pub use ampc_knobs::ampc_threads;

/// Store mode: resolved once from `AMPC_STORE`, overridable at runtime
/// by [`force_store`] (an atomic, so the hot write path never touches
/// the process environment lock).
const MODE_ENV: u8 = 0;
const MODE_FLAT: u8 = 1;
const MODE_SOCKET: u8 = 2;
static STORE_MODE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(MODE_ENV);

/// Which substrate [`GenerationWriter::seal`] produces — the
/// `AMPC_STORE` knob as a type (DESIGN.md §12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreKind {
    /// The flat in-memory layouts (dense or open) — the default.
    Flat,
    /// Values in shard-server processes behind Unix-domain sockets.
    Socket,
}

impl StoreKind {
    /// Parses an `AMPC_STORE` value (case-insensitive). `None` for
    /// anything that is not `flat` or `socket` — callers
    /// (the CLI's `--store` flag) reject loudly rather than default.
    pub fn parse(s: &str) -> Option<StoreKind> {
        match s.to_ascii_lowercase().as_str() {
            "flat" => Some(StoreKind::Flat),
            "socket" => Some(StoreKind::Socket),
            _ => None,
        }
    }

    /// The knob value naming this substrate (inverse of
    /// [`StoreKind::parse`]; echoed into run records).
    pub fn as_str(self) -> &'static str {
        match self {
            StoreKind::Flat => "flat",
            StoreKind::Socket => "socket",
        }
    }
}

/// The store kind currently in force: a [`force_store`] override if one
/// is set, else `AMPC_STORE` (resolved once and cached).
pub fn store_kind() -> StoreKind {
    use std::sync::atomic::Ordering;
    match STORE_MODE.load(Ordering::Relaxed) {
        MODE_FLAT => StoreKind::Flat,
        MODE_SOCKET => StoreKind::Socket,
        _ => {
            let kind = StoreKind::parse(ampc_knobs::ampc_store()).unwrap_or(StoreKind::Flat);
            force_store(Some(kind));
            kind
        }
    }
}

/// Overrides the substrate choice at runtime, as `AMPC_STORE` would,
/// without mutating the process environment: `Some(kind)` forces that
/// substrate for subsequent seals, `None` re-reads `AMPC_STORE` on next
/// use. Process-global — intended for the runtime's `--store` flag and
/// the substrate-equivalence tests, not for concurrent use under live jobs
/// (the substrates are observationally equivalent, so a racing seal
/// merely picks either one).
pub fn force_store(kind: Option<StoreKind>) {
    let mode = match kind {
        Some(StoreKind::Flat) => MODE_FLAT,
        Some(StoreKind::Socket) => MODE_SOCKET,
        None => MODE_ENV,
    };
    STORE_MODE.store(mode, std::sync::atomic::Ordering::Relaxed);
}

/// One logged write: `(key, writing machine, value)`. Stripes are
/// append-only until seal; duplicate resolution happens once, at seal
/// time, instead of per write.
type LogEntry<V> = (u64, u32, V);

/// The write-conflict rule: whether a write of `value` by `machine`
/// replaces `held`, written earlier by `holder`. The lowest machine id
/// wins, and a machine's later write replaces its own earlier one (one
/// machine's writes are sequential, so its log order is its issue
/// order). In `strict` mode two machines writing *different* values
/// trip a `debug_assert`: workspace algorithms only ever race equal
/// values, so a conflicting duplicate is a kernel bug.
fn replaces<V: PartialEq>(
    strict: bool,
    key: u64,
    (holder, held): (u32, &V),
    (machine, value): (u32, &V),
) -> bool {
    if strict && machine != holder {
        debug_assert!(
            held == value,
            "conflicting cross-machine writes for key {key} (machines {holder} and \
             {machine}): the §3 determinism contract forbids schedule-dependent values"
        );
    }
    machine <= holder
}

/// Resolves one logged write into `slot`, its key's entry in a
/// key-indexed resolution (held by machine `holder`), keeping `tally` =
/// (distinct keys, serialized bytes) current.
#[inline]
fn place<V: Measured + PartialEq>(
    strict: bool,
    slot: &mut Option<V>,
    holder: &mut u32,
    (key, machine, value): LogEntry<V>,
    tally: &mut (usize, usize),
) {
    match slot {
        None => {
            tally.0 += 1;
            tally.1 += 8 + value.size_bytes();
            *holder = machine;
            *slot = Some(value);
        }
        Some(held) => {
            if replaces(strict, key, (*holder, held), (machine, &value)) {
                tally.1 = tally.1 - held.size_bytes() + value.size_bytes();
                *holder = machine;
                *held = value;
            }
        }
    }
}

/// A write-only, lock-striped generation under construction.
///
/// Each stripe is an **append log** of `(key, machine, value)` entries;
/// writes never hash into a map. Duplicate keys are resolved
/// **deterministically at seal time**: every write carries the id of
/// the machine that issued it (threaded through
/// [`crate::MachineHandle::put`]) and the entry from the *lowest*
/// machine id wins, regardless of thread schedule. Writes from the same
/// machine are appended sequentially, so among them the last one wins.
/// This is the §3 determinism contract: a sealed generation is a pure
/// function of *what* was written, never of *when* the OS scheduled the
/// writers — within a stripe, one machine's entries keep their issue
/// order under every interleaving, and "last entry from the lowest
/// machine" names the same winner in all of them. That is also what
/// makes fault replay exact.
pub struct GenerationWriter<V> {
    /// Append logs, lock-striped by `mix64(key) % stripes`.
    shards: Vec<Mutex<Vec<LogEntry<V>>>>,
    /// When true (the default), cross-machine writes of *different*
    /// values to the same key trip a `debug_assert` at seal time —
    /// workspace algorithms only ever race equal values (e.g.
    /// idempotent status markers), so a conflicting duplicate is a
    /// kernel bug.
    strict: bool,
}

impl<V: Measured + Clone + PartialEq + Send + Wire> GenerationWriter<V> {
    /// New writer with the default shard count.
    pub fn new() -> Self {
        GenerationWriter {
            shards: (0..DEFAULT_SHARDS)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            strict: true,
        }
    }

    /// Disables the conflicting-write `debug_assert`, keeping the
    /// deterministic lowest-machine-id resolution. For tests and
    /// experiments that intentionally race different values.
    pub fn relaxed(mut self) -> Self {
        self.strict = false;
        self
    }

    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        (mix64(key) % self.shards.len() as u64) as usize
    }

    /// Inserts a key-value pair on behalf of machine 0 (the
    /// single-threaded load path). See [`Self::put_from`].
    pub fn put(&self, key: u64, value: V) -> usize {
        self.put_from(0, key, value)
    }

    /// Inserts a key-value pair written by `machine`. On duplicate keys
    /// the entry from the lowest machine id wins (ties: the same
    /// machine overwrites its own earlier write — deterministic because
    /// one machine's writes are sequential). Resolution happens at seal
    /// time; the write itself is one lock and one `Vec` push. Returns
    /// the serialized size of the pair for the caller's accounting.
    ///
    /// # Panics
    /// In debug builds (unless [`Self::relaxed`]), sealing panics when
    /// two *different* machines wrote *different* values for one key.
    pub fn put_from(&self, machine: u32, key: u64, value: V) -> usize {
        let bytes = 8 + value.size_bytes();
        self.shards[self.shard_of(key)]
            .lock()
            .push((key, machine, value));
        bytes
    }

    /// Inserts a batch of pairs written by `machine`. Per-pair
    /// semantics are exactly [`Self::put_from`]: same deterministic
    /// lowest-machine-id resolution (at seal), same conflict
    /// `debug_assert`, and the returned byte total is the sum of the
    /// per-pair sizes. Returns `(pairs_written, total_bytes)`.
    ///
    /// With append-log stripes there is no per-key map work to batch,
    /// so the batch form is a plain loop over [`Self::put_from`] —
    /// each value moves exactly once, out of the iterator and into its
    /// stripe log, with no intermediate batch buffer.
    pub fn put_many_from(
        &self,
        machine: u32,
        pairs: impl IntoIterator<Item = (u64, V)>,
    ) -> (u64, usize) {
        let mut written = 0u64;
        let mut total_bytes = 0usize;
        for (k, v) in pairs {
            total_bytes += self.put_from(machine, k, v);
            written += 1;
        }
        (written, total_bytes)
    }

    /// Seals the writer into an immutable generation on the substrate
    /// [`store_kind`] currently selects (see the module docs for the
    /// in-memory layout selection rule; large flat seals parallelize
    /// across the writer's stripes with [`ampc_threads`] workers).
    /// Under `AMPC_STORE=socket` the flat seal runs first — same
    /// canonical layout, byte for byte — and the values are then
    /// offloaded to the shard servers.
    pub fn seal(self) -> Generation<V> {
        match store_kind() {
            StoreKind::Flat => self.seal_flat(ampc_threads()),
            StoreKind::Socket => self.seal_flat(ampc_threads()).offload_to_socket(),
        }
    }

    /// Seals into the flat layout with an explicit worker count
    /// (`threads = 1` seals entirely on the calling thread), ignoring
    /// the store mode — the determinism suites use this to pin the
    /// canonical in-memory layout regardless of `AMPC_STORE`. The
    /// sealed layout is byte-identical for every `threads` value: the
    /// dense scatter distributes whole stripes over workers, and the
    /// physical layout is canonical (see module docs).
    pub fn seal_with_threads(self, threads: usize) -> Generation<V> {
        self.seal_flat(threads)
    }

    /// Flat seal over the stripe logs. Resolution and layout selection
    /// in one sweep:
    ///
    /// 1. A scan over the logs finds the total logged entry count and
    ///    the maximum key. The *distinct* key count is not yet known
    ///    (logs may hold duplicates), so the scan only rules layouts
    ///    *out*: if even the logged count cannot justify a dense array,
    ///    no subset of it can.
    /// 2. Dense-eligible logs scatter into a key-indexed array with a
    ///    `machines` side array carrying write precedence; the true
    ///    distinct count falls out, and the layout keeps the array or —
    ///    for a duplicate-heavy log that turns out sparse — compacts it
    ///    into the open table.
    /// 3. Sparse logs resolve per stripe by a stable `(key, machine)`
    ///    sort — "last entry of the lowest-machine run" is exactly the
    ///    deterministic winner — then build the open table in ascending
    ///    key order.
    fn seal_flat(&self, threads: usize) -> Generation<V> {
        let mut logged = 0usize;
        let mut max_key = 0u64;
        for m in &self.shards {
            let log = m.lock();
            logged += log.len();
            for &(k, _, _) in log.iter() {
                max_key = max_key.max(k);
            }
        }
        if logged == 0 {
            Generation::empty()
        } else if dense_eligible(logged, max_key) {
            self.seal_dense_scatter(max_key as usize + 1, logged, threads)
        } else {
            self.seal_open_sorted(logged)
        }
    }

    /// Dense-path seal: scatter the logs into `resolved`, indexed by
    /// key over `0..domain`, resolving duplicates via the `machines`
    /// precedence array (the write-conflict rule, replayed in log
    /// order); the layout then adopts the array as its slots. Stripes
    /// partition the key space, so whole stripes can scatter in
    /// parallel: an entry is only ever touched by the worker owning its
    /// key's stripe.
    fn seal_dense_scatter(&self, domain: usize, logged: usize, threads: usize) -> Generation<V> {
        let mut resolved: Vec<Option<V>> = vec![None; domain];
        let mut machines: Vec<u32> = vec![0; domain];
        let workers = threads.min(self.shards.len()).max(1);
        let strict = self.strict;
        let (len, size_bytes) = if workers > 1 && logged >= PARALLEL_SEAL_MIN {
            struct RawParts<V> {
                resolved: *mut Option<V>,
                machines: *mut u32,
            }
            // SAFETY: `RawParts` is shared across scoped workers, but a
            // key lives in exactly one stripe (`shard_of` is a pure
            // function of the key) and each stripe is drained by
            // exactly one worker, so any key's entries in `resolved`
            // and `machines` are accessed by at most one thread. Workers
            // move values into `resolved` and drop replaced ones, hence
            // `V: Send`.
            unsafe impl<V: Send> Sync for RawParts<V> {}
            let parts = RawParts {
                resolved: resolved.as_mut_ptr(),
                machines: machines.as_mut_ptr(),
            };
            let shards = &self.shards;
            let parts = &parts;
            #[expect(
                clippy::disallowed_methods,
                reason = "ampc-dht sits below ampc-runtime and cannot reach its WorkerPool; \
                          the worker count is capped by `ampc_threads()`, so \
                          AMPC_THREADS=1 takes the serial branch"
            )]
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        scope.spawn(move || {
                            // Worker w owns stripes w, w+W, w+2W, …; the
                            // locks are uncontended (writers are done).
                            let mut tally = (0, 0);
                            for stripe in shards.iter().skip(w).step_by(workers) {
                                for entry in stripe.lock().drain(..) {
                                    let s = entry.0 as usize;
                                    // SAFETY: key `s` belongs to this
                                    // stripe, owned by this worker alone
                                    // (see RawParts above).
                                    let (slot, holder) = unsafe {
                                        (&mut *parts.resolved.add(s), &mut *parts.machines.add(s))
                                    };
                                    place(strict, slot, holder, entry, &mut tally);
                                }
                            }
                            tally
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("seal worker panicked"))
                    .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
            })
        } else {
            let mut tally = (0, 0);
            for m in &self.shards {
                for entry in m.lock().drain(..) {
                    let s = entry.0 as usize;
                    place(
                        strict,
                        &mut resolved[s],
                        &mut machines[s],
                        entry,
                        &mut tally,
                    );
                }
            }
            tally
        };
        drop(machines);
        Generation {
            repr: Repr::Memory(Layout::from_key_indexed(resolved, len)),
            len,
            size_bytes,
        }
    }

    /// Sparse-path seal: resolve each stripe's log with a stable
    /// `(key, machine)` sort (same-machine entries keep their append
    /// order, so the last entry of the lowest-machine run is the
    /// deterministic winner), then build the canonical open table.
    fn seal_open_sorted(&self, logged: usize) -> Generation<V> {
        let mut pairs: Vec<(u64, V)> = Vec::with_capacity(logged);
        let mut holder = 0u32;
        for m in &self.shards {
            let mut log = m.lock();
            log.sort_by_key(|&(k, mach, _)| (k, mach));
            // A key lives in one stripe, so only this stripe's previous
            // pair can share its key.
            for (k, mach, v) in log.drain(..) {
                match pairs.last_mut() {
                    Some((held_key, held)) if *held_key == k => {
                        if replaces(self.strict, k, (holder, held), (mach, &v)) {
                            holder = mach;
                            *held = v;
                        }
                    }
                    _ => {
                        holder = mach;
                        pairs.push((k, v));
                    }
                }
            }
        }
        // Stripes interleave the key space; the canonical layout wants
        // one global ascending order.
        pairs.sort_unstable_by_key(|&(k, _)| k);
        Generation {
            len: pairs.len(),
            size_bytes: pairs.iter().map(|(_, v)| 8 + v.size_bytes()).sum(),
            repr: Repr::Memory(Layout::build(pairs)),
        }
    }
}

impl<V: Measured + Clone + PartialEq + Send + Wire> Default for GenerationWriter<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Where a sealed generation's values live.
enum Repr<V> {
    /// The flat layout, values in this process's memory.
    Memory(Layout<V>),
    /// The flat layout's key index here, values in shard servers.
    Socket(Offloaded<V>),
}

/// An immutable, sealed generation: reads need no locks.
pub struct Generation<V> {
    repr: Repr<V>,
    /// Entry count, computed once at seal.
    len: usize,
    /// Total serialized bytes, computed once at seal.
    size_bytes: usize,
}

impl<V> Generation<V> {
    /// An empty generation.
    pub fn empty() -> Self {
        Generation {
            repr: Repr::Memory(Layout::build(Vec::new())),
            len: 0,
            size_bytes: 0,
        }
    }

    /// Number of key-value pairs stored (cached at seal time).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no pairs are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total serialized size of all pairs (cached at seal time — the
    /// per-round report path reads this in O(1)). Backend-independent
    /// by construction: the socket offload keeps the in-memory seal's
    /// figure, so simulated accounting never depends on `AMPC_STORE`.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }
}

impl<V: Measured + Clone + Wire> Generation<V> {
    /// Looks a key up. Returns a reference into the sealed store.
    ///
    /// Dense layout: one bounds check, no hash. Open layout: one
    /// [`mix64`] and a linear probe. Socket backend: index lookup
    /// locally, one wire fetch on first touch of a present key
    /// (memoized after).
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        match &self.repr {
            Repr::Memory(layout) => layout.get(key),
            Repr::Socket(offloaded) => offloaded.get(key),
        }
    }

    /// The batched lookup: `f` is called once per key, in key order,
    /// with the index and the result — no output buffer at all. Every
    /// batched read funnels through here: in memory the lookups are
    /// software-pipelined (slot `i + 16` prefetched while slot `i` is
    /// read); the socket backend fetches the batch in one wire request
    /// per shard.
    pub fn get_many_with<'a>(&'a self, keys: &[u64], f: impl FnMut(usize, Option<&'a V>)) {
        match &self.repr {
            Repr::Memory(layout) => layout.get_many_with(keys, f),
            Repr::Socket(offloaded) => offloaded.get_many_with(keys, f),
        }
    }

    /// Which physical layout this generation sealed into. A
    /// socket-backed generation reports the layout of its local key
    /// index; see [`Self::backend`].
    pub fn repr_kind(&self) -> ReprKind {
        match &self.repr {
            Repr::Memory(layout) => layout.kind(),
            Repr::Socket(offloaded) => offloaded.index().kind(),
        }
    }

    /// Where this generation's values physically live: in this
    /// process's memory, or in shard-server processes (DESIGN.md §12).
    pub fn backend(&self) -> StoreBackend {
        match &self.repr {
            Repr::Memory(_) => StoreBackend::InMemory,
            Repr::Socket(_) => StoreBackend::Socket,
        }
    }

    /// The physical slot layout, for determinism tests: the key stored
    /// at every slot index in slot order (`u64::MAX` marks an empty
    /// slot), prefixed by the layout kind. Two generations with equal
    /// fingerprints and equal [`Self::iter`] contents are byte-identical
    /// in memory layout. A socket generation's fingerprint equals the
    /// in-memory one by construction (its key index *is* the slot
    /// structure).
    pub fn layout_fingerprint(&self) -> (ReprKind, Vec<u64>) {
        let slots = match &self.repr {
            Repr::Memory(layout) => layout.fingerprint(),
            Repr::Socket(offloaded) => offloaded.index().fingerprint(),
        };
        (self.repr_kind(), slots)
    }

    /// Iterates all pairs. Dense generations iterate in ascending key
    /// order (driven by the occupancy bitmap); open layouts iterate in
    /// slot order. Socket generations fetch any not-yet-memoized
    /// values first (in bounded per-shard batches), then iterate
    /// locally in the same order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        let (memory, socket) = match &self.repr {
            Repr::Memory(layout) => (Some(layout.iter()), None),
            Repr::Socket(offloaded) => (None, Some(offloaded.iter())),
        };
        memory
            .into_iter()
            .flatten()
            .chain(socket.into_iter().flatten())
    }

    /// Moves an in-memory generation's values to the socket shard
    /// servers, keeping the key index (and the cached `len`/
    /// `size_bytes`) local. An empty generation passes through untouched
    /// — it has nothing to serve, so it never costs wire traffic.
    fn offload_to_socket(mut self) -> Generation<V> {
        if self.len > 0 {
            self.repr = match self.repr {
                Repr::Memory(layout) => Repr::Socket(Offloaded::new(layout)),
                socket => socket,
            };
        }
        self
    }
}

/// Builds a generation directly from an iterator (single-threaded load
/// path for `D0`).
impl<V: Measured + Clone + PartialEq + Send + Wire> FromIterator<(u64, V)> for Generation<V> {
    fn from_iter<I: IntoIterator<Item = (u64, V)>>(items: I) -> Self {
        let w = GenerationWriter::new();
        for (k, v) in items {
            w.put(k, v);
        }
        w.seal()
    }
}

/// The collection `D0, D1, D2, …` of hash-table generations.
pub struct Dht<V> {
    generations: Vec<Generation<V>>,
}

impl<V: Measured + Clone> Dht<V> {
    /// A DHT whose `D0` holds the given input data.
    pub fn with_input(d0: Generation<V>) -> Self {
        Dht {
            generations: vec![d0],
        }
    }

    /// A DHT with an empty `D0`.
    pub fn new() -> Self {
        Self::with_input(Generation::empty())
    }

    /// Index of the newest sealed generation.
    pub fn current_index(&self) -> usize {
        self.generations.len() - 1
    }

    /// The newest sealed generation (what the next round reads).
    pub fn current(&self) -> &Generation<V> {
        self.generations.last().unwrap()
    }

    /// A specific sealed generation.
    pub fn generation(&self, i: usize) -> &Generation<V> {
        &self.generations[i]
    }

    /// Seals `next` as the newest generation (the round boundary).
    pub fn push(&mut self, next: Generation<V>) {
        self.generations.push(next);
    }

    /// Number of sealed generations (including `D0`).
    pub fn num_generations(&self) -> usize {
        self.generations.len()
    }

    /// Size in bytes of the largest generation sealed so far (each
    /// generation's size is cached at seal, so this is O(generations)).
    pub fn peak_generation_bytes(&self) -> usize {
        self.generations
            .iter()
            .map(Generation::size_bytes)
            .max()
            .unwrap_or(0)
    }
}

impl<V: Measured + Clone> Default for Dht<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn writer_seal_roundtrip() {
        let w: GenerationWriter<u64> = GenerationWriter::new();
        for k in 0..500u64 {
            w.put(k, k * 3);
        }
        let g = w.seal();
        assert_eq!(g.len(), 500);
        for k in 0..500u64 {
            assert_eq!(g.get(k), Some(&(k * 3)));
        }
        assert_eq!(g.get(999), None);
    }

    #[test]
    fn put_returns_pair_size() {
        let w: GenerationWriter<Vec<u32>> = GenerationWriter::new();
        let sz = w.put(1, vec![1, 2, 3]);
        assert_eq!(sz, 8 + 8 + 12);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "racing writer threads are what the test exercises"
    )]
    fn concurrent_writes() {
        let w: GenerationWriter<u64> = GenerationWriter::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let w = &w;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        w.put(t * 1000 + i, i);
                    }
                });
            }
        });
        let g = w.seal();
        assert_eq!(g.len(), 8000);
    }

    #[test]
    fn dht_generations_advance() {
        let mut dht: Dht<u32> = Dht::new();
        assert_eq!(dht.current_index(), 0);
        let w = GenerationWriter::new();
        w.put(7, 7u32);
        dht.push(w.seal());
        assert_eq!(dht.current_index(), 1);
        assert_eq!(dht.current().get(7), Some(&7));
        assert_eq!(dht.generation(0).get(7), None);
    }

    #[test]
    fn generation_iter_and_size() {
        let g = Generation::from_iter((0..10u64).map(|k| (k, k as u32)));
        assert_eq!(g.iter().count(), 10);
        assert_eq!(g.size_bytes(), 10 * 12);
        assert!(!g.is_empty());
        assert!(Generation::<u32>::empty().is_empty());
    }

    #[test]
    fn same_machine_last_write_wins() {
        let w: GenerationWriter<u32> = GenerationWriter::new();
        w.put(5, 1);
        w.put(5, 2);
        let g = w.seal();
        assert_eq!(g.get(5), Some(&2));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn lowest_machine_id_wins_regardless_of_order() {
        // Conflicting values (relaxed mode): the winner is the machine
        // with the lowest id, in every arrival order.
        for order in [[3u32, 1, 2], [1, 2, 3], [2, 3, 1]] {
            let w: GenerationWriter<u32> = GenerationWriter::new().relaxed();
            for m in order {
                w.put_from(m, 9, 100 + m);
            }
            let g = w.seal();
            assert_eq!(g.get(9), Some(&101), "order {order:?}");
        }
    }

    #[test]
    fn duplicate_equal_values_are_not_conflicts() {
        let w: GenerationWriter<u64> = GenerationWriter::new();
        w.put_from(2, 7, 42);
        w.put_from(0, 7, 42); // strict mode: equal values, no panic
        assert_eq!(w.seal().get(7), Some(&42));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "conflicting cross-machine writes")]
    fn strict_mode_rejects_conflicting_values() {
        let w: GenerationWriter<u64> = GenerationWriter::new();
        w.put_from(0, 7, 1);
        w.put_from(1, 7, 2);
        // Writes append; the conflict is detected when resolution runs.
        let _ = w.seal();
    }

    /// Dense 0..n keys must select the direct-index layout; sparse u64
    /// keys must fall back to the single open-addressed table.
    #[test]
    fn layout_selection_rule() {
        let dense = Generation::from_iter((0..1000u64).map(|k| (k, k)));
        assert_eq!(dense.repr_kind(), ReprKind::Dense);
        // Half-occupied 0..2n domain still qualifies as dense.
        let gappy = Generation::from_iter((0..1000u64).map(|k| (2 * k, k)));
        assert_eq!(gappy.repr_kind(), ReprKind::Dense);
        // Sparse: keys spread over the whole u64 space.
        let sparse =
            Generation::from_iter((0..1000u64).map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k)));
        assert_eq!(sparse.repr_kind(), ReprKind::Open);
        for k in 0..1000u64 {
            assert_eq!(sparse.get(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)), Some(&k));
            assert_eq!(gappy.get(2 * k), Some(&k));
            assert_eq!(gappy.get(2 * k + 1), None);
        }
        assert_eq!(sparse.get(12345), None);
        // Dense iteration walks the bitmap: ascending key order.
        let keys: Vec<u64> = gappy.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, (0..1000u64).map(|k| 2 * k).collect::<Vec<_>>());
        // Four keys reaching 129 would need 130 slots > 2 × 4: open.
        let short = Generation::from_iter([(4u64, 40u64), (0, 0), (129, 1290), (64, 640)]);
        assert_eq!(short.repr_kind(), ReprKind::Open);
    }

    /// Every read of a sealed generation must agree with a `BTreeMap`
    /// oracle — dense, sparse and stripe-colliding adversarial key
    /// sets, each in memory and offloaded to the shard servers, hits
    /// and misses alike — and its slot layout must be the canonical
    /// build of the oracle's pairs wherever the values live.
    #[test]
    fn flat_layouts_match_btreemap_oracle() {
        // Keys that all land in mix64 bucket 0 of the 64 writer stripes
        // (one stripe log holds everything) — and stress one probe
        // neighborhood of the open table.
        let colliding: Vec<u64> = (0..200_000u64)
            .filter(|&k| mix64(k).is_multiple_of(64))
            .take(500)
            .collect();
        let sparse: Vec<u64> = (0..500u64)
            .map(|k| k.wrapping_mul(0xDEAD_BEEF_1234_5679) | 1 << 63)
            .collect();
        let dense: Vec<u64> = (0..500u64).collect();
        for (keys, kind) in [
            (colliding, ReprKind::Open),
            (sparse, ReprKind::Open),
            (dense, ReprKind::Dense),
        ] {
            let oracle: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, mix64(k))).collect();
            let pairs: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
            let canonical = (kind, Layout::build(pairs.clone()).fingerprint());
            // Absent neighbors probe the same slots as the keys.
            let probes: Vec<u64> = keys
                .iter()
                .flat_map(|&k| [k, k ^ 1, k.wrapping_add(64), !k])
                .collect();
            let expected: Vec<Option<&u64>> = probes.iter().map(|k| oracle.get(k)).collect();
            let seal = || {
                let w = GenerationWriter::new();
                for &k in &keys {
                    w.put(k, mix64(k));
                }
                w.seal_with_threads(1)
            };
            for (g, backend) in [
                (seal(), StoreBackend::InMemory),
                (seal().offload_to_socket(), StoreBackend::Socket),
            ] {
                assert_eq!(g.backend(), backend);
                assert_eq!(g.layout_fingerprint(), canonical, "{backend:?}");
                assert_eq!(g.len(), oracle.len());
                assert_eq!(g.size_bytes(), oracle.len() * (8 + 8));
                let mut batched = Vec::new();
                g.get_many_with(&probes, |i, v| {
                    assert_eq!(i, batched.len());
                    batched.push(v);
                });
                assert_eq!(batched, expected, "{backend:?}");
                let single: Vec<Option<&u64>> = probes.iter().map(|&k| g.get(k)).collect();
                assert_eq!(single, expected, "{backend:?}");
                let mut seen: Vec<(u64, u64)> = g.iter().map(|(k, v)| (k, *v)).collect();
                seen.sort_unstable();
                assert_eq!(seen, pairs, "{backend:?}");
            }
        }
    }

    #[test]
    fn store_kind_parse_round_trips() {
        for kind in [StoreKind::Flat, StoreKind::Socket] {
            assert_eq!(StoreKind::parse(kind.as_str()), Some(kind));
            assert_eq!(
                StoreKind::parse(&kind.as_str().to_ascii_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(StoreKind::parse("sharded"), None);
        assert_eq!(StoreKind::parse("tcp"), None);
        assert_eq!(StoreKind::parse(""), None);
    }

    #[test]
    fn get_many_into_reuses_buffer() {
        let g = Generation::from_iter((0..50u64).map(|k| (k, k * 2)));
        let mut h = crate::handle::MachineHandle::new(&g, None);
        let mut buf = Vec::new();
        h.get_many_into(&[1, 2, 99], &mut buf);
        assert_eq!(buf, vec![Some(&2), Some(&4), None]);
        h.get_many_into(&[3], &mut buf);
        assert_eq!(buf, vec![Some(&6)]);
    }

    #[test]
    fn cached_len_and_size_match_recomputation() {
        let g = Generation::from_iter((0..77u64).map(|k| (k, vec![k as u32, 1, 2])));
        assert_eq!(g.len(), 77);
        let recomputed: usize = g.iter().map(|(_, v)| 8 + v.size_bytes()).sum();
        assert_eq!(g.size_bytes(), recomputed);
    }

    /// The §3 stress test: many machines racing duplicate keys under two
    /// very different thread schedules must seal **byte-identical flat
    /// generations** — same physical slot layout, same values — and the
    /// layout must also be independent of the seal's worker count
    /// (`AMPC_THREADS` 1 vs 8).
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "racing writer threads are what the test exercises"
    )]
    fn schedules_seal_identical_generations() {
        fn run(reverse: bool, seal_threads: usize) -> Generation<u64> {
            let w: GenerationWriter<u64> = GenerationWriter::new();
            std::thread::scope(|s| {
                let machines: Vec<u32> = if reverse {
                    (0..8u32).rev().collect()
                } else {
                    (0..8u32).collect()
                };
                for m in machines {
                    let w = &w;
                    s.spawn(move || {
                        if reverse {
                            // Skew the schedule: late spawns run first.
                            std::thread::yield_now();
                        }
                        for i in 0..200u64 {
                            // Private keys, plus shared keys every machine
                            // writes with the machine-independent value
                            // (the StatusWrite pattern).
                            w.put_from(m, m as u64 * 1000 + i, i * 3);
                            w.put_from(m, 100_000 + i, i);
                        }
                    });
                }
            });
            w.seal_with_threads(seal_threads)
        }
        let a = run(false, 1);
        let pairs =
            |g: &Generation<u64>| -> Vec<(u64, u64)> { g.iter().map(|(k, v)| (k, *v)).collect() };
        assert_eq!(a.len(), 8 * 200 + 200);
        for (reverse, threads) in [(true, 1), (false, 8), (true, 8)] {
            let b = run(reverse, threads);
            assert_eq!(
                a.layout_fingerprint(),
                b.layout_fingerprint(),
                "layout differs (reverse={reverse}, threads={threads})"
            );
            // Identical layout + identical iteration contents ⇒ the
            // sealed representations are byte-identical.
            assert_eq!(
                pairs(&a),
                pairs(&b),
                "(reverse={reverse}, threads={threads})"
            );
        }
    }

    /// The parallel seal path (many entries, many workers) must produce
    /// the same canonical layout as the sequential seal.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "racing writer threads are what the test exercises"
    )]
    fn parallel_seal_is_canonical_above_threshold() {
        let build = || {
            let w: GenerationWriter<u64> = GenerationWriter::new();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let w = &w;
                    s.spawn(move || {
                        for i in 0..(PARALLEL_SEAL_MIN as u64 / 2) {
                            w.put(t * (PARALLEL_SEAL_MIN as u64) + i, i);
                        }
                    });
                }
            });
            w
        };
        let seq = build().seal_with_threads(1);
        let par = build().seal_with_threads(8);
        assert_eq!(seq.layout_fingerprint(), par.layout_fingerprint());
        assert_eq!(seq.len(), par.len());
        assert_eq!(seq.size_bytes(), par.size_bytes());
    }
}
