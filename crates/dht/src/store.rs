//! The generational key-value store.
//!
//! The model (§2): *"At the start of the computation, the input data is
//! stored in D0 … In the i-th round, each machine can read data from
//! D_{i−1} and write to D_i."* Each generation is written concurrently
//! through a lock-striped [`GenerationWriter`], then **sealed** into an
//! immutable [`Generation`] that the next round reads lock-free. A
//! [`Dht`] walks the sequence `D0, D1, …` but holds only its newest
//! generation: round `i` reads `D_{i−1}` alone, so pushing the sealed
//! `D_i` drops `D_{i−1}` (on the socket store, its shard regions too).
//! Replay stays exact because a preempted machine reruns *inside* its
//! round, against the sealed generation that round was handed and that
//! nothing mutates (the fault-tolerance property of §2); the borrow
//! checker keeps that generation alive until the round returns.
//!
//! # Sealed layout (DESIGN.md §5.4, §12)
//!
//! Sealing resolves the writer's stripe chunks and **flattens** them into
//! the one sealed layout of [`crate::substrate`]: a zero-hash
//! direct-index array ([`ReprKind::Dense`]) when the keys are a dense
//! `0..n` domain — the common case, every kernel keys the DHT by vertex
//! id — and a single-hash open-addressed table ([`ReprKind::Open`])
//! otherwise, chosen from the key set alone. The layout is
//! **canonical**: the physical slot assignment is a pure function of
//! the sealed key-value set, never of thread schedule or seal
//! parallelism. This module keeps the writer, the seal-time resolution
//! that feeds the layout, [`Generation`] and [`Dht`]; it never touches
//! a slot vector, bitmap or mask itself — the dense seal resolves into
//! block views the substrate hands out.
//!
//! The store is a job setting. A job records its config's
//! [`StoreKind`] and thread count on every writer it writes into
//! ([`GenerationWriter::set_seal`]), and [`GenerationWriter::seal`]
//! seals with that pair; a writer no job wrote into seals with the
//! `AMPC_STORE` and `AMPC_THREADS` defaults, and
//! [`GenerationWriter::seal_on`] names both explicitly. On
//! [`StoreKind::Socket`] the same layout is sealed and then split: the
//! values go to shard-server processes over Unix-domain sockets
//! ([`crate::socket`]) and only the key index stays in this process. A
//! socket generation reports the same [`ReprKind`] and layout
//! fingerprint as the in-memory one; [`Generation::backend`] tells the
//! two apart. `len()` and `size_bytes()` are computed once at seal time
//! and cached, so the per-round report path reads them in O(1) whatever
//! the backend.

use crate::measured::Measured;
use crate::pool::par_map;
use crate::substrate::{dense_eligible, DenseBlock, KeyIndexed, Layout, Offloaded};
use crate::wire::Wire;
use parking_lot::Mutex;
use std::cmp::Reverse;

pub use crate::substrate::ReprKind;

/// Number of lock stripes in a writer. Plenty for the machine counts the
/// simulator runs (≤ a few hundred).
const STRIPES: usize = 64;

/// A stripe owns runs of `1 << BLOCK_BITS` consecutive keys, dealt
/// round-robin: key `k` lies in block `k >> BLOCK_BITS`, and block `b`
/// in stripe `b % STRIPES`. A machine writing a range of vertex ids
/// touches few stripes, and a dense seal resolves each stripe into
/// whole blocks of slots that no other stripe touches.
const BLOCK_BITS: u32 = 12;

/// `STRIPES` consecutive blocks (one per stripe) span this many key
/// bits: key `k` lies in its stripe's `(k >> SPAN_BITS)`-th block.
const SPAN_BITS: u32 = BLOCK_BITS + STRIPES.trailing_zeros();

/// Sealing resolves the writer's stripes in parallel once a generation
/// holds at least this many entries; below it, one thread finishes
/// faster than workers can be handed their stripes.
const PARALLEL_SEAL_MIN: usize = 1 << 16;

/// The stripe holding `key` (see [`BLOCK_BITS`]).
#[inline]
fn stripe_of(key: u64) -> usize {
    ((key >> BLOCK_BITS) % STRIPES as u64) as usize
}

/// Which substrate a [`GenerationWriter`] seals on (DESIGN.md §12):
/// a job's `AmpcConfig::store`, recorded on every writer the job writes
/// into.
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

    /// The `AMPC_STORE` knob: the default of `AmpcConfig::store`, and
    /// the store of a writer no job wrote into.
    pub fn from_env() -> StoreKind {
        #[expect(
            clippy::disallowed_methods,
            reason = "the one resolver of the knob's default; jobs read AmpcConfig::store"
        )]
        let token = ampc_knobs::ampc_store();
        StoreKind::parse(token).unwrap_or(StoreKind::Flat)
    }
}

/// One machine's run of writes to one stripe, in issue order. A stripe
/// is a list of chunks, append-only until seal; duplicate resolution
/// happens once, at seal time, instead of per write.
type Chunk<V> = (u32, Vec<(u64, V)>);

/// The write-conflict rule of the sparse seal: whether a write of
/// `value` by `machine` replaces `held`, written earlier in stripe order
/// by `holder`. The lowest machine id wins, and a machine's later write
/// replaces its own earlier one (one machine's writes are sequential,
/// so its chunks keep its issue order). In `strict` mode two machines
/// writing *different* values trip a `debug_assert` (see
/// [`assert_no_conflict`]).
fn replaces<V: PartialEq>(
    strict: bool,
    key: u64,
    (holder, held): (u32, &V),
    (machine, value): (u32, &V),
) -> bool {
    assert_no_conflict(strict, key, (holder, held), (machine, value));
    machine <= holder
}

/// The strict conflict check: workspace algorithms only ever race equal
/// values, so two machines writing *different* values for one key is a
/// kernel bug.
#[inline]
fn assert_no_conflict<V: PartialEq>(
    strict: bool,
    key: u64,
    (holder, held): (u32, &V),
    (machine, value): (u32, &V),
) {
    if strict && machine != holder {
        debug_assert!(
            held == value,
            "conflicting cross-machine writes for key {key} (machines {holder} and \
             {machine}): the §3 determinism contract forbids schedule-dependent values"
        );
    }
}

/// The machine whose write a resolved dense slot holds. Only debug
/// builds track it, for [`assert_no_conflict`]; in release builds it is
/// zero-sized, so the dense seal carries no precedence array.
#[cfg(debug_assertions)]
type Holder = u32;
#[cfg(not(debug_assertions))]
type Holder = ();

/// Checks a dense overwrite of a slot that holds `held` (written by
/// `holder`; `None` when its occupancy bit is clear) with `value` from
/// `machine`, then records `machine` as the holder. A no-op in release
/// builds.
#[inline]
fn hold<V: PartialEq>(
    strict: bool,
    key: u64,
    held: Option<&V>,
    holder: &mut Holder,
    (machine, value): (u32, &V),
) {
    #[cfg(debug_assertions)]
    {
        if let Some(held) = held {
            assert_no_conflict(strict, key, (*holder, held), (machine, value));
        }
        *holder = machine;
    }
    #[cfg(not(debug_assertions))]
    let _ = (strict, key, held, holder, machine, value);
}

/// Deals a key-indexed array's blocks of `1 << BLOCK_BITS` keys, given
/// in key order, to their stripes: entry `s` lists stripe `s`'s blocks
/// in key order, so key `k` of stripe `s` sits at
/// `[s][k >> SPAN_BITS][k % block size]`. The blocks are disjoint
/// borrows, so stripes resolve in parallel without sharing a slot.
fn deal<B>(blocks: impl Iterator<Item = B>) -> Vec<Vec<B>> {
    let mut stripes: Vec<Vec<B>> = (0..STRIPES).map(|_| Vec::new()).collect();
    for (b, block) in blocks.enumerate() {
        stripes[b % STRIPES].push(block);
    }
    stripes
}

/// Resolves one stripe into its blocks of the key-indexed array (and
/// the matching `holders`), returning (distinct keys, serialized
/// bytes). Chunks are taken highest machine first — a stable sort, so
/// one machine's chunks keep their issue order — and every write
/// overwrites its slot: the last write of the lowest machine lands last
/// and wins. A write counts as a new key exactly when its slot's
/// occupancy bit was clear.
fn resolve_stripe<V: Measured + PartialEq>(
    strict: bool,
    mut chunks: Vec<Chunk<V>>,
    blocks: &mut [DenseBlock<'_, V>],
    holders: &mut [&mut [Holder]],
) -> (usize, usize) {
    chunks.sort_by_key(|&(machine, _)| Reverse(machine));
    let mut tally = (0, 0);
    for (machine, run) in chunks {
        for (key, value) in run {
            let (block, at) = (
                (key >> SPAN_BITS) as usize,
                key as usize & ((1 << BLOCK_BITS) - 1),
            );
            let slots = &mut blocks[block];
            hold(
                strict,
                key,
                slots.get(at),
                &mut holders[block][at],
                (machine, &value),
            );
            let bytes = value.size_bytes();
            match slots.put(at, value) {
                None => {
                    tally.0 += 1;
                    tally.1 += 8 + bytes;
                }
                Some(held) => tally.1 = tally.1 - held.size_bytes() + bytes,
            }
        }
    }
    tally
}

/// A write-only, lock-striped generation under construction.
///
/// A stripe owns blocks of 4 096 consecutive keys (block `b` belongs
/// to stripe `b % 64`) and holds **chunks**: one machine's writes to
/// that stripe, in issue order; writes never hash into a map. A batch
/// ([`Self::put_many_from`]) takes each stripe's lock once and adds one
/// chunk per stripe it touches; a single write ([`Self::put_from`])
/// extends the stripe's last chunk when that chunk is its machine's.
/// Duplicate keys are resolved **deterministically at seal time**:
/// every write carries the id of the machine that issued it (threaded
/// through [`crate::MachineHandle::put`]) and the entry from the
/// *lowest* machine id wins, regardless of thread schedule. One
/// machine's writes are sequential, so its chunks in a stripe keep its
/// issue order and among them the last write wins. This is the §3
/// determinism contract: a sealed generation is a pure function of
/// *what* was written, never of *when* the OS scheduled the writers —
/// "last write of the lowest machine" names the same winner under every
/// interleaving of chunks. That is also what makes fault replay exact.
pub struct GenerationWriter<V> {
    /// Chunk lists, lock-striped by [`stripe_of`] the key.
    stripes: Vec<Mutex<Vec<Chunk<V>>>>,
    /// When true (the default), cross-machine writes of *different*
    /// values to the same key trip a `debug_assert` at seal time —
    /// workspace algorithms only ever race equal values (e.g.
    /// idempotent status markers), so a conflicting duplicate is a
    /// kernel bug.
    strict: bool,
    /// The store and thread count [`Self::seal`] seals with, recorded by
    /// the job that writes into this writer; `None` seals with the
    /// `AMPC_STORE` and `AMPC_THREADS` defaults.
    seal_as: Mutex<Option<(StoreKind, usize)>>,
}

impl<V: Measured + Clone + Default + PartialEq + Send + Wire> GenerationWriter<V> {
    /// New, empty writer.
    pub fn new() -> Self {
        GenerationWriter {
            stripes: (0..STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
            strict: true,
            seal_as: Mutex::new(None),
        }
    }

    /// Disables the conflicting-write `debug_assert`, keeping the
    /// deterministic lowest-machine-id resolution. For tests and
    /// experiments that intentionally race different values.
    pub fn relaxed(mut self) -> Self {
        self.strict = false;
        self
    }

    /// Makes [`Self::seal`] seal on `store` with `threads` workers. A
    /// job records its config's `store` and `threads` here on every
    /// writer it writes into, so its generations seal the way its
    /// config says whoever calls `seal`.
    pub fn set_seal(&self, store: StoreKind, threads: usize) {
        *self.seal_as.lock() = Some((store, threads));
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
    /// time; the write itself is one lock and one push onto the
    /// stripe's last chunk (a new chunk when that one is another
    /// machine's). Returns the serialized size of the pair for the
    /// caller's accounting.
    ///
    /// # Panics
    /// In debug builds (unless [`Self::relaxed`]), sealing panics when
    /// two *different* machines wrote *different* values for one key.
    pub fn put_from(&self, machine: u32, key: u64, value: V) -> usize {
        let bytes = 8 + value.size_bytes();
        let mut chunks = self.stripes[stripe_of(key)].lock();
        match chunks.last_mut() {
            Some((owner, run)) if *owner == machine => run.push((key, value)),
            _ => chunks.push((machine, vec![(key, value)])),
        }
        bytes
    }

    /// Inserts a batch of pairs written by `machine`. Per-pair
    /// semantics are exactly [`Self::put_from`]: same deterministic
    /// lowest-machine-id resolution (at seal), same conflict
    /// `debug_assert`, and the returned byte total is the sum of the
    /// per-pair sizes. Returns `(pairs_written, total_bytes)`.
    ///
    /// The batch is counted per stripe and its pairs moved, in order,
    /// into one bin of exactly that size per stripe (a batch that falls
    /// in one stripe is its own bin); each bin becomes one chunk, so a
    /// stripe's lock is taken once per batch, not once per pair.
    pub fn put_many_from(
        &self,
        machine: u32,
        pairs: impl IntoIterator<Item = (u64, V)>,
    ) -> (u64, usize) {
        let pairs: Vec<(u64, V)> = pairs.into_iter().collect();
        let mut counts = [0usize; STRIPES];
        let mut total_bytes = 0usize;
        for (k, v) in &pairs {
            counts[stripe_of(*k)] += 1;
            total_bytes += 8 + v.size_bytes();
        }
        let written = pairs.len() as u64;
        match pairs.first() {
            None => {}
            Some(&(k, _)) if counts[stripe_of(k)] == pairs.len() => {
                self.stripes[stripe_of(k)].lock().push((machine, pairs));
            }
            Some(_) => {
                let mut bins: Vec<Vec<(u64, V)>> =
                    counts.iter().map(|&c| Vec::with_capacity(c)).collect();
                for (k, v) in pairs {
                    bins[stripe_of(k)].push((k, v));
                }
                for (stripe, bin) in self.stripes.iter().zip(bins) {
                    if !bin.is_empty() {
                        stripe.lock().push((machine, bin));
                    }
                }
            }
        }
        (written, total_bytes)
    }

    /// Seals the writer into an immutable generation with the store and
    /// threads of the job that wrote into it ([`Self::set_seal`]), or
    /// with the `AMPC_STORE` and `AMPC_THREADS` defaults if no job did.
    /// See [`Self::seal_on`].
    pub fn seal(mut self) -> Generation<V> {
        let seal_as = *self.seal_as.get_mut();
        let (store, threads) =
            seal_as.unwrap_or_else(|| (StoreKind::from_env(), ampc_knobs::ampc_threads()));
        self.seal_on(store, threads)
    }

    /// Seals the writer on `store`, resolving the writer's stripes with
    /// up to `threads` workers once the generation is large (`1` seals
    /// entirely on the calling thread; see the module docs for the
    /// layout selection rule). The sealed layout is byte-identical for
    /// every `threads` value: the dense seal distributes whole stripes
    /// over workers, and the physical layout is canonical. On
    /// [`StoreKind::Socket`] the flat seal runs first — the same layout,
    /// byte for byte — and the values are then offloaded to the shard
    /// servers.
    pub fn seal_on(self, store: StoreKind, threads: usize) -> Generation<V> {
        let flat = self.seal_flat(threads);
        match store {
            StoreKind::Flat => flat,
            StoreKind::Socket => flat.offload_to_socket(),
        }
    }

    /// Flat seal over the stripes' chunks. Resolution and layout
    /// selection in one sweep:
    ///
    /// 1. A scan over the chunks finds the total logged entry count and
    ///    the maximum key. The *distinct* key count is not yet known
    ///    (chunks may hold duplicates), so the scan only rules layouts
    ///    *out*: if even the logged count cannot justify a dense array,
    ///    no subset of it can.
    /// 2. Dense-eligible writes resolve straight into a key-indexed
    ///    array ([`Self::seal_dense`]); the true distinct count falls
    ///    out, and the layout keeps the array or — for duplicate-heavy
    ///    writes that turn out sparse — compacts it into the open table.
    /// 3. Sparse writes resolve per stripe by a stable key sort
    ///    ([`Self::seal_open_sorted`]), then build the open table in
    ///    ascending key order.
    fn seal_flat(self, threads: usize) -> Generation<V> {
        let strict = self.strict;
        let stripes: Vec<Vec<Chunk<V>>> = self.stripes.into_iter().map(Mutex::into_inner).collect();
        let mut logged = 0usize;
        let mut max_key = 0u64;
        for (_, run) in stripes.iter().flatten() {
            logged += run.len();
            max_key = run.iter().fold(max_key, |m, &(k, _)| m.max(k));
        }
        if logged == 0 {
            Generation::empty()
        } else if dense_eligible(logged, max_key) {
            Self::seal_dense(strict, stripes, max_key as usize + 1, logged, threads)
        } else {
            Self::seal_open_sorted(strict, stripes, logged)
        }
    }

    /// Dense-path seal: every stripe resolves into its own blocks of
    /// `resolved`, indexed by key over `0..domain` ([`resolve_stripe`]),
    /// writing each value into its slot and setting its occupancy bit;
    /// the layout then adopts the slots and the bitmap as they are.
    /// Stripes own disjoint blocks of keys and of bitmap words, so the
    /// stripes are the parts of one [`par_map`], each writing only its
    /// own blocks — which is also where an integer array's zeroed pages
    /// first fault in.
    fn seal_dense(
        strict: bool,
        stripes: Vec<Vec<Chunk<V>>>,
        domain: usize,
        logged: usize,
        threads: usize,
    ) -> Generation<V> {
        let mut resolved: KeyIndexed<V> = KeyIndexed::new(domain);
        let mut holders: Vec<Holder> = vec![Holder::default(); domain];
        let work: Vec<_> = stripes
            .into_iter()
            .zip(deal(resolved.blocks(1 << BLOCK_BITS)))
            .zip(deal(holders.chunks_mut(1 << BLOCK_BITS)))
            .collect();
        let threads = if logged >= PARALLEL_SEAL_MIN {
            threads
        } else {
            1
        };
        let (len, size_bytes) = par_map(work, threads, |((chunks, mut blocks), mut held)| {
            resolve_stripe(strict, chunks, &mut blocks, &mut held)
        })
        .into_iter()
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        drop(holders);
        Generation {
            repr: Repr::Memory(Layout::from_key_indexed(resolved, len)),
            len,
            size_bytes,
        }
    }

    /// Sparse-path seal: each stripe's entries, tagged with their
    /// machine, are sorted stably by key, so one machine's writes to a
    /// key keep their issue order; [`replaces`] then keeps, key by key,
    /// the last write of the lowest machine whatever order the
    /// machines' chunks came in. The resolved pairs build the canonical
    /// open table.
    fn seal_open_sorted(strict: bool, stripes: Vec<Vec<Chunk<V>>>, logged: usize) -> Generation<V> {
        let mut pairs: Vec<(u64, V)> = Vec::with_capacity(logged);
        let mut log: Vec<(u64, u32, V)> = Vec::new();
        let mut holder = 0u32;
        for chunks in stripes {
            log.extend(
                chunks
                    .into_iter()
                    .flat_map(|(machine, run)| run.into_iter().map(move |(k, v)| (k, machine, v))),
            );
            log.sort_by_key(|&(k, _, _)| k);
            // A key lives in one stripe, so only this stripe's previous
            // pair can share its key.
            for (k, mach, v) in log.drain(..) {
                match pairs.last_mut() {
                    Some((held_key, held)) if *held_key == k => {
                        if replaces(strict, k, (holder, held), (mach, &v)) {
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

impl<V: Measured + Clone + Default + PartialEq + Send + Wire> Default for GenerationWriter<V> {
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
            repr: Repr::Memory(Layout::empty()),
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
    /// figure, so simulated accounting never depends on the store.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }
}

impl<V: Measured + Clone + Wire> Generation<V> {
    /// Looks a key up. Returns a reference into the sealed store.
    ///
    /// Dense layout: one bounds check, no hash. Open layout: one
    /// [`mix64`](crate::hasher::mix64) and a linear probe. Socket backend: index lookup
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
    fn repr_kind(&self) -> ReprKind {
        match &self.repr {
            Repr::Memory(layout) => layout.kind(),
            Repr::Socket(offloaded) => offloaded.index().kind(),
        }
    }

    /// Where this generation's values physically live: in this
    /// process's memory ([`StoreKind::Flat`]), or in shard-server
    /// processes (DESIGN.md §12). An empty generation sealed on the
    /// socket stays in memory: it has nothing to serve.
    pub fn backend(&self) -> StoreKind {
        match &self.repr {
            Repr::Memory(_) => StoreKind::Flat,
            Repr::Socket(_) => StoreKind::Socket,
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
impl<V: Measured + Clone + Default + PartialEq + Send + Wire> FromIterator<(u64, V)>
    for Generation<V>
{
    fn from_iter<I: IntoIterator<Item = (u64, V)>>(items: I) -> Self {
        let w = GenerationWriter::new();
        w.put_many_from(0, items);
        w.seal()
    }
}

/// The live end of the generation sequence `D0, D1, D2, …`: the one
/// sealed generation the next round reads, plus the size of the largest
/// generation ever pushed. [`Dht::push`] drops the predecessor at once
/// (on [`StoreKind::Socket`] that sends its `DROP_GEN`); a round's
/// borrow of [`Dht::current`] cannot outlive a `push`, so no round or
/// replay reads a dropped generation (see the module docs).
pub struct Dht<V> {
    current: Generation<V>,
    peak_bytes: usize,
}

impl<V: Measured + Clone> Dht<V> {
    /// A DHT with an empty `D0`.
    pub fn new() -> Self {
        Dht {
            current: Generation::empty(),
            peak_bytes: 0,
        }
    }

    /// The newest sealed generation (what the next round reads).
    pub fn current(&self) -> &Generation<V> {
        &self.current
    }

    /// Seals `next` as the newest generation (the round boundary) and
    /// drops the one it replaces.
    pub fn push(&mut self, next: Generation<V>) {
        self.peak_bytes = self.peak_bytes.max(next.size_bytes());
        self.current = next;
    }

    /// Size in bytes of the largest generation pushed so far, dropped
    /// ones included (each size is cached at seal, so this is O(1)).
    pub fn peak_generation_bytes(&self) -> usize {
        self.peak_bytes
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
    use crate::hasher::mix64;
    use std::collections::BTreeMap;
    use std::sync::Arc;

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

    /// A value sharing its generation's token: the token's strong count
    /// is one plus the number of that generation's values still alive.
    #[derive(Clone, Default, PartialEq, Debug)]
    struct Token(Arc<usize>);

    impl Measured for Token {
        fn size_bytes(&self) -> usize {
            4
        }
    }

    impl Wire for Token {
        fn wire_encode(&self, out: &mut Vec<u8>) {
            (*self.0 as u32).wire_encode(out);
        }
        fn wire_decode(_: &mut &[u8]) -> Option<Self> {
            None
        }
    }

    #[test]
    fn dht_holds_only_the_newest_generation_and_keeps_the_peak() {
        let sizes = [3u64, 40, 7, 25, 1];
        let tokens: Vec<Arc<usize>> = (0..sizes.len()).map(Arc::new).collect();
        let mut dht: Dht<Token> = Dht::new();
        assert_eq!(dht.peak_generation_bytes(), 0);
        for (i, &n) in sizes.iter().enumerate() {
            let w = GenerationWriter::new();
            w.put_many_from(0, (0..n).map(|k| (k, Token(tokens[i].clone()))));
            dht.push(w.seal_on(StoreKind::Flat, 1));
            assert_eq!(dht.current().len(), n as usize);
            assert_eq!(dht.current().get(0), Some(&Token(tokens[i].clone())));
            assert_eq!(Arc::strong_count(&tokens[i]), 1 + n as usize);
            // The push dropped every value of the generation it replaced.
            if i > 0 {
                assert_eq!(Arc::strong_count(&tokens[i - 1]), 1);
            }
        }
        // 8 key bytes and 4 value bytes a pair; the 40-pair generation
        // was dropped three pushes ago and still sets the peak.
        assert_eq!(dht.current().size_bytes(), 12);
        assert_eq!(dht.peak_generation_bytes(), 40 * 12);
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

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "conflicting cross-machine writes")]
    fn strict_mode_rejects_conflicts_from_two_batches() {
        let w: GenerationWriter<u64> = GenerationWriter::new();
        // Two batches, each one chunk of the same stripe.
        w.put_many_from(1, [(7, 2), (8, 8)]);
        w.put_many_from(0, [(9, 9), (7, 1)]);
        assert_eq!(stripe_of(7), stripe_of(9));
        let _ = w.seal_on(StoreKind::Flat, 1);
    }

    /// The pooled seal keeps the check: above the parallel-seal
    /// threshold, at 2 seal threads, machine 1's write of `0` — the
    /// value an empty dense slot holds — is still seen as held when
    /// machine 0 writes another value for the key.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "conflicting cross-machine writes")]
    fn strict_mode_rejects_conflicts_in_the_pooled_seal() {
        let n = 2 * PARALLEL_SEAL_MIN as u64;
        let w: GenerationWriter<u64> = GenerationWriter::new();
        w.put_many_from(0, (1..n).map(|k| (k, k)));
        w.put_from(1, n - 7, 0);
        let _ = w.seal_on(StoreKind::Flat, 2);
    }

    /// One scripted write: the machine, then one `put_from` (`single`)
    /// or one `put_many_from` batch of these pairs.
    struct Write {
        machine: u32,
        single: bool,
        pairs: Vec<(u64, Vec<u32>)>,
    }

    /// A random script of `writes` writes over `keys` from machines
    /// `0..6`, drawn with replacement so that keys repeat within a
    /// batch, across one machine's batches and across machines. Strict
    /// scripts write one value per key; relaxed ones a random value
    /// (of random size) per write.
    fn script(seed: u64, keys: &[u64], writes: usize, relaxed: bool) -> Vec<Write> {
        let mut state = seed;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(state) % bound
        };
        (0..writes)
            .map(|_| {
                let machine = next(6) as u32;
                let single = next(3) == 0;
                let len = if single { 1 } else { next(200) };
                let pairs = (0..len)
                    .map(|_| {
                        let k = keys[next(keys.len() as u64) as usize];
                        let v = if relaxed {
                            (0..next(4)).map(|_| next(1000) as u32).collect()
                        } else {
                            vec![k as u32; (k % 4) as usize]
                        };
                        (k, v)
                    })
                    .collect();
                Write {
                    machine,
                    single,
                    pairs,
                }
            })
            .collect()
    }

    /// Replays `script` into a writer, seals it with 1, 2 and 8
    /// threads, and checks each seal against a `BTreeMap` oracle of
    /// "lowest machine id, last write": contents, `len`, `size_bytes`
    /// and the canonical layout fingerprint of the oracle's pairs.
    fn assert_resolves_like_oracle(script: &[Write], relaxed: bool) {
        let mut oracle: BTreeMap<u64, (u32, Vec<u32>)> = BTreeMap::new();
        for w in script {
            for (k, v) in &w.pairs {
                let held = oracle.entry(*k).or_insert((w.machine, v.clone()));
                if w.machine <= held.0 {
                    *held = (w.machine, v.clone());
                }
            }
        }
        let pairs: Vec<(u64, Vec<u32>)> = oracle.into_iter().map(|(k, (_, v))| (k, v)).collect();
        let size: usize = pairs.iter().map(|(_, v)| 8 + v.size_bytes()).sum();
        let canonical = Layout::build(pairs.clone());
        let canonical = (canonical.kind(), canonical.fingerprint());
        for threads in [1, 2, 8] {
            let writer = GenerationWriter::new();
            let writer = if relaxed { writer.relaxed() } else { writer };
            for w in script {
                if w.single {
                    for (k, v) in &w.pairs {
                        writer.put_from(w.machine, *k, v.clone());
                    }
                } else {
                    writer.put_many_from(w.machine, w.pairs.iter().cloned());
                }
            }
            let g = writer.seal_on(StoreKind::Flat, threads);
            let mut seen: Vec<(u64, Vec<u32>)> = g.iter().map(|(k, v)| (k, v.clone())).collect();
            seen.sort_unstable();
            assert_eq!(seen, pairs, "threads {threads}");
            assert_eq!(g.len(), pairs.len(), "threads {threads}");
            assert_eq!(g.size_bytes(), size, "threads {threads}");
            assert_eq!(g.layout_fingerprint(), canonical, "threads {threads}");
        }
    }

    /// The key sets the oracle suite writes: `shape` 0 is dense
    /// (`0..n`), 1 gappy (about two keys in five of `0..n`, so dense or
    /// — once duplicates are resolved — open), 2 sparse (spread over the
    /// whole `u64` range).
    fn key_set(shape: u8, n: u64, seed: u64) -> Vec<u64> {
        match shape {
            0 => (0..n).collect(),
            1 => (0..n).filter(|&k| mix64(k ^ seed) % 5 < 2).collect(),
            _ => (0..n).map(|k| mix64(k ^ seed)).collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn writes_resolve_like_the_oracle(
            seed in 0u64..1_000_000,
            shape in 0u8..3,
            n in 1u64..10_000,
            writes in 1usize..80,
            relaxed in 0u8..2,
        ) {
            let keys = key_set(shape, n, seed);
            if !keys.is_empty() {
                let relaxed = relaxed == 1;
                assert_resolves_like_oracle(&script(seed, &keys, writes, relaxed), relaxed);
            }
        }
    }

    /// Above the parallel-seal threshold, over a key domain past one
    /// round of blocks (so a stripe resolves into several blocks): a
    /// dense seal, a dense resolution compacted into the open table
    /// (gappy keys, duplicate-heavy), and a sparse seal.
    #[test]
    fn large_writes_resolve_like_the_oracle() {
        let n = (1u64 << SPAN_BITS) + 5_000;
        for (shape, kind) in [
            (0, ReprKind::Dense),
            (1, ReprKind::Open),
            (2, ReprKind::Open),
        ] {
            let keys = key_set(shape, n, 17);
            let script = script(u64::from(shape), &keys, 4_000, true);
            let logged: Vec<u64> = script
                .iter()
                .flat_map(|w| &w.pairs)
                .map(|&(k, _)| k)
                .collect();
            let max_key = logged.iter().copied().max().unwrap_or(0);
            assert!(logged.len() >= PARALLEL_SEAL_MIN);
            assert_eq!(
                dense_eligible(logged.len(), max_key),
                shape < 2,
                "shape {shape}"
            );
            let distinct: std::collections::BTreeSet<u64> = logged.into_iter().collect();
            assert_eq!(
                Layout::build(distinct.into_iter().map(|k| (k, ())).collect()).kind(),
                kind
            );
            assert_resolves_like_oracle(&script, true);
        }
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
        // Sparse keys that all land in one writer stripe (multiples of
        // 2^18 are the first key of a block of stripe 0), so one stripe
        // holds everything.
        let colliding: Vec<u64> = (1..=500u64).map(|k| k << SPAN_BITS).collect();
        assert!(colliding
            .iter()
            .all(|&k| stripe_of(k) == stripe_of(colliding[0])));
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
            for backend in [StoreKind::Flat, StoreKind::Socket] {
                let w = GenerationWriter::new();
                for &k in &keys {
                    w.put(k, mix64(k));
                }
                let g = w.seal_on(backend, 1);
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

    /// Writes every key of `0..n` but every third (`k % 3 == 1`), key
    /// `k % 3 == 0` with `V::default()` — the value an empty dense slot
    /// holds — and the rest with `value(k)`, from three machines. Above
    /// the parallel-seal threshold, at 1 and 2 seal threads, in memory
    /// and offloaded, every read, the counts and the slot layout agree
    /// with a `BTreeMap` oracle: only the occupancy bitmap tells a
    /// written default from a hole.
    fn assert_default_holes_stay_absent<V>(value: impl Fn(u64) -> V)
    where
        V: Measured + Clone + Default + PartialEq + Send + Wire + std::fmt::Debug,
    {
        let n = 2 * PARALLEL_SEAL_MIN as u64 + 1;
        let oracle: BTreeMap<u64, V> = (0..n)
            .filter(|k| k % 3 != 1)
            .map(|k| (k, if k % 3 == 0 { V::default() } else { value(k) }))
            .collect();
        let domain = oracle.keys().last().map_or(0, |&k| k + 1);
        let pairs: Vec<(u64, V)> = oracle.iter().map(|(&k, v)| (k, v.clone())).collect();
        let size: usize = pairs.iter().map(|(_, v)| 8 + v.size_bytes()).sum();
        let slots: Vec<Option<&V>> = (0..domain).map(|k| oracle.get(&k)).collect();
        let fingerprint = (
            ReprKind::Dense,
            (0..domain)
                .map(|k| if oracle.contains_key(&k) { k } else { u64::MAX })
                .collect::<Vec<u64>>(),
        );
        let probes: Vec<u64> = (0..domain + 70).chain([u64::MAX]).collect();
        let expected: Vec<Option<&V>> = probes.iter().map(|k| oracle.get(k)).collect();
        for store in [StoreKind::Flat, StoreKind::Socket] {
            for threads in [1, 2] {
                let what = format!("{store:?}, {threads} seal threads");
                let w = GenerationWriter::new();
                for (i, batch) in pairs.chunks(5_000).enumerate() {
                    w.put_many_from(i as u32 % 3, batch.iter().cloned());
                }
                let g = w.seal_on(store, threads);
                assert_eq!(g.backend(), store, "{what}");
                assert_eq!(g.len(), oracle.len(), "{what}");
                assert_eq!(g.size_bytes(), size, "{what}");
                assert_eq!(g.layout_fingerprint(), fingerprint, "{what}");
                if let Repr::Memory(layout) = &g.repr {
                    assert!(layout.slot_values().eq(slots.iter().copied()), "{what}");
                }
                let mut batched = Vec::new();
                g.get_many_with(&probes, |_, v| batched.push(v));
                assert_eq!(batched, expected, "{what}");
                let single: Vec<Option<&V>> = probes.iter().map(|&k| g.get(k)).collect();
                assert_eq!(single, expected, "{what}");
                let seen: Vec<(u64, &V)> = g.iter().collect();
                assert_eq!(
                    seen,
                    pairs.iter().map(|(k, v)| (*k, v)).collect::<Vec<_>>(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn default_valued_holes_stay_absent() {
        assert_default_holes_stay_absent::<u64>(|k| k);
        assert_default_holes_stay_absent::<Vec<u32>>(|k| vec![k as u32; 1 + (k % 3) as usize]);
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
            w.seal_on(StoreKind::Flat, seal_threads)
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
        let seq = build().seal_on(StoreKind::Flat, 1);
        let par = build().seal_on(StoreKind::Flat, 8);
        assert_eq!(seq.layout_fingerprint(), par.layout_fingerprint());
        assert_eq!(seq.len(), par.len());
        assert_eq!(seq.size_bytes(), par.size_bytes());
    }
}
