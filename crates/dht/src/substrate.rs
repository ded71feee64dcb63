//! The sealed layout: how a generation's data physically lives
//! (DESIGN.md §5.4, §12).
//!
//! `Layout<T>` is the one flat layout a seal produces, in one of two
//! shapes chosen from the key set alone by `dense_eligible`:
//!
//! * **Dense** — a direct-index array `slots[k]` with an occupancy
//!   bitmap; `get` is one bounds check and one slot read, zero hashes.
//! * **Open** — one open-addressed table with linear probing at ≤ 50%
//!   load; `get` hashes once ([`mix64`]) and probes flat memory.
//!
//! Both are **canonical**: the slot assignment is a pure function of
//! the resolved key set (dense puts key `k` in slot `k`; open inserts in
//! ascending key order), which is what the layout-fingerprint suites
//! compare. The layout owns the selection rule, the canonical build,
//! slot lookup, prefetch, the batched read, the fingerprint and
//! iteration; nothing outside this module touches a slot vector, a
//! bitmap or a mask.
//!
//! In memory, a sealed generation *is* a `Layout<V>`. Under
//! `AMPC_STORE=socket` ([`crate::socket`]) the layout is split once at
//! seal: the values go to shard-server processes and an `Offloaded`
//! generation keeps the same slot structure as a `Layout<()>` key
//! index — so its kind and fingerprint equal the in-memory layout's by
//! construction — plus one memo cell per slot, so a generation read
//! twice crosses the wire once.

use crate::hasher::mix64;
use crate::socket::{self, SocketCluster};
use crate::wire::Wire;
use std::sync::{Arc, OnceLock};

/// How far ahead the batched lookup loop prefetches. Large enough to
/// cover a main-memory miss at a few cycles per element, small enough
/// not to thrash L1.
const PREFETCH_AHEAD: usize = 16;

/// A dense direct-index layout is chosen when the largest key indexes
/// an array at most `DENSE_MAX_WASTE` times larger than the entry count
/// (≥ 50% occupancy).
const DENSE_MAX_WASTE: usize = 2;

/// The layout selection rule: whether `len` distinct keys whose largest
/// is `max_key` seal into the dense layout — the array they index must
/// be at most [`DENSE_MAX_WASTE`] times larger than `len`. The writer
/// also asks it with the *logged* entry count, an upper bound on `len`,
/// to rule dense out before resolving duplicates.
pub(crate) fn dense_eligible(len: usize, max_key: u64) -> bool {
    (max_key as usize) < u32::MAX as usize
        && (max_key as usize) < len.saturating_mul(DENSE_MAX_WASTE)
}

/// The physical layout a sealed generation chose (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReprKind {
    /// Direct-index array over a dense key domain; zero hashes per read.
    Dense,
    /// Single open-addressed table; one hash per read.
    Open,
}

/// Where a generation's *values* physically live. Orthogonal to
/// [`ReprKind`]: a socket-backed generation still reports the dense or
/// open layout of its key index (that is what makes the fingerprint
/// suites run unchanged), so tests that must prove the wire is actually
/// engaged check the backend instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreBackend {
    /// Values held in this process's memory.
    InMemory,
    /// Values held by shard-server processes behind Unix-domain sockets.
    Socket,
}

/// Iterator over the set bits of one bitmap word.
struct BitIter {
    bits: u64,
    base: u64,
}

impl Iterator for BitIter {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.bits == 0 {
            return None;
        }
        let tz = self.bits.trailing_zeros() as u64;
        self.bits &= self.bits - 1;
        Some(self.base + tz)
    }
}

/// The flat sealed layout (see module docs).
pub(crate) enum Layout<T> {
    /// `slots[k]` holds key `k`'s value; `occupied` is the bitmap over
    /// slot indices (word `i`, bit `j` ⇒ slot `64 i + j`), letting
    /// iteration skip empty runs 64 slots at a time.
    Dense {
        slots: Vec<Option<T>>,
        occupied: Vec<u64>,
    },
    /// Power-of-two capacity; a key probes from `mix64(key) & mask`.
    Open {
        slots: Vec<Option<(u64, T)>>,
        mask: u64,
    },
}

impl<T> Layout<T> {
    /// The canonical build from resolved `(key, value)` pairs in
    /// strictly ascending key order (duplicates already resolved by the
    /// writer). No pairs build the empty dense layout.
    pub(crate) fn build(pairs: Vec<(u64, T)>) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "seal input must be strictly ascending by key"
        );
        match pairs.last() {
            Some(&(max_key, _)) if !dense_eligible(pairs.len(), max_key) => Self::open(pairs),
            last => {
                let n_slots = last.map_or(0, |&(k, _)| k as usize + 1);
                let mut slots: Vec<Option<T>> = (0..n_slots).map(|_| None).collect();
                for (k, v) in pairs {
                    slots[k as usize] = Some(v);
                }
                Self::dense(slots)
            }
        }
    }

    /// The build from a key-indexed resolution (`slots[k]` holds key
    /// `k`'s resolved value, `len` slots are occupied, the last slot
    /// is): kept as the dense array when the rule allows, else — a
    /// duplicate-heavy log whose distinct keys turned out sparse —
    /// compacted into the open table, walking keys in ascending order.
    pub(crate) fn from_key_indexed(slots: Vec<Option<T>>, len: usize) -> Self {
        match slots.len().checked_sub(1) {
            Some(max_key) if !dense_eligible(len, max_key as u64) => Self::open(
                slots
                    .into_iter()
                    .enumerate()
                    .filter_map(|(k, s)| s.map(|v| (k as u64, v)))
                    .collect(),
            ),
            _ => Self::dense(slots),
        }
    }

    /// Wraps key-indexed slots with their occupancy bitmap.
    fn dense(slots: Vec<Option<T>>) -> Self {
        let occupied = slots
            .chunks(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |bits, (j, s)| bits | u64::from(s.is_some()) << j)
            })
            .collect();
        Layout::Dense { slots, occupied }
    }

    /// Inserts ascending pairs into a table of capacity ≥ 2 × len.
    fn open(pairs: Vec<(u64, T)>) -> Self {
        let cap = pairs.len().saturating_mul(2).next_power_of_two().max(16);
        let mask = cap as u64 - 1;
        let mut slots: Vec<Option<(u64, T)>> = (0..cap).map(|_| None).collect();
        for (k, v) in pairs {
            let mut i = (mix64(k) & mask) as usize;
            while slots[i].is_some() {
                i = (i + 1) & mask as usize;
            }
            slots[i] = Some((k, v));
        }
        Layout::Open { slots, mask }
    }

    /// Which shape this layout took.
    pub(crate) fn kind(&self) -> ReprKind {
        match self {
            Layout::Dense { .. } => ReprKind::Dense,
            Layout::Open { .. } => ReprKind::Open,
        }
    }

    /// Number of slots, occupied or not.
    fn n_slots(&self) -> usize {
        match self {
            Layout::Dense { slots, .. } => slots.len(),
            Layout::Open { slots, .. } => slots.len(),
        }
    }

    /// The slot holding `key`, and its value.
    #[inline]
    fn lookup(&self, key: u64) -> Option<(usize, &T)> {
        match self {
            Layout::Dense { slots, .. } => {
                let s = key as usize;
                slots.get(s)?.as_ref().map(|v| (s, v))
            }
            Layout::Open { slots, mask } => {
                let mut i = (mix64(key) & mask) as usize;
                loop {
                    match &slots[i] {
                        None => return None,
                        Some((k, v)) if *k == key => return Some((i, v)),
                        Some(_) => i = (i + 1) & *mask as usize,
                    }
                }
            }
        }
    }

    /// The slot holding `key`.
    #[inline]
    pub(crate) fn slot_of(&self, key: u64) -> Option<usize> {
        self.lookup(key).map(|(s, _)| s)
    }

    /// Looks one key up.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<&T> {
        self.lookup(key).map(|(_, v)| v)
    }

    /// Advisory cache prefetch of the slot `key` reads first.
    #[inline]
    fn prefetch(&self, key: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let addr: *const i8 = match self {
                Layout::Dense { slots, .. } if (key as usize) < slots.len() => {
                    slots.as_ptr().wrapping_add(key as usize).cast()
                }
                Layout::Dense { .. } => return,
                Layout::Open { slots, mask } => slots
                    .as_ptr()
                    .wrapping_add((mix64(key) & mask) as usize)
                    .cast(),
            };
            #[allow(
                unsafe_code,
                reason = "a prefetch is a cache hint with no semantic effect"
            )]
            // SAFETY: the address is in bounds (dense: checked above;
            // open: `mask` is `capacity - 1`), and prefetch dereferences
            // nothing — it is a pure cache hint with no semantic effect.
            unsafe {
                _mm_prefetch(addr, _MM_HINT_T0)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = key;
    }

    /// The batched read: `f` is called once per key, in key order, with
    /// the index and the result, while the slot `PREFETCH_AHEAD` keys
    /// ahead is prefetched.
    pub(crate) fn get_many_with<'a>(
        &'a self,
        keys: &[u64],
        mut f: impl FnMut(usize, Option<&'a T>),
    ) {
        for (i, &k) in keys.iter().enumerate() {
            if let Some(&ahead) = keys.get(i + PREFETCH_AHEAD) {
                self.prefetch(ahead);
            }
            f(i, self.get(k));
        }
    }

    /// The key at every slot index in slot order (`u64::MAX` = empty
    /// slot). See [`crate::Generation::layout_fingerprint`].
    pub(crate) fn fingerprint(&self) -> Vec<u64> {
        match self {
            Layout::Dense { slots, .. } => slots
                .iter()
                .enumerate()
                .map(|(k, s)| if s.is_some() { k as u64 } else { u64::MAX })
                .collect(),
            Layout::Open { slots, .. } => slots
                .iter()
                .map(|s| s.as_ref().map_or(u64::MAX, |(k, _)| *k))
                .collect(),
        }
    }

    /// Every `(slot, key, value)`: dense in ascending key order (driven
    /// by the bitmap), open in slot order.
    fn iter_slots(&self) -> impl Iterator<Item = (usize, u64, &T)> + '_ {
        let (dense, open) = match self {
            Layout::Dense { slots, occupied } => {
                let keys = occupied.iter().enumerate().flat_map(|(w, &bits)| BitIter {
                    bits,
                    base: w as u64 * 64,
                });
                let pairs = keys.map(|k| {
                    let v = slots[k as usize].as_ref().expect("bitmap/slot agree");
                    (k as usize, k, v)
                });
                (Some(pairs), None)
            }
            Layout::Open { slots, .. } => {
                let pairs = slots
                    .iter()
                    .enumerate()
                    .filter_map(|(s, e)| e.as_ref().map(|(k, v)| (s, *k, v)));
                (None, Some(pairs))
            }
        };
        dense
            .into_iter()
            .flatten()
            .chain(open.into_iter().flatten())
    }

    /// Every slot's value in slot order, `None` for an empty slot.
    fn slot_values(&self) -> impl Iterator<Item = Option<&T>> + '_ {
        let (dense, open) = match self {
            Layout::Dense { slots, .. } => (Some(slots.iter().map(Option::as_ref)), None),
            Layout::Open { slots, .. } => {
                (None, Some(slots.iter().map(|s| s.as_ref().map(|(_, v)| v))))
            }
        };
        dense
            .into_iter()
            .flatten()
            .chain(open.into_iter().flatten())
    }

    /// Every `(key, value)`, in [`Self::iter_slots`] order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.iter_slots().map(|(_, k, v)| (k, v))
    }

    /// Consumes the layout, handing each `(key, value)` to `f` in
    /// [`Self::iter_slots`] order and keeping `f`'s result in the same
    /// slot: the slot structure — kind and fingerprint — is unchanged.
    fn map<U>(self, mut f: impl FnMut(u64, T) -> U) -> Layout<U> {
        match self {
            Layout::Dense { slots, occupied } => Layout::Dense {
                slots: slots
                    .into_iter()
                    .enumerate()
                    .map(|(k, s)| s.map(|v| f(k as u64, v)))
                    .collect(),
                occupied,
            },
            Layout::Open { slots, mask } => Layout::Open {
                slots: slots
                    .into_iter()
                    .map(|s| s.map(|(k, v)| (k, f(k, v))))
                    .collect(),
                mask,
            },
        }
    }
}

/// A sealed generation whose values live in shard-server processes
/// ([`crate::socket`]), selected by `AMPC_STORE=socket`.
///
/// Locally absent keys are answered from the key index with **zero**
/// wire traffic. Present keys are fetched over the wire in per-shard
/// batches and memoized into per-slot cells, so references borrow from
/// the generation with the ordinary lifetime and a re-read is free.
/// Slot `s` lives at position `s / shards` of shard `s % shards`, so a
/// read needs no per-key bookkeeping and any batch spreads over every
/// shard. Dropping it tells the servers to free the generation.
pub(crate) struct Offloaded<V> {
    /// The in-memory layout's slot structure, minus the values.
    index: Layout<()>,
    /// One memoization cell per slot; a racing duplicate fetch decodes
    /// the same bytes, so whichever `set` wins stores an equal value.
    cells: Vec<OnceLock<V>>,
    cluster: Arc<SocketCluster>,
    gen_id: u64,
}

impl<V: Wire> Offloaded<V> {
    /// Splits a sealed layout: its values go to the process-global
    /// shard servers, its slot structure stays here as the key index.
    pub(crate) fn new(layout: Layout<V>) -> Self {
        Self::in_cluster(layout, Arc::clone(socket::cluster()))
    }

    /// [`Self::new`] on the given cluster: every value is encoded
    /// straight into its shard's region, an empty slot as a zero-length
    /// value.
    ///
    /// # Panics
    /// When a shard server restarts between two `LOAD` frames of the
    /// generation, like a read of a lost generation.
    fn in_cluster(layout: Layout<V>, cluster: Arc<SocketCluster>) -> Self {
        let gen_id = socket::next_gen_id();
        let shards = cluster.shard_count();
        let mut regions = vec![(Vec::new(), Vec::new()); shards];
        for (s, value) in layout.slot_values().enumerate() {
            let (bytes, ends) = &mut regions[s % shards];
            value.inspect(|v| v.wire_encode(bytes));
            ends.push(bytes.len());
        }
        if let Err(shard) = cluster.load(gen_id, &regions) {
            panic!("socket substrate: generation {gen_id} lost by shard {shard} while loading");
        }
        let index = layout.map(|_, _| ());
        Offloaded {
            cells: (0..index.n_slots()).map(|_| OnceLock::new()).collect(),
            index,
            cluster,
            gen_id,
        }
    }

    /// The key index: the slot structure of the layout this mirrors.
    pub(crate) fn index(&self) -> &Layout<()> {
        &self.index
    }

    /// Fetches the given `(key, slot)` pairs from their shard servers —
    /// one wire request per shard — decoding each value straight from
    /// the reply into its memo cell.
    ///
    /// # Panics
    /// When a server no longer holds the generation: it lost it (crash +
    /// respawn), and the determinism contract forbids quietly serving an
    /// absence.
    fn fetch_slots(&self, wanted: &[(u64, usize)]) {
        if wanted.is_empty() {
            return;
        }
        let shards = self.cluster.shard_count();
        let mut positions: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for &(_, s) in wanted {
            positions[s % shards].push((s / shards) as u32);
        }
        let fetched = self
            .cluster
            .get(self.gen_id, &positions, |shard, p, mut bytes| {
                let v = V::wire_decode(&mut bytes)
                    .expect("socket substrate: shard returned an undecodable value");
                debug_assert!(bytes.is_empty(), "trailing bytes after decoded value");
                let _ = self.cells[p as usize * shards + shard].set(v);
            });
        if let Err(shard) = fetched {
            let (k, _) = wanted
                .iter()
                .find(|&&(_, s)| s % shards == shard)
                .expect("a key was asked of that shard");
            panic!(
                "socket substrate: generation {} lost key {k} \
                 (shard server restarted?) — cannot serve a \
                 schedule-dependent absence",
                self.gen_id
            );
        }
    }

    /// Looks one key up: index lookup locally, one wire fetch on first
    /// touch of a present key (memoized after).
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        let s = self.index.slot_of(key)?;
        if self.cells[s].get().is_none() {
            self.fetch_slots(&[(key, s)]);
        }
        Some(self.cells[s].get().expect("fetched or memoized above"))
    }

    /// The batched read: one wire request per shard for the batch's
    /// unfetched keys, then every visit is answered from the memo cells.
    pub(crate) fn get_many_with<'a>(
        &'a self,
        keys: &[u64],
        mut f: impl FnMut(usize, Option<&'a V>),
    ) {
        let mut missing: Vec<(u64, usize)> = keys
            .iter()
            .filter_map(|&k| Some((k, self.index.slot_of(k)?)))
            .filter(|&(_, s)| self.cells[s].get().is_none())
            .collect();
        missing.sort_unstable_by_key(|&(_, s)| s);
        missing.dedup_by_key(|&mut (_, s)| s);
        self.fetch_slots(&missing);
        for (i, &k) in keys.iter().enumerate() {
            f(i, self.index.slot_of(k).and_then(|s| self.cells[s].get()));
        }
    }

    /// Every `(key, value)` in the mirrored layout's iteration order,
    /// after fetching the not-yet-memoized values in bounded chunks.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        const CHUNK: usize = 4096;
        let mut missing: Vec<(u64, usize)> = Vec::new();
        for (s, k, _) in self.index.iter_slots() {
            if self.cells[s].get().is_none() {
                missing.push((k, s));
                if missing.len() == CHUNK {
                    self.fetch_slots(&missing);
                    missing.clear();
                }
            }
        }
        self.fetch_slots(&missing);
        self.index
            .iter_slots()
            .map(|(s, k, _)| (k, self.cells[s].get().expect("fetched above")))
    }
}

impl<V> Drop for Offloaded<V> {
    fn drop(&mut self) {
        // Best-effort: free the generation's regions server-side.
        self.cluster.drop_gen(self.gen_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offloaded(n: u64) -> Offloaded<u64> {
        Offloaded::new(Layout::build(
            (0..n).map(|k| (k, k.wrapping_mul(7))).collect(),
        ))
    }

    #[test]
    fn socket_batch_read_is_memoized() {
        let socket = offloaded(100);
        let keys: Vec<u64> = (0..100).collect();
        let memoized = |k: u64| socket.cells[socket.index.slot_of(k).expect("present")].get();
        assert!(
            keys.iter().all(|&k| memoized(k).is_none()),
            "sealing fetched"
        );
        let mut hits = 0;
        socket.get_many_with(&keys, |_, v| hits += usize::from(v.is_some()));
        assert_eq!(hits, 100);
        // Every present slot's cell is set, so a second batch over the
        // same keys has an empty missing list and sends no request.
        for &k in &keys {
            assert_eq!(memoized(k), Some(&k.wrapping_mul(7)), "key {k}");
        }
    }

    #[test]
    fn absent_keys_cost_no_wire_traffic() {
        let socket = offloaded(50);
        let misses: Vec<u64> = (1000..1100u64).collect();
        let mut all_none = true;
        socket.get_many_with(&misses, |_, v| all_none &= v.is_none());
        assert!(all_none);
        for &k in &misses {
            assert_eq!(socket.get(k), None);
        }
        // Nothing was fetched: a miss never reaches a shard server.
        assert!(socket.cells.iter().all(|c| c.get().is_none()));
    }

    /// Reads `pairs` back through an offloaded copy on `cluster` — one
    /// key at a time, batched with a miss beside every key, and iterated
    /// — against the in-memory layout.
    fn reads_like_memory<V>(pairs: Vec<(u64, V)>, cluster: &Arc<SocketCluster>)
    where
        V: Wire + Clone + PartialEq + std::fmt::Debug,
    {
        let memory = Layout::build(pairs.clone());
        let offload = || Offloaded::in_cluster(Layout::build(pairs.clone()), Arc::clone(cluster));
        let socket = offload();
        let what = format!("{} pairs on {} shards", pairs.len(), cluster.shard_count());
        assert_eq!(socket.index.fingerprint(), memory.fingerprint(), "{what}");
        let mut probes: Vec<u64> = pairs.iter().flat_map(|&(k, _)| [k ^ 1, k]).collect();
        probes.extend([0, 1, u64::MAX]);
        let expected: Vec<Option<&V>> = probes.iter().map(|&k| memory.get(k)).collect();
        let mut batched = Vec::new();
        socket.get_many_with(&probes, |_, v| batched.push(v));
        assert_eq!(batched, expected, "{what}");
        let fresh = offload();
        let single: Vec<Option<&V>> = probes.iter().map(|&k| fresh.get(k)).collect();
        assert_eq!(single, expected, "{what}");
        assert!(offload().iter().eq(memory.iter()), "{what}");
    }

    #[test]
    fn offloaded_reads_like_memory_on_any_shard_count() {
        for shards in [1, 2, 5] {
            let cluster = Arc::new(SocketCluster::spawn(shards));
            reads_like_memory::<u64>(Vec::new(), &cluster);
            // One slot: fewer slots than shards from 2 shards on.
            reads_like_memory(vec![(0, 7u64)], &cluster);
            // Variable-size values, every fourth one an empty `Vec`.
            let sized = (0..40u64).map(|k| (k, vec![k as u32; (k % 4) as usize]));
            reads_like_memory(sized.collect(), &cluster);
            // Sparse keys: the open layout.
            let sparse: Vec<(u64, u64)> = (1..60u64).map(|k| (k << 40, k)).collect();
            assert_eq!(Layout::build(sparse.clone()).kind(), ReprKind::Open);
            reads_like_memory(sparse, &cluster);
        }
    }
}
