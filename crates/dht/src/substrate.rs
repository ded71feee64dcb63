//! The substrate layer: where a sealed generation's data physically
//! lives (DESIGN.md §12).
//!
//! The [`Substrate`] trait is the narrow waist every sealed-store
//! implementation satisfies: **seal** (building the substrate from resolved pairs),
//! **batched reads** ([`Substrate::get_batch_with`] — the single entry
//! point every `get_many*` handle variant funnels through),
//! **batched writes** (the seal input *is* the batch; the lock-striped
//! [`crate::GenerationWriter`] stays the one write front-end for every
//! substrate), and the **layout fingerprint** the determinism suites
//! compare. Everything above this trait — handles, accounting, the
//! runtime — is substrate-oblivious, which is what the §3 contract
//! demands: outputs, round counts and every `CommStats` field must be
//! byte-identical whichever substrate serves the reads.
//!
//! Three substrates implement the trait:
//!
//! * [`DenseSubstrate`] / [`OpenSubstrate`] — the flat in-memory
//!   layouts (DESIGN.md §5.4), canonical and schedule-independent.
//! * [`SocketSubstrate`] — values live in **separate shard-server
//!   processes** reached over Unix-domain sockets
//!   (`AMPC_STORE=socket`, [`crate::socket`]). The client keeps only
//!   the *key index* — exactly the flat layout minus the values — so
//!   its [`Substrate::fingerprint_slots`] equals the flat substrate's
//!   by construction, and fetched values are memoized per slot so a
//!   generation read twice crosses the wire once.

use crate::hasher::mix64;
use crate::measured::Measured;
use crate::socket;
use crate::wire::{encode_to_vec, Wire};
use std::sync::OnceLock;

/// How far ahead the batched lookup loops prefetch. Large enough to
/// cover a main-memory miss at a few cycles per element, small enough
/// not to thrash L1.
pub(crate) const PREFETCH_AHEAD: usize = 16;

/// A dense direct-index layout is chosen when the largest key indexes
/// an array at most `DENSE_MAX_WASTE` times larger than the entry count
/// (≥ 50% occupancy).
pub(crate) const DENSE_MAX_WASTE: usize = 2;

/// Whether a resolved key set qualifies for the dense direct-index
/// layout: the largest key must index an array at most
/// [`DENSE_MAX_WASTE`] times larger than the distinct entry count.
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

/// Where a substrate's *values* physically live. Orthogonal to
/// [`ReprKind`]: a socket-backed generation still reports the dense or
/// open layout its key index mirrors (that is what makes the
/// fingerprint suites run unchanged), so tests that must prove the
/// wire is actually engaged check the backend instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreBackend {
    /// Values held in this process's memory.
    InMemory,
    /// Values held by shard-server processes behind Unix-domain sockets.
    Socket,
}

/// Iterator over the set bits of one bitmap word.
pub(crate) struct BitIter {
    pub(crate) bits: u64,
    pub(crate) base: u64,
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

/// The storage narrow waist: what a sealed generation needs from the
/// thing holding its data.
///
/// Contract (pinned by `tests/storage_layout.rs` and the substrate
/// equivalence suites):
///
/// * **Canonical seal** — [`Substrate::seal_pairs`] over the same
///   resolved pairs builds the same physical layout, independent of
///   thread schedule (the optimized seal paths in
///   [`crate::GenerationWriter`] are fast producers of the *same*
///   canonical substrates).
/// * **Read equivalence** — `get`, `get_batch_with` and `iter_pairs`
///   agree across substrates on every key, hit or miss.
/// * **Fingerprint stability** — [`Substrate::fingerprint_slots`]
///   depends only on the resolved key set (plus layout kind), never on
///   where the values live.
pub trait Substrate<V: Measured + Clone + Wire>: Sized {
    /// Builds the substrate from resolved `(key, value)` pairs in
    /// ascending key order (the canonical seal input: duplicates
    /// already resolved by the writer's lowest-machine-id rule).
    fn seal_pairs(pairs: Vec<(u64, V)>) -> Self;

    /// Which physical layout this substrate presents.
    fn kind(&self) -> ReprKind;

    /// Where the values physically live.
    fn backend(&self) -> StoreBackend {
        StoreBackend::InMemory
    }

    /// Looks one key up.
    fn get(&self, key: u64) -> Option<&V>;

    /// Advisory cache prefetch for `key`'s slot (no-op by default).
    #[inline]
    fn prefetch(&self, key: u64) {
        let _ = key;
    }

    /// The batched read every `get_many*` front-end funnels through:
    /// `visit` is called once per key, in key order, with the index and
    /// the result. In-memory substrates software-pipeline the lookups
    /// (slot `i + 16` prefetched while slot `i` is read); the socket
    /// substrate overrides this to fetch the batch's unfetched keys in
    /// **one wire request per shard** before visiting.
    fn get_batch_with<'s>(&'s self, keys: &[u64], visit: &mut dyn FnMut(usize, Option<&'s V>)) {
        for (i, &k) in keys.iter().enumerate() {
            if let Some(&ahead) = keys.get(i + PREFETCH_AHEAD) {
                self.prefetch(ahead);
            }
            visit(i, self.get(k));
        }
    }

    /// The physical slot layout for the determinism suites: the key at
    /// every slot index in slot order (`u64::MAX` = empty slot). See
    /// [`crate::Generation::layout_fingerprint`].
    fn fingerprint_slots(&self) -> Vec<u64>;

    /// Iterates all pairs (dense layouts in ascending key order).
    fn iter_pairs<'s>(&'s self) -> Box<dyn Iterator<Item = (u64, &'s V)> + 's>;
}

// ---------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------

/// Direct-index array over a dense key domain: `slots[k]` holds key
/// `k`'s value, `occupied` is the bitmap over slot indices (word `i`,
/// bit `j` ⇒ slot `64 i + j`), letting iteration skip empty runs 64
/// slots at a time. `get` is one bounds check and one slot read —
/// zero hashes.
pub struct DenseSubstrate<V> {
    pub(crate) slots: Vec<Option<V>>,
    pub(crate) occupied: Vec<u64>,
}

impl<V: Measured + Clone + Wire> Substrate<V> for DenseSubstrate<V> {
    fn seal_pairs(pairs: Vec<(u64, V)>) -> Self {
        let max_key = pairs.iter().map(|&(k, _)| k).max();
        debug_assert!(
            max_key.is_none_or(|m| dense_eligible(pairs.len(), m)),
            "dense seal over a sparse key set"
        );
        let n_slots = max_key.map_or(0, |m| m as usize + 1);
        let mut slots: Vec<Option<V>> = (0..n_slots).map(|_| None).collect();
        let mut occupied = vec![0u64; n_slots.div_ceil(64)];
        for (k, v) in pairs {
            let s = k as usize;
            occupied[s / 64] |= 1u64 << (s % 64);
            slots[s] = Some(v);
        }
        DenseSubstrate { slots, occupied }
    }

    fn kind(&self) -> ReprKind {
        ReprKind::Dense
    }

    #[inline]
    fn get(&self, key: u64) -> Option<&V> {
        match self.slots.get(key as usize) {
            Some(slot) => slot.as_ref(),
            None => None,
        }
    }

    #[inline]
    fn prefetch(&self, key: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let i = key as usize;
            if i < self.slots.len() {
                #[allow(unsafe_code)]
                // SAFETY: the index is bounds-checked above and prefetch
                // dereferences nothing — it is a pure cache hint with no
                // semantic effect.
                unsafe {
                    _mm_prefetch(self.slots.as_ptr().add(i) as *const i8, _MM_HINT_T0)
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = key;
    }

    fn fingerprint_slots(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .map(|(k, s)| if s.is_some() { k as u64 } else { u64::MAX })
            .collect()
    }

    fn iter_pairs<'s>(&'s self) -> Box<dyn Iterator<Item = (u64, &'s V)> + 's> {
        Box::new(
            self.occupied
                .iter()
                .enumerate()
                .flat_map(move |(w, &bits)| BitIter {
                    bits,
                    base: w as u64 * 64,
                })
                .map(move |k| {
                    (
                        k,
                        self.slots[k as usize].as_ref().expect("bitmap/slot agree"),
                    )
                }),
        )
    }
}

// ---------------------------------------------------------------------
// Open
// ---------------------------------------------------------------------

/// Open-addressed table with linear probing at ≤ 50% load. Capacity is
/// a power of two; a key probes from `mix64(key) & mask`. Entries were
/// inserted in ascending key order, making the layout canonical.
pub struct OpenSubstrate<V> {
    pub(crate) slots: Vec<Option<(u64, V)>>,
    pub(crate) mask: u64,
}

impl<V: Measured + Clone + Wire> Substrate<V> for OpenSubstrate<V> {
    fn seal_pairs(pairs: Vec<(u64, V)>) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "open seal input must be strictly ascending by key"
        );
        let cap = pairs.len().saturating_mul(2).next_power_of_two().max(16);
        let mask = cap as u64 - 1;
        let mut slots: Vec<Option<(u64, V)>> = (0..cap).map(|_| None).collect();
        for (k, v) in pairs {
            let mut i = (mix64(k) & mask) as usize;
            while slots[i].is_some() {
                i = (i + 1) & mask as usize;
            }
            slots[i] = Some((k, v));
        }
        OpenSubstrate { slots, mask }
    }

    fn kind(&self) -> ReprKind {
        ReprKind::Open
    }

    #[inline]
    fn get(&self, key: u64) -> Option<&V> {
        let mut i = (mix64(key) & self.mask) as usize;
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, v)) if *k == key => return Some(v),
                Some(_) => i = (i + 1) & self.mask as usize,
            }
        }
    }

    #[inline]
    fn prefetch(&self, key: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let i = (mix64(key) & self.mask) as usize;
            #[allow(unsafe_code)]
            // SAFETY: `mask` is `capacity - 1` for a power-of-two
            // capacity, so the index is in bounds; prefetch dereferences
            // nothing.
            unsafe {
                _mm_prefetch(self.slots.as_ptr().add(i) as *const i8, _MM_HINT_T0)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = key;
    }

    fn fingerprint_slots(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|s| s.as_ref().map_or(u64::MAX, |(k, _)| *k))
            .collect()
    }

    fn iter_pairs<'s>(&'s self) -> Box<dyn Iterator<Item = (u64, &'s V)> + 's> {
        Box::new(
            self.slots
                .iter()
                .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v))),
        )
    }
}

// ---------------------------------------------------------------------
// Socket
// ---------------------------------------------------------------------

/// The key index a socket-backed generation keeps locally: exactly the
/// flat layout's slot structure **minus the values**, so slot lookup,
/// miss detection and the layout fingerprint never touch the wire, and
/// fingerprints equal the flat substrate's by construction.
enum SocketIndex {
    /// Mirror of [`DenseSubstrate`]: the occupancy bitmap alone.
    Dense { occupied: Vec<u64>, n_slots: usize },
    /// Mirror of [`OpenSubstrate`]: the keys in probe order. `None`
    /// marks an empty slot (`u64::MAX` is a legal key, so no sentinel).
    Open { keys: Vec<Option<u64>>, mask: u64 },
}

/// A sealed generation whose values live in shard-server processes
/// ([`crate::socket`]), selected by `AMPC_STORE=socket`.
///
/// Locally absent keys are answered from the index with **zero** wire
/// traffic. Present keys are fetched over the wire in per-shard batches
/// and memoized into per-slot cells, so references borrow from this
/// substrate with the ordinary generation lifetime and a re-read is
/// free. Dropping the substrate tells the servers to free the
/// generation.
pub struct SocketSubstrate<V> {
    index: SocketIndex,
    /// One memoization cell per slot; a racing duplicate fetch decodes
    /// the same bytes, so whichever `set` wins stores an equal value.
    cells: Vec<OnceLock<V>>,
    gen_id: u64,
}

impl<V: Measured + Clone + Wire> SocketSubstrate<V> {
    /// Offloads a sealed dense layout to the shard servers, keeping its
    /// occupancy bitmap as the local index.
    pub(crate) fn offload_dense(slots: Vec<Option<V>>, occupied: Vec<u64>) -> Self {
        let n_slots = slots.len();
        let gen_id = socket::next_gen_id();
        let cluster = socket::cluster();
        let mut by_shard: Vec<Vec<(u64, Vec<u8>)>> =
            (0..cluster.shard_count()).map(|_| Vec::new()).collect();
        for (w, &bits) in occupied.iter().enumerate() {
            for k in (BitIter {
                bits,
                base: w as u64 * 64,
            }) {
                let v = slots[k as usize].as_ref().expect("bitmap/slot agree");
                by_shard[cluster.shard_of(k)].push((k, encode_to_vec(v)));
            }
        }
        for (shard, entries) in by_shard.iter().enumerate() {
            if !entries.is_empty() {
                cluster.load(gen_id, shard, entries);
            }
        }
        SocketSubstrate {
            index: SocketIndex::Dense { occupied, n_slots },
            cells: (0..n_slots).map(|_| OnceLock::new()).collect(),
            gen_id,
        }
    }

    /// Offloads a sealed open layout, keeping its probe-order key array
    /// as the local index.
    pub(crate) fn offload_open(slots: Vec<Option<(u64, V)>>, mask: u64) -> Self {
        let gen_id = socket::next_gen_id();
        let cluster = socket::cluster();
        let mut by_shard: Vec<Vec<(u64, Vec<u8>)>> =
            (0..cluster.shard_count()).map(|_| Vec::new()).collect();
        let keys: Vec<Option<u64>> = slots.iter().map(|s| s.as_ref().map(|(k, _)| *k)).collect();
        for (k, v) in slots.iter().flatten() {
            by_shard[cluster.shard_of(*k)].push((*k, encode_to_vec(v)));
        }
        for (shard, entries) in by_shard.iter().enumerate() {
            if !entries.is_empty() {
                cluster.load(gen_id, shard, entries);
            }
        }
        let n_slots = keys.len();
        SocketSubstrate {
            index: SocketIndex::Open { keys, mask },
            cells: (0..n_slots).map(|_| OnceLock::new()).collect(),
            gen_id,
        }
    }

    /// Which slot `key` occupies, from the local index alone.
    #[inline]
    fn slot_of(&self, key: u64) -> Option<usize> {
        match &self.index {
            SocketIndex::Dense { occupied, n_slots } => {
                let s = key as usize;
                if s < *n_slots && occupied[s / 64] & (1u64 << (s % 64)) != 0 {
                    Some(s)
                } else {
                    None
                }
            }
            SocketIndex::Open { keys, mask } => {
                let mut i = (mix64(key) & mask) as usize;
                loop {
                    match keys[i] {
                        None => return None,
                        Some(k) if k == key => return Some(i),
                        Some(_) => i = (i + 1) & *mask as usize,
                    }
                }
            }
        }
    }

    /// Fetches the given `(key, slot)` pairs from their shard servers —
    /// one wire request per shard — decoding and memoizing each value.
    ///
    /// # Panics
    /// When a server does not hold a key the index says exists: that
    /// means the server lost the generation (crash + respawn), and the
    /// determinism contract forbids quietly serving an absence.
    fn fetch_slots(&self, wanted: &[(u64, usize)]) {
        let cluster = socket::cluster();
        let mut by_shard: Vec<Vec<(u64, usize)>> =
            (0..cluster.shard_count()).map(|_| Vec::new()).collect();
        for &(k, s) in wanted {
            by_shard[cluster.shard_of(k)].push((k, s));
        }
        for (shard, entries) in by_shard.iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
            let blobs = cluster.get_batch(self.gen_id, shard, &keys);
            for (&(k, s), blob) in entries.iter().zip(blobs) {
                let Some(blob) = blob else {
                    panic!(
                        "socket substrate: generation {} lost key {k} \
                         (shard server restarted?) — cannot serve a \
                         schedule-dependent absence",
                        self.gen_id
                    );
                };
                let mut buf = &blob[..];
                let v = V::wire_decode(&mut buf)
                    .expect("socket substrate: shard returned an undecodable value");
                debug_assert!(buf.is_empty(), "trailing bytes after decoded value");
                let _ = self.cells[s].set(v);
            }
        }
    }

    /// Fetches every present-but-unfetched slot (the iteration path),
    /// in bounded chunks.
    fn fetch_all(&self) {
        const CHUNK: usize = 4096;
        let mut missing: Vec<(u64, usize)> = Vec::new();
        let flush = |missing: &mut Vec<(u64, usize)>| {
            if !missing.is_empty() {
                self.fetch_slots(missing);
                missing.clear();
            }
        };
        match &self.index {
            SocketIndex::Dense { occupied, .. } => {
                for (w, &bits) in occupied.iter().enumerate() {
                    for k in (BitIter {
                        bits,
                        base: w as u64 * 64,
                    }) {
                        if self.cells[k as usize].get().is_none() {
                            missing.push((k, k as usize));
                            if missing.len() >= CHUNK {
                                flush(&mut missing);
                            }
                        }
                    }
                }
            }
            SocketIndex::Open { keys, .. } => {
                for (s, k) in keys.iter().enumerate() {
                    if let Some(k) = k {
                        if self.cells[s].get().is_none() {
                            missing.push((*k, s));
                            if missing.len() >= CHUNK {
                                flush(&mut missing);
                            }
                        }
                    }
                }
            }
        }
        flush(&mut missing);
    }
}

impl<V> Drop for SocketSubstrate<V> {
    fn drop(&mut self) {
        // Best-effort: free the generation's blobs server-side.
        socket::cluster().drop_gen(self.gen_id);
    }
}

impl<V: Measured + Clone + Wire> Substrate<V> for SocketSubstrate<V> {
    fn seal_pairs(pairs: Vec<(u64, V)>) -> Self {
        // Same layout-selection rule as the flat seal, applied to the
        // key index; the values go to the servers either way.
        let max_key = pairs.iter().map(|&(k, _)| k).max().unwrap_or(0);
        if !pairs.is_empty() && dense_eligible(pairs.len(), max_key) {
            let dense = DenseSubstrate::seal_pairs(pairs);
            SocketSubstrate::offload_dense(dense.slots, dense.occupied)
        } else {
            let open = OpenSubstrate::seal_pairs(pairs);
            SocketSubstrate::offload_open(open.slots, open.mask)
        }
    }

    fn kind(&self) -> ReprKind {
        match &self.index {
            SocketIndex::Dense { .. } => ReprKind::Dense,
            SocketIndex::Open { .. } => ReprKind::Open,
        }
    }

    fn backend(&self) -> StoreBackend {
        StoreBackend::Socket
    }

    fn get(&self, key: u64) -> Option<&V> {
        let s = self.slot_of(key)?;
        if self.cells[s].get().is_none() {
            self.fetch_slots(&[(key, s)]);
        }
        Some(self.cells[s].get().expect("fetched or memoized above"))
    }

    fn get_batch_with<'s>(&'s self, keys: &[u64], visit: &mut dyn FnMut(usize, Option<&'s V>)) {
        // One wire request per shard for the batch's unfetched keys,
        // then every visit is answered from the memo cells.
        let mut missing: Vec<(u64, usize)> = Vec::new();
        for &k in keys {
            if let Some(s) = self.slot_of(k) {
                if self.cells[s].get().is_none() {
                    missing.push((k, s));
                }
            }
        }
        if !missing.is_empty() {
            missing.sort_unstable_by_key(|&(_, s)| s);
            missing.dedup_by_key(|&mut (_, s)| s);
            self.fetch_slots(&missing);
        }
        for (i, &k) in keys.iter().enumerate() {
            visit(i, self.slot_of(k).and_then(|s| self.cells[s].get()));
        }
    }

    fn fingerprint_slots(&self) -> Vec<u64> {
        match &self.index {
            SocketIndex::Dense { occupied, n_slots } => (0..*n_slots)
                .map(|s| {
                    if occupied[s / 64] & (1u64 << (s % 64)) != 0 {
                        s as u64
                    } else {
                        u64::MAX
                    }
                })
                .collect(),
            SocketIndex::Open { keys, .. } => keys.iter().map(|k| k.unwrap_or(u64::MAX)).collect(),
        }
    }

    fn iter_pairs<'s>(&'s self) -> Box<dyn Iterator<Item = (u64, &'s V)> + 's> {
        self.fetch_all();
        match &self.index {
            SocketIndex::Dense { occupied, .. } => Box::new(
                occupied
                    .iter()
                    .enumerate()
                    .flat_map(move |(w, &bits)| BitIter {
                        bits,
                        base: w as u64 * 64,
                    })
                    .map(move |k| {
                        (
                            k,
                            self.cells[k as usize].get().expect("fetch_all populated"),
                        )
                    }),
            ),
            SocketIndex::Open { keys, .. } => {
                Box::new(keys.iter().enumerate().filter_map(move |(s, k)| {
                    k.map(|k| (k, self.cells[s].get().expect("fetch_all populated")))
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|k| (k, k.wrapping_mul(7))).collect()
    }

    fn sparse_pairs(n: u64) -> Vec<(u64, u64)> {
        let mut p: Vec<(u64, u64)> = (0..n)
            .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k))
            .collect();
        p.sort_unstable_by_key(|&(k, _)| k);
        p
    }

    #[test]
    fn in_memory_substrates_agree_on_reads() {
        let dense = DenseSubstrate::seal_pairs(pairs(300));
        let open = OpenSubstrate::seal_pairs(pairs(300));
        let oracle: std::collections::BTreeMap<u64, u64> = pairs(300).into_iter().collect();
        for k in 0..400u64 {
            assert_eq!(dense.get(k), oracle.get(&k), "key {k}");
            assert_eq!(open.get(k), oracle.get(&k), "key {k}");
        }
        assert_eq!(dense.kind(), ReprKind::Dense);
        assert_eq!(open.kind(), ReprKind::Open);
        assert_eq!(dense.backend(), StoreBackend::InMemory);
    }

    #[test]
    fn socket_substrate_matches_flat_reads_and_fingerprint() {
        for input in [pairs(500), sparse_pairs(200)] {
            let flat_dense = dense_eligible(input.len(), input.last().unwrap().0);
            let socket = SocketSubstrate::seal_pairs(input.clone());
            assert_eq!(socket.backend(), StoreBackend::Socket);
            if flat_dense {
                let flat = DenseSubstrate::seal_pairs(input.clone());
                assert_eq!(socket.kind(), flat.kind());
                assert_eq!(socket.fingerprint_slots(), flat.fingerprint_slots());
            } else {
                let flat = OpenSubstrate::seal_pairs(input.clone());
                assert_eq!(socket.kind(), flat.kind());
                assert_eq!(socket.fingerprint_slots(), flat.fingerprint_slots());
            }
            for &(k, v) in &input {
                assert_eq!(socket.get(k), Some(&v), "key {k}");
                assert_eq!(socket.get(k ^ (1 << 62)), None);
            }
            let mut seen: Vec<(u64, u64)> = socket.iter_pairs().map(|(k, v)| (k, *v)).collect();
            seen.sort_unstable_by_key(|&(k, _)| k);
            assert_eq!(seen, input);
        }
    }

    #[test]
    fn socket_batch_read_is_memoized() {
        let socket = SocketSubstrate::seal_pairs(pairs(100));
        let keys: Vec<u64> = (0..100).collect();
        let memoized = |k: u64| socket.cells[socket.slot_of(k).expect("present")].get();
        assert!(
            keys.iter().all(|&k| memoized(k).is_none()),
            "sealing fetched"
        );
        let mut hits = 0;
        socket.get_batch_with(&keys, &mut |_, v| hits += usize::from(v.is_some()));
        assert_eq!(hits, 100);
        // Every present slot's cell is set, so a second batch over the
        // same keys has an empty missing list and sends no request.
        for &k in &keys {
            assert_eq!(memoized(k), Some(&k.wrapping_mul(7)), "key {k}");
        }
    }

    #[test]
    fn absent_keys_cost_no_wire_traffic() {
        let socket = SocketSubstrate::seal_pairs(pairs(50));
        // Force-fetch everything once.
        socket.get_batch_with(&(0..50u64).collect::<Vec<_>>(), &mut |_, _| {});
        let misses: Vec<u64> = (1000..1100u64).collect();
        let mut all_none = true;
        socket.get_batch_with(&misses, &mut |_, v| all_none &= v.is_none());
        assert!(all_none);
    }
}
