//! The per-machine access path to the DHT.
//!
//! In the model (§2) each machine may issue `O(S)` reads and `O(S)`
//! writes per round, each moving a constant number of words. The
//! [`MachineHandle`] is how algorithm code touches the store: every
//! `get` / `put` is counted into the machine's [`CommStats`], and the
//! handle carries the machine's query budget so callers can implement
//! (and the handle can *enforce* — see [`MachineHandle::try_get`]) the
//! truncation rules of Algorithms 1 and 4 and the §4.2
//! vertex-truncated process.
//!
//! # Batching (§5.3)
//!
//! The paper's practical wins come from machines issuing *batches* of
//! DHT queries per adaptive step and answering repeats from a
//! per-machine cache. [`MachineHandle::get_many_with`] / `put_many`
//! perform one **accounted batch**: [`CommStats::batches`] counts one round
//! trip for the whole request while `queries`/`bytes_read` still count
//! per key — so the cost model can charge latency per batch and
//! bandwidth per key, and one batch of 1000 independent lookups is
//! distinguishable from 1000 dependent ones. The single-key `get` /
//! `try_get` are the adaptive reads: one round trip per key.
//!
//! A read-through [`DenseCache`] can be mounted directly on the handle
//! ([`MachineHandle::mount_cache`]) so kernels whose cached state is
//! the raw stored value stop hand-rolling cache-then-get logic.

use crate::cache::DenseCache;
use crate::fault::DropPlan;
use crate::hasher::{FxHashMap, FxHashSet};
use crate::measured::Measured;
use crate::metrics::CommStats;
use crate::store::{Generation, GenerationWriter};
use crate::wire::Wire;

/// Signal returned by the `try_*` accessors when the next request would
/// exceed the handle's `O(S)` query budget. Algorithm-1-style truncated
/// searches treat this as their stopping condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExhausted;

impl std::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "per-round O(S) query budget exhausted")
    }
}

impl std::error::Error for BudgetExhausted {}

/// Metered read/write access for one machine within one round.
///
/// Reads go to the *previous* (sealed) generation; writes go to the
/// *next* generation under construction — the handle enforces the
/// model's read/write separation by construction. Writes carry the
/// machine's id into the [`GenerationWriter`] so duplicate keys resolve
/// deterministically (lowest machine id wins), independent of thread
/// schedule.
pub struct MachineHandle<'a, V> {
    read: &'a Generation<V>,
    write: Option<&'a GenerationWriter<V>>,
    stats: CommStats,
    /// Query budget `O(S)`; `u64::MAX` if unenforced.
    budget: u64,
    /// This machine's id, threaded into every write for deterministic
    /// duplicate-key resolution.
    machine_id: u32,
    /// Optional read-through cache of raw stored values.
    cache: Option<DenseCache<V>>,
    /// Optional chaos drop plan: every accounted batch may be dropped
    /// and re-sent a seeded, capped number of times (counted into the
    /// retry fields of [`CommStats`]; never changes results).
    drops: Option<DropPlan>,
    /// Ordinal of the next accounted batch, the per-machine coordinate
    /// the drop plan rolls on — so a replayed machine re-rolls exactly
    /// the drops of its first attempt.
    batch_ordinal: u64,
}

impl<'a, V: Measured + Clone + Default + PartialEq + Send + Wire> MachineHandle<'a, V> {
    /// A handle reading `read` and writing to `write`.
    pub fn new(read: &'a Generation<V>, write: Option<&'a GenerationWriter<V>>) -> Self {
        MachineHandle {
            read,
            write,
            stats: CommStats::default(),
            budget: u64::MAX,
            machine_id: 0,
            cache: None,
            drops: None,
            batch_ordinal: 0,
        }
    }

    /// Sets the per-round query budget (the model's `O(S)`).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the machine id carried by writes.
    pub fn with_machine(mut self, machine_id: u32) -> Self {
        self.machine_id = machine_id;
        self
    }

    /// Arms chaos drop injection: each accounted batch rolls the plan
    /// for a seeded, capped number of dropped attempts before its
    /// success (DESIGN.md §10). `None` (the default) disables drops.
    pub fn with_chaos_drops(mut self, drops: Option<DropPlan>) -> Self {
        self.drops = drops;
        self
    }

    /// Accounts one round trip, rolling the chaos drop plan (if armed)
    /// for this batch's dropped attempts. Drops add retry counters and
    /// (later) simulated time — never results, queries or bytes.
    #[inline]
    fn account_batch(&mut self) {
        self.stats.batches += 1;
        if let Some(plan) = self.drops {
            let ordinal = self.batch_ordinal;
            self.batch_ordinal += 1;
            let k = plan.drops_for(self.machine_id, ordinal);
            if k > 0 {
                self.stats.retries += u64::from(k);
                self.stats.wasted_batches += 1;
                self.stats.backoff_units += DropPlan::backoff_units(k);
            }
        }
    }

    /// Mounts a read-through cache: [`Self::get_many_through_with`]
    /// answers repeats locally (counted as cache hits) and only miss
    /// traffic reaches the DHT.
    pub fn mount_cache(&mut self, cache: DenseCache<V>) {
        self.cache = Some(cache);
    }

    /// True if at least one more query is allowed.
    #[inline]
    fn can_query(&self) -> bool {
        self.stats.queries < self.budget
    }

    /// The one batched-read core, behind every `get_many_*` form: one
    /// accounted batch, `f` called once per key in key order with a
    /// reference carrying the **generation lifetime** `'a`.
    fn read_batch_with(&mut self, keys: &[u64], f: &mut dyn FnMut(usize, Option<&'a V>)) {
        if keys.is_empty() {
            return;
        }
        debug_assert!(
            self.stats.queries.saturating_add(keys.len() as u64) <= self.budget,
            "machine {} batch of {} keys exceeds its O(S) query budget of {}",
            self.machine_id,
            keys.len(),
            self.budget
        );
        self.account_batch();
        // Whole-batch accounting: one add for the queries, one
        // accumulator for the bytes — same totals as per-key
        // `charge_read`, without 2 counter bumps per element — and the
        // substrate's batched pipeline serves the lookups.
        self.stats.queries += keys.len() as u64;
        let mut bytes_read = 0u64;
        self.read.get_many_with(keys, |i, v| {
            bytes_read += match v {
                Some(v) => 8 + v.size_bytes() as u64,
                None => 8, // the miss response
            };
            f(i, v);
        });
        self.stats.bytes_read += bytes_read;
    }

    /// Counts and performs one keyed read (no batch accounting).
    #[inline]
    fn charge_read(&mut self, key: u64) -> Option<&'a V> {
        self.stats.queries += 1;
        let v = self.read.get(key);
        if let Some(v) = v {
            self.stats.bytes_read += 8 + v.size_bytes() as u64;
        } else {
            self.stats.bytes_read += 8; // the miss response
        }
        v
    }

    /// Looks up `key` in the sealed (previous-round) generation,
    /// counting the query, the round trip and the response bytes.
    ///
    /// # Panics
    /// In debug builds, panics if the machine's `O(S)` query budget is
    /// already exhausted — the budget is enforced, not advisory. Use
    /// [`Self::try_get`] where truncation is a legitimate outcome.
    #[inline]
    pub fn get(&mut self, key: u64) -> Option<&'a V> {
        debug_assert!(
            self.can_query(),
            "machine {} exceeded its O(S) query budget of {}",
            self.machine_id,
            self.budget
        );
        self.account_batch();
        self.charge_read(key)
    }

    /// Budget-enforcing lookup: returns [`BudgetExhausted`] instead of
    /// querying once the `O(S)` budget is used up.
    #[inline]
    pub fn try_get(&mut self, key: u64) -> Result<Option<&'a V>, BudgetExhausted> {
        if !self.can_query() {
            return Err(BudgetExhausted);
        }
        self.account_batch();
        Ok(self.charge_read(key))
    }

    /// Looks up many keys in **one accounted batch**: a single round
    /// trip ([`CommStats::batches`]), one query and per-key response
    /// bytes for every key; `f` is called once per key, in key order,
    /// with the index and the value — no output buffer at all. The
    /// keys must be *independent* — none may depend on another's
    /// response; dependent lookups are separate batches, which is
    /// exactly what the cost model charges for. References carry the
    /// generation lifetime, so they may outlive the call.
    ///
    /// # Panics
    /// In debug builds, panics if the batch would exceed the `O(S)`
    /// query budget.
    pub fn get_many_with(&mut self, keys: &[u64], mut f: impl FnMut(usize, Option<&'a V>)) {
        self.read_batch_with(keys, &mut f);
    }

    /// [`Self::get_many_with`] into a caller-owned buffer: `out` is
    /// cleared and refilled with one `Option<&V>` per key. Lockstep
    /// kernels (MIS/MM/MSF root prefetch) reuse one buffer across
    /// adaptive steps instead of allocating a fresh `Vec` per hop.
    pub fn get_many_into(&mut self, keys: &[u64], out: &mut Vec<Option<&'a V>>) {
        out.clear();
        out.reserve(keys.len());
        self.get_many_with(keys, |_, v| out.push(v));
    }

    /// The read-through batch lookup against the mounted cache: cached
    /// keys (and repeats within the batch) are answered locally as
    /// cache hits (counted in [`CommStats::cache_hits`], no budget
    /// use); the distinct misses go to the DHT in **one** accounted
    /// batch, whose responses populate the cache. Matches sequential
    /// single-key semantics exactly — a repeated key costs one query
    /// however it arrives, so batch shape changes only the round-trip
    /// accounting. (A repeat of a key the store turns out not to hold
    /// is still counted as a hit at scan time; all workspace kernels
    /// look up keys they previously wrote.)
    ///
    /// `f` is called once per key, in key order, with the index and
    /// the value — a cache reference for hits, the generation's own
    /// reference for misses. Each *present miss* is cloned exactly once
    /// (into the mounted cache); the caller is never handed an owned
    /// copy. With no cache mounted this *is* [`Self::get_many_with`].
    pub fn get_many_through_with(&mut self, keys: &[u64], mut f: impl FnMut(usize, Option<&V>)) {
        if keys.is_empty() {
            return;
        }
        let Some(mut cache) = self.cache.take() else {
            self.get_many_with(keys, f);
            return;
        };
        let mut fetch: Vec<u64> = Vec::new();
        let mut pending: FxHashSet<u64> = FxHashSet::default();
        for &k in keys {
            if cache.get(k).is_some() || pending.contains(&k) {
                self.stats.cache_hits += 1;
            } else {
                pending.insert(k);
                fetch.push(k);
            }
        }
        let mut batch: FxHashMap<u64, Option<&'a V>> = FxHashMap::default();
        self.read_batch_with(&fetch, &mut |i, v| {
            batch.insert(fetch[i], v);
            if let Some(v) = v {
                cache.put(fetch[i], v.clone()); // the single per-miss clone
            }
        });
        for (i, k) in keys.iter().enumerate() {
            match batch.get(k) {
                // Miss: the generation's reference, no caller clone.
                Some(v) => f(i, v.map(|v| -> &V { v })),
                // Hit: the cache's reference.
                None => f(i, cache.get(*k)),
            }
        }
        self.cache = Some(cache);
    }

    /// Records a cache hit: the lookup was answered locally and does not
    /// count against the budget. For kernels that keep *derived* state
    /// in their own caches (e.g. the MIS tri-state); raw-value caches
    /// should prefer [`Self::mount_cache`].
    #[inline]
    pub fn note_cache_hit(&mut self) {
        self.stats.cache_hits += 1;
    }

    /// Counts and performs one keyed write (no batch accounting).
    #[inline]
    fn charge_write(&mut self, key: u64, value: V) {
        let w = self
            .write
            .expect("this machine handle is read-only this round");
        let bytes = w.put_from(self.machine_id, key, value);
        self.stats.writes += 1;
        self.stats.bytes_written += bytes as u64;
    }

    /// Writes a key-value pair into the next generation, counting the
    /// write, the round trip and its bytes. Duplicate keys across
    /// machines resolve to the lowest machine id (see
    /// [`GenerationWriter::put_from`]).
    ///
    /// # Panics
    /// Panics if the handle was created read-only.
    #[inline]
    pub fn put(&mut self, key: u64, value: V) {
        self.account_batch();
        self.charge_write(key, value);
    }

    /// Writes many pairs in **one accounted batch** (one round trip,
    /// per-pair writes and bytes). [`GenerationWriter::put_many_from`]
    /// bins the batch by writer stripe and takes each stripe's lock
    /// once; the batch form changes the *accounting* (one round trip)
    /// and the locking, not the per-pair semantics or byte counts.
    ///
    /// # Panics
    /// Panics if the handle was created read-only and the iterator is
    /// non-empty.
    pub fn put_many(&mut self, pairs: impl IntoIterator<Item = (u64, V)>) {
        let mut iter = pairs.into_iter();
        let Some(first) = iter.next() else {
            return; // an empty batch is free (and legal on a read-only handle)
        };
        let w = self
            .write
            .expect("this machine handle is read-only this round");
        let (written, bytes) = w.put_many_from(self.machine_id, std::iter::once(first).chain(iter));
        self.stats.writes += written;
        self.stats.bytes_written += bytes as u64;
        self.account_batch();
    }

    /// The communication counters accumulated so far.
    #[inline]
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Generation, StoreKind};

    fn gen3() -> Generation<u64> {
        Generation::from_iter([(1, 10u64), (2, 20), (3, 30)])
    }

    #[test]
    fn get_counts_queries_and_bytes() {
        let g = gen3();
        let mut h: MachineHandle<u64> = MachineHandle::new(&g, None);
        assert_eq!(h.get(1), Some(&10));
        assert_eq!(h.get(99), None);
        assert_eq!(h.stats().queries, 2);
        assert_eq!(h.stats().batches, 2);
        assert_eq!(h.stats().bytes_read, (8 + 8) + 8);
    }

    #[test]
    fn get_many_counts_one_batch() {
        let g = gen3();
        let mut h: MachineHandle<u64> = MachineHandle::new(&g, None);
        let mut vs = Vec::new();
        h.get_many_into(&[1, 2, 99], &mut vs);
        assert_eq!(vs, vec![Some(&10), Some(&20), None]);
        assert_eq!(h.stats().queries, 3);
        assert_eq!(h.stats().batches, 1);
        assert_eq!(h.stats().bytes_read, 16 + 16 + 8);
        // An empty batch is free.
        h.get_many_into(&[], &mut vs);
        assert!(vs.is_empty());
        assert_eq!(h.stats().batches, 1);
    }

    #[test]
    fn put_counts_writes() {
        let g = gen3();
        let w = GenerationWriter::new();
        let mut h = MachineHandle::new(&g, Some(&w));
        h.put(5, 55u64);
        assert_eq!(h.stats().writes, 1);
        assert_eq!(h.stats().batches, 1);
        assert_eq!(h.stats().bytes_written, 16);
        let sealed = w.seal();
        assert_eq!(sealed.get(5), Some(&55));
    }

    #[test]
    fn put_many_counts_one_batch() {
        let g = gen3();
        let w = GenerationWriter::new();
        let mut h = MachineHandle::new(&g, Some(&w));
        h.put_many((0..10u64).map(|k| (k, k * 2)));
        assert_eq!(h.stats().writes, 10);
        assert_eq!(h.stats().batches, 1);
        assert_eq!(h.stats().bytes_written, 160);
        h.put_many(std::iter::empty());
        assert_eq!(h.stats().batches, 1);
        let sealed = w.seal();
        assert_eq!(sealed.get(7), Some(&14));
    }

    #[test]
    fn writes_carry_machine_id() {
        let g: Generation<u64> = Generation::empty();
        let w = GenerationWriter::new().relaxed();
        let mut h2 = MachineHandle::new(&g, Some(&w)).with_machine(2);
        let mut h1 = MachineHandle::new(&g, Some(&w)).with_machine(1);
        h2.put(7, 200);
        h1.put(7, 100);
        assert_eq!(w.seal().get(7), Some(&100)); // lowest machine id wins
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn read_only_handle_rejects_writes() {
        let g = gen3();
        let mut h = MachineHandle::new(&g, None);
        h.put(1, 1u64);
    }

    #[test]
    fn budget_tracking() {
        let g = gen3();
        let mut h: MachineHandle<u64> = MachineHandle::new(&g, None).with_budget(2);
        assert!(h.can_query());
        h.get(1);
        h.get(2);
        assert!(!h.can_query());
    }

    #[test]
    fn try_get_signals_budget_exhaustion() {
        let g = gen3();
        let mut h: MachineHandle<u64> = MachineHandle::new(&g, None).with_budget(2);
        assert_eq!(h.try_get(1), Ok(Some(&10)));
        assert_eq!(h.try_get(2), Ok(Some(&20)));
        assert_eq!(h.try_get(3), Err(BudgetExhausted));
        assert_eq!(h.stats().queries, 2, "a rejected query must not be charged");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "O(S) query budget")]
    fn get_over_budget_debug_panics() {
        let g = gen3();
        let mut h: MachineHandle<u64> = MachineHandle::new(&g, None).with_budget(1);
        h.get(1);
        h.get(2);
    }

    #[test]
    fn cache_hits_do_not_consume_budget() {
        let g = gen3();
        let mut h: MachineHandle<u64> = MachineHandle::new(&g, None).with_budget(1);
        h.note_cache_hit();
        h.note_cache_hit();
        assert!(h.can_query());
        assert_eq!(h.stats().cache_hits, 2);
    }

    /// Collects one read-through batch into owned values.
    fn through(h: &mut MachineHandle<u64>, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        h.get_many_through_with(keys, |_, v| out.push(v.copied()));
        out
    }

    #[test]
    fn mounted_cache_answers_repeats_locally() {
        let g = gen3();
        let mut h: MachineHandle<u64> = MachineHandle::new(&g, None);
        h.mount_cache(DenseCache::unbounded(8));
        assert_eq!(through(&mut h, &[1]), vec![Some(10)]);
        assert_eq!(through(&mut h, &[1]), vec![Some(10)]);
        assert_eq!(h.stats().queries, 1);
        assert_eq!(h.stats().cache_hits, 1);
        assert_eq!(h.stats().batches, 1);
    }

    #[test]
    fn get_many_through_dedups_and_batches_misses() {
        let g = gen3();
        let mut h: MachineHandle<u64> = MachineHandle::new(&g, None);
        h.mount_cache(DenseCache::unbounded(8));
        // 1 repeats within the batch; the second batch repeats across.
        assert_eq!(
            through(&mut h, &[1, 2, 1]),
            vec![Some(10), Some(20), Some(10)]
        );
        assert_eq!(h.stats().queries, 2);
        assert_eq!(h.stats().cache_hits, 1);
        assert_eq!(h.stats().batches, 1);
        assert_eq!(through(&mut h, &[2, 3]), vec![Some(20), Some(30)]);
        assert_eq!(h.stats().queries, 3);
        assert_eq!(h.stats().cache_hits, 2);
        assert_eq!(h.stats().batches, 2);
    }

    #[test]
    fn get_many_through_without_cache_is_plain_batch() {
        let g = gen3();
        let mut h: MachineHandle<u64> = MachineHandle::new(&g, None);
        assert_eq!(through(&mut h, &[1, 1, 99]), vec![Some(10), Some(10), None]);
        assert_eq!(h.stats().queries, 3);
        assert_eq!(h.stats().cache_hits, 0);
        assert_eq!(h.stats().batches, 1);
    }

    /// A value that counts how often it is cloned, for pinning the
    /// read-through paths' clone budget.
    #[derive(Debug, Default)]
    struct CloneCounter(u64, std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl Clone for CloneCounter {
        fn clone(&self) -> Self {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            CloneCounter(self.0, std::sync::Arc::clone(&self.1))
        }
    }

    impl PartialEq for CloneCounter {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }

    impl crate::measured::Measured for CloneCounter {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    impl crate::wire::Wire for CloneCounter {
        fn wire_encode(&self, out: &mut Vec<u8>) {
            self.0.wire_encode(out);
        }

        fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
            // A decoded counter starts a fresh tally: clone counts are
            // a host-side test probe, not part of the value.
            let v = u64::wire_decode(buf)?;
            Some(CloneCounter(
                v,
                std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            ))
        }
    }

    /// The clone budget of the whole read family: the mounted-cache
    /// read-through clones each present miss exactly once (the cache
    /// insert); every other read — `get`, `get_many_with`,
    /// `get_many_into`, the cacheless read-through — clones nothing.
    /// The generation is sealed in memory (`seal_on(StoreKind::Flat, 1)`):
    /// a value decoded off the wire starts a fresh tally, so the probe
    /// could not see clones made on socket-backed values.
    #[test]
    fn read_through_clones_once_per_miss() {
        use std::sync::atomic::Ordering::Relaxed;
        let clones = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let w = GenerationWriter::new();
        for k in 0..8u64 {
            w.put(k, CloneCounter(k, std::sync::Arc::clone(&clones)));
        }
        let g = w.seal_on(StoreKind::Flat, 1);
        clones.store(0, Relaxed);

        // 4 distinct present keys, one repeat, one absent key.
        let keys = [0, 1, 2, 3, 1, 99];
        let mut h: MachineHandle<CloneCounter> = MachineHandle::new(&g, None);
        let mut seen = 0usize;
        for &k in &keys {
            seen += usize::from(h.get(k).is_some());
        }
        h.get_many_with(&keys, |_, v| seen += usize::from(v.is_some()));
        let mut out = Vec::new();
        h.get_many_into(&keys, &mut out);
        seen += out.iter().flatten().count();
        h.get_many_through_with(&keys, |_, v| seen += usize::from(v.is_some()));
        assert_eq!(seen, 4 * 5);
        assert_eq!(clones.load(Relaxed), 0, "uncached reads clone nothing");

        h.mount_cache(DenseCache::unbounded(8));
        let mut seen = 0usize;
        h.get_many_through_with(&keys, |_, v| {
            seen += usize::from(v.is_some());
        });
        assert_eq!(seen, 5);
        assert_eq!(
            clones.load(Relaxed),
            4,
            "one clone per present miss, none for the caller"
        );
        // Second batch: all hits — zero further clones.
        h.get_many_through_with(&[3, 2, 1, 0], |_, v| assert!(v.is_some()));
        assert_eq!(clones.load(Relaxed), 4);
    }

    /// The read-through path's documented accounting: a key sequence
    /// charges *identical* queries, bytes and cache hits whether it
    /// arrives as batches or one key at a time — only the round-trip
    /// count differs. Without a cache the batch is
    /// charged exactly like [`MachineHandle::get_many_into`].
    #[test]
    fn read_through_paths_charge_identical_stats() {
        let g: Generation<Vec<u64>> =
            Generation::from_iter((0..16u64).map(|k| (k, vec![k, k + 1, k + 2])));
        let batches: [&[u64]; 3] = [&[0, 1, 2, 1, 99], &[2, 3, 0], &[5, 5, 5]];
        let run = |key_at_a_time: bool, cache: bool| -> CommStats {
            let mut h: MachineHandle<Vec<u64>> = MachineHandle::new(&g, None);
            if cache {
                h.mount_cache(DenseCache::unbounded(16));
            }
            for keys in batches {
                if key_at_a_time {
                    for k in keys {
                        h.get_many_through_with(&[*k], |_, _| ());
                    }
                } else {
                    h.get_many_through_with(keys, |_, _| ());
                }
            }
            *h.stats()
        };
        for cache in [true, false] {
            let batched = run(false, cache);
            assert!(batched.bytes_read > 0);
            let single = run(true, cache);
            assert_eq!(single.queries, batched.queries, "cache={cache}");
            assert_eq!(single.bytes_read, batched.bytes_read, "cache={cache}");
            assert_eq!(single.cache_hits, batched.cache_hits, "cache={cache}");
            assert_eq!(single.batches, single.queries, "one round trip per key");
        }
        assert_eq!(run(false, true).batches, 3);
        let plain = {
            let mut h: MachineHandle<Vec<u64>> = MachineHandle::new(&g, None);
            let mut out = Vec::new();
            for keys in batches {
                h.get_many_into(keys, &mut out);
            }
            *h.stats()
        };
        assert_eq!(run(false, false), plain);
    }

    /// The collapsed read family is one accounting: over key lists
    /// with repeats and absent keys, a `get` loop, `get_many_with`,
    /// `get_many_into` and the cacheless `get_many_through_with` hand
    /// out identical values and charge identical `CommStats` — one
    /// round trip per list against one per key being the only
    /// difference — with and without a drop plan armed.
    #[test]
    fn read_family_agrees_on_values_and_stats() {
        type Read = fn(&mut MachineHandle<Vec<u64>>, &[u64], &mut Vec<Option<u64>>);
        let forms: [(&str, Read); 4] = [
            ("get loop", |h, keys, out| {
                out.extend(keys.iter().map(|&k| h.get(k).map(|v| v[0])));
            }),
            ("get_many_with", |h, keys, out| {
                h.get_many_with(keys, |_, v| out.push(v.map(|v| v[0])));
            }),
            ("get_many_into", |h, keys, out| {
                let mut refs = Vec::new();
                h.get_many_into(keys, &mut refs);
                out.extend(refs.iter().map(|v| v.map(|v| v[0])));
            }),
            ("get_many_through_with", |h, keys, out| {
                h.get_many_through_with(keys, |_, v| out.push(v.map(|v| v[0])));
            }),
        ];
        let g: Generation<Vec<u64>> =
            Generation::from_iter((0..32u64).map(|k| (k, vec![k + 100; 1 + k as usize % 3])));
        // Key 3 repeats within and across lists; 99 and 1 << 40 are absent.
        let lists: [&[u64]; 4] = [&[3, 1, 3, 99, 7], &[], &[3, 3, 3], &[31, 1 << 40, 0, 3]];
        let total: u64 = lists.iter().map(|l| l.len() as u64).sum();
        let drops = DropPlan {
            seed: 5,
            drop_pm: 400,
            retry_cap: 3,
        };
        for plan in [None, Some(drops)] {
            let run = |read: Read| {
                let mut h = MachineHandle::new(&g, None)
                    .with_machine(2)
                    .with_chaos_drops(plan);
                let mut out = Vec::new();
                for keys in lists {
                    read(&mut h, keys, &mut out);
                }
                (out, *h.stats())
            };
            let (values, per_key) = run(forms[0].1);
            assert_eq!(
                values[..5],
                [Some(103), Some(101), Some(103), None, Some(107)]
            );
            assert_eq!((per_key.queries, per_key.batches), (total, total));
            assert_eq!(per_key.retries > 0, plan.is_some());
            // Batched: one round trip per non-empty list; the drop
            // plan rolls per round trip, so the retry fields differ
            // from the per-key ones and nothing else does.
            let (_, batched) = run(forms[1].1);
            assert_eq!(batched.batches, 3);
            assert_eq!(batched.queries, per_key.queries);
            assert_eq!(batched.bytes_read, per_key.bytes_read);
            for (name, read) in &forms[1..] {
                let what = format!("{name} drops={}", plan.is_some());
                let (got, stats) = run(*read);
                assert_eq!(got, values, "{what}");
                assert_eq!(stats, batched, "{what}");
            }
        }
    }

    /// Algorithm-1-style truncation: a search loop that explores until
    /// the handle refuses actually stops at the budget boundary.
    #[test]
    fn truncated_search_hits_enforced_budget() {
        let g: Generation<u64> = Generation::from_iter((0..100u64).map(|k| (k, k + 1)));
        let budget = 7u64;
        let mut h: MachineHandle<u64> = MachineHandle::new(&g, None).with_budget(budget);
        let mut cur = 0u64;
        let mut hops = 0u64;
        let truncated = loop {
            match h.try_get(cur) {
                Err(BudgetExhausted) => break true,
                Ok(Some(&next)) => {
                    hops += 1;
                    cur = next;
                }
                Ok(None) => break false,
            }
        };
        assert!(truncated, "walk should have been truncated");
        assert_eq!(hops, budget);
        assert_eq!(h.stats().queries, budget);
        assert!(!h.can_query());
    }
}
