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
//! per-machine cache. [`MachineHandle::get_many`] / `put_many` perform
//! one **accounted batch**: [`CommStats::batches`] counts one round
//! trip for the whole request while `queries`/`bytes_read` still count
//! per key — so the cost model can charge latency per batch and
//! bandwidth per key, and one batch of 1000 independent lookups is
//! distinguishable from 1000 dependent ones. Constructing the handle
//! with batching disabled (the `AMPC_BATCH=off` baseline) degrades
//! every batched call to a loop of single-key operations — identical
//! keys, bytes and values, one batch per key — so outputs and byte
//! counts are comparable across the two modes by construction.
//!
//! A read-through [`DenseCache`] can be mounted directly on the handle
//! ([`MachineHandle::mount_cache`]) so kernels whose cached state is
//! the raw stored value stop hand-rolling cache-then-get logic.

use crate::cache::{DenseCache, HotSet};
use crate::fault::DropPlan;
use crate::hasher::{FxHashMap, FxHashSet};
use crate::measured::Measured;
use crate::metrics::CommStats;
use crate::probe;
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
    /// When false, `get_many`/`put_many` degrade to per-key round trips
    /// (the single-key baseline).
    batching: bool,
    /// Optional read-through cache of raw stored values.
    cache: Option<DenseCache<V>>,
    /// Optional hot-key replica set (`AMPC_HOT_KEYS`): frequently read
    /// keys get machine-local replicas that serve the reference paths
    /// without touching the sealed generation. Accounting is identical
    /// either way — replication is a host-side strategy, not a model
    /// change (see [`HotSet`]).
    hot: Option<HotSet<V>>,
    /// Optional chaos drop plan: every accounted batch may be dropped
    /// and re-sent a seeded, capped number of times (counted into the
    /// retry fields of [`CommStats`]; never changes results).
    drops: Option<DropPlan>,
    /// Ordinal of the next accounted batch, the per-machine coordinate
    /// the drop plan rolls on — so a replayed machine re-rolls exactly
    /// the drops of its first attempt.
    batch_ordinal: u64,
}

impl<'a, V: Measured + Clone + PartialEq + Send + Wire> MachineHandle<'a, V> {
    /// A handle reading `read` and writing to `write`.
    pub fn new(read: &'a Generation<V>, write: Option<&'a GenerationWriter<V>>) -> Self {
        MachineHandle {
            read,
            write,
            stats: CommStats::default(),
            budget: u64::MAX,
            machine_id: 0,
            batching: true,
            cache: None,
            hot: None,
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

    /// Enables or disables batched accounting (default: enabled).
    pub fn with_batching(mut self, batching: bool) -> Self {
        self.batching = batching;
        self
    }

    /// Arms chaos drop injection: each accounted batch rolls the plan
    /// for a seeded, capped number of dropped attempts before its
    /// success (DESIGN.md §10). `None` (the default) disables drops.
    pub fn with_chaos_drops(mut self, drops: Option<DropPlan>) -> Self {
        self.drops = drops;
        self
    }

    /// Arms hot-key replication with room for `k` replicas (`k = 0`,
    /// the `AMPC_HOT_KEYS` default, disables it). Served values and
    /// every [`CommStats`] counter are identical with replication on or
    /// off; only the host-side memory traffic changes.
    pub fn with_hot_keys(mut self, k: usize) -> Self {
        self.hot = (k > 0).then(|| HotSet::new(k));
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
    pub fn can_query(&self) -> bool {
        self.stats.queries < self.budget
    }

    /// The batched-read core behind [`Self::get_many`] and
    /// [`Self::get_many_into`]: one accounted batch (or per-key round trips with batching off),
    /// `f` called once per key in key order with a reference carrying
    /// the **generation lifetime** `'a`. Hot-key replicas never serve
    /// this path — their references cannot outlive a visit — which is
    /// exactly the split between this core and
    /// [`Self::read_batch_hot_with`].
    fn read_batch_with(&mut self, keys: &[u64], f: &mut dyn FnMut(usize, Option<&'a V>)) {
        if keys.is_empty() {
            return;
        }
        if !self.batching {
            for (i, &k) in keys.iter().enumerate() {
                f(i, self.get(k));
            }
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

    /// The short-lived-reference twin of [`Self::read_batch_with`],
    /// behind [`Self::get_many_with`], [`Self::get_many_expect_into`]
    /// and the cacheless [`Self::get_many_through_with`] branch:
    /// identical accounting (the `CommStats` regression tests pin it),
    /// but references only live for the visit, which lets hot-key
    /// replicas (`AMPC_HOT_KEYS`) serve repeats from machine-local
    /// memory at the same charged cost.
    fn read_batch_hot_with(&mut self, keys: &[u64], f: &mut dyn FnMut(usize, Option<&V>)) {
        if keys.is_empty() {
            return;
        }
        if !self.batching {
            for (i, &k) in keys.iter().enumerate() {
                let v = self.get(k);
                f(i, v.map(|v| -> &V { v }));
            }
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
        self.stats.queries += keys.len() as u64;
        let mut bytes_read = 0u64;
        if let Some(mut hot) = self.hot.take() {
            for (i, &k) in keys.iter().enumerate() {
                // A replica hit charges exactly what the DHT read would
                // — replication never changes CommStats.
                match hot.get(k) {
                    Some(v) => {
                        bytes_read += 8 + v.size_bytes() as u64;
                        f(i, Some(v));
                    }
                    None => match self.read.get(k) {
                        Some(v) => {
                            bytes_read += 8 + v.size_bytes() as u64;
                            hot.observe(k, v);
                            f(i, Some(v));
                        }
                        None => {
                            bytes_read += 8;
                            f(i, None);
                        }
                    },
                }
            }
            self.hot = Some(hot);
        } else {
            self.read.get_many_with(keys, |i, v| {
                bytes_read += match v {
                    Some(v) => 8 + v.size_bytes() as u64,
                    None => 8,
                };
                f(i, v.map(|v| -> &V { v }));
            });
        }
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
    /// bytes for every key. The keys must be *independent* — none may
    /// depend on another's response; dependent lookups are separate
    /// batches, which is exactly what the cost model charges for.
    ///
    /// With batching disabled, degrades to a loop of [`Self::get`]
    /// calls: identical keys, bytes and return values, one round trip
    /// per key.
    ///
    /// # Panics
    /// In debug builds, panics if the batch would exceed the `O(S)`
    /// query budget.
    pub fn get_many(&mut self, keys: &[u64]) -> Vec<Option<&'a V>> {
        let mut out = Vec::new();
        self.get_many_into(keys, &mut out);
        out
    }

    /// [`Self::get_many`] into a caller-owned buffer: `out` is cleared
    /// and refilled with one `Option<&V>` per key. Accounting is
    /// identical to `get_many` — one batch for the whole request (or
    /// per-key round trips with batching disabled). Lockstep kernels
    /// (walks, 1-vs-2-cycle frontiers, MIS/MM root prefetch) reuse one
    /// buffer across adaptive steps instead of allocating a fresh
    /// `Vec<Option<&V>>` per hop.
    ///
    /// # Panics
    /// In debug builds, panics if the batch would exceed the `O(S)`
    /// query budget.
    pub fn get_many_into(&mut self, keys: &[u64], out: &mut Vec<Option<&'a V>>) {
        out.clear();
        out.reserve(keys.len());
        self.read_batch_with(keys, &mut |_, v| out.push(v));
    }

    /// Visitor form of [`Self::get_many`], the leanest member of the
    /// batch family: one accounted batch, `f` called once per key in
    /// key order with the index and the value — no output buffer at
    /// all. Hot-key replicas may serve repeats, so the references live
    /// only for the visit (take [`Self::get_many_into`] when the batch
    /// results must outlive the call). Accounting is identical to
    /// [`Self::get_many`] by construction.
    ///
    /// # Panics
    /// In debug builds, panics if the batch would exceed the `O(S)`
    /// query budget.
    pub fn get_many_with(&mut self, keys: &[u64], mut f: impl FnMut(usize, Option<&V>)) {
        self.read_batch_hot_with(keys, &mut f);
    }

    /// Fixed-size fast path of the batch family: **copies** each value
    /// into the caller's scratch buffer (cleared first) instead of
    /// collecting `Option<&V>`, so lockstep kernels over `Copy` values
    /// (chase tables, labels) keep one flat `Vec<V>` alive across hops
    /// with no borrow tying it to the generation — and no per-hop
    /// allocation at all. Accounting is *identical* to
    /// [`Self::get_many_into`] on an all-present batch: one round trip,
    /// one query and `8 + size` response bytes per key (per-key round
    /// trips with batching disabled). Hot-key replicas
    /// ([`Self::with_hot_keys`]) serve from machine-local memory at the
    /// same charged cost.
    ///
    /// # Panics
    /// When a key is absent — callers use this for tables they wrote
    /// themselves. In debug builds, also panics if the batch would
    /// exceed the `O(S)` query budget.
    pub fn get_many_expect_into(&mut self, keys: &[u64], out: &mut Vec<V>)
    where
        V: Copy,
    {
        out.clear();
        out.reserve(keys.len());
        self.read_batch_hot_with(keys, &mut |_, v| {
            out.push(*v.expect("get_many_expect_into: key absent"));
        });
    }

    /// The read-through batch lookup against the mounted cache: cached
    /// keys (and repeats within the batch) are answered locally as
    /// cache hits (counted in [`CommStats::cache_hits`], no budget
    /// use); the distinct misses go to the DHT in **one** accounted
    /// batch, whose responses populate the cache. Matches sequential
    /// single-key semantics exactly — a repeated key costs one query
    /// however it arrives — so the batching toggle changes only the
    /// round-trip accounting. (A repeat of a key the store turns out
    /// not to hold is still counted as a hit at scan time; all
    /// workspace kernels look up keys they previously wrote.)
    ///
    /// `f` is called once per key, in key order, with the index and
    /// the value — a cache reference for hits, the generation's own
    /// reference for misses. Each *present miss* is cloned exactly once
    /// (into the mounted cache); the caller is never handed an owned
    /// copy. With no cache mounted this is a plain batch served
    /// straight from the generation — zero clones, same accounting as
    /// [`Self::get_many_into`].
    pub fn get_many_through_with(&mut self, keys: &[u64], mut f: impl FnMut(usize, Option<&V>)) {
        if keys.is_empty() {
            return;
        }
        let Some(mut cache) = self.cache.take() else {
            // No cache mounted: a plain batch (same accounting as
            // `get_many_into`), served by reference through the
            // hot-aware core.
            self.read_batch_hot_with(keys, &mut f);
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
        let fetched = self.get_many(&fetch);
        let mut batch: FxHashMap<u64, Option<&'a V>> = FxHashMap::default();
        for (&k, v) in fetch.iter().zip(&fetched) {
            batch.insert(k, *v);
            if let Some(v) = v {
                probe::record_clone(v.size_bytes());
                cache.put(k, (*v).clone()); // the single per-miss clone
            }
        }
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
    /// per-pair writes and bytes). The writer is an append log, so
    /// [`GenerationWriter::put_many_from`] is a plain loop of per-pair
    /// appends: the batch form changes the *accounting* (one round
    /// trip), not the per-pair semantics or byte counts. With batching
    /// disabled, degrades to a loop of [`Self::put`] calls.
    ///
    /// # Panics
    /// Panics if the handle was created read-only and the iterator is
    /// non-empty.
    pub fn put_many(&mut self, pairs: impl IntoIterator<Item = (u64, V)>) {
        if !self.batching {
            for (k, v) in pairs {
                self.put(k, v);
            }
            return;
        }
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
    use crate::store::Generation;

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
        let vs = h.get_many(&[1, 2, 99]);
        assert_eq!(vs, vec![Some(&10), Some(&20), None]);
        assert_eq!(h.stats().queries, 3);
        assert_eq!(h.stats().batches, 1);
        assert_eq!(h.stats().bytes_read, 16 + 16 + 8);
        // An empty batch is free.
        assert!(h.get_many(&[]).is_empty());
        assert_eq!(h.stats().batches, 1);
    }

    #[test]
    fn batching_off_degrades_to_single_key() {
        let g = gen3();
        let mut on: MachineHandle<u64> = MachineHandle::new(&g, None);
        let mut off: MachineHandle<u64> = MachineHandle::new(&g, None).with_batching(false);
        let a = on.get_many(&[1, 2, 3]);
        let b = off.get_many(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(on.stats().queries, off.stats().queries);
        assert_eq!(on.stats().bytes_read, off.stats().bytes_read);
        assert_eq!(on.stats().batches, 1);
        assert_eq!(off.stats().batches, 3);
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
    #[derive(Debug)]
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

    /// The reference-serving read-through path clones each present miss
    /// exactly once (the cache insert) and nothing else.
    #[test]
    fn read_through_clones_once_per_miss() {
        let clones = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let g: Generation<CloneCounter> = Generation::from_iter(
            (0..8u64).map(|k| (k, CloneCounter(k, std::sync::Arc::clone(&clones)))),
        );
        clones.store(0, std::sync::atomic::Ordering::Relaxed);

        let mut h: MachineHandle<CloneCounter> = MachineHandle::new(&g, None);
        h.mount_cache(DenseCache::unbounded(8));
        // 4 distinct present misses, one repeat, one absent key.
        let mut seen = 0usize;
        h.get_many_through_with(&[0, 1, 2, 3, 1, 99], |_, v| {
            seen += usize::from(v.is_some());
        });
        assert_eq!(seen, 5);
        assert_eq!(
            clones.load(std::sync::atomic::Ordering::Relaxed),
            4,
            "one clone per present miss, none for the caller"
        );
        // Second batch: all hits — zero further clones.
        h.get_many_through_with(&[3, 2, 1, 0], |_, v| assert!(v.is_some()));
        assert_eq!(clones.load(std::sync::atomic::Ordering::Relaxed), 4);
    }

    /// The read-through path's documented accounting: a key sequence
    /// charges *identical* queries, bytes and cache hits whether it
    /// arrives as batches or one key at a time, and with batching off —
    /// only the round-trip count differs. Without a cache the batch is
    /// charged exactly like [`MachineHandle::get_many_into`].
    #[test]
    fn read_through_paths_charge_identical_stats() {
        let g: Generation<Vec<u64>> =
            Generation::from_iter((0..16u64).map(|k| (k, vec![k, k + 1, k + 2])));
        let batches: [&[u64]; 3] = [&[0, 1, 2, 1, 99], &[2, 3, 0], &[5, 5, 5]];
        let run = |key_at_a_time: bool, batching: bool, cache: bool| -> CommStats {
            let mut h: MachineHandle<Vec<u64>> =
                MachineHandle::new(&g, None).with_batching(batching);
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
            let batched = run(false, true, cache);
            assert!(batched.bytes_read > 0);
            for other in [run(true, true, cache), run(false, false, cache)] {
                assert_eq!(other.queries, batched.queries, "cache={cache}");
                assert_eq!(other.bytes_read, batched.bytes_read, "cache={cache}");
                assert_eq!(other.cache_hits, batched.cache_hits, "cache={cache}");
                assert_eq!(other.batches, other.queries, "one round trip per key");
            }
        }
        assert_eq!(run(false, true, true).batches, 3);
        let plain = {
            let mut h: MachineHandle<Vec<u64>> = MachineHandle::new(&g, None);
            let mut out = Vec::new();
            for keys in batches {
                h.get_many_into(keys, &mut out);
            }
            *h.stats()
        };
        assert_eq!(run(false, true, false), plain);
    }

    /// The fixed-size copy path must charge exactly what the reference
    /// path charges on an all-present batch — batching on and off.
    #[test]
    fn expect_path_accounting_matches_get_many_into() {
        let g: Generation<u64> = Generation::from_iter((0..64u64).map(|k| (k, k * 3)));
        let keys: Vec<u64> = (0..64u64).rev().collect();
        for batching in [true, false] {
            let mut a: MachineHandle<u64> = MachineHandle::new(&g, None).with_batching(batching);
            let mut refs = Vec::new();
            a.get_many_into(&keys, &mut refs);
            let mut b: MachineHandle<u64> = MachineHandle::new(&g, None).with_batching(batching);
            let mut vals = Vec::new();
            b.get_many_expect_into(&keys, &mut vals);
            assert_eq!(a.stats(), b.stats(), "batching={batching}");
            let copied: Vec<u64> = refs.iter().map(|v| *v.expect("present")).collect();
            assert_eq!(copied, vals);
            // Buffer reuse: a second batch refills, never appends.
            b.get_many_expect_into(&[1, 2], &mut vals);
            assert_eq!(vals, vec![3, 6]);
        }
    }

    #[test]
    #[should_panic(expected = "key absent")]
    fn expect_path_panics_on_missing_key() {
        let g = gen3();
        let mut h: MachineHandle<u64> = MachineHandle::new(&g, None);
        let mut out = Vec::new();
        h.get_many_expect_into(&[1, 99], &mut out);
    }

    /// Hot-key replication must be invisible in values *and* in every
    /// CommStats counter — it only changes where the bytes come from.
    #[test]
    fn hot_key_replication_is_stats_invisible() {
        let g: Generation<u64> = Generation::from_iter((0..32u64).map(|k| (k, k + 100)));
        // A skewed sequence: key 3 is read far past the promotion
        // threshold, with cold keys interleaved.
        let keys: Vec<u64> = (0..200u64)
            .map(|i| if i % 3 == 0 { 3 } else { i % 32 })
            .collect();
        let run = |hot: usize| {
            let mut h: MachineHandle<u64> = MachineHandle::new(&g, None).with_hot_keys(hot);
            let mut vals = Vec::new();
            let mut visited = Vec::new();
            for chunk in keys.chunks(16) {
                h.get_many_expect_into(chunk, &mut vals);
                visited.extend(vals.iter().copied());
                h.get_many_through_with(chunk, |_, v| visited.push(*v.expect("present")));
            }
            (visited, *h.stats())
        };
        let (vals_off, stats_off) = run(0);
        let (vals_on, stats_on) = run(4);
        assert_eq!(vals_off, vals_on);
        assert_eq!(stats_off, stats_on);
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
