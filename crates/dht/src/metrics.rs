//! Communication accounting.
//!
//! Each simulated machine owns a [`CommStats`] that its
//! [`crate::MachineHandle`] updates without synchronization; the runtime
//! merges per-machine stats at round boundaries. This is what Figures 3
//! and 9 of the paper plot (bytes shuffled, bytes to the KV store) and
//! what the caching ablation (Figure 4) reduces.

use serde::{Deserialize, Serialize};

/// Counters for one machine (or, after merging, a whole round/job).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommStats {
    /// Number of key lookups issued to the DHT (cache hits excluded —
    /// a cache hit never leaves the machine).
    pub queries: u64,
    /// Number of key-value pairs written to the DHT.
    pub writes: u64,
    /// Number of accounted round trips to the DHT. A batched request
    /// (`get_many_with` / `put_many`) counts as **one** batch no matter
    /// how many keys it carries; a single-key `get` / `put` is a batch of
    /// one. Always `batches <= queries + writes`. The cost model charges
    /// lookup *latency* per batch and *bandwidth* per key, so adaptive
    /// depth — chains of dependent batches — is what a round costs
    /// (the §5.3 distinction between 1000 independent queries and 1000
    /// dependent ones).
    pub batches: u64,
    /// Bytes received from the DHT in response to queries.
    pub bytes_read: u64,
    /// Bytes sent to the DHT by writes.
    pub bytes_written: u64,
    /// Lookups served by the per-machine cache.
    pub cache_hits: u64,
    /// Batch attempts dropped and re-sent by chaos fault injection
    /// ([`crate::fault::DropPlan`]). Zero outside chaos runs. A batch
    /// that dropped `k` times contributes `k` retries. Retries never
    /// change `queries`/`writes`/`batches`/bytes — the successful
    /// attempt is the one accounted there — they only add simulated
    /// time ([`crate::cost::CostConfig::retry_time_ns`]).
    #[serde(default)]
    pub retries: u64,
    /// Accounted batches that suffered at least one chaos drop (so
    /// `wasted_batches <= batches` and, per batch, retries ≥ 1).
    #[serde(default)]
    pub wasted_batches: u64,
    /// Capped-exponential-backoff wait accumulated by dropped batches,
    /// in base backoff units: a batch that dropped `k` times waited
    /// `1 + 2 + … + 2^{k-1} = 2^k − 1` units before succeeding.
    #[serde(default)]
    pub backoff_units: u64,
}

impl CommStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total KV communication in bytes (read + written), the quantity on
    /// the y-axis of Figure 9.
    #[inline]
    pub fn kv_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Total operations that crossed the network.
    #[inline]
    pub fn network_ops(&self) -> u64 {
        self.queries + self.writes
    }

    /// Charged round trips: the accounted batches. Every handle op
    /// accounts its batch, so this is zero exactly when no op crossed
    /// the network.
    #[inline]
    pub fn round_trips(&self) -> u64 {
        self.batches
    }

    /// Fraction of lookups served by the cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.queries + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &CommStats) {
        self.queries += other.queries;
        self.writes += other.writes;
        self.batches += other.batches;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.cache_hits += other.cache_hits;
        self.retries += other.retries;
        self.wasted_batches += other.wasted_batches;
        self.backoff_units += other.backoff_units;
    }

    /// Merged copy of a collection of per-machine stats.
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a CommStats>) -> CommStats {
        let mut out = CommStats::default();
        for s in stats {
            out.merge(s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let a = CommStats {
            queries: 1,
            writes: 2,
            batches: 2,
            bytes_read: 3,
            bytes_written: 4,
            cache_hits: 5,
            retries: 6,
            wasted_batches: 1,
            backoff_units: 9,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.queries, 2);
        assert_eq!(b.batches, 4);
        assert_eq!(b.kv_bytes(), 14);
        assert_eq!(b.network_ops(), 6);
        assert_eq!(b.retries, 12);
        assert_eq!(b.wasted_batches, 2);
        assert_eq!(b.backoff_units, 18);
    }

    #[test]
    fn hit_rate() {
        let s = CommStats {
            queries: 25,
            cache_hits: 75,
            ..Default::default()
        };
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CommStats::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn merged_iterates() {
        let v = [CommStats::default(); 3];
        assert_eq!(CommStats::merged(v.iter()), CommStats::default());
    }
}
