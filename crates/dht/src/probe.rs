//! Clone-accounting probe for the zero-copy read contract.
//!
//! The perf suite asserts that converted hot paths stay clone-free:
//! every place the dht layer clones a stored value (cache inserts,
//! hot-key replica promotion) reports the clone here, and `perf_suite` samples the counter around each kernel
//! to report `bytes_cloned` and pin the uncached read paths at zero.
//!
//! This is an observability counter, **not** part of [`crate::metrics::CommStats`]:
//! clone traffic is a host-side implementation cost, while `CommStats`
//! models simulated communication and must stay byte-identical across
//! configurations that change only the host-side strategy (e.g.
//! hot-key replication on vs off).

use std::sync::atomic::{AtomicU64, Ordering};

static BYTES_CLONED: AtomicU64 = AtomicU64::new(0);
static VALUES_CLONED: AtomicU64 = AtomicU64::new(0);

/// Records one stored-value clone of `bytes` serialized bytes.
#[inline]
pub fn record_clone(bytes: usize) {
    BYTES_CLONED.fetch_add(bytes as u64, Ordering::Relaxed);
    VALUES_CLONED.fetch_add(1, Ordering::Relaxed);
}

/// Total serialized bytes of stored values cloned since process start
/// (monotonic; sample before/after a region and subtract).
#[inline]
pub fn bytes_cloned() -> u64 {
    BYTES_CLONED.load(Ordering::Relaxed)
}

/// Total number of stored-value clones since process start.
#[inline]
pub fn values_cloned() -> u64 {
    VALUES_CLONED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_accumulates() {
        let b0 = bytes_cloned();
        let v0 = values_cloned();
        record_clone(24);
        record_clone(8);
        assert!(bytes_cloned() >= b0 + 32);
        assert!(values_cloned() >= v0 + 2);
    }
}
