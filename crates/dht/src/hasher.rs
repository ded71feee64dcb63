//! Fast integer hashing.
//!
//! The standard library's SipHash is needlessly slow for the `u64` keys
//! the DHT uses (the performance guide's first recommendation for
//! hash-heavy code). This is the Fibonacci/FxHash-style multiplicative
//! hasher: one multiply and a xor-shift per word, which is plenty for
//! keys that are vertex ids.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for integer keys.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time FxHash over arbitrary bytes (rarely used here —
        // DHT keys hash through `write_u64`).
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state.rotate_left(5) ^ i).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast integer hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast integer hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Stateless mix of a `u64` to a well-distributed `u64` — used for shard
/// selection and seeded per-key randomness (e.g. vertex priorities).
/// This is the SplitMix64 finalizer, which passes avalanche tests.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashmap_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        for i in 0..1000u64 {
            assert_eq!(m[&i], i * 2);
        }
    }

    #[test]
    fn mix64_distributes_low_bits() {
        // Consecutive keys must land on different shards: check the low
        // 4 bits of mixed consecutive integers are not constant.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64u64 {
            seen.insert(mix64(i) & 0xF);
        }
        assert!(seen.len() > 8, "mix64 low bits too clustered: {seen:?}");
    }

    #[test]
    fn mix64_is_deterministic_and_injective_on_small_range() {
        let outs: Vec<u64> = (0..10_000u64).map(mix64).collect();
        let set: std::collections::HashSet<_> = outs.iter().collect();
        assert_eq!(set.len(), outs.len());
        assert_eq!(mix64(42), mix64(42));
    }

    #[test]
    fn hasher_handles_byte_streams() {
        use std::hash::Hash;
        let mut h1 = FxHasher::default();
        "hello world".hash(&mut h1);
        let mut h2 = FxHasher::default();
        "hello worle".hash(&mut h2);
        assert_ne!(h1.finish(), h2.finish());
    }
}
