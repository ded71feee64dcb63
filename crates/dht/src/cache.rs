//! Per-machine query caches (§5.3's caching optimization).
//!
//! *"In practice, we implement the caching optimization using an array
//! indexed over the vertices that is shared between all threads
//! operating on a machine."* Algorithms in this workspace key the DHT by
//! dense vertex ids, so the cache is a flat array — **when that is
//! affordable**. The model only licenses `O(S)` cached entries per
//! machine, so:
//!
//! * When `capacity` is within a small factor of `key_space`, the cache
//!   is a flat array (one slot per key, O(1) everything).
//! * When `capacity ≪ key_space` (below the density factor), allocating
//!   `key_space` slots would break the `O(S)` space bound, so the cache
//!   switches to a compact hash map bounded by `capacity`.
//!
//! Either way `clear` is proportional to *occupancy*, not key space:
//! the array representation remembers which slots it dirtied.

use crate::hasher::FxHashMap;

/// Below `capacity * DENSITY_FACTOR < key_space` the cache stores a
/// compact map instead of a flat array.
const DENSITY_FACTOR: usize = 8;

/// Backing storage: flat array for dense caches, bounded map for sparse
/// ones.
#[derive(Clone, Debug)]
enum Repr<T> {
    Dense {
        slots: Vec<Option<T>>,
        /// Keys inserted since the last `clear` (each pushed once, on
        /// first insert) — what makes `clear` O(occupancy).
        dirty: Vec<u64>,
    },
    Sparse(FxHashMap<u64, T>),
}

/// A capacity-bounded cache over dense `u64` keys in `0..key_space`.
///
/// `T` is the cached state; a missing entry means "not cached". The
/// cache tracks occupancy and never holds more than `capacity` entries
/// (the model's `O(S)` bound); memory use is `O(min(capacity,
/// key_space))`, **not** `O(key_space)`.
#[derive(Clone, Debug)]
pub struct DenseCache<T> {
    repr: Repr<T>,
    occupied: usize,
    capacity: usize,
    key_space: usize,
}

impl<T: Clone> DenseCache<T> {
    /// A cache over keys `0..key_space` allowed to hold up to `capacity`
    /// entries. A `capacity` of 0 disables the cache (every `get`
    /// misses). When `capacity` is much smaller than `key_space` the
    /// cache allocates `O(capacity)` — not `O(key_space)` — memory.
    pub fn new(key_space: usize, capacity: usize) -> Self {
        let repr = if capacity == 0 || capacity.saturating_mul(DENSITY_FACTOR) < key_space {
            Repr::Sparse(FxHashMap::default())
        } else {
            Repr::Dense {
                slots: vec![None; key_space],
                dirty: Vec::new(),
            }
        };
        DenseCache {
            repr,
            occupied: 0,
            capacity,
            key_space,
        }
    }

    /// An unbounded cache over `key_space` keys (capacity = key space).
    pub fn unbounded(key_space: usize) -> Self {
        Self::new(key_space, key_space)
    }

    /// A disabled cache: every lookup misses, inserts are dropped.
    pub fn disabled() -> Self {
        Self::new(0, 0)
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&T> {
        match &self.repr {
            Repr::Dense { slots, .. } => slots.get(key as usize).and_then(|s| s.as_ref()),
            Repr::Sparse(map) => map.get(&key),
        }
    }

    /// Inserts (or overwrites) the cached state for `key`. Silently
    /// drops the insert if the cache is full and `key` is not already
    /// present, if `key` is outside `0..key_space`, or if the cache is
    /// disabled.
    #[inline]
    pub fn put(&mut self, key: u64, value: T) {
        if key as usize >= self.key_space {
            return;
        }
        match &mut self.repr {
            Repr::Dense { slots, dirty } => {
                let slot = &mut slots[key as usize];
                if slot.is_none() {
                    if self.occupied >= self.capacity {
                        return;
                    }
                    self.occupied += 1;
                    dirty.push(key);
                }
                *slot = Some(value);
            }
            Repr::Sparse(map) => {
                if let Some(v) = map.get_mut(&key) {
                    *v = value;
                } else {
                    if self.occupied >= self.capacity {
                        return;
                    }
                    self.occupied += 1;
                    map.insert(key, value);
                }
            }
        }
    }

    /// Number of cached entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True if nothing is cached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Drops all cached entries, keeping the capacity. Runs in time
    /// proportional to the number of cached entries, not the key space.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Dense { slots, dirty } => {
                for key in dirty.drain(..) {
                    slots[key as usize] = None;
                }
            }
            Repr::Sparse(map) => map.clear(),
        }
        self.occupied = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Backing slots actually allocated: `O(capacity)` in sparse mode,
    /// `key_space` in dense mode.
    fn allocated_slots<T>(c: &DenseCache<T>) -> usize {
        match &c.repr {
            Repr::Dense { slots, .. } => slots.len(),
            Repr::Sparse(map) => map.capacity(),
        }
    }

    #[test]
    fn basic_get_put() {
        let mut c: DenseCache<u8> = DenseCache::unbounded(10);
        assert_eq!(c.get(3), None);
        c.put(3, 7);
        assert_eq!(c.get(3), Some(&7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn overwrite_does_not_grow() {
        for cache in [DenseCache::unbounded(10), DenseCache::new(1000, 2)] {
            let mut c: DenseCache<u8> = cache;
            c.put(3, 7);
            c.put(3, 9);
            assert_eq!(c.get(3), Some(&9));
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn capacity_enforced_in_both_representations() {
        // Dense (capacity close to key space) and sparse (capacity ≪).
        for key_space in [10usize, 1000] {
            let mut c: DenseCache<u8> = DenseCache::new(key_space, 2);
            c.put(0, 1);
            c.put(1, 1);
            c.put(2, 1); // dropped
            assert_eq!(c.len(), 2);
            assert_eq!(c.get(2), None);
            // overwriting an existing key still works at capacity
            c.put(0, 9);
            assert_eq!(c.get(0), Some(&9));
        }
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut c: DenseCache<u8> = DenseCache::disabled();
        c.put(0, 1);
        assert_eq!(c.get(0), None);
        assert!(c.is_empty());
    }

    #[test]
    fn out_of_range_keys_are_misses() {
        for cache in [DenseCache::unbounded(4), DenseCache::new(1000, 4)] {
            let mut c: DenseCache<u8> = cache;
            c.put(5000, 1); // silently dropped
            assert_eq!(c.get(5000), None);
            assert!(c.is_empty());
        }
    }

    #[test]
    fn clear_resets() {
        for cache in [DenseCache::unbounded(4), DenseCache::new(1000, 4)] {
            let mut c: DenseCache<u8> = cache;
            c.put(1, 1);
            c.clear();
            assert!(c.is_empty());
            assert_eq!(c.get(1), None);
            // the cache is reusable after a clear
            c.put(2, 2);
            assert_eq!(c.get(2), Some(&2));
            assert_eq!(c.len(), 1);
        }
    }

    /// The `O(S)` memory bound the doc claims: a tiny capacity over a
    /// huge key space must not allocate the key space.
    #[test]
    fn sparse_mode_respects_memory_bound() {
        let c: DenseCache<u64> = DenseCache::new(1 << 40, 64);
        assert!(
            allocated_slots(&c) <= 64 * DENSITY_FACTOR,
            "allocated {} slots for capacity 64",
            allocated_slots(&c)
        );
        let mut c = c;
        for k in 0..64u64 {
            c.put(k * 1_000_000_007, k);
        }
        assert_eq!(c.len(), 64);
        for k in 0..64u64 {
            assert_eq!(c.get(k * 1_000_000_007), Some(&k));
        }
    }

    /// Dense mode keeps flat-array behavior; `clear` touches only the
    /// dirtied slots (observable through the dirty-list contract: a
    /// cleared cache accepts `capacity` fresh inserts again).
    #[test]
    fn dense_mode_clear_is_occupancy_proportional() {
        let mut c: DenseCache<u32> = DenseCache::new(1000, 1000);
        assert_eq!(allocated_slots(&c), 1000);
        for k in 0..10u64 {
            c.put(k, 1);
        }
        c.clear();
        assert!(c.is_empty());
        for k in 500..510u64 {
            c.put(k, 2);
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.get(3), None);
        assert_eq!(c.get(505), Some(&2));
    }
}
