//! DHT-layer fault injection: seeded batch drops with capped
//! exponential-backoff retries.
//!
//! The paper's serving environment (§5.1) runs AMPC jobs in a
//! low-priority batch tier where requests to the shared key-value
//! service can time out and must be re-sent. A [`DropPlan`] simulates
//! that deterministically: every **accounted batch** a
//! [`crate::MachineHandle`] issues (a `get_many_with`/`put_many` round
//! trip, or a single-key op) rolls a seeded hash to decide how many
//! attempts are dropped before one succeeds. Drops never change what
//! the batch returns — the simulated store is durable and the retry always
//! re-issues identical keys — so outputs, `queries`, `writes`,
//! `batches` and byte counters are byte-identical to a fault-free run;
//! only the new retry counters ([`crate::metrics::CommStats::retries`],
//! `wasted_batches`, `backoff_units`) and the simulated time charged
//! from them differ.
//!
//! The number of drops per batch is a pure function of
//! `(seed, machine, batch ordinal, attempt)`, so a replayed machine
//! (runtime fault injection) reproduces exactly the same retry counters
//! as its first attempt, and two runs with equal seeds agree on every
//! counter regardless of thread count or storage layout.

/// A seeded plan for dropping DHT batches, carried by the
/// [`crate::MachineHandle`] of every machine in a round.
///
/// `retry_cap` bounds the consecutive drops of one batch: after
/// `retry_cap` failed attempts the next attempt always succeeds (drops
/// model transient congestion, not data loss — the capped retry is
/// what makes total backoff time bounded). A batch that dropped `k`
/// times waited `1 + 2 + … + 2^{k-1} = 2^k − 1` base backoff units
/// before its successful attempt; those units are accumulated into
/// [`crate::metrics::CommStats::backoff_units`] and charged by
/// [`crate::cost::CostConfig::retry_time_ns`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DropPlan {
    /// Seed for the per-batch drop decisions (already mixed with the
    /// stage index by the runtime, so every stage sees fresh rolls).
    pub seed: u64,
    /// Per-attempt drop probability, in per-mille (`0..=1000`).
    pub drop_pm: u16,
    /// Maximum consecutive drops of one batch.
    pub retry_cap: u8,
}

/// SplitMix64 finalizer: the workspace's standard seeded mixer (no
/// ambient randomness — determinism contract, DESIGN.md §3).
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DropPlan {
    /// Backoff units waited by a batch that was dropped `attempts`
    /// times before succeeding: `1 + 2 + … + 2^{attempts−1} =
    /// 2^attempts − 1`. This one definition is shared by the simulated
    /// accounting ([`crate::metrics::CommStats::backoff_units`], via
    /// `MachineHandle::account_batch`) and the socket substrate's
    /// *real* reconnect sleeps ([`crate::socket`]), so both retry paths
    /// follow the same capped exponential shape.
    #[inline]
    pub fn backoff_units(attempts: u32) -> u64 {
        (1u64 << attempts.min(63)) - 1
    }

    /// How many attempts of batch `ordinal` on `machine` are dropped
    /// before the successful one. Deterministic: a pure function of the
    /// plan and the arguments, independent of thread schedule, storage
    /// layout, or whether this is the machine's first attempt or a
    /// fault-injection replay.
    pub fn drops_for(&self, machine: u32, ordinal: u64) -> u32 {
        let cap = u32::from(self.retry_cap);
        let mut k = 0u32;
        while k < cap {
            let roll =
                mix64(self.seed ^ mix64(u64::from(machine) ^ mix64(ordinal ^ u64::from(k)))) % 1000;
            if roll < u64::from(self.drop_pm) {
                k += 1;
            } else {
                break;
            }
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_are_deterministic_and_capped() {
        let plan = DropPlan {
            seed: 0xC0A5,
            drop_pm: 900,
            retry_cap: 3,
        };
        for m in 0..4u32 {
            for ord in 0..64u64 {
                let a = plan.drops_for(m, ord);
                let b = plan.drops_for(m, ord);
                assert_eq!(a, b, "same inputs must roll the same drops");
                assert!(a <= 3, "retry cap bounds consecutive drops");
            }
        }
    }

    #[test]
    fn zero_probability_never_drops() {
        let plan = DropPlan {
            seed: 7,
            drop_pm: 0,
            retry_cap: 8,
        };
        assert!((0..256u64).all(|ord| plan.drops_for(0, ord) == 0));
    }

    #[test]
    fn high_probability_drops_something() {
        let plan = DropPlan {
            seed: 7,
            drop_pm: 500,
            retry_cap: 4,
        };
        let total: u32 = (0..256u64).map(|ord| plan.drops_for(1, ord)).sum();
        assert!(total > 0, "a 50% drop rate must produce drops");
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = DropPlan {
            seed: 1,
            drop_pm: 300,
            retry_cap: 4,
        };
        let b = DropPlan { seed: 2, ..a };
        let roll = |p: DropPlan| -> Vec<u32> { (0..128u64).map(|o| p.drops_for(0, o)).collect() };
        assert_ne!(roll(a), roll(b));
    }
}
