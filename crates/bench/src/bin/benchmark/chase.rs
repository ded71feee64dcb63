//! The benchmark-local pointer-chase kernel: the DHT substrate with no
//! graph kernel around it.
//!
//! One KV round writes a seeded successor table over the dense key
//! domain `0..n` (fixed 8-byte values), `seal()` turns it into a
//! generation, and a second KV round chases every key `hops` dependent
//! steps in machine lock-step — one batched lookup per hop, the access
//! pattern of walks and pointer jumping. The four substrate phases
//! (write round, seal, read round, drop) are timed **from outside**,
//! around the public calls, because nothing inside the crates times the
//! seal or the drop.

use ampc_dht::store::{Dht, GenerationWriter};
use ampc_runtime::driver::{drive, Driven};
use ampc_runtime::AmpcConfig;
use std::time::Instant;

/// Splitmix64 finalizer (benchmark-local so that the seeded table does
/// not depend on any hash the crates may change).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded successor table over the dense key domain `0..n`:
/// `table[v]` is the successor of `v`, a scramble, so consecutive keys
/// jump to unrelated cache lines. This is the workload's input, built
/// during set-up like a graph is.
pub fn build_table(n: usize, seed: u64) -> Vec<u64> {
    let salt = seed.rotate_left(17);
    (0..n as u64).map(|v| mix(v ^ salt) % n as u64).collect()
}

/// `succ^hops(v)` for every key, computed sequentially with no DHT — the
/// reference the kernel's output is validated against.
pub fn reference(table: &[u64], hops: usize) -> Vec<u64> {
    (0..table.len() as u64)
        .map(|v| (0..hops).fold(v, |cur, _| table[cur as usize]))
        .collect()
}

/// Start and end of each substrate phase of one chase, as instants.
#[derive(Clone, Copy, Debug)]
pub struct ChasePhases {
    /// Write round (`kv_round` + `put_many`).
    pub write: (Instant, Instant),
    /// `GenerationWriter::seal` (plus the socket `LOAD` offload).
    pub seal: (Instant, Instant),
    /// Read round (`kv_round` + `hops` × `get_many_with`).
    pub read: (Instant, Instant),
    /// `drop(Dht)` (the socket substrate frees the shard generations).
    pub drop: (Instant, Instant),
}

/// Runs one chase under `cfg`; the output is the final position of every
/// key plus the phase boundaries.
pub fn run(cfg: &AmpcConfig, table: &[u64], hops: usize) -> Driven<(Vec<u64>, ChasePhases)> {
    let n = table.len() as u64;
    drive(cfg, |job| {
        let mut dht: Dht<u64> = Dht::new();
        let writer = GenerationWriter::new();
        let t0 = Instant::now();
        job.kv_round(
            "ChaseWrite",
            dht.current(),
            Some(&writer),
            (0..n).collect(),
            |ctx, items: &[u64]| {
                ctx.handle
                    .put_many(items.iter().map(|&v| (v, table[v as usize])));
                Vec::<()>::new()
            },
        );
        let t1 = Instant::now();
        dht.push(writer.seal());
        let t2 = Instant::now();
        let finals: Vec<u64> = job.kv_round(
            "Chase",
            dht.current(),
            None,
            (0..n).collect(),
            |ctx, items: &[u64]| {
                let mut cur = items.to_vec();
                let mut next = vec![0u64; cur.len()];
                for _ in 0..hops {
                    ctx.handle.get_many_with(&cur, |i, v| {
                        next[i] = *v.expect("every key was written this job");
                    });
                    std::mem::swap(&mut cur, &mut next);
                    ctx.add_ops(items.len() as u64);
                }
                cur
            },
        );
        let t3 = Instant::now();
        drop(dht);
        let t4 = Instant::now();
        let phases = ChasePhases {
            write: (t0, t1),
            seal: (t1, t2),
            read: (t2, t3),
            drop: (t3, t4),
        };
        (finals, phases)
    })
}
