//! Skewed-read integration suite: hot-key replication under power-law
//! key distributions (DESIGN.md §11).
//!
//! The invariant under test: replicating hot keys (`AMPC_HOT_KEYS` /
//! [`AmpcConfig::with_hot_keys`]) is an execution-strategy optimization
//! **only** — outputs and `CommStats` are byte-identical with
//! replication on or off, under either sealed-storage substrate
//! (`AMPC_STORE`), any executor thread count, and composed with a
//! seeded chaos schedule.
//! A replica-served read still charges the queries/bytes a DHT-served
//! read would; only wall-clock may change.

use ampc::prelude::*;
use ampc_core::algorithm::digest_u64s;
use ampc_dht::hasher::mix64;
use ampc_dht::store::{Dht, GenerationWriter};
use ampc_runtime::chaos::ChaosSpec;
use ampc_runtime::{Job, JobReport};

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 6,
        in_memory_threshold: 100,
        seed: 0x0005_1CED,
        ..AmpcConfig::default()
    }
}

/// Tests here read the process-global clone probe, so they serialize
/// on this lock.
static GLOBAL_STATE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const N: u64 = 1 << 12;
const WALKERS: u64 = 256;
const HOPS: u64 = 6;

/// A deterministic power-law-ish key draw: the fourth power of a
/// 32-bit uniform concentrates reads heavily on the low keys (key 0
/// alone receives ~1/8 of all draws at `n = 2^12`), so a handful of
/// keys cross the promotion threshold on every machine.
fn skewed_key(r: u64, n: u64) -> u64 {
    let u = mix64(r) >> 32;
    let u2 = (u * u) >> 32;
    let u4 = (u2 * u2) >> 32;
    (u4 * n) >> 32
}

/// The probe kernel: one write round seeds `N` values, then two
/// adaptive read rounds draw their hop keys from the power-law — one
/// through the fixed-size expect path (copies into caller scratch),
/// one through the visitor form with deliberate misses mixed in. Both
/// are hot-replica serving points, and both derive the next hop's keys
/// from the fetched values, so any replica staleness would change the
/// digest.
fn skewed_read_job(cfg: &AmpcConfig) -> (u64, JobReport) {
    let mut job = Job::new(*cfg);
    let mut dht: Dht<u64> = Dht::new();
    let writer = GenerationWriter::new();
    job.kv_round(
        "SkewWrite",
        dht.current(),
        Some(&writer),
        (0..N).collect(),
        |ctx, items: &[u64]| {
            ctx.handle
                .put_many(items.iter().map(|&k| (k, mix64(k ^ 0xFEED))));
            Vec::<()>::new()
        },
    );
    dht.push(writer.seal());

    let seed = cfg.seed;
    let expect_acc: Vec<u64> = job.kv_round(
        "SkewExpect",
        dht.current(),
        None,
        (0..WALKERS).collect(),
        |ctx, items| {
            let mut acc: Vec<u64> = items.to_vec();
            for hop in 0..HOPS {
                ctx.scratch.keys.clear();
                ctx.scratch
                    .keys
                    .extend(acc.iter().map(|&a| skewed_key(seed ^ a ^ (hop << 40), N)));
                ctx.handle
                    .get_many_expect_into(&ctx.scratch.keys, &mut ctx.scratch.vals);
                for (a, &v) in acc.iter_mut().zip(ctx.scratch.vals.iter()) {
                    *a = a.wrapping_mul(0x100_0000_01B3) ^ v;
                }
            }
            acc
        },
    );
    let visit_acc: Vec<u64> = job.kv_round(
        "SkewVisit",
        dht.current(),
        None,
        (0..WALKERS).collect(),
        |ctx, items| {
            let mut acc: Vec<u64> = items.iter().map(|&w| w ^ 0x9E37).collect();
            for hop in 0..HOPS {
                ctx.scratch.keys.clear();
                ctx.scratch
                    .keys
                    .extend(acc.iter().enumerate().map(|(i, &a)| {
                        let k = skewed_key(seed ^ a ^ (hop << 20) ^ 0xB0B, N);
                        // Every fourth probe misses (keys past the store).
                        if (i as u64 + hop).is_multiple_of(4) {
                            k + N
                        } else {
                            k
                        }
                    }));
                let acc = &mut acc;
                ctx.handle.get_many_through_with(&ctx.scratch.keys, |i, v| {
                    acc[i] = acc[i].rotate_left(9) ^ v.copied().unwrap_or(0x0DD);
                });
            }
            acc
        },
    );
    let digest = digest_u64s(expect_acc.into_iter().chain(visit_acc));
    (digest, job.into_report())
}

/// The full fingerprint the replication knob must leave untouched.
fn fingerprint(c: &AmpcConfig) -> (u64, usize, u64, ampc_dht::metrics::CommStats) {
    let (digest, report) = skewed_read_job(c);
    (
        digest,
        report.num_kv_rounds(),
        report.kv_round_trips(),
        report.kv_comm(),
    )
}

/// Replication is invisible to outputs and accounting across the whole
/// (threads × capacity) matrix, under whichever layout the ambient
/// `AMPC_STORE` selects.
#[test]
fn replication_invisible_across_layouts_threads_and_capacities() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap();
    let reference = fingerprint(&cfg());
    for threads in [1, 2, 8] {
        for hot in [0, 4, 64] {
            let got = fingerprint(&cfg().with_threads(threads).with_hot_keys(hot));
            assert_eq!(got, reference, "threads={threads} hot={hot}");
        }
    }
}

/// Replication composes with the chaos engine: a seeded kill + drop
/// schedule with replication on stays byte-identical to the fault-free
/// run, and its retry/replay accounting is byte-identical to the same
/// schedule with replication off (replays rebuild the replica set from
/// scratch deterministically).
#[test]
fn replication_composes_with_chaos() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap();
    let schedule = ChaosSpec::parse("chaos:seed=11:rate=300:drop=200").unwrap();
    let (clean_digest, clean_report) = skewed_read_job(&cfg());
    let (off_digest, off_report) = skewed_read_job(&cfg().with_chaos(schedule));
    let (on_digest, on_report) = skewed_read_job(&cfg().with_chaos(schedule).with_hot_keys(16));
    assert_eq!(off_digest, clean_digest, "chaos changed the output");
    assert_eq!(
        on_digest, clean_digest,
        "chaos + replication changed the output"
    );
    assert_eq!(
        on_report.kv_comm(),
        off_report.kv_comm(),
        "replication changed chaos accounting"
    );
    assert_eq!(on_report.replays, off_report.replays);
    assert_eq!(clean_report.replays, 0);
    assert!(
        on_report.replays > 0 || on_report.kv_comm().retries > 0,
        "schedule injected no faults — strengthen it"
    );
    // Fault handling never changes the model-visible work.
    assert_eq!(on_report.kv_comm().queries, clean_report.kv_comm().queries);
    assert_eq!(
        on_report.kv_comm().kv_bytes(),
        clean_report.kv_comm().kv_bytes()
    );
}

/// The skew is strong enough to promote: with replication on, the
/// promotion clones show up on the probe; with it off, the kernel's
/// read paths clone nothing at all (the zero-copy contract).
#[test]
fn skew_promotes_replicas_and_is_otherwise_clone_free() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap();
    let before = ampc_dht::probe::values_cloned();
    skewed_read_job(&cfg());
    let cold = ampc_dht::probe::values_cloned() - before;
    assert_eq!(cold, 0, "replication off must clone nothing");
    let before = ampc_dht::probe::values_cloned();
    skewed_read_job(&cfg().with_hot_keys(32));
    let hot = ampc_dht::probe::values_cloned() - before;
    assert!(hot > 0, "power-law reads never promoted a replica");
}
