//! Chaos-engine integration tests: seeded multi-fault schedules.
//!
//! The invariant under test (DESIGN.md §10): for **every** fault
//! schedule — seeded random kills, repeated explicit kills, correlated
//! stripes, epoch-targeted kills, DHT batch drops with capped-backoff
//! retries — every kernel family's output is **byte-identical** to the
//! fault-free run, under either sealed-storage substrate (`AMPC_STORE`)
//! and any executor thread count. Only simulated time and the
//! replay/retry counters may differ, and those are themselves
//! deterministic per seed.

use ampc::prelude::*;
use ampc_core::algorithm::digest_u64s;
use ampc_core::one_vs_two::CycleAnswer;
use ampc_dht::hasher::mix64;
use ampc_dht::store::{Dht, GenerationWriter};
use ampc_graph::gen;
use ampc_runtime::chaos::ChaosSpec;
use ampc_runtime::{Job, JobReport};

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 4,
        in_memory_threshold: 100,
        seed: 0x500C,
        ..AmpcConfig::default()
    }
}

fn tiny() -> CsrGraph {
    gen::rmat(8, 1_500, gen::RmatParams::SOCIAL, 42)
}

/// The schedule most tests run under: seeded kills at 120‰ per
/// machine-stage plus 80‰ batch drops (same spec the `kernel_records`
/// chaos pin and the CI chaos-smoke job use).
fn schedule() -> ChaosSpec {
    ChaosSpec::parse("chaos:seed=29:rate=120:drop=80").unwrap()
}

/// One kernel family: name plus a runner returning the output digest
/// and the finished report under the given config.
type Family = (&'static str, Box<dyn Fn(&AmpcConfig) -> (u64, JobReport)>);

fn families() -> Vec<Family> {
    let g = tiny();
    let weighted = gen::random_weights(&tiny(), 1_000, 7);
    let cycles = gen::two_cycles(200, 11);
    let one_cycle = gen::single_cycle(4000, 3);
    let dyn_g = tiny();
    let batches = ampc_graph::dynamic::generate_batches(
        &dyn_g,
        3,
        40,
        ampc_graph::dynamic::BatchMix::Churn,
        11,
    );
    let g1 = g.clone();
    let g2 = g.clone();
    let g3 = g.clone();
    let g4 = g.clone();
    vec![
        (
            "mis",
            Box::new(move |c: &AmpcConfig| {
                let r = mis::ampc_mis(&g1, c);
                (digest_u64s(r.in_mis.iter().map(|&b| b as u64)), r.report)
            }),
        ),
        (
            "matching",
            Box::new(move |c: &AmpcConfig| {
                let r = matching::ampc_matching(&g2, c);
                (digest_u64s(r.partner.iter().map(|&x| x as u64)), r.report)
            }),
        ),
        (
            "msf",
            Box::new(move |c: &AmpcConfig| {
                let r = msf::ampc_msf(&weighted, c);
                (
                    digest_u64s(r.edges.iter().flat_map(|e| [e.u as u64, e.v as u64, e.w])),
                    r.report,
                )
            }),
        ),
        (
            "connectivity",
            Box::new(move |c: &AmpcConfig| {
                let r = connectivity::ampc_connected_components(&g3, c);
                (digest_u64s(r.label.iter().map(|&x| x as u64)), r.report)
            }),
        ),
        (
            "one_vs_two",
            Box::new(move |c: &AmpcConfig| cycle_digest(&cycles, c)),
        ),
        (
            "one_vs_two-single",
            Box::new(move |c: &AmpcConfig| cycle_digest(&one_cycle, c)),
        ),
        (
            "walks",
            Box::new(move |c: &AmpcConfig| {
                let r = walks::ampc_random_walks(&g4, c, 1, 6);
                (
                    digest_u64s(
                        r.walks
                            .iter()
                            .flat_map(|walk| walk.iter().map(|&v| v as u64 + 1).chain([0])),
                    ),
                    r.report,
                )
            }),
        ),
        (
            "dynamic",
            Box::new(move |c: &AmpcConfig| {
                let r = dynamic::ampc_dynamic_cc(&dyn_g, &batches, c);
                (
                    digest_u64s(
                        r.labels
                            .iter()
                            .flat_map(|epoch| epoch.iter().map(|&x| x as u64)),
                    ),
                    r.report,
                )
            }),
        ),
        ("skewed-reads", Box::new(skewed_read_job)),
    ]
}

/// A read job no kernel family covers: one write round seeds 2^12
/// values, then one adaptive round of 256 walkers takes six lockstep
/// `get_many_with` hops whose keys are power-law (the fourth power of
/// a uniform draw: key 0 alone takes ~1/8 of them), so every batch
/// repeats keys, and every fourth probe lands past the store. Each
/// hop's keys derive from the previous hop's values, so a replay that
/// served anything different would change the digest.
fn skewed_read_job(cfg: &AmpcConfig) -> (u64, JobReport) {
    const N: u64 = 1 << 12;
    let skewed_key = |r: u64| {
        let u = mix64(r) >> 32;
        let u2 = (u * u) >> 32;
        let u4 = (u2 * u2) >> 32;
        (u4 * N) >> 32
    };
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
    let acc: Vec<u64> = job.kv_round(
        "SkewVisit",
        dht.current(),
        None,
        (0..256u64).collect(),
        |ctx, items| {
            let mut acc: Vec<u64> = items.iter().map(|&w| w ^ 0x9E37).collect();
            for hop in 0..6u64 {
                ctx.scratch.keys.clear();
                ctx.scratch
                    .keys
                    .extend(acc.iter().enumerate().map(|(i, &a)| {
                        let k = skewed_key(seed ^ a ^ (hop << 20) ^ 0xB0B);
                        if (i as u64 + hop).is_multiple_of(4) {
                            k + N
                        } else {
                            k
                        }
                    }));
                let acc = &mut acc;
                ctx.handle.get_many_with(&ctx.scratch.keys, |i, v| {
                    acc[i] = acc[i].rotate_left(9) ^ v.copied().unwrap_or(0x0DD);
                });
            }
            acc
        },
    );
    (digest_u64s(acc), job.into_report())
}

/// 1-vs-2-cycle digests the answer *and* the cycle count: the boolean
/// alone cannot tell a wrong count (3 cycles found in a 2-cycle input)
/// from the right one.
fn cycle_digest(g: &CsrGraph, c: &AmpcConfig) -> (u64, JobReport) {
    let r = one_vs_two::ampc_one_vs_two(g, c);
    (
        digest_u64s([
            matches!(r.answer, CycleAnswer::Two) as u64,
            r.num_cycles as u64,
        ]),
        r.report,
    )
}

#[test]
fn every_family_byte_identical_under_seeded_schedule() {
    let mut total_replays = 0u64;
    let mut total_retries = 0u64;
    for (name, run) in families() {
        let (clean_digest, clean_report) = run(&cfg());
        let (chaos_digest, chaos_report) = run(&cfg().with_chaos(schedule()));
        assert_eq!(
            chaos_digest, clean_digest,
            "{name}: output changed under chaos"
        );
        assert_eq!(clean_report.replays, 0, "{name}: clean run replayed");
        assert_eq!(clean_report.kv_comm().retries, 0);
        let kv = chaos_report.kv_comm();
        // Fault handling is pure overhead: queries, writes, batches and
        // bytes are unchanged; only the retry counters and time move.
        let clean_kv = clean_report.kv_comm();
        assert_eq!(kv.queries, clean_kv.queries, "{name}: queries changed");
        assert_eq!(kv.batches, clean_kv.batches, "{name}: batches changed");
        assert_eq!(kv.kv_bytes(), clean_kv.kv_bytes(), "{name}: bytes changed");
        assert!(kv.wasted_batches <= kv.batches, "{name}");
        if chaos_report.replays > 0 || kv.retries > 0 {
            assert!(
                chaos_report.sim_ns() > clean_report.sim_ns(),
                "{name}: injected faults must cost simulated time"
            );
        }
        total_replays += chaos_report.replays;
        total_retries += kv.retries;
    }
    assert!(total_replays > 0, "schedule never killed a machine");
    assert!(total_retries > 0, "schedule never dropped a batch");
}

#[test]
fn chaos_counters_deterministic_across_layouts_and_threads() {
    let mut all = families();
    // mis, and the skewed read job (repeated and absent keys).
    for (name, run) in [all.remove(0), all.pop().unwrap()] {
        let (clean_digest, _) = run(&cfg());
        let mut fingerprints = Vec::new();
        for threads in [1, 2, 8] {
            let c = cfg().with_threads(threads).with_chaos(schedule());
            let (digest, report) = run(&c);
            assert_eq!(digest, clean_digest, "{name} threads={threads}");
            let kv = report.kv_comm();
            fingerprints.push((
                report.replays,
                kv.retries,
                kv.wasted_batches,
                kv.backoff_units,
                report.sim_ns(),
            ));
        }
        // Drop decisions hash (seed, machine, batch ordinal); kill rolls
        // hash (seed, stage, machine). Neither sees the layout (whichever
        // `AMPC_STORE` selects) or the thread schedule, so every
        // fingerprint is identical.
        assert!(
            fingerprints.iter().all(|f| *f == fingerprints[0]),
            "{name}: retry/replay accounting diverged across layouts/threads: {fingerprints:?}"
        );
        assert!(
            fingerprints[0].1 > 0,
            "{name}: schedule never dropped a batch"
        );
    }
}

#[test]
fn different_seeds_charge_different_overhead() {
    let (_, run) = families().remove(0); // mis
    let (d1, r1) = run(&cfg().with_chaos(ChaosSpec::seeded(1).with_drop(200)));
    let (d2, r2) = run(&cfg().with_chaos(ChaosSpec::seeded(2).with_drop(200)));
    assert_eq!(d1, d2, "outputs are seed-of-chaos independent");
    let (k1, k2) = (r1.kv_comm(), r2.kv_comm());
    assert!(
        (k1.retries, k1.backoff_units, r1.replays) != (k2.retries, k2.backoff_units, r2.replays),
        "two chaos seeds produced identical accounting (suspicious)"
    );
}

#[test]
fn repeated_explicit_kills_replay_twice() {
    let g = tiny();
    let clean = mis::ampc_mis(&g, &cfg());
    // Stage 2 is the IsInMIS KV round; kill machine 1 there twice and
    // machine 6 (wraps to 6 % 4 = 2) once.
    let spec = ChaosSpec::new(0xD0)
        .with_kill(2, 1)
        .with_kill(2, 1)
        .with_kill(2, 6);
    let faulted = mis::ampc_mis(&g, &cfg().with_chaos(spec));
    assert_eq!(faulted.in_mis, clean.in_mis);
    assert_eq!(faulted.report.replays, 3, "two repeats + one wrapped kill");
    assert_eq!(faulted.report.stages[2].replays, 3);
    assert!(faulted.report.sim_ns() > clean.report.sim_ns());
}

#[test]
fn epoch_kill_fires_inside_its_epoch() {
    let g = tiny();
    let batches =
        ampc_graph::dynamic::generate_batches(&g, 3, 40, ampc_graph::dynamic::BatchMix::Churn, 11);
    let clean = dynamic::ampc_dynamic_cc(&g, &batches, &cfg());
    // Kill machine 0 at the first KV round of epoch 1 (the second
    // update batch): recovery replays the partition against the last
    // sealed generation, mid-stream.
    let spec = ChaosSpec::new(0xE1).with_epoch_kill(1, 0);
    let faulted = dynamic::ampc_dynamic_cc(&g, &batches, &cfg().with_chaos(spec));
    assert_eq!(faulted.labels, clean.labels);
    assert_eq!(faulted.report.replays, 1);
    let range = faulted.report.epoch_stage_range(1);
    let in_epoch: u64 = faulted.report.stages[range].iter().map(|s| s.replays).sum();
    assert_eq!(in_epoch, 1, "the replay must land inside epoch 1");
    let elsewhere: u64 = faulted.report.stages.iter().map(|s| s.replays).sum();
    assert_eq!(elsewhere, 1, "and nowhere else");
}

#[test]
fn stripe_schedule_stays_byte_identical() {
    let g = tiny();
    let clean = connectivity::ampc_connected_components(&g, &cfg());
    // Correlated stripe-wide failures: when a stripe group fires, every
    // machine in it dies together.
    let spec = ChaosSpec::seeded(0x57).with_rate(300).with_stripe(2);
    let faulted = connectivity::ampc_connected_components(&g, &cfg().with_chaos(spec));
    assert_eq!(faulted.label, clean.label);
    assert!(faulted.report.replays > 0, "a 300‰ stripe rate must fire");
    // Whole-group kills: each firing stage's replay count is a multiple
    // of its group size (2 machines per group at stripe=2, P=4).
    for s in &faulted.report.stages {
        assert_eq!(s.replays % 2, 0, "stage {} killed half a stripe", s.name);
    }
}

#[test]
fn two_explicit_kills_replay_twice() {
    let g = tiny();
    let clean = mis::ampc_mis(&g, &cfg());
    let spec = ChaosSpec::parse("chaos:seed=9:kill=2.0+2.3").unwrap();
    let faulted = mis::ampc_mis(&g, &cfg().with_chaos(spec));
    assert_eq!(faulted.in_mis, clean.in_mis);
    assert_eq!(faulted.report.replays, 2, "one replay per listed kill");
}

/// The `Search` body of 1-vs-2-cycle emits two walks per sample, so a
/// replay must splice by the victim's recorded output length: on a
/// single cycle, one explicit kill in `Search` (stage 2) — at machine 0
/// and at a machine past it — still finds exactly one cycle.
#[test]
fn one_vs_two_search_kill_keeps_the_cycle_count() {
    let g = gen::single_cycle(4000, 3);
    let c = AmpcConfig::for_tests();
    let clean = one_vs_two::ampc_one_vs_two(&g, &c);
    assert_eq!(clean.report.stages[2].name, "Search");
    assert_eq!((clean.answer, clean.num_cycles), (CycleAnswer::One, 1));
    for machine in [0, 1, 3] {
        let spec = ChaosSpec::new(1).with_kill(2, machine);
        let faulted = one_vs_two::ampc_one_vs_two(&g, &c.with_chaos(spec));
        assert_eq!(faulted.answer, CycleAnswer::One, "kill=2.{machine}");
        assert_eq!(faulted.num_cycles, 1, "kill=2.{machine}");
        assert_eq!(faulted.report.replays, 1, "kill=2.{machine}");
        assert_eq!(faulted.report.stages[2].replays, 1, "kill=2.{machine}");
    }
}
