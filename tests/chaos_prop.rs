//! Property tests for the chaos engine (vendored proptest stand-in).
//!
//! Three properties, and two facts about the engine itself:
//!
//! * **grammar round-trip** — for arbitrary specs,
//!   `parse(describe(s)) == s` (DESIGN.md §10's canonical-form
//!   contract), and `parse` never panics on adversarial input;
//! * **byte-identical outputs** — arbitrary seeded schedules (random
//!   kill rates, drop rates, retry caps, stripes, explicit and epoch
//!   kills) leave every kernel family's output digest equal to the
//!   fault-free run;
//! * **deterministic accounting** — the same schedule run twice charges
//!   identical replay/retry counters and simulated time;
//! * two chaos seeds charge different overhead for the same output, and
//!   a stripe schedule kills whole stripe groups.
//!
//! The pinned schedule itself, explicit kills in every KV round and the
//! kill schedules that once broke a kernel are modes of the `records`
//! table (`crates/bench/tests/records.rs`).

use ampc::prelude::*;
use ampc_bench::registry::{self, AlgoParams};
use ampc_graph::gen;
use ampc_runtime::chaos::ChaosSpec;
use ampc_runtime::JobReport;
use proptest::collection::vec;
use proptest::prelude::*;
use AlgoInput::{Unweighted, Weighted};

fn cfg() -> AmpcConfig {
    AmpcConfig {
        num_machines: 4,
        in_memory_threshold: 100,
        seed: 0x500C,
        ..AmpcConfig::default()
    }
}

/// An arbitrary chaos spec: any seed, moderate seeded rates (high
/// enough to fire, low enough that a case stays fast), any retry cap,
/// small stripes, and up to the maximum number of explicit kill and
/// epoch-kill events (repeats and out-of-range machines included —
/// machines wrap modulo the machine count at execution time).
fn arb_spec() -> impl Strategy<Value = ChaosSpec> {
    (
        (0..u64::MAX, 0..301u16, 0..301u16),
        (0..17u8, 0..5u16),
        vec((0..6u32, 0..9u32), 0..8),
        vec((0..3u32, 0..9u32), 0..8),
    )
        .prop_map(|((seed, rate, drop), (retries, stripe), kills, ekills)| {
            let mut s = ChaosSpec::new(seed)
                .with_rate(rate)
                .with_drop(drop)
                .with_retries(retries)
                .with_stripe(stripe);
            for (stage, m) in kills {
                s = s.with_kill(stage, m);
            }
            for (epoch, m) in ekills {
                s = s.with_epoch_kill(epoch, m);
            }
            s
        })
}

/// Fragments for adversarial spec strings: valid segments, truncated
/// segments, wrong separators, overflow values.
const SPEC_FRAGMENTS: &[&str] = &[
    "chaos:",
    "chaos",
    "seed=1",
    "seed=",
    "rate=60",
    "rate=1001",
    "drop=40",
    "retries=4",
    "retries=99",
    "stripe=2",
    "kill=1.2",
    "kill=1.2+3.4",
    "kill=1",
    "ekill=0.1",
    "ekill=.",
    ":",
    "=",
    "+",
    ".",
    "0",
    "42",
    "18446744073709551616",
    "bogus=7",
    " ",
    "Seed=1",
];

fn arb_spec_soup() -> impl Strategy<Value = String> {
    vec(0..SPEC_FRAGMENTS.len(), 0..10).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| SPEC_FRAGMENTS[i])
            .collect::<String>()
    })
}

/// Runs one kernel family's AMPC row under `c`, returning its output
/// digest and report.
fn run_family(fam: usize, c: &AmpcConfig) -> (u64, JobReport) {
    let tiny = gen::rmat(8, 1_500, gen::RmatParams::SOCIAL, 42);
    let weighted = gen::random_weights(&tiny, 1_000, 7);
    let cycles = gen::two_cycles(200, 11);
    let p = AlgoParams::default();
    let (family, input, p) = match fam {
        0 => ("mis", Unweighted(&tiny), p),
        1 => ("mm", Unweighted(&tiny), p),
        2 => ("msf", Weighted(&weighted), p),
        3 => ("cc", Unweighted(&tiny), p),
        4 => ("one-vs-two", Unweighted(&cycles), p),
        5 => ("walks", Unweighted(&tiny), AlgoParams { steps: 6, ..p }),
        _ => {
            let dynamic = AlgoParams {
                dyn_batches: 3,
                dyn_ops: 40,
                dyn_seed: 11,
                ..p
            };
            ("dyn-cc", Unweighted(&tiny), dynamic)
        }
    };
    let d = registry::run_family_with(family, Model::Ampc, &input, c, &p).expect("registered");
    (d.output.digest(), d.report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn spec_round_trips_through_canonical_form(spec in arb_spec()) {
        let described = spec.describe();
        let reparsed = ChaosSpec::parse(&described);
        prop_assert_eq!(reparsed, Ok(spec), "describe() produced {described:?}");
    }

    #[test]
    fn parse_survives_adversarial_strings(s in arb_spec_soup()) {
        // Never panics; when it accepts, the canonical form is a fixed
        // point (parse ∘ describe = id on the accepted set).
        if let Ok(spec) = ChaosSpec::parse(&s) {
            prop_assert_eq!(ChaosSpec::parse(&spec.describe()), Ok(spec));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn arbitrary_schedules_leave_outputs_byte_identical(
        spec in arb_spec(),
        fam in 0..7usize,
    ) {
        let (clean_digest, clean_report) = run_family(fam, &cfg());
        let chaos_cfg = cfg().with_chaos(spec);
        let (chaos_digest, chaos_report) = run_family(fam, &chaos_cfg);
        prop_assert_eq!(
            chaos_digest, clean_digest,
            "family {fam} output changed under {}", spec.describe()
        );
        // Retry handling never perturbs the accounted communication.
        let (kv, clean_kv) = (chaos_report.kv_comm(), clean_report.kv_comm());
        prop_assert_eq!(kv.queries, clean_kv.queries);
        prop_assert_eq!(kv.writes, clean_kv.writes);
        prop_assert_eq!(kv.batches, clean_kv.batches);
        prop_assert_eq!(kv.kv_bytes(), clean_kv.kv_bytes());
        // Same schedule again: replay order and every counter is
        // deterministic per seed.
        let (again_digest, again_report) = run_family(fam, &chaos_cfg);
        prop_assert_eq!(again_digest, chaos_digest);
        prop_assert_eq!(again_report.replays, chaos_report.replays);
        let again_kv = again_report.kv_comm();
        prop_assert_eq!(again_kv.retries, kv.retries);
        prop_assert_eq!(again_kv.wasted_batches, kv.wasted_batches);
        prop_assert_eq!(again_kv.backoff_units, kv.backoff_units);
        prop_assert_eq!(again_report.sim_ns(), chaos_report.sim_ns());
    }
}

/// The chaos seed moves what faults cost, never what a kernel outputs.
#[test]
fn different_seeds_charge_different_overhead() {
    let [(d1, r1), (d2, r2)] =
        [1, 2].map(|seed| run_family(0, &cfg().with_chaos(ChaosSpec::seeded(seed).with_drop(200))));
    assert_eq!(d1, d2, "outputs are seed-of-chaos independent");
    let (k1, k2) = (r1.kv_comm(), r2.kv_comm());
    assert!(
        (k1.retries, k1.backoff_units, r1.replays) != (k2.retries, k2.backoff_units, r2.replays),
        "two chaos seeds produced identical accounting (suspicious)"
    );
}

/// Correlated stripe-wide failures: when a stripe group fires, every
/// machine in it dies together, and the output stays byte-identical.
#[test]
fn stripe_schedule_stays_byte_identical() {
    let (clean, _) = run_family(3, &cfg());
    let spec = ChaosSpec::seeded(0x57).with_rate(300).with_stripe(2);
    let (digest, report) = run_family(3, &cfg().with_chaos(spec));
    assert_eq!(digest, clean);
    assert!(report.replays > 0, "a 300‰ stripe rate must fire");
    // Each firing stage's replay count is a multiple of its group size
    // (2 machines per group at stripe=2, P=4).
    for s in &report.stages {
        assert_eq!(s.replays % 2, 0, "stage {} killed half a stripe", s.name);
    }
}
