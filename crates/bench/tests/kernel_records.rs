//! The per-round query / communication quantities 1910.05385 and
//! 1805.03055 state their bounds in — KV rounds, shuffles, charged round
//! trips, queries, KV bytes, the peak sealed generation — and the output
//! digest are pure functions of (seed, kernel): no thread count, store
//! substrate or build profile may move them. Ten kernels are held to the
//! values the retired wall-clock suite had committed.
//!
//! The seven registry rows run on the `ok` Mid analogue and their
//! constants are, digit for digit, the `BENCH_perf.json` of commit
//! `6affb5f`; the three rows that are heavy at Mid (the substrate kernels
//! and the P = 100 cycle) run at their `Scale::Test` sizes, with values
//! that commit's suite binary printed at `AMPC_SCALE=test`. To re-record
//! after an intended change of the *model*: run the test and copy the
//! `Pinned { .. }` its failure message prints.
//!
//! Every ambient knob is fixed in the config except the store, so the CI
//! `store-socket` column holds the same ten pins over the wire.

use ampc_bench::registry::{self, AlgoParams};
use ampc_bench::util::{cycle_config, cycle_sizes, harness_config, load, GRAPH_SEED};
use ampc_core::algorithm::{digest_u64s, AlgoInput, Model};
use ampc_dht::store::{Dht, GenerationWriter};
use ampc_graph::datasets::{Dataset, Scale};
use ampc_graph::{gen, CsrGraph};
use ampc_runtime::driver::drive;
use ampc_runtime::{AmpcConfig, ChaosSpec, Job, JobReport};

/// What a run is held to.
#[derive(Debug, PartialEq, Clone, Copy)]
struct Pinned {
    kv_rounds: usize,
    shuffles: usize,
    round_trips: u64,
    queries: u64,
    kv_bytes: u64,
    peak_generation_bytes: u64,
    output_digest: u64,
}

impl Pinned {
    fn of(report: &JobReport, output_digest: u64) -> Self {
        let kv = report.kv_comm();
        Pinned {
            kv_rounds: report.num_kv_rounds(),
            shuffles: report.num_shuffles(),
            round_trips: report.kv_round_trips(),
            queries: kv.queries,
            kv_bytes: kv.kv_bytes(),
            peak_generation_bytes: report.peak_generation_bytes(),
            output_digest,
        }
    }
}

const THREADS: [usize; 2] = [1, 2];

/// `cfg` with every environment-derived field but the thread count
/// overwritten, so the CI knob matrix can move nothing but the store.
fn fixed(cfg: AmpcConfig) -> AmpcConfig {
    AmpcConfig {
        batching: true,
        chaos: None,
        store: None,
        ..cfg
    }
}

/// Holds `kernel` under `cfg` to `want` at every thread count.
fn check(
    name: &str,
    cfg: AmpcConfig,
    want: Pinned,
    kernel: impl Fn(&AmpcConfig) -> (JobReport, u64),
) {
    for threads in THREADS {
        let (report, digest) = kernel(&cfg.with_threads(threads));
        assert_eq!(
            Pinned::of(&report, digest),
            want,
            "{name}, {threads} threads"
        );
    }
}

fn ok_mid() -> CsrGraph {
    load(Dataset::Orkut, Scale::Mid)
}

/// One AMPC or MPC family through the registry, the `ampc run` code path.
fn run_family(
    family: &str,
    model: Model,
    g: &CsrGraph,
    cfg: &AmpcConfig,
    params: &AlgoParams,
) -> (JobReport, u64) {
    let r = registry::run_family_with(family, model, &AlgoInput::Unweighted(g), cfg, params)
        .expect("family is registered");
    (r.report, r.output.digest())
}

fn walk(walkers_per_node: usize, steps: usize) -> AlgoParams {
    AlgoParams {
        walkers_per_node,
        steps,
        ..Default::default()
    }
}

fn dyn_params() -> AlgoParams {
    AlgoParams {
        dyn_batches: 8,
        dyn_ops: 256,
        ..Default::default()
    }
}

const DYN_CC: Pinned = Pinned {
    kv_rounds: 17,
    shuffles: 1,
    round_trips: 170,
    queries: 4096,
    kv_bytes: 360448,
    peak_generation_bytes: 32768,
    output_digest: 6727843813695207868,
};

/// The `dyn-cc` row beyond `Pinned`: total `ops` and the number of
/// `DynRebuild-*` stages. Any spanning forest labels the graph correctly,
/// so a drift in the maintained forest moves neither the digest nor a KV
/// count — only the regions later batches rebuild, and with them these.
/// Printed at `18e8bee`, before the kernel's host state was rewritten.
const DYN_CC_WORK: (u64, usize) = (10802256, 8);

fn dyn_cc_work(report: &JobReport) -> (u64, usize) {
    let ops = report.stages.iter().map(|s| s.ops).sum();
    let rebuilds = report
        .stages
        .iter()
        .filter(|s| s.name.starts_with("DynRebuild"))
        .count();
    (ops, rebuilds)
}

#[test]
fn registry_kernels_on_the_ok_mid_analogue_hold_their_pins() {
    let rows: [(&str, &str, bool, AlgoParams, Pinned); 7] = [
        (
            "cc",
            "cc",
            true,
            AlgoParams::default(),
            Pinned {
                kv_rounds: 8,
                shuffles: 10,
                round_trips: 10417,
                queries: 12533,
                kv_bytes: 22652720,
                peak_generation_bytes: 1806080,
                output_digest: 12836948064979459057,
            },
        ),
        (
            "mis",
            "mis",
            true,
            AlgoParams::default(),
            Pinned {
                kv_rounds: 2,
                shuffles: 1,
                round_trips: 3829,
                queries: 5857,
                kv_bytes: 1729292,
                peak_generation_bytes: 328320,
                output_digest: 13521415645796549998,
            },
        ),
        (
            "mm",
            "mm",
            true,
            AlgoParams::default(),
            Pinned {
                kv_rounds: 2,
                shuffles: 1,
                round_trips: 8086,
                queries: 10114,
                kv_bytes: 6287524,
                peak_generation_bytes: 623872,
                output_digest: 5088117128787151530,
            },
        ),
        (
            "mis-uncached",
            "mis",
            false,
            AlgoParams::default(),
            Pinned {
                kv_rounds: 2,
                shuffles: 1,
                round_trips: 24600,
                queries: 26628,
                kv_bytes: 5464448,
                peak_generation_bytes: 328320,
                output_digest: 13521415645796549998,
            },
        ),
        (
            "walks",
            "walks",
            true,
            walk(1, 8),
            Pinned {
                kv_rounds: 2,
                shuffles: 1,
                round_trips: 90,
                queries: 6329,
                kv_bytes: 4696860,
                peak_generation_bytes: 623872,
                output_digest: 6442180917053831350,
            },
        ),
        (
            "walks-uncached",
            "walks",
            false,
            walk(4, 32),
            Pinned {
                kv_rounds: 2,
                shuffles: 1,
                round_trips: 330,
                queries: 262144,
                kv_bytes: 295450720,
                peak_generation_bytes: 623872,
                output_digest: 4136680030114957749,
            },
        ),
        ("dyn-cc", "dyn-cc", true, dyn_params(), DYN_CC),
    ];
    let g = ok_mid();
    for (name, family, caching, params, want) in rows {
        let cfg = fixed(harness_config(Scale::Mid)).with_caching(caching);
        check(name, cfg, want, |c| {
            let (report, digest) = run_family(family, Model::Ampc, &g, c, &params);
            if family == "dyn-cc" {
                assert_eq!(dyn_cc_work(&report), DYN_CC_WORK, "dyn-cc ops, rebuilds");
            }
            (report, digest)
        });
    }
}

/// Recovery is replay against sealed generations: under a fault schedule
/// that fires, `dyn-cc` is charged and outputs what the fault-free run does.
#[test]
fn dyn_cc_under_chaos_holds_the_fault_free_pin() {
    let spec = ChaosSpec::parse("chaos:seed=29:rate=120:drop=80").expect("the spec parses");
    let g = ok_mid();
    let cfg = fixed(harness_config(Scale::Mid)).with_chaos(spec);
    check("dyn-cc under chaos", cfg, DYN_CC, |c| {
        let (report, digest) = run_family("dyn-cc", Model::Ampc, &g, c, &dyn_params());
        assert!(
            report.replays > 0 && report.kv_comm().retries > 0,
            "the schedule fired no kill or no drop: nothing was recovered from"
        );
        assert_eq!(dyn_cc_work(&report), DYN_CC_WORK, "dyn-cc ops, rebuilds");
        (report, digest)
    });
}

/// Maintained labels equal the labels an MPC recompute per batch produces,
/// epoch by epoch (the digest covers every epoch's labelling).
#[test]
fn dyn_cc_mpc_recompute_matches_the_maintained_digest() {
    let g = ok_mid();
    for threads in THREADS {
        let cfg = fixed(harness_config(Scale::Mid)).with_threads(threads);
        let (_, digest) = run_family("dyn-cc", Model::Mpc, &g, &cfg, &dyn_params());
        assert_eq!(digest, DYN_CC.output_digest, "{threads} threads");
    }
}

/// The cycle family on the paper's 100-machine configuration.
#[test]
fn one_vs_two_cycle_at_p100_holds_its_pin() {
    let k = *cycle_sizes(Scale::Test)
        .last()
        .expect("sizes are non-empty");
    let cycle = gen::single_cycle(k, GRAPH_SEED);
    let want = Pinned {
        kv_rounds: 2,
        shuffles: 1,
        round_trips: 153384,
        queries: 199906,
        kv_bytes: 7197744,
        peak_generation_bytes: 2400000,
        output_digest: 13160624358351167139,
    };
    check(
        "one-vs-two-cycle",
        fixed(cycle_config(Scale::Test)),
        want,
        |c| run_family("one-vs-two", Model::Ampc, &cycle, c, &AlgoParams::default()),
    );
}

/// Writes `key -> value(key)` for `0..n` in one KV round, one `put_many`
/// batch per machine (the KV-Write pattern of every AMPC kernel), and
/// seals the generation.
fn write_table(job: &mut Job, stage: &str, n: u64, value: impl Fn(u64) -> u64 + Sync) -> Dht<u64> {
    let mut dht: Dht<u64> = Dht::new();
    let writer = GenerationWriter::new();
    job.kv_round(
        stage,
        dht.current(),
        Some(&writer),
        (0..n).collect(),
        |ctx, items: &[u64]| {
            ctx.handle.put_many(items.iter().map(|&k| (k, value(k))));
            Vec::<()>::new()
        },
    );
    dht.push(writer.seal());
    dht
}

/// Reads `keys` through `steps` dependent hops in machine lockstep, one
/// batched lookup per hop; returns the final values.
fn chase(job: &mut Job, stage: &str, dht: &Dht<u64>, keys: Vec<u64>, steps: usize) -> Vec<u64> {
    job.kv_round(stage, dht.current(), None, keys, |ctx, items| {
        let mut cur = items.to_vec();
        let mut next = Vec::with_capacity(cur.len());
        for _ in 0..steps {
            next.clear();
            ctx.handle.get_many_with(&cur, |_, v| {
                next.push(*v.expect("every key was written this job"));
            });
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    })
}

/// The sealed read path alone: a scrambled successor function over `0..n`,
/// then every key chased 8 hops (reads outnumber writes 8 to 1, each a
/// dependent random access).
#[test]
fn pointer_chase_holds_its_pin() {
    const N: u64 = 1 << 14;
    let want = Pinned {
        kv_rounds: 2,
        shuffles: 0,
        round_trips: 90,
        queries: 131072,
        kv_bytes: 2359296,
        peak_generation_bytes: 262144,
        output_digest: 14746751610800537631,
    };
    check(
        "pointer-chase",
        fixed(harness_config(Scale::Test)),
        want,
        |c| {
            let run = drive(c, |job| {
                let succ = |v: u64| (v.wrapping_mul(0x9E37_79B9) ^ (v >> 7)) % N;
                let dht = write_table(job, "ChaseWrite", N, succ);
                digest_u64s(chase(job, "Chase", &dht, (0..N).collect(), 8))
            });
            (run.report, run.output)
        },
    );
}

/// The write path alone: stripe-log appends and one seal, then a read-back
/// of every 16th key.
#[test]
fn batch_write_holds_its_pin() {
    const N: u64 = 1 << 12;
    let want = Pinned {
        kv_rounds: 2,
        shuffles: 0,
        round_trips: 20,
        queries: 256,
        kv_bytes: 69632,
        peak_generation_bytes: 65536,
        output_digest: 6777232649115488335,
    };
    check(
        "batch-write",
        fixed(harness_config(Scale::Test)),
        want,
        |c| {
            let run = drive(c, |job| {
                let value = |k: u64| k.wrapping_mul(0x9E37_79B9) ^ (k >> 5);
                let dht = write_table(job, "BatchWrite", N, value);
                let sample = (0..N).step_by(16).collect();
                digest_u64s(chase(job, "ReadBack", &dht, sample, 1))
            });
            (run.report, run.output)
        },
    );
}
