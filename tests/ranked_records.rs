//! The host-side record building of DirectGraph / PermuteGraph (DESIGN.md
//! §11) is an execution strategy: what the kernels output and what they
//! are charged must not depend on it. The numbers below were recorded
//! with the per-vertex `sort_unstable_by_key` formulation the striped
//! builder replaced; every thread count must reproduce them exactly.

use ampc::prelude::*;
use ampc_core::algorithm::digest_u64s;
use ampc_dht::metrics::CommStats;
use ampc_graph::gen;
use ampc_runtime::JobReport;

/// What a run is held to: output digest, simulated time, total shuffle
/// bytes, every stage's bottleneck-machine shuffle bytes, KV counters.
#[derive(Debug, PartialEq)]
struct Pinned<'a> {
    digest: u64,
    sim_ns: u64,
    shuffle_bytes: u64,
    max_machine: &'a [u64],
    /// queries, writes, batches, bytes_read, bytes_written, cache_hits
    kv: [u64; 6],
}

/// Every ambient knob pinned, so the CI knob matrix cannot move a number.
fn cfg(threads: usize) -> AmpcConfig {
    AmpcConfig {
        num_machines: 4,
        in_memory_threshold: 500,
        batching: true,
        chaos: None,
        ..AmpcConfig::default()
    }
    .with_threads(threads)
}

fn graphs() -> [CsrGraph; 3] {
    [
        gen::rmat(10, 8_000, gen::RmatParams::SOCIAL, 3),
        gen::erdos_renyi(400, 3_000, 11),
        gen::erdos_renyi(900, 2_500, 12),
    ]
}

fn check(
    family: &str,
    pinned: &[Pinned<'static>; 3],
    run: impl Fn(&CsrGraph, &AmpcConfig) -> (u64, JobReport),
) {
    for (i, (g, want)) in graphs().iter().zip(pinned).enumerate() {
        for threads in [1, 2, 8] {
            let (digest, report) = run(g, &cfg(threads));
            let kv: CommStats = report.kv_comm();
            let max_machine: Vec<u64> = report
                .stages
                .iter()
                .map(|s| s.shuffle_bytes_max_machine)
                .collect();
            let got = Pinned {
                digest,
                sim_ns: report.sim_ns(),
                shuffle_bytes: report.shuffle_bytes(),
                max_machine: &max_machine,
                kv: [
                    kv.queries,
                    kv.writes,
                    kv.batches,
                    kv.bytes_read,
                    kv.bytes_written,
                    kv.cache_hits,
                ],
            };
            assert_eq!(&got, want, "{family}, graph {i}, {threads} threads");
        }
    }
}

#[test]
fn mis_outputs_and_charges_are_pinned() {
    check("mis", &MIS, |g, c| {
        let out = mis::ampc_mis(g, c);
        (
            digest_u64s(out.in_mis.iter().map(|&b| b as u64)),
            out.report,
        )
    });
}

#[test]
fn matching_outputs_and_charges_are_pinned() {
    check("mm", &MM, |g, c| {
        let out = matching::ampc_matching(g, c);
        (
            digest_u64s(out.partner.iter().map(|&p| p as u64)),
            out.report,
        )
    });
}

const MIS: [Pinned<'static>; 3] = [
    Pinned {
        digest: 15953650136978639557,
        sim_ns: 17000193307,
        shuffle_bytes: 36136,
        max_machine: &[9348, 0, 0],
        kv: [1634, 1024, 618, 79332, 40232, 89],
    },
    Pinned {
        digest: 9711216576291673329,
        sim_ns: 17000091165,
        shuffle_bytes: 16620,
        max_machine: &[4760, 0, 0],
        kv: [958, 400, 566, 35392, 18220, 116],
    },
    Pinned {
        digest: 18144619370847960462,
        sim_ns: 17000107487,
        shuffle_bytes: 20776,
        max_machine: &[5320, 0, 0],
        kv: [1761, 900, 869, 42204, 24376, 153],
    },
];

const MM: [Pinned<'static>; 3] = [
    Pinned {
        digest: 609034232174119995,
        sim_ns: 17000404813,
        shuffle_bytes: 59984,
        max_machine: &[15780, 0, 0],
        kv: [2185, 1024, 1169, 218312, 64080, 2717],
    },
    Pinned {
        digest: 7222381998748056742,
        sim_ns: 17000210778,
        shuffle_bytes: 28440,
        max_machine: &[8072, 0, 0],
        kv: [1526, 400, 1134, 116684, 30040, 1735],
    },
    Pinned {
        digest: 6757947392582864843,
        sim_ns: 17000223348,
        shuffle_bytes: 30752,
        max_machine: &[7912, 0, 0],
        kv: [2775, 900, 1883, 110828, 34352, 2669],
    },
];
