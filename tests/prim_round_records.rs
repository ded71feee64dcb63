//! The host side of the §5.5 Prim + contraction round (DESIGN.md §11) is
//! an execution strategy: what the MSF / connectivity kernels output and
//! what they are charged must not depend on it. The numbers below were
//! printed by this file at the commit before the cursor-merge search, the
//! flat arc table and the single-pass contraction existed (push-all heap,
//! per-vertex `Vec` records, `relabeled` + hash-map dedup); every thread
//! count must reproduce them exactly.
//!
//! To re-record after an intended change of the *model* (never of the host
//! representation): zero one `stage_digest`, run the test, and copy the
//! table its failure message prints.

use ampc::prelude::*;
use ampc_core::algorithm::digest_u64s;
use ampc_core::msf::in_memory::kruskal;
use ampc_graph::gen;
use ampc_runtime::JobReport;

/// What a run is held to.
#[derive(Debug, PartialEq, Clone, Copy)]
struct Pinned {
    digest: u64,
    sim_ns: u64,
    /// Stage count, then a digest over every stage's `name`, `ops`,
    /// `shuffle_bytes` and `shuffle_bytes_max_machine`, in order.
    stages: usize,
    stage_digest: u64,
    /// Sums of the per-stage fields (what a person reads first).
    ops: u64,
    shuffle_bytes: u64,
    shuffle_bytes_max_machine: u64,
    /// queries, writes, batches, bytes_read, bytes_written, cache_hits
    kv: [u64; 6],
    peak_generation_bytes: u64,
}

/// The default threshold of the test configuration, and one small enough
/// that every family runs at least two distributed rounds.
const THRESHOLDS: [usize; 2] = [500, 10];

/// Every ambient knob pinned, so the CI knob matrix cannot move a number.
fn cfg(threads: usize, in_memory_threshold: usize) -> AmpcConfig {
    AmpcConfig {
        num_machines: 4,
        in_memory_threshold,
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

/// Tie-heavy weights on the skewed graph, random ones on the other two.
fn weighted(i: usize, g: &CsrGraph) -> WeightedCsrGraph {
    if i == 0 {
        gen::degree_weights(g)
    } else {
        gen::random_weights(g, 1_000, 7 + i as u64)
    }
}

fn record(digest: u64, report: &JobReport) -> Pinned {
    let kv = report.kv_comm();
    let stage_words = report.stages.iter().flat_map(|s| {
        s.name.bytes().map(u64::from).chain([
            u64::MAX,
            s.ops,
            s.shuffle_bytes,
            s.shuffle_bytes_max_machine,
        ])
    });
    Pinned {
        digest,
        sim_ns: report.sim_ns(),
        stages: report.stages.len(),
        stage_digest: digest_u64s(stage_words),
        ops: report.stages.iter().map(|s| s.ops).sum(),
        shuffle_bytes: report.shuffle_bytes(),
        shuffle_bytes_max_machine: report
            .stages
            .iter()
            .map(|s| s.shuffle_bytes_max_machine)
            .sum(),
        kv: [
            kv.queries,
            kv.writes,
            kv.batches,
            kv.bytes_read,
            kv.bytes_written,
            kv.cache_hits,
        ],
        peak_generation_bytes: report.peak_generation_bytes(),
    }
}

/// Runs `family` on every graph × threshold × thread count against
/// `pinned` (graph-major, threshold-minor). A mismatch prints the whole
/// table as it is now, ready to paste.
fn check(
    family: &str,
    pinned: &[Pinned; 6],
    run: impl Fn(usize, &CsrGraph, &AmpcConfig) -> (u64, JobReport),
) {
    let mut now = Vec::new();
    let mut wrong = Vec::new();
    for (i, g) in graphs().iter().enumerate() {
        for (j, &threshold) in THRESHOLDS.iter().enumerate() {
            for threads in [1, 2, 8] {
                let (digest, report) = run(i, g, &cfg(threads, threshold));
                let got = record(digest, &report);
                if threads == 1 {
                    now.push(got);
                    if j == 1 {
                        let second_round = |s: &ampc_runtime::report::StageReport| {
                            s.name.ends_with("-r2") || s.name.ends_with("-fc2")
                        };
                        assert!(
                            report.stages.iter().any(second_round),
                            "{family}, graph {i}: threshold {threshold} ran fewer than 2 rounds"
                        );
                    }
                }
                if got != pinned[i * THRESHOLDS.len() + j] {
                    let stages: Vec<_> = report
                        .stages
                        .iter()
                        .map(|s| {
                            (
                                s.name.as_str(),
                                s.ops,
                                s.shuffle_bytes,
                                s.shuffle_bytes_max_machine,
                            )
                        })
                        .collect();
                    wrong.push(format!(
                        "graph {i}, threshold {threshold}, {threads} threads: {stages:?}"
                    ));
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{family} moved:\n{}\nthe table now (1 thread):\n{now:#?}",
        wrong.join("\n")
    );
}

fn forest_digest(edges: &[ampc_graph::WeightedEdge]) -> u64 {
    digest_u64s(
        edges
            .iter()
            .flat_map(|e| [u64::from(e.u), u64::from(e.v), e.w]),
    )
}

fn label_digest(label: &[NodeId]) -> u64 {
    digest_u64s(label.iter().map(|&l| u64::from(l)))
}

#[test]
fn msf_outputs_and_charges_are_pinned() {
    check("ampc_msf", &MSF, |i, g, c| {
        let out = msf::ampc_msf(&weighted(i, g), c);
        (forest_digest(&out.edges), out.report)
    });
}

#[test]
fn algorithm2_outputs_and_charges_are_pinned() {
    check("ampc_msf_algorithm2", &ALGORITHM2, |i, g, c| {
        let out = msf::ampc_msf_algorithm2(&weighted(i, g), c);
        (forest_digest(&out.edges), out.report)
    });
}

#[test]
fn connectivity_outputs_and_charges_are_pinned() {
    check("ampc_connected_components", &CC, |_, g, c| {
        let out = connectivity::ampc_connected_components(g, c);
        (label_digest(&out.label), out.report)
    });
}

#[test]
fn forest_cc_outputs_and_charges_are_pinned() {
    check("forest_cc", &FOREST_CC, |i, g, c| {
        // A spanning forest of the graph, in Kruskal's output order.
        let forest: Vec<(NodeId, NodeId)> = kruskal(&weighted(i, g))
            .iter()
            .map(|e| (e.u, e.v))
            .collect();
        let out = connectivity::forest_cc(g.num_nodes(), &forest, c);
        (label_digest(&out.label), out.report)
    });
}

const MSF: [Pinned; 6] = [
    Pinned {
        digest: 15590844293978655294,
        sim_ns: 159001445309,
        stages: 19,
        stage_digest: 8747398068828375342,
        ops: 4777,
        shuffle_bytes: 362720,
        shuffle_bytes_max_machine: 100932,
        kv: [4832, 2136, 3788, 585116, 191616, 265],
        peak_generation_bytes: 159472,
    },
    Pinned {
        digest: 15590844293978655294,
        sim_ns: 238001454925,
        stages: 28,
        stage_digest: 15182726715222060520,
        ops: 4124,
        shuffle_bytes: 364388,
        shuffle_bytes_max_machine: 101940,
        kv: [4866, 2154, 3825, 587224, 192732, 265],
        peak_generation_bytes: 159472,
    },
    Pinned {
        digest: 8689015771376465763,
        sim_ns: 80000581993,
        stages: 10,
        stage_digest: 16438518005632580925,
        ops: 8402,
        shuffle_bytes: 156744,
        shuffle_bytes_max_machine: 43778,
        kv: [1949, 800, 1561, 249632, 82120, 144],
        peak_generation_bytes: 77320,
    },
    Pinned {
        digest: 8689015771376465763,
        sim_ns: 159000639074,
        stages: 19,
        stage_digest: 7797196644261133578,
        ops: 1923,
        shuffle_bytes: 174360,
        shuffle_bytes_max_machine: 49446,
        kv: [2067, 864, 1659, 268740, 92304, 154],
        peak_generation_bytes: 77320,
    },
    Pinned {
        digest: 5349569618866933287,
        sim_ns: 159000727457,
        stages: 19,
        stage_digest: 6516184465530826572,
        ops: 4481,
        shuffle_bytes: 180248,
        shuffle_bytes_max_machine: 50616,
        kv: [4605, 1892, 3683, 303576, 101224, 346],
        peak_generation_bytes: 74256,
    },
    Pinned {
        digest: 5349569618866933287,
        sim_ns: 237000732936,
        stages: 27,
        stage_digest: 7388751561807881838,
        ops: 4050,
        shuffle_bytes: 180980,
        shuffle_bytes_max_machine: 51006,
        kv: [4634, 1906, 3716, 305104, 101900, 348],
        peak_generation_bytes: 74256,
    },
];

const ALGORITHM2: [Pinned; 6] = [
    Pinned {
        digest: 15590844293978655294,
        sim_ns: 174007186335,
        stages: 20,
        stage_digest: 4118390449769090441,
        ops: 66375,
        shuffle_bytes: 2027136,
        shuffle_bytes_max_machine: 525380,
        kv: [66390, 24280, 54274, 2981160, 876848, 5764],
        peak_generation_bytes: 605544,
    },
    Pinned {
        digest: 15590844293978655294,
        sim_ns: 253007213160,
        stages: 29,
        stage_digest: 14604689862555950898,
        ops: 64535,
        shuffle_bytes: 2031388,
        shuffle_bytes_max_machine: 528120,
        kv: [66447, 24310, 54328, 2986660, 879788, 5764],
        peak_generation_bytes: 605544,
    },
    Pinned {
        digest: 8689015771376465763,
        sim_ns: 174003547930,
        stages: 20,
        stage_digest: 15875648220612611523,
        ops: 36865,
        shuffle_bytes: 1022624,
        shuffle_bytes_max_machine: 264680,
        kv: [32303, 12212, 26221, 1451524, 445000, 2958],
        peak_generation_bytes: 307320,
    },
    Pinned {
        digest: 8689015771376465763,
        sim_ns: 253003573197,
        stages: 29,
        stage_digest: 17601591396923068305,
        ops: 35108,
        shuffle_bytes: 1026772,
        shuffle_bytes_max_machine: 267016,
        kv: [32366, 12242, 26281, 1457712, 447892, 2962],
        peak_generation_bytes: 307320,
    },
    Pinned {
        digest: 5349569618866933287,
        sim_ns: 174002826459,
        stages: 20,
        stage_digest: 16536851236661065473,
        ops: 34680,
        shuffle_bytes: 785112,
        shuffle_bytes_max_machine: 204610,
        kv: [26437, 9856, 21533, 1155352, 347528, 2030],
        peak_generation_bytes: 245792,
    },
    Pinned {
        digest: 5349569618866933287,
        sim_ns: 253002863384,
        stages: 29,
        stage_digest: 4433482922263556885,
        ops: 31880,
        shuffle_bytes: 793396,
        shuffle_bytes_max_machine: 208720,
        kv: [26517, 9898, 21604, 1165448, 352244, 2034],
        peak_generation_bytes: 245792,
    },
];

const CC: [Pinned; 6] = [
    Pinned {
        digest: 6886428942685241268,
        sim_ns: 239003725517,
        stages: 29,
        stage_digest: 3677226899136404339,
        ops: 8866,
        shuffle_bytes: 402032,
        shuffle_bytes_max_machine: 117456,
        kv: [9210, 4252, 7120, 2250556, 236552, 1006],
        peak_generation_bytes: 159472,
    },
    Pinned {
        digest: 6886428942685241268,
        sim_ns: 318003747417,
        stages: 38,
        stage_digest: 10853679269521719076,
        ops: 8215,
        shuffle_bytes: 405200,
        shuffle_bytes_max_machine: 118562,
        kv: [9390, 4352, 7262, 2258572, 239200, 1028],
        peak_generation_bytes: 159472,
    },
    Pinned {
        digest: 12415529030749286451,
        sim_ns: 81000573298,
        stages: 11,
        stage_digest: 8023269111253241246,
        ops: 13409,
        shuffle_bytes: 154456,
        shuffle_bytes_max_machine: 44166,
        kv: [1949, 800, 1561, 243064, 82120, 130],
        peak_generation_bytes: 77320,
    },
    Pinned {
        digest: 12415529030749286451,
        sim_ns: 318000775857,
        stages: 38,
        stage_digest: 1919281574091547082,
        ops: 3551,
        shuffle_bytes: 196244,
        shuffle_bytes_max_machine: 57492,
        kv: [4009, 1702, 3206, 320308, 112172, 274],
        peak_generation_bytes: 77320,
    },
    Pinned {
        digest: 8571818490149098678,
        sim_ns: 239001064143,
        stages: 29,
        stage_digest: 15823434365296522338,
        ops: 9331,
        shuffle_bytes: 244672,
        shuffle_bytes_max_machine: 68648,
        kv: [9103, 3704, 7287, 447824, 147544, 677],
        peak_generation_bytes: 74256,
    },
    Pinned {
        digest: 8571818490149098678,
        sim_ns: 397001081172,
        stages: 47,
        stage_digest: 1290973088622080272,
        ops: 8556,
        shuffle_bytes: 249268,
        shuffle_bytes_max_machine: 68944,
        kv: [9351, 3818, 7501, 456420, 150748, 684],
        peak_generation_bytes: 74256,
    },
];

const FOREST_CC: [Pinned; 6] = [
    Pinned {
        digest: 6886428942685241268,
        sim_ns: 80000364643,
        stages: 10,
        stage_digest: 5925663937850295221,
        ops: 4688,
        shuffle_bytes: 63504,
        shuffle_bytes_max_machine: 16512,
        kv: [4635, 2048, 3623, 141548, 47920, 269],
        peak_generation_bytes: 35632,
    },
    Pinned {
        digest: 6886428942685241268,
        sim_ns: 159000383198,
        stages: 19,
        stage_digest: 10972630406940826478,
        ops: 4168,
        shuffle_bytes: 66672,
        shuffle_bytes_max_machine: 17780,
        kv: [4820, 2140, 3774, 147360, 50360, 279],
        peak_generation_bytes: 35632,
    },
    Pinned {
        digest: 12415529030749286451,
        sim_ns: 1000006400,
        stages: 1,
        stage_digest: 11117931661787304766,
        ops: 6400,
        shuffle_bytes: 0,
        shuffle_bytes_max_machine: 0,
        kv: [0, 0, 0, 0, 0, 0],
        peak_generation_bytes: 0,
    },
    Pinned {
        digest: 12415529030749286451,
        sim_ns: 159000168269,
        stages: 19,
        stage_digest: 9557709931069373042,
        ops: 1839,
        shuffle_bytes: 30352,
        shuffle_bytes_max_machine: 8948,
        kv: [2052, 852, 1650, 66772, 22176, 145],
        peak_generation_bytes: 15976,
    },
    Pinned {
        digest: 8571818490149098678,
        sim_ns: 80000339450,
        stages: 10,
        stage_digest: 16376373030977338921,
        ops: 4816,
        shuffle_bytes: 64080,
        shuffle_bytes_max_machine: 16504,
        kv: [4503, 1800, 3615, 147288, 46704, 348],
        peak_generation_bytes: 35904,
    },
    Pinned {
        digest: 8571818490149098678,
        sim_ns: 159000358623,
        stages: 19,
        stage_digest: 10935560119415755567,
        ops: 4306,
        shuffle_bytes: 67000,
        shuffle_bytes_max_machine: 17698,
        kv: [4690, 1888, 3770, 152832, 48992, 355],
        peak_generation_bytes: 35904,
    },
];
