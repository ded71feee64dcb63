//! Every determinism pin in one table (DESIGN.md §3). A **row** is a
//! kernel on one input under one config; its **record** holds the output
//! digest, `sim_ns`, the stage count and a digest over every stage's name
//! / `ops` / shuffle bytes, the summed `ops` and shuffle bytes,
//! `kv_comm()`'s six counters, the peak sealed generation, KV rounds,
//! shuffles and `DynRebuild` stages — the per-round quantities 1910.05385
//! and 1805.03055 state their bounds in. [`check`] runs each row at 1, 2
//! and 8 executor threads with every ambient knob but the store fixed, so
//! the CI `store-socket` column holds the same table over the wire.
//! Host-side execution strategies (DESIGN.md §11) must move no record;
//! after an intended change of the *model*, paste the table a failure
//! prints over [`PINS`].

use std::collections::BTreeMap;
use std::iter::once;
use std::sync::{Arc, OnceLock};

use ampc_bench::registry::{self, AlgoParams};
use ampc_bench::util::{cycle_config, harness_config, load, md_table, GRAPH_SEED};
use ampc_core::algorithm::{digest_u64s, AlgoInput, InputKind, Model};
use ampc_dht::store::{Dht, GenerationWriter};
use ampc_graph::datasets::{Dataset, Scale};
use ampc_graph::{gen, CsrGraph, WeightedCsrGraph};
use ampc_runtime::driver::drive;
use ampc_runtime::{AmpcConfig, ChaosSpec, Job, JobReport};
use AlgoInput::{Unweighted, Weighted};

/// The table's columns: the row name, then one per [`Record`] value.
const HEADER: &str = "row digest sim_ns stages stage_digest ops shuffle shuffle_max queries \
                      writes batches read written hits peak_gen kv_rounds shuffles rebuilds";

/// What a run is held to, in [`HEADER`] order.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Record([u64; 17]);

/// The [`Record`] columns the dyn-cc tests read.
const DIGEST: usize = 0;
const SIM_NS: usize = 1;

impl Record {
    fn of((digest, report): Run) -> Self {
        let stages = &report.stages;
        let kv = report.kv_comm();
        let stage_words = stages.iter().flat_map(|s| {
            let (bytes, max) = (s.shuffle_bytes, s.shuffle_bytes_max_machine);
            let costs = [u64::MAX, s.ops, bytes, max];
            s.name.bytes().map(u64::from).chain(costs)
        });
        let rebuilds = stages.iter().filter(|s| s.name.starts_with("DynRebuild"));
        Record([
            digest,
            report.sim_ns(),
            stages.len() as u64,
            digest_u64s(stage_words),
            stages.iter().map(|s| s.ops).sum(),
            report.shuffle_bytes(),
            stages.iter().map(|s| s.shuffle_bytes_max_machine).sum(),
            kv.queries,
            kv.writes,
            kv.batches,
            kv.bytes_read,
            kv.bytes_written,
            kv.cache_hits,
            report.peak_generation_bytes(),
            report.num_kv_rounds() as u64,
            report.num_shuffles() as u64,
            rebuilds.count() as u64,
        ])
    }
}

/// The rows of [`PINS`] by name.
fn pins() -> BTreeMap<&'static str, Record> {
    let parse = |line: &'static str| {
        let mut cells = line.split('|').map(str::trim).filter(|c| !c.is_empty());
        let name = cells.next()?;
        let values: Vec<u64> = cells.map(|c| c.parse().ok()).collect::<Option<_>>()?;
        Some((name, Record(values.try_into().ok()?)))
    };
    PINS.lines().filter_map(parse).collect()
}

/// A run's output digest and report.
type Run = (u64, JobReport);

/// A kernel on one input under one config.
struct Row {
    name: String,
    cfg: AmpcConfig,
    run: Box<dyn Fn(&AmpcConfig) -> Run>,
}

fn row(name: String, cfg: AmpcConfig, run: impl Fn(&AmpcConfig) -> Run + 'static) -> Row {
    let run = Box::new(run);
    Row { name, cfg, run }
}

const THREADS: [usize; 3] = [1, 2, 8];

/// `cfg` at `threads` executor threads, with every other environment-derived
/// field but the store overwritten.
fn fixed(mut cfg: AmpcConfig, threads: usize) -> AmpcConfig {
    (cfg.chaos, cfg.store) = (None, None);
    cfg.with_threads(threads)
}

/// Holds every row to its pin at each of [`THREADS`]. A mismatch prints
/// each moved record, then the whole table as it is now, ready to paste.
fn check(rows: Vec<Row>) {
    let pins = pins();
    let mut moved = Vec::new();
    for Row { name, cfg, run } in &rows {
        for threads in THREADS {
            let got = Record::of(run(&fixed(*cfg, threads)));
            if pins.get(name.as_str()) != Some(&got) {
                moved.push(format!("{name} at {threads} threads: {:?}", got.0));
            }
        }
    }
    let moved = moved.join("\n");
    assert!(moved.is_empty(), "{moved}\nthe table now:\n{}", table_now());
}

/// Every row of every suite at one thread, recorded once per process
/// however many tests fail.
fn table_now() -> &'static str {
    static NOW: OnceLock<String> = OnceLock::new();
    NOW.get_or_init(|| {
        let line = |Row { name, cfg, run }: Row| {
            let values = Record::of(run(&fixed(cfg, 1))).0.map(|v| v.to_string());
            once(name).chain(values).collect()
        };
        let rows: Vec<Vec<String>> = SUITES.iter().flat_map(|suite| suite()).map(line).collect();
        md_table(&HEADER.split_whitespace().collect::<Vec<_>>(), &rows)
    })
}

/// One `#[test]` per suite, checking its rows; [`SUITES`] lists every
/// suite's rows in table order.
macro_rules! suites {
    ($($test:ident: $rows:expr;)*) => {
        const SUITES: &[fn() -> Vec<Row>] = &[$(|| $rows),*];
        $(#[test] fn $test() { check($rows); })*
    };
}

suites! {
    mis_outputs_and_charges_are_pinned: small_rows("mis", "mis");
    matching_outputs_and_charges_are_pinned: small_rows("mm", "mm");
    msf_outputs_and_charges_are_pinned: small_rows("msf", "msf");
    algorithm2_outputs_and_charges_are_pinned: small_rows("algorithm2", "msf/algorithm2");
    connectivity_outputs_and_charges_are_pinned: small_rows("cc", "cc");
    forest_cc_outputs_and_charges_are_pinned: small_rows("forest_cc", "cc/forest");
    truncated_mis_outputs_and_charges_are_pinned: small_rows("mis/truncated", "mis/truncated");
    truncated_matching_outputs_and_charges_are_pinned: small_rows("mm/truncated", "mm/truncated");
    loglog_matching_outputs_and_charges_are_pinned: small_rows("mm/loglog", "mm/loglog");
    registry_kernels_on_the_ok_mid_analogue_hold_their_pins: ok_mid_rows();
    one_vs_two_cycle_at_p100_holds_its_pin: cycle_rows();
    // The sealed read path alone: a scrambled successor function, every
    // key chased 8 hops (reads outnumber writes 8 to 1).
    pointer_chase_holds_its_pin: vec![kv_row("pointer-chase", ["ChaseWrite", "Chase"],
        [1 << 14, 1, 8], |v| (v.wrapping_mul(0x9E37_79B9) ^ (v >> 7)) % (1 << 14))];
    // The write path alone: stripe-log appends and one seal, then a
    // read-back of every 16th key.
    batch_write_holds_its_pin: vec![kv_row("batch-write", ["BatchWrite", "ReadBack"],
        [1 << 12, 16, 1], |k| k.wrapping_mul(0x9E37_79B9) ^ (k >> 5))];
}

/// Recovery is replay against sealed generations: under a fault schedule
/// that fires, `dyn-cc` records what the fault-free row does, bar the
/// simulated time the retries cost.
#[test]
fn dyn_cc_under_chaos_holds_the_fault_free_pin() {
    let spec = ChaosSpec::parse("chaos:seed=29:rate=120:drop=80").expect("the spec parses");
    let want = pins()["dyn-cc/ok-mid"];
    for threads in THREADS {
        let (digest, report) = dyn_cc(Model::Ampc, &fixed(mid(), threads).with_chaos(spec));
        let fired = report.replays > 0 && report.kv_comm().retries > 0;
        assert!(fired, "the schedule fired no kill or no drop");
        let mut got = Record::of((digest, report));
        got.0[SIM_NS] = want.0[SIM_NS];
        assert_eq!(got, want, "{threads} threads");
    }
}

/// Maintained labels equal the labels an MPC recompute per batch produces,
/// epoch by epoch (the digest covers every epoch's labelling).
#[test]
fn dyn_cc_mpc_recompute_matches_the_maintained_digest() {
    let want = pins()["dyn-cc/ok-mid"].0[DIGEST];
    for threads in THREADS {
        let (digest, _) = dyn_cc(Model::Mpc, &fixed(mid(), threads));
        assert_eq!(digest, want, "{threads} threads");
    }
}

/// One family through the registry, the `ampc run` code path.
fn run(family: &str, model: Model, input: AlgoInput, c: &AmpcConfig, p: AlgoParams) -> Run {
    let r = registry::run_family_with(family, model, &input, c, &p).expect("registered");
    (r.output.digest(), r.report)
}

/// The default threshold of the small rows, and one small enough that
/// every MSF / CC family runs at least two distributed rounds.
const PRIM_THRESHOLDS: [usize; 2] = [500, 10];

/// Registry row `family` on three small graphs and 4 machines, as rows
/// named `{name}/{graph}/t{threshold}`: the MIS and matching rows at the
/// default threshold, the MSF / CC rows at both [`PRIM_THRESHOLDS`].
fn small_rows(name: &'static str, family: &'static str) -> Vec<Row> {
    let graphs = [
        ("rmat10", gen::rmat(10, 8_000, gen::RmatParams::SOCIAL, 3)),
        ("er400", gen::erdos_renyi(400, 3_000, 11)),
        ("er900", gen::erdos_renyi(900, 2_500, 12)),
    ];
    let prim = family.starts_with("msf") || family.starts_with("cc");
    let mut rows = Vec::new();
    for (i, (graph, g)) in graphs.into_iter().enumerate() {
        // Tie-heavy weights on the skewed graph, random ones on the other two.
        let wg = match i {
            0 => gen::degree_weights(&g),
            _ => gen::random_weights(&g, 1_000, 7 + i as u64),
        };
        let inputs = Arc::new((g, wg));
        for &t in &PRIM_THRESHOLDS[..1 + prim as usize] {
            let mut cfg = AmpcConfig::for_tests();
            cfg.in_memory_threshold = t;
            let inputs = inputs.clone();
            let run = move |c: &AmpcConfig| small(family, &inputs.0, &inputs.1, c);
            rows.push(row(format!("{name}/{graph}/t{t}"), cfg, run));
        }
    }
    rows
}

fn small(family: &str, g: &CsrGraph, wg: &WeightedCsrGraph, c: &AmpcConfig) -> Run {
    let input = match registry::lookup(family, Model::Ampc).map(|e| e.input) {
        Some(InputKind::Weighted) => Weighted(wg),
        _ => Unweighted(g),
    };
    let (digest, report) = run(family, Model::Ampc, input, c, <_>::default());
    let t = c.in_memory_threshold;
    let second = |n: &str| n.ends_with("-r2") || n.ends_with("-fc2");
    let one_round = t == PRIM_THRESHOLDS[1] && !report.stages.iter().any(|s| second(&s.name));
    assert!(!one_round, "{family} ran one round at threshold {t}");
    (digest, report)
}

/// The `ok` Mid analogue, generated once per process.
fn ok_mid() -> &'static Arc<CsrGraph> {
    static G: OnceLock<Arc<CsrGraph>> = OnceLock::new();
    G.get_or_init(|| Arc::new(load(Dataset::Orkut, Scale::Mid)))
}

/// The harness config of the Mid tier, which the `ok` Mid rows run under.
fn mid() -> AmpcConfig {
    harness_config(Scale::Mid)
}

/// `dyn-cc` on the `ok` Mid analogue: 8 update batches of 256.
fn dyn_cc(model: Model, c: &AmpcConfig) -> Run {
    let mut p = AlgoParams::default();
    (p.dyn_batches, p.dyn_ops) = (8, 256);
    run("dyn-cc", model, Unweighted(ok_mid()), c, p)
}

/// Seven registry kernels on the `ok` Mid analogue; an `-uncached` row
/// runs its family with the per-machine cache off. Each tuple ends in the
/// walk shape (walkers per vertex, steps) the walk families read.
fn ok_mid_rows() -> Vec<Row> {
    let rows = [
        ("cc", (1, 8)),
        ("mis", (1, 8)),
        ("mm", (1, 8)),
        ("mis-uncached", (1, 8)),
        ("walks", (1, 8)),
        ("walks-uncached", (4, 32)),
    ];
    let family_row = |(name, walk): (&'static str, _)| {
        let family = name.trim_end_matches("-uncached");
        let mut p = AlgoParams::default();
        (p.walkers_per_node, p.steps) = walk;
        let (g, cfg) = (ok_mid().clone(), mid().with_caching(family == name));
        row(format!("{name}/ok-mid"), cfg, move |c| {
            run(family, Model::Ampc, Unweighted(&g), c, p)
        })
    };
    let dyn_cc = row("dyn-cc/ok-mid".into(), mid(), |c| dyn_cc(Model::Ampc, c));
    rows.into_iter().map(family_row).chain([dyn_cc]).collect()
}

/// The cycle family on the paper's 100-machine configuration: one
/// 100 000-vertex cycle (the largest `Scale::Test` size) and two
/// 200-vertex cycles.
fn cycle_rows() -> Vec<Row> {
    let cycles = [
        ("1x100000", gen::single_cycle(100_000, GRAPH_SEED)),
        ("2x200", gen::two_cycles(200, 11)),
    ];
    let cycle_row = |(name, g)| {
        let (name, cfg) = (format!("one-vs-two/{name}"), cycle_config(Scale::Test));
        row(name, cfg, move |c| {
            run("one-vs-two", Model::Ampc, Unweighted(&g), c, <_>::default())
        })
    };
    cycles.into_iter().map(cycle_row).collect()
}

/// A bare KV job over keys `0..n`: one KV round writes `key -> value(key)`
/// (one `put_many` batch per machine, the KV-Write pattern of every AMPC
/// kernel) and seals; a second chases every `stride`-th key through
/// `hops` dependent batched lookups in machine lockstep. `stages` names
/// the two rounds.
fn kv_row(name: &str, stages: [&'static str; 2], shape: [usize; 3], value: fn(u64) -> u64) -> Row {
    let [n, stride, hops] = shape;
    let job = move |job: &mut Job| {
        let (mut dht, writer) = (Dht::new(), GenerationWriter::new());
        let (gen, keys) = (dht.current(), (0..n as u64).collect());
        job.kv_round(stages[0], gen, Some(&writer), keys, |ctx, keys: &[u64]| {
            ctx.handle.put_many(keys.iter().map(|&k| (k, value(k))));
            Vec::<()>::new()
        });
        dht.push(writer.seal());
        let (gen, keys) = (dht.current(), (0..n as u64).step_by(stride).collect());
        let ends = job.kv_round(stages[1], gen, None, keys, |ctx, keys| {
            let (mut cur, mut next) = (keys.to_vec(), Vec::new());
            for _ in 0..hops {
                next.clear();
                ctx.handle.get_many_with(&cur, |_, v| next.extend(v));
                std::mem::swap(&mut cur, &mut next);
            }
            cur
        });
        digest_u64s(ends)
    };
    row(name.into(), harness_config(Scale::Test), move |c| {
        let run = drive(c, job);
        (run.output, run.report)
    })
}

/// The pinned records, one row per line.
const PINS: &str = "
| row                    | digest               | sim_ns       | stages | stage_digest         | ops      | shuffle | shuffle_max | queries | writes | batches | read      | written | hits  | peak_gen | kv_rounds | shuffles | rebuilds |
| ---------------------- | -------------------- | ------------ | ------ | -------------------- | -------- | ------- | ----------- | ------- | ------ | ------- | --------- | ------- | ----- | -------- | --------- | -------- | -------- |
| mis/rmat10/t500        | 15953650136978639557 | 17000193307  | 3      | 6697106500637843023  | 2155     | 36136   | 9348        | 1634    | 1024   | 618     | 79332     | 40232   | 89    | 40232    | 2         | 1        | 0        |
| mis/er400/t500         | 9711216576291673329  | 17000091165  | 3      | 13872087013967793847 | 1400     | 16620   | 4760        | 958     | 400    | 566     | 35392     | 18220   | 116   | 18220    | 2         | 1        | 0        |
| mis/er900/t500         | 18144619370847960462 | 17000107487  | 3      | 12821031241509385093 | 2469     | 20776   | 5320        | 1761    | 900    | 869     | 42204     | 24376   | 153   | 24376    | 2         | 1        | 0        |
| mm/rmat10/t500         | 609034232174119995   | 17000404813  | 3      | 10493892727369676906 | 1807     | 59984   | 15780       | 2185    | 1024   | 1169    | 218312    | 64080   | 2717  | 64080    | 2         | 1        | 0        |
| mm/er400/t500          | 7222381998748056742  | 17000210778  | 3      | 3320643073610854677  | 1887     | 28440   | 8072        | 1526    | 400    | 1134    | 116684    | 30040   | 1735  | 30040    | 2         | 1        | 0        |
| mm/er900/t500          | 6757947392582864843  | 17000223348  | 3      | 10216600198708597355 | 2948     | 30752   | 7912        | 2775    | 900    | 1883    | 110828    | 34352   | 2669  | 34352    | 2         | 1        | 0        |
| msf/rmat10/t500        | 15590844293978655294 | 159001445309 | 19     | 8747398068828375342  | 4777     | 362720  | 100932      | 4832    | 2136   | 3788    | 585116    | 191616  | 265   | 159472   | 8         | 10       | 0        |
| msf/rmat10/t10         | 15590844293978655294 | 238001454925 | 28     | 15182726715222060520 | 4124     | 364388  | 101940      | 4866    | 2154   | 3825    | 587224    | 192732  | 265   | 159472   | 12        | 15       | 0        |
| msf/er400/t500         | 8689015771376465763  | 80000581993  | 10     | 16438518005632580925 | 8402     | 156744  | 43778       | 1949    | 800    | 1561    | 249632    | 82120   | 144   | 77320    | 4         | 5        | 0        |
| msf/er400/t10          | 8689015771376465763  | 159000639074 | 19     | 7797196644261133578  | 1923     | 174360  | 49446       | 2067    | 864    | 1659    | 268740    | 92304   | 154   | 77320    | 8         | 10       | 0        |
| msf/er900/t500         | 5349569618866933287  | 159000727457 | 19     | 6516184465530826572  | 4481     | 180248  | 50616       | 4605    | 1892   | 3683    | 303576    | 101224  | 346   | 74256    | 8         | 10       | 0        |
| msf/er900/t10          | 5349569618866933287  | 237000732936 | 27     | 7388751561807881838  | 4050     | 180980  | 51006       | 4634    | 1906   | 3716    | 305104    | 101900  | 348   | 74256    | 12        | 15       | 0        |
| algorithm2/rmat10/t500 | 15590844293978655294 | 174007186335 | 20     | 4118390449769090441  | 66375    | 2027136 | 525380      | 66390   | 24280  | 54274   | 2981160   | 876848  | 5764  | 605544   | 8         | 11       | 0        |
| algorithm2/rmat10/t10  | 15590844293978655294 | 253007213160 | 29     | 14604689862555950898 | 64535    | 2031388 | 528120      | 66447   | 24310  | 54328   | 2986660   | 879788  | 5764  | 605544   | 12        | 16       | 0        |
| algorithm2/er400/t500  | 8689015771376465763  | 174003547930 | 20     | 15875648220612611523 | 36865    | 1022624 | 264680      | 32303   | 12212  | 26221   | 1451524   | 445000  | 2958  | 307320   | 8         | 11       | 0        |
| algorithm2/er400/t10   | 8689015771376465763  | 253003573197 | 29     | 17601591396923068305 | 35108    | 1026772 | 267016      | 32366   | 12242  | 26281   | 1457712   | 447892  | 2962  | 307320   | 12        | 16       | 0        |
| algorithm2/er900/t500  | 5349569618866933287  | 174002826459 | 20     | 16536851236661065473 | 34680    | 785112  | 204610      | 26437   | 9856   | 21533   | 1155352   | 347528  | 2030  | 245792   | 8         | 11       | 0        |
| algorithm2/er900/t10   | 5349569618866933287  | 253002863384 | 29     | 4433482922263556885  | 31880    | 793396  | 208720      | 26517   | 9898   | 21604   | 1165448   | 352244  | 2034  | 245792   | 12        | 16       | 0        |
| cc/rmat10/t500         | 6886428942685241268  | 239003725517 | 29     | 3677226899136404339  | 8866     | 402032  | 117456      | 9210    | 4252   | 7120    | 2250556   | 236552  | 1006  | 159472   | 12        | 15       | 0        |
| cc/rmat10/t10          | 6886428942685241268  | 318003747417 | 38     | 10853679269521719076 | 8215     | 405200  | 118562      | 9390    | 4352   | 7262    | 2258572   | 239200  | 1028  | 159472   | 16        | 20       | 0        |
| cc/er400/t500          | 12415529030749286451 | 81000573298  | 11     | 8023269111253241246  | 13409    | 154456  | 44166       | 1949    | 800    | 1561    | 243064    | 82120   | 130   | 77320    | 4         | 5        | 0        |
| cc/er400/t10           | 12415529030749286451 | 318000775857 | 38     | 1919281574091547082  | 3551     | 196244  | 57492       | 4009    | 1702   | 3206    | 320308    | 112172  | 274   | 77320    | 16        | 20       | 0        |
| cc/er900/t500          | 8571818490149098678  | 239001064143 | 29     | 15823434365296522338 | 9331     | 244672  | 68648       | 9103    | 3704   | 7287    | 447824    | 147544  | 677   | 74256    | 12        | 15       | 0        |
| cc/er900/t10           | 8571818490149098678  | 397001081172 | 47     | 1290973088622080272  | 8556     | 249268  | 68944       | 9351    | 3818   | 7501    | 456420    | 150748  | 684   | 74256    | 20        | 25       | 0        |
| forest_cc/rmat10/t500  | 6886428942685241268  | 80000364643  | 10     | 5925663937850295221  | 4688     | 63504   | 16512       | 4635    | 2048   | 3623    | 141548    | 47920   | 269   | 35632    | 4         | 5        | 0        |
| forest_cc/rmat10/t10   | 6886428942685241268  | 159000383198 | 19     | 10972630406940826478 | 4168     | 66672   | 17780       | 4820    | 2140   | 3774    | 147360    | 50360   | 279   | 35632    | 8         | 10       | 0        |
| forest_cc/er400/t500   | 12415529030749286451 | 1000006400   | 1      | 11117931661787304766 | 6400     | 0       | 0           | 0       | 0      | 0       | 0         | 0       | 0     | 0        | 0         | 0        | 0        |
| forest_cc/er400/t10    | 12415529030749286451 | 159000168269 | 19     | 9557709931069373042  | 1839     | 30352   | 8948        | 2052    | 852    | 1650    | 66772     | 22176   | 145   | 15976    | 8         | 10       | 0        |
| forest_cc/er900/t500   | 8571818490149098678  | 80000339450  | 10     | 16376373030977338921 | 4816     | 64080   | 16504       | 4503    | 1800   | 3615    | 147288    | 46704   | 348   | 35904    | 4         | 5        | 0        |
| forest_cc/er900/t10    | 8571818490149098678  | 159000358623 | 19     | 10935560119415755567 | 4306     | 67000   | 17698       | 4690    | 1888   | 3770    | 152832    | 48992   | 355   | 35904    | 8         | 10       | 0        |
| mis/truncated/rmat10/t500 | 15953650136978639557 | 17000193307  | 3      | 6697106500637843023  | 2155     | 36136   | 9348        | 1634    | 1024   | 618     | 79332     | 40232   | 89    | 40232    | 2         | 1        | 0        |
| mis/truncated/er400/t500  | 9711216576291673329  | 17000091165  | 3      | 13872087013967793847 | 1400     | 16620   | 4760        | 958     | 400    | 566     | 35392     | 18220   | 116   | 18220    | 2         | 1        | 0        |
| mis/truncated/er900/t500  | 18144619370847960462 | 17000107487  | 3      | 12821031241509385093 | 2469     | 20776   | 5320        | 1761    | 900    | 869     | 42204     | 24376   | 153   | 24376    | 2         | 1        | 0        |
| mm/truncated/rmat10/t500  | 609034232174119995   | 17000404813  | 3      | 10493892727369676906 | 1807     | 59984   | 15780       | 2185    | 1024   | 1169    | 218312    | 64080   | 2717  | 64080    | 2         | 1        | 0        |
| mm/truncated/er400/t500   | 7222381998748056742  | 17000210778  | 3      | 3320643073610854677  | 1887     | 28440   | 8072        | 1526    | 400    | 1134    | 116684    | 30040   | 1735  | 30040    | 2         | 1        | 0        |
| mm/truncated/er900/t500   | 6757947392582864843  | 17000223348  | 3      | 10216600198708597355 | 2948     | 30752   | 7912        | 2775    | 900    | 1883    | 110828    | 34352   | 2669  | 34352    | 2         | 1        | 0        |
| mm/loglog/rmat10/t500     | 609034232174119995   | 62000068568  | 6      | 9100430723819368455  | 4656     | 63912   | 15978       | 0       | 0      | 0       | 0         | 0       | 0     | 0        | 0         | 4        | 0        |
| mm/loglog/er400/t500      | 7222381998748056742  | 31000059104  | 3      | 14275959555535333545 | 11824    | 47280   | 11820       | 0       | 0      | 0       | 0         | 0       | 0     | 0        | 0         | 2        | 0        |
| mm/loglog/er900/t500      | 6757947392582864843  | 31000049884  | 3      | 16624265631577748885 | 9980     | 39904   | 9976        | 0       | 0      | 0       | 0         | 0       | 0     | 0        | 0         | 2        | 0        |
| cc/ok-mid              | 12836948064979459057 | 179855957310 | 20     | 6673416924920222776  | 44727    | 3725112 | 465478      | 12533   | 4352   | 10417   | 20756416  | 1896304 | 792   | 1806080  | 8         | 10       | 0        |
| mis/ok-mid             | 13521415645796549998 | 18485736312  | 3      | 3000479513471479513  | 9439     | 320128  | 36756       | 5857    | 2048   | 3829    | 1400972   | 328320  | 227   | 328320   | 2         | 1        | 0        |
| mm/ok-mid              | 5088117128787151530  | 21666520249  | 3      | 6404929982127974896  | 14221    | 615680  | 68900       | 10114   | 2048   | 8086    | 5663652   | 623872  | 18783 | 623872   | 2         | 1        | 0        |
| mis-uncached/ok-mid    | 13521415645796549998 | 21647804374  | 3      | 14188802294463022770 | 51208    | 320128  | 36756       | 26628   | 2048   | 24600   | 5136128   | 328320  | 0     | 328320   | 2         | 1        | 0        |
| walks/ok-mid           | 6442180917053831350  | 20427474687  | 3      | 3489980206829797114  | 15704    | 615680  | 68900       | 6329    | 2048   | 90      | 4072988   | 623872  | 10055 | 623872   | 2         | 1        | 0        |
| walks-uncached/ok-mid  | 4136680030114957749  | 205201139187 | 3      | 10597062503364233743 | 251264   | 615680  | 68900       | 262144  | 2048   | 330     | 294826848 | 623872  | 0     | 623872   | 2         | 1        | 0        |
| dyn-cc/ok-mid          | 6727843813695207868  | 66131752179  | 35     | 5867888583130310260  | 10802256 | 1182208 | 118220      | 4096    | 18432  | 170     | 65536     | 294912  | 0     | 32768    | 17        | 1        | 8        |
| one-vs-two/1x100000    | 13160624358351167139 | 90622037500  | 4      | 3095846933500369235  | 200572   | 2000000 | 21180       | 199906  | 100000 | 153384  | 4797744   | 2400000 | 0     | 2400000  | 2         | 1        | 0        |
| one-vs-two/2x200       | 8412335439684385869  | 19668993750  | 4      | 16526959914992869539 | 856      | 8000    | 180         | 792     | 400    | 736     | 19008     | 9600    | 0     | 9600     | 2         | 1        | 0        |
| pointer-chase          | 14746751610800537631 | 13337205500  | 2      | 15880616336522870442 | 0        | 0       | 0           | 131072  | 16384  | 90      | 2097152   | 262144  | 0     | 262144   | 2         | 0        | 0        |
| batch-write            | 6777232649115488335  | 2336723000   | 2      | 5338707835481192608  | 0        | 0       | 0           | 256     | 4096   | 20      | 4096      | 65536   | 0     | 65536    | 2         | 0        | 0        |
";
