//! Every determinism pin in one table, and the one place the
//! determinism contract of DESIGN.md §3 is checked. A **row** is a
//! kernel on one input under one config; its **record** holds the output
//! digest, `sim_ns`, the stage count and a digest over every stage's name
//! / `ops` / shuffle bytes, the summed `ops` and shuffle bytes,
//! `kv_comm()`'s six counters, the peak sealed generation, KV rounds,
//! shuffles and `DynRepair` stages — the per-round quantities 1910.05385
//! and 1805.03055 state their bounds in — and last what the pinned fault
//! schedule [`SCHEDULE`] charges: replays, retries and a digest of the
//! wasted batches, backoff units and `sim_ns`.
//!
//! [`check`] holds every row of a suite to its pin in seven modes:
//!
//! * **pin** — the record at 1, 2 and 8 executor threads, with every
//!   ambient knob but the store fixed, so the CI `store-socket` column
//!   holds the same table over the wire;
//! * **socket** — the record at 2 threads with the job's store set to
//!   the socket shard servers: the same pin, and the shard servers
//!   served values while the row ran;
//! * **chaos** — under [`SCHEDULE`] at the same thread counts, the run
//!   equals the fault-free pin bar `sim_ns`, which must grow wherever the
//!   schedule fired: a replayed machine is indistinguishable from one
//!   that never failed (§2 of the paper);
//! * **kills** — at one thread, one kill in each KV round `s` at machine
//!   `s mod P` (up to [`MAX_EXPLICIT_KILLS`] rounds to a run), then the
//!   kills of [`KILLS`]: the same, with the replays exactly where the
//!   kills fall;
//! * **mpc** — the row's MPC twin (a variant's family's), fault-free at
//!   the same thread counts and under [`SCHEDULE`] at one, computes the
//!   AMPC digest from the same seeded randomness (§5.3) without touching
//!   the DHT, which MPC does not have: no DHT traffic and no KV round;
//! * **machines** — the digest at every machine count of [`MACHINES`];
//! * **validate** — the fault-free output passes the registry validator,
//!   and a row built to need a second search round ran one.
//!
//! Host-side execution strategies (DESIGN.md §11) must move no record;
//! after an intended change of the *model*, paste the table a failure
//! prints over [`PINS`].

use std::cell::Cell;
use std::collections::BTreeMap;
use std::iter::once;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ampc_bench::registry::{self, AlgoParams};
use ampc_bench::util::{cycle_config, harness_config, load, md_table, GRAPH_SEED};
use ampc_core::algorithm::{digest_u64s, AlgoInput, AlgoOutput, InputKind, Model};
use ampc_dht::hasher::mix64;
use ampc_dht::metrics::CommStats;
use ampc_dht::store::{Dht, GenerationWriter, StoreKind};
use ampc_dht::wire_metrics;
use ampc_graph::datasets::{Dataset, Scale};
use ampc_graph::{gen, CsrGraph, WeightedCsrGraph};
use ampc_runtime::chaos::MAX_EXPLICIT_KILLS;
use ampc_runtime::driver::{drive, Driven};
use ampc_runtime::{AmpcConfig, ChaosSpec, Job, JobReport, StageKind, StageReport};
use AlgoInput::{Unweighted, Weighted};

/// The table's columns: the row name, then one per [`Record`] value.
const HEADER: &str = "row digest sim_ns stages stage_digest ops shuffle shuffle_max queries \
                      writes batches read written hits peak_gen kv_rounds shuffles repairs \
                      replays retries chaos";

/// The record columns one run fills: all but the last three, which
/// the run under [`SCHEDULE`] fills.
const RUN: usize = 17;

/// Three of the run columns the modes read.
const DIGEST: usize = 0;
const SIM_NS: usize = 1;
const BYTES_READ: usize = 10;

/// Held by the row in the **socket** mode.
static WIRE: Mutex<()> = Mutex::new(());

/// What a row is held to, in [`HEADER`] order.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Record([u64; RUN + 3]);

impl Record {
    /// The fault-free run's columns, then what the schedule charged
    /// `chaos`.
    fn of(clean: &Run, chaos: &Run) -> Self {
        let (report, kv) = (&chaos.report, chaos.report.kv_comm());
        let charges = [kv.wasted_batches, kv.backoff_units, report.sim_ns()];
        let faults = [report.replays, kv.retries, digest_u64s(charges)];
        let values: Vec<u64> = columns(clean).into_iter().chain(faults).collect();
        Record(values.try_into().expect("RUN + 3 columns"))
    }
}

/// The [`RUN`] columns of a run.
fn columns(run: &Run) -> [u64; RUN] {
    let (report, kv) = (&run.report, run.report.kv_comm());
    let stages = &report.stages;
    let stage_words = stages.iter().flat_map(|s| {
        let (bytes, max) = (s.shuffle_bytes, s.shuffle_bytes_max_machine);
        let costs = [u64::MAX, s.ops, bytes, max];
        s.name.bytes().map(u64::from).chain(costs)
    });
    let repairs = stages.iter().filter(|s| s.name.starts_with("DynRepair"));
    [
        run.digest,
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
        repairs.count() as u64,
    ]
}

/// Whether a run under faults recovered: its columns equal the pin's
/// bar `sim_ns`, which is higher exactly when a machine was replayed or
/// a batch retried.
fn recovered(run: &Run, pin: &Record) -> bool {
    let (mut got, want) = (columns(run), pin.0[SIM_NS]);
    let fired = run.report.replays > 0 || run.report.kv_comm().retries > 0;
    let sim_ns = std::mem::replace(&mut got[SIM_NS], want);
    got[..] == pin.0[..RUN] && if fired { sim_ns > want } else { sim_ns == want }
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

/// A kernel on one input under one config.
struct Row {
    name: String,
    cfg: AmpcConfig,
    kernel: Kernel,
}

fn row(name: String, cfg: AmpcConfig, kernel: Kernel) -> Row {
    Row { name, cfg, kernel }
}

/// What a row runs.
enum Kernel {
    /// A registry family with its parameters, on a graph and, for the
    /// weighted families, its weights.
    Family(&'static str, AlgoParams, Graphs),
    /// A bare KV job, whose output is its digest: it has no registry
    /// row, so no MPC twin and no validator.
    Bare(Box<dyn Fn(&mut Job) -> u64 + Send + Sync>),
}

type Graphs = Arc<(CsrGraph, Option<WeightedCsrGraph>)>;

/// A run's output digest and report, and the output of a registry row.
struct Run {
    digest: u64,
    report: JobReport,
    output: Option<AlgoOutput>,
}

impl Row {
    /// The row under `c`.
    fn ampc(&self, c: &AmpcConfig) -> Run {
        self.run(Model::Ampc, c).expect("every row runs under AMPC")
    }

    /// The row under `model` and `c`: a variant's MPC twin is its
    /// family's MPC row, and a bare job has none.
    fn run(&self, model: Model, c: &AmpcConfig) -> Option<Run> {
        let (family, p, graphs) = match &self.kernel {
            Kernel::Family(family, p, graphs) => (*family, p, graphs),
            Kernel::Bare(job) if model == Model::Ampc => {
                let Driven { output, report, .. } = drive(c, job);
                return Some(Run {
                    digest: output,
                    report,
                    output: None,
                });
            }
            Kernel::Bare(_) => return None,
        };
        let family = match model {
            Model::Ampc => family,
            Model::Mpc => family.split('/').next()?,
        };
        let entry = registry::lookup(family, model)?;
        let run = entry.run(&input(entry.input, graphs), c, p);
        let Driven { output, report, .. } = run.expect("an input the row accepts");
        Some(Run {
            digest: output.digest(),
            report,
            output: Some(output),
        })
    }

    /// Checks a fault-free run's output with the registry validator.
    /// The rows at the low [`PRIM_THRESHOLDS`] must also have run a
    /// second distributed round, and the rows at [`TRUNCATING_EPSILON`]
    /// a second search round.
    fn validate(&self, run: &Run) -> Result<(), String> {
        let (Kernel::Family(family, p, graphs), Some(output)) = (&self.kernel, &run.output) else {
            return Ok(());
        };
        let entry = registry::lookup(family, Model::Ampc).expect("registered");
        entry.validate(&input(entry.input, graphs), output, p)?;
        let second = |s: &StageReport| s.name.ends_with("-r2") || s.name.ends_with("-fc2");
        let (t, e) = (self.cfg.in_memory_threshold, self.cfg.epsilon);
        let binds = t == PRIM_THRESHOLDS[1] || e == TRUNCATING_EPSILON;
        if binds && !run.report.stages.iter().any(second) {
            return Err(format!("ran one round at threshold {t}, epsilon {e}"));
        }
        Ok(())
    }
}

/// A registry row's input of kind `kind`.
fn input(kind: InputKind, (g, w): &(CsrGraph, Option<WeightedCsrGraph>)) -> AlgoInput<'_> {
    match (kind, w) {
        (InputKind::Weighted, Some(w)) => Weighted(w),
        _ => Unweighted(g),
    }
}

const THREADS: [usize; 3] = [1, 2, 8];

/// The machine counts the digests must not depend on.
const MACHINES: [usize; 4] = [1, 2, 13, 40];

/// The pinned fault schedule: seeded kills at 120‰ per machine-stage
/// and 80‰ batch drops, retried with capped backoff.
const SCHEDULE: &str = "chaos:seed=29:rate=120:drop=80";

fn schedule() -> ChaosSpec {
    ChaosSpec::parse(SCHEDULE).expect("the schedule parses")
}

/// A row, kills to run it under, and the `(stage, replays)` they charge.
type Kills = (&'static str, &'static str, &'static [(usize, u64)]);

/// Kills that once broke a kernel.
const KILLS: [Kills; 6] = [
    // 1-vs-2-cycle's `Search` emits two walks per sample, so a replay
    // splices by the victim's recorded output length, at machine 0 and
    // past it.
    ("one-vs-two/1x100000", "kill=2.0", &[(2, 1)]),
    ("one-vs-two/1x100000", "kill=2.1", &[(2, 1)]),
    ("one-vs-two/1x100000", "kill=2.3", &[(2, 1)]),
    // A machine killed twice in a stage, plus one that wraps to 2 of 4.
    ("mis/rmat10/t500", "kill=2.1+2.1+2.6", &[(2, 3)]),
    ("mis/rmat10/t500", "kill=2.0+2.3", &[(2, 2)]),
    // Epoch 1's first KV round, mid-stream: the replay must land inside
    // the epoch.
    ("dyn-cc/ok-mid", "ekill=1.0", &[(3, 1)]),
];

/// `cfg` at `threads` executor threads, with every other environment-derived
/// field but the store overwritten.
fn fixed(mut cfg: AmpcConfig, threads: usize) -> AmpcConfig {
    cfg.chaos = None;
    cfg.with_threads(threads)
}

/// Holds every row to its pin in every mode, one row after another,
/// so the executor pool's workers are free to run each row's machines
/// side by side; cargo's test threads run the suites side by side. A
/// mismatch prints each way a row moved, named by its mode, then the
/// whole table as it is now, ready to paste.
fn check(rows: Vec<Row>) {
    let pins = pins();
    let moved: Vec<String> = rows.iter().flat_map(|row| row_moved(row, &pins)).collect();
    let moved = moved.join("\n");
    assert!(moved.is_empty(), "{moved}\nthe table now:\n{}", table_now());
}

/// Every way `row` left its pin, one line each, named by the mode that
/// found it. A mode that panics is reported with its message, and the
/// row's later modes are skipped.
fn row_moved(row: &Row, pins: &BTreeMap<&str, Record>) -> Vec<String> {
    let (mut moved, mode) = (Vec::new(), Cell::new("pin"));
    let mut report = |what: String| moved.push(format!("{} [{}] {what}", row.name, mode.get()));
    let Some(pin) = pins.get(row.name.as_str()) else {
        report("is not in the table".into());
        return moved;
    };
    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| hold(row, pin, &mode, &mut report))) {
        let what = panic.downcast_ref::<&str>().map(|s| s.to_string());
        let what = what.or_else(|| panic.downcast_ref::<String>().cloned());
        report(format!("panicked: {}", what.unwrap_or_default()));
    }
    moved
}

/// Runs `row` in every mode, setting `mode` to the one running and
/// reporting each way it left `pin`.
fn hold(row: &Row, pin: &Record, mode: &Cell<&str>, report: &mut impl FnMut(String)) {
    let mut clean = None;
    for threads in THREADS {
        let cfg = fixed(row.cfg, threads);
        mode.set("pin");
        let run = row.ampc(&cfg);
        mode.set("chaos");
        let chaos = row.ampc(&cfg.with_chaos(schedule()));
        if !recovered(&chaos, pin) {
            report(format!("at {threads} threads: {:?}", columns(&chaos)));
        }
        mode.set("pin");
        let got = Record::of(&run, &chaos);
        if got != *pin {
            report(format!("at {threads} threads: {:?}", got.0));
        }
        mode.set("mpc");
        if let Some(moved) = twin_moved(row, pin, &cfg) {
            report(format!("at {threads} threads: {moved}"));
        }
        if threads == 2 {
            mode.set("socket");
            let socket = cfg.with_store(StoreKind::Socket);
            // The wire counters are process-global: rows take turns, so
            // the counters move with this row's traffic alone.
            let _turn = WIRE.lock().unwrap_or_else(PoisonError::into_inner);
            let before = wire_metrics();
            let clean = row.ampc(&socket);
            let got = Record::of(&clean, &row.ampc(&socket.with_chaos(schedule())));
            let after = wire_metrics();
            // Every reply but a GET's is one byte, and a job pings the
            // fleet at every round: only values read back make the
            // reply bytes outgrow the requests. A row that reads no
            // value has none to fetch.
            let requests = after.requests - before.requests;
            let served = after.bytes_received - before.bytes_received > requests;
            if got != *pin || !served && pin.0[BYTES_READ] > 0 {
                report(format!(
                    "{requests} wire requests, values served {served}: {:?}",
                    got.0
                ));
            }
        }
        clean.get_or_insert(run);
    }
    let (clean, cfg) = (clean.expect("THREADS is not empty"), fixed(row.cfg, 1));
    mode.set("validate");
    if let Err(e) = row.validate(&clean) {
        report(e);
    }

    // Each KV round `s` killed once, at machine `s mod P`, as many
    // rounds to a run as a spec holds kills; then the listed kills.
    mode.set("kills");
    let stages = clean.report.stages.iter().enumerate();
    let kv_rounds: Vec<usize> = stages
        .filter(|(_, s)| s.kind == StageKind::KvRound)
        .map(|(s, _)| s)
        .collect();
    let kill =
        |spec: ChaosSpec, &s: &usize| spec.with_kill(s as u32, (s % cfg.num_machines) as u32);
    let sweep = kv_rounds.chunks(MAX_EXPLICIT_KILLS).map(|rounds| {
        let spec = rounds.iter().fold(ChaosSpec::new(1), kill);
        (spec, rounds.iter().map(|&s| (s, 1)).collect())
    });
    let listed = KILLS
        .iter()
        .filter(|k| k.0 == row.name)
        .map(|&(_, kills, at)| {
            let spec = ChaosSpec::parse(&format!("chaos:seed=1:{kills}"));
            (spec.expect("the kills parse"), at.to_vec())
        });
    for (spec, want) in sweep.chain(listed) {
        let run = row.ampc(&cfg.with_chaos(spec));
        let stages = run.report.stages.iter().enumerate();
        let at: Vec<_> = stages
            .filter(|(_, s)| s.replays > 0)
            .map(|(i, s)| (i, s.replays))
            .collect();
        let in_epoch = |&(e, _): &(u32, u32)| {
            let epoch = run.report.epoch_stage_range(e as usize);
            at.iter().all(|(s, _)| epoch.contains(s))
        };
        if at != want || !spec.epoch_kills().iter().all(in_epoch) || !recovered(&run, pin) {
            let (spec, got) = (spec.describe(), columns(&run));
            report(format!("{spec}: replays {at:?}, {got:?}"));
        }
    }

    mode.set("mpc");
    if let Some(moved) = twin_moved(row, pin, &cfg.with_chaos(schedule())) {
        report(format!("{SCHEDULE}: {moved}"));
    }

    mode.set("machines");
    for p in MACHINES {
        let digest = row.ampc(&cfg.with_machines(p)).digest;
        if digest != pin.0[DIGEST] {
            report(format!("at P={p}: digest {digest}"));
        }
    }
}

/// How `row`'s MPC twin under `c` left the pin, if it did: by a digest
/// that is not the pin's, or by using the DHT — any KV traffic, or any
/// KV round at all.
fn twin_moved(row: &Row, pin: &Record, c: &AmpcConfig) -> Option<String> {
    let Run { digest, report, .. } = row.run(Model::Mpc, c)?;
    let kv = report.kv_comm();
    let dht = kv != CommStats::default() || report.num_kv_rounds() > 0;
    (digest != pin.0[DIGEST] || dht).then(|| format!("digest {digest}, DHT use {dht}: {kv:?}"))
}

/// Every row of every suite at one thread, recorded once per process
/// however many tests fail; a row that panics reads `panicked`.
fn table_now() -> &'static str {
    static NOW: OnceLock<String> = OnceLock::new();
    NOW.get_or_init(|| {
        let line = |row: Row| {
            let cfg = fixed(row.cfg, 1);
            let record = || Record::of(&row.ampc(&cfg), &row.ampc(&cfg.with_chaos(schedule())));
            let values = match catch_unwind(AssertUnwindSafe(record)) {
                Ok(record) => record.0.map(|v| v.to_string()),
                Err(_) => [(); RUN + 3].map(|_| "panicked".into()),
            };
            once(row.name).chain(values).collect()
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
    truncated_mis_outputs_and_charges_are_pinned: truncated_rows("mis/truncated");
    truncated_matching_outputs_and_charges_are_pinned: truncated_rows("mm/truncated");
    loglog_matching_outputs_and_charges_are_pinned: small_rows("mm/loglog", "mm/loglog");
    registry_kernels_on_the_ok_mid_analogue_hold_their_pins: ok_mid_rows();
    one_vs_two_cycle_at_p100_holds_its_pin: cycle_rows();
    // The sealed read path alone: a scrambled successor function, every
    // key chased 8 hops (reads outnumber writes 8 to 1).
    pointer_chase_holds_its_pin: vec![kv_row("pointer-chase", ["ChaseWrite", "Chase"],
        [1 << 14, 1, 8], |v| (v.wrapping_mul(0x9E37_79B9) ^ (v >> 7)) % (1 << 14))];
    // Skewed batches: power-law keys repeat within a batch, and some
    // miss the store.
    skewed_reads_hold_their_pin: vec![skewed_reads()];
    // The write path alone: stripe-log appends and one seal, then a
    // read-back of every 16th key.
    batch_write_holds_its_pin: vec![kv_row("batch-write", ["BatchWrite", "ReadBack"],
        [1 << 12, 16, 1], |k| k.wrapping_mul(0x9E37_79B9) ^ (k >> 5))];
}

/// The pinned schedule is not inert: across the table it both kills
/// machines and drops batches.
#[test]
fn the_pinned_schedule_kills_and_drops() {
    let pins = pins();
    let total = |column: usize| pins.values().map(|r| r.0[column]).sum::<u64>();
    assert!(total(RUN) > 0, "the schedule killed no machine");
    assert!(total(RUN + 1) > 0, "the schedule dropped no batch");
}

/// The default threshold of the small rows, and one small enough that
/// every MSF / CC family runs at least two distributed rounds.
const PRIM_THRESHOLDS: [usize; 2] = [500, 10];

/// The three small graphs: tie-heavy weights on the skewed one, random
/// ones on the other two.
fn small_graphs() -> Vec<(&'static str, Graphs)> {
    let graphs = [
        ("rmat10", gen::rmat(10, 8_000, gen::RmatParams::SOCIAL, 3)),
        ("er400", gen::erdos_renyi(400, 3_000, 11)),
        ("er900", gen::erdos_renyi(900, 2_500, 12)),
    ];
    let weigh = |(i, (graph, g)): (usize, (_, CsrGraph))| {
        let w = match i {
            0 => gen::degree_weights(g.clone()),
            _ => gen::random_weights(g.clone(), 1_000, 7 + i as u64),
        };
        (graph, Arc::new((g, Some(w))))
    };
    graphs.into_iter().enumerate().map(weigh).collect()
}

/// Registry row `family` on the three [`small_graphs`] and 4 machines,
/// as rows named `{name}/{graph}/t{threshold}`: the MIS and matching
/// rows at the default threshold, the MSF / CC rows at both
/// [`PRIM_THRESHOLDS`].
fn small_rows(name: &'static str, family: &'static str) -> Vec<Row> {
    let prim = family.starts_with("msf") || family.starts_with("cc");
    let mut rows = Vec::new();
    for (graph, graphs) in small_graphs() {
        for &t in &PRIM_THRESHOLDS[..1 + prim as usize] {
            let mut cfg = AmpcConfig::for_tests();
            cfg.in_memory_threshold = t;
            let kernel = Kernel::Family(family, <_>::default(), graphs.clone());
            rows.push(row(format!("{name}/{graph}/t{t}"), cfg, kernel));
        }
    }
    rows
}

/// A space exponent at which truncation binds: at the default 0.75 every
/// truncated search of the small graphs finishes in its first round.
const TRUNCATING_EPSILON: f64 = 0.3;

/// Truncated family `family`'s [`small_rows`], then the family on
/// `rmat10` and `er400` under the Test harness config at
/// [`TRUNCATING_EPSILON`], as rows named `{family}/{graph}/e0.3`.
fn truncated_rows(family: &'static str) -> Vec<Row> {
    let mut cfg = harness_config(Scale::Test);
    cfg.epsilon = TRUNCATING_EPSILON;
    let truncating = small_graphs().into_iter().take(2).map(|(graph, graphs)| {
        let kernel = Kernel::Family(family, <_>::default(), graphs);
        row(
            format!("{family}/{graph}/e{TRUNCATING_EPSILON}"),
            cfg,
            kernel,
        )
    });
    small_rows(family, family)
        .into_iter()
        .chain(truncating)
        .collect()
}

/// The `ok` Mid analogue, generated once per process.
fn ok_mid() -> &'static Graphs {
    static G: OnceLock<Graphs> = OnceLock::new();
    G.get_or_init(|| Arc::new((load(Dataset::Orkut, Scale::Mid), None)))
}

/// Seven registry kernels on the `ok` Mid analogue under the Mid
/// harness config; an `-uncached` row runs its family with the
/// per-machine cache off. Each walk row names its shape (walkers per
/// vertex, steps); `dyn-cc` runs 8 update batches of 256.
fn ok_mid_rows() -> Vec<Row> {
    let rows = [
        ("cc", (1, 8)),
        ("mis", (1, 8)),
        ("mm", (1, 8)),
        ("mis-uncached", (1, 8)),
        ("walks", (1, 8)),
        ("walks-uncached", (4, 32)),
        ("dyn-cc", (1, 8)),
    ];
    let ok_mid_row = |(name, walk): (&'static str, _)| {
        let family = name.trim_end_matches("-uncached");
        let mut p = AlgoParams::default();
        (p.walkers_per_node, p.steps) = walk;
        (p.dyn_batches, p.dyn_ops) = (8, 256);
        let cfg = harness_config(Scale::Mid).with_caching(family == name);
        row(
            format!("{name}/ok-mid"),
            cfg,
            Kernel::Family(family, p, ok_mid().clone()),
        )
    };
    rows.into_iter().map(ok_mid_row).collect()
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
        let kernel = Kernel::Family("one-vs-two", <_>::default(), Arc::new((g, None)));
        row(
            format!("one-vs-two/{name}"),
            cycle_config(Scale::Test),
            kernel,
        )
    };
    cycles.into_iter().map(cycle_row).collect()
}

/// A bare KV job under the Test harness config.
fn bare(name: &str, job: impl Fn(&mut Job) -> u64 + Send + Sync + 'static) -> Row {
    row(
        name.into(),
        harness_config(Scale::Test),
        Kernel::Bare(Box::new(job)),
    )
}

/// A bare KV job over keys `0..n`: one KV round writes `key -> value(key)`
/// (one `put_many` batch per machine, the KV-Write pattern of every AMPC
/// kernel) and seals; a second chases every `stride`-th key through
/// `hops` dependent batched lookups in machine lockstep. `stages` names
/// the two rounds.
fn kv_row(name: &str, stages: [&'static str; 2], shape: [usize; 3], value: fn(u64) -> u64) -> Row {
    let [n, stride, hops] = shape;
    bare(name, move |job| {
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
    })
}

/// A read job no kernel family covers: one write round seeds 2^12
/// values, then one KV round of 256 walkers takes six lockstep
/// `get_many_with` hops whose keys are power-law (the fourth power of a
/// uniform draw: key 0 alone takes ~1/8 of them), so every batch repeats
/// keys, and a walker's every fourth probe lands past the store. Each
/// hop's keys derive from the previous hop's values, so a replay that
/// served anything different would change the digest.
fn skewed_reads() -> Row {
    const N: u64 = 1 << 12;
    let skewed_key = |r: u64| {
        let u = mix64(r) >> 32;
        let u2 = (u * u) >> 32;
        let u4 = (u2 * u2) >> 32;
        (u4 * N) >> 32
    };
    bare("skewed-reads", move |job| {
        let (mut dht, writer) = (Dht::new(), GenerationWriter::new());
        let (gen, keys) = (dht.current(), (0..N).collect());
        job.kv_round(
            "SkewWrite",
            gen,
            Some(&writer),
            keys,
            |ctx, keys: &[u64]| {
                ctx.handle
                    .put_many(keys.iter().map(|&k| (k, mix64(k ^ 0xFEED))));
                Vec::<()>::new()
            },
        );
        dht.push(writer.seal());
        let (gen, walkers, seed) = (dht.current(), (0..256).collect(), job.config().seed);
        let ends = job.kv_round("SkewVisit", gen, None, walkers, |ctx, walkers| {
            let mut acc: Vec<u64> = walkers.iter().map(|&w| w ^ 0x9E37).collect();
            for hop in 0..6u64 {
                let keys = acc.iter().zip(walkers).map(|(&a, &w)| {
                    let miss = u64::from((w + hop).is_multiple_of(4));
                    skewed_key(seed ^ a ^ (hop << 20) ^ 0xB0B) + N * miss
                });
                ctx.scratch.keys.clear();
                ctx.scratch.keys.extend(keys);
                ctx.handle.get_many_with(&ctx.scratch.keys, |i, v| {
                    acc[i] = acc[i].rotate_left(9) ^ v.copied().unwrap_or(0x0DD);
                });
            }
            acc
        });
        digest_u64s(ends)
    })
}

/// The pinned records, one row per line.
const PINS: &str = "
| row                       | digest               | sim_ns       | stages | stage_digest         | ops     | shuffle | shuffle_max | queries | writes | batches | read      | written | hits  | peak_gen | kv_rounds | shuffles | repairs | replays | retries | chaos                |
| ------------------------- | -------------------- | ------------ | ------ | -------------------- | ------- | ------- | ----------- | ------- | ------ | ------- | --------- | ------- | ----- | -------- | --------- | -------- | ------- | ------- | ------- | -------------------- |
| mis/rmat10/t500           | 15953650136978639557 | 17000193307  | 3      | 6697106500637843023  | 2155    | 36136   | 9348        | 1634    | 1024   | 618     | 79332     | 40232   | 89    | 40232    | 2         | 1        | 0       | 0       | 82      | 1715543124890926922  |
| mis/er400/t500            | 9711216576291673329  | 17000091165  | 3      | 13872087013967793847 | 1400    | 16620   | 4760        | 958     | 400    | 566     | 35392     | 18220   | 116   | 18220    | 2         | 1        | 0       | 0       | 80      | 2800916074037905915  |
| mis/er900/t500            | 18144619370847960462 | 17000107487  | 3      | 12821031241509385093 | 2469    | 20776   | 5320        | 1761    | 900    | 869     | 42204     | 24376   | 153   | 24376    | 2         | 1        | 0       | 0       | 118     | 16894409201589668153 |
| mm/rmat10/t500            | 609034232174119995   | 17000404813  | 3      | 10493892727369676906 | 1807    | 59984   | 15780       | 2185    | 1024   | 1169    | 218312    | 64080   | 2717  | 64080    | 2         | 1        | 0       | 0       | 139     | 8130287716895892408  |
| mm/er400/t500             | 7222381998748056742  | 17000210778  | 3      | 3320643073610854677  | 1887    | 28440   | 8072        | 1526    | 400    | 1134    | 116684    | 30040   | 1735  | 30040    | 2         | 1        | 0       | 0       | 139     | 256578341120497010   |
| mm/er900/t500             | 6757947392582864843  | 17000223348  | 3      | 10216600198708597355 | 2948    | 30752   | 7912        | 2775    | 900    | 1883    | 110828    | 34352   | 2669  | 34352    | 2         | 1        | 0       | 0       | 204     | 14734282337182571569 |
| msf/rmat10/t500           | 15590844293978655294 | 159000955229 | 19     | 8747398068828375342  | 4777    | 362720  | 100932      | 4832    | 2136   | 3788    | 294884    | 98700   | 265   | 82540    | 8         | 10       | 0       | 5       | 375     | 234715573599920326   |
| msf/rmat10/t10            | 15590844293978655294 | 238000962733 | 28     | 15182726715222060520 | 4124    | 364388  | 101940      | 4866    | 2154   | 3825    | 296176    | 99384   | 265   | 82540    | 12        | 15       | 0       | 7       | 377     | 2445768591636451675  |
| msf/er400/t500            | 8689015771376465763  | 80000471209  | 10     | 16438518005632580925 | 8402    | 156744  | 43778       | 1949    | 800    | 1561    | 171020    | 58528   | 144   | 53728    | 4         | 5        | 0       | 3       | 172     | 5507893270039237115  |
| msf/er400/t10             | 8689015771376465763  | 159000498866 | 19     | 7797196644261133578  | 1923    | 174360  | 49446       | 2067    | 864    | 1659    | 175452    | 60960   | 154   | 53728    | 8         | 10       | 0       | 5       | 178     | 11440474999976073146 |
| msf/er900/t500            | 5349569618866933287  | 159000671105 | 19     | 6516184465530826572  | 4481    | 180248  | 50616       | 4605    | 1892   | 3683    | 272448    | 89068   | 346   | 74232    | 8         | 10       | 0       | 5       | 370     | 6816391413946629656  |
| msf/er900/t10             | 5349569618866933287  | 237000675720 | 27     | 7388751561807881838  | 4050    | 180980  | 51006       | 4634    | 1906   | 3716    | 273628    | 89600   | 348   | 74232    | 12        | 15       | 0       | 7       | 371     | 17712245689719320535 |
| algorithm2/rmat10/t500    | 15590844293978655294 | 174006798052 | 20     | 4118390449769090441  | 66375   | 2027136 | 525380      | 66390   | 24280  | 54274   | 2740044   | 779588  | 5764  | 605544   | 8         | 11       | 0       | 5       | 4658    | 16051435622896249324 |
| algorithm2/rmat10/t10     | 15590844293978655294 | 253006814797 | 29     | 14604689862555950898 | 64535   | 2031388 | 528120      | 66447   | 24310  | 54328   | 2742184   | 780728  | 5764  | 605544   | 12        | 16       | 0       | 6       | 4660    | 3354522875474845852  |
| algorithm2/er400/t500     | 8689015771376465763  | 174003373402 | 20     | 15875648220612611523 | 36865   | 1022624 | 264680      | 32303   | 12212  | 26221   | 1342780   | 402496  | 2958  | 307320   | 8         | 11       | 0       | 5       | 2274    | 12487050050878508454 |
| algorithm2/er400/t10      | 8689015771376465763  | 253003388733 | 29     | 17601591396923068305 | 35108   | 1026772 | 267016      | 32366   | 12242  | 26281   | 1345200   | 403636  | 2962  | 307320   | 12        | 16       | 0       | 6       | 2276    | 10841210535053966546 |
| algorithm2/er900/t500     | 5349569618866933287  | 174002710155 | 20     | 16536851236661065473 | 34680   | 785112  | 204610      | 26437   | 9856   | 21533   | 1078660   | 322304  | 2030  | 245792   | 8         | 11       | 0       | 5       | 1887    | 7634334403422971381  |
| algorithm2/er900/t10      | 5349569618866933287  | 253002732104 | 29     | 4433482922263556885  | 31880   | 793396  | 208720      | 26517   | 9898   | 21604   | 1081844   | 323888  | 2034  | 245792   | 12        | 16       | 0       | 6       | 1889    | 6582555807630233403  |
| cc/rmat10/t500            | 6886428942685241268  | 239001602107 | 29     | 3677226899136404339  | 8866    | 402032  | 117456      | 9210    | 4252   | 7120    | 659248    | 148148  | 1006  | 82540    | 12        | 15       | 0       | 6       | 654     | 6615636368882098154  |
| cc/rmat10/t10             | 6886428942685241268  | 318001619783 | 38     | 10853679269521719076 | 8215    | 405200  | 118562      | 9390    | 4352   | 7262    | 665032    | 150508  | 1028  | 82540    | 16        | 20       | 0       | 8       | 662     | 17138856937409408715 |
| cc/er400/t500             | 12415529030749286451 | 81000465586  | 11     | 8023269111253241246  | 13409   | 154456  | 44166       | 1949    | 800    | 1561    | 166288    | 58528   | 130   | 53728    | 4         | 5        | 0       | 3       | 172     | 7792306096601618105  |
| cc/er400/t10              | 12415529030749286451 | 318000644817 | 38     | 1919281574091547082  | 3551    | 196244  | 57492       | 4009    | 1702   | 3206    | 232384    | 82604   | 274   | 53728    | 16        | 20       | 0       | 8       | 305     | 7674935655489065803  |
| cc/er900/t500             | 8571818490149098678  | 239001017823 | 29     | 15823434365296522338 | 9331    | 244672  | 68648       | 9103    | 3704   | 7287    | 423260    | 136240  | 677   | 74232    | 12        | 15       | 0       | 6       | 677     | 5012615870410007800  |
| cc/er900/t10              | 8571818490149098678  | 397001034468 | 47     | 1290973088622080272  | 8556    | 249268  | 68944       | 9351    | 3818   | 7501    | 431676    | 139372  | 684   | 74232    | 20        | 25       | 0       | 9       | 676     | 1836075929657006722  |
| forest_cc/rmat10/t500     | 6886428942685241268  | 80000364643  | 10     | 5925663937850295221  | 4688    | 63504   | 16512       | 4635    | 2048   | 3623    | 141548    | 47920   | 269   | 35632    | 4         | 5        | 0       | 3       | 358     | 13171768108016365705 |
| forest_cc/rmat10/t10      | 6886428942685241268  | 159000383198 | 19     | 10972630406940826478 | 4168    | 66672   | 17780       | 4820    | 2140   | 3774    | 147300    | 50348   | 279   | 35632    | 8         | 10       | 0       | 5       | 370     | 8251822723298115429  |
| forest_cc/er400/t500      | 12415529030749286451 | 1000006400   | 1      | 11117931661787304766 | 6400    | 0       | 0           | 0       | 0      | 0       | 0         | 0       | 0     | 0        | 0         | 0        | 0       | 0       | 0       | 14311298597113325927 |
| forest_cc/er400/t10       | 12415529030749286451 | 159000167837 | 19     | 9557709931069373042  | 1839    | 30352   | 8948        | 2052    | 852    | 1650    | 66508     | 22140   | 145   | 15976    | 8         | 10       | 0       | 5       | 188     | 7749741864610681157  |
| forest_cc/er900/t500      | 8571818490149098678  | 80000339450  | 10     | 16376373030977338921 | 4816    | 64080   | 16504       | 4503    | 1800   | 3615    | 147288    | 46704   | 348   | 35904    | 4         | 5        | 0       | 3       | 354     | 12432564983536985223 |
| forest_cc/er900/t10       | 8571818490149098678  | 159000358479 | 19     | 10935560119415755567 | 4306    | 67000   | 17698       | 4690    | 1888   | 3770    | 152784    | 48980   | 355   | 35904    | 8         | 10       | 0       | 5       | 367     | 14080743608215695998 |
| mis/truncated/rmat10/t500 | 15953650136978639557 | 17000193307  | 3      | 6697106500637843023  | 2155    | 36136   | 9348        | 1634    | 1024   | 618     | 79332     | 40232   | 89    | 40232    | 2         | 1        | 0       | 0       | 82      | 1715543124890926922  |
| mis/truncated/er400/t500  | 9711216576291673329  | 17000091165  | 3      | 13872087013967793847 | 1400    | 16620   | 4760        | 958     | 400    | 566     | 35392     | 18220   | 116   | 18220    | 2         | 1        | 0       | 0       | 80      | 2800916074037905915  |
| mis/truncated/er900/t500  | 18144619370847960462 | 17000107487  | 3      | 12821031241509385093 | 2469    | 20776   | 5320        | 1761    | 900    | 869     | 42204     | 24376   | 153   | 24376    | 2         | 1        | 0       | 0       | 118     | 16894409201589668153 |
| mis/truncated/rmat10/e0.3 | 853109012907665378   | 20436065500  | 5      | 15473819259221979450 | 3751    | 36136   | 4824        | 1907    | 2042   | 913     | 109200    | 56520   | 43    | 40232    | 4         | 1        | 0       | 3       | 106     | 5990417648279995779  |
| mis/truncated/er400/e0.3  | 15730876694586890238 | 19608434500  | 5      | 9047324878125945492  | 2340    | 16620   | 2268        | 1207    | 791    | 837     | 38376     | 24476   | 42    | 18220    | 4         | 1        | 0       | 3       | 98      | 7986808801425594837  |
| mm/truncated/rmat10/t500  | 609034232174119995   | 17000404813  | 3      | 10493892727369676906 | 1807    | 59984   | 15780       | 2185    | 1024   | 1169    | 218312    | 64080   | 2717  | 64080    | 2         | 1        | 0       | 0       | 139     | 8130287716895892408  |
| mm/truncated/er400/t500   | 7222381998748056742  | 17000210778  | 3      | 3320643073610854677  | 1887    | 28440   | 8072        | 1526    | 400    | 1134    | 116684    | 30040   | 1735  | 30040    | 2         | 1        | 0       | 0       | 139     | 256578341120497010   |
| mm/truncated/er900/t500   | 6757947392582864843  | 17000223348  | 3      | 10216600198708597355 | 2948    | 30752   | 7912        | 2775    | 900    | 1883    | 110828    | 34352   | 2669  | 34352    | 2         | 1        | 0       | 0       | 204     | 14734282337182571569 |
| mm/truncated/rmat10/e0.3  | 4417461709355026405  | 21327469500  | 4      | 17310393166303775466 | 3564    | 59984   | 7284        | 3276    | 1024   | 2237    | 430592    | 64080   | 3775  | 64080    | 3         | 1        | 0       | 3       | 243     | 3225309018035151218  |
| mm/truncated/er400/e0.3   | 11722823132884176240 | 19511761500  | 4      | 13251710121354145203 | 2580    | 28440   | 3824        | 2112    | 400    | 1680    | 163312    | 30040   | 2343  | 30040    | 3         | 1        | 0       | 3       | 188     | 1805362019289608166  |
| mm/loglog/rmat10/t500     | 609034232174119995   | 62000068568  | 6      | 9100430723819368455  | 4656    | 63912   | 15978       | 0       | 0      | 0       | 0         | 0       | 0     | 0        | 0         | 4        | 0       | 0       | 0       | 10076136711747370987 |
| mm/loglog/er400/t500      | 7222381998748056742  | 31000059104  | 3      | 14275959555535333545 | 11824   | 47280   | 11820       | 0       | 0      | 0       | 0         | 0       | 0     | 0        | 0         | 2        | 0       | 0       | 0       | 5401215789763847061  |
| mm/loglog/er900/t500      | 6757947392582864843  | 31000049884  | 3      | 16624265631577748885 | 9980    | 39904   | 9976        | 0       | 0      | 0       | 0         | 0       | 0     | 0        | 0         | 2        | 0       | 0       | 0       | 12195286401089988423 |
| cc/ok-mid                 | 12836948064979459057 | 164499149310 | 20     | 6673416924920222776  | 44727   | 3725112 | 465478      | 12533   | 4352   | 10417   | 1738732   | 392788  | 792   | 354812   | 8         | 10       | 0       | 10      | 973     | 9450627032310196806  |
| mis/ok-mid                | 13521415645796549998 | 18485736312  | 3      | 3000479513471479513  | 9439    | 320128  | 36756       | 5857    | 2048   | 3829    | 1400972   | 328320  | 227   | 328320   | 2         | 1        | 0       | 1       | 379     | 16401318458416445601 |
| mm/ok-mid                 | 5088117128787151530  | 21666520249  | 3      | 6404929982127974896  | 14221   | 615680  | 68900       | 10114   | 2048   | 8086    | 5663652   | 623872  | 18783 | 623872   | 2         | 1        | 0       | 1       | 739     | 9189958588683934921  |
| mis-uncached/ok-mid       | 13521415645796549998 | 21647804374  | 3      | 14188802294463022770 | 51208   | 320128  | 36756       | 26628   | 2048   | 24600   | 5136128   | 328320  | 0     | 328320   | 2         | 1        | 0       | 1       | 2159    | 12649348413281593314 |
| walks/ok-mid              | 6442180917053831350  | 20427474687  | 3      | 3489980206829797114  | 15704   | 615680  | 68900       | 6329    | 2048   | 90      | 4072988   | 623872  | 10055 | 623872   | 2         | 1        | 0       | 1       | 14      | 7318587522138352125  |
| walks-uncached/ok-mid     | 4136680030114957749  | 205201139187 | 3      | 10597062503364233743 | 251264  | 615680  | 68900       | 262144  | 2048   | 330     | 294826848 | 623872  | 0     | 623872   | 2         | 1        | 0       | 1       | 43      | 8370884117343151009  |
| dyn-cc/ok-mid             | 6727843813695207868  | 51754264179  | 35     | 512702593088855022   | 1217264 | 1182208 | 118220      | 4096    | 18432  | 170     | 65536     | 294912  | 0     | 32768    | 17        | 1        | 8       | 24      | 13      | 1539223433424620651  |
| one-vs-two/1x100000       | 13160624358351167139 | 90622037500  | 4      | 3095846933500369235  | 200572  | 2000000 | 21180       | 199906  | 100000 | 153384  | 4797744   | 2400000 | 0     | 2400000  | 2         | 1        | 0       | 22      | 13314   | 8392592232548564201  |
| one-vs-two/2x200          | 8412335439684385869  | 19668993750  | 4      | 16526959914992869539 | 856     | 8000    | 180         | 792     | 400    | 736     | 19008     | 9600    | 0     | 9600     | 2         | 1        | 0       | 22      | 71      | 16789878648291266874 |
| pointer-chase             | 14746751610800537631 | 13337205500  | 2      | 15880616336522870442 | 0       | 0       | 0           | 131072  | 16384  | 90      | 2097152   | 262144  | 0     | 262144   | 2         | 0        | 0       | 1       | 6       | 17233671244657903717 |
| skewed-reads              | 4654408674437029128  | 2426274500   | 2      | 9333531602050766523  | 0       | 0       | 0           | 1536    | 4096   | 70      | 21504     | 65536   | 0     | 65536    | 2         | 0        | 0       | 1       | 5       | 12957638978967426511 |
| batch-write               | 6777232649115488335  | 2336723000   | 2      | 5338707835481192608  | 0       | 0       | 0           | 256     | 4096   | 20      | 4096      | 65536   | 0     | 65536    | 2         | 0        | 0       | 1       | 2       | 14779767152018943256 |
";
