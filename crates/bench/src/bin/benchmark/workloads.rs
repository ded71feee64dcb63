//! The six workloads: what each runs, on what input, and how one
//! repetition is executed and checked.

use crate::chase::{self, ChasePhases};
use crate::spans::Tracer;
use ampc_bench::registry::{self, AlgoParams};
use ampc_bench::util::harness_config;
use ampc_core::algorithm::{validate_walks_shape, AlgoInput, AlgoOutput, Model};
use ampc_dht::metrics::CommStats;
use ampc_dht::store::StoreKind;
use ampc_graph::datasets::Scale;
use ampc_graph::{CsrGraph, GraphSource};
use ampc_runtime::{AmpcConfig, JobReport, StageKind};

/// Input size: the measured sizes, or toy sizes for the smoke pass that
/// keeps the benchmark from rotting between changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes every reported number is measured at.
    Full,
    /// Seconds for all six workloads, in-process.
    Smoke,
}

/// What a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A kernel family from the registry on a generated graph.
    Registry {
        /// Registry family name.
        family: &'static str,
        /// Graph source at `Size::Full` (dataset analogues at `Bench`).
        source: &'static str,
        /// Graph source at `Size::Smoke`.
        smoke_source: &'static str,
        /// §5.3 caching.
        caching: bool,
        /// What one work unit is.
        unit: WorkUnit,
    },
    /// The benchmark-local pointer chase over `Dht<u64>`.
    Chase {
        /// log₂ of the key count at `Size::Full`.
        log_n: u32,
        /// Substrate.
        store: StoreKind,
    },
}

/// The fixed work a repetition performs, for `work_per_s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkUnit {
    /// Edges of the input graph.
    Edges,
    /// Walker hops.
    Hops,
    /// Edge updates applied.
    Updates,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it exists, one line.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// Untimed repetitions before the timed ones (the first is also the
    /// one whose output is fully validated).
    pub warmups: usize,
}

const WALKERS: usize = 4;
const WALK_STEPS: usize = 32;
const DYN_BATCHES: usize = 64;
const DYN_OPS: usize = 1024;
/// Lock-step hops of the pointer chase.
pub const CHASE_HOPS: usize = 8;

/// The six workloads, in reporting order.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "mis-tw",
        why: "the paper's flagship kernel (Fig. 1): record building, shuffle_by_key, put_many and \
              one big seal; the read path does little",
        kind: Kind::Registry {
            family: "mis",
            source: "tw",
            smoke_source: "rmat:10,8000,social",
            caching: true,
            unit: WorkUnit::Edges,
        },
        warmups: 3,
    },
    Workload {
        name: "walks-tw",
        why: "read path: 16.8M visitor reads of variable-size adjacency values inside one KV \
              round; seal and driver work are a small share",
        kind: Kind::Registry {
            family: "walks",
            source: "tw",
            smoke_source: "rmat:10,8000,social",
            caching: false,
            unit: WorkUnit::Hops,
        },
        warmups: 3,
    },
    Workload {
        name: "cc-rmat16",
        why: "multi-round pipeline (random-weight MSF + forest CC): trees, prim, repeated \
              contract/rebuild shuffles, executor drain per round",
        kind: Kind::Registry {
            family: "cc",
            source: "rmat:16,4000000,social",
            smoke_source: "rmat:10,6000,social",
            caching: true,
            unit: WorkUnit::Edges,
        },
        warmups: 2,
    },
    Workload {
        name: "dyncc-ok",
        why: "fixed cost per round and per seal: 129 KV rounds and 65 small generations, writes \
              interleaved with reads; the opposite use of dht and runtime to mis-tw",
        kind: Kind::Registry {
            family: "dyn-cc",
            source: "ok",
            smoke_source: "rmat:9,3000,social",
            caching: true,
            unit: WorkUnit::Updates,
        },
        warmups: 1,
    },
    Workload {
        name: "chase-flat",
        why: "the substrate with no kernel around it: fixed 8-byte values, index far larger than \
              cache, split into write round / seal / read round / drop; bypass for the wire layer",
        kind: Kind::Chase {
            log_n: 22,
            store: StoreKind::Flat,
        },
        warmups: 3,
    },
    Workload {
        name: "chase-socket",
        why: "the same chase against two ampc-shardd processes: the only workload where wire \
              encode, syscall, decode and memo do the work",
        kind: Kind::Chase {
            log_n: 20,
            store: StoreKind::Socket,
        },
        warmups: 1,
    },
];

/// Looks a workload up by name.
pub fn lookup(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// Whether the workload uses the socket substrate.
    pub fn is_socket(&self) -> bool {
        matches!(
            self.kind,
            Kind::Chase {
                store: StoreKind::Socket,
                ..
            }
        )
    }

    /// The runtime configuration: `harness_config(Bench)` with the thread
    /// count and substrate pinned, and no fault schedule whatever the
    /// ambient `AMPC_CHAOS` says.
    pub fn config(&self, size: Size, threads: usize) -> AmpcConfig {
        let scale = match size {
            Size::Full => Scale::Bench,
            // The toy graphs must still take the distributed code paths.
            Size::Smoke => Scale::Test,
        };
        let (store, caching) = match self.kind {
            Kind::Registry { caching, .. } => (StoreKind::Flat, caching),
            Kind::Chase { store, .. } => (store, true),
        };
        let mut cfg = harness_config(scale)
            .with_threads(threads)
            .with_store(store)
            .with_caching(caching);
        cfg.chaos = None;
        cfg
    }

    /// Kernel parameters; the update schedule is part of the seeded input.
    pub fn params(&self, size: Size, seed: u64) -> AlgoParams {
        let full = size == Size::Full;
        AlgoParams {
            walkers_per_node: if full { WALKERS } else { 2 },
            steps: if full { WALK_STEPS } else { 4 },
            dyn_batches: if full { DYN_BATCHES } else { 3 },
            dyn_ops: if full { DYN_OPS } else { 32 },
            dyn_seed: seed,
            ..AlgoParams::default()
        }
    }

    /// Generates the input from the seed. This is the repeatable part of
    /// set-up (spawning the shard fleet can happen once per process).
    pub fn generate(&self, size: Size, seed: u64) -> Result<Input, String> {
        match self.kind {
            Kind::Registry {
                source,
                smoke_source,
                ..
            } => {
                let src = if size == Size::Full {
                    source
                } else {
                    smoke_source
                };
                let g = GraphSource::parse(src)?.load(Scale::Bench, seed)?;
                Ok(Input::Graph(g))
            }
            Kind::Chase { log_n, .. } => {
                let log_n = if size == Size::Full { log_n } else { 12 };
                Ok(Input::Table(chase::build_table(1 << log_n, seed)))
            }
        }
    }

    /// Work units one repetition performs on `input`.
    pub fn units(&self, size: Size, input: &Input) -> f64 {
        let p = self.params(size, 0);
        match (self.kind, input) {
            (Kind::Registry { unit, .. }, Input::Graph(g)) => match unit {
                WorkUnit::Edges => g.num_edges() as f64,
                WorkUnit::Hops => (g.num_nodes() * p.walkers_per_node * p.steps) as f64,
                WorkUnit::Updates => (p.dyn_batches * p.dyn_ops) as f64,
            },
            (Kind::Chase { .. }, Input::Table(t)) => (t.len() * CHASE_HOPS) as f64,
            _ => unreachable!("generate() pairs every kind with its input"),
        }
    }
}

/// A generated input, in memory.
pub enum Input {
    /// A graph, for the registry workloads.
    Graph(CsrGraph),
    /// A successor table, for the chase workloads.
    Table(Vec<u64>),
}

/// What a repetition produced, kept only until it has been checked.
pub enum Output {
    /// A registry kernel's output.
    Algo(AlgoOutput),
    /// The chase's final position per key.
    Finals(Vec<u64>),
}

/// Everything about a repetition that must repeat exactly: the counts
/// are pure functions of (seed, kernel), never noise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Counts {
    /// Output digest.
    pub digest: u64,
    /// `JobReport::sim_ns`.
    pub sim_ns: u64,
    /// `num_shuffles()`.
    pub shuffles: usize,
    /// `num_kv_rounds()`.
    pub kv_rounds: usize,
    /// Stages of every kind.
    pub stages: usize,
    /// Epoch marks.
    pub epochs: usize,
    /// Machines replayed by fault injection (always 0 here).
    pub replays: u64,
    /// Local operations, summed over stages.
    pub ops: u64,
    /// Largest generation any KV round read.
    pub peak_generation_bytes: u64,
    /// Merged KV communication.
    pub comm: CommStats,
}

impl Counts {
    fn of(digest: u64, report: &JobReport) -> Counts {
        Counts {
            digest,
            sim_ns: report.sim_ns(),
            shuffles: report.num_shuffles(),
            kv_rounds: report.num_kv_rounds(),
            stages: report.stages.len(),
            epochs: report.num_epochs(),
            replays: report.replays,
            ops: report.stages.iter().map(|s| s.ops).sum(),
            peak_generation_bytes: report.peak_generation_bytes(),
            comm: report.kv_comm(),
        }
    }
}

/// Wall time the stage timers inside the crates attribute, by kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageWall {
    /// Sum over KV rounds, ns.
    pub kv_ns: u64,
    /// Sum over local stages, ns.
    pub local_ns: u64,
    /// Sum over shuffles, ns (the crates record 0 today).
    pub shuffle_ns: u64,
    /// The largest single stage, ns.
    pub top_ns: u64,
}

impl StageWall {
    fn of(report: &JobReport) -> StageWall {
        let mut w = StageWall::default();
        for s in &report.stages {
            match s.kind {
                StageKind::KvRound => w.kv_ns += s.wall_ns,
                StageKind::Local => w.local_ns += s.wall_ns,
                StageKind::Shuffle => w.shuffle_ns += s.wall_ns,
            }
            w.top_ns = w.top_ns.max(s.wall_ns);
        }
        w
    }

    /// All stage wall time, ns.
    pub fn total_ns(&self) -> u64 {
        self.kv_ns + self.local_ns + self.shuffle_ns
    }
}

/// One executed repetition.
pub struct Rep {
    /// The exact part.
    pub counts: Counts,
    /// The kernel call alone, ns (`Driven::wall_ns`).
    pub kernel_ns: u64,
    /// Stage wall time by kind.
    pub stage_wall: StageWall,
    /// Chase phase boundaries.
    pub phases: Option<ChasePhases>,
    /// The output, for validation.
    pub output: Output,
}

/// A workload with its input and configuration, ready to repeat.
pub struct Prepared<'a> {
    /// The workload.
    pub workload: &'static Workload,
    /// Its configuration.
    pub cfg: AmpcConfig,
    /// Its kernel parameters.
    pub params: AlgoParams,
    /// Its input.
    pub input: &'a Input,
}

impl Prepared<'_> {
    /// One repetition: the kernel through the registry (or the chase),
    /// then the output digest. Panics inside the kernel propagate; the
    /// caller counts them as failed repetitions.
    pub fn rep(&self, tracer: &mut Tracer) -> Result<Rep, String> {
        match (self.workload.kind, self.input) {
            (Kind::Registry { family, .. }, Input::Graph(g)) => {
                let input = AlgoInput::Unweighted(g);
                let driven = tracer.span("core.kernel", |t| {
                    let d = registry::run_family_with(
                        family,
                        Model::Ampc,
                        &input,
                        &self.cfg,
                        &self.params,
                    );
                    if let Ok(d) = &d {
                        trace_report(t, &d.report);
                    }
                    d
                })?;
                let digest = tracer.span("bench.digest", |_| driven.output.digest());
                Ok(Rep {
                    counts: Counts::of(digest, &driven.report),
                    kernel_ns: driven.wall_ns,
                    stage_wall: StageWall::of(&driven.report),
                    phases: None,
                    output: Output::Algo(driven.output),
                })
            }
            (Kind::Chase { .. }, Input::Table(table)) => {
                let driven = chase::run(&self.cfg, table, CHASE_HOPS);
                let (finals, phases) = driven.output;
                tracer.record("runtime.write_round", phases.write.0, phases.write.1);
                tracer.record("dht.seal", phases.seal.0, phases.seal.1);
                tracer.record("runtime.read_round", phases.read.0, phases.read.1);
                tracer.record("dht.drop", phases.drop.0, phases.drop.1);
                let digest = tracer.span("bench.digest", |_| {
                    ampc_core::algorithm::digest_u64s(finals.iter().copied())
                });
                Ok(Rep {
                    counts: Counts::of(digest, &driven.report),
                    kernel_ns: driven.wall_ns,
                    stage_wall: StageWall::of(&driven.report),
                    phases: Some(phases),
                    output: Output::Finals(finals),
                })
            }
            _ => unreachable!("generate() pairs every kind with its input"),
        }
    }

    /// Checks an output against the input: the registry's validator
    /// (walks: shape by the registry's rule, then every hop against the
    /// graph), or a sequential recomputation for the chase.
    pub fn validate(&self, output: &Output) -> Result<(), String> {
        match (self.workload.kind, self.input, output) {
            (Kind::Registry { family, .. }, Input::Graph(g), Output::Algo(out)) => {
                let input = AlgoInput::Unweighted(g);
                if family == "walks" {
                    // `RegistryEntry::validate` re-checks sortedness of an
                    // adjacency list per hop: 20 s at this size.
                    validate_walks_shape(
                        &input,
                        out,
                        self.params.walkers_per_node,
                        self.params.steps,
                    )?;
                    return validate_walk_hops(g, out);
                }
                registry::lookup(family, Model::Ampc)
                    .ok_or_else(|| format!("{family}: not in the registry"))?
                    .validate(&input, out, &self.params)
            }
            (Kind::Chase { .. }, Input::Table(table), Output::Finals(finals)) => {
                if *finals == chase::reference(table, CHASE_HOPS) {
                    Ok(())
                } else {
                    Err("chase: finals differ from the sequential recomputation".into())
                }
            }
            _ => Err("output kind does not match the workload".into()),
        }
    }
}

/// Attaches a report's stage table and communication to the open span.
fn trace_report(t: &mut Tracer, report: &JobReport) {
    let wall = StageWall::of(report);
    let comm = report.kv_comm();
    t.count("stages", report.stages.len() as f64);
    t.count("stage_kv_ns", wall.kv_ns as f64);
    t.count("stage_local_ns", wall.local_ns as f64);
    t.count("stage_shuffle_ns", wall.shuffle_ns as f64);
    t.count("queries", comm.queries as f64);
    t.count("round_trips", comm.round_trips() as f64);
    t.count("kv_bytes", comm.kv_bytes() as f64);
    t.count("cache_hits", comm.cache_hits as f64);
}

/// Every hop of every walk follows an edge, or stays put at a vertex
/// with no neighbours.
fn validate_walk_hops(g: &CsrGraph, out: &AlgoOutput) -> Result<(), String> {
    let AlgoOutput::Walks(walks) = out else {
        return Err("walks: wrong output kind".into());
    };
    let sorted = g
        .nodes()
        .all(|v| g.neighbors(v).windows(2).all(|w| w[0] <= w[1]));
    for (i, walk) in walks.iter().enumerate() {
        for hop in walk.windows(2) {
            let (a, b) = (hop[0], hop[1]);
            let nbrs = g.neighbors(a);
            let ok = if nbrs.is_empty() {
                a == b
            } else if sorted {
                nbrs.binary_search(&b).is_ok()
            } else {
                nbrs.contains(&b)
            };
            if !ok {
                return Err(format!("walks: walk {i} hops {a} -> {b}, not an edge"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(
                w.warmups >= 1,
                "{}: repetition 0 is the validated one",
                w.name
            );
            assert!(ALL[..i].iter().all(|o| o.name != w.name));
            assert!(lookup(w.name).is_some());
        }
        assert!(lookup("mis").is_none());
        assert_eq!(ALL.iter().filter(|w| w.is_socket()).count(), 1);
    }

    #[test]
    fn walk_hops_are_checked_against_the_graph() {
        let g = GraphSource::parse("path:4")
            .unwrap()
            .load(Scale::Test, 1)
            .unwrap();
        let good = AlgoOutput::Walks(vec![vec![0, 1, 2], vec![3, 2, 3]]);
        assert!(validate_walk_hops(&g, &good).is_ok());
        let bad = AlgoOutput::Walks(vec![vec![0, 2, 3]]);
        assert!(validate_walk_hops(&g, &bad).is_err());
        assert!(validate_walk_hops(&g, &AlgoOutput::Mis(vec![])).is_err());
    }
}
