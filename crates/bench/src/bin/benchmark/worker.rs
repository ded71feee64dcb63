//! One workload, measured in this process: set-up, warm-ups, timed
//! repetitions in a closed loop (the next starts when the previous one
//! has been checked), and — in the traced run — spans and layer probes.

use crate::chase::{self, ChasePhases};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::{self, Tracer, REP_SPAN};
use crate::stats::{fastest, iqr_share, median};
use crate::workloads::{Counts, Input, Kind, Prepared, Rep, Size, Workload, CHASE_HOPS};
use ampc_dht::store::StoreKind;
use ampc_runtime::driver::drive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How to run a workload.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Input sizes.
    pub size: Size,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the timed repetitions run, at least.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Executor threads; must match the process's `AMPC_THREADS`, which
    /// the runner pins, because seal parallelism reads only that.
    pub threads: usize,
    /// How often the repeatable part of set-up is repeated.
    pub setup_reps: usize,
}

/// What one workload run produced.
pub struct Outcome {
    /// The workload.
    pub workload: &'static Workload,
    /// Repetitions started, warm-ups included.
    pub attempted: u64,
    /// Repetitions that differed from repetition 0 in digest or in any
    /// exact count; all of them once one panicked or failed validation,
    /// or once the run turned out to measure the wrong thing.
    pub failed: u64,
    /// Why, one line each.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Wall time of each timed repetition, seconds.
    pub samples: Vec<f64>,
    /// Repetition 0's exact counts, if it completed.
    pub counts: Option<Counts>,
    /// Spans, one JSON object per line (traced run).
    pub trace_jsonl: String,
    /// Self-time table (traced run).
    pub self_times: String,
}

impl Outcome {
    /// No repetition failed and nothing was measured wrongly.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }
}

/// Transport counters; the one place the benchmark reads the
/// process-global `wire_metrics`.
#[derive(Clone, Copy, Debug, Default)]
struct WireNow {
    requests: u64,
    bytes: u64,
    reconnects: u64,
    spawns: u64,
}

fn wire_now() -> WireNow {
    let w = ampc_dht::wire_metrics();
    WireNow {
        requests: w.requests,
        bytes: w.bytes_sent + w.bytes_received,
        reconnects: w.reconnects,
        spawns: w.spawns,
    }
}

/// The memory peak is read after this many timed repetitions, not at
/// exit: a run measures for a fixed time, so its repetition count — and
/// with it how far the allocator's arenas have grown — differs from run
/// to run, while the state after a fixed count does not.
const RSS_AFTER_TIMED: usize = 2;

/// `VmHWM` of this process, MiB: the resident-set high-water mark since
/// the process started or since [`reset_peak_rss`].
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so that the peak read
/// later is the kernel's with its input in memory, not that of set-up
/// (three input generations) or of the repetition-0 validator. Where the
/// kernel does not allow it the peak stays the whole process's.
fn reset_peak_rss() {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("benchmark: cannot reset VmHWM; peak_rss_mib covers set-up too");
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Timed repetitions of one kind (traced or untraced).
#[derive(Default)]
struct Timed {
    wall_s: Vec<f64>,
    kernel_s: Vec<f64>,
    stage_kv_s: Vec<f64>,
    stage_local_s: Vec<f64>,
    stage_all_s: Vec<f64>,
    stage_top_s: Vec<f64>,
    /// Chase phases: write, seal, read, drop.
    phases_s: [Vec<f64>; 4],
    wire_requests: Vec<f64>,
    wire_bytes: Vec<f64>,
}

impl Timed {
    fn push(&mut self, wall_s: f64, rep: &Rep, wire: (WireNow, WireNow)) {
        self.wall_s.push(wall_s);
        self.kernel_s.push(secs(rep.kernel_ns));
        self.stage_kv_s.push(secs(rep.stage_wall.kv_ns));
        self.stage_local_s.push(secs(rep.stage_wall.local_ns));
        self.stage_all_s.push(secs(rep.stage_wall.total_ns()));
        self.stage_top_s.push(secs(rep.stage_wall.top_ns));
        if let Some(p) = rep.phases {
            self.push_phases(p);
        }
        self.wire_requests
            .push((wire.1.requests - wire.0.requests) as f64);
        self.wire_bytes.push((wire.1.bytes - wire.0.bytes) as f64);
    }
}

impl Timed {
    fn push_phases(&mut self, p: ChasePhases) {
        for (slot, (from, to)) in self
            .phases_s
            .iter_mut()
            .zip([p.write, p.seal, p.read, p.drop])
        {
            slot.push((to - from).as_secs_f64());
        }
    }
}

/// Runs `workload` in this process.
pub fn run(workload: &'static Workload, opts: Options) -> Outcome {
    let mut tracer = Tracer::new(opts.trace);
    let table = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut out = Outcome {
        workload,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Metrics::zeroed(table),
        samples: Vec::new(),
        counts: None,
        trace_jsonl: String::new(),
        self_times: String::new(),
    };
    tracer.span("workload", |t| measure(workload, opts, t, &mut out));
    if opts.trace {
        let cover = spans::min_rep_cover(tracer.spans());
        out.metrics.set("bench.rep_cover_pct", cover * 100.0);
        out.trace_jsonl = tracer.to_jsonl(workload.name);
        out.self_times = spans::render_self_times(&spans::self_time_table(tracer.spans()));
    }
    out
}

fn measure(workload: &'static Workload, opts: Options, tracer: &mut Tracer, out: &mut Outcome) {
    let cfg = workload.config(opts.size, opts.threads);
    let wire_start = wire_now();

    // ---------------------------------------------------------- set-up
    let mut gen_s = Vec::new();
    let mut input = None;
    let mut spawn_s = 0.0;
    let setup = tracer.span("setup", |t| -> Result<(), String> {
        for _ in 0..opts.setup_reps.max(1) {
            // Drop the previous copy first: nothing needs two live inputs.
            input = None;
            let name = match workload.kind {
                Kind::Registry { .. } => "graph.generate",
                Kind::Chase { .. } => "chase.table",
            };
            let start = Instant::now();
            input = Some(t.span(name, |_| workload.generate(opts.size, opts.seed))?);
            gen_s.push(start.elapsed().as_secs_f64());
        }
        if workload.is_socket() {
            // An empty job under the socket store: `drive` brings every
            // shard server up and pings it.
            let start = Instant::now();
            t.span("wire.spawn_fleet", |_| drive(&cfg, |_job| ()));
            spawn_s = start.elapsed().as_secs_f64();
        }
        Ok(())
    });
    let input = match (setup, input) {
        (Ok(()), Some(input)) => input,
        (Err(e), _) => return fail_all(out, format!("set-up: {e}")),
        (Ok(()), None) => return fail_all(out, "set-up produced no input".into()),
    };
    let setup_s = median(&gen_s) + spawn_s;
    let prepared = Prepared {
        workload,
        cfg,
        params: workload.params(opts.size, opts.seed),
        input: &input,
    };

    // ----------------------------------------------------- repetitions
    let (mut traced, mut untraced) = (Timed::default(), Timed::default());
    let min_timed = match (opts.size, opts.trace) {
        (Size::Smoke, false) => 2,
        (Size::Smoke, true) => 4,
        (Size::Full, false) => 3,
        (Size::Full, true) => 6,
    };
    let mut timed_start: Option<Instant> = None;
    let mut index = 0usize;
    let mut rss_mib = 0.0;
    loop {
        let timed = index >= workload.warmups;
        if timed {
            let since = *timed_start.get_or_insert_with(Instant::now);
            let done = traced.wall_s.len() + untraced.wall_s.len();
            let time_up = opts.size == Size::Smoke || since.elapsed().as_secs_f64() >= opts.seconds;
            if done >= min_timed && time_up {
                break;
            }
        }
        // The traced run alternates traced and untraced repetitions, so
        // that what tracing costs is measured inside one process.
        let record = opts.trace && (!timed || (index - workload.warmups).is_multiple_of(2));
        tracer.set_enabled(record);
        tracer.set_rep(Some(index));
        let wire_before = wire_now();
        let start = Instant::now();
        out.attempted += 1;
        let rep = catch_unwind(AssertUnwindSafe(|| {
            tracer.span(REP_SPAN, |t| {
                let rep = prepared.rep(t)?;
                if index == 0 {
                    t.span("bench.validate", |_| prepared.validate(&rep.output))?;
                }
                Ok::<Rep, String>(rep)
            })
        }));
        let wall_s = start.elapsed().as_secs_f64();
        tracer.set_enabled(opts.trace);
        if !record {
            // Keeps the untraced repetitions of a traced run out of the
            // self time of `workload`; recorded after the fact, so the
            // repetition itself ran with tracing off.
            tracer.record("bench.untraced_rep", start, Instant::now());
        }
        tracer.set_rep(None);
        // A repetition that fails ends the run: the rest cannot be
        // trusted, so every repetition counts as failed.
        let rep = match rep {
            Ok(Ok(rep)) => rep,
            Ok(Err(e)) => return fail_all(out, format!("repetition {index}: {e}")),
            Err(_) => return fail_all(out, format!("repetition {index}: panicked")),
        };
        match out.counts {
            None => out.counts = Some(rep.counts),
            Some(first) if first != rep.counts => {
                out.failed += 1;
                out.errors.push(format!(
                    "repetition {index}: digest or counts differ from repetition 0 \
                     ({:?} vs {first:?})",
                    rep.counts
                ));
            }
            Some(_) => {}
        }
        if timed {
            let side = if record { &mut traced } else { &mut untraced };
            side.push(wall_s, &rep, (wire_before, wire_now()));
        }
        drop(rep);
        if index == 0 {
            reset_peak_rss();
        } else if index == workload.warmups + RSS_AFTER_TIMED - 1 {
            rss_mib = peak_rss_mib();
        }
        index += 1;
    }
    out.samples = if opts.trace {
        traced.wall_s.clone()
    } else {
        untraced.wall_s.clone()
    };

    // ------------------------------------------- the wrong-thing checks
    let wire_end = wire_now();
    let wire_requests = wire_end.requests - wire_start.requests;
    let wire_spawns = wire_end.spawns - wire_start.spawns;
    if workload.is_socket() {
        if wire_requests == 0 {
            fail_all(out, "socket workload recorded no wire request".into());
        }
        if opts.size == Size::Full && wire_spawns < 2 {
            fail_all(
                out,
                format!("socket workload spawned {wire_spawns} shard servers, not 2"),
            );
        }
    } else if wire_requests != 0 {
        fail_all(
            out,
            format!("flat workload recorded {wire_requests} wire requests"),
        );
    }

    let Some(counts) = out.counts else {
        return;
    };
    let units = workload.units(opts.size, &input);
    if !opts.trace {
        let wall_s = fastest(&untraced.wall_s);
        out.metrics.set("wall_s", wall_s);
        out.metrics.set(
            "work_per_s",
            if wall_s > 0.0 { units / wall_s } else { 0.0 },
        );
        out.metrics.set("setup_s", setup_s);
        out.metrics.set("peak_rss_mib", rss_mib);
        return;
    }

    let measured = Measured {
        gen_s,
        spawn_s,
        traced,
        untraced,
        wire: (wire_start, wire_end),
    };
    layer_metrics(&prepared, opts, counts, &measured, &mut out.metrics, tracer);
}

/// What the set-up and the repetitions of a traced run measured.
struct Measured {
    gen_s: Vec<f64>,
    spawn_s: f64,
    traced: Timed,
    untraced: Timed,
    /// Transport counters before set-up and after the last repetition.
    wire: (WireNow, WireNow),
}

/// The per-layer metrics: counts of repetition 0, medians over the
/// traced repetitions, then the probes.
fn layer_metrics(
    prepared: &Prepared<'_>,
    opts: Options,
    counts: Counts,
    measured: &Measured,
    m: &mut Metrics,
    tracer: &mut Tracer,
) {
    let Measured {
        gen_s,
        spawn_s,
        traced,
        untraced,
        wire: (wire_start, wire_end),
    } = measured;
    let workload = prepared.workload;
    m.set("model.sim_s", secs(counts.sim_ns));
    m.set("model.shuffles", counts.shuffles as f64);
    m.set("model.kv_rounds", counts.kv_rounds as f64);
    let kernel_s = median(&traced.kernel_s);
    let stage_all_s = median(&traced.stage_all_s);
    m.set("core.kernel_s", kernel_s);
    m.set("core.stage_kv_s", median(&traced.stage_kv_s));
    m.set("core.stage_local_s", median(&traced.stage_local_s));
    m.set("core.unattributed_s", (kernel_s - stage_all_s).max(0.0));
    if kernel_s > 0.0 {
        m.set(
            "core.unattributed_share",
            ((kernel_s - stage_all_s) / kernel_s).max(0.0),
        );
        m.set(
            "core.top_stage_share",
            median(&traced.stage_top_s) / kernel_s,
        );
    }
    m.set("core.ops", counts.ops as f64);
    m.set("dht.queries", counts.comm.queries as f64);
    m.set("dht.round_trips", counts.comm.round_trips() as f64);
    m.set("dht.kv_bytes", counts.comm.kv_bytes() as f64);
    m.set("dht.cache_hits", counts.comm.cache_hits as f64);
    m.set("dht.cache_hit_ratio", counts.comm.cache_hit_rate());
    m.set(
        "dht.peak_generation_bytes",
        counts.peak_generation_bytes as f64,
    );
    m.set("dht.retries", counts.comm.retries as f64);
    m.set("runtime.stages", counts.stages as f64);
    m.set("runtime.epochs", counts.epochs as f64);
    m.set("runtime.replays", counts.replays as f64);
    m.set("wire.requests", median(&traced.wire_requests));
    m.set("wire.bytes", median(&traced.wire_bytes));
    m.set(
        "wire.reconnects",
        (wire_end.reconnects - wire_start.reconnects) as f64,
    );
    m.set("wire.spawns", (wire_end.spawns - wire_start.spawns) as f64);
    m.set("wire.spawn_fleet_s", *spawn_s);
    if let Input::Graph(g) = prepared.input {
        let gen = median(gen_s);
        m.set("graph.gen_s", gen);
        m.set(
            "graph.gen_medges_per_s",
            g.num_edges() as f64 / 1e6 / gen.max(1e-9),
        );
        m.set("graph.nodes", g.num_nodes() as f64);
        m.set("graph.edges", g.num_edges() as f64);
        m.set("graph.max_degree", g.max_degree() as f64);
    }
    let traced_s = fastest(&traced.wall_s);
    let untraced_s = fastest(&untraced.wall_s);
    m.set("bench.traced_wall_s", traced_s);
    m.set("bench.untraced_wall_s", untraced_s);
    if untraced_s > 0.0 {
        m.set(
            "bench.trace_overhead_pct",
            (traced_s - untraced_s) / untraced_s * 100.0,
        );
    }
    m.set("bench.wall_iqr_pct", iqr_share(&untraced.wall_s) * 100.0);
    m.set(
        "bench.reps",
        (traced.wall_s.len() + untraced.wall_s.len()) as f64,
    );

    let probe_start = Instant::now();
    tracer.set_enabled(true);
    tracer.span("probes", |t| {
        probes::run_all(prepared, opts.size, opts.seed, m, t);
        if let Input::Table(table) = prepared.input {
            let keys = table.len();
            let [write, seal, read, dropped] = traced.phases_s.each_ref().map(|v| median(v));
            m.set("dht.put_ns_per_key", write * 1e9 / keys as f64);
            m.set("dht.seal_ns_per_key", seal * 1e9 / keys as f64);
            m.set(
                "dht.seal_ns_per_byte",
                seal * 1e9 / counts.peak_generation_bytes.max(1) as f64,
            );
            m.set(
                "dht.get_ns_per_key",
                read * 1e9 / (keys * CHASE_HOPS) as f64,
            );
            m.set("dht.drop_s", dropped);
            if workload.is_socket() {
                wire_gap(prepared, table, traced, m, t);
            }
        }
    });
    if m.get("mpc.sim_s") > 0.0 {
        m.set(
            "mpc.sim_speedup",
            m.get("mpc.sim_s") / secs(counts.sim_ns).max(1e-12),
        );
    }
    m.set("bench.probe_s", probe_start.elapsed().as_secs_f64());
}

/// The wire layer's own cost: the same chase on the flat store in this
/// process, and the socket phases minus the flat ones.
fn wire_gap(p: &Prepared<'_>, table: &[u64], socket: &Timed, m: &mut Metrics, t: &mut Tracer) {
    let flat_cfg = p.cfg.with_store(StoreKind::Flat);
    let mut flat = Timed::default();
    for _ in 0..3 {
        let start = Instant::now();
        let driven = t.span("wire.flat_baseline", |_| {
            chase::run(&flat_cfg, table, CHASE_HOPS)
        });
        flat.wall_s.push(start.elapsed().as_secs_f64());
        flat.push_phases(driven.output.1);
    }
    // Back to the socket store, as every later job in this process expects.
    drive(&p.cfg, |_job| ());
    let diff = |i: usize| (median(&socket.phases_s[i]) - median(&flat.phases_s[i])).max(0.0);
    m.set("wire.seal_offload_s", diff(1));
    m.set("wire.read_extra_s", diff(2));
    m.set("wire.drop_s", diff(3));
    let extra_s = (fastest(&socket.wall_s) - fastest(&flat.wall_s)).max(0.0);
    m.set(
        "wire.ns_per_byte",
        extra_s * 1e9 / median(&socket.wire_bytes).max(1.0),
    );
    m.set(
        "wire.ns_per_request",
        extra_s * 1e9 / median(&socket.wire_requests).max(1.0),
    );
    m.set(
        "wire.gap_x",
        fastest(&flat.wall_s) / fastest(&socket.wall_s).max(1e-12),
    );
}

/// Marks the whole run as failed: what was measured is not the workload.
fn fail_all(out: &mut Outcome, why: String) {
    out.attempted = out.attempted.max(1);
    out.failed = out.attempted;
    out.errors.push(why);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_memory_peak_restarts_below_an_allocation_made_before_the_reset() {
        if std::fs::write("/proc/self/clear_refs", "5").is_err() {
            return;
        }
        let big = std::hint::black_box(vec![1u8; 128 << 20]);
        let with = peak_rss_mib();
        assert!(with > 128.0);
        drop(big);
        reset_peak_rss();
        assert!(peak_rss_mib() < with - 64.0);
    }
}
