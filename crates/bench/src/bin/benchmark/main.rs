//! `benchmark` — the repo benchmark: six workloads, absolute end-to-end
//! metrics, and a traced run that splits each repetition by layer.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run     [--seed <n>] [--seconds <s>]
//! benchmark trace   [--seed <n>] [--seconds <s>]
//! benchmark compare <base.json> <change.json>
//! benchmark smoke
//! ```
//!
//! The first form measures one workload and prints, as its last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (`BENCHMARK.json` at the repository root declares the metrics). `run`
//! and `trace` do that for all six and write `result.json` /
//! `trace.jsonl` into `<target>/benchmark/`. See `README.md` beside this
//! file for what each workload stresses and how to read the output.
//!
//! Every measurement happens in a fresh child process of this binary
//! whose `AMPC_*` environment the runner pins: `ampc_threads()` and the
//! shard fleet are process-global, and an ambient knob must not leak into
//! a number. The benchmark measures each layer from outside, by timing
//! calls into the crates' public functions; it adds nothing to any crate.

mod chase;
mod jsonw;
mod metrics;
mod probes;
mod record;
mod spans;
mod stats;
mod worker;
mod workloads;

use ampc_bench::json::parse_json;
use ampc_bench::util::GRAPH_SEED;
use record::Record;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use worker::Options;
use workloads::{Size, Workload};

/// Worker threads (and shard connections) of every measurement: the
/// sandbox has two cores.
pub const THREADS: usize = 2;

/// A worker that has not finished by then is killed: one run must end
/// within 180 s.
const WORKER_DEADLINE: Duration = Duration::from_secs(170);

const USAGE: &str = "\
usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       benchmark run|trace [--seed <n>] [--seconds <s>]
       benchmark compare <base.json> <change.json>
       benchmark smoke
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs after the positionals.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.get("--workload").ok_or("--workload is required")?;
        workloads::lookup(name).ok_or_else(|| {
            let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
    }
}

/// Returns whether everything measured was correct.
fn dispatch(args: &[String]) -> Result<bool, String> {
    let flags = Flags(args);
    match args.first().map(String::as_str) {
        Some("worker") => {
            let opts = Options {
                size: Size::Full,
                seed: flags.num("--seed", GRAPH_SEED)?,
                seconds: flags.num("--seconds", RUN_SECONDS as f64)?,
                trace: flags.num("--trace", 0u8)? != 0,
                threads: flags.num("--threads", THREADS)?,
                setup_reps: flags.num("--setup-reps", 1)?,
            };
            let outcome = worker::run(flags.workload()?, opts);
            if let Some(path) = flags.get("--trace-out") {
                std::fs::write(path, &outcome.trace_jsonl).map_err(|e| format!("{path}: {e}"))?;
            }
            print!("{}", outcome.self_times);
            println!("{}", Record::of(&outcome).to_json());
            Ok(outcome.correct())
        }
        Some("run" | "trace") => {
            let trace = args[0] == "trace";
            let seed = flags.num("--seed", GRAPH_SEED)?;
            let seconds = flags.num("--seconds", RUN_SECONDS)?;
            run_all(trace, seed, seconds)
        }
        Some("compare") => {
            let [base, change] = [1, 2].map(|i| args.get(i).filter(|a| !a.starts_with("--")));
            let (Some(base), Some(change)) = (base, change) else {
                return Err(USAGE.into());
            };
            let read = |path: &String| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                record::parse_result(&text).map_err(|e| format!("{path}: {e}"))
            };
            let rows = record::compare(&read(base)?, &read(change)?);
            print!("{}", record::render_rows(&rows));
            let bad = rows.iter().filter(|r| r.verdict.is_bad()).count();
            let open = rows
                .iter()
                .filter(|r| r.verdict == record::Verdict::Unresolved)
                .count();
            println!(
                "{bad} regressed, changed or missing, {open} unresolved, {} rows (bound {} %)",
                rows.len(),
                metrics::BOUND * 100.0
            );
            Ok(bad == 0)
        }
        Some("smoke") => smoke(),
        Some(first) if first.starts_with("--") && first != "--help" => {
            let workload = flags.workload()?;
            let seed = flags.num("--seed", GRAPH_SEED)?;
            let seconds = flags.num("--seconds", RUN_SECONDS)?;
            let trace = flags.num("--trace", 0u8)? != 0;
            let record = measure(workload, seed, seconds, trace);
            print_record(&record);
            println!("{}", record.strict_line());
            Ok(record.correct)
        }
        _ => {
            print!("{USAGE}");
            Ok(true)
        }
    }
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
const RUN_SECONDS: u64 = 8;

/// `BENCHMARK.json`, from the workload and metric tables: a test holds
/// the committed file to it, so the contract cannot drift from what the
/// benchmark emits.
#[cfg(test)]
fn manifest() -> String {
    use jsonw::{array, string, Obj};
    let lines = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = workloads::ALL
        .iter()
        .map(|w| Obj::new().str("name", w.name).str("why", w.why).finish())
        .collect();
    let metric = |d: &metrics::MetricDef, bounded: bool| {
        let mut o = Obj::new();
        o.str("name", d.name)
            .str("unit", d.unit)
            .str("better", d.better);
        if bounded {
            o.num("bound", metrics::BOUND);
        }
        o.finish()
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        array(["bash", "crates/bench/src/bin/benchmark/run.sh"].map(string)),
        array(["crates/bench/src/bin/benchmark"].map(string)),
        lines(workloads),
        lines(
            metrics::END_TO_END
                .iter()
                .map(|d| metric(d, true))
                .collect()
        ),
        lines(
            metrics::PER_LAYER
                .iter()
                .map(|d| metric(d, false))
                .collect()
        ),
    )
}

/// `<target>/benchmark/`: where results, traces and shard sockets go —
/// inside the checkout, beside the build.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the benchmark binary has no target directory above it")?;
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The shard server must sit where `ampc_dht` looks for it: beside this
/// binary (or up to two directories above). Without it the substrate
/// silently falls back to in-process listener threads, and the workload
/// would measure something else.
fn shardd_beside_exe() -> bool {
    std::env::current_exe().is_ok_and(|exe| {
        exe.ancestors()
            .skip(1)
            .take(3)
            .any(|dir| dir.join("ampc-shardd").is_file())
    })
}

/// One worker child: this binary again, with the environment pinned.
fn spawn_worker(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    setup_reps: usize,
) -> Result<Record, String> {
    let dir = out_dir()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let stdout_path = dir.join(format!("worker-{}.out", workload.name));
    let stdout = std::fs::File::create(&stdout_path)
        .map_err(|e| format!("{}: {e}", stdout_path.display()))?;
    // Shard sockets live under TMPDIR. A path relative to the working
    // directory keeps them inside the checkout and under the 108-byte
    // limit of a Unix socket address however deep the checkout is.
    let cwd = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    let sockets = dir.join("sockets");
    std::fs::create_dir_all(&sockets).map_err(|e| format!("{}: {e}", sockets.display()))?;
    let sockets = sockets.strip_prefix(&cwd).unwrap_or(&sockets).to_path_buf();

    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &threads.to_string()])
        .args(["--setup-reps", &setup_reps.to_string()]);
    if trace {
        cmd.arg("--trace-out")
            .arg(dir.join(format!("trace-{}.jsonl", workload.name)));
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("AMPC_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("AMPC_THREADS", threads.to_string())
        .env("AMPC_SOCKET_SHARDS", THREADS.to_string())
        .env("TMPDIR", &sockets)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::inherit());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start a worker: {e}"))?;
    let pid = child.id();
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if start.elapsed() > WORKER_DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                wait_for_shards_to_exit(pid);
                return Err(format!(
                    "worker exceeded {} s and was killed",
                    WORKER_DEADLINE.as_secs()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => return Err(format!("waiting for the worker: {e}")),
        }
    };
    let shards_gone = wait_for_shards_to_exit(pid);
    let _ = std::fs::remove_dir_all(dir.join("sockets"));

    let text = std::fs::read_to_string(&stdout_path)
        .map_err(|e| format!("{}: {e}", stdout_path.display()))?;
    let (body, last) = match text.trim_end().rsplit_once('\n') {
        Some((body, last)) => (body, last),
        None => ("", text.trim_end()),
    };
    let mut record = parse_json(last)
        .and_then(|v| Record::from_json(&v))
        .map_err(|e| format!("worker ended with {status} and no readable record: {e}"))?;
    if trace && threads == THREADS {
        println!("{body}");
    }
    if !shards_gone {
        record.fail("a shard server outlived its worker and had to be killed".into());
    }
    Ok(record)
}

/// Shard servers exit when their worker's end of the stdin pipe closes.
/// Waits for that; kills any that linger. Returns whether all left on
/// their own.
fn wait_for_shards_to_exit(worker_pid: u32) -> bool {
    let marker = format!("ampc-shardd-{worker_pid}-");
    let lingering = || -> Vec<u32> {
        let Ok(entries) = std::fs::read_dir("/proc") else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter_map(|e| e.file_name().to_string_lossy().parse::<u32>().ok())
            .filter(|pid| {
                std::fs::read(format!("/proc/{pid}/cmdline"))
                    .is_ok_and(|cmd| String::from_utf8_lossy(&cmd).contains(&marker))
            })
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let left = lingering();
        if left.is_empty() {
            return true;
        }
        if Instant::now() > deadline {
            for pid in left {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Measures one workload: the two-thread worker, and in the traced run a
/// second, one-thread worker whose output must be identical.
fn measure(workload: &'static Workload, seed: u64, seconds: u64, trace: bool) -> Record {
    if workload.is_socket() && !shardd_beside_exe() {
        return Record::refused(
            workload.name,
            "no ampc-shardd beside the benchmark binary, so the socket store would fall back \
             to in-process threads; build it with `cargo build --release -p ampc-dht --bin \
             ampc-shardd` (or run the benchmark through its run.sh)"
                .into(),
        );
    }
    // The traced run spends half its time on repetitions, the rest on
    // probes and the one-thread child.
    let (reps_s, setup_reps) = if trace {
        (seconds as f64 / 2.0, 1)
    } else {
        (seconds as f64, 3)
    };
    let mut record = match spawn_worker(workload, seed, reps_s, trace, THREADS, setup_reps) {
        Ok(record) => record,
        Err(e) => return Record::refused(workload.name, e),
    };
    if trace && record.correct {
        match spawn_worker(workload, seed, seconds as f64 / 4.0, false, 1, 1) {
            Ok(single) => {
                if single.counts != record.counts {
                    record.fail(format!(
                        "one thread and two threads disagree: {:?} vs {:?}",
                        single.counts, record.counts
                    ));
                }
                let (t1, t2) = (
                    single.metric("wall_s").unwrap_or(0.0),
                    record.metric("bench.untraced_wall_s").unwrap_or(0.0),
                );
                if t2 > 0.0 {
                    record.set_metric("runtime.par_speedup_t2", t1 / t2, "ratio");
                }
            }
            Err(e) => record.fail(format!("one-thread child: {e}")),
        }
    }
    record
}

fn print_record(record: &Record) {
    let why = workloads::lookup(&record.workload).map_or("", |w| w.why);
    println!("workload {}: {why}", record.workload);
    let (q1, q3) = stats::quartiles(&record.samples);
    for (name, value, unit) in &record.metrics {
        let note = if matches!(name.as_str(), "wall_s" | "bench.traced_wall_s") {
            format!(
                "  (fastest of n={}; median {:.4}, q1 {q1:.4}, q3 {q3:.4})",
                record.samples.len(),
                stats::median(&record.samples)
            )
        } else {
            String::new()
        };
        println!("  {name:<34} {value:>18.6} {unit}{note}");
    }
    println!(
        "  failed_share {} of {} repetitions",
        record.failed, record.attempted
    );
    for e in &record.errors {
        println!("  ERROR {e}");
    }
}

/// `run` / `trace`: all six workloads, one fresh process each.
fn run_all(trace: bool, seed: u64, seconds: u64) -> Result<bool, String> {
    let dir = out_dir()?;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!("seed {seed}, {seconds} s per workload, {THREADS} threads, nproc {nproc}");
    let mut records = Vec::new();
    let mut spans = String::new();
    for workload in &workloads::ALL {
        let record = measure(workload, seed, seconds, trace);
        print_record(&record);
        if trace {
            let path = dir.join(format!("trace-{}.jsonl", workload.name));
            spans.push_str(&std::fs::read_to_string(&path).unwrap_or_default());
        }
        records.push(record);
    }
    if !trace {
        same_graph_peaks_differ(&mut records);
    }
    let (kind, file) = if trace {
        ("trace", "result-trace.json")
    } else {
        ("run", "result.json")
    };
    let path = dir.join(file);
    std::fs::write(
        &path,
        record::result_json(kind, seed, seconds, nproc, &records),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if trace {
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(records.iter().all(|r| r.correct))
}

/// `mis-tw` and `walks-tw` run two different kernels over the same graph.
/// If their memory peaks agree, the peak is the input generator's, which
/// no change to a kernel can move: fail both rather than report it.
fn same_graph_peaks_differ(records: &mut [Record]) {
    let peak = |records: &[Record], name: &str| {
        records
            .iter()
            .find(|r| r.workload == name)
            .and_then(|r| r.metric("peak_rss_mib"))
    };
    let (Some(mis), Some(walks)) = (peak(records, "mis-tw"), peak(records, "walks-tw")) else {
        return;
    };
    if (mis - walks).abs() <= 0.01 * mis.max(walks) {
        for r in records
            .iter_mut()
            .filter(|r| matches!(r.workload.as_str(), "mis-tw" | "walks-tw"))
        {
            r.fail(format!(
                "peak_rss_mib reads {mis:.1} MiB on mis-tw and {walks:.1} MiB on walks-tw: \
                 it measures set-up, not the kernel"
            ));
            println!(
                "  ERROR {}: {}",
                r.workload,
                r.errors.last().expect("just pushed")
            );
        }
    }
}

/// One workload at toy size, in this process.
fn smoke_run(workload: &'static Workload, trace: bool) -> worker::Outcome {
    worker::run(
        workload,
        Options {
            size: Size::Smoke,
            seed: GRAPH_SEED + 1,
            seconds: 0.0,
            trace,
            threads: THREADS,
            setup_reps: 2,
        },
    )
}

/// All six workloads at toy sizes, untraced and traced.
fn smoke() -> Result<bool, String> {
    let mut ok = true;
    for workload in &workloads::ALL {
        for trace in [false, true] {
            let outcome = smoke_run(workload, trace);
            println!(
                "{:<14} trace={} attempted={} failed={} {}",
                workload.name,
                u8::from(trace),
                outcome.attempted,
                outcome.failed,
                outcome.errors.join("; ")
            );
            ok &= outcome.correct();
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
    use ampc_bench::json::Json;

    /// The toy-size pass over all six workloads, untraced and traced: the
    /// benchmark cannot rot between changes without a test noticing. One
    /// test, because the store mode and the wire counters are
    /// process-global.
    #[test]
    fn smoke_runs_all_six_workloads() {
        for workload in &workloads::ALL {
            for trace in [false, true] {
                let outcome = smoke_run(workload, trace);
                assert!(outcome.correct(), "{}: {:?}", workload.name, outcome.errors);
                let record = Record::of(&outcome);
                let table: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
                let names: Vec<&str> = record.metrics.iter().map(|m| m.0.as_str()).collect();
                let declared: Vec<&str> = table.iter().map(|d| d.name).collect();
                assert_eq!(
                    names, declared,
                    "{}: every declared metric, in order",
                    workload.name
                );
                assert!(record.metrics.iter().all(|m| m.1.is_finite()));
                let back = Record::from_json(&parse_json(&record.to_json()).unwrap()).unwrap();
                assert_eq!(back, record);
                parse_json(&record.strict_line()).expect("strict line parses");
                if trace {
                    assert!(!outcome.trace_jsonl.is_empty());
                    for line in outcome.trace_jsonl.lines() {
                        parse_json(line).expect("span line parses");
                    }
                    assert!(outcome.self_times.contains("rep"));
                    assert!(record.metric("core.kernel_s").unwrap() > 0.0);
                    assert!(record.metric("bench.rep_cover_pct").unwrap() > 50.0);
                    let wire = record.metric("wire.requests").unwrap();
                    assert_eq!(wire > 0.0, workload.is_socket(), "{}", workload.name);
                } else {
                    for (name, value, _) in &record.metrics {
                        assert!(*value > 0.0, "{}: {name} must never read 0", workload.name);
                    }
                }
            }
        }
    }

    #[test]
    fn benchmark_json_is_the_manifest_and_fits_the_contract() {
        let ours = manifest();
        assert!(ours.len() <= 64 * 1024);
        let v = parse_json(&ours).expect("the manifest parses strictly");
        let committed = parse_json(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses strictly");
        assert_eq!(
            committed, v,
            "BENCHMARK.json differs from the workload and metric tables:\n{ours}"
        );

        let Json::Obj(top) = &v else {
            panic!("the manifest is an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| v.get(key).and_then(Json::as_arr).unwrap().len();
        assert!((2..=8).contains(&list("workloads")));
        assert!((1..=16).contains(&list("end_to_end")));
        assert!((1..=128).contains(&list("per_layer")));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert_eq!(PER_LAYER.len(), list("per_layer"));
    }
}
