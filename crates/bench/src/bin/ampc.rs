//! `ampc` — the workload CLI: run any registered algorithm on any
//! graph source under any runtime configuration, emitting a
//! machine-readable JSON run record.
//!
//! ```text
//! ampc list
//! ampc run <family>[/<variant>] --graph <source> [--model ampc|mpc] [options]
//! ampc experiment <name>|all [--scale test|mid|bench] [--out <path>]
//! ```
//!
//! See `README.md` for the option reference, the graph-source grammar
//! and the JSON report schema. `ampc experiment` regenerates one
//! reproduced table/figure (or, with `all`, the whole `EXPERIMENTS.md`).

use ampc_bench::registry::{self, AlgoParams};
use ampc_bench::util::harness_config;
use ampc_bench::{experiments, json, util};
use ampc_core::algorithm::{AlgoInput, AlgoOutput, InputKind, Model};
use ampc_dht::cost::Network;
use ampc_dht::store::StoreKind;
use ampc_graph::datasets::Scale;
use ampc_graph::dynamic::{BatchMix, DynamicSource};
use ampc_graph::{CsrGraph, GraphSource, WeightedCsrGraph};
use ampc_runtime::chaos::ChaosSpec;
use ampc_runtime::driver::{json_string, Driven, RunSummary};
use ampc_runtime::AmpcConfig;
use std::collections::BTreeMap;

const USAGE: &str = "\
ampc — the AMPC workload runner

USAGE:
  ampc list                          show every registry row
  ampc run <row> --graph <src>       run one registry row on one graph: a
                                     family (mis, mm, msf, cc, one-vs-two,
                                     walks, dyn-cc) or an AMPC-only variant
                                     (mis/truncated, mm/truncated, mm/loglog,
                                     msf/algorithm2, cc/forest)
  ampc experiment <name>|all         regenerate one reproduced table/figure
                                     (table1..4, fig3..9, cycle, ablations) as
                                     markdown on stdout, or all of them into
                                     --out <path> (default EXPERIMENTS.md);
                                     --scale as below

RUN OPTIONS:
  --graph <src>        graph source (required), e.g. ok, rmat:12,40000,social,
                       er:1000,3000, cycle:5000, pair:2500, file:edges.el;
                       dynamic families also accept
                       dyn:<base>:batches=B:ops=K[:mix=churn|insert|delete][:seed=S]
  --model ampc|mpc     model backend (default ampc)
  --machines <P>       machine count, >= 1 (default: harness config for the scale)
  --seed <S>           algorithm seed
  --scale test|mid|bench  analogue scale for named datasets + cost calibration
                       (default: AMPC_SCALE env, else mid)
  --threads <T>        simulation executor threads, >= 1 (AMPC_THREADS equivalent)
  --caching on|off     §5.3 per-machine caching
  --network rdma|tcp   KV transport profile (Table 4)
  --store flat|socket  sealed-storage substrate (AMPC_STORE equivalent;
                       DESIGN.md §12). socket serves sealed values from
                       shard-server processes over Unix-domain sockets;
                       outputs, rounds and CommStats are identical for
                       both values
  --threshold <E>      switch-to-in-memory edge threshold
  --walkers <W>        walks: walkers per vertex (default 1)
  --steps <K>          walks: hops per walk (default 8)
  --sample-inv <R>     one-vs-two: inverse sampling rate (default 1024)
  --batches <B>        dyn-cc: update batches (default 4)
  --ops <K>            dyn-cc: updates per batch (default 64)
  --mix <M>            dyn-cc: churn|insert|delete (default churn)
  --dyn-seed <S>       dyn-cc: update-schedule seed
  --chaos <spec>       seeded chaos schedule (AMPC_CHAOS equivalent): a
                       chaos:seed=S[:rate=R][:drop=D][:retries=C][:stripe=K]
                       [:kill=a.b][:ekill=e.m] spec or a bare integer seed;
                       outputs stay byte-identical, only simulated time and
                       the retry/replay counters change
  --validate           check the output against the input (exit 1 on failure)
  --json <path|->      write the JSON run record to a file, or '-' for stdout
  --quiet              suppress the human-readable summary
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match run_cli(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("ampc: {e}");
            1
        }
    });
}

/// Parsed command line: positionals, `--flag value` pairs, and bare
/// `--switch`es.
struct Cli {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

const VALUE_FLAGS: [&str; 20] = [
    "--graph",
    "--model",
    "--machines",
    "--seed",
    "--scale",
    "--threads",
    "--caching",
    "--network",
    "--threshold",
    "--walkers",
    "--steps",
    "--sample-inv",
    "--json",
    "--batches",
    "--ops",
    "--mix",
    "--dyn-seed",
    "--chaos",
    "--store",
    "--out",
];
const SWITCHES: [&str; 3] = ["--validate", "--quiet", "--help"];

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if VALUE_FLAGS.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.insert(a.clone(), v.clone());
            } else if SWITCHES.contains(&a.as_str()) {
                flags.insert(a.clone(), String::new());
            } else if a.starts_with("--") {
                return Err(format!("unknown option {a} (see ampc --help)"));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Cli { positional, flags })
    }

    fn has(&self, switch: &str) -> bool {
        self.flags.contains_key(switch)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    fn parse_num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.get(flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }

    fn parse_toggle(&self, flag: &str) -> Result<Option<bool>, String> {
        match self.get(flag) {
            None => Ok(None),
            Some("on" | "true" | "1") => Ok(Some(true)),
            Some("off" | "false" | "0") => Ok(Some(false)),
            Some(v) => Err(format!("{flag}: expected on|off, got {v:?}")),
        }
    }
}

fn run_cli(args: &[String]) -> Result<(), String> {
    let cli = Cli::parse(args)?;
    if cli.has("--help") || cli.positional.is_empty() {
        print!("{USAGE}");
        return Ok(());
    }
    match cli.positional[0].as_str() {
        "list" => cmd_list(),
        "run" => cmd_run(&cli),
        "experiment" => cmd_experiment(&cli),
        other => Err(format!("unknown command {other:?} (see ampc --help)")),
    }
}

fn cmd_list() -> Result<(), String> {
    let rows: Vec<Vec<String>> = registry::ENTRIES
        .iter()
        .map(|e| {
            vec![
                e.family.to_string(),
                e.model.token().to_string(),
                e.summary.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        util::md_table(&["family", "model", "description"], &rows)
    );
    Ok(())
}

/// `ampc experiment <name>|all`: renders one `experiments::SECTIONS`
/// entry (or the whole `EXPERIMENTS.md` body) to stdout, and to
/// `--out` when given (`all` defaults it to `EXPERIMENTS.md`).
fn cmd_experiment(cli: &Cli) -> Result<(), String> {
    let name = cli.positional.get(1).map_or("", String::as_str);
    let scale = scale_of(cli)?;
    let md = match experiments::SECTIONS.iter().find(|s| s.0 == name) {
        Some((_, _, run)) => run(scale),
        None if name == "all" => experiments::run_all(scale),
        None => return Err(format!("unknown experiment {name:?} (see ampc --help)")),
    };
    print!("{md}");
    let default_out = (name == "all").then_some("EXPERIMENTS.md");
    if let Some(path) = cli.get("--out").or(default_out) {
        std::fs::write(path, &md).map_err(|e| format!("--out {path}: {e}"))?;
        eprintln!("[experiment] wrote {path}");
    }
    Ok(())
}

fn scale_of(cli: &Cli) -> Result<Scale, String> {
    match cli.get("--scale") {
        None => Ok(Scale::from_env()),
        Some("test") => Ok(Scale::Test),
        Some("mid") => Ok(Scale::Mid),
        Some("bench") => Ok(Scale::Bench),
        Some(v) => Err(format!("--scale: expected test|mid|bench, got {v:?}")),
    }
}

fn scale_token(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Mid => "mid",
        Scale::Bench => "bench",
    }
}

/// Everything one resolved run request needs.
struct RunSpec {
    family: &'static str,
    model: Model,
    /// The (base) graph to load; dynamic schedules live in `params`.
    source: GraphSource,
    /// Canonical source description for records: the full `dyn:` spec
    /// for dynamic families, `source.describe()` otherwise.
    source_desc: String,
    scale: Scale,
    cfg: AmpcConfig,
    params: AlgoParams,
}

/// Whether a family consumes a dynamic update schedule (and therefore
/// accepts `dyn:` graph sources).
fn is_dynamic_family(family: &str) -> bool {
    family == "dyn-cc"
}

/// Resolves a `--graph` argument: plain sources parse as-is; `dyn:`
/// sources are only valid for dynamic families and fold their schedule
/// into `params`, returning the base source.
fn resolve_source(family: &str, s: &str, params: &mut AlgoParams) -> Result<GraphSource, String> {
    let is_dyn = s
        .trim_start()
        .get(..4)
        .is_some_and(|head| head.eq_ignore_ascii_case("dyn:"));
    if is_dyn {
        if !is_dynamic_family(family) {
            return Err(format!(
                "dynamic graph source {s:?} is only valid for dynamic families (dyn-cc)"
            ));
        }
        let d = DynamicSource::parse(s)?;
        params.dyn_batches = d.batches;
        params.dyn_ops = d.ops;
        params.dyn_mix = d.mix;
        params.dyn_seed = d.seed;
        Ok(d.base)
    } else {
        GraphSource::parse(s)
    }
}

/// The canonical source description for run records: dynamic families
/// always describe as a full `dyn:` spec (flag overrides included), which
/// must pass the checks a parsed one does.
fn source_desc(family: &str, source: &GraphSource, params: &AlgoParams) -> Result<String, String> {
    if !is_dynamic_family(family) {
        return Ok(source.describe());
    }
    let dynamic = DynamicSource {
        base: source.clone(),
        batches: params.dyn_batches,
        ops: params.dyn_ops,
        mix: params.dyn_mix,
        seed: params.dyn_seed,
    };
    dynamic.check()?;
    Ok(dynamic.describe())
}

/// Loaded input graph, owning whichever representation the algorithm
/// needs.
enum LoadedGraph {
    Unweighted(CsrGraph),
    Weighted(WeightedCsrGraph),
}

impl LoadedGraph {
    fn as_input(&self) -> AlgoInput<'_> {
        match self {
            LoadedGraph::Unweighted(g) => AlgoInput::Unweighted(g),
            LoadedGraph::Weighted(g) => AlgoInput::Weighted(g),
        }
    }
}

fn load_for(spec: &RunSpec) -> Result<LoadedGraph, String> {
    let entry = registry::lookup(spec.family, spec.model).ok_or_else(|| {
        format!(
            "{} has no {} row (see ampc list)",
            spec.family,
            spec.model.token()
        )
    })?;
    Ok(match entry.input {
        InputKind::Weighted => {
            LoadedGraph::Weighted(spec.source.load_weighted(spec.scale, util::GRAPH_SEED)?)
        }
        _ => LoadedGraph::Unweighted(spec.source.load(spec.scale, util::GRAPH_SEED)?),
    })
}

/// Runs one spec through the registry + driver, returning the driven
/// result together with the loaded graph (so callers validate against
/// the same instance instead of regenerating it).
fn execute(spec: &RunSpec) -> Result<(Driven<AlgoOutput>, LoadedGraph), String> {
    let graph = load_for(spec)?;
    let driven = registry::run_family_with(
        spec.family,
        spec.model,
        &graph.as_input(),
        &spec.cfg,
        &spec.params,
    )?;
    Ok((driven, graph))
}

/// The JSON run record (see README for the schema).
fn run_record(
    spec: &RunSpec,
    n: usize,
    m: usize,
    driven: &Driven<AlgoOutput>,
    validated: Option<bool>,
) -> String {
    let summary = RunSummary::from_report(&driven.report, driven.wall_ns);
    let validated = match validated {
        None => "null".to_string(),
        Some(b) => b.to_string(),
    };
    format!(
        "{{\n  \"tool\": \"ampc\",\n  \"algorithm\": {},\n  \"model\": {},\n  \
         \"graph\": {},\n  \"scale\": {},\n  \"n\": {n},\n  \"m\": {m},\n  \
         \"seed\": {},\n  \"machines\": {},\n  \"chaos\": {},\n  \"store\": {},\n  \
         \"params\": {{\"walkers_per_node\": {}, \
         \"steps\": {}, \"sample_inv\": {}, \"dyn_batches\": {}, \"dyn_ops\": {}, \
         \"dyn_mix\": {}, \"dyn_seed\": {}}},\n  \"output\": {{\"kind\": {}, \"size\": {}, \
         \"digest\": {}}},\n  \"validated\": {validated},\n  \"report\":\n{}\n}}\n",
        json_string(spec.family),
        json_string(spec.model.token()),
        json_string(&spec.source_desc),
        json_string(scale_token(spec.scale)),
        spec.cfg.seed,
        spec.cfg.num_machines,
        spec.cfg
            .chaos
            .map_or("null".to_string(), |c| json_string(&c.describe())),
        json_string(
            spec.cfg
                .store
                .unwrap_or_else(ampc_dht::store::store_kind)
                .as_str()
        ),
        spec.params.walkers_per_node,
        spec.params.steps,
        spec.params.sample_inv,
        spec.params.dyn_batches,
        spec.params.dyn_ops,
        json_string(spec.params.dyn_mix.token()),
        spec.params.dyn_seed,
        json_string(driven.output.kind()),
        driven.output.size(),
        driven.output.digest(),
        summary.to_json(2),
    )
}

fn spec_from_cli(cli: &Cli) -> Result<RunSpec, String> {
    if cli.positional.len() < 2 {
        return Err("run: missing <family> (see ampc list)".into());
    }
    let family = registry::canonical_family(&cli.positional[1]).ok_or_else(|| {
        format!(
            "unknown algorithm family {:?} (see ampc list)",
            cli.positional[1]
        )
    })?;
    let model = match cli.get("--model").unwrap_or("ampc") {
        "ampc" => Model::Ampc,
        "mpc" => Model::Mpc,
        v => return Err(format!("--model: expected ampc|mpc, got {v:?}")),
    };
    let mut params = AlgoParams::default();
    let source = resolve_source(
        family,
        cli.get("--graph")
            .ok_or("run: --graph <source> is required")?,
        &mut params,
    )?;
    let scale = scale_of(cli)?;
    // Each flag overrides one field of the scale's harness config.
    let mut cfg = harness_config(scale);
    if let Some(p) = cli.parse_num("--machines")? {
        if p == 0 {
            return Err("--machines: need at least one machine".into());
        }
        cfg = cfg.with_machines(p);
    }
    if let Some(s) = cli.parse_num("--seed")? {
        cfg = cfg.with_seed(s);
    }
    if let Some(t) = cli.parse_num("--threads")? {
        if t == 0 {
            return Err("--threads: need at least one executor thread".into());
        }
        cfg = cfg.with_threads(t);
    }
    if let Some(c) = cli.parse_toggle("--caching")? {
        cfg = cfg.with_caching(c);
    }
    match cli.get("--network") {
        None => {}
        Some("rdma") => cfg.cost.network = Network::Rdma,
        Some("tcp") => cfg.cost.network = Network::Tcp,
        Some(v) => return Err(format!("--network: expected rdma|tcp, got {v:?}")),
    }
    if let Some(t) = cli.parse_num("--threshold")? {
        cfg.in_memory_threshold = t;
    }
    if let Some(v) = cli.get("--chaos") {
        cfg = cfg.with_chaos(ChaosSpec::parse(v).map_err(|e| format!("--chaos: {e}"))?);
    }
    if let Some(v) = cli.get("--store") {
        let kind = StoreKind::parse(v)
            .ok_or_else(|| format!("--store: expected flat|socket, got {v:?}"))?;
        cfg = cfg.with_store(kind);
    }
    if let Some(w) = cli.parse_num("--walkers")? {
        params.walkers_per_node = w;
    }
    if let Some(s) = cli.parse_num("--steps")? {
        params.steps = s;
    }
    if let Some(r) = cli.parse_num("--sample-inv")? {
        params.sample_inv = r;
    }
    // Explicit schedule flags override a dyn: source's options.
    if let Some(b) = cli.parse_num("--batches")? {
        params.dyn_batches = b;
    }
    if let Some(k) = cli.parse_num("--ops")? {
        params.dyn_ops = k;
    }
    if let Some(m) = cli.get("--mix") {
        params.dyn_mix = BatchMix::parse(m).map_err(|e| format!("--{e}"))?;
    }
    if let Some(s) = cli.parse_num("--dyn-seed")? {
        params.dyn_seed = s;
    }
    let source_desc = source_desc(family, &source, &params)?;
    Ok(RunSpec {
        family,
        model,
        source,
        source_desc,
        scale,
        cfg,
        params,
    })
}

fn cmd_run(cli: &Cli) -> Result<(), String> {
    let spec = spec_from_cli(cli)?;
    let (driven, graph) = execute(&spec)?;
    let (n, m) = (graph.as_input().num_nodes(), graph.as_input().num_edges());

    let validated = if cli.has("--validate") {
        let entry = registry::lookup(spec.family, spec.model).unwrap();
        match entry.validate(&graph.as_input(), &driven.output, &spec.params) {
            Ok(()) => Some(true),
            Err(e) => {
                eprintln!("ampc: validation FAILED: {e}");
                Some(false)
            }
        }
    } else {
        None
    };

    if !cli.has("--quiet") {
        println!(
            "{} [{}] on {} (n={n}, m={m}), P={}, seed={:#x}",
            spec.family,
            spec.model.token(),
            spec.source_desc,
            spec.cfg.num_machines,
            spec.cfg.seed,
        );
        println!(
            "output: {} (size {}, digest {:#018x}){}",
            driven.output.kind(),
            driven.output.size(),
            driven.output.digest(),
            match validated {
                Some(true) => " — validated",
                Some(false) => " — INVALID",
                None => "",
            }
        );
        print!("{}", driven.report.summary());
    }

    if let Some(dest) = cli.get("--json") {
        let record = run_record(&spec, n, m, &driven, validated);
        json::validate_json(&record)
            .map_err(|e| format!("internal error: emitted JSON does not parse: {e}"))?;
        if dest == "-" {
            print!("{record}");
        } else {
            std::fs::write(dest, &record).map_err(|e| format!("--json {dest}: {e}"))?;
            if !cli.has("--quiet") {
                println!("wrote {dest}");
            }
        }
    }

    if validated == Some(false) {
        return Err("output failed validation".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(args: &str) -> Result<RunSpec, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        spec_from_cli(&Cli::parse(&args)?)
    }

    #[test]
    fn run_rejects_zero_machines_and_threads() {
        assert!(spec("run mis --graph er:20,40 --machines 1 --threads 1").is_ok());
        for flag in ["--machines", "--threads"] {
            let err = spec(&format!("run mis --graph er:20,40 {flag} 0"))
                .err()
                .expect("zero is rejected");
            assert!(err.starts_with(flag) && !err.contains('\n'), "{err}");
        }
    }

    #[test]
    fn run_holds_schedule_flags_to_the_stream_budget() {
        assert!(spec("run dyn-cc --graph er:100,300 --batches 512 --ops 512").is_ok());
        for flags in [
            "--batches 100000000 --ops 1",
            "--ops 100000000",
            "--batches 0",
        ] {
            let err = spec(&format!("run dyn-cc --graph er:100,300 {flags}"))
                .err()
                .expect("rejected");
            assert!(err.starts_with("dyn:") && !err.contains('\n'), "{err}");
        }
    }

    #[test]
    fn run_records_are_json() {
        for row in ["mis", "dyn-cc"] {
            let spec = spec(&format!("run {row} --graph er:40,80 --scale test")).unwrap();
            let (driven, graph) = execute(&spec).unwrap();
            let (n, m) = (graph.as_input().num_nodes(), graph.as_input().num_edges());
            let record = run_record(&spec, n, m, &driven, Some(true));
            json::validate_json(&record).unwrap_or_else(|e| panic!("{row}: {e}\n{record}"));
        }
    }

    #[test]
    fn run_resolves_variant_rows() {
        let row = spec("run Matching/LogLog --graph er:20,40").map(|s| s.family);
        assert_eq!(row, Ok("mm/loglog"));
        assert!(spec("run mis/loglog --graph er:20,40").is_err());
    }
}
