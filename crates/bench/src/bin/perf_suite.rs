//! Harness binary: the tracked kernel performance suite and the CI
//! perf-regression gate.
//!
//! ```text
//! perf_suite                 measure at AMPC_SCALE, write BENCH_perf.json
//! perf_suite --check         compare a fresh run against the committed
//!                            BENCH_perf.json (at ITS recorded scale);
//!                            exit nonzero on any regression
//!   [--path <committed>]     trajectory to check against (default BENCH_perf.json)
//!   [--tolerance <frac>]     allowed speedup drop on the rows with a
//!                            live baseline, 0..1 (default 0.5)
//!   [--out <fresh.json>]     also write the fresh measurements (for artifacts)
//! ```
//!
//! The measurement itself times representative kernels (CC, MIS, MM,
//! walks — cached and uncached — 1-vs-2-cycle, the pointer-chase and
//! batch-write substrate kernels, and the batch-dynamic connectivity
//! family including its maintained-vs-recompute amortized comparison)
//! under the flat sealed store + persistent pool: one absolute
//! `wall_ns` per row. The rows with a live second path (MPC recompute,
//! fault-free, in-memory flat for the `*-socket` rows) also time it and
//! assert the two observationally identical.
//! `--check` compares the deterministic fields (rounds, round trips,
//! queries, bytes, output digests) *exactly* against the committed
//! trajectory and enforces the speedup floor on the live-baseline rows
//! — the gate CI runs so no change silently moves a digest or a count.

use ampc_bench::experiments::perf_suite;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perf_suite: {e}");
            1
        }
    });
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let known = ["--check", "--path", "--tolerance", "--out"];
    if let Some(bad) = args.iter().enumerate().find_map(|(i, a)| {
        let is_value = i > 0 && ["--path", "--tolerance", "--out"].contains(&args[i - 1].as_str());
        (!is_value && !known.contains(&a.as_str())).then_some(a)
    }) {
        return Err(format!("unknown argument {bad:?} (see the module docs)"));
    }
    let check = args.iter().any(|a| a == "--check");
    let path = flag_value(args, "--path")?.unwrap_or("BENCH_perf.json");
    let tolerance: f64 = match flag_value(args, "--tolerance")? {
        None => 0.5,
        Some(v) => {
            let t: f64 = v
                .parse()
                .map_err(|_| format!("--tolerance: cannot parse {v:?}"))?;
            if !(0.0..1.0).contains(&t) {
                return Err("--tolerance: expected a fraction in [0, 1)".into());
            }
            t
        }
    };
    let out_path = flag_value(args, "--out")?;

    if check {
        let committed = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read committed trajectory {path}: {e}"))?;
        let report = perf_suite::check_against(&committed, tolerance)?;
        print!("{}", report.md);
        if let Some(dest) = out_path {
            // The fresh measurements, for artifact upload.
            std::fs::write(dest, perf_suite::to_json(report.scale, &report.fresh))
                .map_err(|e| format!("--out {dest}: {e}"))?;
            eprintln!("wrote {dest}");
        }
        if !report.failures.is_empty() {
            return Err(format!(
                "{} perf regression(s) against {path}",
                report.failures.len()
            ));
        }
        println!("perf check: no regressions against {path}");
        Ok(())
    } else {
        let scale = ampc_graph::datasets::Scale::from_env();
        let (md, kernels) = perf_suite::run(scale);
        print!("{md}");
        let json = perf_suite::to_json(scale, &kernels);
        let dest = out_path.unwrap_or("BENCH_perf.json");
        std::fs::write(dest, &json).map_err(|e| format!("write {dest}: {e}"))?;
        eprintln!("wrote {dest}");
        Ok(())
    }
}
