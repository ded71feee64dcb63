//! The conformance rules that are checked by a test rather than by
//! clippy (DESIGN.md §9), and checks that each such test sees what it
//! must.
//!
//! * Every reference to a numbered DESIGN.md section in the workspace's
//!   Rust source names a section heading of DESIGN.md: a renumbered or
//!   removed section shows up here instead of leaving stale pointers
//!   behind.
//! * A per-key DHT read in a loop, and a KV round more than a kernel
//!   needs, move the counters that `records` pins (`queries`, `batches`,
//!   `kv_rounds`), and the MPC twins read nothing from the DHT; the
//!   tests below check that the counters do tell those apart.

use ampc::prelude::*;
use ampc_bench::registry::run_family;
use ampc_dht::metrics::CommStats;
use ampc_dht::store::Generation;
use ampc_graph::gen;
use ampc_runtime::driver::drive;
use ampc_runtime::executor::MachineCtx;
use ampc_runtime::JobReport;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// What a reference starts with, split so this file holds none.
const NEEDLE: &str = concat!("DESIGN.md", " §");

/// The section number at the start of `text`: digits and dots, without
/// a sentence's trailing dot.
fn section_number(text: &str) -> &str {
    let end = text
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(text.len());
    text[..end].trim_end_matches('.')
}

/// The numbers of DESIGN.md's `§` headings.
fn sections(design: &str) -> BTreeSet<&str> {
    let headings = design.lines().filter(|l| l.starts_with('#'));
    let numbered = headings.filter_map(|l| l.split_once('§'));
    numbered.map(|(_, rest)| section_number(rest)).collect()
}

/// Every DESIGN.md reference in `src`, as its 1-based line and the
/// section number it names (empty for a bare `§`).
fn references(src: &str) -> Vec<(usize, &str)> {
    let mut refs = Vec::new();
    for (i, line) in src.lines().enumerate() {
        for (at, _) in line.match_indices(NEEDLE) {
            refs.push((i + 1, section_number(&line[at + NEEDLE.len()..])));
        }
    }
    refs
}

/// The references in `src` that name no section of `design`.
fn dangling<'a>(design: &str, src: &'a str) -> Vec<(usize, &'a str)> {
    let sections = sections(design);
    let refs = references(src);
    refs.into_iter()
        .filter(|(_, num)| !sections.contains(num))
        .collect()
}

/// Every `.rs` file under `dir`, build output left out.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn design_doc_references_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let (mut refs, mut stale) = (0, Vec::new());
    for file in files {
        let src = fs::read_to_string(&file).expect("readable source");
        refs += references(&src).len();
        for (line, num) in dangling(&design, &src) {
            let file = file.strip_prefix(root).unwrap_or(&file).display();
            stale.push(format!("{file}:{line}: §{num}"));
        }
    }
    assert!(refs > 0, "found no DESIGN.md references to check");
    assert!(
        stale.is_empty(),
        "references to no section of DESIGN.md (sections: {:?}):\n{}",
        sections(&design),
        stale.join("\n")
    );
}

/// A design document with sections 3 and 5.3.
const DESIGN: &str = "# Design\n\n## §3 Determinism\n\n### §5.3 Batching\n";

#[test]
fn r7_flags_unresolved_and_dangling_refs() {
    let src = format!(
        "//! The §3 story is real; {NEEDLE}42 is not.\n\
         /// See {NEEDLE} for details, and {NEEDLE}5.4.\n\
         pub fn stale() {{}}\n"
    );
    assert_eq!(
        dangling(DESIGN, &src),
        vec![(1, "42"), (2, ""), (2, "5.4")],
        "a missing section, a bare §, a missing subsection"
    );
}

#[test]
fn r7_passes_resolving_refs() {
    let src = format!(
        "/// The determinism contract is {NEEDLE}3; batching is {NEEDLE}5.3.\n\
         /// A paper section like §42 without the file name is no reference.\n\
         pub fn fresh() {{}}\n"
    );
    assert_eq!(references(&src), vec![(1, "3"), (1, "5.3")]);
    assert!(dangling(DESIGN, &src).is_empty());
}

/// The number of keys each test round reads.
const KEYS: u64 = 32;

/// One KV round over `KEYS` keys with `body`, then `extra` more rounds
/// of it: the values read in the first round, and the report.
fn read_rounds<F>(extra: usize, body: F) -> (Vec<u64>, JobReport)
where
    F: Fn(&mut MachineCtx<'_, u64>, &[u64]) -> Vec<u64> + Sync + Copy,
{
    let read: Generation<u64> = Generation::from_iter((0..KEYS).map(|k| (k, 3 * k)));
    let keys: Vec<u64> = (0..KEYS).collect();
    let driven = drive(&AmpcConfig::for_tests(), |job| {
        let out = job.kv_round("read", &read, None, keys.clone(), body);
        for _ in 0..extra {
            job.kv_round("again", &read, None, keys.clone(), body);
        }
        out
    });
    (driven.output, driven.report)
}

fn per_key(ctx: &mut MachineCtx<'_, u64>, keys: &[u64]) -> Vec<u64> {
    keys.iter().map(|&k| *ctx.handle.get(k).unwrap()).collect()
}

fn batched(ctx: &mut MachineCtx<'_, u64>, keys: &[u64]) -> Vec<u64> {
    let mut found = Vec::new();
    ctx.handle.get_many_into(keys, &mut found);
    found.into_iter().map(|v| *v.unwrap()).collect()
}

/// The machines that got a non-empty share of the keys.
fn machines_used() -> u64 {
    let c = AmpcConfig::for_tests();
    (c.num_machines as u64).min(KEYS)
}

#[test]
fn r1_flags_per_key_gets_in_loops() {
    let (out, report) = read_rounds(0, per_key);
    let (_, batched_report) = read_rounds(0, batched);
    assert_eq!(out, (0..KEYS).map(|k| 3 * k).collect::<Vec<_>>());
    let kv = report.kv_comm();
    assert_eq!(kv.queries, KEYS);
    assert_eq!(kv.batches, KEYS, "each per-key get is a round trip");
    assert!(
        kv.batches > batched_report.kv_comm().batches,
        "the loop moves the pinned `batches` column"
    );
}

#[test]
fn r1_passes_batched_and_straightline_gets() {
    let (out, report) = read_rounds(0, batched);
    assert_eq!(out, (0..KEYS).map(|k| 3 * k).collect::<Vec<_>>());
    let kv = report.kv_comm();
    assert_eq!(kv.queries, KEYS);
    assert_eq!(kv.batches, machines_used(), "one batch per machine");
    // One get outside any loop is one query in one batch.
    let (_, single) = read_rounds(0, |ctx, keys| {
        keys.first()
            .map(|&k| *ctx.handle.get(k).unwrap())
            .into_iter()
            .collect()
    });
    assert_eq!(single.kv_comm().queries, machines_used());
    assert_eq!(single.kv_comm().batches, machines_used());
}

/// A get behind a helper is counted where it runs, however deep the
/// call chain: the counters need no call graph to see it.
#[test]
fn r8_catches_helper_wrapped_get_that_r1_misses() {
    fn helper(ctx: &mut MachineCtx<'_, u64>, k: u64) -> u64 {
        *ctx.handle.get(k).unwrap()
    }
    let (out, report) = read_rounds(0, |ctx, keys| {
        keys.iter().map(|&k| helper(ctx, k)).collect()
    });
    let (inline_out, inline) = read_rounds(0, per_key);
    assert_eq!(out, inline_out);
    assert_eq!(report.kv_comm(), inline.kv_comm());
    assert_eq!(report.kv_comm().batches, KEYS);
}

/// A KV round more than the kernel needs leaves its output as it was,
/// and moves the pinned `kv_rounds`, `queries` and `batches`.
#[test]
fn r8_flags_missing_annotation_and_undercounted_budget() {
    let (out, budgeted) = read_rounds(0, batched);
    let (extra_out, extra) = read_rounds(1, batched);
    assert_eq!(out, extra_out, "the extra round is invisible in the output");
    assert_eq!(budgeted.num_kv_rounds(), 1);
    assert_eq!(extra.num_kv_rounds(), 2);
    let (kv, extra_kv) = (budgeted.kv_comm(), extra.kv_comm());
    assert_eq!(extra_kv.queries, 2 * kv.queries);
    assert_eq!(extra_kv.batches, 2 * kv.batches);
}

/// The MPC twins' budget of DHT traffic is zero and measured as zero;
/// the AMPC rows' nonzero counts repeat exactly from run to run.
#[test]
fn r8_passes_matching_budgets_including_zero() {
    let g = gen::rmat(9, 3_000, gen::RmatParams::SOCIAL, 5);
    let w = gen::degree_weights(&g);
    let cfg = AmpcConfig::for_tests();
    for (family, input) in [
        ("mis", AlgoInput::Unweighted(&g)),
        ("mm", AlgoInput::Unweighted(&g)),
        ("msf", AlgoInput::Weighted(&w)),
    ] {
        let run = |model| run_family(family, model, &input, &cfg).expect("a registered row");
        let twin = run(Model::Mpc).report;
        assert_eq!(twin.kv_comm(), CommStats::default(), "{family} MPC twin");
        let (a, b) = (run(Model::Ampc).report, run(Model::Ampc).report);
        assert!(a.kv_comm().batches > 0, "{family} reads the DHT");
        assert_eq!(a.kv_comm(), b.kv_comm(), "{family}");
        assert_eq!(a.num_kv_rounds(), b.num_kv_rounds(), "{family}");
    }
}
