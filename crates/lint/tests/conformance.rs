//! The rule-engine fixture suite: one must-flag and one must-pass
//! snippet per rule R1–R8, plus the suppression-grammar fixtures. Each
//! fixture is scanned under a synthetic workspace-relative path because
//! rule scope is path-based (DESIGN.md §9).

use ampc_lint::rules::{Linter, BAD_SUPPRESSION, R1, R2, R3, R4, R5, R6, R7, R8};
use std::collections::BTreeSet;

fn linter() -> Linter {
    let sections: BTreeSet<String> = ["1", "3", "5.3", "5.4", "9"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    Linter::with_sections(sections)
}

/// Rule names that fired, in order, plus the suppressed count.
fn run(rel: &str, src: &str) -> (Vec<&'static str>, usize) {
    let report = linter().check_source(rel, src);
    (
        report.violations.iter().map(|v| v.rule).collect(),
        report.suppressed,
    )
}

const CORE: &str = "crates/core/src/fixture.rs";

/// R1 asserts the witness chains, not just the rule names: the chain
/// is part of the finding's contract.
#[test]
fn r1_flags_per_key_gets_in_loops() {
    let report = linter().check_source(CORE, include_str!("fixtures/r1_flag.rs"));
    let at: Vec<(&str, u32)> = report.violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(
        at,
        vec![(R1, 9), (R1, 11), (R1, 13), (R1, 22)],
        "loop body, .map() callback, comment-split receiver, helper's get"
    );
    assert!(report.violations[..3].iter().all(|v| v.chain.is_empty()));
    let v = &report.violations[3];
    let steps: Vec<(&str, u32)> = v.chain.iter().map(|s| (s.name.as_str(), s.line)).collect();
    assert_eq!(
        steps,
        vec![("chase", 16), ("helper", 21), ("handle.get", 22)],
        "witness: the loop's call, the helper, the get"
    );
    assert!(v.chain.iter().all(|s| s.file == CORE));
    assert!(
        v.message.contains("helper") && v.message.contains("->"),
        "rendered chain belongs in the message: {}",
        v.message
    );
}

#[test]
fn r1_passes_batched_and_straightline_gets() {
    let (rules, n) = run(CORE, include_str!("fixtures/r1_pass.rs"));
    assert!(rules.is_empty(), "unexpected: {rules:?}");
    assert_eq!(n, 0);
}

#[test]
fn r1_witnesses_cross_file_chains() {
    let files = [
        (
            "crates/core/src/kernel.rs",
            "pub fn kernel(ctx: &mut Ctx) { for v in 0..4 { step(ctx, v); } }",
        ),
        (
            "crates/core/src/helpers.rs",
            "pub fn step(ctx: &mut Ctx, v: u64) -> u64 { probe(ctx, v) }\n\
             fn probe(ctx: &mut Ctx, v: u64) -> u64 { *ctx.handle.get(v).unwrap() }",
        ),
    ];
    let report = linter().check_sources(&files);
    let [v] = &report.violations[..] else {
        panic!("one finding, at the get: {:?}", report.violations);
    };
    assert_eq!(
        (v.rule, v.file.as_str(), v.line),
        (R1, "crates/core/src/helpers.rs", 2)
    );
    let names: Vec<&str> = v.chain.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, vec!["kernel", "step", "probe", "handle.get"]);
    assert_eq!(v.chain[0].file, "crates/core/src/kernel.rs");
    assert!(v.chain[1..]
        .iter()
        .all(|s| s.file == "crates/core/src/helpers.rs"));
}

/// The get's own body has no loop, so the in-body check cannot see it;
/// only the call-graph half of R1 does, and its finding carries the chain.
#[test]
fn r8_catches_helper_wrapped_get_that_r1_misses() {
    let src = "pub fn kernel(ctx: &mut Ctx, items: &[u64]) -> Vec<u64> {\n\
               let mut out = Vec::new();\n\
               for &v in items { out.push(helper(ctx, v)); }\n\
               out\n\
               }\n\
               fn helper(ctx: &mut Ctx, v: u64) -> u64 { *ctx.handle.get(v).unwrap() }\n";
    let report = linter().check_source(CORE, src);
    let [v] = &report.violations[..] else {
        panic!("one finding, at the helper's get: {:?}", report.violations);
    };
    assert_eq!((v.rule, v.line), (R1, 6));
    let steps: Vec<(&str, u32)> = v.chain.iter().map(|s| (s.name.as_str(), s.line)).collect();
    assert_eq!(
        steps,
        vec![("kernel", 3), ("helper", 6), ("handle.get", 6)],
        "witness chain"
    );
}

/// A batching helper called once per round, a get-reaching helper
/// called outside any loop, and the same helper looped over in a test.
#[test]
fn r8_passes_batched_helpers_and_out_of_loop_calls() {
    let src = "pub fn kernel(ctx: &mut Ctx, rounds: &[Vec<u64>]) -> u64 {\n\
               let mut acc = 0;\n\
               for keys in rounds { acc += batched(ctx, keys); }\n\
               acc + single(ctx, 7)\n\
               }\n\
               fn batched(ctx: &mut Ctx, keys: &[u64]) -> u64 {\n\
               let mut s = 0;\n\
               ctx.handle.get_many_with(keys, |_, v| s += *v.unwrap());\n\
               s\n\
               }\n\
               fn single(ctx: &mut Ctx, k: u64) -> u64 { *ctx.handle.get(k).unwrap() }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               use super::*;\n\
               #[test]\n\
               fn loops_in_tests_are_exempt() { for k in 0..3 { single(&mut ctx(), k); } }\n\
               }\n";
    let (rules, n) = run(CORE, src);
    assert!(rules.is_empty(), "unexpected: {rules:?}");
    assert_eq!(n, 0);
}

#[test]
fn r2_flags_unordered_iteration() {
    let (rules, _) = run(CORE, include_str!("fixtures/r2_flag.rs"));
    assert_eq!(
        rules,
        vec![R2, R2, R2, R2],
        "for-loop, .keys() chain, digest input, helper's return value"
    );
}

#[test]
fn r2_passes_sorted_sinks_fx_and_tests() {
    let (rules, _) = run(CORE, include_str!("fixtures/r2_pass.rs"));
    assert!(rules.is_empty(), "unexpected: {rules:?}");
}

/// Hash-typed names bind per fn item: the std `HashSet` parameter `m`
/// of the first two functions says nothing about the Fx `m` of the third.
#[test]
fn r9_passes_sorted_counted_and_fx_collections() {
    let src = "pub fn sorted(m: &HashSet<u64>) -> Vec<u64> {\n\
               let mut v: Vec<u64> = m.iter().copied().collect();\n\
               v.sort_unstable();\n\
               v\n\
               }\n\
               pub fn counted(m: &HashSet<u64>) -> usize { m.len() }\n\
               pub fn fx_is_exempt(m: &FxHashMap<u64, u64>) -> Vec<u64> {\n\
               m.values().copied().collect()\n\
               }\n";
    let (rules, _) = run(CORE, src);
    assert!(rules.is_empty(), "unexpected: {rules:?}");
}

#[test]
fn r2_is_scoped_to_deterministic_crates() {
    let src = include_str!("fixtures/r2_flag.rs");
    let (rules, _) = run("crates/bench/src/fixture.rs", src);
    assert!(!rules.contains(&R2), "bench is outside R2 scope");
}

#[test]
fn r3_flags_wall_clock_and_ambient_rng() {
    let (rules, _) = run(CORE, include_str!("fixtures/r3_flag.rs"));
    assert_eq!(
        rules,
        vec![R3, R3, R3],
        "Instant::now, thread_rng, SystemTime"
    );
}

#[test]
fn r3_passes_in_bench() {
    let (rules, _) = run(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/r3_pass.rs"),
    );
    assert!(rules.is_empty(), "unexpected: {rules:?}");
}

#[test]
fn r4_flags_raw_spawns() {
    let (rules, _) = run(CORE, include_str!("fixtures/r4_flag.rs"));
    assert_eq!(
        rules,
        vec![R4, R4, R4],
        "spawn, Builder and scope; not the test"
    );
}

#[test]
fn r4_passes_in_the_pool() {
    let (rules, _) = run(
        "crates/runtime/src/pool.rs",
        include_str!("fixtures/r4_pass.rs"),
    );
    assert!(rules.is_empty(), "unexpected: {rules:?}");
}

#[test]
fn r5_flags_undocumented_unsafe() {
    let (rules, _) = run(CORE, include_str!("fixtures/r5_flag.rs"));
    assert_eq!(rules, vec![R5]);
}

#[test]
fn r5_passes_block_above_and_same_line() {
    let (rules, _) = run(CORE, include_str!("fixtures/r5_pass.rs"));
    assert!(rules.is_empty(), "unexpected: {rules:?}");
}

#[test]
fn r6_flags_direct_env_reads() {
    let (rules, _) = run(CORE, include_str!("fixtures/r6_flag.rs"));
    assert_eq!(
        rules,
        vec![R6, R6, R6, R6],
        "var, var_os, the chaos knob, and the socket-shards knob"
    );
}

#[test]
fn r6_passes_inside_the_registry() {
    let (rules, _) = run(
        "crates/knobs/src/lib.rs",
        include_str!("fixtures/r6_pass.rs"),
    );
    assert!(rules.is_empty(), "unexpected: {rules:?}");
}

#[test]
fn r7_flags_unresolved_and_dangling_refs() {
    let (rules, _) = run(CORE, include_str!("fixtures/r7_flag.rs"));
    assert_eq!(rules, vec![R7, R7, R7], "§42, bare §, bare § again");
}

#[test]
fn r7_passes_resolving_refs() {
    let (rules, _) = run(CORE, include_str!("fixtures/r7_pass.rs"));
    assert!(rules.is_empty(), "unexpected: {rules:?}");
}

#[test]
fn justified_markers_suppress_and_are_counted() {
    let (rules, suppressed) = run(CORE, include_str!("fixtures/suppressed_pass.rs"));
    assert!(rules.is_empty(), "unexpected: {rules:?}");
    assert_eq!(suppressed, 3, "block-above, same-line get, same-line now");
}

#[test]
fn malformed_markers_flag_and_do_not_suppress() {
    let (rules, suppressed) = run(CORE, include_str!("fixtures/bad_suppression_flag.rs"));
    assert_eq!(suppressed, 0);
    assert_eq!(
        rules.iter().filter(|r| **r == BAD_SUPPRESSION).count(),
        3,
        "missing justification + unknown rule + silences nothing: {rules:?}"
    );
    assert!(
        rules.contains(&R3),
        "unjustified marker must not silence R3"
    );
    assert!(
        rules.contains(&R4),
        "unknown-rule marker must not silence R4"
    );
}

#[test]
fn r8_flags_missing_annotation_and_undercounted_budget() {
    let report = linter().check_source(CORE, include_str!("fixtures/r8_flag.rs"));
    let r8: Vec<_> = report.violations.iter().filter(|v| v.rule == R8).collect();
    assert_eq!(r8.len(), 2, "alpha (missing) and beta (mismatch): {r8:?}");
    assert!(r8[0].message.contains("alpha_in_job") && r8[0].message.contains("lacks"));
    assert!(
        r8[0].chain.is_empty(),
        "nothing to witness when unannotated"
    );
    assert!(
        r8[1].message.contains("budget(batched-requests = 1)")
            && r8[1].message.contains("2 batched-request site(s)"),
        "{}",
        r8[1].message
    );
    let names: Vec<&str> = r8[1].chain.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["beta_in_job", "helper", "handle.put_many"],
        "the chain witnesses the first over-budget site"
    );
}

#[test]
fn r8_passes_matching_budgets_including_zero() {
    let (rules, n) = run(CORE, include_str!("fixtures/r8_pass.rs"));
    assert!(rules.is_empty(), "unexpected: {rules:?}");
    assert_eq!(
        n, 0,
        "budget annotations are declarations, not suppressions"
    );
}

#[test]
fn string_and_comment_content_never_flags() {
    let src = r##"
        //! Prose about thread_rng, env::var and handle.get in a loop is fine,
        //! and so is quoting the grammar: `// ampc-lint: allow(no-raw-spawn) -- x`.
        pub fn quoted() -> &'static str {
            "Instant::now() SystemTime thread_rng std::thread::spawn env::var"
        }
    "##;
    let (rules, suppressed) = run(CORE, src);
    assert!(rules.is_empty(), "unexpected: {rules:?}");
    assert_eq!(
        suppressed, 0,
        "quoted grammar must not register as a marker"
    );
}
