//! Binary-level acceptance tests: `ampc-lint` must exit nonzero on
//! every positive fixture (one per rule R1–R8) and exit zero on a
//! clean tree, with well-formed JSON output — including witness chains
//! and per-rule counts — either way.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Materializes a miniature workspace in the test tmpdir: one source
/// file at `rel`, plus a DESIGN.md that defines §1/§3/§5.3/§5.4/§9.
fn mini_workspace(name: &str, rel: &str, src: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // Wipe leftovers from a previous run: a stale file would be linted
    // too and make the assertions meaningless.
    let _ = std::fs::remove_dir_all(&root);
    let file = root.join(rel);
    std::fs::create_dir_all(file.parent().unwrap()).unwrap();
    std::fs::write(&file, src).unwrap();
    std::fs::write(
        root.join("DESIGN.md"),
        "# DESIGN\n## §1 A\n## §3 B\n## §5.3 C\n## §5.4 D\n## §9 E\n",
    )
    .unwrap();
    root
}

fn run_lint(root: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ampc-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn ampc-lint")
}

#[test]
fn exits_nonzero_on_every_positive_fixture() {
    let cases: &[(&str, &str, &str)] = &[
        (
            "r1",
            "crates/core/src/f.rs",
            include_str!("fixtures/r1_flag.rs"),
        ),
        (
            "r2",
            "crates/core/src/f.rs",
            include_str!("fixtures/r2_flag.rs"),
        ),
        (
            "r3",
            "crates/core/src/f.rs",
            include_str!("fixtures/r3_flag.rs"),
        ),
        (
            "r4",
            "crates/core/src/f.rs",
            include_str!("fixtures/r4_flag.rs"),
        ),
        (
            "r5",
            "crates/core/src/f.rs",
            include_str!("fixtures/r5_flag.rs"),
        ),
        (
            "r6",
            "crates/core/src/f.rs",
            include_str!("fixtures/r6_flag.rs"),
        ),
        (
            "r7",
            "crates/core/src/f.rs",
            include_str!("fixtures/r7_flag.rs"),
        ),
        (
            "r8",
            "crates/core/src/f.rs",
            include_str!("fixtures/r8_flag.rs"),
        ),
        (
            "badsup",
            "crates/core/src/f.rs",
            include_str!("fixtures/bad_suppression_flag.rs"),
        ),
    ];
    for (name, rel, src) in cases {
        let root = mini_workspace(&format!("pos-{name}"), rel, src);
        let out = run_lint(&root, &[]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: expected exit 1, got {:?}\nstdout: {}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("FAIL"),
            "{name}: text output must say FAIL"
        );
    }
}

#[test]
fn exits_zero_on_clean_tree_and_writes_json() {
    let root = mini_workspace(
        "neg-clean",
        "crates/core/src/f.rs",
        include_str!("fixtures/r1_pass.rs"),
    );
    let json_path = root.join("lint-report.json");
    let out = run_lint(&root, &["--json-out", json_path.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"clean\": true"), "{json}");
}

#[test]
fn json_format_reports_violations() {
    let root = mini_workspace(
        "pos-json",
        "crates/core/src/f.rs",
        include_str!("fixtures/r6_flag.rs"),
    );
    let out = run_lint(&root, &["--format=json"]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"rule\": \"env-knob-registry\""), "{json}");
    assert!(json.contains("\"clean\": false"), "{json}");
}

#[test]
fn json_carries_witness_chains_and_rule_counts() {
    let root = mini_workspace(
        "pos-chain",
        "crates/core/src/f.rs",
        include_str!("fixtures/r1_flag.rs"),
    );
    let out = run_lint(&root, &["--format=json"]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"rule\": \"no-unbatched-get\""), "{json}");
    assert!(
        json.contains("\"chain\": [") && json.contains("\"name\": \"helper\""),
        "the witness chain must be machine-readable: {json}"
    );
    assert!(
        json.contains("\"name\": \"handle.get\""),
        "terminal primitive step: {json}"
    );
    assert!(
        json.contains("\"rule_counts\"") && json.contains("\"no-unbatched-get\": 4"),
        "{json}"
    );
}

#[test]
fn text_output_renders_the_witness_line() {
    let root = mini_workspace(
        "pos-witness",
        "crates/core/src/f.rs",
        include_str!("fixtures/r1_flag.rs"),
    );
    let out = run_lint(&root, &[]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("witness:") && text.contains("->"),
        "findings carry a rendered chain: {text}"
    );
}

#[test]
fn list_rules_names_all_eight() {
    let out = Command::new(env!("CARGO_BIN_EXE_ampc-lint"))
        .arg("--list-rules")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        listed,
        vec![
            "no-unbatched-get",
            "no-unordered-iteration",
            "no-wall-clock-or-ambient-rng",
            "no-raw-spawn",
            "safety-comments",
            "env-knob-registry",
            "design-doc-refs",
            "query-budget",
        ],
        "{text}"
    );
}

#[test]
fn unknown_arguments_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_ampc-lint"))
        .arg("--frobnicate")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
