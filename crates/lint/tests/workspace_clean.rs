//! The live workspace must be lint-clean: the same invariant CI
//! enforces with the `ampc-lint` binary, pinned here so `cargo test`
//! alone catches a conformance regression. Beyond cleanliness, the
//! exact suppression inventory is pinned as a (rule, file) multiset:
//! adding an allow marker is a reviewed decision, not a quiet drift.

use std::path::Path;

#[test]
fn live_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = ampc_lint::lint_workspace(&root).expect("workspace scan");
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned ({}) — did the walk roots move?",
        report.files_scanned
    );
    assert!(
        report.clean(),
        "workspace has conformance violations:\n{}",
        ampc_lint::render_text(&report)
    );
}

/// Every justified suppression in the tree, as (rule, file) pairs.
/// Lines shift too easily to pin; files do not. If you add or remove
/// an allow marker, update this list in the same change — the diff is
/// the review trail.
#[test]
fn suppression_inventory_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = ampc_lint::lint_workspace(&root).expect("workspace scan");
    let mut actual: Vec<(String, String)> = report
        .suppressions
        .iter()
        .map(|s| (s.rule.to_string(), s.file.clone()))
        .collect();
    actual.sort();
    let mut expected: Vec<(String, String)> = [
        ("no-raw-spawn", "crates/dht/src/bin/ampc-shardd.rs"),
        ("no-raw-spawn", "crates/dht/src/socket.rs"),
        ("no-raw-spawn", "crates/dht/src/store.rs"),
        (
            "no-unbatched-get",
            "crates/core/src/matching/ampc_constant.rs",
        ),
        ("no-unbatched-get", "crates/core/src/mis/ampc.rs"),
        ("no-unbatched-get", "crates/core/src/msf/common.rs"),
        ("no-unbatched-get", "crates/core/src/msf/common.rs"),
        (
            "no-wall-clock-or-ambient-rng",
            "crates/runtime/src/driver.rs",
        ),
        ("no-wall-clock-or-ambient-rng", "crates/runtime/src/job.rs"),
    ]
    .iter()
    .map(|(r, f)| (r.to_string(), f.to_string()))
    .collect();
    expected.sort();
    assert_eq!(
        actual, expected,
        "the suppression inventory changed — every allow marker is a \
         reviewed exception; update this pin in the same change"
    );
    for s in &report.suppressions {
        assert!(
            !s.justification.trim().is_empty(),
            "empty justification at {}:{}",
            s.file,
            s.line
        );
    }
}
