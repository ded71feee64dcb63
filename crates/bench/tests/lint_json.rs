//! Cross-checks the `ampc-lint --format=json` report against the
//! harness's own strict RFC 8259 parser: the CI artifact must parse
//! under the same machinery that reads the `BENCH_*.json` files back in, and
//! its fields must match the live workspace scan.

use ampc_bench::json::parse_json;
use std::path::Path;

#[test]
fn lint_json_report_parses_under_the_bench_parser() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = ampc_lint::lint_workspace(&root).expect("workspace scan");
    let rendered = ampc_lint::render_json(&report);

    let json = parse_json(&rendered).expect("report must be strict RFC 8259");
    assert_eq!(
        json.get("tool").and_then(|v| v.as_str()),
        Some("ampc-lint"),
        "tool field"
    );
    assert_eq!(
        json.get("files_scanned").and_then(|v| v.as_u64()),
        Some(report.files_scanned as u64),
        "files_scanned field"
    );
    assert_eq!(
        json.get("violations")
            .and_then(|v| v.as_arr())
            .map(<[_]>::len),
        Some(report.violations.len()),
        "violations array length"
    );
}

#[test]
fn lint_json_escapes_survive_a_round_trip() {
    // A violation message with every escape class the renderer handles:
    // quote, backslash, control character, and non-ASCII passthrough.
    let report = ampc_lint::Report {
        files_scanned: 1,
        suppressed: 1,
        violations: vec![ampc_lint::rules::Violation {
            rule: ampc_lint::rules::R7,
            file: "crates/core/src/\"odd\\name\".rs".to_string(),
            line: 3,
            col: 7,
            message: "tab\there, newline\nthere, §-sign".to_string(),
            chain: vec![ampc_lint::callgraph::ChainStep {
                name: "helper \"quoted\"".to_string(),
                file: "crates/core/src/\"odd\\name\".rs".to_string(),
                line: 9,
            }],
        }],
        suppressions: vec![ampc_lint::rules::SuppressionEntry {
            rule: ampc_lint::rules::R1,
            file: "crates/core/src/\"odd\\name\".rs".to_string(),
            line: 5,
            justification: "why \\ \"because\"".to_string(),
        }],
    };
    let json = parse_json(&ampc_lint::render_json(&report)).expect("strict parse");
    let v = &json.get("violations").and_then(|v| v.as_arr()).unwrap()[0];
    assert_eq!(
        v.get("file").and_then(|f| f.as_str()),
        Some("crates/core/src/\"odd\\name\".rs")
    );
    assert_eq!(
        v.get("message").and_then(|m| m.as_str()),
        Some("tab\there, newline\nthere, §-sign")
    );
    let step = &v.get("chain").and_then(|c| c.as_arr()).unwrap()[0];
    assert_eq!(
        step.get("name").and_then(|n| n.as_str()),
        Some("helper \"quoted\"")
    );
    let s = &json.get("suppressions").and_then(|s| s.as_arr()).unwrap()[0];
    assert_eq!(
        s.get("justification").and_then(|j| j.as_str()),
        Some("why \\ \"because\"")
    );
}
