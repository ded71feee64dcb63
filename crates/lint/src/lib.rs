//! `ampc-lint` — the model-conformance static analyzer.
//!
//! Every guarantee this reproduction makes — byte-identical outputs
//! across thread counts, storage layouts and fault replays, and the
//! O(S)-budgeted batched DHT access that defines the AMPC model — is
//! otherwise enforced only *dynamically*, by equivalence tests that
//! need a schedule to expose a divergence. This crate enforces the same
//! invariants *statically*, at the source level, before any schedule
//! runs. Three layers: a comment/string-aware lexer ([`lexer`]), an
//! item-level parser ([`parser`]) feeding a workspace symbol table
//! ([`symbols`]) and call graph ([`callgraph`]), and a rule engine
//! ([`rules`]) that runs eight rules — six per-file lexical ones
//! (R2–R7) and two on the call graph (R1, R8) — over every `.rs` file
//! under `crates/`, `tests/`, `src/` and `examples/` at once, reporting
//! violations with file:line spans and — for the call-graph rules —
//! witness call chains.
//!
//! The rules, their invariants, the suppression-marker grammar and the
//! `budget(batched-requests = N)` annotation grammar are documented in
//! DESIGN.md §9. The crate is dependency-free so the conformance gate
//! can never be blocked by the code it gates; its JSON output follows
//! the same handwritten RFC 8259 conventions as `ampc-bench`
//! (`crates/bench/src/json.rs` re-parses it in tests).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;

use rules::{SuppressionEntry, Violation, WorkspaceReport};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// The aggregated result of linting a file set.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned (parsed into the workspace symbol
    /// table).
    pub files_scanned: usize,
    /// All surviving violations, ordered by (file, line, col).
    pub violations: Vec<Violation>,
    /// Violations silenced by well-formed allow markers.
    pub suppressed: usize,
    /// The justified suppressions behind [`Report::suppressed`] —
    /// the exception inventory CI surfaces.
    pub suppressions: Vec<SuppressionEntry>,
}

impl Report {
    /// True when no violations survived.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `(rule name, surviving-violation count)` for every known rule
    /// plus the `bad-suppression` meta-rule, in R-number order.
    pub fn rule_counts(&self) -> Vec<(&'static str, usize)> {
        let mut out: Vec<(&'static str, usize)> = rules::RULES
            .iter()
            .map(|r| r.name)
            .chain([rules::BAD_SUPPRESSION])
            .map(|name| {
                (
                    name,
                    self.violations.iter().filter(|v| v.rule == name).count(),
                )
            })
            .collect();
        debug_assert_eq!(out.len(), rules::RULES.len() + 1);
        out.shrink_to_fit();
        out
    }
}

/// Extracts the section-number set (`"1"`, `"5.3"`, …) from DESIGN.md
/// source: every heading line containing `§` contributes the number
/// that follows it.
pub fn parse_design_sections(src: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in src.lines() {
        let line = line.trim_start();
        if !line.starts_with('#') {
            continue;
        }
        if let Some(at) = line.find('§') {
            let num: String = line[at + '§'.len_utf8()..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            let num = num.trim_end_matches('.').to_string();
            if !num.is_empty() {
                out.insert(num);
            }
        }
    }
    out
}

/// Builds a [`rules::Linter`] for the workspace at `root`, loading the
/// R7 section set from `root/DESIGN.md` (absent file → empty set, so
/// every reference flags rather than silently passing).
pub fn linter_for_root(root: &Path) -> rules::Linter {
    let sections = std::fs::read_to_string(root.join("DESIGN.md"))
        .map(|s| parse_design_sections(&s))
        .unwrap_or_default();
    rules::Linter::with_sections(sections)
}

/// The directories under the workspace root that are scanned.
pub const SCAN_ROOTS: &[&str] = &["crates", "tests", "src", "examples"];

/// Path components that are never scanned: build output, vendored
/// stand-in dependencies (not this workspace's code), and the lint
/// crate's own intentionally-violating test fixtures.
const SKIP_COMPONENTS: &[&str] = &["target", "vendor", "fixtures", ".git"];

/// Collects every scannable `.rs` file under `root`, sorted for
/// deterministic report order.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        let top = root.join(dir);
        if top.is_dir() {
            walk(&top, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_COMPONENTS.contains(&name) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace at `root`: every `.rs` file under
/// [`SCAN_ROOTS`] is parsed into one symbol table, rules scoped by path
/// as DESIGN.md §9 specifies.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let linter = linter_for_root(root);
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        sources.push((rel, src));
    }
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    let WorkspaceReport {
        violations,
        suppressions,
    } = linter.check_sources(&refs);
    Ok(Report {
        files_scanned: sources.len(),
        suppressed: suppressions.len(),
        violations,
        suppressions,
    })
}

/// Renders the report as human-readable text: one `file:line:col`
/// violation per line (witness chains, already embedded in the
/// messages, get their own indented line for multi-step findings) plus
/// a summary.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}\n",
            v.file, v.line, v.col, v.rule, v.message
        ));
        if v.chain.len() > 1 {
            out.push_str(&format!(
                "    witness: {}\n",
                callgraph::render_chain(&v.chain)
            ));
        }
    }
    out.push_str(&format!(
        "ampc-lint: {} file(s) scanned, {} violation(s), {} suppressed — {}\n",
        report.files_scanned,
        report.violations.len(),
        report.suppressed,
        if report.clean() { "clean" } else { "FAIL" }
    ));
    out
}

/// Renders the report as one strict RFC 8259 JSON document (the same
/// handwritten-writer conventions as `ampc-bench`; no timestamps or
/// absolute paths, so the artifact is byte-deterministic for a given
/// tree). Every violation carries its witness `chain` (possibly empty);
/// top-level `rule_counts` and `suppressions` feed the CI step summary.
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"ampc-lint\",\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"clean\": {},\n",
        report.files_scanned,
        report.suppressed,
        report.clean()
    ));
    out.push_str("  \"rule_counts\": {");
    for (i, (name, count)) in report.rule_counts().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {}", json_string(name), count));
    }
    out.push_str("},\n");
    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let chain = v
            .chain
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"file\": {}, \"line\": {}}}",
                    json_string(&s.name),
                    json_string(&s.file),
                    s.line
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \"chain\": [{}]}}",
            json_string(v.rule),
            json_string(&v.file),
            v.line,
            v.col,
            json_string(&v.message),
            chain
        ));
    }
    if report.violations.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"suppressions\": [");
    for (i, s) in report.suppressions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"justification\": {}}}",
            json_string(s.rule),
            json_string(&s.file),
            s.line,
            json_string(&s.justification)
        ));
    }
    if report.suppressions.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

/// Escapes `s` as a JSON string literal (RFC 8259 §7).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_sections_parse() {
        let s = parse_design_sections("# DESIGN\n## §1 One\n## §5.3 Batch\ntext §9 not heading\n");
        assert!(s.contains("1") && s.contains("5.3"));
        assert!(!s.contains("9"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), r#""\u0001""#);
    }

    #[test]
    fn empty_report_renders_clean() {
        let r = Report::default();
        assert!(render_text(&r).contains("clean"));
        let j = render_json(&r);
        assert!(j.contains("\"clean\": true") && j.contains("\"violations\": []"));
        assert!(j.contains("\"rule_counts\"") && j.contains("\"suppressions\": []"));
    }

    #[test]
    fn rule_counts_cover_all_rules() {
        let counts = Report::default().rule_counts();
        assert_eq!(counts.len(), rules::RULES.len() + 1);
        assert!(counts.iter().any(|(n, _)| *n == "query-budget"));
        assert!(counts.iter().all(|(_, c)| *c == 0));
    }
}
