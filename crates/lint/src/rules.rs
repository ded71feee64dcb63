//! The conformance rules and the rule engine.
//!
//! Each rule protects one invariant the workspace's correctness story
//! depends on (DESIGN.md §9 documents them side by side with the
//! dynamic tests that cover the same ground):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-unbatched-get` (R1) | kernels issue DHT lookups as accounted batches (§5.3) |
//! | `no-unordered-iteration` (R2) | deterministic paths never observe randomized map order (§3) |
//! | `no-wall-clock-or-ambient-rng` (R3) | outputs are pure functions of input + seed (§3) |
//! | `no-raw-spawn` (R4) | all parallelism flows through the persistent pool (§5.4) |
//! | `safety-comments` (R5) | every `unsafe` carries its proof obligation |
//! | `env-knob-registry` (R6) | all `AMPC_*` knobs live in `ampc-knobs` |
//! | `design-doc-refs` (R7) | design-doc section references resolve |
//! | `transitive-unbatched-get` (R8) | R1 across function boundaries (§5.3) |
//! | `nondeterminism-taint` (R9) | hash-order values never reach outputs (§3) |
//! | `query-budget` (R10) | kernels declare and meet their batched-request budget (§5.3) |
//! | `stripe-lock-order` (R11) | multi-stripe locks acquire in ascending index (§5.4) |
//!
//! R1–R7 are per-file and lexical (token shapes over [`crate::lexer`]
//! output). R8–R11 are **interprocedural**: they run on the workspace
//! [`crate::symbols::SymbolTable`] and [`crate::callgraph::CallGraph`]
//! built from every file at once, and every finding carries a witness
//! call chain (`a -> b -> handle.get`, each step with a `file:line`
//! span). All rules are heuristics, not type checkers: false positives
//! are handled by the suppression grammar — `// ampc-lint:
//! allow(<rule>) -- <why>` on the flagged line or the line directly
//! above, justification mandatory — and kernel query budgets are
//! declared with `// ampc-lint: budget(batched-requests = N)` above
//! the `*_in_job` item they describe.

use crate::callgraph::{is_handle_call, render_chain, CallGraph, ChainStep};
use crate::lexer::{lex, Tok, TokKind};
use crate::parser::{self, ParsedFile};
use crate::symbols::{FnId, SymbolTable};
use std::collections::{BTreeMap, BTreeSet};

/// A rule's identity and one-line summary (`--list-rules`, docs tests).
#[derive(Clone, Copy, Debug)]
pub struct RuleSpec {
    /// Kebab-case rule name, as used in suppression markers.
    pub name: &'static str,
    /// One-line summary of the invariant the rule protects.
    pub summary: &'static str,
}

/// R1 name.
pub const R1: &str = "no-unbatched-get";
/// R2 name.
pub const R2: &str = "no-unordered-iteration";
/// R3 name.
pub const R3: &str = "no-wall-clock-or-ambient-rng";
/// R4 name.
pub const R4: &str = "no-raw-spawn";
/// R5 name.
pub const R5: &str = "safety-comments";
/// R6 name.
pub const R6: &str = "env-knob-registry";
/// R7 name.
pub const R7: &str = "design-doc-refs";
/// R8 name.
pub const R8: &str = "transitive-unbatched-get";
/// R9 name.
pub const R9: &str = "nondeterminism-taint";
/// R10 name.
pub const R10: &str = "query-budget";
/// R11 name.
pub const R11: &str = "stripe-lock-order";
/// The meta-rule for malformed suppression markers (not suppressible).
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// Every enforceable rule, in R-number order.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        name: R1,
        summary: "per-key MachineHandle::get/try_get inside a loop in a core kernel; \
                  batch independent lookups with get_many_with/get_many_into",
    },
    RuleSpec {
        name: R2,
        summary: "iteration over std HashMap/HashSet in a deterministic-path crate; \
                  sort first, use a BTree collection, or justify",
    },
    RuleSpec {
        name: R3,
        summary: "Instant::now/SystemTime/thread_rng outside crates/bench; outputs \
                  must be pure functions of input + seed",
    },
    RuleSpec {
        name: R4,
        summary: "raw std::thread spawn outside runtime/src/pool.rs; use the \
                  persistent WorkerPool",
    },
    RuleSpec {
        name: R5,
        summary: "an unsafe block/fn/impl without a `// SAFETY:` comment on it or \
                  within the three lines above",
    },
    RuleSpec {
        name: R6,
        summary: "std::env::var outside the ampc-knobs registry; every AMPC_* knob \
                  must be discoverable in one place",
    },
    RuleSpec {
        name: R7,
        summary: "a `DESIGN.md §N` reference in a comment that resolves to no \
                  section of DESIGN.md",
    },
    RuleSpec {
        name: R8,
        summary: "a loop calls a function that transitively performs a per-key \
                  MachineHandle::get/try_get — R1 across function boundaries, \
                  reported with the witness call chain",
    },
    RuleSpec {
        name: R9,
        summary: "a value derived from std HashMap/HashSet iteration flows into a \
                  digest/AlgoOutput/put sink, tracked through returns and calls",
    },
    RuleSpec {
        name: R10,
        summary: "a *_in_job kernel without a `budget(batched-requests = N)` \
                  annotation, or whose reachable batched-request sites do not \
                  match the declared budget",
    },
    RuleSpec {
        name: R11,
        summary: "multi-stripe lock acquisition in crates/dht that cannot be shown \
                  to follow ascending stripe index (deadlock freedom, §5.4)",
    },
];

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (kebab-case; see [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Witness call chain for interprocedural findings (empty for the
    /// per-file rules): function steps at their declarations, ending
    /// at the decisive call site.
    pub chain: Vec<ChainStep>,
}

/// One justified suppression that silenced at least one violation —
/// the inventory CI surfaces so every exception stays visible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuppressionEntry {
    /// Rule silenced.
    pub rule: &'static str,
    /// File the marker lives in.
    pub file: String,
    /// Line of the silenced violation.
    pub line: u32,
    /// The mandatory justification text after `--`.
    pub justification: String,
}

/// Per-file lint result (single-file fixture entry point).
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Violations that survived suppression, in source order.
    pub violations: Vec<Violation>,
    /// Count of violations silenced by a (well-formed) allow marker.
    pub suppressed: usize,
}

/// Workspace-level lint result.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceReport {
    /// Violations that survived suppression, ordered (file, line, col).
    pub violations: Vec<Violation>,
    /// The justified suppressions that actually silenced something,
    /// ordered (file, line, rule).
    pub suppressions: Vec<SuppressionEntry>,
}

/// The rule engine. Holds the cross-file context rules need — today
/// that is only the set of DESIGN.md section numbers for R7.
pub struct Linter {
    /// Section numbers (`"5.3"`, `"9"`, …) that exist in DESIGN.md.
    pub sections: BTreeSet<String>,
}

/// A parsed suppression marker: it silences matching violations on its
/// own line and on the first code line after the contiguous comment
/// block it sits in (the `#[allow]`-attribute placement intuition).
struct Marker {
    rule: &'static str,
    line: u32,
    /// First code line following the marker's comment block, if it
    /// directly abuts one (no blank lines in between).
    target: Option<u32>,
    /// Mandatory justification text.
    justification: String,
}

/// A parsed `budget(batched-requests = N)` annotation; binds to the
/// next function item in the file.
struct BudgetMarker {
    value: u64,
    line: u32,
    col: u32,
    /// Token index of the comment carrying the marker.
    tok: usize,
}

/// Lexical scopes each token sits in, from one brace/paren-matching
/// pre-pass.
struct Scopes {
    /// Token is inside a `for`/`while`/`loop` body or an iterator-
    /// adapter callback (`.map(..)`, `.for_each(..)`, …).
    in_loop: Vec<bool>,
    /// Token is inside a `#[cfg(test)]` module or `#[test]` function.
    in_test: Vec<bool>,
}

/// Map-iteration methods R2/R9 flag.
const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers that mark an iteration as order-insensitive (the result
/// cannot depend on visit order) or explicitly ordered, exempting it
/// from R2/R9 when they appear in the same statement.
const ORDER_SAFE_SINKS: &[&str] = &[
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "sum",
    "product",
    "count",
    "len",
    "all",
    "any",
    "contains",
    "is_empty",
];

/// Deterministic-output sinks R9 protects: order-sensitive digests,
/// algorithm outputs, and DHT writes.
const TAINT_SINKS: &[&str] = &[
    "digest",
    "digest_u64s",
    "put",
    "put_many",
    "put_many_from",
    "put_from",
];

/// Collection methods a live lock guard may escape a loop through
/// (multi-stripe acquisition, R11).
const GUARD_ESCAPES: &[&str] = &["push", "extend", "insert"];

impl Linter {
    /// A linter whose R7 section set is `sections`.
    pub fn with_sections(sections: BTreeSet<String>) -> Linter {
        Linter { sections }
    }

    /// Lints one source file in isolation — the fixture entry point.
    /// Interprocedural rules see a one-file workspace, so single-file
    /// helper chains still resolve.
    pub fn check_source(&self, rel_path: &str, src: &str) -> FileReport {
        let ws = self.check_sources(&[(rel_path, src)]);
        FileReport {
            suppressed: ws.suppressions.len(),
            violations: ws.violations,
        }
    }

    /// Lints a set of files as one workspace: per-file rules R1–R7,
    /// then the interprocedural rules R8–R11 over the symbol table and
    /// call graph, then suppression.
    pub fn check_sources(&self, files: &[(&str, &str)]) -> WorkspaceReport {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(rel, src)| parser::parse_tokens(rel, lex(src)))
            .collect();
        let scopes: Vec<Scopes> = parsed.iter().map(|p| compute_scopes(&p.toks)).collect();

        let mut raw: Vec<Violation> = Vec::new();
        let mut markers: BTreeMap<String, Vec<Marker>> = BTreeMap::new();
        let mut budgets: Vec<Vec<BudgetMarker>> = Vec::new();
        for (fi, pf) in parsed.iter().enumerate() {
            let rel = pf.rel.as_str();
            let toks = &pf.toks;
            let (mk, bd) = collect_markers(toks, rel, &mut raw);
            markers.insert(rel.to_string(), mk);
            budgets.push(bd);

            if in_kernel_scope(rel) {
                rule_unbatched_get(toks, &scopes[fi], rel, &mut raw);
            }
            if is_deterministic_path(rel) {
                rule_unordered_iteration(toks, &scopes[fi], rel, &mut raw);
            }
            if !rel.starts_with("crates/bench") {
                rule_wall_clock_rng(toks, rel, &mut raw);
            }
            if rel != "crates/runtime/src/pool.rs" {
                rule_raw_spawn(toks, rel, &mut raw);
            }
            rule_safety_comments(toks, rel, &mut raw);
            if !rel.starts_with("crates/knobs/src") {
                rule_env_knob_registry(toks, rel, &mut raw);
            }
            rule_design_doc_refs(toks, rel, &self.sections, &mut raw);
        }

        // ------------------------------------------- interprocedural
        let sym = SymbolTable::build(parsed);
        let cg = CallGraph::build(&sym);
        rule_transitive_get(&sym, &cg, &scopes, &mut raw);
        rule_nondeterminism_taint(&sym, &scopes, &mut raw);
        rule_query_budget(&sym, &cg, &budgets, &mut raw);
        rule_stripe_lock_order(&sym, &mut raw);

        // Apply suppressions: a marker silences matching violations on
        // its own line and on the code line its comment block abuts.
        let mut report = WorkspaceReport::default();
        for v in raw {
            let marker = markers.get(&v.file).and_then(|ms| {
                ms.iter()
                    .find(|m| m.rule == v.rule && (m.line == v.line || m.target == Some(v.line)))
            });
            match marker {
                Some(m) => report.suppressions.push(SuppressionEntry {
                    rule: v.rule,
                    file: v.file,
                    line: v.line,
                    justification: m.justification.clone(),
                }),
                None => report.violations.push(v),
            }
        }
        report.violations.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
        report.violations.dedup();
        report
            .suppressions
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        report
    }
}

/// Kernel-code scope for R1/R8: the AMPC kernels plus the facade and
/// the examples that demonstrate them.
fn in_kernel_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src") || rel.starts_with("src/") || rel.starts_with("examples/")
}

/// The paths whose code must be schedule- and process-independent
/// (R2/R9 scope): everything that runs between input and output
/// digest, plus the facade and the examples built on it.
fn is_deterministic_path(rel: &str) -> bool {
    [
        "crates/core/src",
        "crates/dht/src",
        "crates/runtime/src",
        "crates/mpc/src",
        "crates/trees/src",
        "src/",
        "examples/",
    ]
    .iter()
    .any(|p| rel.starts_with(p))
}

/// R10 scope: the kernel crates whose `*_in_job` bodies carry budgets.
fn in_budget_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src") || rel.starts_with("crates/mpc/src")
}

/// One pass of brace/paren matching that classifies every token as
/// inside/outside loop bodies and test-only code.
fn compute_scopes(toks: &[Tok]) -> Scopes {
    if toks.is_empty() {
        return Scopes {
            in_loop: Vec::new(),
            in_test: Vec::new(),
        };
    }
    let in_loop = parser::loop_flags_in(toks, 0, toks.len() - 1);
    let mut in_test = vec![false; toks.len()];
    let mut braces: Vec<bool> = Vec::new();
    let mut parens = 0usize;
    let mut test_depth = 0usize;
    let mut pending_test: Option<usize> = None;
    for (i, t) in toks.iter().enumerate() {
        in_test[i] = test_depth > 0;
        match &t.kind {
            TokKind::Punct('#') if is_test_attr(toks, i) => {
                pending_test = Some(parens);
            }
            TokKind::Punct('(') => parens += 1,
            TokKind::Punct(')') => parens = parens.saturating_sub(1),
            TokKind::Punct('{') => {
                let is_test = pending_test.take().map(|d| d == parens) == Some(true);
                if is_test {
                    test_depth += 1;
                }
                braces.push(is_test);
            }
            TokKind::Punct('}') if braces.pop() == Some(true) => {
                test_depth -= 1;
            }
            _ => {}
        }
    }
    Scopes { in_loop, in_test }
}

/// `#[cfg(test)]` or `#[test]` starting at the `#` token `i`.
fn is_test_attr(toks: &[Tok], i: usize) -> bool {
    let rest: Vec<&Tok> = toks[i..].iter().take(8).collect();
    let shape = |pats: &[&str]| -> bool {
        rest.len() >= pats.len()
            && pats.iter().enumerate().all(|(k, p)| match *p {
                "#" => rest[k].is_punct('#'),
                "[" => rest[k].is_punct('['),
                "]" => rest[k].is_punct(']'),
                "(" => rest[k].is_punct('('),
                ")" => rest[k].is_punct(')'),
                id => rest[k].is_ident(id),
            })
    };
    shape(&["#", "[", "test", "]"]) || shape(&["#", "[", "cfg", "(", "test", ")", "]"])
}

fn next_code(toks: &[Tok], i: usize) -> Option<usize> {
    toks[i + 1..]
        .iter()
        .position(|t| t.kind != TokKind::Comment)
        .map(|off| i + 1 + off)
}

fn prev_code(toks: &[Tok], i: usize) -> Option<usize> {
    toks[..i].iter().rposition(|t| t.kind != TokKind::Comment)
}

/// Distinguishes loop-`for` from `impl Trait for Type` and HRTB
/// `for<'a>`: the latter two are preceded by a type position (ident,
/// `>`, `)`, `]`) or followed by `<`.
fn is_loop_for(toks: &[Tok], i: usize) -> bool {
    if next_code(toks, i).is_some_and(|j| toks[j].is_punct('<')) {
        return false;
    }
    match prev_code(toks, i) {
        Some(j) => {
            !(toks[j].kind == TokKind::Ident
                || toks[j].is_punct('>')
                || toks[j].is_punct(')')
                || toks[j].is_punct(']'))
        }
        None => true,
    }
}

/// Parses `// ampc-lint: …` markers: `allow(<rule>) -- <justification>`
/// suppressions and `budget(batched-requests = N)` annotations.
/// Malformed markers (missing justification, unknown rule name, bad
/// budget grammar) are reported as `bad-suppression` violations — which
/// are themselves unsuppressible.
fn collect_markers(
    toks: &[Tok],
    rel: &str,
    out: &mut Vec<Violation>,
) -> (Vec<Marker>, Vec<BudgetMarker>) {
    let mut markers = Vec::new();
    let mut budgets = Vec::new();
    // Line occupancy maps for computing each marker's target line.
    let mut comment_lines: BTreeSet<u32> = BTreeSet::new();
    let mut code_lines: BTreeSet<u32> = BTreeSet::new();
    for t in toks {
        if t.kind == TokKind::Comment {
            let span = t.text.matches('\n').count() as u32;
            for l in t.line..=t.line + span {
                comment_lines.insert(l);
            }
        } else {
            code_lines.insert(t.line);
        }
    }
    let target_of = |marker_line: u32| -> Option<u32> {
        let mut l = marker_line + 1;
        while comment_lines.contains(&l) && !code_lines.contains(&l) {
            l += 1;
        }
        code_lines.contains(&l).then_some(l)
    };
    for (ti, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        // The marker must *start* the comment (after the `//`/`//!`
        // slashes): prose that merely quotes the grammar is not a
        // marker.
        let head = t.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = head.strip_prefix("ampc-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let bad = |msg: String, out: &mut Vec<Violation>| {
            out.push(Violation {
                rule: BAD_SUPPRESSION,
                file: rel.to_string(),
                line: t.line,
                col: t.col,
                message: msg,
                chain: Vec::new(),
            });
        };
        if let Some(budget_rest) = rest.strip_prefix("budget(") {
            let Some((inner, _)) = budget_rest.split_once(')') else {
                bad(
                    "malformed budget annotation: expected \
                     `ampc-lint: budget(batched-requests = <N>)`"
                        .to_string(),
                    out,
                );
                continue;
            };
            let value = inner
                .split_once('=')
                .filter(|(k, _)| k.trim() == "batched-requests")
                .and_then(|(_, v)| v.trim().parse::<u64>().ok());
            match value {
                Some(value) => budgets.push(BudgetMarker {
                    value,
                    line: t.line,
                    col: t.col,
                    tok: ti,
                }),
                None => bad(
                    format!(
                        "malformed budget annotation `budget({inner})`: expected \
                         `budget(batched-requests = <N>)`"
                    ),
                    out,
                ),
            }
            continue;
        }
        let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            bad(
                "malformed marker: expected `ampc-lint: allow(<rule>) -- <justification>` \
                 or `ampc-lint: budget(batched-requests = <N>)`"
                    .to_string(),
                out,
            );
            continue;
        };
        let (rule, tail) = inner;
        let rule = rule.trim();
        let Some(spec) = RULES.iter().find(|r| r.name == rule) else {
            bad(format!("unknown rule {rule:?} in suppression marker"), out);
            continue;
        };
        let justification = tail.trim_start().strip_prefix("--").map(str::trim);
        match justification {
            Some(j) if !j.is_empty() => {
                markers.push(Marker {
                    rule: spec.name,
                    line: t.line,
                    target: target_of(t.line),
                    justification: j.to_string(),
                });
            }
            _ => bad(
                format!("suppression of `{rule}` lacks a justification (`-- <why>`)"),
                out,
            ),
        }
    }
    (markers, budgets)
}

/// R1: `handle.get(` / `handle.try_get(` lexically inside a loop (or an
/// iterator-adapter callback) in a core kernel. Dependent, adaptive
/// probe chains — the lookups that *define* AMPC — are expected to
/// carry an allow marker explaining why the next key depends on the
/// previous value.
fn rule_unbatched_get(toks: &[Tok], scopes: &Scopes, rel: &str, out: &mut Vec<Violation>) {
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].is_ident("handle")
            && toks[i + 1].is_punct('.')
            && (toks[i + 2].is_ident("get") || toks[i + 2].is_ident("try_get"))
            && toks[i + 3].is_punct('(')
            && scopes.in_loop[i]
        {
            out.push(Violation {
                rule: R1,
                file: rel.to_string(),
                line: toks[i + 2].line,
                col: toks[i + 2].col,
                message: format!(
                    "per-key `handle.{}()` inside a loop: independent lookups must be \
                     batched with `get_many_with`/`get_many_into` (one accounted round \
                     trip); if the chain is adaptive (each key depends on the previous \
                     value), say so in an allow marker",
                    toks[i + 2].text
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// Collects local names bound to a std `HashMap`/`HashSet` inside
/// `toks[lo..hi]` — by declared type (`name: [&mut] [std::collections::]
/// HashMap<..>`) or by constructor (`let name = HashMap::new()` etc.).
fn hash_bound_names(toks: &[Tok], lo: usize, hi: usize) -> BTreeSet<String> {
    let mut bound = BTreeSet::new();
    for i in lo..hi.min(toks.len()) {
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) {
            continue;
        }
        // `name: [&mut] [std::collections::] HashMap<..>`
        let mut j = i;
        while let Some(p) = prev_code(toks, j) {
            let t = &toks[p];
            let path_seg = t.kind == TokKind::Ident && (t.text == "std" || t.text == "collections");
            let glue = t.is_punct(':') || t.is_punct('&') || t.is_ident("mut") || t.is_punct('\'');
            if path_seg || glue {
                j = p;
            } else {
                break;
            }
        }
        if j < i {
            if let Some(p) = prev_code(toks, j) {
                // Reached the token before the `... :` chain; `j` holds
                // the outermost `:`; the name sits right before it.
                if toks[j].is_punct(':') && toks[p].kind == TokKind::Ident {
                    bound.insert(toks[p].text.clone());
                }
            }
        }
        // `let [mut] name = HashMap::new()/with_capacity/default()`
        if let (Some(a), Some(b)) = (next_code(toks, i), prev_code(toks, i)) {
            let ctor = toks[a].is_punct(':')
                && toks.get(a + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(a + 2).is_some_and(|t| {
                    t.is_ident("new") || t.is_ident("with_capacity") || t.is_ident("default")
                });
            if ctor && toks[b].is_punct('=') {
                if let Some(n) = prev_code(toks, b) {
                    if toks[n].kind == TokKind::Ident && toks[n].text != "mut" {
                        bound.insert(toks[n].text.clone());
                    } else if toks[n].is_ident("mut") {
                        if let Some(n2) = prev_code(toks, n) {
                            if toks[n2].kind == TokKind::Ident {
                                bound.insert(toks[n2].text.clone());
                            }
                        }
                    }
                }
            }
        }
    }
    bound
}

/// R2: iteration over a std `HashMap`/`HashSet` in a deterministic-path
/// crate. Two passes: bind names whose declared type or constructor is
/// a std hash collection, then flag iteration sites over those names
/// unless the same statement ends in an order-insensitive sink or a
/// `sort*` call follows within three lines. `FxHashMap`/`FxHashSet`
/// (fixed seed, canonicalized by every consumer) are exempt by name;
/// test-only code is exempt by scope.
fn rule_unordered_iteration(toks: &[Tok], scopes: &Scopes, rel: &str, out: &mut Vec<Violation>) {
    let bound = hash_bound_names(toks, 0, toks.len());
    if bound.is_empty() {
        return;
    }

    let flag = |i: usize, what: &str, out: &mut Vec<Violation>| {
        out.push(Violation {
            rule: R2,
            file: rel.to_string(),
            line: toks[i].line,
            col: toks[i].col,
            message: format!(
                "iteration over std hash collection `{what}`: visit order is \
                 randomized per process, which diverges outputs across runs and \
                 machines; collect-and-sort, use a BTree collection, or justify \
                 with an allow marker"
            ),
            chain: Vec::new(),
        });
    };

    for i in 0..toks.len() {
        if scopes.in_test[i] {
            continue;
        }
        // `name.iter()` / `.keys()` / `.drain()` / …
        if toks[i].kind == TokKind::Ident
            && bound.contains(&toks[i].text)
            && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|t| MAP_ITER_METHODS.contains(&t.text.as_str()))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            && !statement_is_order_safe(toks, i)
        {
            flag(i, &toks[i].text, out);
        }
        // `for pat in [&mut] name …`
        if toks[i].is_ident("for") && is_loop_for(toks, i) {
            let mut j = i + 1;
            let mut hit: Option<usize> = None;
            let mut safe = false;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].kind == TokKind::Ident {
                    if bound.contains(&toks[j].text) {
                        hit.get_or_insert(j);
                    }
                    if ORDER_SAFE_SINKS.contains(&toks[j].text.as_str()) {
                        safe = true;
                    }
                }
                j += 1;
            }
            if let (Some(h), false) = (hit, safe) {
                flag(h, &toks[h].text, out);
            }
        }
    }
}

/// True when the statement containing token `i` drains into an
/// order-insensitive sink (`len`, `min`, a BTree collect, …) or a
/// `sort*` call appears within the next three lines — the "sorted
/// first" escape hatch R2 grants.
fn statement_is_order_safe(toks: &[Tok], i: usize) -> bool {
    let line = toks[i].line;
    let mut in_statement = true;
    for t in &toks[i..] {
        if t.line > line + 3 {
            break;
        }
        if t.is_punct(';') {
            in_statement = false;
        }
        if t.kind == TokKind::Ident {
            if t.text.starts_with("sort") {
                return true;
            }
            if in_statement && ORDER_SAFE_SINKS.contains(&t.text.as_str()) {
                return true;
            }
        }
    }
    false
}

/// R3: `Instant::now`, `SystemTime`, `thread_rng` outside
/// `crates/bench`. Wall-clock may only ever be a reported measurement
/// (annotate those sites); ambient RNG is banned outright — all
/// algorithm randomness flows from `AmpcConfig::seed`.
fn rule_wall_clock_rng(toks: &[Tok], rel: &str, out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let flagged = match t.text.as_str() {
            "Instant" => {
                toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|a| a.is_ident("now"))
            }
            "SystemTime" | "thread_rng" => true,
            _ => false,
        };
        if flagged {
            out.push(Violation {
                rule: R3,
                file: rel.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` outside crates/bench: outputs must be pure functions of \
                     input + seed (DESIGN.md §3); wall-clock is only legitimate as \
                     a reported measurement, never as algorithm input",
                    t.text
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// R4: `thread::spawn` / `thread::Builder` anywhere but the persistent
/// pool. One spawn path means one place to enforce naming, panic
/// propagation and the `AMPC_THREADS` cap.
fn rule_raw_spawn(toks: &[Tok], rel: &str, out: &mut Vec<Violation>) {
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].is_ident("thread")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && (toks[i + 3].is_ident("spawn") || toks[i + 3].is_ident("Builder"))
        {
            out.push(Violation {
                rule: R4,
                file: rel.to_string(),
                line: toks[i + 3].line,
                col: toks[i + 3].col,
                message: "raw std::thread spawn: all worker parallelism must flow \
                          through runtime's persistent WorkerPool (runtime/src/pool.rs) \
                          so AMPC_THREADS=1 really means inline"
                    .to_string(),
                chain: Vec::new(),
            });
        }
    }
}

/// R5: every `unsafe` keyword must carry a `// SAFETY:` comment — on
/// the same line, or anywhere in the contiguous comment block that
/// directly precedes it (no code or blank lines in between).
fn rule_safety_comments(toks: &[Tok], rel: &str, out: &mut Vec<Violation>) {
    // line -> (has a comment, that comment mentions SAFETY:). Block
    // comments mark every line they span.
    let mut comment_lines: BTreeMap<u32, bool> = BTreeMap::new();
    let mut code_lines: BTreeSet<u32> = BTreeSet::new();
    for t in toks {
        if t.kind == TokKind::Comment {
            let span = t.text.matches('\n').count() as u32;
            let has = t.text.contains("SAFETY:");
            for l in t.line..=t.line + span {
                *comment_lines.entry(l).or_insert(false) |= has;
            }
        } else {
            code_lines.insert(t.line);
        }
    }
    for t in toks {
        if !t.is_ident("unsafe") {
            continue;
        }
        let mut documented = comment_lines.get(&t.line) == Some(&true);
        let mut l = t.line.saturating_sub(1);
        while !documented && l >= 1 {
            match comment_lines.get(&l) {
                Some(has) if !code_lines.contains(&l) => {
                    documented = *has;
                    if *has {
                        break;
                    }
                }
                _ => break,
            }
            l -= 1;
        }
        if !documented {
            out.push(Violation {
                rule: R5,
                file: rel.to_string(),
                line: t.line,
                col: t.col,
                message: "`unsafe` without a `// SAFETY:` comment stating the proof \
                          obligation (same line, or the comment block directly above)"
                    .to_string(),
                chain: Vec::new(),
            });
        }
    }
}

/// R6: `env::var`/`env::var_os` outside the `ampc-knobs` registry.
fn rule_env_knob_registry(toks: &[Tok], rel: &str, out: &mut Vec<Violation>) {
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].is_ident("env")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && (toks[i + 3].is_ident("var") || toks[i + 3].is_ident("var_os"))
        {
            out.push(Violation {
                rule: R6,
                file: rel.to_string(),
                line: toks[i + 3].line,
                col: toks[i + 3].col,
                message: "direct environment read: route the knob through the \
                          ampc-knobs registry (crates/knobs) so every AMPC_* \
                          variable stays discoverable in one place"
                    .to_string(),
                chain: Vec::new(),
            });
        }
    }
}

/// R7: every design-doc section reference in a comment (the literal
/// text `DESIGN.md` followed by a section sign and number) must name a
/// real section of DESIGN.md.
fn rule_design_doc_refs(
    toks: &[Tok],
    rel: &str,
    sections: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    const NEEDLE: &str = "DESIGN.md §";
    for t in toks {
        if t.kind != TokKind::Comment {
            continue;
        }
        let mut rest = t.text.as_str();
        let mut consumed = 0usize;
        while let Some(at) = rest.find(NEEDLE) {
            let after = &rest[at + NEEDLE.len()..];
            let num: String = after
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            let num = num.trim_end_matches('.').to_string();
            let line = t.line
                + t.text[..consumed + at]
                    .chars()
                    .filter(|&c| c == '\n')
                    .count() as u32;
            if num.is_empty() || !sections.contains(&num) {
                out.push(Violation {
                    rule: R7,
                    file: rel.to_string(),
                    line,
                    col: t.col,
                    message: if num.is_empty() {
                        "dangling `DESIGN.md §` reference with no section number".to_string()
                    } else {
                        format!("`DESIGN.md §{num}` does not resolve to any section of DESIGN.md")
                    },
                    chain: Vec::new(),
                });
            }
            consumed += at + NEEDLE.len();
            rest = after;
        }
    }
}

/// R8: a loop (or iterator-adapter callback) in kernel scope calls a
/// function that **transitively** reaches a per-key `handle.get`/
/// `try_get` — the helper-function hole R1's lexical pattern cannot
/// see. Direct `handle.get` in a loop stays R1's finding; R8 fires
/// only through at least one call edge, and reports the witness chain.
fn rule_transitive_get(
    sym: &SymbolTable,
    cg: &CallGraph<'_>,
    scopes: &[Scopes],
    out: &mut Vec<Violation>,
) {
    let witnesses = cg.per_key_get_witnesses();
    for (id, f) in sym.fns.iter().enumerate() {
        let rel = sym.rel_of(id);
        if !in_kernel_scope(rel) {
            continue;
        }
        for call in &f.item.calls {
            if !call.in_loop || scopes[f.file].in_test[call.tok] {
                continue;
            }
            if is_handle_call(sym, id, call) {
                continue; // direct primitive: R1's territory
            }
            let Some(callee) = sym.resolve(id, &call.callee) else {
                continue;
            };
            let Some(w) = witnesses[callee].as_ref() else {
                continue;
            };
            out.push(Violation {
                rule: R8,
                file: rel.to_string(),
                line: call.line,
                col: call.col,
                message: format!(
                    "`{}` is called inside a loop and transitively performs a per-key \
                     `handle.get` ({}): batch independent lookups before the loop, or \
                     justify the adaptive chain with an allow marker",
                    call.callee,
                    render_chain(w)
                ),
                chain: w.clone(),
            });
        }
    }
}

/// The provenance of a tainted value: the hash-iteration source first,
/// then each function the taint flowed through (at its declaration).
type TaintChain = Vec<ChainStep>;

/// R9: values derived from std `HashMap`/`HashSet` iteration must not
/// flow into deterministic-output sinks (`digest*`, `AlgoOutput`
/// constructors, DHT `put*`), tracked through local bindings, function
/// returns, and calls. Heuristic data flow over names: a binding whose
/// initializer contains a tainted name, an unordered hash iteration,
/// or a call to a taint-returning function becomes tainted itself.
fn rule_nondeterminism_taint(sym: &SymbolTable, scopes: &[Scopes], out: &mut Vec<Violation>) {
    // Fixpoint over function summaries (does `f` return tainted data?).
    let mut returns: Vec<Option<TaintChain>> = vec![None; sym.fns.len()];
    loop {
        let mut changed = false;
        for id in 0..sym.fns.len() {
            if !is_deterministic_path(sym.rel_of(id)) || returns[id].is_some() {
                continue;
            }
            let analysis = taint_in_fn(sym, id, &returns);
            if analysis.returns.is_some() {
                returns[id] = analysis.returns;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Sink pass.
    for id in 0..sym.fns.len() {
        let rel = sym.rel_of(id);
        if !is_deterministic_path(rel) {
            continue;
        }
        let analysis = taint_in_fn(sym, id, &returns);
        if analysis.tainted.is_empty() && returns.iter().all(|r| r.is_none()) {
            continue;
        }
        let f = &sym.fns[id];
        let toks = &sym.files[f.file].toks;
        for call in &f.item.calls {
            if scopes[f.file].in_test[call.tok] {
                continue;
            }
            let is_sink = TAINT_SINKS.contains(&call.callee.as_str())
                || call.path.iter().any(|s| s == "AlgoOutput");
            if !is_sink {
                continue;
            }
            // Argument range: the parens after the callee.
            let Some(open) = next_code(toks, call.tok) else {
                continue;
            };
            let Some(close) = match_paren(toks, open) else {
                continue;
            };
            let arg_taint = (open + 1..close).find_map(|i| {
                if toks[i].kind != TokKind::Ident {
                    return None;
                }
                if let Some(chain) = analysis.tainted.get(&toks[i].text) {
                    return Some(chain.clone());
                }
                // A call to a taint-returning function inside the args.
                if next_code(toks, i).is_some_and(|j| toks[j].is_punct('(')) {
                    if let Some(g) = sym.resolve(id, &toks[i].text) {
                        if let Some(chain) = returns[g].as_ref() {
                            let mut c = chain.clone();
                            c.push(fn_decl_step(sym, g));
                            return Some(c);
                        }
                    }
                }
                None
            });
            if let Some(mut chain) = arg_taint {
                chain.push(ChainStep {
                    name: call.callee.clone(),
                    file: rel.to_string(),
                    line: call.line,
                });
                out.push(Violation {
                    rule: R9,
                    file: rel.to_string(),
                    line: call.line,
                    col: call.col,
                    message: format!(
                        "value derived from std hash-collection iteration reaches \
                         deterministic sink `{}` ({}): canonicalize (sort) before the \
                         sink, use an ordered collection, or justify with an allow \
                         marker",
                        call.callee,
                        render_chain(&chain)
                    ),
                    chain,
                });
            }
        }
    }
}

struct FnTaint {
    /// Locally tainted names with their provenance.
    tainted: BTreeMap<String, TaintChain>,
    /// Set when the function's return value is tainted.
    returns: Option<TaintChain>,
}

fn fn_decl_step(sym: &SymbolTable, id: FnId) -> ChainStep {
    ChainStep {
        name: sym.fns[id].item.name.clone(),
        file: sym.rel_of(id).to_string(),
        line: sym.fns[id].item.line,
    }
}

/// Matches the paren opened at token `open`.
fn match_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Local taint analysis over one function body (see
/// [`rule_nondeterminism_taint`]).
fn taint_in_fn(sym: &SymbolTable, id: FnId, returns: &[Option<TaintChain>]) -> FnTaint {
    let f = &sym.fns[id];
    let toks = &sym.files[f.file].toks;
    let rel = sym.rel_of(id);
    let (bs, be) = f.item.body;
    let bound = hash_bound_names(toks, bs, be + 1);
    let mut tainted: BTreeMap<String, TaintChain> = BTreeMap::new();

    let source_step = |name: &str, line: u32| -> TaintChain {
        vec![ChainStep {
            name: format!("hash-iter({name})"),
            file: rel.to_string(),
            line,
        }]
    };

    // `for pat in name` over a hash-bound collection taints the
    // pattern's bindings (unless the header drains order-safely).
    for i in bs..=be {
        if !toks[i].is_ident("for") || !is_loop_for(toks, i) {
            continue;
        }
        let mut j = i + 1;
        let mut in_kw: Option<usize> = None;
        let mut hit: Option<usize> = None;
        let mut safe = false;
        while j <= be && !toks[j].is_punct('{') {
            if toks[j].kind == TokKind::Ident {
                if toks[j].is_ident("in") && in_kw.is_none() {
                    in_kw = Some(j);
                } else if in_kw.is_some() && bound.contains(&toks[j].text) {
                    hit.get_or_insert(j);
                } else if ORDER_SAFE_SINKS.contains(&toks[j].text.as_str()) {
                    safe = true;
                }
            }
            j += 1;
        }
        if let (Some(h), Some(in_kw), false) = (hit, in_kw, safe) {
            let chain = source_step(&toks[h].text, toks[h].line);
            for t in &toks[i + 1..in_kw] {
                if t.kind == TokKind::Ident && !t.is_ident("mut") {
                    tainted.insert(t.text.clone(), chain.clone());
                }
            }
        }
    }

    // `let name = <expr>;` bindings: propagate taint from unordered
    // hash iteration, tainted names, and taint-returning calls. A few
    // passes reach a local fixpoint (chains of bindings).
    for _ in 0..3 {
        let mut changed = false;
        for i in bs..=be {
            if !toks[i].is_ident("let") {
                continue;
            }
            let Some(mut n) = next_code(toks, i) else {
                continue;
            };
            if toks[n].is_ident("mut") {
                match next_code(toks, n) {
                    Some(n2) => n = n2,
                    None => continue,
                }
            }
            if toks[n].kind != TokKind::Ident || tainted.contains_key(&toks[n].text) {
                continue;
            }
            // Find the `=` and the end of the statement.
            let Some(eq) = (n..=be).find(|&j| toks[j].is_punct('=')) else {
                continue;
            };
            let end = statement_end(toks, eq, be);
            if let Some(chain) = expr_taint(sym, id, toks, eq + 1, end, &bound, &tainted, returns) {
                tainted.insert(toks[n].text.clone(), chain);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Return taint: explicit `return <expr>` or the body's trailing
    // expression.
    let mut ret: Option<TaintChain> = None;
    for i in bs..=be {
        if toks[i].is_ident("return") {
            let end = statement_end(toks, i, be);
            if let Some(chain) = expr_taint(sym, id, toks, i + 1, end, &bound, &tainted, returns) {
                ret = Some(chain);
                break;
            }
        }
    }
    if ret.is_none() && be > bs {
        // Trailing expression: tokens after the last top-level `;`.
        let mut depth = 0i32;
        let mut last_semi = bs;
        for (i, t) in toks.iter().enumerate().take(be).skip(bs + 1) {
            match t.kind {
                TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct(';') if depth == 0 => last_semi = i,
                _ => {}
            }
        }
        ret = expr_taint(sym, id, toks, last_semi + 1, be, &bound, &tainted, returns);
    }
    FnTaint {
        tainted,
        returns: ret,
    }
}

/// First `;` at delimiter depth 0 after `from`, or `hi`.
fn statement_end(toks: &[Tok], from: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().take(hi + 1).skip(from) {
        match t.kind {
            TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return i,
            _ => {}
        }
    }
    hi
}

/// Taint of the expression `toks[lo..hi]`: an unordered hash-iteration
/// chain, a tainted name, or a call to a taint-returning function.
#[allow(clippy::too_many_arguments)]
fn expr_taint(
    sym: &SymbolTable,
    id: FnId,
    toks: &[Tok],
    lo: usize,
    hi: usize,
    bound: &BTreeSet<String>,
    tainted: &BTreeMap<String, TaintChain>,
    returns: &[Option<TaintChain>],
) -> Option<TaintChain> {
    let rel = sym.rel_of(id);
    for i in lo..hi.min(toks.len()) {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // Unordered iteration over a hash-bound name.
        if bound.contains(&toks[i].text)
            && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|t| MAP_ITER_METHODS.contains(&t.text.as_str()))
            && !statement_is_order_safe(toks, i)
        {
            return Some(vec![ChainStep {
                name: format!("hash-iter({})", toks[i].text),
                file: rel.to_string(),
                line: toks[i].line,
            }]);
        }
        // A name already known to be tainted.
        if let Some(chain) = tainted.get(&toks[i].text) {
            return Some(chain.clone());
        }
        // A call to a taint-returning function.
        if next_code(toks, i).is_some_and(|j| toks[j].is_punct('(')) {
            if let Some(g) = sym.resolve(id, &toks[i].text) {
                if let Some(chain) = returns[g].as_ref() {
                    let mut c = chain.clone();
                    c.push(fn_decl_step(sym, g));
                    return Some(c);
                }
            }
        }
    }
    None
}

/// R10: every `*_in_job` kernel in the kernel crates declares its
/// per-round batched-request budget with `// ampc-lint:
/// budget(batched-requests = N)`, and the number of batched-request
/// sites statically reachable from its body (transitively, through
/// workspace calls) must equal the declaration. The finding lists one
/// witness chain per reachable site. A budget annotation on any other
/// function is checked the same way.
fn rule_query_budget(
    sym: &SymbolTable,
    cg: &CallGraph<'_>,
    budgets: &[Vec<BudgetMarker>],
    out: &mut Vec<Violation>,
) {
    // Bind each annotation to the next function item in its file.
    let mut declared: BTreeMap<FnId, u64> = BTreeMap::new();
    for (fi, file_budgets) in budgets.iter().enumerate() {
        let rel = sym.files[fi].rel.clone();
        for b in file_budgets {
            let target = sym
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.file == fi && f.item.intro_tok > b.tok)
                .min_by_key(|(_, f)| f.item.intro_tok)
                .map(|(id, _)| id);
            match target {
                Some(id) if !declared.contains_key(&id) => {
                    declared.insert(id, b.value);
                }
                Some(_) => out.push(Violation {
                    rule: BAD_SUPPRESSION,
                    file: rel.clone(),
                    line: b.line,
                    col: b.col,
                    message: "duplicate budget annotation for the same function".to_string(),
                    chain: Vec::new(),
                }),
                None => out.push(Violation {
                    rule: BAD_SUPPRESSION,
                    file: rel.clone(),
                    line: b.line,
                    col: b.col,
                    message: "budget annotation binds to no following function".to_string(),
                    chain: Vec::new(),
                }),
            }
        }
    }

    for (id, f) in sym.fns.iter().enumerate() {
        let rel = sym.rel_of(id);
        let is_kernel =
            f.item.name.ends_with("_in_job") && !f.item.is_closure && in_budget_scope(rel);
        let budget = declared.get(&id).copied();
        if !is_kernel && budget.is_none() {
            continue;
        }
        let Some(budget) = budget else {
            out.push(Violation {
                rule: R10,
                file: rel.to_string(),
                line: f.item.line,
                col: f.item.col,
                message: format!(
                    "kernel `{}` lacks a query-budget annotation: declare \
                     `// ampc-lint: budget(batched-requests = N)` above it (N = \
                     batched-request sites reachable from the body, the O(S)-per-round \
                     discipline of DESIGN.md §5.3)",
                    f.item.name
                ),
                chain: Vec::new(),
            });
            continue;
        };
        let sites = cg.reachable_batched_sites(id);
        if sites.len() as u64 == budget {
            continue;
        }
        let listing: Vec<String> = sites
            .iter()
            .enumerate()
            .map(|(k, c)| format!("  [{}] {}", k + 1, render_chain(c)))
            .collect();
        let chain = if (sites.len() as u64) > budget {
            sites[budget as usize].clone()
        } else {
            sites.last().cloned().unwrap_or_default()
        };
        out.push(Violation {
            rule: R10,
            file: rel.to_string(),
            line: f.item.line,
            col: f.item.col,
            message: format!(
                "`{}` declares budget(batched-requests = {}) but {} batched-request \
                 site(s) are statically reachable:\n{}",
                f.item.name,
                budget,
                sites.len(),
                listing.join("\n")
            ),
            chain,
        });
    }
}

/// R11: multi-stripe lock acquisition order in `crates/dht`. The
/// deadlock-freedom argument (DESIGN.md §5.4) is that stripe locks are
/// only ever held one at a time, or acquired in ascending stripe
/// index. Two shapes are policed, per function body:
///
/// 1. a second indexed `.lock()` on the same receiver while a prior
///    stripe guard is still live (not yet dropped or out of scope),
///    unless both indices are integer literals in ascending order;
/// 2. an indexed `.lock()` inside a loop whose guard *escapes* the
///    iteration (pushed/collected into a longer-lived collection),
///    unless the surrounding evidence shows ascending order — the
///    loop iterates a literal range, or a `sort*` call precedes it.
fn rule_stripe_lock_order(sym: &SymbolTable, out: &mut Vec<Violation>) {
    for (id, f) in sym.fns.iter().enumerate() {
        let rel = sym.rel_of(id);
        if !rel.starts_with("crates/dht/src") {
            continue;
        }
        let toks = &sym.files[f.file].toks;
        let (bs, be) = f.item.body;
        // Indexed lock sites: `<recv> [ idx ] . lock (`.
        struct LockSite {
            tok: usize,
            open: usize,
            close: usize,
            recv: Option<String>,
            line: u32,
            col: u32,
        }
        let mut sites = Vec::new();
        for i in bs..=be {
            if !toks[i].is_ident("lock") {
                continue;
            }
            let callish = next_code(toks, i).is_some_and(|j| toks[j].is_punct('('));
            let dot = prev_code(toks, i).filter(|&j| toks[j].is_punct('.'));
            let Some(dot) = dot else { continue };
            if !callish {
                continue;
            }
            let Some(close) = prev_code(toks, dot).filter(|&j| toks[j].is_punct(']')) else {
                continue;
            };
            // Match the bracket backwards.
            let mut depth = 0i32;
            let mut open = None;
            for j in (bs..=close).rev() {
                match toks[j].kind {
                    TokKind::Punct(']') => depth += 1,
                    TokKind::Punct('[') => {
                        depth -= 1;
                        if depth == 0 {
                            open = Some(j);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let Some(open) = open else { continue };
            let recv = prev_code(toks, open)
                .filter(|&j| toks[j].kind == TokKind::Ident)
                .map(|j| toks[j].text.clone());
            sites.push(LockSite {
                tok: i,
                open,
                close,
                recv,
                line: toks[i].line,
                col: toks[i].col,
            });
        }
        if sites.is_empty() {
            continue;
        }
        let loop_flags = parser::loop_flags_in(toks, bs, be);
        let literal_index = |s: &LockSite| -> Option<u64> {
            let inner: Vec<usize> = (s.open + 1..s.close)
                .filter(|&j| toks[j].kind != TokKind::Comment)
                .collect();
            match inner[..] {
                [j] if toks[j].kind == TokKind::Literal => toks[j].text.parse::<u64>().ok(),
                _ => None,
            }
        };
        // Shape 1: overlapping guards.
        for s1 in &sites {
            // Guard binding: a `let` starts the statement (no `;`/brace
            // between it and the lock).
            let mut let_tok = None;
            for j in (bs..s1.open).rev() {
                if toks[j].is_punct(';') || toks[j].is_punct('{') || toks[j].is_punct('}') {
                    break;
                }
                if toks[j].is_ident("let") {
                    let_tok = Some(j);
                    break;
                }
            }
            let Some(let_tok) = let_tok else { continue };
            let Some(mut n) = next_code(toks, let_tok) else {
                continue;
            };
            if toks[n].is_ident("mut") {
                match next_code(toks, n) {
                    Some(n2) => n = n2,
                    None => continue,
                }
            }
            if toks[n].kind != TokKind::Ident {
                continue;
            }
            let guard = toks[n].text.clone();
            // Live range: end of statement to end of the enclosing
            // block, shortened by an explicit drop(guard).
            let stmt_end = statement_end(toks, s1.tok, be);
            let scope_end = enclosing_block_end(toks, bs, be, let_tok);
            let mut live_end = scope_end;
            for j in stmt_end..scope_end {
                if toks[j].is_ident("drop")
                    && next_code(toks, j).is_some_and(|k| toks[k].is_punct('('))
                    && toks.get(j + 2).is_some_and(|t| t.is_ident(&guard))
                {
                    live_end = j;
                    break;
                }
            }
            for s2 in &sites {
                if s2.tok <= stmt_end || s2.tok >= live_end || s2.recv != s1.recv {
                    continue;
                }
                let ascending = matches!(
                    (literal_index(s1), literal_index(s2)),
                    (Some(i1), Some(i2)) if i2 > i1
                );
                if !ascending {
                    out.push(Violation {
                        rule: R11,
                        file: rel.to_string(),
                        line: s2.line,
                        col: s2.col,
                        message: format!(
                            "stripe lock acquired while guard `{guard}` (line {}) is \
                             still live: multi-stripe acquisition must follow ascending \
                             stripe index (DESIGN.md §5.4) — reorder, drop the first \
                             guard, or justify with an allow marker",
                            s1.line
                        ),
                        chain: vec![
                            ChainStep {
                                name: format!("first lock (guard `{guard}`)"),
                                file: rel.to_string(),
                                line: s1.line,
                            },
                            ChainStep {
                                name: "second lock while guard live".to_string(),
                                file: rel.to_string(),
                                line: s2.line,
                            },
                        ],
                    });
                }
            }
        }
        // Shape 2: guards escaping a loop iteration.
        for s in &sites {
            if !loop_flags[s.tok - bs] {
                continue;
            }
            let escapes = nearest_enclosing_call(toks, bs, s.tok)
                .map(|name| GUARD_ESCAPES.contains(&name.as_str()))
                .unwrap_or(false)
                || guard_escapes_via_binding(toks, bs, be, s.open, s.tok);
            if !escapes {
                continue;
            }
            if ascending_evidence(toks, bs, s.tok) {
                continue;
            }
            out.push(Violation {
                rule: R11,
                file: rel.to_string(),
                line: s.line,
                col: s.col,
                message: "stripe lock guard escapes its loop iteration (multi-stripe \
                          acquisition) without ascending-order evidence: iterate a \
                          literal range or sort the stripe indices first (DESIGN.md \
                          §5.4), or justify with an allow marker"
                    .to_string(),
                chain: vec![ChainStep {
                    name: "escaping stripe lock".to_string(),
                    file: rel.to_string(),
                    line: s.line,
                }],
            });
        }
    }
}

/// The close index of the innermost brace block containing `at`
/// (searching within `[bs, be]`), or `be`.
fn enclosing_block_end(toks: &[Tok], bs: usize, be: usize, at: usize) -> usize {
    let mut stack = Vec::new();
    for (j, t) in toks.iter().enumerate().take(be + 1).skip(bs) {
        match t.kind {
            TokKind::Punct('{') => stack.push(j),
            TokKind::Punct('}') => {
                if let Some(open) = stack.pop() {
                    if open <= at && at <= j {
                        return j;
                    }
                }
            }
            _ => {}
        }
    }
    be
}

/// The name of the innermost call whose parens enclose `at` (excluding
/// the call `at` itself begins), if any.
fn nearest_enclosing_call(toks: &[Tok], bs: usize, at: usize) -> Option<String> {
    let mut stack: Vec<usize> = Vec::new();
    for (j, t) in toks.iter().enumerate().take(at).skip(bs) {
        match t.kind {
            TokKind::Punct('(') => stack.push(j),
            TokKind::Punct(')') => {
                stack.pop();
            }
            _ => {}
        }
    }
    let open = *stack.last()?;
    let name_idx = prev_code(toks, open)?;
    (toks[name_idx].kind == TokKind::Ident).then(|| toks[name_idx].text.clone())
}

/// True when the lock statement binds a guard that later (within the
/// enclosing block) appears as an argument of a `push`/`extend`/
/// `insert` call.
fn guard_escapes_via_binding(toks: &[Tok], bs: usize, be: usize, open: usize, at: usize) -> bool {
    let mut let_tok = None;
    for j in (bs..open).rev() {
        if toks[j].is_punct(';') || toks[j].is_punct('{') || toks[j].is_punct('}') {
            break;
        }
        if toks[j].is_ident("let") {
            let_tok = Some(j);
            break;
        }
    }
    let Some(let_tok) = let_tok else {
        return false;
    };
    let Some(mut n) = next_code(toks, let_tok) else {
        return false;
    };
    if toks[n].is_ident("mut") {
        match next_code(toks, n) {
            Some(n2) => n = n2,
            None => return false,
        }
    }
    if toks[n].kind != TokKind::Ident {
        return false;
    }
    let guard = &toks[n].text;
    let stmt_end = statement_end(toks, at, be);
    let scope_end = enclosing_block_end(toks, bs, be, let_tok);
    for j in stmt_end..scope_end {
        if toks[j].kind == TokKind::Ident
            && GUARD_ESCAPES.contains(&toks[j].text.as_str())
            && next_code(toks, j).is_some_and(|k| toks[k].is_punct('('))
        {
            if let Some(close) = next_code(toks, j).and_then(|k| match_paren(toks, k)) {
                let open_p = next_code(toks, j).unwrap();
                if (open_p + 1..close).any(|k| toks[k].is_ident(guard)) {
                    return true;
                }
            }
        }
    }
    false
}

/// Ascending-order evidence for an escaping in-loop lock at `at`: the
/// nearest preceding `for` header iterates a range (`lo..hi` ascends),
/// or some `sort*` call precedes the site in this body.
fn ascending_evidence(toks: &[Tok], bs: usize, at: usize) -> bool {
    for t in &toks[bs..at] {
        if t.kind == TokKind::Ident && t.text.starts_with("sort") {
            return true;
        }
    }
    // Nearest preceding `for … {`: look for a `..` range in the header.
    let mut for_tok = None;
    for j in (bs..at).rev() {
        if toks[j].is_ident("for") && is_loop_for(toks, j) {
            for_tok = Some(j);
            break;
        }
    }
    let Some(for_tok) = for_tok else {
        return false;
    };
    let mut j = for_tok;
    while j < at && !toks[j].is_punct('{') {
        if toks[j].is_punct('.') && toks.get(j + 1).is_some_and(|t| t.is_punct('.')) {
            return true;
        }
        j += 1;
    }
    false
}
