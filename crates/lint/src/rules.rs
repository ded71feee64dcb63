//! The conformance rules and the rule engine.
//!
//! Each rule protects one invariant the workspace's correctness story
//! depends on (DESIGN.md §9 documents them side by side with the
//! dynamic tests that cover the same ground):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-unbatched-get` (R1) | a per-key DHT lookup repeats per loop iteration only when it is adaptive (§5.3) |
//! | `no-unordered-iteration` (R2) | deterministic paths never observe randomized map order (§3) |
//! | `no-wall-clock-or-ambient-rng` (R3) | outputs are pure functions of input + seed (§3) |
//! | `no-raw-spawn` (R4) | all parallelism flows through the persistent pool (§5.4) |
//! | `safety-comments` (R5) | every `unsafe` carries its proof obligation |
//! | `env-knob-registry` (R6) | all `AMPC_*` knobs live in `ampc-knobs` |
//! | `design-doc-refs` (R7) | design-doc section references resolve |
//! | `query-budget` (R8) | kernels declare and meet their batched-request budget (§5.3) |
//!
//! R2–R7 are per-file and lexical (token shapes over [`crate::lexer`]
//! output). R1 and R8 run on the workspace
//! [`crate::symbols::SymbolTable`] and [`crate::callgraph::CallGraph`]
//! built from every file at once, and their findings carry a witness
//! call chain (`a -> b -> handle.get`, each step with a `file:line`
//! span). All rules are heuristics, not type checkers: false positives
//! are handled by the suppression grammar — `// ampc-lint:
//! allow(<rule>) -- <why>` on the flagged line or the line directly
//! above, justification mandatory, and a marker that silences nothing
//! is itself a finding — and kernel query budgets are declared with
//! `// ampc-lint: budget(batched-requests = N)` above the `*_in_job`
//! item they describe.

use crate::callgraph::{render_chain, CallGraph, ChainStep};
use crate::lexer::{lex, Tok, TokKind};
use crate::parser::{self, is_loop_for, next_code, prev_code, CallSite, ParsedFile};
use crate::symbols::{FnId, SymbolTable};
use std::cmp::Ordering;
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
pub const R8: &str = "query-budget";
/// The meta-rule for malformed or stale suppression markers (not
/// suppressible).
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// Every enforceable rule, in R-number order.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        name: R1,
        summary: "a per-key MachineHandle::get/try_get that runs once per loop iteration \
                  in kernel code — in the loop itself or in a function the loop calls; \
                  reported at the get with the witness chain from the loop. Batch \
                  independent lookups with get_many_with/get_many_into",
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
        summary: "raw std::thread spawn/Builder/scope outside runtime/src/pool.rs; \
                  use the persistent WorkerPool",
    },
    RuleSpec {
        name: R5,
        summary: "an unsafe block/fn/impl without a `// SAFETY:` comment on its line \
                  or in the comment block directly above",
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
        summary: "a *_in_job kernel without a `budget(batched-requests = N)` \
                  annotation, or whose reachable batched-request sites do not \
                  match the declared budget",
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
    /// Witness call chain for call-graph findings (empty otherwise):
    /// the steps from the site that explains the finding to the
    /// decisive call.
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
    col: u32,
    /// First code line following the marker's comment block, if it
    /// directly abuts one (no blank lines in between).
    target: Option<u32>,
    /// Mandatory justification text.
    justification: String,
    /// Set once the marker silences a violation.
    used: bool,
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

/// Which lines of one file hold comments and which hold code — shared
/// by the marker parser (marker targets) and R5 (`SAFETY:` blocks).
struct Lines {
    /// Line covered by a comment (block comments cover every line they
    /// span) → whether a comment there mentions `SAFETY:`.
    comment: BTreeMap<u32, bool>,
    /// Lines holding at least one code token.
    code: BTreeSet<u32>,
}

impl Lines {
    fn of(toks: &[Tok]) -> Lines {
        let mut lines = Lines {
            comment: BTreeMap::new(),
            code: BTreeSet::new(),
        };
        for t in toks {
            if t.kind == TokKind::Comment {
                let span = t.text.matches('\n').count() as u32;
                let safety = t.text.contains("SAFETY:");
                for l in t.line..=t.line + span {
                    *lines.comment.entry(l).or_insert(false) |= safety;
                }
            } else {
                lines.code.insert(t.line);
            }
        }
        lines
    }

    fn comment_only(&self, l: u32) -> bool {
        self.comment.contains_key(&l) && !self.code.contains(&l)
    }

    /// The first code line after the comment-only lines following
    /// `line`, if they abut one (no blank line in between).
    fn target_of(&self, line: u32) -> Option<u32> {
        let mut l = line + 1;
        while self.comment_only(l) {
            l += 1;
        }
        self.code.contains(&l).then_some(l)
    }
}

/// Map-iteration methods R2 flags.
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
/// from R2 when they appear in the same statement.
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

/// Report order: (file, line, col, rule).
fn by_position(a: &Violation, b: &Violation) -> Ordering {
    (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
}

impl Linter {
    /// A linter whose R7 section set is `sections`.
    pub fn with_sections(sections: BTreeSet<String>) -> Linter {
        Linter { sections }
    }

    /// Lints one source file in isolation — the fixture entry point.
    /// The call-graph rules see a one-file workspace, so single-file
    /// helper chains still resolve.
    pub fn check_source(&self, rel_path: &str, src: &str) -> FileReport {
        let ws = self.check_sources(&[(rel_path, src)]);
        FileReport {
            suppressed: ws.suppressions.len(),
            violations: ws.violations,
        }
    }

    /// Lints a set of files as one workspace: the per-file rules R2–R7,
    /// then R1 and R8 over the symbol table and call graph, then
    /// suppression.
    pub fn check_sources(&self, files: &[(&str, &str)]) -> WorkspaceReport {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(rel, src)| parser::parse_tokens(rel, lex(src)))
            .collect();
        let in_test: Vec<Vec<bool>> = parsed.iter().map(|p| test_flags(&p.toks)).collect();

        let mut raw: Vec<Violation> = Vec::new();
        let mut markers: BTreeMap<String, Vec<Marker>> = BTreeMap::new();
        let mut budgets: Vec<Vec<BudgetMarker>> = Vec::new();
        for (pf, in_test) in parsed.iter().zip(&in_test) {
            let rel = pf.rel.as_str();
            let toks = &pf.toks;
            let lines = Lines::of(toks);
            let (mk, bd) = collect_markers(toks, &lines, rel, &mut raw);
            markers.insert(rel.to_string(), mk);
            budgets.push(bd);

            if is_deterministic_path(rel) {
                rule_unordered_iteration(pf, in_test, &mut raw);
            }
            if !rel.starts_with("crates/bench") {
                rule_wall_clock_rng(toks, rel, &mut raw);
            }
            if rel != "crates/runtime/src/pool.rs" {
                rule_raw_spawn(toks, in_test, rel, &mut raw);
            }
            rule_safety_comments(toks, &lines, rel, &mut raw);
            if !rel.starts_with("crates/knobs/src") {
                rule_env_knob_registry(toks, rel, &mut raw);
            }
            rule_design_doc_refs(toks, rel, &self.sections, &mut raw);
        }

        // ------------------------------------------------- call graph
        let sym = SymbolTable::build(parsed);
        let cg = CallGraph::build(&sym);
        rule_unbatched_get(&sym, &cg, &in_test, &mut raw);
        rule_query_budget(&sym, &cg, &budgets, &mut raw);

        // Apply suppressions: a marker silences matching violations on
        // its own line and on the code line its comment block abuts.
        raw.sort_by(by_position);
        raw.dedup();
        let mut report = WorkspaceReport::default();
        for v in raw {
            let marker = markers.get_mut(&v.file).and_then(|ms| {
                ms.iter_mut()
                    .find(|m| m.rule == v.rule && (m.line == v.line || m.target == Some(v.line)))
            });
            match marker {
                Some(m) => {
                    m.used = true;
                    report.suppressions.push(SuppressionEntry {
                        rule: v.rule,
                        file: v.file,
                        line: v.line,
                        justification: m.justification.clone(),
                    });
                }
                None => report.violations.push(v),
            }
        }
        // A marker that silences nothing justifies nothing: the code it
        // sat beside moved or changed, and the exception went stale.
        for (file, ms) in &markers {
            for m in ms.iter().filter(|m| !m.used) {
                report.violations.push(Violation {
                    rule: BAD_SUPPRESSION,
                    file: file.clone(),
                    line: m.line,
                    col: m.col,
                    message: format!(
                        "`allow({})` silences nothing: no `{}` finding on this line or \
                         the code line its comment block abuts; delete the marker or \
                         move it to the finding it justifies",
                        m.rule, m.rule
                    ),
                    chain: Vec::new(),
                });
            }
        }
        report.violations.sort_by(by_position);
        report
            .suppressions
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        report
    }
}

/// Kernel-code scope for R1: the AMPC kernels plus the facade and
/// the examples that demonstrate them.
fn in_kernel_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src") || rel.starts_with("src/") || rel.starts_with("examples/")
}

/// The paths whose code must be schedule- and process-independent
/// (R2 scope): everything that runs between input and output digest,
/// plus the facade and the examples built on it.
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

/// R8 scope: the kernel crates whose `*_in_job` bodies carry budgets.
fn in_budget_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src") || rel.starts_with("crates/mpc/src")
}

/// One pass of brace/paren matching that marks every token inside a
/// `#[cfg(test)]` module or `#[test]` function.
fn test_flags(toks: &[Tok]) -> Vec<bool> {
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
    in_test
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

/// Parses `// ampc-lint: …` markers: `allow(<rule>) -- <justification>`
/// suppressions and `budget(batched-requests = N)` annotations.
/// Malformed markers (missing justification, unknown rule name, bad
/// budget grammar) are reported as `bad-suppression` violations — which
/// are themselves unsuppressible.
fn collect_markers(
    toks: &[Tok],
    lines: &Lines,
    rel: &str,
    out: &mut Vec<Violation>,
) -> (Vec<Marker>, Vec<BudgetMarker>) {
    let mut markers = Vec::new();
    let mut budgets = Vec::new();
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
                    col: t.col,
                    target: lines.target_of(t.line),
                    justification: j.to_string(),
                    used: false,
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

/// R1: a per-key `handle.get`/`try_get` that runs once per loop
/// iteration — it sits in a loop (or iterator-adapter callback) of its
/// own body, or its function is reachable through the call graph from
/// an in-loop call. A loop site counts when it is in kernel scope and
/// outside test code. The finding sits **at the get**, so the allow
/// marker that justifies an adaptive chain (each key depends on the
/// previous value — the lookups that *define* AMPC) sits next to the
/// query it justifies, once, however many loops reach it.
fn rule_unbatched_get(
    sym: &SymbolTable,
    cg: &CallGraph<'_>,
    in_test: &[Vec<bool>],
    out: &mut Vec<Violation>,
) {
    let loop_site = |id: FnId, call: &CallSite| {
        call.in_loop && in_kernel_scope(sym.rel_of(id)) && !in_test[sym.fns[id].file][call.tok]
    };
    for (id, call, chain) in cg.gets_under_loops(loop_site) {
        let get = format!("handle.{}()", call.callee);
        let message = if chain.is_empty() {
            format!("per-key `{get}` inside a loop")
        } else {
            format!(
                "per-key `{get}` runs once per iteration of a loop that reaches it ({})",
                render_chain(&chain)
            )
        };
        out.push(Violation {
            rule: R1,
            file: sym.rel_of(id).to_string(),
            line: call.line,
            col: call.col,
            message: format!(
                "{message}: independent lookups must be batched with \
                 `get_many_with`/`get_many_into` (one accounted round trip); if the \
                 chain is adaptive (each key depends on the previous value), say so \
                 in an allow marker at the get"
            ),
            chain,
        });
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
/// a std hash collection — per `fn` item, from the `fn` keyword to the
/// end of the body, so parameters count and a name bound in one
/// function says nothing about another — then flag iteration sites over
/// those names unless the same statement ends in an order-insensitive
/// sink or a `sort*` call follows within three lines. `FxHashMap`/
/// `FxHashSet` (fixed seed, canonicalized by every consumer) are exempt
/// by name; test-only code is exempt by scope.
fn rule_unordered_iteration(pf: &ParsedFile, in_test: &[bool], out: &mut Vec<Violation>) {
    let toks = &pf.toks;
    // `owner[i]`: the innermost fn item whose `fn … { … }` span holds
    // token `i` (items are in body order, so nested ones overwrite).
    let mut owner: Vec<Option<usize>> = vec![None; toks.len()];
    let mut bound: Vec<BTreeSet<String>> = Vec::new();
    for f in pf.fns.iter().filter(|f| !f.is_closure) {
        owner[f.intro_tok..=f.body.1].fill(Some(bound.len()));
        bound.push(hash_bound_names(toks, f.intro_tok, f.body.1 + 1));
    }
    if bound.iter().all(BTreeSet::is_empty) {
        return;
    }

    let flag = |i: usize, out: &mut Vec<Violation>| {
        out.push(Violation {
            rule: R2,
            file: pf.rel.clone(),
            line: toks[i].line,
            col: toks[i].col,
            message: format!(
                "iteration over std hash collection `{}`: visit order is \
                 randomized per process, which diverges outputs across runs and \
                 machines; collect-and-sort, use a BTree collection, or justify \
                 with an allow marker",
                toks[i].text
            ),
            chain: Vec::new(),
        });
    };

    for i in 0..toks.len() {
        let Some(names) = owner[i].map(|o| &bound[o]) else {
            continue;
        };
        if in_test[i] || names.is_empty() {
            continue;
        }
        // `name.iter()` / `.keys()` / `.drain()` / …
        if toks[i].kind == TokKind::Ident
            && names.contains(&toks[i].text)
            && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|t| MAP_ITER_METHODS.contains(&t.text.as_str()))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            && !statement_is_order_safe(toks, i)
        {
            flag(i, out);
        }
        // `for pat in [&mut] name …`
        if toks[i].is_ident("for") && is_loop_for(toks, i) {
            let mut j = i + 1;
            let mut hit: Option<usize> = None;
            let mut safe = false;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].kind == TokKind::Ident {
                    if names.contains(&toks[j].text) {
                        hit.get_or_insert(j);
                    }
                    if ORDER_SAFE_SINKS.contains(&toks[j].text.as_str()) {
                        safe = true;
                    }
                }
                j += 1;
            }
            if let (Some(h), false) = (hit, safe) {
                flag(h, out);
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

/// R4: `thread::spawn` / `thread::Builder` / `thread::scope` anywhere
/// but the persistent pool and test code. One spawn path means one
/// place to enforce naming, panic propagation and the `AMPC_THREADS`
/// cap.
fn rule_raw_spawn(toks: &[Tok], in_test: &[bool], rel: &str, out: &mut Vec<Violation>) {
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].is_ident("thread")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && ["spawn", "Builder", "scope"]
                .iter()
                .any(|m| toks[i + 3].is_ident(m))
            && !in_test[i]
        {
            out.push(Violation {
                rule: R4,
                file: rel.to_string(),
                line: toks[i + 3].line,
                col: toks[i + 3].col,
                message: format!(
                    "raw `std::thread::{}`: all worker parallelism must flow \
                     through runtime's persistent WorkerPool (runtime/src/pool.rs) \
                     so AMPC_THREADS=1 really means inline",
                    toks[i + 3].text
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// R5: every `unsafe` keyword must carry a `// SAFETY:` comment — on
/// the same line, or anywhere in the contiguous comment block that
/// directly precedes it (no code or blank lines in between).
fn rule_safety_comments(toks: &[Tok], lines: &Lines, rel: &str, out: &mut Vec<Violation>) {
    for t in toks {
        if !t.is_ident("unsafe") {
            continue;
        }
        let mut documented = lines.comment.get(&t.line) == Some(&true);
        let mut l = t.line.saturating_sub(1);
        while !documented && l >= 1 && lines.comment_only(l) {
            documented = lines.comment[&l];
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

/// R8: every `*_in_job` kernel in the kernel crates declares its
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
                rule: R8,
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
            rule: R8,
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
