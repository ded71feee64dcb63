//! Property tests for the lint front end: the lexer and parser must
//! never panic, whatever bytes they are fed — the linter degrades
//! gracefully on source it cannot understand (rustc is the authority
//! on well-formedness). Inputs come from two generators: arbitrary
//! fragment soup (adversarial token boundaries, unbalanced delimiters,
//! unterminated strings) and mutated copies of the linter's own real
//! sources (realistic shape, corrupted at random char boundaries).
//! Beyond not panicking, spans are checked: 1-based, in-bounds, and
//! monotone in (line, col).

use ampc_lint::lexer::{lex, Tok};
use ampc_lint::parser::parse_tokens;
use ampc_lint::rules::Linter;
use proptest::collection::vec;
use proptest::prelude::*;

/// Fragments chosen to stress every lexer state and parser production:
/// keywords, markers, comment and string openers (some unterminated),
/// multi-byte chars, and the grammar the rules read.
const FRAGMENTS: &[&str] = &[
    "fn ",
    "pub ",
    "let ",
    "mut ",
    "for ",
    "in ",
    "loop ",
    "while ",
    "if ",
    "return ",
    "move ",
    "unsafe ",
    "impl ",
    "x",
    "y",
    "handle",
    "ctx",
    "get",
    "get_many_with",
    "try_get",
    "put_many",
    "push",
    "HashMap",
    "HashSet",
    "keys",
    "iter",
    "collect",
    "sort",
    "_in_job",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "<",
    ">",
    ".",
    ",",
    ";",
    ":",
    "::",
    "=",
    "=>",
    "->",
    "&",
    "&mut ",
    "|",
    "'",
    "\"",
    "\"unterminated",
    "'c'",
    "b'\\n'",
    "r#\"raw\"#",
    "0",
    "1",
    "42",
    "0x1f",
    "1_000",
    "3.14",
    "// comment\n",
    "// ampc-lint: allow(no-unbatched-get) -- why\n",
    "// ampc-lint: allow(",
    "// ampc-lint: budget(batched-requests = 2)\n",
    "// ampc-lint: budget(batched-requests = )\n",
    "/* block */",
    "/* unterminated",
    "*/",
    "§5.3",
    "§",
    "\n",
    " ",
    "\t",
    "é",
    "→",
    "𝕊",
    "\\",
    "#",
    "#[test]\n",
    "#[cfg(test)]\n",
    "..",
    "..=",
];

fn arb_soup() -> impl Strategy<Value = String> {
    vec(0..FRAGMENTS.len(), 0..64)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect::<String>())
}

/// Real sources to mutate: the linter's own front end, eating itself.
const REAL: &[&str] = &[
    include_str!("../src/lexer.rs"),
    include_str!("../src/parser.rs"),
    include_str!("../src/callgraph.rs"),
    include_str!("fixtures/r1_flag.rs"),
    include_str!("fixtures/r2_flag.rs"),
];

/// (file, op, a, b, fragment) seeds for one mutation. Positions are
/// resolved to char boundaries inside the chosen file.
fn arb_mutation() -> impl Strategy<Value = String> {
    (
        (0..REAL.len(), 0..4usize),
        (0..1usize << 16, 0..1usize << 16, 0..FRAGMENTS.len()),
    )
        .prop_map(|((fi, op), (a, b, frag))| {
            let src = REAL[fi];
            let bounds: Vec<usize> = src
                .char_indices()
                .map(|(i, _)| i)
                .chain(std::iter::once(src.len()))
                .collect();
            let p = bounds[a % bounds.len()];
            let q = bounds[b % bounds.len()];
            let (lo, hi) = (p.min(q), p.max(q));
            match op {
                0 => src[..hi].to_string(),                   // truncate
                1 => format!("{}{}", &src[..lo], &src[hi..]), // delete range
                2 => format!("{}{}{}", &src[..lo], FRAGMENTS[frag], &src[lo..]), // insert
                _ => format!("{}{}{}", &src[..lo], &src[lo..hi], &src[lo..]), // duplicate slice
            }
        })
}

/// Spans: every token 1-based and positions monotone non-decreasing in
/// (line, col) — the lexer walks the source forward, so must its spans.
fn check_spans(src: &str, toks: &[Tok]) {
    let lines = src.lines().count().max(1) as u32;
    let mut prev = (1u32, 0u32);
    for t in toks {
        assert!(t.line >= 1 && t.col >= 1, "0-based span: {t:?}");
        assert!(
            t.line <= lines + 1,
            "line {} beyond source ({} lines)",
            t.line,
            lines
        );
        let cur = (t.line, t.col);
        assert!(
            cur >= prev,
            "spans went backwards: {prev:?} then {cur:?} ({t:?})"
        );
        prev = cur;
    }
}

/// Parsed structure: body ranges and token indices all in-bounds.
fn check_structure(rel: &str, toks: Vec<Tok>) {
    let n = toks.len();
    let parsed = parse_tokens(rel, toks);
    for f in &parsed.fns {
        assert!(
            f.body.0 <= f.body.1 && f.body.1 < n,
            "body out of bounds: {:?} of {n} in `{}`",
            f.body,
            f.name
        );
        assert!(f.intro_tok < n, "intro_tok out of bounds in `{}`", f.name);
        assert!(f.line >= 1 && f.col >= 1);
        for c in &f.calls {
            assert!(c.tok < n, "call tok out of bounds: {c:?}");
            assert!(c.line >= 1 && c.col >= 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn lexer_and_parser_survive_fragment_soup(src in arb_soup()) {
        let toks = lex(&src);
        check_spans(&src, &toks);
        check_structure("crates/core/src/soup.rs", toks);
    }

    #[test]
    fn lexer_and_parser_survive_mutated_real_source(src in arb_mutation()) {
        let toks = lex(&src);
        check_spans(&src, &toks);
        check_structure("crates/core/src/mutated.rs", toks);
    }

    #[test]
    fn full_rule_engine_survives_fragment_soup(src in arb_soup()) {
        // The whole pipeline — scopes, markers, call graph, all eight
        // rules — must also degrade gracefully, under every scoped path.
        let linter = Linter::with_sections(
            ["1", "3", "5.3", "5.4", "9"].iter().map(|s| s.to_string()).collect(),
        );
        for rel in [
            "crates/core/src/soup.rs",
            "crates/dht/src/soup.rs",
            "src/soup.rs",
        ] {
            let report = linter.check_source(rel, &src);
            for v in &report.violations {
                prop_assert!(v.line >= 1, "0-based violation line: {v:?}");
            }
        }
    }

    #[test]
    fn full_rule_engine_survives_mutated_real_source(src in arb_mutation()) {
        let linter = Linter::with_sections(
            ["1", "3", "5.3", "5.4", "9"].iter().map(|s| s.to_string()).collect(),
        );
        let report = linter.check_source("crates/dht/src/mutated.rs", &src);
        for v in &report.violations {
            prop_assert!(v.line >= 1, "0-based violation line: {v:?}");
        }
    }

    #[test]
    fn lexing_is_deterministic(src in arb_soup()) {
        let a = lex(&src);
        let b = lex(&src);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.text, &y.text);
            prop_assert_eq!((x.line, x.col), (y.line, y.col));
        }
    }
}
