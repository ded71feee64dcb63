//! A lightweight item-level parser for Rust source, built on the
//! [`crate::lexer`] token stream.
//!
//! The call-graph rules (R1 and R8, DESIGN.md §9) and R2's per-function
//! name binding need to see *function boundaries* — which `fn` wraps
//! which call — not just token shapes. This module extracts exactly
//! that and nothing more: `fn` items (free functions, inherent/trait
//! methods, nested fns) and
//! *named closures* (`let f = |…| …`), each with its parameter list,
//! body token range, and the call expressions the body performs, with
//! per-call loop context computed relative to the owning item's body.
//!
//! It is deliberately **not** a Rust grammar: generics are skipped by
//! delimiter matching, types are kept as flat text, and anything the
//! parser cannot shape is ignored rather than rejected (rustc is the
//! authority on well-formedness; the linter must degrade gracefully).

use crate::lexer::{Tok, TokKind};

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The called name: method name for `recv.m(…)`, last path segment
    /// for `a::b::f(…)`, the identifier itself for `f(…)`.
    pub callee: String,
    /// For method calls whose receiver chain ends in a plain
    /// identifier (`ctx.handle.get(…)` → `handle`), that identifier.
    /// `None` for plain/path calls and computed receivers (`f().g(…)`).
    pub receiver: Option<String>,
    /// Leading path segments for a path call (`a::b::f` → `["a","b"]`).
    pub path: Vec<String>,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// 1-based source position of the callee identifier.
    pub line: u32,
    /// 1-based column of the callee identifier.
    pub col: u32,
    /// True when the call sits inside a `for`/`while`/`loop` body or an
    /// iterator-adapter callback *within the owning item's body* (a
    /// named closure's sites are judged against the closure body, not
    /// the loop its parent may sit in).
    pub in_loop: bool,
}

/// One function parameter: `(name, type-as-text)`. `self` receivers
/// appear as `("self", "Self")`; closure parameters without an
/// annotation have an empty type.
pub type Param = (String, String);

/// A function-like item: a `fn` or a named closure.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Item name (`fn` name, or the `let` binding for a closure).
    pub name: String,
    /// 1-based line of the name identifier.
    pub line: u32,
    /// 1-based column of the name identifier.
    pub col: u32,
    /// Token index of the introducing `fn` keyword (or `let` for a
    /// closure) — budget annotations bind by this order.
    pub intro_tok: usize,
    /// Body token range `[start, end]`, inclusive of delimiters.
    pub body: (usize, usize),
    /// Parameters, in declaration order.
    pub params: Vec<Param>,
    /// Calls performed directly by this body (nested named items'
    /// calls belong to the nested item, anonymous closures' calls to
    /// this one).
    pub calls: Vec<CallSite>,
    /// True for a `let name = |…| …` closure.
    pub is_closure: bool,
}

/// A parsed file: the token stream plus its function-like items,
/// ordered by body start.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// The full token stream (comments included).
    pub toks: Vec<Tok>,
    /// Function items in body-start order.
    pub fns: Vec<FnItem>,
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "fn", "let", "in", "as", "where",
    "impl", "move", "ref", "mut", "pub", "use", "unsafe", "dyn", "break", "continue", "crate",
    "super", "mod", "trait", "struct", "enum", "union", "static", "const", "type", "extern",
    "yield", "await", "box",
];

/// Parses `src` (already lexed to `toks`) into its item structure.
pub fn parse_tokens(rel: &str, toks: Vec<Tok>) -> ParsedFile {
    let mut fns = Vec::new();
    collect_fn_items(&toks, &mut fns);
    collect_named_closures(&toks, &mut fns);
    fns.sort_by_key(|f| f.body.0);
    // Owned ranges: each item's body minus nested items' bodies.
    let nested_of = |i: usize, fns: &[FnItem]| -> Vec<(usize, usize)> {
        fns.iter()
            .enumerate()
            .filter(|(j, g)| *j != i && g.body.0 > fns[i].body.0 && g.body.1 <= fns[i].body.1)
            .map(|(_, g)| g.body)
            .collect()
    };
    for i in 0..fns.len() {
        let nested = nested_of(i, &fns);
        let (start, end) = fns[i].body;
        let loop_flags = loop_flags_in(&toks, start, end);
        fns[i].calls = collect_calls(&toks, start, end, &nested, &loop_flags);
    }
    ParsedFile {
        rel: rel.to_string(),
        toks,
        fns,
    }
}

/// Convenience: lex + parse.
pub fn parse_source(rel: &str, src: &str) -> ParsedFile {
    parse_tokens(rel, crate::lexer::lex(src))
}

/// Index of the first non-comment token after `i`.
pub(crate) fn next_code(toks: &[Tok], i: usize) -> Option<usize> {
    toks[i + 1..]
        .iter()
        .position(|t| t.kind != TokKind::Comment)
        .map(|off| i + 1 + off)
}

/// Index of the last non-comment token before `i`.
pub(crate) fn prev_code(toks: &[Tok], i: usize) -> Option<usize> {
    toks[..i].iter().rposition(|t| t.kind != TokKind::Comment)
}

/// Finds every `fn` item with a body and records it.
fn collect_fn_items(toks: &[Tok], out: &mut Vec<FnItem>) {
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_idx) = next_code(toks, i) else {
            continue;
        };
        if toks[name_idx].kind != TokKind::Ident {
            continue; // `fn(u32)` pointer type, malformed source, …
        }
        // Skip a generics group directly after the name (it may contain
        // parens in `Fn(..)` bounds that are not the parameter list).
        // `->` never appears before the parameter list, so a bare `>`
        // always closes an angle here.
        let mut j = name_idx + 1;
        if next_code(toks, name_idx).is_some_and(|g| toks[g].is_punct('<')) {
            let mut angle = 0i32;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Scan the rest of the signature: stop at the first `{` (body)
        // or `;` (trait declaration) at paren/bracket depth 0. Where
        // clauses contain neither at depth 0.
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut params_range: Option<(usize, usize)> = None;
        let mut params_open: Option<usize> = None;
        let mut body_open: Option<usize> = None;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('(') => {
                    if paren == 0 && bracket == 0 && params_range.is_none() && params_open.is_none()
                    {
                        params_open = Some(j);
                    }
                    paren += 1;
                }
                TokKind::Punct(')') => {
                    paren -= 1;
                    if paren == 0 && bracket == 0 {
                        if let Some(open) = params_open.take() {
                            params_range.get_or_insert((open, j));
                        }
                    }
                }
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct('{') if paren == 0 && bracket == 0 => {
                    body_open = Some(j);
                    break;
                }
                TokKind::Punct(';') if paren == 0 && bracket == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let (Some(open), Some((ps, pe))) = (body_open, params_range) else {
            continue;
        };
        let Some(close) = match_brace(toks, open) else {
            continue;
        };
        out.push(FnItem {
            name: toks[name_idx].text.clone(),
            line: toks[name_idx].line,
            col: toks[name_idx].col,
            intro_tok: i,
            body: (open, close),
            params: parse_params(toks, ps, pe),
            calls: Vec::new(),
            is_closure: false,
        });
    }
}

/// Finds `let [mut] name = [move] |…| body` closures and records them
/// as callable items under `name`.
fn collect_named_closures(toks: &[Tok], out: &mut Vec<FnItem>) {
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") {
            continue;
        }
        let Some(mut n) = next_code(toks, i) else {
            continue;
        };
        if toks[n].is_ident("mut") {
            let Some(n2) = next_code(toks, n) else {
                continue;
            };
            n = n2;
        }
        if toks[n].kind != TokKind::Ident {
            continue;
        }
        let name_idx = n;
        let Some(eq) = next_code(toks, n) else {
            continue;
        };
        if !toks[eq].is_punct('=') {
            continue;
        }
        let Some(mut p) = next_code(toks, eq) else {
            continue;
        };
        if toks[p].is_ident("move") {
            let Some(p2) = next_code(toks, p) else {
                continue;
            };
            p = p2;
        }
        if !toks[p].is_punct('|') {
            continue;
        }
        // Parameter list: `||` is empty; otherwise scan to the closing
        // `|` (closure parameters cannot contain `|`).
        let close_pipe = match next_code(toks, p) {
            Some(q) if toks[q].is_punct('|') => q,
            _ => {
                let Some(q) = (p + 1..toks.len()).find(|&q| toks[q].is_punct('|')) else {
                    continue;
                };
                q
            }
        };
        let Some(body_start) = next_code(toks, close_pipe) else {
            continue;
        };
        // Body: a brace block, or an expression running to the `;` that
        // ends the `let` statement (at delimiter depth 0).
        let body = if toks[body_start].is_punct('{') {
            match match_brace(toks, body_start) {
                Some(close) => (body_start, close),
                None => continue,
            }
        } else {
            let mut depth = 0i32;
            let mut end = None;
            for (j, t) in toks.iter().enumerate().skip(body_start) {
                match t.kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                        if depth == 0 {
                            break; // unbalanced: `let` inside a call arg
                        }
                        depth -= 1;
                    }
                    TokKind::Punct(';') if depth == 0 => {
                        end = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
            match end {
                Some(e) if e > body_start => (body_start, e - 1),
                _ => continue,
            }
        };
        out.push(FnItem {
            name: toks[name_idx].text.clone(),
            line: toks[name_idx].line,
            col: toks[name_idx].col,
            intro_tok: i,
            body,
            params: parse_params(toks, p, close_pipe),
            calls: Vec::new(),
            is_closure: true,
        });
    }
}

/// Matches the brace opened at token `open`, comment-insensitive.
fn match_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
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

/// Parses a delimiter-bounded parameter list (`(…)` or `|…|`): each
/// top-level comma-separated segment yields `(name, type-text)`.
fn parse_params(toks: &[Tok], open: usize, close: usize) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut seg_start = open + 1;
    let mut segments = Vec::new();
    for (j, t) in toks.iter().enumerate().take(close).skip(open + 1) {
        match t.kind {
            TokKind::Punct('(')
            | TokKind::Punct('[')
            | TokKind::Punct('{')
            | TokKind::Punct('<') => depth += 1,
            TokKind::Punct(')')
            | TokKind::Punct(']')
            | TokKind::Punct('}')
            | TokKind::Punct('>') => depth -= 1,
            TokKind::Punct(',') if depth <= 0 => {
                segments.push((seg_start, j));
                seg_start = j + 1;
                depth = depth.max(0);
            }
            _ => {}
        }
    }
    if seg_start < close {
        segments.push((seg_start, close));
    }
    for (s, e) in segments {
        let code: Vec<usize> = (s..e)
            .filter(|&j| toks[j].kind != TokKind::Comment)
            .collect();
        if code.is_empty() {
            continue;
        }
        // `self` receiver (possibly `&self`, `&mut self`, `&'a self`).
        if let Some(&si) = code.iter().find(|&&j| toks[j].is_ident("self")) {
            let before_colon = code
                .iter()
                .position(|&j| toks[j].is_punct(':'))
                .map(|k| code[..k].contains(&si))
                .unwrap_or(true);
            if before_colon {
                params.push(("self".to_string(), "Self".to_string()));
                continue;
            }
        }
        // Find the first single `:` at segment top level (`::` is two
        // adjacent colon tokens — skip both).
        let mut colon = None;
        let mut d = 0i32;
        let mut k = 0usize;
        while k < code.len() {
            let j = code[k];
            match toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => d += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => d -= 1,
                TokKind::Punct(':') => {
                    let double = code.get(k + 1).is_some_and(|&j2| toks[j2].is_punct(':'));
                    if double {
                        k += 1;
                    } else if d <= 0 {
                        colon = Some(k);
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        match colon {
            Some(c) => {
                let name = code[..c]
                    .iter()
                    .rev()
                    .find(|&&j| toks[j].kind == TokKind::Ident && !toks[j].is_ident("mut"))
                    .map(|&j| toks[j].text.clone());
                let ty = type_text(toks, &code[c + 1..]);
                if let Some(name) = name {
                    params.push((name, ty));
                }
            }
            None => {
                // Unannotated closure parameter: the last identifier of
                // the pattern names the binding.
                if let Some(&j) = code
                    .iter()
                    .rev()
                    .find(|&&j| toks[j].kind == TokKind::Ident && !toks[j].is_ident("mut"))
                {
                    params.push((toks[j].text.clone(), String::new()));
                }
            }
        }
    }
    params
}

/// Flattens type tokens to a compact text form (`&mut MachineCtx<'a,V>`
/// → `&mut MachineCtx<'a,V>` roughly; exact spelling is irrelevant, the
/// rules only substring-match type names).
fn type_text(toks: &[Tok], code: &[usize]) -> String {
    let mut out = String::new();
    for &j in code {
        match &toks[j].kind {
            TokKind::Ident => {
                if !out.is_empty() && out.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                    out.push(' ');
                }
                out.push_str(&toks[j].text);
            }
            TokKind::Punct(c) => out.push(*c),
            TokKind::Literal => out.push_str(&toks[j].text),
            TokKind::Comment => {}
        }
    }
    out
}

/// Loop-context flags for `toks[start..=end]`, computed with fresh
/// scope stacks so the flags are relative to this body: index `k` in
/// the result corresponds to token `start + k`.
fn loop_flags_in(toks: &[Tok], start: usize, end: usize) -> Vec<bool> {
    let mut flags = vec![false; end + 1 - start];
    let mut braces: Vec<bool> = Vec::new();
    let mut parens: Vec<bool> = Vec::new();
    let mut loop_depth = 0usize;
    let mut pending_loop: Option<usize> = None;
    for idx in start..=end {
        let t = &toks[idx];
        flags[idx - start] = loop_depth > 0;
        match &t.kind {
            TokKind::Ident => match t.text.as_str() {
                "for" if is_loop_for(toks, idx) => pending_loop = Some(parens.len()),
                "while" | "loop" => pending_loop = Some(parens.len()),
                _ => {}
            },
            TokKind::Punct('(') => {
                let adapter = idx >= 2
                    && toks[idx - 1].kind == TokKind::Ident
                    && ITER_ADAPTERS.contains(&toks[idx - 1].text.as_str())
                    && toks[idx - 2].is_punct('.');
                if adapter {
                    loop_depth += 1;
                }
                parens.push(adapter);
            }
            TokKind::Punct(')') if parens.pop() == Some(true) => {
                loop_depth = loop_depth.saturating_sub(1);
            }
            TokKind::Punct('{') => {
                let is_loop = pending_loop.take().map(|d| d == parens.len()) == Some(true);
                if is_loop {
                    loop_depth += 1;
                }
                braces.push(is_loop);
            }
            TokKind::Punct('}') if braces.pop() == Some(true) => {
                loop_depth = loop_depth.saturating_sub(1);
            }
            _ => {}
        }
    }
    flags
}

/// Iterator adapters whose callback runs once per element: a call in
/// one counts as "inside a loop".
const ITER_ADAPTERS: &[&str] = &[
    "map",
    "for_each",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "scan",
    "inspect",
    "retain",
    "try_for_each",
];

/// Distinguishes loop-`for` (token `i`) from `impl Trait for Type` and
/// HRTB `for<'a>`: the latter two are preceded by a type position
/// (ident, `>`, `)`, `]`) or followed by `<`.
pub(crate) fn is_loop_for(toks: &[Tok], i: usize) -> bool {
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

/// Collects the call sites in `[start, end]`, skipping `nested` body
/// ranges (they belong to nested named items).
fn collect_calls(
    toks: &[Tok],
    start: usize,
    end: usize,
    nested: &[(usize, usize)],
    loop_flags: &[bool],
) -> Vec<CallSite> {
    let mut calls = Vec::new();
    let owned = |i: usize| !nested.iter().any(|&(s, e)| i >= s && i <= e);
    for i in start..=end {
        if toks[i].kind != TokKind::Ident || !owned(i) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&toks[i].text.as_str()) {
            continue;
        }
        // Callee must be directly followed by `(` (macros are `name!(`
        // and thus excluded).
        let Some(np) = next_code(toks, i) else {
            continue;
        };
        if !toks[np].is_punct('(') {
            continue;
        }
        let mut receiver = None;
        let mut path = Vec::new();
        match prev_code(toks, i) {
            Some(p) if toks[p].is_punct('.') => {
                if let Some(r) = prev_code(toks, p) {
                    if toks[r].kind == TokKind::Ident {
                        receiver = Some(toks[r].text.clone());
                    }
                }
            }
            Some(p) if toks[p].is_punct(':') => {
                // Walk `seg :: seg :: callee` backwards.
                let mut q = p;
                while let Some(c1) = prev_code(toks, q) {
                    if !toks[c1].is_punct(':') {
                        break;
                    }
                    let Some(seg) = prev_code(toks, c1) else {
                        break;
                    };
                    if toks[seg].kind != TokKind::Ident {
                        break;
                    }
                    path.insert(0, toks[seg].text.clone());
                    let Some(c2) = prev_code(toks, seg) else {
                        break;
                    };
                    if !toks[c2].is_punct(':') {
                        break;
                    }
                    q = c2;
                }
            }
            _ => {}
        }
        calls.push(CallSite {
            callee: toks[i].text.clone(),
            receiver,
            path,
            tok: i,
            line: toks[i].line,
            col: toks[i].col,
            in_loop: loop_flags[i - start],
        });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> ParsedFile {
        parse_source("crates/core/src/t.rs", src)
    }

    #[test]
    fn extracts_fn_items_params_and_calls() {
        let p = fns(r#"
            pub fn alpha(g: &CsrGraph, cfg: &mut AmpcConfig) -> u32 {
                beta(g);
                g.nodes().map(|v| gamma(v)).collect()
            }
            fn beta(x: &CsrGraph) {}
        "#);
        assert_eq!(p.fns.len(), 2);
        let a = &p.fns[0];
        assert_eq!(a.name, "alpha");
        assert_eq!(a.params.len(), 2);
        assert_eq!(a.params[0].0, "g");
        assert!(a.params[1].1.contains("AmpcConfig"));
        let names: Vec<&str> = a.calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(names.contains(&"beta") && names.contains(&"gamma"));
        let gamma = a.calls.iter().find(|c| c.callee == "gamma").unwrap();
        assert!(gamma.in_loop, "adapter callback is loop context");
        let beta = a.calls.iter().find(|c| c.callee == "beta").unwrap();
        assert!(!beta.in_loop);
    }

    #[test]
    fn method_receiver_and_path_calls() {
        let p = fns(r#"
            fn f(ctx: &mut Ctx) {
                ctx.handle.get(1);
                ampc_core::mis::run(2);
                make().chain(3);
            }
        "#);
        let calls = &p.fns[0].calls;
        let get = calls.iter().find(|c| c.callee == "get").unwrap();
        assert_eq!(get.receiver.as_deref(), Some("handle"));
        let run = calls.iter().find(|c| c.callee == "run").unwrap();
        assert_eq!(run.path, vec!["ampc_core", "mis"]);
        let chain = calls.iter().find(|c| c.callee == "chain").unwrap();
        assert_eq!(chain.receiver, None, "computed receiver");
    }

    #[test]
    fn named_closures_become_items_and_own_their_calls() {
        let p = fns(r#"
            fn outer(ctx: &mut Ctx) {
                let expand = |x: u32| {
                    ctx.handle.get(x);
                };
                loop {
                    expand(7);
                }
            }
        "#);
        assert_eq!(p.fns.len(), 2);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let expand = p.fns.iter().find(|f| f.name == "expand").unwrap();
        assert!(expand.is_closure);
        // The get belongs to the closure, not to outer.
        assert!(expand.calls.iter().any(|c| c.callee == "get"));
        assert!(!outer.calls.iter().any(|c| c.callee == "get"));
        // The expand() call in the loop belongs to outer, in loop scope.
        let call = outer.calls.iter().find(|c| c.callee == "expand").unwrap();
        assert!(call.in_loop);
        // The get inside the closure is NOT in-loop relative to the
        // closure body.
        assert!(
            !expand
                .calls
                .iter()
                .find(|c| c.callee == "get")
                .unwrap()
                .in_loop
        );
    }

    #[test]
    fn expression_closures_and_empty_params() {
        let p = fns("fn f() { let g = || tick(); let h = move |a, b| a + other(b); g(); }");
        let g = p.fns.iter().find(|f| f.name == "g").unwrap();
        assert!(g.calls.iter().any(|c| c.callee == "tick"));
        let h = p.fns.iter().find(|f| f.name == "h").unwrap();
        assert_eq!(h.params.len(), 2);
        assert!(h.calls.iter().any(|c| c.callee == "other"));
    }

    #[test]
    fn trait_decls_fn_types_and_struct_inits_are_not_items_or_calls() {
        let p = fns(r#"
            trait T { fn decl(&self) -> u32; }
            fn f(cb: fn(u32) -> u32) -> S {
                let s = S { a: 1 };
                mac!(arg);
                s.touch();
                s
            }
        "#);
        assert_eq!(p.fns.len(), 1, "only f has a body");
        let f = &p.fns[0];
        assert!(f.calls.iter().any(|c| c.callee == "touch"));
        assert!(
            !f.calls.iter().any(|c| c.callee == "mac"),
            "macros excluded"
        );
        assert!(!f.calls.iter().any(|c| c.callee == "S"));
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let p = fns(r#"
            fn outer() {
                fn inner(q: u8) { deep(q); }
                inner(1);
            }
        "#);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(inner.calls.iter().any(|c| c.callee == "deep"));
        assert!(!outer.calls.iter().any(|c| c.callee == "deep"));
        assert!(outer.calls.iter().any(|c| c.callee == "inner"));
    }

    #[test]
    fn self_receiver_param() {
        let p = fns("impl X { fn m(&mut self, k: u64) -> bool { self.probe(k) } }");
        let m = &p.fns[0];
        assert_eq!(m.params[0], ("self".to_string(), "Self".to_string()));
        assert_eq!(m.params[1].0, "k");
    }

    #[test]
    fn loop_for_inside_while_and_plain_loops() {
        let p = fns("fn f() { while go() { step(); } for x in 0..3 { body(x); } tail(); }");
        let f = &p.fns[0];
        for (name, in_loop) in [
            ("step", true),
            ("body", true),
            ("tail", false),
            ("go", false),
        ] {
            let c = f.calls.iter().find(|c| c.callee == name).unwrap();
            assert_eq!(c.in_loop, in_loop, "{name}");
        }
    }
}
