//! A minimal comment- and string-aware lexer for Rust source.
//!
//! The conformance rules (see [`crate::rules`]) are *lexical*: they
//! match token shapes like `handle . get (` or `env :: var`, so the
//! lexer's only hard job is to never misread a string literal, char
//! literal or comment as code. It handles line and (nested) block
//! comments, plain/raw/byte strings, char literals vs lifetimes, and
//! numeric literals; everything else is an identifier or a
//! single-character punctuation token. Comments are *kept* as tokens —
//! the `safety-comments` and `design-doc-refs` rules and the
//! suppression-marker grammar all read them.

/// What a token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`handle`, `for`, `HashMap`, …).
    Ident,
    /// A single punctuation character (`.`, `(`, `{`, `:`, …).
    Punct(char),
    /// A `//…` or `/*…*/` comment, text preserved verbatim.
    Comment,
    /// A string/char/numeric literal. Numeric literals keep their text;
    /// string and char contents are dropped (no rule may read them as
    /// code).
    Literal,
}

/// One token with its source position.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Identifier, comment, or numeric-literal text (empty for
    /// punctuation and string/char literals).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Tok {
    /// True if this is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Lexes `src` into tokens. Unknown bytes are skipped rather than
/// rejected: the linter must degrade gracefully on source it cannot
/// fully understand (rustc is the authority on well-formedness).
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32, col: u32) {
        self.out.push(Tok {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line, col),
                '/' if self.peek(1) == Some('*') => self.block_comment(line, col),
                '"' => self.string_literal(line, col),
                'r' | 'b' if self.raw_or_byte_prefix() => self.prefixed_literal(line, col),
                '\'' => self.quote(line, col),
                c if c.is_alphabetic() || c == '_' => self.ident(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct(c), String::new(), line, col);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::Comment, text, line, col);
    }

    fn block_comment(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokKind::Comment, text, line, col);
    }

    /// True at an `r"`, `r#"`, `b"`, `b'` or `br"`/`br#"` literal
    /// prefix (as opposed to an identifier starting with `r`/`b`).
    fn raw_or_byte_prefix(&self) -> bool {
        matches!(
            (self.peek(0), self.peek(1), self.peek(2)),
            (Some('r'), Some('"' | '#'), _)
                | (Some('b'), Some('"' | '\''), _)
                | (Some('b'), Some('r'), Some('"' | '#'))
        )
    }

    fn prefixed_literal(&mut self, line: u32, col: u32) {
        // Consume the `r`/`b`/`br` prefix.
        while matches!(self.peek(0), Some('r' | 'b')) {
            self.bump();
        }
        if self.peek(0) == Some('\'') {
            // Byte char `b'x'`.
            self.bump();
            self.char_body();
            self.push(TokKind::Literal, String::new(), line, col);
            return;
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != Some('"') {
            // `r#ident` (raw identifier) — lex the ident itself.
            self.ident(line, col);
            return;
        }
        self.bump(); // opening quote
        if hashes == 0 {
            // Raw string without hashes still ignores backslash escapes.
            while let Some(c) = self.bump() {
                if c == '"' {
                    break;
                }
            }
        } else {
            'scan: while let Some(c) = self.bump() {
                if c == '"' {
                    let mut seen = 0usize;
                    while seen < hashes && self.peek(0) == Some('#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        break 'scan;
                    }
                }
            }
        }
        self.push(TokKind::Literal, String::new(), line, col);
    }

    fn string_literal(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Literal, String::new(), line, col);
    }

    /// A `'`: char literal or lifetime. `'\…'` and `'x'` are chars;
    /// `'ident` not followed by a closing quote is a lifetime.
    fn quote(&mut self, line: u32, col: u32) {
        if self.peek(1) == Some('\\') || self.peek(2) == Some('\'') {
            self.bump(); // opening quote
            self.char_body();
            self.push(TokKind::Literal, String::new(), line, col);
        } else {
            // Lifetime: emit the quote as punctuation, then the ident.
            self.bump();
            self.push(TokKind::Punct('\''), String::new(), line, col);
        }
    }

    fn char_body(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line, col);
    }

    /// Numeric literal: digits plus suffix/radix characters. Stops at
    /// `.` so ranges (`0..n`) stay three separate tokens; `1.5` lexes
    /// as two literals, which no rule cares about.
    fn number(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Literal, text, line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = r##"
            let s = "thread_rng() inside a string";
            let r = r#"env::var in a raw "string""#;
            // thread_rng in a line comment
            /* env::var in a /* nested */ block comment */
            let c = 'x';
            let esc = '\'';
            call(&s);
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(!ids.contains(&"env".to_string()));
        assert!(ids.contains(&"call".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // A lifetime must not swallow following code as a "char body".
        let ids = idents("fn f<'a>(x: &'a str) { real_ident(x) }");
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(ids.contains(&"a".to_string()));
    }

    #[test]
    fn comments_keep_text_and_position() {
        let toks = lex("let x = 1; // SAFETY: fine\n");
        let c = toks.iter().find(|t| t.kind == TokKind::Comment).unwrap();
        assert!(c.text.contains("SAFETY: fine"));
        assert_eq!(c.line, 1);
    }

    #[test]
    fn nested_block_comment_terminates() {
        let toks = lex("/* a /* b */ c */ after");
        assert!(toks.iter().any(|t| t.is_ident("after")));
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Comment).count(),
            1
        );
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let ids = idents("let r#type = 1; br#\"raw bytes\"#; r\"raw\";");
        assert!(ids.contains(&"type".to_string()));
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
