//! Minimal JSON utilities for the workload CLI and the repo benchmark.
//!
//! The workspace vendors no JSON crate, so run records are written with
//! `ampc_runtime::driver::json_string` + format strings, and this
//! module supplies the other half: a strict RFC 8259 parser. The CLI's
//! smoke mode (and CI) uses [`validate_json`] to prove every emitted
//! report actually parses; `benchmark compare` uses [`parse_json`] to
//! read two `result.json` files (or a committed `BENCH_*.json`) back in
//! and hold their counts to equality. Numbers keep their raw token
//! ([`Json::as_u64`] parses exactly), because output digests are
//! full-width `u64` values an `f64` would corrupt.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token for lossless reparsing.
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number as an exact `u64` (full 64-bit precision — digests
    /// are u64 tokens an `f64` round-trip would corrupt).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }
}

/// Checks that `s` is one well-formed JSON value (plus trailing
/// whitespace). Returns the byte offset and reason of the first error.
pub fn validate_json(s: &str) -> Result<(), String> {
    parse_json(s).map(|_| ())
}

/// Parses `s` as one well-formed JSON value (strict RFC 8259 grammar:
/// objects, arrays, strings with escapes, numbers, `true`/`false`/
/// `null`; trailing whitespace allowed).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    let v = parse_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing content at byte {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, i),
        Some(b'[') => parse_array(b, i),
        Some(b'"') => parse_string(b, i).map(Json::Str),
        Some(b't') => parse_lit(b, i, b"true").map(|()| Json::Bool(true)),
        Some(b'f') => parse_lit(b, i, b"false").map(|()| Json::Bool(false)),
        Some(b'n') => parse_lit(b, i, b"null").map(|()| Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, i),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *i)),
    }
}

fn parse_object(b: &[u8], i: &mut usize) -> Result<Json, String> {
    *i += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at byte {i}", i = *i));
        }
        let key = parse_string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}", i = *i));
        }
        *i += 1;
        let value = parse_value(b, i)?;
        fields.push((key, value));
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {i}", i = *i)),
        }
    }
}

fn parse_array(b: &[u8], i: &mut usize) -> Result<Json, String> {
    *i += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, i)?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {i}", i = *i)),
        }
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    *i += 1; // opening quote
    let mut out = String::new();
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(out);
            }
            b'\\' => {
                match b.get(*i + 1) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*i + 2..*i + 6).ok_or("truncated \\u escape")?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at byte {i}", i = *i));
                        }
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).expect("hex digits are ASCII"),
                            16,
                        )
                        .expect("validated hex");
                        // Surrogates decode to the replacement character
                        // (the workspace never emits them).
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *i += 6;
                        continue;
                    }
                    _ => return Err(format!("bad escape at byte {i}", i = *i)),
                }
                *i += 2;
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {i}", i = *i)),
            _ => {
                // Copy one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(*i..*i + len)
                    .ok_or("truncated UTF-8 sequence in string")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 in string")?);
                *i += len;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<Json, String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        *i > s
    };
    // RFC 8259 int: `0` or a nonzero digit followed by digits — a
    // leading zero may not be followed by more digits.
    let int_start = *i;
    if !digits(b, i) {
        return Err(format!("bad number at byte {start}"));
    }
    if b[int_start] == b'0' && *i > int_start + 1 {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    let token = std::str::from_utf8(&b[start..*i]).expect("number tokens are ASCII");
    Ok(Json::Num(token.to_string()))
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *i + lit.len() && &b[*i..*i + lit.len()] == lit {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}", i = *i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e10",
            r#"{"a": [1, 2, {"b": "c\n"}], "d": true, "e": null}"#,
            "  {\n\"x\": -0.5}\n",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2,]",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "01",
            "-00.5",
            "{\"n\": 01}",
            "{} extra",
            "{'single': 1}",
            "{\"bad\": \\q}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parses_values_losslessly() {
        let doc = parse_json(
            r#"{"name": "dyn-cc", "digest": 12836948064979459057, "speedup": 1.128,
                "list": [1, "two!", false, null]}"#,
        )
        .unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("dyn-cc"));
        // Full-width u64: would be corrupted through f64.
        assert_eq!(
            doc.get("digest").unwrap().as_u64(),
            Some(12836948064979459057)
        );
        assert_eq!(doc.get("speedup").unwrap().as_f64(), Some(1.128));
        let list = doc.get("list").unwrap().as_arr().unwrap();
        assert_eq!(list.len(), 4);
        assert_eq!(list[1].as_str(), Some("two!"));
        assert_eq!(list[2], Json::Bool(false));
        assert_eq!(list[3], Json::Null);
        assert_eq!(doc.get("missing"), None);
    }

    /// The committed trajectory is what `benchmark run` / `trace` wrote:
    /// each file parses strictly, reports no failed repetition, and names
    /// every workload of `BENCHMARK.json` with every metric of its kind.
    #[test]
    fn committed_bench_files_name_every_workload_and_metric() {
        let read = |file: &str| {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            parse_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
        };
        let contract = read("BENCHMARK.json");
        let names = |key: &str| -> Vec<&str> {
            let list = contract.get(key).and_then(Json::as_arr).unwrap();
            let name = |entry| Json::get(entry, "name").and_then(Json::as_str).unwrap();
            list.iter().map(name).collect()
        };
        for (file, kind) in [
            ("BENCH_perf.json", "end_to_end"),
            ("BENCH_layers.json", "per_layer"),
        ] {
            let doc = read(file);
            let records = doc.get("workloads").and_then(Json::as_arr).unwrap();
            let metrics = names(kind);
            for workload in names("workloads") {
                let record = records
                    .iter()
                    .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
                    .unwrap_or_else(|| panic!("{file} lacks workload {workload}"));
                assert_eq!(
                    record.get("failed").and_then(Json::as_u64),
                    Some(0),
                    "{file}: {workload} has failed repetitions"
                );
                let digest = record.get("counts").and_then(|c| c.get("digest"));
                assert!(
                    digest.and_then(Json::as_u64).is_some(),
                    "{file}: {workload} lacks an exact digest"
                );
                for &metric in &metrics {
                    let value = record
                        .get("metrics")
                        .and_then(|m| m.get(metric))
                        .and_then(|m| m.get("value"));
                    assert!(
                        value.and_then(Json::as_f64).is_some(),
                        "{file}: {workload} lacks {metric}"
                    );
                }
            }
        }
    }
}
